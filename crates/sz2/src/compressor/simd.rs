//! The AVX2 arm of the sz2 block kernels.
//!
//! Dispatched from the parent module on [`hqmr_codec::kernels::simd_level`];
//! each kernel is bit-identical to the scalar loop it shadows. The kernels work
//! a whole block per call (constants hoisted out of the tiny per-row loops)
//! and two patterns keep float results exact:
//!
//! * **Lane-per-accumulator** ([`fit_plane_sums_avx2`]): the four plane-fit
//!   sums live one per lane and every point updates all four with one
//!   broadcast multiply-add — each lane performs exactly the scalar add
//!   sequence (`1.0 * v == v`, and weight products round identically).
//! * **Lane-per-point with ordered horizontal adds** (the estimators): the
//!   per-point terms are independent, so four compute in parallel, but the
//!   running total is a serial float sum whose association is
//!   selection-relevant — lanes are added back one at a time in point order.
//!
//! The plane walk ([`walk_plane_block_avx2`]) serves both directions, like
//! the scalar [`super::walk_block`]: it hands groups of four cells to the
//! point step's [`Quad`] form, which turns a group down when any lane is an
//! outlier, a rounding tie, or fails a recheck — the group then replays
//! through the scalar [`PointStep::point`], so the side channel stays in
//! point order.

use super::{lorenzo, lorenzo_interior, Plane};
use hqmr_codec::quantizer::{abs4, PointStep, Quad};
use hqmr_codec::LinearQuantizer;
use hqmr_grid::{Dims3, Field3};
use std::arch::x86_64::*;

#[inline]
#[target_feature(enable = "avx2")]
unsafe fn ld4(data: &[f32], i: usize) -> __m256d {
    _mm256_cvtps_pd(_mm_loadu_ps(data.as_ptr().add(i)))
}

/// AVX2 arm of the plane-fit accumulation: lanes are `[Σv, Σwx·v, Σwy·v,
/// Σwz·v]`, updated per point in row-major order.
///
/// # Safety
/// Requires AVX2 (guaranteed by the dispatcher).
#[target_feature(enable = "avx2")]
pub(super) unsafe fn fit_plane_sums_avx2(
    field: &Field3,
    origin: [usize; 3],
    size: Dims3,
    mx: f64,
    my: f64,
    mz: f64,
) -> (f64, f64, f64, f64) {
    let dims = field.dims();
    let data = field.data();
    let one3 = _mm256_set_pd(1.0, 0.0, 0.0, 0.0);
    let mut acc = _mm256_setzero_pd();
    for x in 0..size.nx {
        let wx = x as f64 - mx;
        for y in 0..size.ny {
            let wy = y as f64 - my;
            let row = dims.idx(origin[0] + x, origin[1] + y, origin[2]);
            // Lanes low→high: [1.0, wx, wy, z − mz].
            let mut w = _mm256_set_pd(-mz, wy, wx, 1.0);
            for &vf in &data[row..row + size.nz] {
                let v = _mm256_set1_pd(vf as f64);
                acc = _mm256_add_pd(acc, _mm256_mul_pd(w, v));
                w = _mm256_add_pd(w, one3);
            }
        }
    }
    let mut s = [0f64; 4];
    _mm256_storeu_pd(s.as_mut_ptr(), acc);
    (s[0], s[1], s[2], s[3])
}

/// AVX2 arm of the Lorenzo-error bound test: accumulates the block's
/// absolute Lorenzo error exactly like the scalar scan (ordered lane folds)
/// and answers `err > bound`, bailing out after any row once the monotone
/// partial sum already exceeds `bound` — the decision is identical, most of
/// the scan is skipped on regression-dominated data.
///
/// # Safety
/// Requires AVX2 (guaranteed by the dispatcher).
#[target_feature(enable = "avx2")]
pub(super) unsafe fn lorenzo_exceeds_avx2(
    field: &Field3,
    origin: [usize; 3],
    size: Dims3,
    bound: f64,
) -> bool {
    let d = field.dims();
    let data = field.data();
    let (sx, sy) = (d.ny * d.nz, d.nz);
    let mut acc = 0.0f64;
    for x in 0..size.nx {
        let gx = origin[0] + x;
        for y in 0..size.ny {
            let gy = origin[1] + y;
            let row = d.idx(gx, gy, origin[2]);
            if gx == 0 || gy == 0 {
                for z in 0..size.nz {
                    let gz = origin[2] + z;
                    let pred = lorenzo(data, d, gx, gy, gz);
                    acc += (data[row + z] as f64 - pred).abs();
                }
            } else {
                let mut i = row;
                if origin[2] == 0 {
                    let pred = lorenzo(data, d, gx, gy, 0);
                    acc += (data[i] as f64 - pred).abs();
                    i += 1;
                }
                let end = row + size.nz;
                while i + 4 <= end {
                    // Same term order as `lorenzo_interior`, per lane.
                    let pred = _mm256_add_pd(
                        _mm256_sub_pd(
                            _mm256_sub_pd(
                                _mm256_sub_pd(
                                    _mm256_add_pd(
                                        _mm256_add_pd(ld4(data, i - sx), ld4(data, i - sy)),
                                        ld4(data, i - 1),
                                    ),
                                    ld4(data, i - sx - sy),
                                ),
                                ld4(data, i - sx - 1),
                            ),
                            ld4(data, i - sy - 1),
                        ),
                        ld4(data, i - sx - sy - 1),
                    );
                    let dv = abs4(_mm256_sub_pd(ld4(data, i), pred));
                    let mut t = [0f64; 4];
                    _mm256_storeu_pd(t.as_mut_ptr(), dv);
                    acc += t[0];
                    acc += t[1];
                    acc += t[2];
                    acc += t[3];
                    i += 4;
                }
                while i < end {
                    let pred = lorenzo_interior(data, i, sx, sy);
                    acc += (data[i] as f64 - pred).abs();
                    i += 1;
                }
            }
            if acc > bound {
                return true;
            }
        }
    }
    acc > bound
}

/// AVX2 arm of the plane-predictor error scan over a whole block
/// (predictions `((c0 + c1·x) + c2·y) + c3·z`), ordered folds like the
/// Lorenzo scan.
///
/// # Safety
/// Requires AVX2 (guaranteed by the dispatcher).
#[target_feature(enable = "avx2")]
pub(super) unsafe fn plane_err_block_avx2(
    field: &Field3,
    origin: [usize; 3],
    size: Dims3,
    plane: &Plane,
) -> f64 {
    let d = field.dims();
    let data = field.data();
    let c3 = plane.c[3] as f64;
    let c3v = _mm256_set1_pd(c3);
    let four = _mm256_set1_pd(4.0);
    let zv0 = _mm256_set_pd(3.0, 2.0, 1.0, 0.0);
    let mut acc = 0.0f64;
    for x in 0..size.nx {
        let bx = plane.c[0] as f64 + plane.c[1] as f64 * x as f64;
        for y in 0..size.ny {
            let bxy = bx + plane.c[2] as f64 * y as f64;
            let row = d.idx(origin[0] + x, origin[1] + y, origin[2]);
            let bxv = _mm256_set1_pd(bxy);
            let mut zv = zv0;
            let mut z = 0usize;
            while z + 4 <= size.nz {
                let pred = _mm256_add_pd(bxv, _mm256_mul_pd(c3v, zv));
                let dv = abs4(_mm256_sub_pd(ld4(data, row + z), pred));
                let mut t = [0f64; 4];
                _mm256_storeu_pd(t.as_mut_ptr(), dv);
                acc += t[0];
                acc += t[1];
                acc += t[2];
                acc += t[3];
                zv = _mm256_add_pd(zv, four);
                z += 4;
            }
            while z < size.nz {
                let pred = bxy + c3 * z as f64;
                acc += (data[row + z] as f64 - pred).abs();
                z += 1;
            }
        }
    }
    acc
}

/// AVX2 arm of the plane-path walk over a whole block: groups of four
/// cells go to [`PointStep::quad`], and a group it turns down replays
/// through [`PointStep::point`], so codes, outliers and values land exactly
/// as the scalar loop would put them.
///
/// # Safety
/// Requires AVX2 (guaranteed by the dispatcher).
#[target_feature(enable = "avx2")]
pub(super) unsafe fn walk_plane_block_avx2<S: PointStep>(
    q: &LinearQuantizer,
    buf: &mut [f32],
    dims: Dims3,
    origin: [usize; 3],
    size: Dims3,
    plane: &Plane,
    step: &mut S,
) {
    let k = Quad::new(q);
    let c3 = plane.c[3] as f64;
    let c3v = _mm256_set1_pd(c3);
    let four = _mm256_set1_pd(4.0);
    let zv0 = _mm256_set_pd(3.0, 2.0, 1.0, 0.0);
    for x in 0..size.nx {
        let bx = plane.c[0] as f64 + plane.c[1] as f64 * x as f64;
        for y in 0..size.ny {
            // ((c0 + c1·x) + c2·y) + c3·z, the `eval` association.
            let bxy = bx + plane.c[2] as f64 * y as f64;
            let row = dims.idx(origin[0] + x, origin[1] + y, origin[2]);
            let cells = &mut buf[row..row + size.nz];
            let bxv = _mm256_set1_pd(bxy);
            let mut zv = zv0;
            let mut z = 0usize;
            while z + 4 <= size.nz {
                let pred = _mm256_add_pd(bxv, _mm256_mul_pd(c3v, zv));
                // SAFETY: `z + 4 <= size.nz == cells.len()`.
                let at = cells.as_mut_ptr().add(z);
                match step.quad(&k, _mm_loadu_ps(at), pred) {
                    Some(r32) => _mm_storeu_ps(at, r32),
                    None => {
                        for (j, v) in cells[z..z + 4].iter_mut().enumerate() {
                            *v = step.point(q, *v, bxy + c3 * (z + j) as f64);
                        }
                    }
                }
                zv = _mm256_add_pd(zv, four);
                z += 4;
            }
            for (z, v) in cells.iter_mut().enumerate().skip(z) {
                *v = step.point(q, *v, bxy + c3 * z as f64);
            }
        }
    }
}
