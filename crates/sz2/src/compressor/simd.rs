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
//! The quantization runs take an all-lanes-pass fast path and replay the
//! whole group through the scalar [`super::encode_point`] /
//! [`super::decode_value`] when any lane is an outlier, a rounding tie, or
//! fails a recheck — the side-channel pushes stay in point order.

use super::{decode_value, encode_point, lorenzo, lorenzo_interior, Plane};
use hqmr_codec::LinearQuantizer;
use hqmr_grid::{Dims3, Field3};
use std::arch::x86_64::*;

/// `nextDown(0.5)` — the rounding tie [`hqmr_codec::round_ties_away_i64`]
/// guards against; tie lanes take the scalar replay path.
const TIE: f64 = 0.499_999_999_999_999_94;

#[inline]
#[target_feature(enable = "avx2")]
unsafe fn abs4(x: __m256d) -> __m256d {
    _mm256_andnot_pd(_mm256_set1_pd(-0.0), x)
}

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

/// AVX2 arm of the plane-path quantize over a whole block. Groups of four
/// take the vector fast path only when every lane is predicted, tie-free and
/// passes both reconstruction rechecks; otherwise the group replays through
/// [`encode_point`] so codes, outliers and reconstructions land exactly as
/// the scalar loop would.
///
/// # Safety
/// Requires AVX2 (guaranteed by the dispatcher).
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2")]
pub(super) unsafe fn quant_plane_block_avx2(
    q: &LinearQuantizer,
    data: &[f32],
    recon: &mut [f32],
    dims: Dims3,
    origin: [usize; 3],
    size: Dims3,
    plane: &Plane,
    codes: &mut Vec<u32>,
    outliers: &mut Vec<f32>,
) {
    let c3 = plane.c[3] as f64;
    let sign = _mm256_set1_pd(-0.0);
    let half = _mm256_set1_pd(0.5);
    let eb2v = _mm256_set1_pd(2.0 * q.eb());
    let ebv = _mm256_set1_pd(q.eb());
    let limv = _mm256_set1_pd((q.radius() - 1) as f64 - 0.5);
    let tiev = _mm256_set1_pd(TIE);
    let radv = _mm_set1_epi32(q.radius() as i32);
    let c3v = _mm256_set1_pd(c3);
    let four = _mm256_set1_pd(4.0);
    let zv0 = _mm256_set_pd(3.0, 2.0, 1.0, 0.0);
    for x in 0..size.nx {
        let bx = plane.c[0] as f64 + plane.c[1] as f64 * x as f64;
        for y in 0..size.ny {
            // ((c0 + c1·x) + c2·y) + c3·z, the `eval` association.
            let bxy = bx + plane.c[2] as f64 * y as f64;
            let row = dims.idx(origin[0] + x, origin[1] + y, origin[2]);
            let bxv = _mm256_set1_pd(bxy);
            let mut zv = zv0;
            let mut z = 0usize;
            while z + 4 <= size.nz {
                let pred = _mm256_add_pd(bxv, _mm256_mul_pd(c3v, zv));
                let a = ld4(data, row + z);
                let t = _mm256_div_pd(_mm256_sub_pd(a, pred), eb2v);
                let tabs = abs4(t);
                // In-range (NaN fails, like the scalar negated compare) and
                // not the rounding tie.
                let ok1 = _mm256_cmp_pd::<_CMP_LT_OQ>(tabs, limv);
                let tie = _mm256_cmp_pd::<_CMP_EQ_OQ>(tabs, tiev);
                let rt = _mm256_add_pd(t, _mm256_or_pd(_mm256_and_pd(t, sign), half));
                let qi = _mm256_cvttpd_epi32(rt); // |t| < 32766.5: fits i32
                let recon64 = _mm256_add_pd(pred, _mm256_mul_pd(eb2v, _mm256_cvtepi32_pd(qi)));
                let ok2 = _mm256_cmp_pd::<_CMP_LE_OQ>(abs4(_mm256_sub_pd(recon64, a)), ebv);
                let r32 = _mm256_cvtpd_ps(recon64);
                let ok3 =
                    _mm256_cmp_pd::<_CMP_LE_OQ>(abs4(_mm256_sub_pd(_mm256_cvtps_pd(r32), a)), ebv);
                let ok = _mm256_and_pd(_mm256_and_pd(ok1, ok2), ok3);
                if _mm256_movemask_pd(ok) == 0xF && _mm256_movemask_pd(tie) == 0 {
                    let mut cs = [0u32; 4];
                    _mm_storeu_si128(cs.as_mut_ptr() as *mut __m128i, _mm_add_epi32(qi, radv));
                    codes.extend_from_slice(&cs);
                    _mm_storeu_ps(recon.as_mut_ptr().add(row + z), r32);
                } else {
                    for j in z..z + 4 {
                        let p = bxy + c3 * j as f64;
                        recon[row + j] = encode_point(q, data[row + j], p, codes, outliers);
                    }
                }
                zv = _mm256_add_pd(zv, four);
                z += 4;
            }
            while z < size.nz {
                let p = bxy + c3 * z as f64;
                recon[row + z] = encode_point(q, data[row + z], p, codes, outliers);
                z += 1;
            }
        }
    }
}

/// AVX2 arm of the plane-path recover over a whole block: codes back to
/// reconstructions. Any `UNPREDICTABLE` lane replays the group through
/// [`decode_value`] (outlier cursor order is preserved). `codes` holds
/// exactly this block's codes in point order.
///
/// # Safety
/// Requires AVX2 (guaranteed by the dispatcher).
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2")]
pub(super) unsafe fn recover_plane_block_avx2(
    q: &LinearQuantizer,
    codes: &[u32],
    recon: &mut [f32],
    dims: Dims3,
    origin: [usize; 3],
    size: Dims3,
    plane: &Plane,
    outliers: &[f32],
    oi: &mut usize,
    ok: &mut bool,
) {
    let c3 = plane.c[3] as f64;
    let eb2v = _mm256_set1_pd(2.0 * q.eb());
    let radv = _mm_set1_epi32(q.radius() as i32);
    let zero = _mm_setzero_si128();
    let c3v = _mm256_set1_pd(c3);
    let four = _mm256_set1_pd(4.0);
    let zv0 = _mm256_set_pd(3.0, 2.0, 1.0, 0.0);
    let mut k = 0usize; // cursor into this block's codes
    for x in 0..size.nx {
        let bx = plane.c[0] as f64 + plane.c[1] as f64 * x as f64;
        for y in 0..size.ny {
            let bxy = bx + plane.c[2] as f64 * y as f64;
            let row = dims.idx(origin[0] + x, origin[1] + y, origin[2]);
            let bxv = _mm256_set1_pd(bxy);
            let mut zv = zv0;
            let mut z = 0usize;
            while z + 4 <= size.nz {
                let c = _mm_loadu_si128(codes.as_ptr().add(k + z) as *const __m128i);
                if _mm_movemask_epi8(_mm_cmpeq_epi32(c, zero)) == 0 {
                    let qf = _mm256_cvtepi32_pd(_mm_sub_epi32(c, radv));
                    let pred = _mm256_add_pd(bxv, _mm256_mul_pd(c3v, zv));
                    let recon64 = _mm256_add_pd(pred, _mm256_mul_pd(eb2v, qf));
                    _mm_storeu_ps(recon.as_mut_ptr().add(row + z), _mm256_cvtpd_ps(recon64));
                } else {
                    for j in z..z + 4 {
                        let p = bxy + c3 * j as f64;
                        recon[row + j] = decode_value(q, p, codes[k + j], outliers, oi, ok);
                    }
                }
                zv = _mm256_add_pd(zv, four);
                z += 4;
            }
            while z < size.nz {
                let p = bxy + c3 * z as f64;
                recon[row + z] = decode_value(q, p, codes[k + z], outliers, oi, ok);
                z += 1;
            }
            k += size.nz;
        }
    }
}
