//! The AVX2 arm of the interpolation sweeps: two walks, one per sweep
//! direction, picked per sweep by the parent's `sweep_arm`. Like the scalar
//! [`super::walk_line`], each walk serves both directions: it computes the
//! predictions and hands the points to a [`PointStep`] — four at a time to
//! its [`Quad`] form, and lane by lane when a group has to replay.
//!
//! * **The finest `z` sweep** (`stride == 1 && s == 1`) runs line by line
//!   ([`walk_line_z1_avx2`]): its lines are contiguous in memory (targets at
//!   odd indices, supports at even ones, element stride 2), so four
//!   consecutive targets are one 8-float load, and a rolling window loads
//!   each support once.
//! * **Every x and y sweep, at every level** runs *across* lines
//!   ([`walk_across_avx2`]): for each outer coordinate, for each target
//!   position `k` along the sweep dimension, the lines adjacent in `z` four
//!   at a time. A sweep's lines sit `2s` apart in `z`, so at the finest level
//!   (`s == 1`, ≈ 85 % of the x/y points) the four targets — and each of
//!   their supports, one row over along the sweep dimension — are the same
//!   stride-2 pattern the `z` kernel loads with one [`ev4f`]; coarser levels
//!   gather the four lanes. Every line shares the sweep's [`LineGeom`], so
//!   position `k` has one prediction segment for all four lanes and there
//!   is no per-point predicate.
//!
//! The across-lines walk does not visit points in code order, so it steps
//! them slot-addressed ([`PointStep::point_at`]): each code at its
//! line-major slot `line·per_line + k`, and the outlier side channel kept in
//! order without a side list — in compress an out-of-band cell ends the
//! sweep holding its original value, and one scan of the sweep's codes in
//! code order pushes them; in decompress the same scan pre-fills those cells
//! before the walk, which leaves them be.
//!
//! This arm replaced a module doc that said every non-`z` sweep "walks the
//! buffer at a large stride where gathers would cost more than the math".
//! It was never measured: on `insitu_write`'s op the scalar x and y sweeps
//! cost ≈ 12 ns a point against the AVX2 `z` sweep's 4.2, 17.4 ms of a
//! 60 ms op's CPU, and walking them across lines needs no gather at the
//! finest level at all. The interchange alone buys nothing — a scalar
//! across-lines walk was 8–9 % slower than the line kernels at the finest
//! level and 25 % at the coarse ones — the scalar quantizer is the cost, so
//! every level runs vector lanes.
//!
//! Bit-identity follows the same rules as the sz2 kernels: predictions are
//! evaluated lane-per-point with the scalar association (`9·b − a` is the
//! IEEE-identical commutation of `−a + 9·b`), and a quantize group takes the
//! vector fast path only when every lane is predicted, tie-free and passes
//! both reconstruction rechecks — otherwise the group replays lane by lane
//! through the scalar step. The parent module dispatches on
//! [`hqmr_codec::kernels::simd_level`] and keeps the scalar
//! [`super::walk_line`] as the oracle.

use super::{Across, LineGeom};
use hqmr_codec::quantizer::{PointStep, Quad};
use hqmr_codec::LinearQuantizer;
use std::arch::x86_64::*;
use std::ops::Range;

/// Four even-stride values `buf[at], buf[at+2], buf[at+4], buf[at+6]` as
/// f32 lanes. Loads eight floats, so the caller guarantees
/// `at + 8 <= buf.len()` (the discarded odd lanes may read one element past
/// the line, never past the buffer).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn ev4f(buf: &[f32], at: usize) -> __m128 {
    debug_assert!(at + 8 <= buf.len());
    let v = _mm256_loadu_ps(buf.as_ptr().add(at));
    let idx = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
    _mm256_castps256_ps128(_mm256_permutevar8x32_ps(v, idx))
}

/// [`ev4f`] widened to f64.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn ev4(buf: &[f32], at: usize) -> __m256d {
    _mm256_cvtps_pd(ev4f(buf, at))
}

/// One-f64 left shift across two adjacent even windows:
/// `shift1([E0..E3], [E4..E7]) = [E1..E4]` (and the derived
/// `[E2..E5]` quarter via [`_mm256_permute2f128_pd`]). The kernels roll
/// `e_hi → e_lo` across groups so each even support is loaded and widened
/// exactly once — the vector analogue of the scalar rolling window — and so
/// the 8-float loads never span a just-stored odd target (which would
/// defeat store-to-load forwarding).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn shift1(e_lo: __m256d, mid: __m256d) -> __m256d {
    _mm256_shuffle_pd::<0b0101>(e_lo, mid)
}

/// Scatters four f32 reconstructions to the targets `i + l·zs`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn scatter4(buf: &mut [f32], i: usize, zs: usize, r32: __m128) {
    debug_assert!(i + 3 * zs < buf.len());
    let mut rs = [0f32; 4];
    _mm_storeu_ps(rs.as_mut_ptr(), r32);
    *buf.get_unchecked_mut(i) = rs[0];
    *buf.get_unchecked_mut(i + zs) = rs[1];
    *buf.get_unchecked_mut(i + 2 * zs) = rs[2];
    *buf.get_unchecked_mut(i + 3 * zs) = rs[3];
}

/// Four lanes `buf[at + l·zs]`, `l = 0..4`: one [`ev4f`] when `dense`
/// (`zs == 2` and the 8-float window stays inside the `z` row, so it never
/// reads a cell another decode slab writes), a gather otherwise.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn ld4(buf: &[f32], at: usize, zs: usize, dense: bool) -> __m128 {
    if dense {
        ev4f(buf, at)
    } else {
        debug_assert!(at + 3 * zs < buf.len());
        let p = buf.as_ptr().add(at);
        _mm_setr_ps(*p, *p.add(zs), *p.add(2 * zs), *p.add(3 * zs))
    }
}

/// [`ld4`] widened to f64.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn ld4d(buf: &[f32], at: usize, zs: usize, dense: bool) -> __m256d {
    _mm256_cvtps_pd(ld4(buf, at, zs, dense))
}

/// AVX2 arm of [`super::walk_line`] for the contiguous finest-z sweep:
/// quads of targets go to [`PointStep::quad`], and a group it turns down
/// replays through [`PointStep::point`], so codes and the side channel stay
/// in point order.
///
/// # Safety
/// Requires AVX2 (guaranteed by the dispatcher); `base` must be a valid line
/// base for a sweep with `stride == 1 && s == 1`, and a decode's codes must
/// hold one code per remaining target.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn walk_line_z1_avx2<S: PointStep>(
    buf: &mut [f32],
    base: usize,
    g: &LineGeom,
    q: &LinearQuantizer,
    step: &mut S,
) {
    let k = Quad::new(q);
    let two = _mm256_set1_pd(2.0);
    let nine = _mm256_set1_pd(9.0);
    let sixteen = _mm256_set1_pd(16.0);
    let n = buf.len();
    let mut i = base + 1;

    // Midpoint head (the whole interior when the interpolator is linear).
    let mut r = g.mid_head;
    if r >= 4 && i + 15 <= n {
        let mut e_lo = ev4(buf, i - 1); // [E0..E3], E_k = buf[i−1+2k]
        while r >= 4 && i + 15 <= n {
            let e_hi = ev4(buf, i + 7); // [E4..E7]
            let mid = _mm256_permute2f128_pd::<0x21>(e_lo, e_hi); // [E2..E5]
            let next = shift1(e_lo, mid); // [E1..E4]
            let pred = _mm256_div_pd(_mm256_add_pd(e_lo, next), two);
            match step.quad(&k, ev4f(buf, i), pred) {
                Some(r32) => scatter4(buf, i, 2, r32),
                None => {
                    for j in 0..4 {
                        let p = i + 2 * j;
                        let pred = (buf[p - 1] as f64 + buf[p + 1] as f64) / 2.0;
                        buf[p] = step.point(q, buf[p], pred);
                    }
                }
            }
            e_lo = e_hi;
            i += 8;
            r -= 4;
        }
    }
    while r > 0 {
        let pred = (buf[i - 1] as f64 + buf[i + 1] as f64) / 2.0;
        buf[i] = step.point(q, buf[i], pred);
        i += 2;
        r -= 1;
    }

    // Cubic interior run.
    r = g.cubic;
    if r >= 4 && i + 13 <= n {
        let mut e_lo = ev4(buf, i - 3); // [E0..E3], E_k = buf[i−3+2k]
        while r >= 4 && i + 13 <= n {
            let e_hi = ev4(buf, i + 5); // [E4..E7]
            let cv = _mm256_permute2f128_pd::<0x21>(e_lo, e_hi); // [E2..E5]
            let bv = shift1(e_lo, cv); // [E1..E4]
            let dv = shift1(cv, e_hi); // [E3..E6]

            // 9·b − a ≡ −a + 9·b and the rest is the scalar association.
            let t0 = _mm256_add_pd(
                _mm256_sub_pd(_mm256_mul_pd(nine, bv), e_lo),
                _mm256_mul_pd(nine, cv),
            );
            let pred = _mm256_div_pd(_mm256_sub_pd(t0, dv), sixteen);
            match step.quad(&k, ev4f(buf, i), pred) {
                Some(r32) => scatter4(buf, i, 2, r32),
                None => {
                    for j in 0..4 {
                        let p = i + 2 * j;
                        let (a, b) = (buf[p - 3] as f64, buf[p - 1] as f64);
                        let (c, d) = (buf[p + 1] as f64, buf[p + 3] as f64);
                        let pred = (-a + 9.0 * b + 9.0 * c - d) / 16.0;
                        buf[p] = step.point(q, buf[p], pred);
                    }
                }
            }
            e_lo = e_hi;
            i += 8;
            r -= 4;
        }
    }
    while r > 0 {
        let (a, b) = (buf[i - 3] as f64, buf[i - 1] as f64);
        let (c, d) = (buf[i + 1] as f64, buf[i + 3] as f64);
        let pred = (-a + 9.0 * b + 9.0 * c - d) / 16.0;
        buf[i] = step.point(q, buf[i], pred);
        i += 2;
        r -= 1;
    }

    // Midpoint tail (at most two points) and the extrapolated boundary.
    for _ in 0..g.mid_tail {
        let pred = (buf[i - 1] as f64 + buf[i + 1] as f64) / 2.0;
        buf[i] = step.point(q, buf[i], pred);
        i += 2;
    }
    if g.extra {
        let pred = buf[i - 1] as f64;
        buf[i] = step.point(q, buf[i], pred);
    }
}

/// The [`LineGeom`] segment of target position `k`, shared by every line of
/// a sweep.
#[derive(Debug, Clone, Copy)]
enum Seg {
    /// Two-point midpoint (the head and the tail).
    Mid,
    /// Four-point cubic.
    Cubic,
    /// One-sided: the predecessor.
    Extra,
}

fn seg(g: &LineGeom, k: usize) -> Seg {
    if k < g.mid_head {
        Seg::Mid
    } else if k < g.mid_head + g.cubic {
        Seg::Cubic
    } else if k < g.interior() {
        Seg::Mid
    } else {
        Seg::Extra
    }
}

/// The prediction of the target at `i` from supports `se` elements apart —
/// [`super::walk_line`]'s expressions term for term.
#[inline]
fn pred1(buf: &[f32], i: usize, se: usize, seg: Seg) -> f64 {
    match seg {
        Seg::Mid => (buf[i - se] as f64 + buf[i + se] as f64) / 2.0,
        Seg::Cubic => {
            let (a, b) = (buf[i - 3 * se] as f64, buf[i - se] as f64);
            let (c, d) = (buf[i + se] as f64, buf[i + 3 * se] as f64);
            (-a + 9.0 * b + 9.0 * c - d) / 16.0
        }
        Seg::Extra => buf[i - se] as f64,
    }
}

/// [`pred1`] for the four targets `i + l·zs`, lane by lane.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn pred4(buf: &[f32], i: usize, se: usize, zs: usize, dense: bool, seg: Seg) -> __m256d {
    match seg {
        Seg::Mid => {
            let sum = _mm256_add_pd(ld4d(buf, i - se, zs, dense), ld4d(buf, i + se, zs, dense));
            _mm256_div_pd(sum, _mm256_set1_pd(2.0))
        }
        Seg::Cubic => {
            let nine = _mm256_set1_pd(9.0);
            let a = ld4d(buf, i - 3 * se, zs, dense);
            let b = ld4d(buf, i - se, zs, dense);
            let c = ld4d(buf, i + se, zs, dense);
            let d = ld4d(buf, i + 3 * se, zs, dense);
            // 9·b − a ≡ −a + 9·b and the rest is the scalar association.
            let t0 = _mm256_add_pd(
                _mm256_sub_pd(_mm256_mul_pd(nine, b), a),
                _mm256_mul_pd(nine, c),
            );
            _mm256_div_pd(_mm256_sub_pd(t0, d), _mm256_set1_pd(16.0))
        }
        Seg::Extra => ld4d(buf, i - se, zs, dense),
    }
}

/// The across-lines walk of an x or y sweep over outer coordinates `outer`
/// and lanes `lanes` — the whole sweep, or one decode slab — stepping every
/// point slot-addressed ([`PointStep::quad_at`], lane by lane through
/// [`PointStep::point_at`] when a group replays). On encode every target
/// ends holding its reconstruction or, out of band, its original value,
/// which the caller pushes to the side channel in code order; on decode the
/// out-of-band cells must already hold their side-channel values, which the
/// walk leaves in place.
///
/// # Safety
/// Requires AVX2 (guaranteed by the dispatcher), and `a` must describe an x
/// or y sweep of `buf`, so every cell and load window it names lies in
/// `buf`. The entry assert bounds the ranges, and `lanes.start` a multiple
/// of four keeps every vector group — and its load window — inside the
/// slab; the step checks the code slots.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn walk_across_avx2<S: PointStep>(
    buf: &mut [f32],
    a: &Across,
    g: &LineGeom,
    q: &LinearQuantizer,
    step: &mut S,
    outer: Range<usize>,
    lanes: Range<usize>,
) {
    let pl = a.per_line;
    assert!(outer.end <= a.outer && lanes.end <= a.lanes && lanes.start.is_multiple_of(4));
    let k4 = Quad::new(q);
    for c in outer {
        for k in 0..pl {
            let seg = seg(g, k);
            let mut j = lanes.start;
            while j + 4 <= lanes.end {
                let (i, at, dense) = (a.cell(c, j, k), a.code(c, j, k), j < a.dense);
                let pred = pred4(buf, i, a.se, a.zs, dense, seg);
                match step.quad_at(&k4, at, pl, ld4(buf, i, a.zs, dense), pred) {
                    Some(r32) => scatter4(buf, i, a.zs, r32),
                    None => {
                        for l in 0..4 {
                            let i = i + l * a.zs;
                            let pred = pred1(buf, i, a.se, seg);
                            buf[i] = step.point_at(q, at + l * pl, buf[i], pred);
                        }
                    }
                }
                j += 4;
            }
            for j in j..lanes.end {
                let i = a.cell(c, j, k);
                buf[i] = step.point_at(q, a.code(c, j, k), buf[i], pred1(buf, i, a.se, seg));
            }
        }
    }
}
