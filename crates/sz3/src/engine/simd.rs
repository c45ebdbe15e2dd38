//! The AVX2 arm of the interpolation sweeps: two walks, one per sweep
//! direction, picked per sweep by the parent's `sweep_arm`.
//!
//! * **The finest `z` sweep** (`stride == 1 && s == 1`) runs line by line
//!   ([`compress_line_z1_avx2`] / [`decompress_line_z1_avx2`]): its lines
//!   are contiguous in memory (targets at odd indices, supports at even
//!   ones, element stride 2), so four consecutive targets are one 8-float
//!   load, and a rolling window loads each support once.
//! * **Every x and y sweep, at every level** runs *across* lines
//!   ([`compress_across_avx2`] / [`decompress_across_avx2`]): for each outer
//!   coordinate, for each target position `k` along the sweep dimension, the
//!   lines adjacent in `z` four at a time. A sweep's lines sit `2s` apart in
//!   `z`, so at the finest level (`s == 1`, ≈ 85 % of the x/y points) the
//!   four targets — and each of their supports, one row over along the sweep
//!   dimension — are the same stride-2 pattern the `z` kernel loads with one
//!   [`ev4f`]; coarser levels gather the four lanes. Every line shares the
//!   sweep's [`LineGeom`], so position `k` has one prediction segment for
//!   all four lanes and there is no per-point predicate.
//!
//! The across-lines walk does not visit points in code order, so it writes
//! each code at its line-major slot `line·per_line + k` and keeps the
//! outlier side channel in order without a side list: in compress an
//! out-of-band cell ends the sweep holding its original value, and one scan
//! of the sweep's codes in code order pushes them; in decompress the same
//! scan pre-fills those cells before the walk, which leaves them be.
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
//! IEEE-identical commutation of `−a + 9·b`), and a group takes the vector
//! fast path only when every lane is predicted, tie-free and passes both
//! reconstruction rechecks — otherwise the group replays lane by lane
//! through the scalar quantizer. The parent module dispatches on
//! [`hqmr_codec::kernels::simd_level`] and keeps the scalar
//! [`super::compress_line`] / [`super::decompress_line`] as the oracle.

use super::{quantize_code, quantize_store, recover_value, Across, LineGeom};
use hqmr_codec::LinearQuantizer;
use std::arch::x86_64::*;
use std::ops::Range;

/// `nextDown(0.5)` — the rounding tie [`hqmr_codec::round_ties_away_i64`]
/// guards against; tie lanes take the scalar replay path.
const TIE: f64 = 0.499_999_999_999_999_94;

#[inline]
#[target_feature(enable = "avx2")]
unsafe fn abs4(x: __m256d) -> __m256d {
    _mm256_andnot_pd(_mm256_set1_pd(-0.0), x)
}

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

/// Hoisted quantizer constants for the four-lane fast path.
struct Qc4 {
    sign: __m256d,
    half: __m256d,
    eb2: __m256d,
    eb: __m256d,
    lim: __m256d,
    tie: __m256d,
    rad: __m128i,
}

#[inline]
#[target_feature(enable = "avx2")]
unsafe fn qc4(q: &LinearQuantizer) -> Qc4 {
    Qc4 {
        sign: _mm256_set1_pd(-0.0),
        half: _mm256_set1_pd(0.5),
        eb2: _mm256_set1_pd(2.0 * q.eb()),
        eb: _mm256_set1_pd(q.eb()),
        lim: _mm256_set1_pd((q.radius() - 1) as f64 - 0.5),
        tie: _mm256_set1_pd(TIE),
        rad: _mm_set1_epi32(q.radius() as i32),
    }
}

/// Vector quantize of four targets (`cur` lanes) against `pred`. On success
/// fills `cs` with the codes and `r32` with the f32 reconstructions and
/// returns true; returns false when any lane must replay through the scalar
/// path (outlier, rounding tie, or a failed recheck).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn quant4(k: &Qc4, pred: __m256d, cur: __m128, cs: &mut [u32; 4], out: &mut __m128) -> bool {
    let a = _mm256_cvtps_pd(cur);
    let t = _mm256_div_pd(_mm256_sub_pd(a, pred), k.eb2);
    let tabs = abs4(t);
    // In-range (NaN fails, like the scalar negated compare) and not the
    // rounding tie.
    let ok1 = _mm256_cmp_pd::<_CMP_LT_OQ>(tabs, k.lim);
    let tie = _mm256_cmp_pd::<_CMP_EQ_OQ>(tabs, k.tie);
    let rt = _mm256_add_pd(t, _mm256_or_pd(_mm256_and_pd(t, k.sign), k.half));
    let qi = _mm256_cvttpd_epi32(rt); // |t| < 32766.5: fits i32
    let recon64 = _mm256_add_pd(pred, _mm256_mul_pd(k.eb2, _mm256_cvtepi32_pd(qi)));
    let ok2 = _mm256_cmp_pd::<_CMP_LE_OQ>(abs4(_mm256_sub_pd(recon64, a)), k.eb);
    let r32 = _mm256_cvtpd_ps(recon64);
    let ok3 = _mm256_cmp_pd::<_CMP_LE_OQ>(abs4(_mm256_sub_pd(_mm256_cvtps_pd(r32), a)), k.eb);
    let okm = _mm256_and_pd(_mm256_and_pd(ok1, ok2), ok3);
    if _mm256_movemask_pd(okm) != 0xF || _mm256_movemask_pd(tie) != 0 {
        return false;
    }
    _mm_storeu_si128(cs.as_mut_ptr() as *mut __m128i, _mm_add_epi32(qi, k.rad));
    *out = r32;
    true
}

/// AVX2 arm of [`super::compress_line`] for the contiguous finest-z sweep.
///
/// # Safety
/// Requires AVX2 (guaranteed by the dispatcher); `base` must be a valid line
/// base for a sweep with `stride == 1 && s == 1`.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn compress_line_z1_avx2(
    buf: &mut [f32],
    base: usize,
    g: &LineGeom,
    q: &LinearQuantizer,
    codes: &mut Vec<u32>,
    outliers: &mut Vec<f32>,
) {
    let k = qc4(q);
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
            let mut cs = [0u32; 4];
            let mut r32 = _mm_setzero_ps();
            if quant4(&k, pred, ev4f(buf, i), &mut cs, &mut r32) {
                codes.extend_from_slice(&cs);
                scatter4(buf, i, 2, r32);
            } else {
                for j in 0..4 {
                    let p = i + 2 * j;
                    let pred = (buf[p - 1] as f64 + buf[p + 1] as f64) / 2.0;
                    buf[p] = quantize_store(q, buf[p], pred, codes, outliers);
                }
            }
            e_lo = e_hi;
            i += 8;
            r -= 4;
        }
    }
    while r > 0 {
        let pred = (buf[i - 1] as f64 + buf[i + 1] as f64) / 2.0;
        buf[i] = quantize_store(q, buf[i], pred, codes, outliers);
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
            let mut cs = [0u32; 4];
            let mut r32 = _mm_setzero_ps();
            if quant4(&k, pred, ev4f(buf, i), &mut cs, &mut r32) {
                codes.extend_from_slice(&cs);
                scatter4(buf, i, 2, r32);
            } else {
                for j in 0..4 {
                    let p = i + 2 * j;
                    let (a, b) = (buf[p - 3] as f64, buf[p - 1] as f64);
                    let (c, d) = (buf[p + 1] as f64, buf[p + 3] as f64);
                    let pred = (-a + 9.0 * b + 9.0 * c - d) / 16.0;
                    buf[p] = quantize_store(q, buf[p], pred, codes, outliers);
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
        buf[i] = quantize_store(q, buf[i], pred, codes, outliers);
        i += 2;
        r -= 1;
    }

    // Midpoint tail (at most two points) and the extrapolated boundary.
    for _ in 0..g.mid_tail {
        let pred = (buf[i - 1] as f64 + buf[i + 1] as f64) / 2.0;
        buf[i] = quantize_store(q, buf[i], pred, codes, outliers);
        i += 2;
    }
    if g.extra {
        let pred = buf[i - 1] as f64;
        buf[i] = quantize_store(q, buf[i], pred, codes, outliers);
    }
}

/// AVX2 arm of [`super::decompress_line`] for the contiguous finest-z sweep.
/// Quads with no `UNPREDICTABLE` lane reconstruct vectorially; any outlier
/// replays the quad through [`recover_value`] so the side-channel cursor
/// stays in point order.
///
/// # Safety
/// Requires AVX2 (guaranteed by the dispatcher); same geometry contract as
/// the compress arm, and `codes` must hold at least one code per remaining
/// target.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2")]
pub(super) unsafe fn decompress_line_z1_avx2(
    buf: &mut [f32],
    base: usize,
    g: &LineGeom,
    q: &LinearQuantizer,
    codes: &[u32],
    ci: &mut usize,
    outliers: &[f32],
    oi: &mut usize,
    ok: &mut bool,
) {
    let eb2 = _mm256_set1_pd(2.0 * q.eb());
    let rad = _mm_set1_epi32(q.radius() as i32);
    let zero = _mm_setzero_si128();
    let two = _mm256_set1_pd(2.0);
    let nine = _mm256_set1_pd(9.0);
    let sixteen = _mm256_set1_pd(16.0);
    let n = buf.len();
    let mut i = base + 1;

    let mut r = g.mid_head;
    if r >= 4 && i + 15 <= n {
        let mut e_lo = ev4(buf, i - 1); // [E0..E3]
        while r >= 4 && i + 15 <= n {
            let e_hi = ev4(buf, i + 7); // [E4..E7]
            let c = _mm_loadu_si128(codes.as_ptr().add(*ci) as *const __m128i);
            if _mm_movemask_epi8(_mm_cmpeq_epi32(c, zero)) == 0 {
                let mid = _mm256_permute2f128_pd::<0x21>(e_lo, e_hi);
                let next = shift1(e_lo, mid);
                let pred = _mm256_div_pd(_mm256_add_pd(e_lo, next), two);
                let qf = _mm256_cvtepi32_pd(_mm_sub_epi32(c, rad));
                let r32 = _mm256_cvtpd_ps(_mm256_add_pd(pred, _mm256_mul_pd(eb2, qf)));
                scatter4(buf, i, 2, r32);
            } else {
                for j in 0..4 {
                    let p = i + 2 * j;
                    let pred = (buf[p - 1] as f64 + buf[p + 1] as f64) / 2.0;
                    buf[p] = recover_value(q, pred, codes[*ci + j], outliers, oi, ok);
                }
            }
            e_lo = e_hi;
            *ci += 4;
            i += 8;
            r -= 4;
        }
    }
    while r > 0 {
        let pred = (buf[i - 1] as f64 + buf[i + 1] as f64) / 2.0;
        buf[i] = recover_value(q, pred, codes[*ci], outliers, oi, ok);
        *ci += 1;
        i += 2;
        r -= 1;
    }

    r = g.cubic;
    if r >= 4 && i + 13 <= n {
        let mut e_lo = ev4(buf, i - 3); // [E0..E3]
        while r >= 4 && i + 13 <= n {
            let e_hi = ev4(buf, i + 5); // [E4..E7]
            let c = _mm_loadu_si128(codes.as_ptr().add(*ci) as *const __m128i);
            if _mm_movemask_epi8(_mm_cmpeq_epi32(c, zero)) == 0 {
                let cv = _mm256_permute2f128_pd::<0x21>(e_lo, e_hi);
                let bv = shift1(e_lo, cv);
                let dv = shift1(cv, e_hi);
                let t0 = _mm256_add_pd(
                    _mm256_sub_pd(_mm256_mul_pd(nine, bv), e_lo),
                    _mm256_mul_pd(nine, cv),
                );
                let pred = _mm256_div_pd(_mm256_sub_pd(t0, dv), sixteen);
                let qf = _mm256_cvtepi32_pd(_mm_sub_epi32(c, rad));
                let r32 = _mm256_cvtpd_ps(_mm256_add_pd(pred, _mm256_mul_pd(eb2, qf)));
                scatter4(buf, i, 2, r32);
            } else {
                for j in 0..4 {
                    let p = i + 2 * j;
                    let (a, b) = (buf[p - 3] as f64, buf[p - 1] as f64);
                    let (c, d) = (buf[p + 1] as f64, buf[p + 3] as f64);
                    let pred = (-a + 9.0 * b + 9.0 * c - d) / 16.0;
                    buf[p] = recover_value(q, pred, codes[*ci + j], outliers, oi, ok);
                }
            }
            e_lo = e_hi;
            *ci += 4;
            i += 8;
            r -= 4;
        }
    }
    while r > 0 {
        let (a, b) = (buf[i - 3] as f64, buf[i - 1] as f64);
        let (c, d) = (buf[i + 1] as f64, buf[i + 3] as f64);
        let pred = (-a + 9.0 * b + 9.0 * c - d) / 16.0;
        buf[i] = recover_value(q, pred, codes[*ci], outliers, oi, ok);
        *ci += 1;
        i += 2;
        r -= 1;
    }

    for _ in 0..g.mid_tail {
        let pred = (buf[i - 1] as f64 + buf[i + 1] as f64) / 2.0;
        buf[i] = recover_value(q, pred, codes[*ci], outliers, oi, ok);
        *ci += 1;
        i += 2;
    }
    if g.extra {
        let pred = buf[i - 1] as f64;
        buf[i] = recover_value(q, pred, codes[*ci], outliers, oi, ok);
        *ci += 1;
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
/// [`super::compress_line`]'s expressions term for term.
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

/// One lane of [`compress_across_avx2`] through the scalar quantizer;
/// returns whether the point is out of band.
#[inline]
fn compress_lane(
    buf: &mut [f32],
    i: usize,
    se: usize,
    seg: Seg,
    q: &LinearQuantizer,
    code: &mut u32,
) -> bool {
    let (c, v) = quantize_code(q, buf[i], pred1(buf, i, se, seg));
    buf[i] = v;
    *code = c;
    c == LinearQuantizer::UNPREDICTABLE
}

/// The across-lines arm of an x or y sweep's compress: fills `codes` (the
/// sweep's, one slot per point in traversal order) and leaves every target
/// holding its reconstruction — or, out of band, its original value, which
/// the caller pushes to the side channel in code order. Returns whether any
/// point is out of band.
///
/// # Safety
/// Requires AVX2 (guaranteed by the dispatcher), and `a` must describe an x
/// or y sweep of `buf`, so every cell and load window it names lies in
/// `buf`. The code slots need no promise: the entry assert makes
/// `codes.len()` the sweep's point count, which bounds every slot
/// [`Across::code`] names for `c < outer`, `j < lanes`, `k < per_line`.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn compress_across_avx2(
    buf: &mut [f32],
    a: &Across,
    g: &LineGeom,
    q: &LinearQuantizer,
    codes: &mut [u32],
) -> bool {
    let pl = a.per_line;
    assert_eq!(codes.len(), a.outer * a.lanes * pl, "one slot per point");
    let k4 = qc4(q);
    let mut outlier = false;
    for c in 0..a.outer {
        for k in 0..pl {
            let seg = seg(g, k);
            let mut j = 0;
            while j + 4 <= a.lanes {
                let (i, at, dense) = (a.cell(c, j, k), a.code(c, j, k), j < a.dense);
                let pred = pred4(buf, i, a.se, a.zs, dense, seg);
                let mut cs = [0u32; 4];
                let mut r32 = _mm_setzero_ps();
                if quant4(&k4, pred, ld4(buf, i, a.zs, dense), &mut cs, &mut r32) {
                    scatter4(buf, i, a.zs, r32);
                    // Safety: `at + 3·pl` is a slot of lane `j + 3 < lanes`
                    // (entry assert).
                    for (l, &code) in cs.iter().enumerate() {
                        *codes.get_unchecked_mut(at + l * pl) = code;
                    }
                } else {
                    for l in 0..4 {
                        let code = &mut codes[at + l * pl];
                        outlier |= compress_lane(buf, i + l * a.zs, a.se, seg, q, code);
                    }
                }
                j += 4;
            }
            for j in j..a.lanes {
                let code = &mut codes[a.code(c, j, k)];
                outlier |= compress_lane(buf, a.cell(c, j, k), a.se, seg, q, code);
            }
        }
    }
    outlier
}

/// The across-lines arm of an x or y sweep's decompress over outer
/// coordinates `outer` and lanes `lanes` — the whole sweep, or one decode
/// slab. `codes` are the sweep's; the out-of-band cells must already hold
/// their side-channel values, which the walk leaves in place.
///
/// # Safety
/// As for [`compress_across_avx2`]; the entry asserts bound the ranges and
/// the code slots, and `lanes.start` a multiple of four keeps every vector
/// group — and its load window — inside the slab.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn decompress_across_avx2(
    buf: &mut [f32],
    a: &Across,
    g: &LineGeom,
    q: &LinearQuantizer,
    codes: &[u32],
    outer: Range<usize>,
    lanes: Range<usize>,
) {
    let pl = a.per_line;
    assert!(outer.end <= a.outer && lanes.end <= a.lanes && lanes.start.is_multiple_of(4));
    assert_eq!(codes.len(), a.outer * a.lanes * pl, "one code per point");
    let eb2 = _mm256_set1_pd(2.0 * q.eb());
    let rad = _mm_set1_epi32(q.radius() as i32);
    for c in outer {
        for k in 0..pl {
            let seg = seg(g, k);
            let mut j = lanes.start;
            while j + 4 <= lanes.end {
                let (i, at, dense) = (a.cell(c, j, k), a.code(c, j, k), j < a.dense);
                // Safety: as in the compress arm.
                let p = codes.as_ptr().add(at);
                let cv = _mm_setr_epi32(
                    *p as i32,
                    *p.add(pl) as i32,
                    *p.add(2 * pl) as i32,
                    *p.add(3 * pl) as i32,
                );
                let pred = pred4(buf, i, a.se, a.zs, dense, seg);
                let qf = _mm256_cvtepi32_pd(_mm_sub_epi32(cv, rad));
                let mut r32 = _mm256_cvtpd_ps(_mm256_add_pd(pred, _mm256_mul_pd(eb2, qf)));
                let out = _mm_castsi128_ps(_mm_cmpeq_epi32(cv, _mm_setzero_si128()));
                if _mm_movemask_ps(out) != 0 {
                    r32 = _mm_blendv_ps(r32, ld4(buf, i, a.zs, dense), out);
                }
                scatter4(buf, i, a.zs, r32);
                j += 4;
            }
            for j in j..lanes.end {
                let (i, code) = (a.cell(c, j, k), codes[a.code(c, j, k)]);
                if code != LinearQuantizer::UNPREDICTABLE {
                    buf[i] = q.recover(code, pred1(buf, i, a.se, seg)) as f32;
                }
            }
        }
    }
}
