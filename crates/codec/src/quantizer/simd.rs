//! The four-lane point step of the AVX2 walks: [`Quad`] quantizes or
//! recovers four points at once, one per f64 lane, with the scalar
//! [`LinearQuantizer`] arithmetic lane for lane. A quantize lane either
//! reproduces the scalar code and reconstruction exactly or fails the group:
//! an out-of-band point, the rounding tie [`TIE`] or a failed recheck sends
//! all four lanes back through the scalar step, so codes and side-channel
//! values land as the scalar walk would push them.

use super::{LinearQuantizer, TIE};
use std::arch::x86_64::*;

/// `|x|` per lane.
///
/// # Safety
/// Requires AVX2.
#[inline]
#[target_feature(enable = "avx2")]
pub unsafe fn abs4(x: __m256d) -> __m256d {
    _mm256_andnot_pd(_mm256_set1_pd(-0.0), x)
}

/// A [`LinearQuantizer`]'s constants broadcast to four lanes, built once
/// per walk.
pub struct Quad {
    sign: __m256d,
    half: __m256d,
    eb2: __m256d,
    eb: __m256d,
    lim: __m256d,
    tie: __m256d,
    rad: __m128i,
}

impl Quad {
    /// Broadcasts `q`.
    ///
    /// # Safety
    /// Requires AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn new(q: &LinearQuantizer) -> Self {
        Quad {
            sign: _mm256_set1_pd(-0.0),
            half: _mm256_set1_pd(0.5),
            eb2: _mm256_set1_pd(2.0 * q.eb()),
            eb: _mm256_set1_pd(q.eb()),
            lim: _mm256_set1_pd((q.radius() - 1) as f64 - 0.5),
            tie: _mm256_set1_pd(TIE),
            rad: _mm_set1_epi32(q.radius() as i32),
        }
    }

    /// Quantizes four points (`cur` lanes) against `pred`: their codes and
    /// f32 reconstructions, or `None` when any lane must replay through the
    /// scalar step (out of band, rounding tie, or a failed recheck).
    ///
    /// # Safety
    /// Requires AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn quantize(&self, cur: __m128, pred: __m256d) -> Option<([u32; 4], __m128)> {
        let a = _mm256_cvtps_pd(cur);
        let t = _mm256_div_pd(_mm256_sub_pd(a, pred), self.eb2);
        let tabs = abs4(t);
        // In-range (NaN fails, like the scalar negated compare) and not the
        // rounding tie.
        let ok1 = _mm256_cmp_pd::<_CMP_LT_OQ>(tabs, self.lim);
        let tie = _mm256_cmp_pd::<_CMP_EQ_OQ>(tabs, self.tie);
        let rt = _mm256_add_pd(t, _mm256_or_pd(_mm256_and_pd(t, self.sign), self.half));
        let qi = _mm256_cvttpd_epi32(rt); // |t| < 32766.5: fits i32
        let recon64 = _mm256_add_pd(pred, _mm256_mul_pd(self.eb2, _mm256_cvtepi32_pd(qi)));
        let ok2 = _mm256_cmp_pd::<_CMP_LE_OQ>(abs4(_mm256_sub_pd(recon64, a)), self.eb);
        let r32 = _mm256_cvtpd_ps(recon64);
        let ok3 =
            _mm256_cmp_pd::<_CMP_LE_OQ>(abs4(_mm256_sub_pd(_mm256_cvtps_pd(r32), a)), self.eb);
        let okm = _mm256_and_pd(_mm256_and_pd(ok1, ok2), ok3);
        if _mm256_movemask_pd(okm) != 0xF || _mm256_movemask_pd(tie) != 0 {
            return None;
        }
        let mut codes = [0u32; 4];
        _mm_storeu_si128(
            codes.as_mut_ptr() as *mut __m128i,
            _mm_add_epi32(qi, self.rad),
        );
        Some((codes, r32))
    }

    /// Recovers four points from their `codes` against `pred`: the f32
    /// values, out-of-band lanes keeping their `cur` value, and whether any
    /// lane was out of band.
    ///
    /// # Safety
    /// Requires AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn recover(&self, codes: [u32; 4], pred: __m256d, cur: __m128) -> (__m128, bool) {
        let c = _mm_loadu_si128(codes.as_ptr() as *const __m128i);
        let qf = _mm256_cvtepi32_pd(_mm_sub_epi32(c, self.rad));
        let r32 = _mm256_cvtpd_ps(_mm256_add_pd(pred, _mm256_mul_pd(self.eb2, qf)));
        let out = _mm_castsi128_ps(_mm_cmpeq_epi32(c, _mm_setzero_si128()));
        if _mm_movemask_ps(out) == 0 {
            return (r32, false);
        }
        (_mm_blendv_ps(r32, cur, out), true)
    }
}
