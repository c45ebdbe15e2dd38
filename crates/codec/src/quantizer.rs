//! Error-controlled linear quantizer (the SZ family's quantization stage).
//!
//! Given a prediction `pred` for a true value `actual`, the quantizer emits an
//! integer code such that the reconstructed value differs from `actual` by at
//! most the error bound `eb`. Code `0` is reserved for *unpredictable* points
//! whose residual overflows the code range; their original value is stored
//! verbatim in a side channel, so the bound holds unconditionally.
//!
//! The SZ kernels walk their points once, in one order, for both directions,
//! and hand every point to a [`PointStep`]: [`Quantize`] on the way in,
//! [`Recover`] on the way out. The scalar step is [`quantize_store`] /
//! [`recover_value`]; the four-lane step of the AVX2 walks is [`Quad`].

#[cfg(target_arch = "x86_64")]
mod simd;
#[cfg(target_arch = "x86_64")]
pub use simd::{abs4, Quad};
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::{__m128, __m256d};

/// `nextDown(0.5)`, the one magnitude below 0.5 that `trunc(x ± 0.5)`
/// rounds away from 0: [`round_ties_away_i64`] guards it, and vector lanes
/// holding it replay through the scalar code.
pub const TIE: f64 = 0.499_999_999_999_999_94;

/// `x.round() as i64` — round half away from zero — for every input
/// (including NaN and ±∞, which saturate exactly like the `as` cast does),
/// without calling out to libm.
///
/// The baseline x86-64 target (SSE2) lowers `f64::round` to a library call,
/// which was the single largest per-point cost of the quantizer hot loop.
/// This version is an add plus the (intrinsic) int casts behind two guards
/// that *never fire on real data*, so the branch predictor retires them for
/// free regardless of the residual distribution — a select on the
/// data-dependent `|x| < 0.5` would mispredict on every other point of a
/// mixed-code stream.
///
/// Exactness of `trunc(x ± 0.5)` as round-half-away: for `0.5 ≤ |x| < 2^52`
/// the addition either is exact or correctly rounds across an integer
/// boundary only when the true sum reaches it (above 2^51 the spacing makes
/// it exact outright); for `|x| < 0.5` the truncation gives 0 for every
/// value except `nextbelow(0.5)`, whose sum ties to 1.0 — that lone
/// counterexample gets its own guard. At `|x| ≥ 2^52` every float is
/// already integral. NaN falls through both guards and casts to 0, matching
/// `NaN.round() as i64`.
#[inline]
pub fn round_ties_away_i64(x: f64) -> i64 {
    let a = x.abs();
    if a >= 4_503_599_627_370_496.0 {
        // |x| ≥ 2^52: already integral (±∞ saturates like the cast does).
        return x as i64;
    }
    if a == TIE {
        // nextbelow(0.5): x + 0.5 ties to 1.0, the one value trunc gets wrong.
        return 0;
    }
    (x + f64::copysign(0.5, x)) as i64
}

/// Outcome of quantizing one value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QuantOutcome {
    /// Residual fit in the code range: `code ≥ 1`, reconstruction satisfies
    /// `|recon − actual| ≤ eb`.
    Predicted {
        /// Entropy-coded symbol (`radius + q`, always ≥ 1 here).
        code: u32,
        /// Value the decompressor will reproduce.
        recon: f64,
    },
    /// Residual overflowed; caller must store the exact value out of band.
    Unpredictable,
}

/// Linear quantizer with absolute error bound `eb` and code radius `radius`.
#[derive(Debug, Clone, Copy)]
pub struct LinearQuantizer {
    eb: f64,
    radius: i64,
}

impl LinearQuantizer {
    /// Default code radius: codes span `[1, 2·radius]`, giving 16-bit-ish
    /// symbols that keep Huffman tables small (matches SZ's default 32768).
    pub const DEFAULT_RADIUS: i64 = 32_768;

    /// Creates a quantizer with the default radius.
    ///
    /// # Panics
    /// Panics if `eb` is not strictly positive and finite.
    pub fn new(eb: f64) -> Self {
        Self::with_radius(eb, Self::DEFAULT_RADIUS)
    }

    /// Creates a quantizer with an explicit radius.
    pub fn with_radius(eb: f64, radius: i64) -> Self {
        assert!(
            eb.is_finite() && eb > 0.0,
            "error bound must be positive, got {eb}"
        );
        assert!(radius > 1, "radius must exceed 1");
        LinearQuantizer { eb, radius }
    }

    /// The absolute error bound.
    #[inline]
    pub fn eb(&self) -> f64 {
        self.eb
    }

    /// Number of distinct entropy symbols (`2·radius`), i.e. the alphabet
    /// upper bound for the Huffman stage (code 0 = unpredictable included).
    #[inline]
    pub fn alphabet(&self) -> usize {
        (2 * self.radius) as usize
    }

    /// The code radius (codes are `radius + q`), needed by kernels that
    /// reproduce the quantization arithmetic lane-wise.
    #[inline]
    pub fn radius(&self) -> i64 {
        self.radius
    }

    /// Quantizes `actual` against `pred`.
    ///
    /// Outcome-identical to the historical
    /// `let q = (diff / (2·eb)).round(); q.abs() ≥ radius−1 || !q.is_finite()`
    /// formulation: with ties rounding away from zero,
    /// `round(t).abs() ≥ L ⇔ |t| ≥ L − 0.5`, and NaN/±∞ fail the negated
    /// comparison exactly like the `is_finite` test did. The reformulation
    /// exists so the hot loop needs no libm `round` call
    /// ([`round_ties_away_i64`]).
    #[inline]
    pub fn quantize(&self, actual: f64, pred: f64) -> QuantOutcome {
        let diff = actual - pred;
        let t = diff / (2.0 * self.eb);
        let limit = (self.radius - 1) as f64;
        // The negated comparison is load-bearing: NaN must fail it and land
        // here, exactly as `!q.is_finite()` used to send it.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(t.abs() < limit - 0.5) {
            return QuantOutcome::Unpredictable;
        }
        let qi = round_ties_away_i64(t);
        let recon = pred + 2.0 * self.eb * qi as f64;
        // Floating-point rounding can push the reconstruction just past the
        // bound; SZ handles this by demoting to unpredictable.
        if (recon - actual).abs() > self.eb {
            return QuantOutcome::Unpredictable;
        }
        QuantOutcome::Predicted {
            code: (qi + self.radius) as u32,
            recon,
        }
    }

    /// Recovers the reconstruction for a non-zero `code` produced by
    /// [`Self::quantize`].
    #[inline]
    pub fn recover(&self, code: u32, pred: f64) -> f64 {
        debug_assert!(code >= 1);
        let q = code as i64 - self.radius;
        pred + 2.0 * self.eb * q as f64
    }

    /// The reserved out-of-band code.
    pub const UNPREDICTABLE: u32 = 0;
}

/// Quantizes `cur` against `pred`: the code, and the value decompression
/// will reproduce — `cur` itself for an out-of-band point, whose original
/// value goes to the side channel.
#[inline]
fn quantize_code(q: &LinearQuantizer, cur: f32, pred: f64) -> (u32, f32) {
    match q.quantize(cur as f64, pred) {
        QuantOutcome::Predicted { code, recon } => {
            let r32 = recon as f32;
            // Re-check at f32 precision (the stored type).
            if (r32 as f64 - cur as f64).abs() <= q.eb() {
                return (code, r32);
            }
            (LinearQuantizer::UNPREDICTABLE, cur)
        }
        QuantOutcome::Unpredictable => (LinearQuantizer::UNPREDICTABLE, cur),
    }
}

/// The scalar quantize-and-record step: quantizes `cur` against `pred`,
/// pushing the code (and, for an out-of-band point, the original value) and
/// returning the value decompression will reproduce — the invariant that
/// keeps both directions bit-identical.
#[inline]
pub fn quantize_store(
    q: &LinearQuantizer,
    cur: f32,
    pred: f64,
    codes: &mut Vec<u32>,
    outliers: &mut Vec<f32>,
) -> f32 {
    let (code, v) = quantize_code(q, cur, pred);
    codes.push(code);
    if code == LinearQuantizer::UNPREDICTABLE {
        outliers.push(cur);
    }
    v
}

/// The scalar recover step: one value from its code, an out-of-band one
/// from `outliers` at cursor `oi`. On underrun it clears `ok` and
/// substitutes 0 — the walk goes on, so the caller reports one typed error
/// at the end.
#[inline]
pub fn recover_value(
    q: &LinearQuantizer,
    pred: f64,
    code: u32,
    outliers: &[f32],
    oi: &mut usize,
    ok: &mut bool,
) -> f32 {
    if code == LinearQuantizer::UNPREDICTABLE {
        match outliers.get(*oi) {
            Some(&v) => {
                *oi += 1;
                v
            }
            None => {
                *ok = false;
                0.0
            }
        }
    } else {
        q.recover(code, pred) as f32
    }
}

/// One direction of an SZ prediction walk, applied to the points the walk
/// visits. A walk computes each point's prediction, hands the step the
/// value its cell holds (`cur`) and writes back what the step returns, so
/// one walk serves both directions and the direction is the step's type:
///
/// * [`Quantize`] — quantize-and-record: records the code (and, out of
///   band, the original value) and returns the reconstruction;
/// * [`Recover`] — reads the code (and, out of band, the side-channel
///   value) and returns the decoded value.
///
/// `point` and `quad` take codes and side-channel values in visit order.
/// `point_at` and `quad_at` serve a walk that leaves code order (sz3's
/// across-lines sweeps): the code lives at slot `at`, an out-of-band point
/// keeps its cell value, and the caller orders the side channel with one
/// scan of the codes — after the walk on encode, before it on decode.
pub trait PointStep {
    /// Steps the next point in visit order.
    fn point(&mut self, q: &LinearQuantizer, cur: f32, pred: f64) -> f32;

    /// Steps the point whose code is slot `at`.
    fn point_at(&mut self, q: &LinearQuantizer, at: usize, cur: f32, pred: f64) -> f32;

    /// [`Self::point`] for four points at once: their cell values `cur` and
    /// predictions `pred`, one per lane. `None` leaves the group untouched,
    /// for the walk to replay lane by lane through [`Self::point`].
    ///
    /// # Safety
    /// Requires AVX2; `k` is the step's quantizer in [`Quad`] form.
    #[cfg(target_arch = "x86_64")]
    unsafe fn quad(&mut self, k: &Quad, cur: __m128, pred: __m256d) -> Option<__m128>;

    /// [`Self::point_at`] for four points whose codes are slots
    /// `at + l·stride`; `None` asks for a replay through
    /// [`Self::point_at`].
    ///
    /// # Safety
    /// As for [`Self::quad`].
    #[cfg(target_arch = "x86_64")]
    unsafe fn quad_at(
        &mut self,
        k: &Quad,
        at: usize,
        stride: usize,
        cur: __m128,
        pred: __m256d,
    ) -> Option<__m128>;
}

/// The encode step: codes and out-of-band values append to the stream's
/// sections (slot-addressed codes land in slots the caller has sized).
pub struct Quantize<'a> {
    /// The codes section.
    pub codes: &'a mut Vec<u32>,
    /// The side channel.
    pub outliers: &'a mut Vec<f32>,
}

impl PointStep for Quantize<'_> {
    #[inline]
    fn point(&mut self, q: &LinearQuantizer, cur: f32, pred: f64) -> f32 {
        quantize_store(q, cur, pred, self.codes, self.outliers)
    }

    #[inline]
    fn point_at(&mut self, q: &LinearQuantizer, at: usize, cur: f32, pred: f64) -> f32 {
        let (code, v) = quantize_code(q, cur, pred);
        self.codes[at] = code;
        v
    }

    #[cfg(target_arch = "x86_64")]
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn quad(&mut self, k: &Quad, cur: __m128, pred: __m256d) -> Option<__m128> {
        let (codes, r32) = k.quantize(cur, pred)?;
        self.codes.extend_from_slice(&codes);
        Some(r32)
    }

    #[cfg(target_arch = "x86_64")]
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn quad_at(
        &mut self,
        k: &Quad,
        at: usize,
        stride: usize,
        cur: __m128,
        pred: __m256d,
    ) -> Option<__m128> {
        let (codes, r32) = k.quantize(cur, pred)?;
        assert!(at + 3 * stride < self.codes.len(), "code slots in range");
        for (l, code) in codes.into_iter().enumerate() {
            // SAFETY: `at + l·stride ≤ at + 3·stride`, in range by the assert.
            *self.codes.get_unchecked_mut(at + l * stride) = code;
        }
        Some(r32)
    }
}

/// The decode step: codes from cursor `ci`, out-of-band values from cursor
/// `oi`; `ok` clears on a side-channel underrun. Copies are independent
/// cursors, for walks that fan out over a stream's sub-ranges.
#[derive(Debug, Clone, Copy)]
pub struct Recover<'a> {
    /// The codes section.
    pub codes: &'a [u32],
    /// The next code in visit order.
    pub ci: usize,
    /// The side channel.
    pub outliers: &'a [f32],
    /// The next side-channel value.
    pub oi: usize,
    /// False once the side channel has run short.
    pub ok: bool,
}

impl<'a> Recover<'a> {
    /// Both cursors at the start.
    pub fn new(codes: &'a [u32], outliers: &'a [f32]) -> Self {
        Recover {
            codes,
            ci: 0,
            outliers,
            oi: 0,
            ok: true,
        }
    }
}

impl PointStep for Recover<'_> {
    #[inline]
    fn point(&mut self, q: &LinearQuantizer, _cur: f32, pred: f64) -> f32 {
        let code = self.codes[self.ci];
        self.ci += 1;
        recover_value(q, pred, code, self.outliers, &mut self.oi, &mut self.ok)
    }

    #[inline]
    fn point_at(&mut self, q: &LinearQuantizer, at: usize, cur: f32, pred: f64) -> f32 {
        match self.codes[at] {
            LinearQuantizer::UNPREDICTABLE => cur,
            code => q.recover(code, pred) as f32,
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn quad(&mut self, k: &Quad, cur: __m128, pred: __m256d) -> Option<__m128> {
        let codes = self.codes[self.ci..self.ci + 4]
            .try_into()
            .expect("a four-code slice");
        let (r32, out) = k.recover(codes, pred, cur);
        if out {
            return None;
        }
        self.ci += 4;
        Some(r32)
    }

    #[cfg(target_arch = "x86_64")]
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn quad_at(
        &mut self,
        k: &Quad,
        at: usize,
        stride: usize,
        cur: __m128,
        pred: __m256d,
    ) -> Option<__m128> {
        assert!(at + 3 * stride < self.codes.len(), "code slots in range");
        // SAFETY: the four slots end at `at + 3·stride`, in range by the
        // assert.
        let p = self.codes.as_ptr().add(at);
        let codes = [*p, *p.add(stride), *p.add(2 * stride), *p.add(3 * stride)];
        Some(k.recover(codes, pred, cur).0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn respects_error_bound() {
        let q = LinearQuantizer::new(0.01);
        for i in 0..1000 {
            let actual = (i as f64 * 0.137).sin() * 5.0;
            let pred = actual + (i as f64 * 0.71).cos() * 0.5;
            match q.quantize(actual, pred) {
                QuantOutcome::Predicted { code, recon } => {
                    assert!((recon - actual).abs() <= 0.01 + 1e-15);
                    assert_eq!(q.recover(code, pred), recon);
                }
                QuantOutcome::Unpredictable => panic!("residual 0.5 should fit"),
            }
        }
    }

    #[test]
    fn perfect_prediction_gives_center_code() {
        let q = LinearQuantizer::new(1.0);
        match q.quantize(5.0, 5.0) {
            QuantOutcome::Predicted { code, recon } => {
                assert_eq!(code as i64, LinearQuantizer::DEFAULT_RADIUS);
                assert_eq!(recon, 5.0);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn overflow_is_unpredictable() {
        let q = LinearQuantizer::with_radius(1e-6, 16);
        assert_eq!(q.quantize(100.0, 0.0), QuantOutcome::Unpredictable);
    }

    #[test]
    fn nan_and_inf_residuals_are_unpredictable() {
        let q = LinearQuantizer::new(1e-3);
        assert_eq!(q.quantize(f64::NAN, 0.0), QuantOutcome::Unpredictable);
        assert_eq!(q.quantize(f64::INFINITY, 0.0), QuantOutcome::Unpredictable);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn rejects_zero_eb() {
        LinearQuantizer::new(0.0);
    }

    #[test]
    fn code_symmetry() {
        let q = LinearQuantizer::new(0.5);
        let up = q.quantize(3.0, 0.0);
        let down = q.quantize(-3.0, 0.0);
        match (up, down) {
            (
                QuantOutcome::Predicted { code: cu, .. },
                QuantOutcome::Predicted { code: cd, .. },
            ) => {
                let r = LinearQuantizer::DEFAULT_RADIUS;
                assert_eq!(cu as i64 - r, -(cd as i64 - r));
            }
            _ => panic!(),
        }
    }
}
