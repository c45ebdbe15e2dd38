//! Runtime-dispatched SIMD kernels: fixed-point scaling and lifting sweeps.
//!
//! The AVX2 arm is bit-identical to the scalar code it shadows. For the
//! integer lifting that is immediate (two's-complement arithmetic has one
//! answer); for the scaling loop it holds because each lane evaluates exactly
//! the scalar expression sequence — `(v as f64) * scale`, add of
//! `copysign(0.5, x)`, truncate — with no FMA contraction and no
//! reassociation, and the guards of [`hqmr_codec::round_ties_away_i64`] are
//! reproduced: the `|x| ≥ 2⁵²` guard cannot fire here (block-floating-point
//! scaling bounds every ordered `|x| < 2³⁰`, argued at the call site), and
//! the `|x| == nextDown(0.5)` tie and the NaN lanes (the block's `maxabs`
//! fold drops NaN, so one can sit in an encoded block) are masked to the 0
//! the scalar `as i64` gives. Pinned by [`tests`] and the stream-level
//! differential suite.

use hqmr_codec::round_ties_away_i64;

/// The scalar fixed-point scaling loop — the oracle arm, used verbatim by
/// `reference::compress`.
pub fn scale_block_scalar(vals: &[f32; 64], ints: &mut [i64; 64], scale: f64) {
    for (i, &v) in vals.iter().enumerate() {
        ints[i] = round_ties_away_i64(v as f64 * scale);
    }
}

/// Fixed-point scaling `ints[i] = round_ties_away(vals[i] as f64 * scale)`,
/// dispatched on [`hqmr_codec::kernels::simd_level`].
pub fn scale_block(vals: &[f32; 64], ints: &mut [i64; 64], scale: f64) {
    match hqmr_codec::kernels::simd_level() {
        #[cfg(target_arch = "x86_64")]
        hqmr_codec::kernels::SimdLevel::Avx2 => unsafe { x86::scale_block_avx2(vals, ints, scale) },
        _ => scale_block_scalar(vals, ints, scale),
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use crate::transform::COEFF_POS;
    use hqmr_codec::quantizer::TIE;
    use std::arch::x86_64::*;

    /// AVX2 arm of [`super::scale_block`].
    ///
    /// # Safety
    /// Requires AVX2 (guaranteed by the dispatcher).
    #[target_feature(enable = "avx2")]
    pub unsafe fn scale_block_avx2(vals: &[f32; 64], ints: &mut [i64; 64], scale: f64) {
        let sign = _mm256_set1_pd(-0.0);
        let half = _mm256_set1_pd(0.5);
        let tie = _mm256_set1_pd(TIE);
        let s = _mm256_set1_pd(scale);
        for i in (0..64).step_by(4) {
            let v = _mm256_cvtps_pd(_mm_loadu_ps(vals.as_ptr().add(i)));
            let x = _mm256_mul_pd(v, s);
            let t = _mm256_add_pd(x, _mm256_or_pd(_mm256_and_pd(x, sign), half));
            let narrow = _mm256_cvttpd_epi32(t); // |t| < 2³¹: exact i32 truncation
            let mut wide = _mm256_cvtepi32_epi64(narrow);
            // Tie lanes (|x| == nextDown(0.5)) round to 0, not ±1, and NaN
            // lanes cast to 0, not the integer-indefinite `cvttpd` result.
            let is_tie = _mm256_cmp_pd::<_CMP_EQ_OQ>(_mm256_andnot_pd(sign, x), tie);
            let to_zero = _mm256_or_pd(is_tie, _mm256_cmp_pd::<_CMP_UNORD_Q>(x, x));
            wide = _mm256_andnot_si256(_mm256_castpd_si256(to_zero), wide);
            _mm256_storeu_si256(ints.as_mut_ptr().add(i) as *mut __m256i, wide);
        }
    }

    // ---- lifting sweeps ---------------------------------------------------

    /// Vector `s_fwd`: `(a, b) → (a + ((b−a) >> 1), b−a)`. The arithmetic
    /// `>> 1` is emulated as logical shift + sign-bit restore (AVX2 has no
    /// 64-bit arithmetic shift).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn s_fwd_v(a: __m256i, b: __m256i) -> (__m256i, __m256i) {
        let d = _mm256_sub_epi64(b, a);
        let half = _mm256_or_si256(
            _mm256_srli_epi64(d, 1),
            _mm256_and_si256(d, _mm256_set1_epi64x(i64::MIN)),
        );
        (_mm256_add_epi64(a, half), d)
    }

    /// Vector inverse of [`s_fwd_v`].
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn s_inv_v(avg: __m256i, d: __m256i) -> (__m256i, __m256i) {
        let half = _mm256_or_si256(
            _mm256_srli_epi64(d, 1),
            _mm256_and_si256(d, _mm256_set1_epi64x(i64::MIN)),
        );
        let a = _mm256_sub_epi64(avg, half);
        (a, _mm256_add_epi64(a, d))
    }

    /// 4×4 i64 transpose: rows in, columns out.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn transpose4x4(
        r0: __m256i,
        r1: __m256i,
        r2: __m256i,
        r3: __m256i,
    ) -> (__m256i, __m256i, __m256i, __m256i) {
        let t0 = _mm256_unpacklo_epi64(r0, r1);
        let t1 = _mm256_unpackhi_epi64(r0, r1);
        let t2 = _mm256_unpacklo_epi64(r2, r3);
        let t3 = _mm256_unpackhi_epi64(r2, r3);
        (
            _mm256_permute2x128_si256(t0, t2, 0x20),
            _mm256_permute2x128_si256(t1, t3, 0x20),
            _mm256_permute2x128_si256(t0, t2, 0x31),
            _mm256_permute2x128_si256(t1, t3, 0x31),
        )
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load4(p: *const i64) -> __m256i {
        _mm256_loadu_si256(p as *const __m256i)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store4(p: *mut i64, v: __m256i) {
        _mm256_storeu_si256(p as *mut __m256i, v)
    }

    /// AVX2 arm of the forward transform (same sweeps as the scalar fused
    /// version: z and y lift in place, x scatters into frequency order).
    ///
    /// # Safety
    /// Requires AVX2 (guaranteed by the dispatcher).
    #[target_feature(enable = "avx2")]
    pub unsafe fn fwd_transform3_avx2(block: &mut [i64; 64]) {
        let p = block.as_mut_ptr();
        // Along z (stride 1): 4 contiguous lines per iteration, transposed so
        // each register holds one element position across the 4 lines.
        for base in (0..64).step_by(16) {
            let (c0, c1, c2, c3) = transpose4x4(
                load4(p.add(base)),
                load4(p.add(base + 4)),
                load4(p.add(base + 8)),
                load4(p.add(base + 12)),
            );
            let (a0, d0) = s_fwd_v(c0, c1);
            let (a1, d1) = s_fwd_v(c2, c3);
            let (a, dd) = s_fwd_v(a0, a1);
            let (o0, o1, o2, o3) = transpose4x4(a, dd, d0, d1);
            store4(p.add(base), o0);
            store4(p.add(base + 4), o1);
            store4(p.add(base + 8), o2);
            store4(p.add(base + 12), o3);
        }
        // Along y (stride 4): lanes are the four z positions, no transpose.
        for x in 0..4 {
            let b = x * 16;
            let (a0, d0) = s_fwd_v(load4(p.add(b)), load4(p.add(b + 4)));
            let (a1, d1) = s_fwd_v(load4(p.add(b + 8)), load4(p.add(b + 12)));
            let (a, dd) = s_fwd_v(a0, a1);
            store4(p.add(b), a);
            store4(p.add(b + 4), dd);
            store4(p.add(b + 8), d0);
            store4(p.add(b + 12), d1);
        }
        // Along x (stride 16): lanes are four yz positions; the frequency
        // reorder is an arbitrary permutation, so outputs land in temporaries
        // and scatter scalar.
        let mut out = [0i64; 64];
        for yz0 in (0..16).step_by(4) {
            let (a0, d0) = s_fwd_v(load4(p.add(yz0)), load4(p.add(yz0 + 16)));
            let (a1, d1) = s_fwd_v(load4(p.add(yz0 + 32)), load4(p.add(yz0 + 48)));
            let (a, dd) = s_fwd_v(a0, a1);
            let mut ta = [0i64; 4];
            let mut tdd = [0i64; 4];
            let mut td0 = [0i64; 4];
            let mut td1 = [0i64; 4];
            store4(ta.as_mut_ptr(), a);
            store4(tdd.as_mut_ptr(), dd);
            store4(td0.as_mut_ptr(), d0);
            store4(td1.as_mut_ptr(), d1);
            for l in 0..4 {
                let yz = yz0 + l;
                out[COEFF_POS[yz] as usize] = ta[l];
                out[COEFF_POS[yz + 16] as usize] = tdd[l];
                out[COEFF_POS[yz + 32] as usize] = td0[l];
                out[COEFF_POS[yz + 48] as usize] = td1[l];
            }
        }
        *block = out;
    }

    /// AVX2 arm of the inverse transform.
    ///
    /// # Safety
    /// Requires AVX2 (guaranteed by the dispatcher).
    #[target_feature(enable = "avx2")]
    pub unsafe fn inv_transform3_avx2(block: &mut [i64; 64]) {
        let mut out = [0i64; 64];
        let o = out.as_mut_ptr();
        // Along x: gather each coefficient from its frequency slot (scalar
        // gather — arbitrary permutation), lift as vectors of yz lanes.
        for yz0 in (0..16).step_by(4) {
            let mut ga = [0i64; 4];
            let mut gdd = [0i64; 4];
            let mut gd0 = [0i64; 4];
            let mut gd1 = [0i64; 4];
            for l in 0..4 {
                let yz = yz0 + l;
                ga[l] = block[COEFF_POS[yz] as usize];
                gdd[l] = block[COEFF_POS[yz + 16] as usize];
                gd0[l] = block[COEFF_POS[yz + 32] as usize];
                gd1[l] = block[COEFF_POS[yz + 48] as usize];
            }
            let (a0, a1) = s_inv_v(load4(ga.as_ptr()), load4(gdd.as_ptr()));
            let (p0, p1) = s_inv_v(a0, load4(gd0.as_ptr()));
            let (p2, p3) = s_inv_v(a1, load4(gd1.as_ptr()));
            store4(o.add(yz0), p0);
            store4(o.add(yz0 + 16), p1);
            store4(o.add(yz0 + 32), p2);
            store4(o.add(yz0 + 48), p3);
        }
        // Along y (stride 4), in place.
        for x in 0..4 {
            let b = x * 16;
            let (a0, a1) = s_inv_v(load4(o.add(b)), load4(o.add(b + 4)));
            let (p0, p1) = s_inv_v(a0, load4(o.add(b + 8)));
            let (p2, p3) = s_inv_v(a1, load4(o.add(b + 12)));
            store4(o.add(b), p0);
            store4(o.add(b + 4), p1);
            store4(o.add(b + 8), p2);
            store4(o.add(b + 12), p3);
        }
        // Along z (stride 1): transpose 4 lines, lift, transpose back.
        for base in (0..64).step_by(16) {
            let (c0, c1, c2, c3) = transpose4x4(
                load4(o.add(base)),
                load4(o.add(base + 4)),
                load4(o.add(base + 8)),
                load4(o.add(base + 12)),
            );
            let (a0, a1) = s_inv_v(c0, c1);
            let (p0, p1) = s_inv_v(a0, c2);
            let (p2, p3) = s_inv_v(a1, c3);
            let (r0, r1, r2, r3) = transpose4x4(p0, p1, p2, p3);
            store4(o.add(base), r0);
            store4(o.add(base + 4), r1);
            store4(o.add(base + 8), r2);
            store4(o.add(base + 12), r3);
        }
        *block = out;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn splat_fields() -> Vec<([f32; 64], f64)> {
        let mut cases = Vec::new();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for c in 0..64 {
            let mut vals = [0f32; 64];
            for v in vals.iter_mut() {
                x = x.rotate_left(7).wrapping_mul(0x2545_F491_4F6C_DD1D);
                *v = ((x >> 40) as i32 as f32) / (1 << (c % 20)) as f32;
            }
            let maxabs = vals.iter().fold(0f32, |m, &v| m.max(v.abs()));
            if maxabs == 0.0 {
                continue;
            }
            let emax = (maxabs as f64).log2().floor() as i32;
            cases.push((vals, 2f64.powi(29 - emax)));
        }
        // Values engineered to land on the rounding tie.
        let mut tie = [0f32; 64];
        tie[0] = 0.5;
        tie[1] = -0.5;
        tie[2] = 1.0;
        cases.push((tie, 0.499_999_999_999_999_94));
        cases
    }

    #[test]
    fn scale_block_arms_match_scalar() {
        for (vals, scale) in splat_fields() {
            let mut want = [0i64; 64];
            scale_block_scalar(&vals, &mut want, scale);
            let mut got = [0i64; 64];
            scale_block(&vals, &mut got, scale);
            assert_eq!(got, want, "dispatched arm diverged (scale {scale:e})");
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                let mut avx = [0i64; 64];
                unsafe { x86::scale_block_avx2(&vals, &mut avx, scale) };
                assert_eq!(avx, want, "avx2 arm diverged (scale {scale:e})");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn transform_arms_match_scalar() {
        let mut x = 0x0123_4567_89AB_CDEFu64;
        for _ in 0..200 {
            let mut blk = [0i64; 64];
            for v in blk.iter_mut() {
                x = x.rotate_left(13).wrapping_mul(0x2545_F491_4F6C_DD1D);
                *v = ((x >> 20) as i64 & ((1 << 32) - 1)) - (1 << 31);
            }
            let mut want_f = blk;
            crate::transform::reference::fwd_transform3(&mut want_f);
            let mut want_i = want_f;
            crate::transform::reference::inv_transform3(&mut want_i);
            assert_eq!(want_i, blk);
            if std::arch::is_x86_feature_detected!("avx2") {
                let mut avx = blk;
                unsafe { x86::fwd_transform3_avx2(&mut avx) };
                assert_eq!(avx, want_f, "avx2 forward diverged");
                let mut avx_i = want_f;
                unsafe { x86::inv_transform3_avx2(&mut avx_i) };
                assert_eq!(avx_i, blk, "avx2 inverse diverged");
            }
        }
    }
}
