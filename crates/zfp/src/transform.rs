//! Exactly invertible block transform and coefficient ordering.
//!
//! A two-level S-transform (Haar lifting with floor rounding) along each of
//! the three dimensions. Each 4-vector `[p0, p1, p2, p3]` becomes
//! `[A, D, d0, d1]`: block average, second-level detail, first-level details.
//! Every step is integer lifting, so the inverse is bit-exact — full-precision
//! round-trips are lossless (unlike real ZFP's `>> 1` lifts, whose LSB loss we
//! deliberately avoid; see crate docs).

/// One Haar lifting pair: `(a, b) → (avg, diff)` with `avg = a + (diff >> 1)`.
#[inline]
fn s_fwd(a: i64, b: i64) -> (i64, i64) {
    let d = b - a;
    (a + (d >> 1), d)
}

/// Inverse of [`s_fwd`].
#[inline]
fn s_inv(avg: i64, d: i64) -> (i64, i64) {
    let a = avg - (d >> 1);
    (a, a + d)
}

/// Forward 4-point transform in place: `[p0,p1,p2,p3] → [A, D, d0, d1]`.
#[inline]
fn fwd4(p: &mut [i64; 4]) {
    let (a0, d0) = s_fwd(p[0], p[1]);
    let (a1, d1) = s_fwd(p[2], p[3]);
    let (a, dd) = s_fwd(a0, a1);
    *p = [a, dd, d0, d1];
}

/// Inverse of [`fwd4`].
#[inline]
fn inv4(p: &mut [i64; 4]) {
    let [a, dd, d0, d1] = *p;
    let (a0, a1) = s_inv(a, dd);
    let (p0, p1) = s_inv(a0, d0);
    let (p2, p3) = s_inv(a1, d1);
    *p = [p0, p1, p2, p3];
}

/// Per-position frequency level of the 4-point transform output.
const FREQ: [u8; 4] = [0, 1, 2, 2];

/// Coefficient visit order for bit-plane coding: ascending total frequency
/// `FREQ[x] + FREQ[y] + FREQ[z]` (low-frequency coefficients first, like
/// ZFP's precomputed permutation). Index layout: `i = (x*4 + y)*4 + z`.
pub const COEFF_ORDER: [u8; 64] = coeff_order();

const fn coeff_order() -> [u8; 64] {
    // Counting sort by total frequency (const-evaluable).
    let mut order = [0u8; 64];
    let mut pos = 0usize;
    let mut f = 0u8;
    while f <= 6 {
        let mut i = 0usize;
        while i < 64 {
            let x = i / 16;
            let y = (i / 4) % 4;
            let z = i % 4;
            if FREQ[x] + FREQ[y] + FREQ[z] == f {
                order[pos] = i as u8;
                pos += 1;
            }
            i += 1;
        }
        f += 1;
    }
    order
}

/// Position of transform-layout index `i` in the frequency ordering
/// (`COEFF_POS[COEFF_ORDER[o]] == o`) — the scatter map that lets the last
/// forward sweep write its outputs directly into frequency order.
pub(crate) const COEFF_POS: [u8; 64] = coeff_pos();

const fn coeff_pos() -> [u8; 64] {
    let mut pos = [0u8; 64];
    let mut o = 0usize;
    while o < 64 {
        pos[COEFF_ORDER[o] as usize] = o as u8;
        o += 1;
    }
    pos
}

/// Forward transform of a 4³ block (in place, layout `i = (x*4+y)*4+z`),
/// followed by reordering into frequency order.
///
/// Dispatches on [`hqmr_codec::kernels::simd_level`]: integer lifting has one
/// two's-complement answer, so the AVX2 sweeps in `simd::x86` are
/// bit-identical to the scalar body by construction (pinned by the
/// differential tests).
pub fn fwd_transform3(block: &mut [i64; 64]) {
    match hqmr_codec::kernels::simd_level() {
        #[cfg(target_arch = "x86_64")]
        hqmr_codec::kernels::SimdLevel::Avx2 => unsafe {
            crate::simd::x86::fwd_transform3_avx2(block)
        },
        _ => fwd_transform3_scalar(block),
    }
}

/// The scalar arm of [`fwd_transform3`]: z and y sweeps lift in place through
/// direct indices (no per-4-group line copies); the x sweep fuses the
/// coefficient reorder by scattering its outputs straight to their
/// [`COEFF_ORDER`] positions.
pub(crate) fn fwd_transform3_scalar(block: &mut [i64; 64]) {
    // Along z (stride 1), in place.
    for base in (0..64).step_by(4) {
        let (a0, d0) = s_fwd(block[base], block[base + 1]);
        let (a1, d1) = s_fwd(block[base + 2], block[base + 3]);
        let (a, dd) = s_fwd(a0, a1);
        block[base] = a;
        block[base + 1] = dd;
        block[base + 2] = d0;
        block[base + 3] = d1;
    }
    // Along y (stride 4), in place.
    for x in 0..4 {
        for z in 0..4 {
            let base = x * 16 + z;
            let (a0, d0) = s_fwd(block[base], block[base + 4]);
            let (a1, d1) = s_fwd(block[base + 8], block[base + 12]);
            let (a, dd) = s_fwd(a0, a1);
            block[base] = a;
            block[base + 4] = dd;
            block[base + 8] = d0;
            block[base + 12] = d1;
        }
    }
    // Along x (stride 16), scattering outputs into frequency order.
    let mut out = [0i64; 64];
    for yz in 0..16 {
        let (a0, d0) = s_fwd(block[yz], block[yz + 16]);
        let (a1, d1) = s_fwd(block[yz + 32], block[yz + 48]);
        let (a, dd) = s_fwd(a0, a1);
        out[COEFF_POS[yz] as usize] = a;
        out[COEFF_POS[yz + 16] as usize] = dd;
        out[COEFF_POS[yz + 32] as usize] = d0;
        out[COEFF_POS[yz + 48] as usize] = d1;
    }
    *block = out;
}

/// Inverse of [`fwd_transform3`], dispatched like the forward direction.
pub fn inv_transform3(block: &mut [i64; 64]) {
    match hqmr_codec::kernels::simd_level() {
        #[cfg(target_arch = "x86_64")]
        hqmr_codec::kernels::SimdLevel::Avx2 => unsafe {
            crate::simd::x86::inv_transform3_avx2(block)
        },
        _ => inv_transform3_scalar(block),
    }
}

/// The scalar arm of [`inv_transform3`]: the x sweep gathers straight from
/// the frequency-ordered input (fusing the un-reorder), then y and z lift in
/// place.
pub(crate) fn inv_transform3_scalar(block: &mut [i64; 64]) {
    let mut out = [0i64; 64];
    // Along x (stride 16), reading each coefficient from its frequency slot.
    for yz in 0..16 {
        let a = block[COEFF_POS[yz] as usize];
        let dd = block[COEFF_POS[yz + 16] as usize];
        let d0 = block[COEFF_POS[yz + 32] as usize];
        let d1 = block[COEFF_POS[yz + 48] as usize];
        let (a0, a1) = s_inv(a, dd);
        let (p0, p1) = s_inv(a0, d0);
        let (p2, p3) = s_inv(a1, d1);
        out[yz] = p0;
        out[yz + 16] = p1;
        out[yz + 32] = p2;
        out[yz + 48] = p3;
    }
    // Along y (stride 4), in place.
    for x in 0..4 {
        for z in 0..4 {
            let base = x * 16 + z;
            let (a0, a1) = s_inv(out[base], out[base + 4]);
            let (p0, p1) = s_inv(a0, out[base + 8]);
            let (p2, p3) = s_inv(a1, out[base + 12]);
            out[base] = p0;
            out[base + 4] = p1;
            out[base + 8] = p2;
            out[base + 12] = p3;
        }
    }
    // Along z (stride 1), in place.
    for base in (0..64).step_by(4) {
        let (a0, a1) = s_inv(out[base], out[base + 1]);
        let (p0, p1) = s_inv(a0, out[base + 2]);
        let (p2, p3) = s_inv(a1, out[base + 3]);
        out[base] = p0;
        out[base + 1] = p1;
        out[base + 2] = p2;
        out[base + 3] = p3;
    }
    *block = out;
}

/// The pre-overhaul line-copying transforms, kept verbatim as differential
/// oracles for the in-place/fused kernels.
pub mod reference {
    use super::{fwd4, inv4, COEFF_ORDER};

    /// Original [`super::fwd_transform3`]: per-4-group line copies plus a
    /// separate reorder pass.
    pub fn fwd_transform3(block: &mut [i64; 64]) {
        let mut line = [0i64; 4];
        // Along z (stride 1).
        for base in (0..64).step_by(4) {
            line.copy_from_slice(&block[base..base + 4]);
            fwd4(&mut line);
            block[base..base + 4].copy_from_slice(&line);
        }
        // Along y (stride 4).
        for x in 0..4 {
            for z in 0..4 {
                let base = x * 16 + z;
                for (i, l) in line.iter_mut().enumerate() {
                    *l = block[base + 4 * i];
                }
                fwd4(&mut line);
                for (i, &l) in line.iter().enumerate() {
                    block[base + 4 * i] = l;
                }
            }
        }
        // Along x (stride 16).
        for yz in 0..16 {
            for (i, l) in line.iter_mut().enumerate() {
                *l = block[yz + 16 * i];
            }
            fwd4(&mut line);
            for (i, &l) in line.iter().enumerate() {
                block[yz + 16 * i] = l;
            }
        }
        // Reorder into frequency order.
        let copy = *block;
        for (o, &src) in COEFF_ORDER.iter().enumerate() {
            block[o] = copy[src as usize];
        }
    }

    /// Original [`super::inv_transform3`].
    pub fn inv_transform3(block: &mut [i64; 64]) {
        // Undo the reordering.
        let copy = *block;
        for (o, &src) in COEFF_ORDER.iter().enumerate() {
            block[src as usize] = copy[o];
        }
        let mut line = [0i64; 4];
        // Inverse order of the forward sweeps.
        for yz in 0..16 {
            for (i, l) in line.iter_mut().enumerate() {
                *l = block[yz + 16 * i];
            }
            inv4(&mut line);
            for (i, &l) in line.iter().enumerate() {
                block[yz + 16 * i] = l;
            }
        }
        for x in 0..4 {
            for z in 0..4 {
                let base = x * 16 + z;
                for (i, l) in line.iter_mut().enumerate() {
                    *l = block[base + 4 * i];
                }
                inv4(&mut line);
                for (i, &l) in line.iter().enumerate() {
                    block[base + 4 * i] = l;
                }
            }
        }
        for base in (0..64).step_by(4) {
            line.copy_from_slice(&block[base..base + 4]);
            inv4(&mut line);
            block[base..base + 4].copy_from_slice(&line);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifting_pair_is_exact() {
        for a in -20i64..20 {
            for b in -20i64..20 {
                let (avg, d) = s_fwd(a, b);
                assert_eq!(s_inv(avg, d), (a, b));
            }
        }
    }

    #[test]
    fn transform_roundtrip_is_lossless() {
        let mut block = [0i64; 64];
        for (i, v) in block.iter_mut().enumerate() {
            *v = (i as i64 * 7919 % 1000) - 500;
        }
        let orig = block;
        fwd_transform3(&mut block);
        inv_transform3(&mut block);
        assert_eq!(block, orig);
    }

    #[test]
    fn transform_roundtrip_extremes() {
        let mut block = [1i64 << 30; 64];
        block[13] = -(1i64 << 30);
        let orig = block;
        fwd_transform3(&mut block);
        // Growth stays within the guard bits (< 2^33).
        assert!(block.iter().all(|&v| v.abs() < (1i64 << 33)));
        inv_transform3(&mut block);
        assert_eq!(block, orig);
    }

    #[test]
    fn constant_block_concentrates_in_dc() {
        let mut block = [1000i64; 64];
        fwd_transform3(&mut block);
        assert_eq!(block[0], 1000);
        assert!(block[1..].iter().all(|&v| v == 0));
    }

    #[test]
    fn smooth_block_has_small_high_freq() {
        let mut block = [0i64; 64];
        for x in 0..4 {
            for y in 0..4 {
                for z in 0..4 {
                    block[(x * 4 + y) * 4 + z] = (100 * x + 80 * y + 60 * z) as i64;
                }
            }
        }
        fwd_transform3(&mut block);
        // Energy concentrates at the front (low frequency) of the ordering.
        let front: i64 = block[..8].iter().map(|v| v.abs()).sum();
        let back: i64 = block[32..].iter().map(|v| v.abs()).sum();
        assert!(front > 4 * back, "front {front} back {back}");
    }

    #[test]
    fn fused_transforms_match_reference() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..200 {
            let mut blk = [0i64; 64];
            for v in blk.iter_mut() {
                x = x.rotate_left(13).wrapping_mul(0x2545_F491_4F6C_DD1D);
                *v = ((x >> 20) as i64 & ((1 << 32) - 1)) - (1 << 31);
            }
            let mut a = blk;
            let mut b = blk;
            fwd_transform3(&mut a);
            reference::fwd_transform3(&mut b);
            assert_eq!(a, b, "forward transforms diverged");
            inv_transform3(&mut a);
            reference::inv_transform3(&mut b);
            assert_eq!(a, b, "inverse transforms diverged");
            assert_eq!(a, blk, "roundtrip lost data");
        }
    }

    #[test]
    fn coeff_order_is_permutation() {
        let mut seen = [false; 64];
        for &i in COEFF_ORDER.iter() {
            assert!(!seen[i as usize]);
            seen[i as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // DC first.
        assert_eq!(COEFF_ORDER[0], 0);
    }
}
