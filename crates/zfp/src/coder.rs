//! Negabinary mapping and embedded bit-plane coding with group testing.
//!
//! Faithful transcription of ZFP's `encode_ints` / `decode_ints` loops: bit
//! planes are emitted most-significant first; within a plane, bits of already
//! significant coefficients are written verbatim and the remainder is
//! unary/group coded. Truncating the stream after any plane yields a coarser
//! but valid reconstruction — that is what fixed-accuracy mode exploits.

use hqmr_codec::{BitReader, BitWriter};

/// Bit planes carried per coefficient. Inputs are Q30 fixed point
/// (`|i| ≤ 2³⁰`) and the transform adds < 3 bits of growth, so negabinary
/// values fit comfortably in 36 bits.
pub const INTPREC: u32 = 36;

/// Negabinary mask (ZFP's `NBMASK`).
const NBMASK: u64 = 0xAAAA_AAAA_AAAA_AAAA;

/// Two's complement → negabinary.
#[inline]
pub fn int2uint(x: i64) -> u64 {
    (x as u64).wrapping_add(NBMASK) ^ NBMASK
}

/// Negabinary → two's complement.
#[inline]
pub fn uint2int(x: u64) -> i64 {
    (x ^ NBMASK).wrapping_sub(NBMASK) as i64
}

/// Mask of the negabinary planes a block coded at `maxprec` carries —
/// `kmin = INTPREC − maxprec` through `INTPREC − 1`, every bit of which
/// [`encode_block_ints`] writes and [`decode_block_ints`] gets back.
pub(crate) fn kept_planes(maxprec: u32) -> u64 {
    (!0u64 << INTPREC.saturating_sub(maxprec)) & ((1u64 << INTPREC) - 1)
}

/// Transposes a 64×64 bit matrix in place (`a[r]` bit `c` ↔ `a[c]` bit `r`),
/// by recursive block swaps — six masked exchange rounds instead of 4096
/// single-bit moves. Used to turn 64 negabinary coefficients into 64 ready
/// bit planes in one pass.
#[inline]
fn transpose_bits_64x64(a: &mut [u64; 64]) {
    let mut j = 32usize;
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k0 = 0usize;
        while k0 < 64 {
            for k in k0..k0 + j {
                // Swap row k's upper-half columns with row k+j's lower half.
                let t = ((a[k] >> j) ^ a[k + j]) & m;
                a[k] ^= t << j;
                a[k + j] ^= t;
            }
            k0 += 2 * j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// Encodes the 64 transform coefficients down to bit plane `kmin`
/// (`kmin = INTPREC − maxprec`). Coefficients must already be in frequency
/// order.
///
/// Word-at-a-time rewrite of the per-bit loop kept as
/// [`reference::encode_block_ints`]: plane gathers become one bit-matrix
/// transpose up front (each plane is then a single word read), and the
/// unary/group-test emission walks set bits with `trailing_zeros`, writing
/// each `1 + zero-run + marker` group as one `write_bits` call — the exact
/// bit sequence of the reference loop, pinned by the differential tests.
pub fn encode_block_ints(w: &mut BitWriter, data: &[i64; 64], maxprec: u32) {
    let kmin = INTPREC.saturating_sub(maxprec);
    let mut planes: [u64; 64] = std::array::from_fn(|i| int2uint(data[i]));
    transpose_bits_64x64(&mut planes);
    // planes[k] bit i == negabinary bit k of coefficient i.
    let mut n = 0usize; // coefficients significant so far
    for k in (kmin..INTPREC).rev() {
        let mut x = planes[k as usize];
        // Verbatim bits for already-significant coefficients.
        if n > 0 {
            w.write_bits(x, n as u32);
            x = if n >= 64 { 0 } else { x >> n };
        }
        // Unary run-length / group test for the rest, one write_bits per
        // group: the test '1', the zero run, and the terminating marker
        // (implicit at position 63, where the decoder stops unconditionally).
        let mut m = n;
        while m < 64 {
            if x == 0 {
                w.write_bit(false);
                break;
            }
            let g = x.trailing_zeros() as usize; // g ≤ 63 − m
            if m + g == 63 {
                w.write_bits(1, g as u32 + 1); // '1' + g zeros, no marker
                m = 64;
            } else {
                w.write_bits(1 | (1u64 << (g + 1)), g as u32 + 2);
                x >>= g + 1;
                m += g + 1;
            }
        }
        n = m;
    }
}

/// Decodes a block encoded by [`encode_block_ints`] with the same `maxprec`.
///
/// The unary run lengths of the group test are decoded word-at-a-time: a
/// `peek_bits`/`trailing_zeros` pair replaces the per-bit loop, consuming
/// exactly the same bits (the reader zero-pads past the end just like
/// `read_bit` returning `false`). Plane deposits walk set bits with
/// `trailing_zeros` instead of shifting through all 64 positions. Kept
/// observationally identical to [`reference::decode_block_ints`] — same
/// coefficients, same stream position — and pinned by differential tests.
pub fn decode_block_ints(r: &mut BitReader<'_>, maxprec: u32) -> [i64; 64] {
    let kmin = INTPREC.saturating_sub(maxprec);
    let mut ub = [0u64; 64];
    let mut n = 0usize;
    for k in (kmin..INTPREC).rev() {
        let mut x = if n > 0 { r.read_bits(n as u32) } else { 0 };
        let mut m = n;
        while m < 64 && r.read_bit() {
            // Unary run: count zeros until the marker 1, capped at position
            // 63 (whose marker is implicit).
            loop {
                let cap = 63 - m as u32;
                if cap == 0 {
                    break;
                }
                let width = cap.min(56);
                let window = r.peek_bits(width);
                if window == 0 {
                    r.consume(width);
                    m += width as usize;
                    continue;
                }
                let zeros = window.trailing_zeros();
                r.consume(zeros + 1);
                m += zeros as usize;
                break;
            }
            x |= 1u64 << m;
            m += 1;
        }
        n = m;
        // Deposit plane k: visit only the set bits.
        let mut bits = x;
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            ub[i] |= 1u64 << k;
            bits &= bits - 1;
        }
    }
    std::array::from_fn(|i| uint2int(ub[i]))
}

/// The pre-overhaul per-bit coder loops, kept verbatim as the differential
/// oracles for the batched group-test decode and the transpose/word-at-a-time
/// encode.
pub mod reference {
    use super::{int2uint, uint2int, INTPREC};
    use hqmr_codec::{BitReader, BitWriter};

    /// Original [`super::encode_block_ints`]: per-coefficient plane gather,
    /// one `write_bit` per group-test and unary-run bit.
    pub fn encode_block_ints(w: &mut BitWriter, data: &[i64; 64], maxprec: u32) {
        let kmin = INTPREC.saturating_sub(maxprec);
        let ub: [u64; 64] = std::array::from_fn(|i| int2uint(data[i]));
        let mut n = 0usize; // coefficients significant so far
        for k in (kmin..INTPREC).rev() {
            // Step 1: gather bit plane k.
            let mut x = 0u64;
            for (i, &u) in ub.iter().enumerate() {
                x |= ((u >> k) & 1) << i;
            }
            // Step 2: verbatim bits for already-significant coefficients.
            if n > 0 {
                w.write_bits(x, n as u32);
                x = if n >= 64 { 0 } else { x >> n };
            }
            // Step 3: unary run-length / group test for the rest.
            let mut m = n;
            while m < 64 && {
                let any = x != 0;
                w.write_bit(any);
                any
            } {
                while m < 63 && {
                    let bit = x & 1 == 1;
                    w.write_bit(bit);
                    !bit
                } {
                    x >>= 1;
                    m += 1;
                }
                x >>= 1;
                m += 1;
            }
            n = m;
        }
    }

    /// Original [`super::decode_block_ints`]: one `read_bit` per group-test
    /// and unary-run bit, bit-by-bit plane deposit.
    pub fn decode_block_ints(r: &mut BitReader<'_>, maxprec: u32) -> [i64; 64] {
        let kmin = INTPREC.saturating_sub(maxprec);
        let mut ub = [0u64; 64];
        let mut n = 0usize;
        for k in (kmin..INTPREC).rev() {
            let mut x = if n > 0 { r.read_bits(n as u32) } else { 0 };
            let mut m = n;
            while m < 64 && r.read_bit() {
                while m < 63 && !r.read_bit() {
                    m += 1;
                }
                x |= 1u64 << m;
                m += 1;
            }
            n = m;
            // Deposit plane k.
            let mut i = 0usize;
            let mut bits = x;
            while bits != 0 {
                if bits & 1 == 1 {
                    ub[i] |= 1u64 << k;
                }
                bits >>= 1;
                i += 1;
            }
        }
        std::array::from_fn(|i| uint2int(ub[i]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negabinary_roundtrip() {
        for x in [
            -5i64,
            -1,
            0,
            1,
            2,
            1 << 32,
            -(1 << 32),
            (1 << 35) - 1,
            -(1 << 35),
        ] {
            assert_eq!(uint2int(int2uint(x)), x, "x = {x}");
        }
        // Small magnitudes stay small in negabinary.
        assert!(int2uint(0) == 0);
        assert!(int2uint(1) == 1);
        assert!(int2uint(-1) == 3);
    }

    #[test]
    fn full_precision_roundtrip_is_lossless() {
        let data: [i64; 64] =
            std::array::from_fn(|i| ((i as i64 * 2654435761) % (1 << 30)) - (1 << 29));
        let mut w = BitWriter::new();
        encode_block_ints(&mut w, &data, INTPREC);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        let back = decode_block_ints(&mut r, INTPREC);
        assert_eq!(back, data);
    }

    #[test]
    fn truncated_precision_bounds_error() {
        let data: [i64; 64] = std::array::from_fn(|i| (i as i64 * 9176 % 100_000) - 50_000);
        for maxprec in [10u32, 16, 20, 28] {
            let mut w = BitWriter::new();
            encode_block_ints(&mut w, &data, maxprec);
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            let back = decode_block_ints(&mut r, maxprec);
            let kmin = INTPREC - maxprec;
            // Truncating negabinary below plane kmin perturbs each value by
            // less than 2^(kmin+1).
            let tol = 1i64 << (kmin + 1);
            for (a, b) in data.iter().zip(&back) {
                assert!((a - b).abs() < tol, "maxprec {maxprec}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn zero_block_is_one_bit_per_plane() {
        let data = [0i64; 64];
        let mut w = BitWriter::new();
        encode_block_ints(&mut w, &data, INTPREC);
        assert_eq!(w.bit_len(), INTPREC as usize);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(decode_block_ints(&mut r, INTPREC), data);
    }

    #[test]
    fn sparse_block_cheaper_than_dense() {
        let mut sparse = [0i64; 64];
        sparse[0] = 123_456;
        let dense: [i64; 64] = std::array::from_fn(|i| 123_456 + i as i64 * 999);
        let cost = |d: &[i64; 64]| {
            let mut w = BitWriter::new();
            encode_block_ints(&mut w, d, INTPREC);
            w.bit_len()
        };
        assert!(cost(&sparse) < cost(&dense) / 3);
    }

    #[test]
    fn single_significant_at_every_position() {
        // Exercises the group-test edge cases, including position 63.
        for pos in [0usize, 1, 31, 62, 63] {
            let mut data = [0i64; 64];
            data[pos] = -(1 << 20);
            let mut w = BitWriter::new();
            encode_block_ints(&mut w, &data, INTPREC);
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            assert_eq!(decode_block_ints(&mut r, INTPREC), data, "pos {pos}");
        }
    }

    #[test]
    fn word_at_a_time_encoder_matches_reference() {
        let mut x = 0x243F_6A88_85A3_08D3u64;
        let mut rnd = |bits: u32| {
            x = x.rotate_left(11).wrapping_mul(0x2545_F491_4F6C_DD1D);
            ((x >> 16) & ((1 << bits) - 1)) as i64 - (1 << (bits - 1))
        };
        for trial in 0..300 {
            // Mix dense, sparse and degenerate blocks across precisions.
            let mut data = [0i64; 64];
            match trial % 4 {
                0 => data.iter_mut().for_each(|v| *v = rnd(31)),
                1 => data[(trial / 4) % 64] = rnd(24),
                2 => data.iter_mut().step_by(7).for_each(|v| *v = rnd(12)),
                _ => {} // all zeros
            }
            for maxprec in [1u32, 7, 20, INTPREC] {
                let mut w = BitWriter::new();
                encode_block_ints(&mut w, &data, maxprec);
                let mut wr = BitWriter::new();
                reference::encode_block_ints(&mut wr, &data, maxprec);
                assert_eq!(w.bit_len(), wr.bit_len(), "trial {trial} prec {maxprec}");
                assert_eq!(
                    w.finish(),
                    wr.finish(),
                    "trial {trial} prec {maxprec} diverged"
                );
            }
        }
    }

    #[test]
    fn consecutive_blocks_share_stream() {
        let a: [i64; 64] = std::array::from_fn(|i| i as i64 * 3 - 90);
        let b: [i64; 64] = std::array::from_fn(|i| -(i as i64) * 7 + 1);
        let mut w = BitWriter::new();
        encode_block_ints(&mut w, &a, INTPREC);
        encode_block_ints(&mut w, &b, 20);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(decode_block_ints(&mut r, INTPREC), a);
        let b2 = decode_block_ints(&mut r, 20);
        let tol = 1i64 << (INTPREC - 20 + 1);
        for (x, y) in b.iter().zip(&b2) {
            assert!((x - y).abs() < tol);
        }
    }
}
