//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the checksum of
//! container sections, store chunks, parity sidecars and wire frames.
//!
//! Two arms compute the same function. The portable one is slicing-by-8
//! table lookup; on x86-64 CPUs with PCLMULQDQ, inputs of at least
//! [`clmul::MIN_LEN`] bytes are folded with carry-less multiplies instead
//! (64 bytes per step, an order of magnitude less work per byte) and only
//! the sub-16-byte tail goes through the tables. [`kernels::clmul_crc`]
//! picks the arm; the values never depend on it, so nothing stored or sent
//! under one arm needs the same arm to verify.

use crate::kernels;

const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 lookup tables, built at compile time.
/// `CRC_TABLES[j][b]` is the CRC of byte `b` followed by `j` zero bytes.
static CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            t[j][i] = (t[j - 1][i] >> 8) ^ t[0][(t[j - 1][i] & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    t
}

/// CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut state = !0u32;
    let mut rest = bytes;
    #[cfg(target_arch = "x86_64")]
    if rest.len() >= clmul::MIN_LEN && kernels::clmul_crc() {
        // SAFETY: `clmul_crc` is true only after the CPU reported both
        // pclmulqdq and sse4.1, the features `fold` is compiled with.
        (state, rest) = unsafe { clmul::fold(state, rest) };
    }
    !update_tables(state, rest)
}

/// Advances the raw (un-inverted) CRC register over `bytes` by table lookup.
///
/// Slicing-by-8: eight bytes advance per step through eight independent
/// lookups, so the carried dependency is one XOR tree per eight bytes
/// instead of one load-XOR chain per byte (which survives on the remainder).
/// This is the oracle the carry-less-multiply arm is tested against, the
/// arm `HQMR_FORCE_SCALAR` pins, and the only arm off x86-64.
fn update_tables(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for ch in &mut chunks {
        let lo = u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]) ^ crc;
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        crc = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// The carry-less-multiply arm: Gopal et al., "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), in its
/// bit-reflected form.
///
/// The message is a polynomial over GF(2); its CRC is the remainder modulo
/// `P`. A 128-bit lane `A` that sits `d` bits ahead of lane `B` in the
/// message can be merged into it as `A.lo·(x^(d+32) mod P) ⊕ A.hi·(x^(d−32)
/// mod P) ⊕ B` without changing that remainder — two multiplies and two XORs
/// for 16 bytes. Four independent lanes are folded 512 bits ahead per step,
/// then into one another, then the last 128 bits are reduced to 32 with a
/// Barrett division by `P`.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use super::POLY;
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Four 16-byte lanes, the width of one fold step; shorter inputs stay
    /// on the tables.
    pub(super) const MIN_LEN: usize = 64;

    /// `x^n mod P`, bit-reflected into the low 32 bits and shifted left by
    /// one: the form a fold constant takes as a `pclmulqdq` operand when
    /// both operands are bit-reflected (the product of two reflected values
    /// comes out one bit low).
    pub(super) const fn fold_constant(n: u32) -> i64 {
        // Reflected, bit 31 is x^0; multiplying by x shifts right.
        let mut r = 0x8000_0000u32;
        let mut i = 0;
        while i < n {
            r = if r & 1 != 0 { POLY ^ (r >> 1) } else { r >> 1 };
            i += 1;
        }
        (r as i64) << 1
    }

    /// `⌊x^64 / P⌋` (33 bits), bit-reflected: Barrett's μ.
    pub(super) const fn barrett_mu() -> i64 {
        const P: u64 = 0x1_04C1_1DB7;
        // Long division of x^64: no quotient bit can appear before 32 of its
        // zero coefficients have been brought down beside the leading one.
        let mut rem = 1u64 << 31;
        let mut mu = 0i64;
        let mut bit = 0; // quotient bits arrive from x^32 down; reflected, x^32 is bit 0
        while bit <= 32 {
            rem <<= 1;
            if rem >> 32 != 0 {
                rem ^= P;
                mu |= 1 << bit;
            }
            bit += 1;
        }
        mu
    }

    /// Lanes 4×128 bits apart: `x^(512+32)` and `x^(512−32)`.
    const FOLD_512: (i64, i64) = (fold_constant(544), fold_constant(480));
    /// Adjacent lanes: `x^(128+32)` and `x^(128−32)`.
    const FOLD_128: (i64, i64) = (fold_constant(160), fold_constant(96));
    /// 96 → 64 bits: `x^64`.
    const FOLD_64: i64 = fold_constant(64);
    /// `P` itself, reflected, 33 bits.
    const P_REFLECTED: i64 = ((POLY as i64) << 1) | 1;
    const MU: i64 = barrett_mu();

    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn lane(bytes: &[u8]) -> __m128i {
        let v = u128::from_le_bytes(*bytes.first_chunk().expect("a whole lane"));
        _mm_set_epi64x((v >> 64) as i64, v as i64)
    }

    /// Merges `ahead` into `into`; `keys` holds the two constants for the
    /// distance between them (low half for `ahead.lo`, high for `ahead.hi`).
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_lane(ahead: __m128i, into: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(ahead, keys, 0x00);
        let hi = _mm_clmulepi64_si128(ahead, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(lo, hi), into)
    }

    /// Advances the raw CRC register `state` over the longest prefix of
    /// `bytes` that is a whole number of 16-byte lanes, and returns the new
    /// register with the unprocessed tail (under 16 bytes).
    ///
    /// # Panics
    /// Panics if `bytes.len() < MIN_LEN`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn fold(state: u32, bytes: &[u8]) -> (u32, &[u8]) {
        let (head, rest) = bytes.split_at(MIN_LEN);
        // The register enters as if it were XORed onto the first 4 bytes.
        let mut x = [
            _mm_xor_si128(lane(head), _mm_cvtsi32_si128(state as i32)),
            lane(&head[16..]),
            lane(&head[32..]),
            lane(&head[48..]),
        ];
        let keys = _mm_set_epi64x(FOLD_512.1, FOLD_512.0);
        let mut blocks = rest.chunks_exact(64);
        for block in &mut blocks {
            for (i, x) in x.iter_mut().enumerate() {
                *x = fold_lane(*x, lane(&block[16 * i..]), keys);
            }
        }
        let keys = _mm_set_epi64x(FOLD_128.1, FOLD_128.0);
        let mut x = fold_lane(
            fold_lane(fold_lane(x[0], x[1], keys), x[2], keys),
            x[3],
            keys,
        );
        let mut lanes = blocks.remainder().chunks_exact(16);
        for next in &mut lanes {
            x = fold_lane(x, lane(next), keys);
        }

        // 128 → 96 → 64 bits: multiply the low half down onto the high one.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, keys, 0x10), _mm_srli_si128(x, 8));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, FOLD_64), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett: q = ⌊x.lo32·μ⌋ mod x^32, remainder = x ⊕ q·P; reflected,
        // it lands in bits 32..64.
        let pmu = _mm_set_epi64x(MU, P_REFLECTED);
        let q = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pmu, 0x10);
        let qp = _mm_clmulepi64_si128(_mm_and_si128(q, low32), pmu, 0x00);
        let state = _mm_extract_epi32(_mm_xor_si128(x, qp), 1) as u32;
        (state, lanes.remainder())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector: "123456789" -> 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn crc32_sliced_matches_per_byte() {
        // The slicing-by-8 loop must agree with the classic byte-at-a-time
        // formulation on every remainder length.
        let per_byte = |bytes: &[u8]| -> u32 {
            let mut crc = !0u32;
            for &b in bytes {
                crc = CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
            }
            !crc
        };
        let mut buf = Vec::new();
        let mut state = 0x1234_5678u32;
        for len in 0..64usize {
            buf.clear();
            for _ in 0..len {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                buf.push((state >> 24) as u8);
            }
            assert_eq!(crc32(&buf), per_byte(&buf), "len {len}");
        }
    }

    #[test]
    fn crc32_detects_flip() {
        let a = crc32(b"hello world");
        let b = crc32(b"hello worle");
        assert_ne!(a, b);
    }

    /// The derived fold constants are the ones every published PCLMULQDQ
    /// CRC-32 (Intel's paper, Linux, zlib) lists.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn clmul_constants_match_published_values() {
        assert_eq!(clmul::fold_constant(544), 0x1_5444_2bd4);
        assert_eq!(clmul::fold_constant(480), 0x1_c6e4_1596);
        assert_eq!(clmul::fold_constant(160), 0x1_7519_97d0);
        assert_eq!(clmul::fold_constant(96), 0x0_ccaa_009e);
        assert_eq!(clmul::fold_constant(64), 0x1_63cd_6124);
        assert_eq!(clmul::barrett_mu(), 0x1_f701_1641);
    }
}
