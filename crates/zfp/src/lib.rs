//! ZFP-class transform codec.
//!
//! ZFP (§II-A) processes 4³ blocks independently: block-floating-point
//! alignment to a common exponent, a decorrelating transform along each
//! dimension, negabinary mapping, and embedded bit-plane coding with group
//! testing. Fixed-accuracy mode stops emitting bit planes once the requested
//! tolerance is guaranteed.
//!
//! **Substitution note (DESIGN.md §2):** ZFP's non-orthogonal lifted transform
//! is replaced by an *exactly invertible* two-level S-transform (Haar
//! lifting). This preserves the architecture the paper relies on — 4³
//! blocking artifacts, smooth blocks costing few bits, and actual error well
//! under the stated tolerance (the "underestimation characteristic" of
//! §III-B used when picking the `a_zfp` candidate set) — while making
//! round-trips bit-exact at full precision.
//!
//! Blocks are coded slab-major: one x-slab of blocks at a time, each in
//! raster `(y, z)` order. Blocks are independent, so a slab's bits are a
//! contiguous run of the payload and its reconstruction a contiguous run of
//! x-planes; an array of at least [`hqmr_codec::kernels::PAR_MIN_CELLS`]
//! cells encodes its slabs on all cores and joins the runs in slab order —
//! the same payload, bit for bit.

mod coder;
mod simd;
mod stream;
mod transform;

pub use coder::{decode_block_ints, encode_block_ints, INTPREC};
pub use stream::{ZfpCodec, ZFP_CODEC_ID};
pub use transform::{fwd_transform3, inv_transform3, COEFF_ORDER};

/// Pre-overhaul implementations (line-copying transforms, per-bit plane
/// decoder), kept verbatim as differential oracles for the in-place/fused
/// kernels (`tests/kernel_equivalence.rs`) — the `bitio::reference`
/// pattern.
pub mod reference {
    pub use crate::coder::reference::{decode_block_ints, encode_block_ints};
    pub use crate::stream::reference::{compress, decompress, CompressResult};
    pub use crate::transform::reference::{fwd_transform3, inv_transform3};
}

/// Block side length (fixed by the format, like ZFP).
pub const BLOCK: usize = 4;
/// Values per block.
pub const BLOCK_LEN: usize = BLOCK * BLOCK * BLOCK;

#[cfg(test)]
mod tests {
    use super::*;
    use hqmr_codec::Codec;
    use hqmr_grid::{Dims3, Field3};

    fn max_err(a: &Field3, b: &Field3) -> f64 {
        a.data()
            .iter()
            .zip(b.data())
            .map(|(&x, &y)| (x as f64 - y as f64).abs())
            .fold(0.0, f64::max)
    }

    fn roundtrip(f: &Field3, tol: f64) -> Field3 {
        ZfpCodec.decompress(&ZfpCodec.compress(f, tol)).unwrap()
    }

    fn ratio(f: &Field3, bytes: &[u8]) -> f64 {
        (f.len() * 4) as f64 / bytes.len() as f64
    }

    fn wavy(dims: Dims3) -> Field3 {
        Field3::from_fn(dims, |x, y, z| {
            (x as f32 * 0.4).sin() * 3.0 + (y as f32 * 0.3).cos() * 2.0 + (z as f32 * 0.2).sin()
        })
    }

    #[test]
    fn roundtrip_respects_tolerance() {
        let f = wavy(Dims3::cube(16));
        for tol in [0.5, 0.05, 0.005, 5e-4] {
            let g = roundtrip(&f, tol);
            let e = max_err(&f, &g);
            assert!(e <= tol, "tol={tol} err={e}");
        }
    }

    #[test]
    fn error_is_well_under_tolerance() {
        // The paper exploits ZFP's conservatism ("underestimation
        // characteristic", §III-B): actual max error sits well below the
        // requested tolerance — but not absurdly below, or the codec would
        // waste bits. Pin the calibrated window.
        let f = wavy(Dims3::cube(16));
        for tol in [0.5, 0.05, 0.005] {
            let g = roundtrip(&f, tol);
            let e = max_err(&f, &g);
            assert!(e < tol * 0.6, "err {e} not well under tol {tol}");
            assert!(e > tol * 0.01, "err {e} suspiciously far under tol {tol}");
        }
    }

    #[test]
    fn partial_blocks_roundtrip() {
        let f = wavy(Dims3::new(5, 7, 9));
        let g = roundtrip(&f, 0.01);
        assert_eq!(g.dims(), f.dims());
        assert!(max_err(&f, &g) <= 0.01);
    }

    #[test]
    fn smooth_data_compresses_well() {
        let f = Field3::from_fn(Dims3::cube(32), |x, y, z| (x + 2 * y + 3 * z) as f32 * 0.01);
        let cr = ratio(&f, &ZfpCodec.compress(&f, 1e-3));
        assert!(cr > 6.0, "cr = {cr}");
    }

    #[test]
    fn constant_and_zero_fields_are_tiny() {
        let z = Field3::zeros(Dims3::cube(16));
        assert!(ratio(&z, &ZfpCodec.compress(&z, 1e-6)) > 100.0);
        let g = roundtrip(&z, 1e-6);
        assert_eq!(max_err(&z, &g), 0.0);

        let c = Field3::new(Dims3::cube(16), 123.5);
        let g = roundtrip(&c, 1e-3);
        assert!(max_err(&c, &g) <= 1e-3);
    }

    #[test]
    fn noise_bounded() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let f = Field3::from_fn(Dims3::new(12, 8, 20), |_, _, _| rng.gen_range(-1e4..1e4));
        for tol in [100.0, 1.0] {
            let g = roundtrip(&f, tol);
            assert!(max_err(&f, &g) <= tol);
        }
    }

    #[test]
    fn mixed_magnitude_blocks_bounded() {
        // Exercises per-block exponents: one block huge, one tiny.
        let mut f = Field3::zeros(Dims3::cube(8));
        for x in 0..4 {
            for y in 0..4 {
                for z in 0..4 {
                    f.set(x, y, z, 1e6 + (x * y * z) as f32);
                    f.set(x + 4, y + 4, z + 4, 1e-3 * (x + y + z) as f32);
                }
            }
        }
        let g = roundtrip(&f, 0.5);
        assert!(max_err(&f, &g) <= 0.5);
    }

    #[test]
    fn tighter_tolerance_costs_more_bits() {
        let f = wavy(Dims3::cube(16));
        let loose = ZfpCodec.compress(&f, 0.1);
        let tight = ZfpCodec.compress(&f, 1e-4);
        assert!(tight.len() > loose.len());
    }

    #[test]
    fn corrupted_stream_rejected() {
        let f = wavy(Dims3::cube(8));
        let mut bad = ZfpCodec.compress(&f, 0.01);
        let n = bad.len();
        bad[n - 2] ^= 0xFF;
        assert!(ZfpCodec.decompress(&bad).is_err());
    }

    #[test]
    #[should_panic(expected = "tolerance must be positive")]
    fn rejects_bad_tolerance() {
        ZfpCodec.compress(&Field3::zeros(Dims3::cube(4)), -1.0);
    }
}
