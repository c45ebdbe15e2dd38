//! SZ2-class block-wise error-bounded compressor.
//!
//! SZ2 (§II-A) partitions the field into small blocks (6³ by default; AMRIC
//! found 4³ optimal for multi-resolution data, §III-B) and, per block, picks
//! the better of two predictors:
//!
//! * **Lorenzo** — the 3-D first-order Lorenzo stencil over already
//!   reconstructed neighbours (which may cross block boundaries);
//! * **linear regression** — a fitted plane `c₀ + c₁x + c₂y + c₃z`, encoded as
//!   four coefficients per block and evaluated with no knowledge of
//!   neighbouring blocks — this is the source of the blocking artifacts the
//!   paper's post-processing targets.
//!
//! Residuals are quantized with the shared error-controlled quantizer and
//! entropy-coded with Huffman.
//!
//! Blocks are coded slab-major: one x-slab of blocks at a time, each in
//! raster `(y, z)` order, so every slab's flags, coefficients, codes and
//! outliers form one contiguous run of the stream. An array of at least
//! [`hqmr_codec::kernels::PAR_MIN_CELLS`] cells encodes its slabs as a
//! wavefront, slab `k` on thread `k mod threads`. Regression blocks never
//! wait; a Lorenzo block `(bx, by, bz)` first waits until slab `bx − 1` has
//! finished every block up to `(by, bz)` in raster order, since its stencil
//! reaches one cell back along each axis — into that slab's blocks at or
//! before `(by, bz)`. Each thread takes its slabs in increasing order, so the
//! lowest unfinished slab always has a finished predecessor and a thread
//! with no earlier slab left: the wavefront cannot deadlock. The stream and
//! the reconstruction are the serial walk's, byte for byte.

mod compressor;

pub use compressor::{Sz2Codec, SZ2_CODEC_ID};

/// Pre-overhaul per-point implementations, kept verbatim as differential
/// oracles for the interior/boundary-split kernels
/// (`tests/kernel_equivalence.rs`) — the `bitio::reference` pattern.
pub mod reference {
    pub use crate::compressor::reference::{compress, decompress, CompressResult};
}

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

    fn wavy(dims: Dims3) -> Field3 {
        Field3::from_fn(dims, |x, y, z| {
            ((x as f32 * 0.31).sin() * 2.0 + (y as f32 * 0.17).cos())
                * ((z as f32 * 0.23).sin() + 2.0)
        })
    }

    #[test]
    fn roundtrip_respects_bound() {
        let f = wavy(Dims3::new(20, 18, 22));
        for eb in [0.1, 0.01, 0.001] {
            let bytes = Sz2Codec::default().compress(&f, eb);
            let g = Sz2Codec::default().decompress(&bytes).unwrap();
            let e = max_err(&f, &g);
            assert!(e <= eb + 1e-12, "eb={eb} err={e}");
        }
    }

    #[test]
    fn multires_block_size_roundtrips() {
        let f = wavy(Dims3::new(16, 16, 64));
        let bytes = Sz2Codec::MULTIRES.compress(&f, 0.01);
        let g = Sz2Codec::MULTIRES.decompress(&bytes).unwrap();
        assert!(max_err(&f, &g) <= 0.01);
    }

    #[test]
    fn non_multiple_dims_roundtrip() {
        // Domain not divisible by the block size: edge blocks are partial.
        let f = wavy(Dims3::new(7, 11, 13));
        let bytes = Sz2Codec::default().compress(&f, 0.05);
        let g = Sz2Codec::default().decompress(&bytes).unwrap();
        assert!(max_err(&f, &g) <= 0.05);
    }

    #[test]
    fn smooth_field_compresses() {
        let f = Field3::from_fn(Dims3::cube(24), |x, y, z| (x + y + z) as f32 * 0.1);
        let bytes = Sz2Codec::default().compress(&f, 1e-3);
        let cr = (f.len() * 4) as f64 / bytes.len() as f64;
        assert!(cr > 10.0, "cr = {cr}");
        let g = Sz2Codec::default().decompress(&bytes).unwrap();
        assert!(max_err(&f, &g) <= 1e-3);
    }

    #[test]
    fn linear_field_prefers_regression() {
        // A plane is exactly representable by the regression predictor.
        let f = Field3::from_fn(Dims3::cube(12), |x, y, z| {
            1.0 + 0.5 * x as f32 - 0.25 * y as f32 + 2.0 * z as f32
        });
        let bytes = Sz2Codec::default().compress(&f, 1e-4);
        let r = reference::compress(&f, &Sz2Codec::default(), 1e-4);
        assert_eq!(r.bytes, bytes);
        assert!(r.regression_blocks > 0 || r.lorenzo_blocks > 0);
        let g = Sz2Codec::default().decompress(&bytes).unwrap();
        assert!(max_err(&f, &g) <= 1e-4);
    }

    #[test]
    fn spike_handled_as_outlier() {
        let mut f = Field3::new(Dims3::cube(8), 0.0);
        f.set(4, 4, 4, 1e28);
        let bytes = Sz2Codec::default().compress(&f, 1e-6);
        let g = Sz2Codec::default().decompress(&bytes).unwrap();
        assert_eq!(g.get(4, 4, 4), 1e28);
        assert!(max_err(&f, &g) <= 1e-6);
    }

    #[test]
    fn noise_bounded() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let f = Field3::from_fn(Dims3::new(13, 9, 17), |_, _, _| rng.gen_range(-50.0..50.0));
        let bytes = Sz2Codec::default().compress(&f, 0.25);
        let g = Sz2Codec::default().decompress(&bytes).unwrap();
        assert!(max_err(&f, &g) <= 0.25 + 1e-9);
    }

    #[test]
    fn corrupted_stream_rejected() {
        let f = wavy(Dims3::cube(12));
        let mut bad = Sz2Codec::default().compress(&f, 0.01);
        let n = bad.len();
        bad[n / 2] ^= 0x55;
        assert!(Sz2Codec::default().decompress(&bad).is_err());
    }

    #[test]
    fn tiny_domains() {
        for dims in [
            Dims3::new(1, 1, 1),
            Dims3::new(2, 3, 1),
            Dims3::new(1, 6, 6),
        ] {
            let f = wavy(dims);
            let bytes = Sz2Codec::default().compress(&f, 0.01);
            let g = Sz2Codec::default().decompress(&bytes).unwrap();
            assert!(max_err(&f, &g) <= 0.01, "dims {dims}");
        }
    }
}
