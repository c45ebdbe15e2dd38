//! Property-based tests (proptest) over the core data structures and the
//! compressors' contracts.

use hqmr::codec::{
    huffman_decode, huffman_encode, pack_maybe_rle, rle_decode, rle_encode, unpack_maybe_rle,
    zigzag_decode, zigzag_encode, Codec, Container,
};
use hqmr::grid::{Dims3, Field3};
use hqmr::mr::{merge_level, unsplit_level, LevelData, MergeStrategy, UnitBlock};
use proptest::prelude::*;

fn max_abs(a: &Field3, b: &Field3) -> f64 {
    a.data()
        .iter()
        .zip(b.data())
        .map(|(&x, &y)| (x as f64 - y as f64).abs())
        .fold(0.0, f64::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Huffman round-trips arbitrary bounded symbol streams.
    #[test]
    fn huffman_roundtrip(symbols in proptest::collection::vec(0u32..5000, 0..2000)) {
        let enc = huffman_encode(&symbols);
        prop_assert_eq!(huffman_decode(&enc).expect("fresh block decodes"), symbols);
    }

    /// RLE and the maybe-RLE wrapper round-trip arbitrary bytes.
    #[test]
    fn rle_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 0..4096)) {
        prop_assert_eq!(rle_decode(&rle_encode(&bytes), bytes.len()), Some(bytes.clone()));
        prop_assert_eq!(unpack_maybe_rle(&pack_maybe_rle(&bytes), bytes.len()).as_deref(), Some(&bytes[..]));
    }

    /// Zigzag is a bijection.
    #[test]
    fn zigzag_bijection(v in any::<i64>()) {
        prop_assert_eq!(zigzag_decode(zigzag_encode(v)), v);
    }

    /// Containers reject arbitrary corruption or parse to the original.
    #[test]
    fn container_fuzz(payload in proptest::collection::vec(any::<u8>(), 1..512),
                      flip_at in any::<usize>()) {
        let mut c = Container::new();
        c.push(hqmr::codec::tag(b"FUZZ"), payload);
        let mut bytes = c.to_bytes();
        let i = flip_at % bytes.len();
        bytes[i] ^= 0x5A;
        // Either detected as corrupt or — if the flip hit padding-free fields
        // consistently — parses to *something*; it must never panic.
        let _ = Container::from_bytes(&bytes);
    }

    /// SZ3 honours arbitrary error bounds on arbitrary small fields.
    #[test]
    fn sz3_bounded(
        nx in 1usize..10, ny in 1usize..10, nz in 1usize..24,
        seedv in 0u64..1000, exp in -3i32..3,
    ) {
        let dims = Dims3::new(nx, ny, nz);
        let f = Field3::from_fn(dims, |x, y, z| {
            let h = (x.wrapping_mul(73856093) ^ y.wrapping_mul(19349663)
                ^ z.wrapping_mul(83492791)).wrapping_add(seedv as usize);
            ((h % 2048) as f32 / 1024.0 - 1.0) * 10f32.powi(exp)
        });
        let eb = (f.range() as f64 * 1e-2).max(1e-12);
        let sz3 = hqmr::sz3::Sz3Codec::default();
        let d = sz3.decompress(&sz3.compress(&f, eb)).unwrap();
        prop_assert!(max_abs(&f, &d) <= eb + 1e-15);
    }

    /// SZ2 honours bounds on arbitrary small fields and block sizes.
    #[test]
    fn sz2_bounded(
        n in 2usize..14, block in 2usize..8, seedv in 0u64..1000,
    ) {
        let f = Field3::from_fn(Dims3::cube(n), |x, y, z| {
            let h = (x * 7 + y * 131 + z * 1999 + seedv as usize) % 997;
            h as f32 * 0.37
        });
        let eb = (f.range() as f64 * 5e-3).max(1e-9);
        let sz2 = hqmr::sz2::Sz2Codec { block };
        let d = sz2.decompress(&sz2.compress(&f, eb)).unwrap();
        prop_assert!(max_abs(&f, &d) <= eb + 1e-15);
    }

    /// ZFP honours tolerances on arbitrary fields.
    #[test]
    fn zfp_bounded(
        nx in 1usize..12, ny in 1usize..12, nz in 1usize..12, seedv in 0u64..1000,
    ) {
        let f = Field3::from_fn(Dims3::new(nx, ny, nz), |x, y, z| {
            let h = (x * 31 + y * 17 + z * 13 + seedv as usize) % 513;
            (h as f32 - 256.0) * 0.5
        });
        let tol = (f.range() as f64 * 1e-2).max(1e-9);
        let zfp = hqmr::zfp::ZfpCodec;
        let d = zfp.decompress(&zfp.compress(&f, tol)).unwrap();
        prop_assert!(max_abs(&f, &d) <= tol);
    }

    /// Merge → split is the identity for arbitrary occupancy patterns across
    /// all strategies.
    #[test]
    fn merge_split_identity(occupancy in proptest::collection::vec(any::<bool>(), 27)) {
        let unit = 4usize;
        let mut blocks = Vec::new();
        for (i, &keep) in occupancy.iter().enumerate() {
            if !keep {
                continue;
            }
            let (bx, by, bz) = (i / 9, (i / 3) % 3, i % 3);
            let data: Vec<f32> = (0..64).map(|k| (i * 64 + k) as f32).collect();
            blocks.push(UnitBlock { origin: [bx * unit, by * unit, bz * unit], data });
        }
        let level = LevelData { level: 0, unit, dims: Dims3::cube(12), blocks: blocks.clone() };
        for strategy in [MergeStrategy::Linear, MergeStrategy::Stack, MergeStrategy::Tac] {
            let merged = merge_level(&level, strategy);
            let pairs: Vec<_> = merged.iter().map(|m| (m, &m.field)).collect();
            let back = unsplit_level(&pairs);
            prop_assert_eq!(&back, &blocks, "{:?}", strategy);
        }
    }

    /// Padding then stripping is the identity for any field shape.
    #[test]
    fn pad_strip_identity(nx in 2usize..10, ny in 2usize..10, nz in 1usize..20) {
        let f = Field3::from_fn(Dims3::new(nx, ny, nz), |x, y, z| {
            (x * 100 + y * 10 + z) as f32
        });
        for kind in [
            hqmr::mr::PadKind::Constant,
            hqmr::mr::PadKind::Linear,
            hqmr::mr::PadKind::Quadratic,
        ] {
            let padded = hqmr::mr::pad_small_dims(&f, kind);
            prop_assert_eq!(&hqmr::mr::strip_padding(&padded), &f);
        }
    }

    /// The FFT round-trip is the identity for arbitrary power-of-two shapes.
    #[test]
    fn fft_roundtrip(lx in 0u32..4, ly in 0u32..4, lz in 0u32..5, seedv in 0u64..100) {
        let (nx, ny, nz) = (1usize << lx, 1usize << ly, 1usize << lz);
        let orig: Vec<hqmr::fft::Complex> = (0..nx * ny * nz)
            .map(|i| hqmr::fft::Complex::new(
                ((i as u64).wrapping_mul(seedv + 7) % 97) as f64 / 10.0,
                ((i as u64).wrapping_mul(seedv + 13) % 89) as f64 / 10.0,
            ))
            .collect();
        let mut data = orig.clone();
        hqmr::fft::fft_3d(&mut data, nx, ny, nz, hqmr::fft::Direction::Forward);
        hqmr::fft::ifft_3d(&mut data, nx, ny, nz);
        for (a, b) in orig.iter().zip(&data) {
            prop_assert!((a.re - b.re).abs() < 1e-8 && (a.im - b.im).abs() < 1e-8);
        }
    }
}
