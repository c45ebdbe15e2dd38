//! Property tests for the [`hqmr::codec::Codec`] trait contract, run
//! uniformly over every backend: the error bound holds on arbitrary synthetic
//! fields, streams are self-identifying, and malformed or foreign input
//! produces typed errors — never panics.

use hqmr::codec::{Codec, CodecError, NullCodec};
use hqmr::grid::{synth, Dims3, Field3};
use hqmr::mr::{to_adaptive, MergeStrategy, PadKind, RoiConfig};
use hqmr::store::{prepare_store, StoreConfig};
use hqmr::sz2::Sz2Codec;
use hqmr::sz3::Sz3Codec;
use hqmr::zfp::ZfpCodec;
use proptest::prelude::*;

/// Every registered backend, boxed for uniform iteration.
fn all_codecs() -> Vec<Box<dyn Codec>> {
    vec![
        Box::new(Sz3Codec::default()),
        Box::new(Sz3Codec::PAPER),
        Box::new(Sz2Codec::default()),
        Box::new(Sz2Codec::MULTIRES),
        Box::new(ZfpCodec),
        Box::new(NullCodec),
    ]
}

fn max_abs(a: &Field3, b: &Field3) -> f64 {
    a.data()
        .iter()
        .zip(b.data())
        .map(|(&x, &y)| (x as f64 - y as f64).abs())
        .fold(0.0, f64::max)
}

/// Deterministic pseudo-random field from hashed coordinates.
fn synth_field(dims: Dims3, seed: u64, exp: i32) -> Field3 {
    Field3::from_fn(dims, |x, y, z| {
        let h =
            (x.wrapping_mul(73_856_093) ^ y.wrapping_mul(19_349_663) ^ z.wrapping_mul(83_492_791))
                .wrapping_add(seed as usize);
        ((h % 2048) as f32 / 1024.0 - 1.0) * 10f32.powi(exp)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `|x − x̂| ≤ eb` for every backend on arbitrary small fields.
    #[test]
    fn all_codecs_respect_error_bound(
        nx in 1usize..10, ny in 1usize..10, nz in 1usize..20,
        seedv in 0u64..1000, exp in -2i32..3,
    ) {
        let f = synth_field(Dims3::new(nx, ny, nz), seedv, exp);
        let eb = (f.range() as f64 * 1e-2).max(1e-12);
        for codec in all_codecs() {
            let bytes = codec.compress(&f, eb);
            let g = codec.decompress(&bytes).unwrap();
            prop_assert_eq!(g.dims(), f.dims(), "{} changed dims", codec.name());
            let e = max_abs(&f, &g);
            prop_assert!(e <= eb + 1e-15, "{}: err {e} > eb {eb}", codec.name());
        }
    }

    /// Truncation anywhere in the stream yields `Err`, never a panic.
    #[test]
    fn truncated_streams_error_for_all_codecs(
        n in 2usize..8, seedv in 0u64..500, cut_frac in 1usize..99,
    ) {
        let f = synth_field(Dims3::cube(n), seedv, 0);
        let eb = (f.range() as f64 * 1e-2).max(1e-12);
        for codec in all_codecs() {
            let bytes = codec.compress(&f, eb);
            let cut = bytes.len() * cut_frac / 100;
            prop_assert!(
                codec.decompress(&bytes[..cut]).is_err(),
                "{} accepted a stream cut at {cut}/{}",
                codec.name(),
                bytes.len()
            );
        }
    }

    /// Single-byte corruption is either detected (the overwhelmingly common
    /// case, via CRC) or at worst decodes to *something* — it never panics.
    #[test]
    fn corrupted_streams_never_panic(
        n in 2usize..8, seedv in 0u64..500, flip_at in any::<usize>(), flip_bit in 0u8..8,
    ) {
        let f = synth_field(Dims3::cube(n), seedv, 0);
        let eb = (f.range() as f64 * 1e-2).max(1e-12);
        for codec in all_codecs() {
            let mut bytes = codec.compress(&f, eb);
            let i = flip_at % bytes.len();
            bytes[i] ^= 1 << flip_bit;
            let _ = codec.decompress(&bytes);
        }
    }
}

/// Feeding one backend's stream to another yields the typed
/// [`CodecError::WrongStreamId`] — the ids actually disagree pairwise.
#[test]
fn foreign_streams_yield_wrong_stream_id() {
    let f = synth_field(Dims3::cube(8), 7, 0);
    let eb = f.range() as f64 * 1e-2;
    let codecs = all_codecs();
    for producer in &codecs {
        let bytes = producer.compress(&f, eb);
        for consumer in &codecs {
            let result = consumer.decompress(&bytes);
            if consumer.id() == producer.id() {
                assert!(
                    result.is_ok(),
                    "{} rejected its own stream",
                    consumer.name()
                );
            } else {
                match result {
                    Err(CodecError::WrongStreamId { expected, found }) => {
                        assert_eq!(expected, consumer.id());
                        assert_eq!(found, producer.id());
                    }
                    other => panic!(
                        "{} fed a {} stream returned {other:?}, want WrongStreamId",
                        consumer.name(),
                        producer.name()
                    ),
                }
            }
        }
    }
}

/// Garbage that isn't a container at all is rejected with a container error.
#[test]
fn non_container_input_is_rejected() {
    for codec in all_codecs() {
        assert!(matches!(
            codec.decompress(b"not a stream"),
            Err(CodecError::Container(_))
        ));
        assert!(matches!(
            codec.decompress(&[]),
            Err(CodecError::Container(_))
        ));
    }
}

/// The backends' ids are pairwise distinct (the routing registry relies on
/// this).
#[test]
fn codec_ids_are_unique() {
    let codecs = all_codecs();
    for (i, a) in codecs.iter().enumerate() {
        for b in &codecs[i + 1..] {
            if a.name() != b.name() {
                assert_ne!(a.id(), b.id(), "{} vs {}", a.name(), b.name());
            }
        }
    }
}

/// The arrays a store writer hands a codec for a two-level ROI frame under
/// `merge` (`pad` applies to linear merges): default 16-block chunks, so the
/// paper arrangement yields the padded 17×17×256 and 9×9×128 shapes.
fn store_arrays(merge: MergeStrategy, pad: Option<PadKind>) -> Vec<Field3> {
    let field = synth::warpx_like(Dims3::new(32, 32, 128), 5);
    let mr = to_adaptive(&field, &RoiConfig::new(16, 0.5));
    let cfg = StoreConfig {
        merge,
        pad,
        ..StoreConfig::new(0.0)
    };
    (prepare_store(&mr, &cfg).iter().flatten())
        .flat_map(|group| group.fields().cloned())
        .collect()
}

/// [`Codec::compress_with_recon`]'s contract: the field it hands back is the
/// field `decompress` produces from the stream it wrote — every cell's bits,
/// NaN payloads and signed zeros included — and the stream is the one
/// `compress` writes. Held on real store arrays and degenerate shapes, with
/// outliers, NaN and ±∞ planted, across four decades of error bound, for
/// the overriding backends (sz3, sz2, zfp) and the default body (null) alike.
#[test]
fn compress_with_recon_hands_back_what_decompress_produces() {
    let padded = store_arrays(MergeStrategy::Linear, Some(PadKind::Linear));
    let of_shape = |dims: Dims3| {
        let found = padded.iter().find(|f| f.dims() == dims);
        found.unwrap_or_else(|| panic!("no {dims} array")).clone()
    };
    let mut arrays = vec![
        of_shape(Dims3::new(17, 17, 256)),
        of_shape(Dims3::new(9, 9, 128)),
    ];
    arrays.extend(store_arrays(MergeStrategy::Stack, None).into_iter().take(1));
    arrays.extend(store_arrays(MergeStrategy::Tac, None).into_iter().take(2));
    arrays.push(synth_field(Dims3::new(1, 1, 1), 3, 0));
    arrays.push(synth_field(Dims3::new(1, 1, 37), 4, 1));
    // The same arrays again with hostile cells planted; the one-cell array
    // becomes a lone NaN.
    let planted: Vec<Field3> = (arrays.iter())
        .map(|f| {
            let mut g = f.clone();
            let n = g.len();
            let cells = g.data_mut();
            cells[n / 2] = f32::NAN;
            if n > 8 {
                cells[n / 3] = f32::INFINITY;
                cells[n / 5] = f32::NEG_INFINITY;
                cells[n / 7] = 3.0e30; // an outlier at any bound
                cells[n - 1] = -0.0;
            }
            g
        })
        .collect();
    // Large ↔ small: the shared `recon` and `out` are reshaped both ways.
    let order: Vec<&Field3> = arrays
        .iter()
        .chain(&planted)
        .chain(arrays.first())
        .collect();

    let bits = |f: &Field3| f.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for codec in all_codecs() {
        let (mut out, mut recon) = (Vec::new(), Field3::zeros(Dims3::new(0, 0, 0)));
        for rel_eb in [1e-6, 1e-3, 0.2] {
            for f in &order {
                let finite = f.data().iter().copied().filter(|v| v.abs() < 1e30);
                let (lo, hi) =
                    finite.fold((f32::MAX, f32::MIN), |(lo, hi), v| (lo.min(v), hi.max(v)));
                let eb = ((hi - lo).max(1.0) as f64) * rel_eb;
                let at = format!("{} {} rel_eb {rel_eb}", codec.name(), f.dims());
                codec
                    .compress_with_recon(f, eb, &mut out, &mut recon)
                    .expect(&at);
                assert_eq!(out, codec.compress(f, eb), "{at}: stream");
                let decoded = codec.decompress(&out).expect(&at);
                assert_eq!(recon.dims(), decoded.dims(), "{at}");
                assert_eq!(bits(&recon), bits(&decoded), "{at}");
            }
        }
    }
}

/// A bound the codec cannot honour — zero, negative, NaN, infinite — is
/// refused by every lossy backend's `compress_with_recon` with a typed
/// error, not a quantizer panic; the raw passthrough, which needs no bound,
/// still encodes.
#[test]
fn unhonourable_bounds_are_typed_errors() {
    let f = synth_field(Dims3::new(5, 6, 7), 3, 0);
    for codec in all_codecs() {
        let (mut out, mut recon) = (Vec::new(), Field3::zeros(Dims3::new(0, 0, 0)));
        for eb in [0.0, -1e-3, f64::NAN, f64::INFINITY] {
            let result = codec.compress_with_recon(&f, eb, &mut out, &mut recon);
            if codec.id() == NullCodec.id() {
                assert!(result.is_ok(), "null at eb {eb}: {result:?}");
            } else {
                assert!(
                    matches!(result, Err(CodecError::Malformed(_))),
                    "{} at eb {eb}: {result:?}",
                    codec.name()
                );
            }
        }
    }
}
