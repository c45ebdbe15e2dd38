//! Differential property suite for the prediction/quantization kernel
//! overhaul: the batched, direction-specialized line kernels (SZ3), the
//! interior/boundary-split Lorenzo + hoisted plane kernels (SZ2), and the
//! in-place/fused transform + batched bit-plane decode (ZFP) must be
//! *bit-identical* to the pre-overhaul per-point implementations they
//! replaced — same compressed streams out, same reconstructions (or the
//! same typed error) back.
//!
//! Coverage deliberately includes non-power-of-two and degenerate extents
//! (1×N×M lines and planes, single-point arrays): those are where boundary
//! peeling and line-geometry math would break first. The final test runs
//! every backend × arrangement over the real multi-resolution prepare stage,
//! comparing production streams against reference streams per prepared
//! array.

use hqmr::grid::{synth, Dims3, Field3};
use hqmr::mr::{to_adaptive, MergeStrategy, PadKind, RoiConfig};
use hqmr::workflow::mrc::Backend;
use hqmr_codec::Codec;
use hqmr_sz2::Sz2Codec;
use hqmr_sz3::{InterpKind, LevelEbPolicy, Sz3Codec};
use hqmr_zfp::ZfpCodec;

/// Shapes that stress every kernel edge: cubes, non-power-of-two extents,
/// thin slabs, pure lines, and single points.
const SHAPES: [Dims3; 10] = [
    Dims3::new(1, 1, 1),
    Dims3::new(2, 1, 1),
    Dims3::new(1, 1, 17),
    Dims3::new(1, 31, 2),
    Dims3::new(1, 9, 40),
    Dims3::new(5, 3, 7),
    Dims3::new(8, 8, 8),
    Dims3::new(9, 9, 33),
    Dims3::new(17, 17, 24),
    Dims3::new(4, 4, 97),
];

/// Deterministic rough field: integer arithmetic only (bit-stable), with a
/// spike to exercise the outlier path and a plateaued region for zero-ish
/// residuals.
fn rough(dims: Dims3, salt: u32) -> Field3 {
    let mut f = Field3::from_fn(dims, |x, y, z| {
        let h = (x as u32)
            .wrapping_mul(31)
            .wrapping_add((y as u32).wrapping_mul(17))
            .wrapping_add((z as u32).wrapping_mul(7))
            .wrapping_add(salt)
            % 97;
        let p = (x / 3 + y / 3 + z / 5) % 2;
        h as f32 * 0.25 + p as f32 * 10.0 - 12.0
    });
    if dims.len() > 8 {
        let (cx, cy, cz) = (dims.nx / 2, dims.ny / 2, dims.nz / 2);
        f.set(cx, cy, cz, 3.0e4);
    }
    f
}

#[test]
fn sz3_kernels_match_reference_streams() {
    for (i, dims) in SHAPES.into_iter().enumerate() {
        let f = rough(dims, i as u32);
        for interp in [InterpKind::Linear, InterpKind::Cubic] {
            for level_eb in [None, Some(LevelEbPolicy::PAPER)] {
                for eb in [1e-1, 1e-3] {
                    let codec = Sz3Codec { interp, level_eb };
                    let fast = codec.compress(&f, eb);
                    let slow = hqmr_sz3::reference::compress(&f, &codec, eb);
                    assert_eq!(
                        fast, slow.bytes,
                        "sz3 {dims} {interp:?} eb={eb} level_eb={level_eb:?}: stream drift"
                    );
                    let df = codec.decompress(&fast).expect("fresh stream decodes");
                    let ds = hqmr_sz3::reference::decompress(&fast).unwrap();
                    assert_eq!(
                        as_bits(&df),
                        as_bits(&ds),
                        "sz3 {dims} {interp:?}: reconstruction drift"
                    );
                }
            }
        }
    }
}

/// Every x/y sweep geometry of the across-lines arm against the reference:
/// x and y extents with 0, 1, 2 and many cubic points, z extents whose lane
/// counts are and are not multiples of four, and long z lines under a
/// 33-wide footprint (coarse x/y levels at z steps 4 … 64). Interpolator,
/// per-level bound and error bound rotate over the short shapes; the long
/// ones take every setup. `rough`'s spike supplies an outlier.
#[test]
fn sz3_across_lines_shapes_match_reference_streams() {
    const XY: [usize; 7] = [1, 2, 3, 5, 9, 17, 33];
    let setups = [
        (InterpKind::Cubic, None),
        (InterpKind::Cubic, Some(LevelEbPolicy::PAPER)),
        (InterpKind::Linear, None),
        (InterpKind::Linear, Some(LevelEbPolicy::PAPER)),
    ];
    let mut cases = Vec::new();
    for nx in XY {
        for ny in XY {
            for nz in [1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17] {
                let i = cases.len();
                cases.push((Dims3::new(nx, ny, nz), setups[i % 4], [1e-1, 1e-3][i % 2]));
            }
        }
    }
    for [nx, ny] in [[33, 2], [2, 33], [17, 17]] {
        for nz in [255, 256, 257] {
            for setup in setups {
                cases.push((Dims3::new(nx, ny, nz), setup, 1e-3));
            }
        }
    }
    // Finest x and y sweeps past the decode's fan-out threshold.
    cases.push((Dims3::new(9, 33, 1021), setups[0], 1e-3));
    for (i, (dims, (interp, level_eb), eb)) in cases.into_iter().enumerate() {
        assert_sz3_matches_reference(&rough(dims, i as u32), &Sz3Codec { interp, level_eb }, eb);
    }
}

/// An outlier in every lane of each four-lane group and in the scalar tail,
/// at x- and y-sweep targets of the finest level and of `s = 2`.
#[test]
fn sz3_outlier_in_every_lane_matches_reference_streams() {
    for dims in [Dims3::new(5, 5, 17), Dims3::new(5, 3, 15)] {
        for z in (0..dims.nz).step_by(2) {
            let mut cells = vec![[1, 0, z], [2, 1, z]];
            if z % 4 == 0 {
                cells.push([2, 0, z]);
            }
            for [x, y, z] in cells {
                let mut f = rough(dims, z as u32);
                f.set(x, y, z, -7.0e25);
                for codec in [Sz3Codec::default(), Sz3Codec::PAPER] {
                    assert_sz3_matches_reference(&f, &codec, 1e-2);
                }
            }
        }
    }
}

/// Production vs reference SZ3: the stream (outlier side channel included)
/// and both decodes.
fn assert_sz3_matches_reference(f: &Field3, codec: &Sz3Codec, eb: f64) {
    let dims = f.dims();
    let fast = codec.compress(f, eb);
    let slow = hqmr_sz3::reference::compress(f, codec, eb);
    assert_eq!(
        fast, slow.bytes,
        "sz3 {dims} {codec:?} eb={eb}: stream drift"
    );
    let df = codec.decompress(&fast).expect("fresh stream decodes");
    let ds = hqmr_sz3::reference::decompress(&fast).unwrap();
    assert_eq!(
        as_bits(&df),
        as_bits(&ds),
        "sz3 {dims} {codec:?} eb={eb}: reconstruction drift"
    );
}

#[test]
fn sz2_kernels_match_reference_streams() {
    for (i, dims) in SHAPES.into_iter().enumerate() {
        let f = rough(dims, 1000 + i as u32);
        for block in [2usize, 4, 6] {
            for eb in [1e-1, 1e-3] {
                let codec = Sz2Codec { block };
                let fast = codec.compress(&f, eb);
                let slow = hqmr_sz2::reference::compress(&f, &codec, eb);
                assert_eq!(
                    fast, slow.bytes,
                    "sz2 {dims} block={block} eb={eb}: stream drift"
                );
                let df = codec.decompress(&fast).expect("fresh stream decodes");
                let ds = hqmr_sz2::reference::decompress(&fast).unwrap();
                assert_eq!(
                    as_bits(&df),
                    as_bits(&ds),
                    "sz2 {dims}: reconstruction drift"
                );
            }
        }
    }
}

#[test]
fn zfp_kernels_match_reference_streams() {
    for (i, dims) in SHAPES.into_iter().enumerate() {
        let f = rough(dims, 2000 + i as u32);
        for tol in [1.0, 1e-2] {
            let fast = ZfpCodec.compress(&f, tol);
            let slow = hqmr_zfp::reference::compress(&f, &ZfpCodec, tol);
            assert_eq!(fast, slow.bytes, "zfp {dims} tol={tol}: stream drift");
            let df = ZfpCodec.decompress(&fast).expect("fresh stream decodes");
            let ds = hqmr_zfp::reference::decompress(&fast).unwrap();
            assert_eq!(
                as_bits(&df),
                as_bits(&ds),
                "zfp {dims}: reconstruction drift"
            );
        }
    }
}

/// Truncated and corrupted streams must fail identically through both
/// decode paths — kernels may not change error behaviour.
#[test]
fn corrupt_streams_fail_identically() {
    let f = rough(Dims3::new(9, 9, 33), 77);
    let sz3 = Sz3Codec::default().compress(&f, 1e-3);
    let sz2 = Sz2Codec::MULTIRES.compress(&f, 1e-3);
    let zfp = ZfpCodec.compress(&f, 1e-2);
    for cut in [0usize, 7, 40] {
        let c3 = &sz3[..sz3.len().min(cut.max(1) * sz3.len() / 41)];
        assert_eq!(
            Sz3Codec::default().decompress(c3).is_err(),
            hqmr_sz3::reference::decompress(c3).is_err(),
            "sz3 truncation outcome drift at {cut}"
        );
        let c2 = &sz2[..sz2.len().min(cut.max(1) * sz2.len() / 41)];
        assert_eq!(
            Sz2Codec::MULTIRES.decompress(c2).is_err(),
            hqmr_sz2::reference::decompress(c2).is_err(),
            "sz2 truncation outcome drift at {cut}"
        );
        let cz = &zfp[..zfp.len().min(cut.max(1) * zfp.len() / 41)];
        assert_eq!(
            ZfpCodec.decompress(cz).is_err(),
            hqmr_zfp::reference::decompress(cz).is_err(),
            "zfp truncation outcome drift at {cut}"
        );
    }
}

/// Every backend × arrangement over the *real* multi-resolution prepare
/// stage: the production codec must emit bit-identical streams to its
/// reference twin for every prepared array (merged, padded, degenerate
/// small-dims linear shapes included). The null backend has no kernels and
/// serves as the layout control: its stream must round-trip the prepared
/// arrays losslessly.
#[test]
fn all_backends_and_arrangements_are_bit_identical() {
    let field = synth::nyx_like(32, 5);
    let mr = to_adaptive(&field, &RoiConfig::new(8, 0.5));
    let eb = field.range() as f64 * 2e-3;
    let arrangements: [(MergeStrategy, Option<PadKind>); 4] = [
        (MergeStrategy::Linear, Some(PadKind::Linear)),
        (MergeStrategy::Linear, None),
        (MergeStrategy::Stack, None),
        (MergeStrategy::Tac, None),
    ];
    for backend in Backend::ALL {
        let codec = backend.codec();
        for (merge, pad) in arrangements {
            for level in &mr.levels {
                let prep = hqmr::mr::prepare_level(level, merge, pad);
                for (_, f) in prep.blocks() {
                    let fast = codec.compress(f, eb);
                    let slow: Vec<u8> = match backend {
                        Backend::Sz3(sz3) => hqmr_sz3::reference::compress(f, &sz3, eb).bytes,
                        Backend::Sz2(sz2) => hqmr_sz2::reference::compress(f, &sz2, eb).bytes,
                        Backend::Zfp => hqmr_zfp::reference::compress(f, &ZfpCodec, eb).bytes,
                        Backend::Null => {
                            let back = codec.decompress(&fast).expect("null decodes");
                            assert_eq!(
                                as_bits(&back),
                                as_bits(f),
                                "null backend must round-trip prepared arrays"
                            );
                            fast.clone()
                        }
                    };
                    assert_eq!(
                        fast,
                        slow,
                        "{backend:?} {merge:?} pad={pad:?} {}: stream drift",
                        f.dims()
                    );
                }
            }
        }
    }
}

/// The arrays a default store actually holds — padded 17×17×256 level-0 and
/// 9×9×128 level-1 linear merges of the WarpX proxy, whose code streams are
/// ≈ 1 bit/symbol and dominated by the one-bit zero-residual code: where the
/// entropy stage's run path and the per-thread decode scratch live. One
/// scratch field and one thread decode both levels' arrays back to back, so
/// state left behind by a large array meets a small one and vice versa.
#[test]
fn sz3_decodes_store_chunk_arrays_like_the_reference() {
    let field = synth::warpx_like(Dims3::new(32, 32, 512), 20240917);
    let eb = field.range() as f64 * 1e-3;
    let mr = to_adaptive(&field, &RoiConfig::paper_default());
    let prepared = hqmr::store::prepare_store(&mr, &hqmr::store::StoreConfig::new(eb));
    assert_eq!(prepared.len(), 2, "two levels");
    let streams: Vec<(Dims3, Vec<u8>)> = prepared
        .iter()
        .flatten()
        .inspect(|p| assert!(p.padded(), "default stores pad both levels"))
        .flat_map(|p| p.fields())
        .map(|f| (f.dims(), Sz3Codec::default().compress(f, eb)))
        .collect();
    assert!(streams.iter().any(|(d, _)| *d == Dims3::new(17, 17, 256)));
    assert!(streams.iter().any(|(d, _)| *d == Dims3::new(9, 9, 128)));
    let mut scratch = Field3::zeros(Dims3::new(0, 0, 0));
    // Large → small and small → large.
    for (dims, stream) in streams.iter().chain(streams.iter().rev()) {
        let slow = hqmr_sz3::reference::decompress(stream).unwrap();
        let fast = Sz3Codec::default()
            .decompress(stream)
            .expect("fresh stream decodes");
        Sz3Codec::default()
            .decompress_into(stream, &mut scratch)
            .unwrap();
        assert_eq!(slow.dims(), *dims);
        assert_eq!(as_bits(&fast), as_bits(&slow), "sz3 {dims}: decode drift");
        assert_eq!(scratch, fast, "sz3 {dims}: scratch reuse drift");
    }
}

/// An array just past the fan-out cutoff whose x-slabs (of 4 planes: 4, 4
/// and a thin last one of 1; of 2 planes: five, the last thin) each hold
/// every kind of block: smooth stretches that pick Lorenzo (whose stencil
/// reaches back into the previous slab), rough ones that pick regression,
/// and NaN, ±∞ and all-zero blocks — planted on every slab's first plane.
fn slabbed() -> Field3 {
    let dims = Dims3::new(9, 5, 23_400);
    assert!(dims.len() >= hqmr_codec::kernels::PAR_MIN_CELLS);
    let mut f = Field3::from_fn(dims, |x, y, z| {
        if (z / 96) % 3 == 2 {
            let h = (x * 31 + y * 17 + z * 7) % 97;
            h as f32 * 0.25 - 12.0
        } else {
            (x * x + 2 * y * y) as f32 * 0.01 + (z as f32 * 0.05).sin() * 3.0
        }
    });
    for x in [0, 2, 4, 6, 8] {
        f.set(x, 2, 1001, f32::NAN);
        f.set(x, 1, 2002, f32::INFINITY);
        f.set(x, 3, 3003, f32::NEG_INFINITY);
        f.set(x, 4, 17_000, 3.0e4);
    }
    for x in 0..dims.nx {
        for y in 0..4 {
            for z in 4000..4008 {
                f.set(x, y, z, 0.0);
            }
        }
    }
    f
}

/// Level-sized arrays encode their x-slabs side by side (zfp) or as a
/// wavefront (sz2). Both must write the serial oracle's stream byte for
/// byte and hand back exactly the field the decoder rebuilds, at bounds
/// tight enough to put outliers in every slab. (On a one-core machine the
/// encoders stay serial and this reduces to the equivalence above.)
#[test]
fn fanned_out_slab_encodes_match_serial_reference_streams() {
    let f = slabbed();
    let (mut stream, mut recon) = (Vec::new(), Field3::default());
    for block in [4usize, 2] {
        for eb in [1e-6, 1e-2] {
            let codec = Sz2Codec { block };
            let slow = hqmr_sz2::reference::compress(&f, &codec, eb);
            let fast = codec.compress(&f, eb);
            let at = format!("sz2 block={block} eb={eb}");
            assert!(fast == slow.bytes, "{at}: stream");
            assert!(slow.lorenzo_blocks > 0 && slow.regression_blocks > 0);
            assert!(slow.outliers > 0, "{at}: no outliers");
            codec
                .compress_with_recon(&f, eb, &mut stream, &mut recon)
                .unwrap();
            assert!(stream == slow.bytes, "{at}: closed-loop stream");
            let back = codec.decompress(&stream).unwrap();
            assert!(as_bits(&recon) == as_bits(&back), "{at}: reconstruction");
        }
    }
    for tol in [1e-6, 1e-2] {
        let slow = hqmr_zfp::reference::compress(&f, &ZfpCodec, tol);
        let fast = ZfpCodec.compress(&f, tol);
        assert!(fast == slow.bytes, "zfp tol={tol}: stream");
        assert!(slow.zero_blocks > 0);
        ZfpCodec
            .compress_with_recon(&f, tol, &mut stream, &mut recon)
            .unwrap();
        assert!(stream == slow.bytes, "zfp tol={tol}: closed-loop stream");
        let back = ZfpCodec.decompress(&stream).unwrap();
        assert!(
            as_bits(&recon) == as_bits(&back),
            "zfp tol={tol}: reconstruction"
        );
    }
}

/// f32 payloads compared exactly (NaN-safe, −0.0 ≠ +0.0).
fn as_bits(f: &Field3) -> Vec<u32> {
    f.data().iter().map(|v| v.to_bits()).collect()
}
