//! Cross-crate integration tests: the invariants DESIGN.md §5 promises,
//! checked through the full public API.

use hqmr::codec::Codec;
use hqmr::grid::{synth, Dims3, Field3};
use hqmr::metrics::{max_abs_err, psnr};
use hqmr::mr::{to_adaptive, to_amr, AmrConfig, MergeStrategy, RoiConfig, Upsample};
use hqmr::serve::{StoreServer, UNBOUNDED};
use hqmr::store::{write_store, StoreReader};
use hqmr::workflow::{
    bezier_pass, compress_mr, decompress_mr, run_uniform_workflow, select_intensity, Arrangement,
    Backend, CompressorChoice, MrcConfig, PostConfig, WorkflowConfig,
};
use std::sync::Arc;

fn stored_max_err(a: &hqmr::mr::MultiResData, b: &hqmr::mr::MultiResData) -> f64 {
    let mut worst = 0.0f64;
    for (la, lb) in a.levels.iter().zip(&b.levels) {
        for (ba, bb) in la.blocks.iter().zip(&lb.blocks) {
            for (&x, &y) in ba.data.iter().zip(&bb.data) {
                worst = worst.max((x as f64 - y as f64).abs());
            }
        }
    }
    worst
}

/// Error bound holds across every merge × pad × eb-policy combination on
/// every multi-resolution dataset family.
#[test]
fn error_bound_holds_across_all_pipeline_combinations() {
    let fields = [
        ("nyx", synth::nyx_like(32, 5)),
        ("warpx", synth::warpx_like(Dims3::new(16, 16, 128), 6)),
        ("rt", synth::rt_like(32, 7)),
    ];
    for (name, f) in fields {
        let mr = to_amr(&f, &AmrConfig::new(8, vec![0.25, 0.75]));
        let eb = f.range() as f64 * 1e-3;
        let mut configs = vec![
            MrcConfig::baseline(eb),
            MrcConfig::amric(eb),
            MrcConfig::tac(eb),
            MrcConfig::ours_pad(eb),
            MrcConfig::ours(eb),
        ];
        // The codec axis: every backend honours the same bound through the
        // same arrangement.
        configs.extend(Backend::ALL.map(|b| MrcConfig::ours_pad(eb).with_backend(b)));
        for cfg in configs {
            let (bytes, _) = compress_mr(&mr, &cfg);
            let back = decompress_mr(&bytes).unwrap();
            let err = stored_max_err(&mr, &back);
            assert!(err <= eb + 1e-9, "{name} {cfg:?}: err {err} > eb {eb}");
        }
    }
}

/// The three standalone compressors all honour their bounds on all dataset
/// proxies.
#[test]
fn all_compressors_bounded_on_all_proxies() {
    let fields = [
        synth::nyx_like(32, 1),
        synth::s3d_like(32, 2),
        synth::hurricane_like(Dims3::new(32, 32, 8), 3),
        synth::rt_like(32, 4),
    ];
    for f in &fields {
        let eb = f.range() as f64 * 5e-3;
        let codecs: [&dyn Codec; 3] = [
            &hqmr::sz3::Sz3Codec::default(),
            &hqmr::sz2::Sz2Codec::default(),
            &hqmr::zfp::ZfpCodec,
        ];
        for codec in codecs {
            let d = codec.decompress(&codec.compress(f, eb)).unwrap();
            assert!(max_abs_err(f, &d) <= eb, "{}", codec.name());
        }
    }
}

/// Post-processing never pushes a value outside `d ± a·eb` per pass and never
/// worsens PSNR materially (the selector's conservative fallback).
#[test]
fn post_process_is_bounded_and_safe() {
    let f = synth::s3d_like(32, 9);
    let eb = f.range() as f64 * 1e-2;
    let sz2 = hqmr::sz2::Sz2Codec::default();
    let dec = sz2.decompress(&sz2.compress(&f, eb)).unwrap();
    let cfg = PostConfig::sz2();
    let choice = select_intensity(&f, &dec, eb, &cfg);
    let post = bezier_pass(&dec, eb, choice.a, &cfg);
    // Pointwise clamp: three sequential passes, each ≤ a·eb.
    let a_max = choice.a.iter().fold(0.0f64, |m, &a| m.max(a));
    assert!(max_abs_err(&dec, &post) <= 3.0 * a_max * eb + 1e-9);
    // Quality is preserved or improved.
    assert!(psnr(&f, &post) >= psnr(&f, &dec) - 0.05);
}

/// ROI → compress → decompress → reconstruct: ROI cells still honour the
/// bound end to end (non-ROI cells additionally carry resampling error).
#[test]
fn roi_cells_bounded_end_to_end() {
    let f = synth::nyx_like(32, 10);
    let cfg = RoiConfig::new(8, 0.3);
    let mr = to_adaptive(&f, &cfg);
    let eb = f.range() as f64 * 1e-3;
    let (bytes, _) = compress_mr(&mr, &MrcConfig::ours(eb));
    let back = decompress_mr(&bytes).unwrap();
    let recon = back.reconstruct(Upsample::Nearest);
    // Check every cell covered by a fine-level (ROI) block.
    for b in &mr.levels[0].blocks {
        for dx in 0..8 {
            for dy in 0..8 {
                for dz in 0..8 {
                    let (x, y, z) = (b.origin[0] + dx, b.origin[1] + dy, b.origin[2] + dz);
                    let err = (f.get(x, y, z) as f64 - recon.get(x, y, z) as f64).abs();
                    assert!(err <= eb + 1e-9, "ROI cell ({x},{y},{z}) err {err}");
                }
            }
        }
    }
}

/// The one-call workflow produces consistent artifacts.
#[test]
fn workflow_end_to_end_consistency() {
    let f = synth::nyx_like(32, 11);
    let mut cfg = WorkflowConfig::new(2e-3);
    cfg.roi = RoiConfig::new(8, 0.4);
    cfg.uncertainty_iso = Some(f.range() * 0.5);
    let r = run_uniform_workflow(&f, &cfg).expect("workflow");
    assert_eq!(r.reconstruction.dims(), f.dims());
    assert!(r.end_to_end_ratio > 1.0);
    assert!(r.error_model.is_some());
    // The compressed stream decodes to the same reconstruction basis.
    let back = decompress_mr(&r.compressed).unwrap();
    assert_eq!(back.domain, f.dims());
}

/// The workflow takes its reconstruction from the compressor instead of
/// decoding the stream it wrote: on every backend × arrangement that field
/// is bit for bit what decoding gives, and the stream is `compress_mr`'s.
#[test]
fn workflow_reconstruction_equals_decoded_stream() {
    let f = synth::nyx_like(32, 41);
    let arrangements = [
        Arrangement::Ours,
        Arrangement::Baseline,
        Arrangement::Amric,
        Arrangement::Tac,
    ];
    for backend in Backend::ALL {
        for arrangement in arrangements {
            let mut cfg = WorkflowConfig::new(2e-3);
            cfg.roi = RoiConfig::new(8, 0.4);
            cfg.compressor = CompressorChoice::new(arrangement, backend);
            cfg.post_process = false;
            let r = run_uniform_workflow(&f, &cfg).unwrap();
            let mrc_cfg = cfg.compressor.mrc_config(r.eb);
            let (stream, _) = compress_mr(&to_adaptive(&f, &cfg.roi), &mrc_cfg);
            assert!(
                r.compressed == stream,
                "{backend:?} × {arrangement:?}: stream"
            );
            let decoded = decompress_mr(&r.compressed)
                .unwrap()
                .reconstruct(cfg.upsample);
            assert_eq!(r.reconstruction.dims(), decoded.dims());
            let bits = |x: &Field3| x.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert!(
                bits(&r.reconstruction) == bits(&decoded),
                "{backend:?} × {arrangement:?}: reconstruction"
            );
        }
    }
}

/// With the post-process on, the workflow's field is `bezier_pass` of the
/// decoded stream at the selector's intensities, bit for bit, on every
/// backend: where the selector engages an axis (the field is smoothed in
/// place) and where it turns every axis off (no pass runs at all).
#[test]
fn post_processed_workflow_equals_bezier_pass_of_decoded_stream() {
    let f = synth::warpx_like(Dims3::new(16, 16, 128), 43);
    let (mut engaged, mut idle) = (0, 0);
    for backend in Backend::ALL {
        let mut cfg = WorkflowConfig::new(1e-3);
        cfg.roi = RoiConfig::new(8, 0.5);
        cfg.compressor = CompressorChoice::ours().with_backend(backend);
        assert!(cfg.post_process);
        let r = run_uniform_workflow(&f, &cfg).unwrap();
        let decoded = decompress_mr(&r.compressed)
            .unwrap()
            .reconstruct(cfg.upsample);
        let post = PostConfig::sz3_multires(cfg.roi.block);
        let a = select_intensity(&f, &decoded, r.eb, &post).a;
        let want = bezier_pass(&decoded, r.eb, a, &post);
        let bits = |x: &Field3| x.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(r.reconstruction.dims(), want.dims(), "{backend:?}");
        assert!(
            bits(&r.reconstruction) == bits(&want),
            "{backend:?} (a = {a:?}): reconstruction"
        );
        if a.iter().any(|&ai| ai > 0.0) {
            engaged += 1;
        } else {
            idle += 1;
        }
    }
    assert!(engaged > 0 && idle > 0, "{engaged} engaged, {idle} idle");
}

/// The workflow's reduction stages, written to a block-indexed store instead
/// of the monolithic stream: `to_adaptive` → `write_store` under the
/// workflow's own compressor choice and bound.
fn workflow_store(f: &Field3, cfg: &WorkflowConfig, chunk_blocks: usize) -> (Vec<u8>, f64) {
    let eb = f.range() as f64 * cfg.rel_eb;
    let mr = to_adaptive(f, &cfg.roi);
    let codec = cfg.compressor.backend.codec();
    let store_cfg = cfg.compressor.store_config(eb, chunk_blocks);
    (write_store(&mr, &store_cfg, codec.as_ref()), eb)
}

/// With one chunk per level, the store path feeds the codec byte-identical
/// arrays, so the dense post-processed reconstructions agree exactly.
#[test]
fn store_path_matches_monolithic_reconstruction() {
    let f = synth::nyx_like(32, 23);
    let mut cfg = WorkflowConfig::new(2e-3);
    cfg.roi = RoiConfig::new(8, 0.4);
    let mono = run_uniform_workflow(&f, &cfg).unwrap();
    let (store, eb) = workflow_store(&f, &cfg, usize::MAX);
    assert!((f.len() * 4) as f64 / store.len() as f64 > 1.0);
    let reader = StoreReader::from_bytes(store).unwrap();
    assert_eq!(reader.meta().levels.len(), 2);
    let mut reconstruction = reader.read_all().unwrap().reconstruct(cfg.upsample);
    if cfg.post_process {
        let post_cfg = PostConfig::sz3_multires(cfg.roi.block);
        let choice = select_intensity(&f, &reconstruction, eb, &post_cfg);
        reconstruction = bezier_pass(&reconstruction, eb, choice.a, &post_cfg);
    }
    assert_eq!(reconstruction, mono.reconstruction);
}

/// Every backend the workflow can select writes a store that answers ROI
/// reads.
#[test]
fn store_path_supports_roi_reads_per_backend() {
    let f = synth::nyx_like(32, 29);
    for backend in Backend::ALL {
        let mut cfg = WorkflowConfig::new(2e-3);
        cfg.roi = RoiConfig::new(8, 0.4);
        cfg.compressor = CompressorChoice::ours().with_backend(backend);
        let reader = StoreReader::from_bytes(workflow_store(&f, &cfg, 2).0).unwrap();
        let d = reader.meta().levels[0].dims;
        let roi = reader
            .read_roi(0, [0, 0, 0], [d.nx, d.ny, d.nz.min(8)], 0.0)
            .unwrap();
        assert_eq!(roi.dims().nz, d.nz.min(8), "{backend:?}");
    }
}

/// A server over the workflow's store answers like the bare reader, and a
/// warm pass is served from the cache without decoding anything.
#[test]
fn served_store_answers_cached_queries_identically() {
    let f = synth::nyx_like(32, 37);
    let mut cfg = WorkflowConfig::new(2e-3);
    cfg.roi = RoiConfig::new(8, 0.4);
    let (store, _) = workflow_store(&f, &cfg, 2);
    let oracle = StoreReader::from_bytes(store.clone()).unwrap();
    let reader = Arc::new(StoreReader::from_bytes(store).unwrap());
    let server = StoreServer::new(reader, UNBOUNDED);
    assert_eq!(server.meta(), oracle.meta());
    assert_eq!(server.read_all().unwrap(), oracle.read_all().unwrap());
    let before = server.reader().bytes_decoded();
    assert_eq!(server.read_all().unwrap(), oracle.read_all().unwrap());
    assert_eq!(
        server.reader().bytes_decoded(),
        before,
        "warm pass decodes nothing"
    );
    let st = server.stats();
    assert_eq!(st.requests, st.hits + st.misses);
    assert!(st.hits >= st.misses, "second pass was all hits");
}

/// Merge strategies are lossless layout transforms: identity round-trip
/// through compress/decompress at a tiny bound is value-stable.
#[test]
fn merges_are_structure_preserving() {
    let f = synth::rt_like(32, 12);
    let mr = to_amr(&f, &AmrConfig::new(8, vec![0.5, 0.5]));
    for merge in [
        MergeStrategy::Linear,
        MergeStrategy::Stack,
        MergeStrategy::Tac,
    ] {
        let cfg = MrcConfig {
            merge,
            ..MrcConfig::baseline(1e-6)
        };
        let (bytes, _) = compress_mr(&mr, &cfg);
        let back = decompress_mr(&bytes).unwrap();
        assert_eq!(back.levels[0].blocks.len(), mr.levels[0].blocks.len());
        for (a, b) in mr.levels[0].blocks.iter().zip(&back.levels[0].blocks) {
            assert_eq!(a.origin, b.origin, "{merge:?} reordered blocks");
        }
        assert!(stored_max_err(&mr, &back) <= 1e-6);
    }
}

/// Compressed streams survive serialization to disk and back.
#[test]
fn streams_are_self_describing_files() {
    let f = synth::s3d_like(32, 13);
    let mr = to_adaptive(&f, &RoiConfig::new(8, 0.5));
    let eb = f.range() as f64 * 1e-3;
    let (bytes, _) = compress_mr(&mr, &MrcConfig::ours(eb));
    let path = std::env::temp_dir().join("hqmr_integration_stream.bin");
    std::fs::write(&path, &bytes).unwrap();
    let loaded = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let back = decompress_mr(&loaded).unwrap();
    assert!(stored_max_err(&mr, &back) <= eb + 1e-9);
}

/// Degenerate inputs flow through the full pipeline without panicking.
#[test]
fn degenerate_inputs_handled() {
    // Constant field: everything compresses to almost nothing.
    let f = Field3::new(Dims3::cube(32), 7.5);
    let mr = to_adaptive(&f, &RoiConfig::new(8, 0.5));
    let (bytes, stats) = compress_mr(&mr, &MrcConfig::ours(1e-3));
    assert!(stats.ratio() > 50.0, "constant field CR {}", stats.ratio());
    let back = decompress_mr(&bytes).unwrap();
    assert!(stored_max_err(&mr, &back) <= 1e-3);
}
