//! The temporal writer's per-array choice between raw values and the
//! residual against the previous frame, held to the choice it replaces:
//!
//! * against a try-both oracle — every array compressed both ways, the
//!   smaller kept — a delta frame's data bytes stay within 1 % at slow,
//!   middling and fast advection on every lossy backend. The oracle is built
//!   from public APIs only: the previous frame as a reader returns it, the
//!   store's chunk groups, `prepare_blocks` and `compress_into`;
//! * the choice is a function of the frame and its base alone: the same run
//!   encoded twice, and a run on the scalar kernel arm, write the same
//!   bytes.
//!
//! The fields are cut at unit 16, so the fine level's arrays are large
//! enough to be sampled rather than tried both ways.

use hqmr::codec::kernels::{force_scalar, set_force_scalar};
use hqmr::grid::{synth, Dims3};
use hqmr::mr::prepare::prepare_blocks;
use hqmr::mr::{resample_like, temporal, to_adaptive, MultiResData, RoiConfig, UnitBlock};
use hqmr::store::temporal::{
    FrameFlags, FrameMeta, Prediction, TemporalEncoder, TemporalManifest, TemporalReader,
    MANIFEST_NAME,
};
use hqmr::store::StoreConfig;
use hqmr::workflow::mrc::{Backend, MrcConfig};
use std::path::PathBuf;

/// Frames per run: frame 0 is a keyframe, the rest may hold residuals.
const FRAMES: usize = 4;
/// Blocks per chunk group: four 16³ blocks make a 17 × 17 × 64 array.
const CHUNK_BLOCKS: usize = 4;
/// Advection speeds, cells per frame along the pulse axis: the residual
/// wins nearly everywhere at the slowest, the raw values mostly win at the
/// fastest.
const ADVECTION: [f64; 3] = [0.1, 0.5, 1.3];
const BACKENDS: [Backend; 3] = [Backend::SZ3_PAPER, Backend::SZ2, Backend::ZFP];

/// The WarpX proxy moving along `z` by `advection` cells per frame, poured
/// into the ROI layout chosen on frame 0, and its error bound (1e-3 of
/// frame 0's range).
fn run(advection: f64) -> (Vec<MultiResData>, f64) {
    let base = synth::warpx_like(Dims3::new(32, 32, 128), 20240917);
    let template = to_adaptive(&base, &RoiConfig::new(16, 0.5));
    let frames = (0..FRAMES)
        .map(|t| {
            let f = synth::advect_periodic(&base, [0.0, 0.0, advection * t as f64]);
            resample_like(&template, &f)
        })
        .collect();
    (frames, base.range() as f64 * 1e-3)
}

fn store_config(backend: Backend, eb: f64) -> StoreConfig {
    MrcConfig::ours(eb)
        .with_backend(backend)
        .store_config(CHUNK_BLOCKS)
}

/// Every frame of a run as the encoder writes it, with its delta flags.
fn encode_run(frames: &[MultiResData], backend: Backend, eb: f64) -> Vec<(Vec<u8>, FrameFlags)> {
    let codec = backend.codec();
    let mut enc = TemporalEncoder::new(store_config(backend, eb), Prediction::delta());
    (frames.iter())
        .map(|mr| {
            let mut buf = Vec::new();
            let flags = enc.encode_frame_into(mr, codec.as_ref(), &mut buf).unwrap();
            (buf, flags)
        })
        .collect()
}

/// Lays an encoded run out as a temporal store directory and opens it.
fn open_run(name: &str, run: &[(Vec<u8>, FrameFlags)]) -> (PathBuf, TemporalReader) {
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut manifest = TemporalManifest::default();
    for (t, (buf, flags)) in run.iter().enumerate() {
        let file = format!("frame_{t:05}.hqst");
        std::fs::write(dir.join(&file), buf).unwrap();
        manifest.frames.push(FrameMeta {
            step: t as u64,
            file,
            delta: flags.clone(),
        });
    }
    std::fs::write(dir.join(MANIFEST_NAME), manifest.to_bytes()).unwrap();
    let reader = TemporalReader::open(&dir).unwrap();
    (dir, reader)
}

/// The bytes frame `cur` takes if every array of every chunk group is
/// compressed both raw and as its residual against `prev`, the smaller kept.
fn try_both_bytes(cur: &MultiResData, prev: &MultiResData, cfg: &StoreConfig, b: Backend) -> usize {
    let codec = b.codec();
    let mut total = 0;
    for (lc, lp) in cur.levels.iter().zip(&prev.levels) {
        let groups = lc.blocks.chunks(cfg.chunk_blocks);
        for (gc, gp) in groups.zip(lp.blocks.chunks(cfg.chunk_blocks)) {
            let residual: Vec<UnitBlock> = (gc.iter().zip(gp))
                .map(|(c, p)| UnitBlock {
                    origin: c.origin,
                    data: temporal::residual(&c.data, &p.data),
                })
                .collect();
            let raw = prepare_blocks(gc, lc.unit, cfg.merge, cfg.pad);
            let delta = prepare_blocks(&residual, lc.unit, cfg.merge, cfg.pad);
            for (r, d) in raw.fields().zip(delta.fields()) {
                let (mut rs, mut ds) = (Vec::new(), Vec::new());
                codec.compress_into(r, cfg.eb, &mut rs);
                codec.compress_into(d, cfg.eb, &mut ds);
                total += rs.len().min(ds.len());
            }
        }
    }
    total
}

#[test]
fn delta_frames_stay_within_one_percent_of_trying_both() {
    for advection in ADVECTION {
        let (frames, eb) = run(advection);
        for backend in BACKENDS {
            let scfg = store_config(backend, eb);
            let name = format!("hqmr_tchoice_{}_{advection}", backend.name());
            let (dir, reader) = open_run(&name, &encode_run(&frames, backend, eb));
            let (mut written, mut oracle) = (0, 0);
            for (t, cur) in frames.iter().enumerate().skip(1) {
                let meta = reader.frame_reader(t).unwrap().meta();
                // The fine level's arrays are large enough to be sampled.
                let d = meta.levels[0].chunks[0].enc_dims;
                assert!(d.nx.min(d.ny).min(d.nz) >= 16, "{d}");
                written += (meta.levels.iter().flat_map(|l| &l.chunks))
                    .map(|c| c.len)
                    .sum::<usize>();
                let prev = reader.read_frame(t - 1).unwrap();
                oracle += try_both_bytes(cur, &prev, &scfg, backend);
            }
            let excess = written as f64 / oracle as f64 - 1.0;
            assert!(
                excess <= 0.01,
                "{} at {advection} cells/frame: {written} bytes against \
                 try-both's {oracle} ({:+.2} %)",
                backend.name(),
                excess * 100.0
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn the_choice_depends_on_the_data_alone() {
    let (frames, eb) = run(1.3);
    for backend in BACKENDS {
        let first = encode_run(&frames, backend, eb);
        assert_eq!(first, encode_run(&frames, backend, eb), "{backend:?}");
        // The sampled sizes must not depend on the kernel arm. The switch is
        // process-wide; the other test here writes the same bytes on either
        // arm, so it may run meanwhile.
        let was = force_scalar();
        set_force_scalar(true);
        let scalar = encode_run(&frames, backend, eb);
        set_force_scalar(was);
        assert_eq!(first, scalar, "{backend:?}: scalar arm");
    }
}
