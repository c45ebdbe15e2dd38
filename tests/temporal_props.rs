//! Temporal-store properties, run over every codec backend:
//!
//! * with prediction **off**, each frame file of an `HQTM` directory is
//!   byte-identical to the independent snapshot `write_snapshot` would have
//!   produced for the same timestep — the temporal container is a strict
//!   superset of the snapshot path, not a fork of it;
//! * with prediction **on**, the serving layer — per frame, per time window
//!   and through progressive refinement — returns the same bytes as the
//!   reader's uncached `read_frame` at any cache budget;
//! * a publish that fails — at the frame, its sidecar or the manifest —
//!   leaves the writer behind the last frame a reader can see: whatever is
//!   appended next, every frame on disk stays within the bound. (The run
//!   that never fails is `golden_stores`: byte-identical to the committed
//!   directories.)
//! * a codec that hands out its encoder's reconstruction and one that only
//!   has the trait's default (encode, then decode) write the same run.

use hqmr::codec::{Codec, CodecError};
use hqmr::grid::{synth, Dims3, Field3};
use hqmr::mr::{
    resample_like, to_adaptive, MergeStrategy, MultiResData, PadKind, RoiConfig, Upsample,
};
use hqmr::serve::TemporalServer;
use hqmr::store::temporal::{Prediction, TemporalEncoder, TemporalReader, MANIFEST_NAME};
use hqmr::store::{StoreConfig, StoreReader};
use hqmr::workflow::mrc::{Backend, MrcConfig};
use hqmr::workflow::{write_snapshot, TemporalWriter};
use std::path::PathBuf;
use std::sync::Arc;

const STEPS: usize = 4;

/// A small advected sequence poured into a frame-stable block layout.
fn sequence() -> Vec<MultiResData> {
    let frames = synth::advected_sequence(Dims3::cube(16), STEPS, [0.5, 0.25, 0.0], 21);
    let template = to_adaptive(&frames[0], &RoiConfig::new(8, 0.5));
    frames.iter().map(|f| resample_like(&template, f)).collect()
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(backend: Backend) -> MrcConfig {
    // eb relative to the unit-variance GRF's typical range.
    MrcConfig::baseline(0.02).with_backend(backend)
}

#[test]
fn prediction_off_frames_are_bit_identical_to_independent_snapshots() {
    let mrs = sequence();
    for backend in Backend::ALL {
        let cfg = config(backend);
        let dir = fresh_dir(&format!("hqmr_tprops_off_{}", backend.name()));
        let mut writer = TemporalWriter::create(&dir, &cfg, Prediction::Off).unwrap();
        for (t, mr) in mrs.iter().enumerate() {
            let rep = writer.append(t as u64, mr).unwrap();
            assert_eq!(rep.delta_chunks, 0, "{backend:?}: prediction off");

            let snap = dir.join(format!("snap_{t}.bin"));
            write_snapshot(mr, &cfg, &snap).unwrap();
            let independent = std::fs::read(&snap).unwrap();
            let temporal = std::fs::read(dir.join(&rep.file)).unwrap();
            assert_eq!(
                temporal, independent,
                "{backend:?} frame {t}: delta-off frame must be byte-identical \
                 to an independent snapshot"
            );
            std::fs::remove_file(&snap).unwrap();
        }
        // The directory (with the snapshots removed) still opens and serves.
        let reader = TemporalReader::open(&dir).unwrap();
        assert_eq!(reader.frame_count(), STEPS);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Cache budgets the server is held to its oracle at: off, a few chunks,
/// never evicting.
const BUDGETS: [usize; 3] = [0, 4096, usize::MAX];

/// Writes `sequence()` as a delta-predicted run under `backend` and opens it.
fn delta_run(backend: Backend, name: &str) -> (PathBuf, Arc<TemporalReader>) {
    let dir = fresh_dir(&format!("hqmr_tprops_{name}_{}", backend.name()));
    let mut writer = TemporalWriter::create(&dir, &config(backend), Prediction::delta()).unwrap();
    for (t, mr) in sequence().iter().enumerate() {
        writer.append(t as u64, mr).unwrap();
    }
    let reader = Arc::new(TemporalReader::open(&dir).unwrap());
    (dir, reader)
}

/// The reader's uncached `read_frame` for every frame, and the crop of
/// each frame's level 0 to `[lo, hi)`, uncovered cells at `fill`.
fn oracle_and_crops(
    reader: &TemporalReader,
    lo: [usize; 3],
    hi: [usize; 3],
    fill: f32,
) -> (Vec<MultiResData>, Vec<Field3>) {
    let size = Dims3::new(hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2]);
    let oracle: Vec<MultiResData> = (0..STEPS).map(|t| reader.read_frame(t).unwrap()).collect();
    let crops = (oracle.iter())
        .map(|mr| mr.levels[0].to_field(fill).extract_box(lo, size))
        .collect();
    (oracle, crops)
}

/// A windowed ROI through the server equals the server's per-frame ROI
/// reads and the per-frame crops of the reader's `read_frame`; a window
/// starting mid-chain, on a cold cache, re-derives the same bytes from the
/// nearest keyframe.
#[test]
fn window_roi_equals_per_frame_roi_for_every_backend() {
    let (lo, hi, fill) = ([2, 2, 2], [14, 14, 10], -7.5);
    for backend in Backend::ALL {
        let (dir, reader) = delta_run(backend, "win");
        let (_, crops) = oracle_and_crops(&reader, lo, hi, fill);

        let cold = TemporalServer::new(Arc::clone(&reader), usize::MAX);
        let tail = cold.read_roi_window(1, STEPS - 1, 0, lo, hi, fill);
        assert_eq!(tail.unwrap(), crops[1..], "{backend:?}: mid-chain window");

        let server = TemporalServer::new(Arc::clone(&reader), usize::MAX);
        let window = server.read_roi_window(0, STEPS - 1, 0, lo, hi, fill);
        let per_frame: Vec<Field3> = (0..STEPS)
            .map(|t| server.read_roi(t, 0, lo, hi, fill).unwrap())
            .collect();
        assert_eq!(
            window.unwrap(),
            per_frame,
            "{backend:?}: windowed ROI must equal per-frame ROI reads"
        );
        assert_eq!(per_frame, crops, "{backend:?}: per-frame ROI vs read_frame");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The server is a run's one read API and the reader's uncached
/// `read_frame` its oracle: at every cache budget a frame read through the
/// cache equals the oracle's, and a windowed ROI — from frame 0, and from
/// mid-chain — equals the per-frame crops of the oracle's level.
#[test]
fn serve_layer_matches_bare_reader_at_every_cache_budget() {
    let (lo, hi, fill) = ([0, 0, 0], [16, 16, 8], 0.0);
    for backend in Backend::ALL {
        let (dir, reader) = delta_run(backend, "serve");
        let (oracle, crops) = oracle_and_crops(&reader, lo, hi, fill);
        for budget in BUDGETS {
            let what = format!("{backend:?} budget {budget}");
            let server = TemporalServer::new(Arc::clone(&reader), budget);
            let tail = server.read_roi_window(1, STEPS - 1, 0, lo, hi, fill);
            assert_eq!(tail.unwrap(), crops[1..], "{what}: mid-chain window");
            let window = server.read_roi_window(0, STEPS - 1, 0, lo, hi, fill);
            assert_eq!(window.unwrap(), crops, "{what}: window");
            for (t, want) in oracle.iter().enumerate() {
                assert_eq!(server.read_frame(t).unwrap(), *want, "{what}: frame {t}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Progressive refinement resolves delta chains: the last frame of a
/// predicted run, refined coarse→fine through the server, ends bit for bit
/// at the oracle frame's reconstruction under both upsampling schemes.
#[test]
fn server_progressive_refines_through_delta_chains_for_every_backend() {
    let t = STEPS - 1;
    for backend in Backend::ALL {
        let (dir, reader) = delta_run(backend, "progressive");
        // Null stores raw floats: a residual never beats them, and ties go raw.
        assert!(
            backend == Backend::NULL || reader.manifest().frames[t].delta_chunks() > 0,
            "{backend:?}: frame {t} predicts"
        );
        let oracle = reader.read_frame(t).unwrap();
        for budget in BUDGETS {
            let server = TemporalServer::new(Arc::clone(&reader), budget);
            for scheme in [Upsample::Nearest, Upsample::Trilinear] {
                let frame = server.frame(t).unwrap();
                let steps: Vec<_> = frame.progressive(scheme).collect::<Result<_, _>>().unwrap();
                assert_eq!(
                    steps.last().unwrap().field,
                    oracle.reconstruct(scheme),
                    "{backend:?} budget {budget} {scheme:?}"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The closed loop may only predict from frames that were published. One
/// publish of step 1 is made to fail (a non-empty directory squatting on the
/// target makes the rename fail on any platform); the run then goes on with
/// the next timesteps, and every frame a reader finds must hold the bound —
/// residuals taken against the unpublished step 1 would decode, CRC-clean,
/// to values nowhere near it.
#[test]
fn failed_publish_does_not_advance_the_closed_loop() {
    let mrs = sequence();
    for backend in Backend::ALL {
        let cfg = config(backend);
        for target in ["frame_00001.hqst", "frame_00001.hqpr", MANIFEST_NAME] {
            let what = format!("{backend:?}, failing {target}");
            let dir = fresh_dir(&format!("hqmr_tprops_fail_{}_{target}", backend.name()));
            let mut writer = TemporalWriter::create(&dir, &cfg, Prediction::delta()).unwrap();
            writer.append(0, &mrs[0]).unwrap();

            let target = dir.join(target);
            let published = std::fs::read(&target).ok(); // the manifest exists already
            if published.is_some() {
                std::fs::remove_file(&target).unwrap();
            }
            std::fs::create_dir_all(target.join("squatter")).unwrap();
            assert!(writer.append(1, &mrs[1]).is_err(), "{what}");
            assert_eq!(
                writer.frames(),
                1,
                "{what}: the frame is not part of the run"
            );
            std::fs::remove_dir_all(&target).unwrap();
            if let Some(bytes) = published {
                std::fs::write(&target, bytes).unwrap();
            }

            let steps = [0, 2, 3];
            for &step in &steps[1..] {
                let rep = writer.append(step as u64, &mrs[step]).unwrap();
                assert_eq!(rep.index, writer.frames() - 1, "{what}");
            }
            drop(writer);

            let reader = TemporalReader::open(&dir).unwrap();
            assert_eq!(reader.frame_count(), steps.len(), "{what}");
            for (t, &step) in steps.iter().enumerate() {
                assert_eq!(reader.manifest().frames[t].step, step as u64, "{what}");
                let back = reader.read_frame(t).unwrap();
                for (bl, ol) in back.levels.iter().zip(&mrs[step].levels) {
                    for (bb, ob) in bl.blocks.iter().zip(&ol.blocks) {
                        assert_eq!(bb.origin, ob.origin, "{what}");
                        for (b, o) in bb.data.iter().zip(&ob.data) {
                            assert!(
                                (b - o).abs() as f64 <= cfg.eb * 1.0001,
                                "{what}: frame {t} (step {step}) reads {b} for {o}"
                            );
                        }
                    }
                }
            }
            assert!(
                reader.manifest().frames[1].is_keyframe(),
                "{what}: no base survived the failure, so a whole keyframe follows it"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// A backend reduced to the trait's required methods: every provided one —
/// above all `compress_with_recon`, whose default body decodes what it has
/// just encoded — runs as written in the trait.
struct RequiredOnly(Box<dyn Codec>);

impl Codec for RequiredOnly {
    fn id(&self) -> u32 {
        self.0.id()
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn compress_into(&self, field: &Field3, eb: f64, out: &mut Vec<u8>) {
        self.0.compress_into(field, eb, out)
    }
    fn decompress_into(&self, bytes: &[u8], out: &mut Field3) -> Result<(), CodecError> {
        self.0.decompress_into(bytes, out)
    }
}

/// The closed loop's base is the encoder's own reconstruction where a
/// backend hands one out, a decode of the fresh stream where it does not;
/// the two must be the same run. Six frames, byte for byte and flag for
/// flag, for every backend and arrangement — across a structure change
/// (frame 2 on has one block fewer), a forced keyframe (frame 4) and a
/// resume from a frame decoded off its buffer (before frame 5).
#[test]
fn default_reconstruction_path_writes_the_same_run_as_the_overrides() {
    let fields = synth::advected_sequence(Dims3::cube(32), 6, [0.5, 0.25, 0.0], 21);
    let template = to_adaptive(&fields[0], &RoiConfig::new(8, 0.5));
    let mut frames: Vec<MultiResData> = (fields.iter())
        .map(|f| resample_like(&template, f))
        .collect();
    for mr in &mut frames[2..] {
        mr.levels[0].blocks.pop();
    }
    let arrangements = [
        (MergeStrategy::Linear, Some(PadKind::Linear)),
        (MergeStrategy::Stack, None),
        (MergeStrategy::Tac, None),
    ];
    for backend in Backend::ALL {
        for (merge, pad) in arrangements {
            let what = format!("{backend:?} {merge:?}");
            let cfg = StoreConfig {
                merge,
                pad,
                ..StoreConfig::new(0.02).with_chunk_blocks(6)
            };
            let prediction = Prediction::Delta {
                keyframe_interval: 4,
            };
            let codecs: [Box<dyn Codec>; 2] =
                [backend.codec(), Box::new(RequiredOnly(backend.codec()))];
            let mut encoders = [(); 2].map(|_| TemporalEncoder::new(cfg, prediction));
            let mut bufs = [Vec::new(), Vec::new()];
            let mut deltas = Vec::new();
            for (t, mr) in frames.iter().enumerate() {
                if t == 5 {
                    let decoded = StoreReader::from_bytes(bufs[0].clone())
                        .and_then(|r| r.read_all())
                        .expect("frame 4 is a keyframe and reads on its own");
                    for enc in &mut encoders {
                        enc.resume_from_decoded(Some(decoded.clone()), 5);
                    }
                }
                let flags: Vec<_> = (0..2)
                    .map(|k| {
                        encoders[k]
                            .encode_frame_into(mr, codecs[k].as_ref(), &mut bufs[k])
                            .unwrap_or_else(|e| panic!("{what} frame {t}: {e}"))
                    })
                    .collect();
                assert_eq!(flags[0], flags[1], "{what} frame {t}: flags");
                assert!(bufs[0] == bufs[1], "{what} frame {t}: bytes");
                deltas.push(flags[0].iter().flatten().filter(|&&d| d).count());
            }
            for t in [0, 2, 4] {
                assert_eq!(deltas[t], 0, "{what}: frame {t} is a keyframe");
            }
            if backend == Backend::SZ3 {
                for t in [1, 3, 5] {
                    assert!(deltas[t] > 0, "{what}: frame {t} predicts ({deltas:?})");
                }
            }
        }
    }
}
