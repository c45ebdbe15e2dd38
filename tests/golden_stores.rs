//! Golden-store format lock: committed `HQST` snapshots, `HQPR` parity
//! sidecars and `HQTM` temporal directories under `tests/golden/store/`,
//! written by the two-loop writer (separate keyframe and delta encoders)
//! these formats shipped with.
//!
//! The write path may be reorganised freely, but not one byte of what it
//! writes may move: today's `write_store_with_parity` and `TemporalWriter`
//! must reproduce every committed file, and today's readers must still read
//! the committed files to within the bound of the regenerated input.
//!
//! One snapshot per backend, and one four-frame run per merge strategy on
//! sz3 with a keyframe interval of 3 — so each run holds a forced keyframe,
//! delta frames and frames whose chunks mix both flags; `Stack`'s filler
//! slots and `Tac`'s several arrays per chunk group are where a residual or
//! a block↔chunk mapping derived differently would show.
//!
//! Regenerate (only when a format is *intentionally* changed) with:
//! `HQMR_BLESS_GOLDEN=1 cargo test --test golden_stores`

use hqmr::grid::{synth, Dims3, Field3};
use hqmr::mr::{resample_like, to_adaptive, MergeStrategy, MultiResData, PadKind, RoiConfig};
use hqmr::store::temporal::{Prediction, TemporalEncoder, TemporalReader};
use hqmr::store::{
    parity_path, write_store_with_parity, ParitySidecar, StoreConfig, StoreReader,
    DEFAULT_PARITY_GROUP,
};
use hqmr::workflow::mrc::{Backend, MrcConfig};
use hqmr::workflow::TemporalWriter;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const STEPS: usize = 4;
const PREDICTION: Prediction = Prediction::Delta {
    keyframe_interval: 3,
};

const ARRANGEMENTS: [(&str, MergeStrategy, Option<PadKind>); 3] = [
    ("linpad", MergeStrategy::Linear, Some(PadKind::Linear)),
    ("stack", MergeStrategy::Stack, None),
    ("tac", MergeStrategy::Tac, None),
];

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/store")
}

fn blessing() -> bool {
    std::env::var_os("HQMR_BLESS_GOLDEN").is_some()
}

/// The WarpX proxy drifting along the beam axis, poured into the block
/// layout ROI selection picked on step 0 — the in-situ shape of a run.
fn sequence() -> (Vec<MultiResData>, f64) {
    let base = synth::warpx_like(Dims3::cube(32), 18);
    let fields: Vec<Field3> = (0..STEPS)
        .map(|t| synth::advect_periodic(&base, [0.0, 0.0, 0.5 * t as f64]))
        .collect();
    let template = to_adaptive(&fields[0], &RoiConfig::new(8, 0.5));
    let eb = base.range() as f64 * 1e-3;
    let frames = fields.iter().map(|f| resample_like(&template, f)).collect();
    (frames, eb)
}

fn assert_within(want: &MultiResData, got: &MultiResData, eb: f64, what: &str) {
    assert!(
        hqmr::mr::structure_matches(want, got),
        "{what}: block structure"
    );
    for (wl, gl) in want.levels.iter().zip(&got.levels) {
        for (wb, gb) in wl.blocks.iter().zip(&gl.blocks) {
            for (w, g) in wb.data.iter().zip(&gb.data) {
                assert!(
                    (w - g).abs() as f64 <= eb * 1.0001,
                    "{what}: {g} vs {w} exceeds eb {eb}"
                );
            }
        }
    }
}

/// Holds `bytes` to the committed file at `path` (or writes it when
/// blessing).
fn check_fixture(path: &Path, bytes: &[u8]) {
    if blessing() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, bytes).unwrap();
        return;
    }
    let fixture =
        std::fs::read(path).unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
    assert!(
        bytes == fixture,
        "{}: {} bytes written, {} committed — no longer bit-identical to the committed format",
        path.display(),
        bytes.len(),
        fixture.len()
    );
}

fn dir_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().into_string().unwrap();
            (name, std::fs::read(e.path()).unwrap())
        })
        .collect()
}

#[test]
fn snapshots_match_committed_fixtures_for_every_backend() {
    let (frames, eb) = sequence();
    let mr = &frames[0];
    let cfg = StoreConfig::new(eb).with_chunk_blocks(4);
    assert_eq!(cfg.parity_group, DEFAULT_PARITY_GROUP);
    for backend in Backend::ALL {
        let name = backend.name();
        let codec = backend.codec();
        let store_path = fixture_dir().join(format!("snapshot_{name}.hqst"));
        let (store, parity) = write_store_with_parity(mr, &cfg, codec.as_ref());
        let parity = parity.expect("parity enabled by default");
        check_fixture(&store_path, &store);
        check_fixture(&parity_path(&store_path), &parity);

        // The snapshot is the one-frame series: a prediction-off encoder
        // writes the same file.
        let mut frame = Vec::new();
        let flags = TemporalEncoder::new(cfg, Prediction::Off)
            .encode_frame_into(mr, codec.as_ref(), &mut frame)
            .unwrap();
        assert!(flags.iter().flatten().all(|&d| !d), "{name}: all keyframe");
        check_fixture(&store_path, &frame);

        // The committed bytes, through today's readers.
        let reader = StoreReader::open(&store_path).unwrap();
        assert_eq!(reader.codec_name(), name);
        assert!(reader.meta().chunk_count() >= 8, "{name}: a chunked store");
        let bound = if backend == Backend::NULL { 0.0 } else { eb };
        assert_within(mr, &reader.read_all().unwrap(), bound, name);
        let sidecar =
            ParitySidecar::from_bytes(&std::fs::read(parity_path(&store_path)).unwrap()).unwrap();
        assert!(sidecar.matches(reader.meta()), "{name}: sidecar pairing");
        assert_eq!(sidecar.group_size(), DEFAULT_PARITY_GROUP);
    }
    assert!(
        !blessing(),
        "fixtures regenerated; rerun without HQMR_BLESS_GOLDEN"
    );
}

#[test]
fn temporal_runs_match_committed_fixtures_for_every_merge() {
    let (frames, eb) = sequence();
    for (aname, merge, pad) in ARRANGEMENTS {
        let cfg = MrcConfig {
            eb,
            merge,
            pad,
            backend: Backend::SZ3,
        };
        let golden = fixture_dir().join(format!("temporal_{aname}"));
        let fresh = std::env::temp_dir().join(format!("hqmr_golden_stores_{aname}"));
        let _ = std::fs::remove_dir_all(&fresh);
        let mut writer = TemporalWriter::create(&fresh, &cfg, PREDICTION).unwrap();
        let reports: Vec<_> = frames
            .iter()
            .enumerate()
            .map(|(t, mr)| writer.append(10 * t as u64, mr).unwrap())
            .collect();
        // What the run must exercise for the fixture to pin anything: a
        // forced keyframe behind delta frames, and a frame mixing flags.
        let deltas: Vec<usize> = reports.iter().map(|r| r.delta_chunks).collect();
        assert_eq!((deltas[0], deltas[3]), (0, 0), "{aname}: keyframes");
        assert!(deltas[1] > 0 && deltas[2] > 0, "{aname}: {deltas:?}");
        assert!(
            reports[1..3]
                .iter()
                .any(|r| r.delta_chunks < r.total_chunks),
            "{aname}: no frame mixes keyframe and delta chunks"
        );

        let written = dir_files(&fresh);
        assert_eq!(
            written.len(),
            1 + 2 * STEPS,
            "{aname}: manifest + frames + sidecars"
        );
        for (name, bytes) in &written {
            check_fixture(&golden.join(name), bytes);
        }
        assert_eq!(
            dir_files(&golden).keys().collect::<Vec<_>>(),
            written.keys().collect::<Vec<_>>(),
            "{aname}: committed file set"
        );
        let _ = std::fs::remove_dir_all(&fresh);

        // The committed directory, through today's reader and delta chains.
        let reader = TemporalReader::open(&golden).unwrap();
        assert_eq!(reader.frame_count(), STEPS);
        for (t, mr) in frames.iter().enumerate() {
            let what = format!("{aname} frame {t}");
            assert_within(mr, &reader.read_frame(t).unwrap(), eb, &what);
            assert_eq!(
                reader.manifest().frames[t].delta_chunks(),
                deltas[t],
                "{what}"
            );
        }
    }
    assert!(
        !blessing(),
        "fixtures regenerated; rerun without HQMR_BLESS_GOLDEN"
    );
}
