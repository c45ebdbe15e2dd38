//! Self-healing properties of the parity/scrub subsystem:
//!
//! * a single bit-flip in **any** chunk of a store heals back to the
//!   byte-identical pristine file via `scrub_store`;
//! * at the default group size the sidecar costs at most 15 % of the
//!   compressed bytes once the store has enough chunks to fill its groups;
//! * two corrupt chunks in one parity group are a *typed* loss
//!   (`unrepairable` names exactly the casualties), never a panic or a
//!   silent wrong answer;
//! * `TemporalWriter::salvage` of a torn run keeps exactly the unbroken
//!   prefix, reports the casualties, and a resumed run converges
//!   byte-identically with a run that never crashed;
//! * arbitrarily truncated or bit-flipped sidecar and manifest bytes
//!   always parse to a typed error — hostile input cannot panic the
//!   decoder.

use hqmr::grid::{synth, Dims3};
use hqmr::mr::{resample_like, to_adaptive, RoiConfig};
use hqmr::store::temporal::{Prediction, TemporalManifest, TemporalReader};
use hqmr::store::{
    parity_path, parse_head, scrub_store, write_store_with_parity, ParitySidecar, SidecarStatus,
    StoreConfig, DEFAULT_PARITY_GROUP,
};
use hqmr::sz3::Sz3Codec;
use hqmr::workflow::mrc::MrcConfig;
use hqmr::workflow::TemporalWriter;
use proptest::prelude::*;
use std::path::PathBuf;

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A store + sidecar byte pair over a small synthetic field.
fn store_pair(group: usize) -> (Vec<u8>, Vec<u8>) {
    store_pair_sized(16, group)
}

/// [`store_pair`] over an `n³` field.
fn store_pair_sized(n: usize, group: usize) -> (Vec<u8>, Vec<u8>) {
    let f = synth::nyx_like(n, 511);
    let mr = to_adaptive(&f, &RoiConfig::new(8, 0.5));
    let cfg = StoreConfig::new(1e-3)
        .with_chunk_blocks(2)
        .with_parity_group(group);
    let (store, parity) = write_store_with_parity(&mr, &cfg, &Sz3Codec::default());
    (store, parity.expect("parity enabled"))
}

/// Byte offset (within the whole store buffer) of one payload byte of
/// chunk `(level, block)`.
fn chunk_byte(store: &[u8], level: usize, block: usize) -> usize {
    let (meta, data_start) = parse_head(store).unwrap();
    let c = &meta.levels[level].chunks[block];
    assert!(c.len > 0);
    data_start as usize + c.offset as usize
}

/// Single-flip healing, exhaustively over every chunk: whichever chunk
/// rots, the scrub repairs it bit-exactly and leaves the file identical to
/// the pristine store.
#[test]
fn single_flip_in_any_chunk_heals_byte_identical() {
    let (pristine, parity) = store_pair(8);
    let (meta, _) = parse_head(&pristine).unwrap();
    let dir = fresh_dir("hqmr_scrubprops_single");
    let path = dir.join("s.hqst");
    std::fs::write(parity_path(&path), &parity).unwrap();

    for (level, lm) in meta.levels.iter().enumerate() {
        for block in 0..lm.chunks.len() {
            let mut rotted = pristine.clone();
            rotted[chunk_byte(&pristine, level, block)] ^= 0x01;
            std::fs::write(&path, &rotted).unwrap();

            let report = scrub_store(&path, None).unwrap();
            assert_eq!(
                (report.repaired, report.unrepairable.len()),
                (1, 0),
                "chunk ({level}, {block}) must repair"
            );
            assert!(report.all_exact());
            assert_eq!(report.sidecar, SidecarStatus::Present);
            assert_eq!(
                std::fs::read(&path).unwrap(),
                pristine,
                "healed store must be byte-identical to the pristine one"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// One parity block per group is as long as the group's longest chunk, so
/// redundancy costs about `1/group` of the compressed bytes — held here to
/// the 15 % budget at the default group size, on a store with enough chunks
/// (a handful of partial groups would dominate a smaller one).
#[test]
fn parity_overhead_is_within_budget_at_the_default_group() {
    let (store, parity) = store_pair_sized(32, DEFAULT_PARITY_GROUP);
    let (meta, _) = parse_head(&store).unwrap();
    assert!(meta.chunk_count() >= 32, "{} chunks", meta.chunk_count());
    let overhead = parity.len() as f64 / meta.compressed_bytes() as f64;
    assert!(
        overhead <= 0.15,
        "sidecar is {:.1} % of {} compressed bytes in {} chunks",
        overhead * 100.0,
        meta.compressed_bytes(),
        meta.chunk_count()
    );
}

/// Two corrupt chunks in the same XOR group exceed the redundancy: the
/// scrub must report exactly those two as unrepairable — typed loss, not a
/// wrong answer — and leave the undamaged chunks verified.
#[test]
fn double_flip_in_one_group_is_typed_unrepairable() {
    let (pristine, parity) = store_pair(8);
    let (meta, _) = parse_head(&pristine).unwrap();
    let total: usize = meta.levels.iter().map(|l| l.chunks.len()).sum();
    assert!(total >= 2, "need at least two chunks in the first group");

    // Flat chunks 0 and 1 share a group at any group size >= 2.
    let victims = [(0, 0), (0, 1)];
    let mut rotted = pristine.clone();
    for &(l, b) in &victims {
        rotted[chunk_byte(&pristine, l, b)] ^= 0x80;
    }
    let dir = fresh_dir("hqmr_scrubprops_double");
    let path = dir.join("s.hqst");
    std::fs::write(&path, &rotted).unwrap();
    std::fs::write(parity_path(&path), &parity).unwrap();

    let report = scrub_store(&path, None).unwrap();
    assert_eq!(report.repaired, 0);
    assert_eq!(report.unrepairable, victims.to_vec());
    assert!(!report.all_exact());
    assert_eq!(report.verified, total - victims.len());
    // The casualties stay on disk untouched — no destructive "repair".
    assert_eq!(std::fs::read(&path).unwrap(), rotted);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Torn-run salvage: truncate one frame mid-file (the crash shape the
/// manifest ordering cannot rule out) and salvage must (1) keep exactly
/// the unbroken prefix, (2) report the dropped tail by name, and (3) hand
/// back a writer whose resumed appends converge byte-identically with a
/// run that never crashed.
#[test]
fn salvage_keeps_prefix_and_resume_matches_unbroken_run() {
    const STEPS: usize = 6;
    const TORN: usize = 4;
    let frames = synth::advected_sequence(Dims3::cube(16), STEPS, [0.5, 0.25, 0.0], 77);
    let template = to_adaptive(&frames[0], &RoiConfig::new(8, 0.5));
    let mrs: Vec<_> = frames.iter().map(|f| resample_like(&template, f)).collect();
    let cfg = MrcConfig::baseline(0.02);

    // The unbroken control run.
    let dir_a = fresh_dir("hqmr_scrubprops_salvage_a");
    let mut wa = TemporalWriter::create(&dir_a, &cfg, Prediction::delta()).unwrap();
    for (t, mr) in mrs.iter().enumerate() {
        wa.append(t as u64, mr).unwrap();
    }

    // The crashed run: identical, then frame TORN is torn in half.
    let dir_b = fresh_dir("hqmr_scrubprops_salvage_b");
    let mut wb = TemporalWriter::create(&dir_b, &cfg, Prediction::delta()).unwrap();
    for (t, mr) in mrs.iter().enumerate() {
        wb.append(t as u64, mr).unwrap();
    }
    drop(wb);
    let manifest = TemporalReader::read_manifest(&dir_b).unwrap();
    let torn_file = manifest.frames[TORN].file.clone();
    let torn_path = dir_b.join(&torn_file);
    let full = std::fs::read(&torn_path).unwrap();
    std::fs::write(&torn_path, &full[..full.len() / 2]).unwrap();

    let (mut writer, report) = TemporalWriter::salvage(&dir_b, &cfg, Prediction::delta()).unwrap();
    assert_eq!(report.kept, TORN);
    let dropped: Vec<String> = manifest.frames[TORN..]
        .iter()
        .map(|fm| fm.file.clone())
        .collect();
    assert_eq!(report.dropped, dropped, "typed casualty list");
    // The republished manifest names exactly the unbroken prefix.
    let salvaged = TemporalReader::read_manifest(&dir_b).unwrap();
    assert_eq!(salvaged.frames.len(), TORN);

    // Resume where the crash cut: the run must converge with the control.
    for (t, mr) in mrs.iter().enumerate().skip(TORN) {
        writer.append(t as u64, mr).unwrap();
    }
    drop(writer);
    let ra = TemporalReader::open(&dir_a).unwrap();
    let rb = TemporalReader::open(&dir_b).unwrap();
    assert_eq!(rb.frame_count(), STEPS);
    for t in 0..STEPS {
        assert_eq!(
            ra.read_frame(t).unwrap(),
            rb.read_frame(t).unwrap(),
            "frame {t}: salvaged+resumed run must decode identically"
        );
    }
    // Stronger: the resumed frame files are byte-identical to the control's
    // (closed-loop encoder state was reconstructed bit-exactly).
    let ma = TemporalReader::read_manifest(&dir_a).unwrap();
    let mb = TemporalReader::read_manifest(&dir_b).unwrap();
    for (fa, fb) in ma.frames.iter().zip(&mb.frames) {
        assert_eq!(
            std::fs::read(dir_a.join(&fa.file)).unwrap(),
            std::fs::read(dir_b.join(&fb.file)).unwrap(),
            "{}: resumed frame bytes must match the unbroken run",
            fb.file
        );
    }
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

/// Salvage also heals single-chunk rot inside the kept prefix instead of
/// dropping the frame: the sidecar is there for exactly this.
#[test]
fn salvage_heals_flipped_chunk_in_kept_prefix() {
    const STEPS: usize = 3;
    let frames = synth::advected_sequence(Dims3::cube(16), STEPS, [0.5, 0.25, 0.0], 78);
    let template = to_adaptive(&frames[0], &RoiConfig::new(8, 0.5));
    let cfg = MrcConfig::baseline(0.02);
    let dir = fresh_dir("hqmr_scrubprops_salvage_heal");
    let mut w = TemporalWriter::create(&dir, &cfg, Prediction::delta()).unwrap();
    for (t, f) in frames.iter().enumerate() {
        w.append(t as u64, &resample_like(&template, f)).unwrap();
    }
    drop(w);

    let manifest = TemporalReader::read_manifest(&dir).unwrap();
    let victim = dir.join(&manifest.frames[1].file);
    let mut bytes = std::fs::read(&victim).unwrap();
    let at = chunk_byte(&bytes, 0, 0);
    bytes[at] ^= 0x04;
    std::fs::write(&victim, &bytes).unwrap();

    let (_writer, report) = TemporalWriter::salvage(&dir, &cfg, Prediction::delta()).unwrap();
    assert_eq!(report.kept, STEPS, "a healable flip must not cost a frame");
    assert_eq!(report.repaired_chunks, 1);
    assert!(report.dropped.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Truncated sidecar bytes always parse to a typed error.
    #[test]
    fn truncated_sidecar_is_typed(cut in 1usize..4096) {
        let (_, parity) = store_pair(4);
        let keep = parity.len().saturating_sub(1 + cut % parity.len());
        prop_assert!(ParitySidecar::from_bytes(&parity[..keep]).is_err());
    }

    /// Bit-flipped sidecar bytes never panic: they parse to a typed error
    /// or to a sidecar (a flip inside a parity payload is caught later by
    /// the per-group CRC at reconstruction time).
    #[test]
    fn flipped_sidecar_never_panics(at in any::<usize>(), bit in 0u8..8) {
        let (_, parity) = store_pair(4);
        let mut bytes = parity.clone();
        let i = at % bytes.len();
        bytes[i] ^= 1 << bit;
        let _ = ParitySidecar::from_bytes(&bytes);
    }

    /// Truncated manifest bytes always parse to a typed error.
    #[test]
    fn truncated_manifest_is_typed(cut in 1usize..4096) {
        let bytes = TemporalManifest::default().to_bytes();
        let keep = bytes.len().saturating_sub(1 + cut % bytes.len());
        prop_assert!(TemporalManifest::from_bytes(&bytes[..keep]).is_err());
    }

    /// Bit-flipped manifest bytes never panic and — thanks to the body
    /// CRC — essentially always fail typed.
    #[test]
    fn flipped_manifest_never_panics(at in any::<usize>(), bit in 0u8..8) {
        let mut bytes = TemporalManifest::default().to_bytes();
        let i = at % bytes.len();
        bytes[i] ^= 1 << bit;
        let _ = TemporalManifest::from_bytes(&bytes);
    }
}
