//! In-situ output pipeline with stage timings (Table IV).
//!
//! Table IV splits a simulation snapshot's output time into (1) pre-processing
//! — collecting unit blocks into the compression buffer (merging, padding;
//! AMRIC's stacking does more data rearrangement than our linear merge) —
//! and (2) compression + writing to the file system. [`write_snapshot`] runs
//! both stages through the block-indexed `hqmr-store` container (the same
//! pre-processing code as the offline path), so the file it writes is a
//! complete, seekable store: a post-hoc reader can pull one coarse level, an
//! ROI, or a progressive refinement out of the snapshot without decompressing
//! the rest — any [`crate::Backend`] works.

use crate::mrc::MrcConfig;
use hqmr_codec::Codec;
use hqmr_mr::MultiResData;
use hqmr_store::temporal::{
    FrameMeta, Prediction, TemporalEncoder, TemporalManifest, TemporalReader, MANIFEST_NAME,
};
use hqmr_store::{
    encode_prepared_store_into, parity_path, prepare_store, scrub_store, sidecar_bytes_for,
    write_atomic, DEFAULT_CHUNK_BLOCKS,
};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Wall-clock seconds per pipeline stage.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTimings {
    /// Merge + pad: filling the compression buffer.
    pub preprocess: f64,
    /// Codec compression and writing the stream to disk.
    pub compress_write: f64,
}

impl StageTimings {
    /// Total output time.
    pub fn total(&self) -> f64 {
        self.preprocess + self.compress_write
    }
}

/// Compresses `mr` under `cfg` into a block-indexed store file at `path`,
/// timing the two stages separately. Returns the timings and the bytes
/// written. The file is a complete `hqmr-store` container —
/// [`hqmr_store::StoreReader::open`] serves level, ROI, and progressive
/// reads from it directly.
///
/// The write is crash-safe ([`hqmr_store::write_atomic`]): a crash (or full
/// disk) at any point leaves either the previous snapshot or no file — never
/// a half-written container that a later reader would have to reject.
pub fn write_snapshot(
    mr: &MultiResData,
    cfg: &MrcConfig,
    path: impl AsRef<Path>,
) -> std::io::Result<(StageTimings, u64)> {
    let mut timings = StageTimings::default();
    let scfg = cfg.store_config(DEFAULT_CHUNK_BLOCKS);

    // Stage 1: pre-process (group + merge + pad) every level into buffers.
    let t0 = Instant::now();
    let prepared = prepare_store(mr, &scfg);
    timings.preprocess = t0.elapsed().as_secs_f64();

    // Stage 2: compress each chunk and write the container atomically.
    let t1 = Instant::now();
    let codec = cfg.backend.codec();
    let mut bytes = Vec::new();
    encode_prepared_store_into(mr, &prepared, &scfg, codec.as_ref(), &mut bytes);
    publish_store(path.as_ref(), &bytes, scfg.parity_group)?;
    timings.compress_write = t1.elapsed().as_secs_f64();

    Ok((timings, bytes.len() as u64))
}

/// Durably publishes a complete store buffer at `store`, then publishes (or
/// retires) the `.hqpr` parity sidecar next to it. The store is renamed into
/// place *first*: a crash in the window between the two renames leaves a new
/// store with a stale sidecar, which the sidecar's store-tag detects as a
/// typed mismatch and the next scrub rebuilds — never a silent mis-repair,
/// and never a lost store.
fn publish_store(store: &Path, bytes: &[u8], parity_group: usize) -> std::io::Result<()> {
    write_atomic(store, bytes)?;
    let spath = parity_path(store);
    match sidecar_bytes_for(bytes, parity_group) {
        Some(sc) => write_atomic(&spath, &sc),
        // Parity disabled: a sidecar left over from an earlier
        // parity-enabled write of this path would mismatch forever.
        None => match std::fs::remove_file(&spath) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        },
    }
}

/// Per-frame report of a [`TemporalWriter::append`].
#[derive(Debug, Clone, PartialEq)]
pub struct FrameReport {
    /// Time index of the frame within the store (0-based).
    pub index: usize,
    /// Frame file name within the store directory.
    pub file: String,
    /// Compressed frame size on disk.
    pub bytes: u64,
    /// Chunks stored as temporal deltas.
    pub delta_chunks: usize,
    /// Total chunks in the frame.
    pub total_chunks: usize,
    /// Wall-clock seconds spent encoding + writing the frame.
    pub seconds: f64,
}

/// Streaming writer for a temporal (`HQTM`) store directory — the in-situ
/// shape of the pipeline: the simulation calls [`TemporalWriter::append`]
/// once per timestep, each frame lands as its own crash-safe `HQST` file,
/// and the manifest is atomically rewritten after the frame file exists.
///
/// Crash safety is ordering: frame file, then its sidecar, then the
/// manifest, each through [`hqmr_store::write_atomic`]. A crash at any point
/// leaves a manifest that references only complete frame files — the store
/// stays openable with every frame it had before the crash.
pub struct TemporalWriter {
    dir: PathBuf,
    codec: Box<dyn Codec>,
    enc: TemporalEncoder,
    manifest: TemporalManifest,
    buf: Vec<u8>,
    parity_group: usize,
}

impl TemporalWriter {
    /// Creates (or truncates) a temporal store directory for streaming
    /// appends under `cfg`'s merge/pad/eb/backend.
    pub fn create(
        dir: impl AsRef<Path>,
        cfg: &MrcConfig,
        prediction: Prediction,
    ) -> std::io::Result<Self> {
        std::fs::create_dir_all(&dir)?;
        Self::behind(dir.as_ref(), cfg, prediction, TemporalManifest::default())
    }

    /// Publishes `manifest` in `dir` and returns the writer positioned
    /// behind its last frame — the one place a writer is built, for a fresh
    /// run (no frames) and a salvaged one alike. The closed-loop encoder is
    /// seeded from the last frame *as decoded from disk*: exactly the state
    /// an unbroken run would hold, so appends predict (and number keyframe
    /// intervals) as if the run had never stopped.
    fn behind(
        dir: &Path,
        cfg: &MrcConfig,
        prediction: Prediction,
        manifest: TemporalManifest,
    ) -> std::io::Result<Self> {
        write_atomic(&dir.join(MANIFEST_NAME), &manifest.to_bytes())?;
        let scfg = cfg.store_config(DEFAULT_CHUNK_BLOCKS);
        let mut enc = TemporalEncoder::new(scfg, prediction);
        if let Some(last) = manifest.frames.len().checked_sub(1) {
            let decoded = TemporalReader::open(dir)
                .and_then(|r| r.read_frame(last))
                .map_err(std::io::Error::other)?;
            enc.resume_from_decoded(Some(decoded), last + 1);
        }
        Ok(TemporalWriter {
            dir: dir.to_path_buf(),
            codec: cfg.backend.codec(),
            enc,
            manifest,
            buf: Vec::new(),
            parity_group: scfg.parity_group,
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Frames appended so far.
    pub fn frames(&self) -> usize {
        self.manifest.frames.len()
    }

    /// Encodes and durably writes the next frame (simulation step `step`),
    /// then atomically republishes the manifest.
    ///
    /// On an error the frame is not part of the run, on disk or in this
    /// writer: the manifest still ends where it did, and the encoder — which
    /// advanced past the frame when it encoded it — is put back behind the
    /// last *published* frame with no prediction base. A product that was
    /// not recorded cannot be an input of the next step: residuals against
    /// the unpublished frame would decode, CRC-clean, to values outside the
    /// bound. The next append therefore writes a whole keyframe under the
    /// same index (overwriting whatever the failed one left) — a lost
    /// prediction costs bytes, never correctness.
    pub fn append(&mut self, step: u64, mr: &MultiResData) -> std::io::Result<FrameReport> {
        let index = self.manifest.frames.len();
        let report = self.encode_and_publish(index, step, mr);
        if report.is_err() {
            self.manifest.frames.truncate(index);
            self.enc.resume_from_decoded(None, index);
        }
        report
    }

    fn encode_and_publish(
        &mut self,
        index: usize,
        step: u64,
        mr: &MultiResData,
    ) -> std::io::Result<FrameReport> {
        let t0 = Instant::now();
        let flags = self
            .enc
            .encode_frame_into(mr, self.codec.as_ref(), &mut self.buf)
            .map_err(std::io::Error::other)?;
        let file = format!("frame_{index:05}.hqst");
        publish_store(&self.dir.join(&file), &self.buf, self.parity_group)?;
        let frame = FrameMeta {
            step,
            file: file.clone(),
            delta: flags,
        };
        let delta_chunks = frame.delta_chunks();
        let total_chunks = frame.delta.iter().map(Vec::len).sum();
        self.manifest.frames.push(frame);
        write_atomic(&self.dir.join(MANIFEST_NAME), &self.manifest.to_bytes())?;
        Ok(FrameReport {
            index,
            file,
            bytes: self.buf.len() as u64,
            delta_chunks,
            total_chunks,
            seconds: t0.elapsed().as_secs_f64(),
        })
    }

    /// Recovers a torn temporal run — a crash anywhere in the append cycle
    /// — and returns a writer positioned to resume it, plus a typed report
    /// of what survived.
    ///
    /// The crash-safe append ordering (frame file, sidecar, then manifest)
    /// means the manifest only ever names complete frames, so salvage is
    /// prefix recovery: every manifest-listed frame is verified chunk by
    /// chunk (healing single flips from its parity sidecar where possible),
    /// the longest fully exact prefix is kept, and the manifest is
    /// atomically republished to exactly that prefix. Frames behind the
    /// first unrepairable one are dropped even if intact on disk — delta
    /// chains cross frames, so the unbroken prefix is the recoverable unit.
    /// Orphan `frame_*.hqst` files the manifest never adopted lost their
    /// delta flags with the unwritten manifest and cannot be decoded; they
    /// are reported and left on disk to be overwritten as the run resumes.
    /// Staging `*.tmp` leftovers are swept.
    ///
    /// The returned writer's closed-loop encoder is reseeded from the
    /// *decoded* last kept frame — exactly the state an unbroken run would
    /// hold — so resumed appends predict (and number keyframe intervals)
    /// as if the crash never happened.
    pub fn salvage(
        dir: impl AsRef<Path>,
        cfg: &MrcConfig,
        prediction: Prediction,
    ) -> std::io::Result<(TemporalWriter, SalvageReport)> {
        let dir = dir.as_ref();
        let manifest = TemporalReader::read_manifest(dir).map_err(std::io::Error::other)?;
        let mut report = SalvageReport::default();

        // Longest exact prefix of the manifest, healing what parity can.
        let mut kept = 0usize;
        for fm in &manifest.frames {
            match scrub_store(&dir.join(&fm.file), None) {
                Ok(r) if r.all_exact() => {
                    report.repaired_chunks += r.repaired;
                    kept += 1;
                }
                _ => break,
            }
        }
        report.kept = kept;
        report.dropped = manifest.frames[kept..]
            .iter()
            .map(|f| f.file.clone())
            .collect();

        // Sweep staging leftovers; spot frame files the manifest never listed.
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".tmp") {
                std::fs::remove_file(entry.path())?;
                report.temps_removed += 1;
            } else if name.starts_with("frame_")
                && name.ends_with(".hqst")
                && !manifest.frames.iter().any(|f| f.file == name)
            {
                report.orphans.push(name);
            }
        }
        report.orphans.sort();

        // Republish the manifest as exactly the verified prefix.
        let manifest = TemporalManifest {
            frames: manifest.frames[..kept].to_vec(),
        };
        Ok((Self::behind(dir, cfg, prediction, manifest)?, report))
    }
}

/// What [`TemporalWriter::salvage`] found and kept of a torn run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SalvageReport {
    /// Complete frames kept — the republished manifest lists exactly these.
    pub kept: usize,
    /// Chunks healed from parity sidecars while verifying the kept prefix.
    pub repaired_chunks: usize,
    /// Manifest-listed frame files dropped: the first was damaged beyond
    /// parity repair (or torn), the rest were stranded behind it.
    pub dropped: Vec<String>,
    /// Frame files on disk the manifest never adopted; undecodable (their
    /// delta flags died with the unwritten manifest) but left in place.
    pub orphans: Vec<String>,
    /// Staging `*.tmp` leftovers removed.
    pub temps_removed: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mrc::Backend;
    use hqmr_grid::synth;
    use hqmr_mr::{to_amr, AmrConfig};
    use hqmr_store::StoreReader;

    #[test]
    fn snapshot_writes_and_times() {
        let f = synth::nyx_like(32, 5);
        let mr = to_amr(&f, &AmrConfig::new(8, vec![0.25, 0.75]));
        let path = std::env::temp_dir().join("hqmr_insitu_test.bin");
        let (t, bytes) = write_snapshot(&mr, &MrcConfig::ours(1e6), &path).unwrap();
        let on_disk = std::fs::metadata(&path).unwrap().len();
        std::fs::remove_file(&path).ok();
        assert_eq!(bytes, on_disk);
        assert!(bytes > 0);
        assert!(t.preprocess >= 0.0 && t.compress_write > 0.0);
        assert!(t.total() >= t.compress_write);
    }

    #[test]
    fn snapshot_is_a_seekable_store_for_every_backend() {
        let f = synth::nyx_like(32, 6);
        let mr = to_amr(&f, &AmrConfig::new(8, vec![0.25, 0.75]));
        let path = std::env::temp_dir().join("hqmr_insitu_roundtrip.bin");
        for backend in Backend::ALL {
            let cfg = MrcConfig::ours_pad(1e6).with_backend(backend);
            write_snapshot(&mr, &cfg, &path).unwrap();
            let reader = StoreReader::open(&path).expect("snapshot must parse");
            assert_eq!(reader.codec_name(), backend.name());
            let back = reader.read_all().expect("snapshot must decode");
            assert_eq!(back.domain, mr.domain);
            assert_eq!(back.levels.len(), mr.levels.len());
            // Random access: one coarse level decodes only its own chunks.
            reader.reset_counters();
            let coarse = reader.read_level(1).unwrap();
            assert_eq!(coarse.blocks.len(), mr.levels[1].blocks.len());
            assert_eq!(
                reader.bytes_decoded(),
                reader.meta().levels[1].compressed_bytes()
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_replaces_atomically_and_leaves_no_temp() {
        let f = synth::nyx_like(32, 7);
        let mr = to_amr(&f, &AmrConfig::new(8, vec![0.25, 0.75]));
        let dir = std::env::temp_dir().join("hqmr_insitu_atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.bin");
        // Seed the destination with garbage an aborted write must not
        // corrupt into view, then overwrite it with a real snapshot.
        std::fs::write(&path, b"not a store").unwrap();
        write_snapshot(&mr, &MrcConfig::ours(1e6), &path).unwrap();
        StoreReader::open(&path).expect("replacement is a complete store");
        // No staging files left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "staging temp not cleaned up");
        // A write to an impossible destination fails without touching the
        // existing snapshot.
        let before = std::fs::read(&path).unwrap();
        let bad = dir.join("no_such_dir").join("snap.bin");
        assert!(write_snapshot(&mr, &MrcConfig::ours(1e6), &bad).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), before);
        // Concurrent threads snapshotting the *same* path stage into
        // distinct temp files (pid + per-process counter): every write
        // succeeds, the survivor is one complete store, nothing leaks.
        let expect = std::fs::read(&path).unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| write_snapshot(&mr, &MrcConfig::ours(1e6), &path).unwrap());
            }
        });
        assert_eq!(
            std::fs::read(&path).unwrap(),
            expect,
            "racing writers of identical content must leave identical bytes"
        );
        StoreReader::open(&path).expect("post-race file is a complete store");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "racing writers leaked staging files");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn temporal_writer_streams_frames_and_keeps_manifest_consistent() {
        use hqmr_mr::{resample_like, to_adaptive, RoiConfig};
        use hqmr_store::temporal::{Prediction, TemporalReader};

        let fields: Vec<_> = (0..4)
            .map(|t| synth::warpx_like(hqmr_grid::Dims3::cube(32), 3 + t as u64))
            .collect();
        let template = to_adaptive(&fields[0], &RoiConfig::new(8, 0.5));
        let dir = std::env::temp_dir().join("hqmr_insitu_temporal");
        std::fs::remove_dir_all(&dir).ok();
        let cfg = MrcConfig::ours(1e-3);
        let mut w = TemporalWriter::create(&dir, &cfg, Prediction::delta()).unwrap();
        for (t, f) in fields.iter().enumerate() {
            let mr = resample_like(&template, f);
            let rep = w.append(t as u64 * 10, &mr).unwrap();
            assert_eq!(rep.index, t);
            assert!(rep.bytes > 0 && rep.total_chunks > 0);
            // After every append the directory is a complete, openable
            // store referencing only fully written frames — the crash-safe
            // invariant (frame file lands before the manifest names it).
            let r = TemporalReader::open(&dir).unwrap();
            assert_eq!(r.frame_count(), t + 1);
            assert_eq!(r.manifest().frames[t].step, t as u64 * 10);
        }
        assert_eq!(w.frames(), 4);
        drop(w);
        // A crash mid-publish strands a staging file of `write_atomic`'s one
        // name shape; salvage sweeps it and keeps every published frame.
        let stranded = format!("frame_00004.hqst.{}.0.tmp", std::process::id());
        std::fs::write(dir.join(&stranded), b"torn").unwrap();
        let (w, report) = TemporalWriter::salvage(&dir, &cfg, Prediction::delta()).unwrap();
        assert_eq!((report.kept, report.temps_removed), (4, 1));
        assert_eq!(w.frames(), 4);
        assert!(!dir.join(&stranded).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_refuses_a_block_of_the_wrong_length() {
        use hqmr_mr::{to_adaptive, RoiConfig};
        use hqmr_store::temporal::Prediction;

        let mr = to_adaptive(
            &synth::warpx_like(hqmr_grid::Dims3::cube(32), 3),
            &RoiConfig::new(8, 0.5),
        );
        let mut short = mr.clone();
        short.levels[0].blocks[0].data.pop();
        let dir = std::env::temp_dir().join("hqmr_insitu_short_block");
        std::fs::remove_dir_all(&dir).ok();
        let mut w =
            TemporalWriter::create(&dir, &MrcConfig::ours(1e-3), Prediction::delta()).unwrap();
        for t in 0..2 {
            assert!(w.append(t, &short).is_err(), "frame {t}");
            assert_eq!(w.append(t, &mr).unwrap().index, t as usize);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn preprocess_stage_is_minor_next_to_compression() {
        // Table IV's structure: pre-processing (merge/pad) is cheap relative
        // to compression + writing, for both our linear merge and AMRIC's
        // stacking. (The *relative* linear-vs-stack comparison is a bench —
        // `tables tab04` — not a unit test: micro timings are too noisy.)
        let f = synth::nyx_like(64, 6);
        let mr = to_amr(&f, &AmrConfig::nyx_t1());
        let path = std::env::temp_dir().join("hqmr_insitu_cmp.bin");
        // Warm-up to fault in pages and allocators.
        write_snapshot(&mr, &MrcConfig::ours(1e6), &path).unwrap();
        let (lin, _) = write_snapshot(&mr, &MrcConfig::ours(1e6), &path).unwrap();
        let (stk, _) = write_snapshot(&mr, &MrcConfig::amric(1e6), &path).unwrap();
        std::fs::remove_file(&path).ok();
        for t in [lin, stk] {
            assert!(
                t.preprocess < t.compress_write,
                "preprocess {} should be under compress+write {}",
                t.preprocess,
                t.compress_write
            );
        }
    }
}
