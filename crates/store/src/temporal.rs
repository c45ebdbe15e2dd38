//! `HQTM` — the multi-timestep temporal store: a directory of per-frame
//! `HQST` containers plus a manifest with per-chunk keyframe/delta flags.
//!
//! ```text
//! <dir>/manifest.hqtm          "HQTM" | version u8 | body_len u32le | body_crc u32le | body
//! <dir>/frame_00000.hqst       plain HQST store (frame 0)
//! <dir>/frame_00001.hqst       plain HQST store (frame 1): delta chunks hold
//! ...                          residuals against frame 0's *decoded* values
//! ```
//!
//! The manifest body lists, per frame, the simulation step, the frame file
//! name, and one bit per `(level, chunk)`: `1` means the chunk's stream is a
//! temporal **delta** (residual against the same chunk of the previous
//! frame), `0` means a **keyframe** chunk (independent raw values). Keeping
//! the flags in the manifest — not in the `HQST` chunk tables — means a
//! frame file with every flag `0` is *bit-identical* to what
//! `insitu::write_snapshot` writes for the same data, so delta-off temporal
//! stores are pinned to today's independent snapshots by construction.
//!
//! Prediction is **closed-loop**: the writer predicts from the *decoded*
//! previous frame, so the reader's reconstruction `x̂_t = x̂_{t−1} + r̂_t`
//! carries per-frame error ≤ eb with no drift along a delta chain. Each
//! chunk picks keyframe-vs-delta independently: a sampled plane of each
//! array, compressed both ways, names the candidate compressed in full; on
//! a close call, or an array too small to sample, both are compressed and
//! the smaller kept. The choice reads the frame and its base and nothing
//! else, so the base stays the encoder's whole state. Whole frames are
//! forced to keyframes on a configurable interval and whenever the block
//! structure changes, and frame 0 is always a keyframe — so every chunk
//! chain is seekable from its nearest keyframe.
//!
//! A frame is written by the store's one encode loop (crate docs); the
//! [`TemporalEncoder`] only decides whether the frame closes the loop and
//! which base, if any, residual candidates are taken against — the loop
//! builds each chunk group's residual inside that group's task, through the
//! same `prepare_blocks` as the group itself. The encoder's whole state is
//! the base: the previous frame as a plain `MultiResData`, exactly what
//! [`TemporalReader::read_frame`] returns for it. It is the encoder's *own
//! reconstruction* — each winning stream's
//! [`Codec::compress_with_recon`] output, cut into unit blocks by the
//! checked slot walk a reader's decode uses, delta chunks restored by the
//! same `r + p` chain walks apply — and nothing is decoded to obtain
//! it. That it equals a reader's reconstruction bit for bit is the codec
//! trait's contract, pinned by `tests/golden_stores.rs` (one drifting bit
//! in a base changes the next frame's bytes) and by the default-path
//! differential in `tests/temporal_props.rs` (a backend that can only
//! encode-then-decode writes the same run).
//! The encoder advances when it encodes; a file layer that then fails to
//! publish the frame must put it back
//! ([`TemporalEncoder::resume_from_decoded`]), as `TemporalWriter::append`
//! does.
//!
//! Delta chunks still record the chunk's **actual** value min/max in the
//! `HQST` chunk table (not the residual's), so isovalue chunk-skipping and
//! degraded-read proxy fills keep their semantics on a delta frame.
//!
//! Reading a run is split in two. [`TemporalReader`] opens and validates the
//! directory and reads whole frames uncached ([`TemporalReader::read_frame`]);
//! every other read — per level, per box, windowed, progressive — is
//! `hqmr-serve`'s `TemporalServer`.

use crate::format::{StoreError, StoreMeta};
use crate::read::{self, ChunkSource, DecodedChunk};
use crate::{encode_frame, hqst_into, Loop, StoreConfig, StoreReader};
use hqmr_codec::schema::{self, Layout, Seq, Str, Var, V64};
use hqmr_codec::{framed_head, framed_head_into, layout, Codec, Cur, Fault};
use hqmr_mr::{structure_matches, MultiResData};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Temporal manifest magic.
pub const TEMPORAL_MAGIC: &[u8; 4] = b"HQTM";
/// Current temporal manifest version.
pub const TEMPORAL_VERSION: u8 = 1;
/// Manifest file name inside a temporal store directory.
pub const MANIFEST_NAME: &str = "manifest.hqtm";

/// Inter-frame prediction policy of a temporal store writer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prediction {
    /// Every frame is an independent snapshot — frame files bit-identical
    /// to `write_snapshot` output.
    Off,
    /// Chunks may be temporal deltas against the previous frame's decoded
    /// values. Per chunk, a sampled plane picks raw or delta, compressing
    /// only that one; a close call or a small array compresses both and
    /// keeps the smaller.
    Delta {
        /// Every `keyframe_interval`-th frame is forced to a whole-frame
        /// keyframe (`0` ⇒ only frame 0 and structure changes force one).
        /// Bounds the chain length a cold random access must walk.
        keyframe_interval: usize,
    },
}

impl Prediction {
    /// The default delta policy: a whole-frame keyframe every 8 frames.
    pub fn delta() -> Self {
        Prediction::Delta {
            keyframe_interval: 8,
        }
    }
}

/// Per-frame `(level, chunk)` delta flags: `flags[level][chunk]` is `true`
/// for a temporal-delta chunk. An empty outer vec is the whole-frame
/// keyframe shorthand.
pub type FrameFlags = Vec<Vec<bool>>;

/// One frame's manifest entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameMeta {
    /// Simulation step this frame captured.
    pub step: u64,
    /// Frame file name within the store directory.
    pub file: String,
    /// Per-`(level, chunk)` delta flags (see [`FrameFlags`]).
    pub delta: FrameFlags,
}

impl FrameMeta {
    /// Whether every chunk of this frame is a keyframe chunk.
    pub fn is_keyframe(&self) -> bool {
        self.delta_chunks() == 0
    }

    /// Whether chunk `(level, chunk)` is a temporal delta. Out-of-range
    /// indices read as keyframe (`false`).
    pub fn is_delta(&self, level: usize, chunk: usize) -> bool {
        self.delta
            .get(level)
            .and_then(|l| l.get(chunk))
            .copied()
            .unwrap_or(false)
    }

    /// Number of delta chunks in this frame.
    pub fn delta_chunks(&self) -> usize {
        self.delta
            .iter()
            .map(|l| l.iter().filter(|&&d| d).count())
            .sum()
    }
}

/// The temporal store's directory: frame entries in time order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TemporalManifest {
    /// Frames, index = time.
    pub frames: Vec<FrameMeta>,
}

impl TemporalManifest {
    /// Serializes the framed manifest (prefix + CRC-guarded body).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let body = schema::encode::<ManifestL>(self);
        framed_head_into(&mut out, TEMPORAL_MAGIC, TEMPORAL_VERSION, &body);
        out
    }

    /// Parses and CRC-validates [`Self::to_bytes`] output.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        let (body, _) = framed_head(bytes, TEMPORAL_MAGIC, TEMPORAL_VERSION)?;
        Ok(schema::decode::<ManifestL>(body)?)
    }
}

layout!(struct ManifestL: TemporalManifest { frames: Seq<FrameL> });
layout!(struct FrameL: FrameMeta { step: V64, file: Str, delta: Seq<BitsL> });

/// One level's delta flags: the chunk count, then an LSB-first bitset.
struct BitsL;
impl Layout for BitsL {
    type T = Vec<bool>;
    const MIN: usize = 1;
    fn put(flags: &Vec<bool>, out: &mut Vec<u8>) {
        Var::put(&flags.len(), out);
        let mut bits = vec![0u8; flags.len().div_ceil(8)];
        for (i, _) in flags.iter().enumerate().filter(|(_, &d)| d) {
            bits[i / 8] |= 1 << (i % 8);
        }
        out.extend_from_slice(&bits);
    }
    fn get(c: &mut Cur<'_>) -> Result<Vec<bool>, Fault> {
        // The bitset is taken whole before a flag is built from it.
        let n = Var::get(c)?;
        let bits = c.take(n.div_ceil(8))?;
        Ok((0..n).map(|i| bits[i / 8] & (1 << (i % 8)) != 0).collect())
    }
}

/// Adds `residual` onto `prev`, producing the actual-value chunk in one pass
/// into its slab: each value is `r + p`, the float op of
/// [`hqmr_mr::temporal::restore_in_place`]. Errors if the two chunks
/// disagree structurally (a malformed chain).
pub fn apply_residual(
    prev: &DecodedChunk,
    residual: &DecodedChunk,
) -> Result<DecodedChunk, StoreError> {
    if prev.unit != residual.unit
        || prev.origins != residual.origins
        || prev.data.len() != residual.data.len()
    {
        return Err(StoreError::Malformed("temporal chain structure mismatch"));
    }
    // A zip of two slices has an exact length: the `Arc` slab is allocated
    // once and filled in place.
    let data: Arc<[f32]> = (residual.data.iter().zip(prev.data.iter()))
        .map(|(r, p)| r + p)
        .collect();
    Ok(DecodedChunk {
        unit: residual.unit,
        origins: Arc::clone(&residual.origins),
        data,
    })
}

/// Stateful frame encoder: feeds a sequence of [`MultiResData`] frames
/// through closed-loop temporal prediction and emits one `HQST` buffer per
/// frame plus its keyframe/delta flags. Purely in-memory — the crash-safe
/// file layer lives in `hqmr-core::insitu::TemporalWriter`.
pub struct TemporalEncoder {
    cfg: StoreConfig,
    prediction: Prediction,
    /// Frames encoded so far (the next frame's time index).
    frames: usize,
    /// The previous frame as a reader decodes it — what
    /// [`TemporalReader::read_frame`] would return for it, in the encoder's
    /// own block order — and so the base the next frame's residuals are taken
    /// against. `None` under [`Prediction::Off`], before frame 0, and after
    /// [`TemporalEncoder::resume_from_decoded`] was given no frame.
    prev: Option<MultiResData>,
}

impl TemporalEncoder {
    /// Creates an encoder writing chunks under `cfg` with `prediction`.
    pub fn new(cfg: StoreConfig, prediction: Prediction) -> Self {
        TemporalEncoder {
            cfg,
            prediction,
            frames: 0,
            prev: None,
        }
    }

    /// Encodes the next frame into `out` (cleared first) and returns its
    /// delta flags. Every frame goes through the store's one encode loop;
    /// what varies is whether residual candidates ride along. They do when
    /// prediction is on, no whole-frame keyframe is due, and the frame's
    /// block structure matches the base's ([`hqmr_mr::structure_matches`]) —
    /// otherwise the buffer is bit-identical to an independent snapshot of
    /// the same data (`write_store`, `write_snapshot`). An `Err` is the
    /// backend failing its own contract (it could not reconstruct what it
    /// wrote); the encoder has then not advanced.
    pub fn encode_frame_into(
        &mut self,
        mr: &MultiResData,
        codec: &dyn Codec,
        out: &mut Vec<u8>,
    ) -> Result<FrameFlags, StoreError> {
        let keyframe_due = match self.prediction {
            Prediction::Off => true,
            Prediction::Delta { keyframe_interval } => {
                self.frames == 0
                    || (keyframe_interval > 0 && self.frames.is_multiple_of(keyframe_interval))
            }
        };
        let base = self
            .prev
            .as_ref()
            .filter(|prev| !keyframe_due && structure_matches(prev, mr));
        let closed = match self.prediction {
            Prediction::Off => Loop::Open,
            Prediction::Delta { .. } => Loop::Closed(base),
        };
        let (flags, next) = hqst_into(encode_frame(mr, None, closed, &self.cfg, codec)?, out);
        // Closed loop: the frame as a reader will reconstruct it becomes the
        // next prediction base.
        if next.is_some() {
            self.prev = next;
        }
        self.frames += 1;
        Ok(flags)
    }

    /// Positions the encoder behind `frames` frames that a reader can
    /// reconstruct, with `decoded` — the last of them as
    /// [`TemporalReader::read_frame`] returns it, which is exactly the state
    /// an unbroken encoder would hold — as the prediction base. `frames`
    /// also keeps the keyframe-interval cadence aligned with the run.
    ///
    /// `None` positions it with no base: the next frame is encoded whole,
    /// as after a structure change. That is the state to fall back to
    /// whenever the frame the encoder last advanced past did not become
    /// readable (a failed publish) — a lost prediction costs bytes, a
    /// prediction from values no reader has breaks the bound.
    pub fn resume_from_decoded(&mut self, decoded: Option<MultiResData>, frames: usize) {
        self.frames = frames;
        self.prev =
            decoded.filter(|_| matches!(self.prediction, Prediction::Delta { .. }) && frames > 0);
    }
}

/// `(time, level, chunk)` — the unit of temporal chunk identity, shared
/// with the serving layer's time-keyed cache.
pub type TimeKey = (usize, usize, usize);

/// An opened, validated temporal store directory.
///
/// The reader is the run's uncached oracle: [`TemporalReader::read_frame`]
/// resolves every chunk's delta chain from scratch, which is what
/// `hqmr-core`'s `TemporalWriter` resumes from and what every cached read
/// is held to. Every other read of a run — one level, a box, a time window,
/// coarse→fine progressive refinement, degraded and parity-repaired reads —
/// is `hqmr-serve`'s `TemporalServer` over a shared reader, through its
/// `(time, level, chunk)` cache.
pub struct TemporalReader {
    dir: PathBuf,
    manifest: TemporalManifest,
    frames: Vec<StoreReader>,
}

impl TemporalReader {
    /// Opens a temporal store directory: parses the manifest, opens every
    /// frame store, and validates that the manifest's flag shapes match the
    /// frame directories and that frame 0 is a keyframe.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        let manifest = Self::read_manifest(&dir)?;
        let frames: Vec<StoreReader> = manifest
            .frames
            .iter()
            .map(|f| StoreReader::open(dir.join(&f.file)))
            .collect::<Result<_, _>>()?;
        for (t, (fm, r)) in manifest.frames.iter().zip(&frames).enumerate() {
            if t == 0 && !fm.is_keyframe() {
                return Err(StoreError::Malformed("frame 0 must be a keyframe"));
            }
            if fm.delta.is_empty() {
                continue;
            }
            let meta = r.meta();
            if fm.delta.len() != meta.levels.len()
                || fm
                    .delta
                    .iter()
                    .zip(&meta.levels)
                    .any(|(lf, lm)| lf.len() != lm.chunks.len())
            {
                return Err(StoreError::Malformed(
                    "manifest delta flags do not match frame chunk table",
                ));
            }
        }
        Ok(TemporalReader {
            dir,
            manifest,
            frames,
        })
    }

    /// Reads and parses just the manifest of a temporal store directory,
    /// without opening (or requiring the integrity of) any frame file —
    /// the entry point for scrub and salvage, which must make progress on
    /// directories whose frames `open` would reject.
    pub fn read_manifest(dir: impl AsRef<Path>) -> Result<TemporalManifest, StoreError> {
        let mpath = dir.as_ref().join(MANIFEST_NAME);
        let bytes = std::fs::read(&mpath).map_err(|source| StoreError::Open {
            path: mpath.clone(),
            source,
        })?;
        TemporalManifest::from_bytes(&bytes)
    }

    /// The store directory this reader was opened on.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The parsed manifest.
    pub fn manifest(&self) -> &TemporalManifest {
        &self.manifest
    }

    /// Number of frames.
    pub fn frame_count(&self) -> usize {
        self.frames.len()
    }

    /// The underlying per-frame store reader. Its chunk streams are
    /// residuals wherever the manifest flags a delta; actual values come
    /// from [`TemporalReader::read_frame`] or a serving layer.
    pub fn frame_reader(&self, t: usize) -> Result<&StoreReader, StoreError> {
        self.frames.get(t).ok_or(StoreError::NoSuchFrame(t))
    }

    /// Reads every level of frame `t` (actual values) — the temporal
    /// equivalent of `StoreReader::read_all`.
    pub fn read_frame(&self, t: usize) -> Result<MultiResData, StoreError> {
        self.frame_reader(t)?;
        read::read_all(&Frame { reader: self, t })
    }
}

/// Frame `t` of a [`TemporalReader`] as a [`ChunkSource`] of actual-value
/// chunks.
struct Frame<'a> {
    reader: &'a TemporalReader,
    t: usize,
}

impl ChunkSource for Frame<'_> {
    fn store_meta(&self) -> &StoreMeta {
        self.reader.frames[self.t].meta()
    }

    /// Walks the chunk's chain back to its nearest keyframe, then applies
    /// the residuals forward. A frame read asks for each `(level, chunk)`
    /// once, so no intermediate is worth keeping.
    fn chunk(&self, level: usize, block: usize) -> Result<DecodedChunk, StoreError> {
        let (flags, frames) = (&self.reader.manifest.frames, &self.reader.frames);
        let mut s = self.t;
        while flags[s].is_delta(level, block) {
            s = (s.checked_sub(1))
                .ok_or(StoreError::Malformed("delta chain has no keyframe root"))?;
        }
        let mut acc = frames[s].decode_chunk(level, block)?;
        for frame in &frames[s + 1..=self.t] {
            acc = apply_residual(&acc, &frame.decode_chunk(level, block)?)?;
        }
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hqmr_codec::NullCodec;
    use hqmr_grid::{Dims3, Field3};
    use hqmr_sz3::Sz3Codec;

    fn seq_field(n: usize, t: usize) -> Field3 {
        Field3::from_fn(Dims3::cube(n), |x, y, z| {
            ((x + 2 * y) as f32 * 0.1 + t as f32 * 0.5).sin() * 10.0 + (z as f32) * 0.02
        })
    }

    /// A frame-stable sequence: ROI selection runs on frame 0, later frames
    /// are poured into the same block structure (the in-situ usage).
    fn seq_frames(n: usize, steps: usize) -> Vec<MultiResData> {
        let template = hqmr_mr::to_adaptive(&seq_field(n, 0), &hqmr_mr::RoiConfig::new(8, 0.5));
        (0..steps)
            .map(|t| hqmr_mr::resample_like(&template, &seq_field(n, t)))
            .collect()
    }

    fn write_temporal(
        dir: &Path,
        frames: &[MultiResData],
        cfg: &StoreConfig,
        prediction: Prediction,
        codec: &dyn Codec,
    ) -> TemporalManifest {
        std::fs::create_dir_all(dir).unwrap();
        let mut enc = TemporalEncoder::new(*cfg, prediction);
        let mut manifest = TemporalManifest::default();
        let mut buf = Vec::new();
        for (t, mr) in frames.iter().enumerate() {
            let flags = enc.encode_frame_into(mr, codec, &mut buf).unwrap();
            let file = format!("frame_{t:05}.hqst");
            std::fs::write(dir.join(&file), &buf).unwrap();
            manifest.frames.push(FrameMeta {
                step: t as u64,
                file,
                delta: flags,
            });
        }
        std::fs::write(dir.join(MANIFEST_NAME), manifest.to_bytes()).unwrap();
        manifest
    }

    #[test]
    fn manifest_roundtrips_and_rejects_damage() {
        let m = TemporalManifest {
            frames: vec![
                FrameMeta {
                    step: 0,
                    file: "frame_00000.hqst".into(),
                    delta: vec![vec![false; 3], vec![false; 1]],
                },
                FrameMeta {
                    step: 7,
                    file: "frame_00001.hqst".into(),
                    delta: vec![vec![true, false, true], vec![true]],
                },
            ],
        };
        let bytes = m.to_bytes();
        assert_eq!(TemporalManifest::from_bytes(&bytes).unwrap(), m);
        assert!(matches!(
            TemporalManifest::from_bytes(&bytes[..5]),
            Err(StoreError::Truncated)
        ));
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            TemporalManifest::from_bytes(&bad),
            Err(StoreError::BadMagic)
        ));
        let mut bad = bytes.clone();
        let n = bad.len();
        bad[n - 1] ^= 0xFF;
        assert!(matches!(
            TemporalManifest::from_bytes(&bad),
            Err(StoreError::CorruptTable)
        ));
        assert!(m.frames[0].is_keyframe());
        assert!(!m.frames[1].is_keyframe());
        assert_eq!(m.frames[1].delta_chunks(), 3);
        assert!(m.frames[1].is_delta(0, 2));
        assert!(!m.frames[1].is_delta(0, 1));
        assert!(!m.frames[1].is_delta(9, 9), "out of range reads keyframe");
    }

    #[test]
    fn delta_chain_reconstructs_within_bound() {
        let frames = seq_frames(16, 5);
        let eb = 0.05;
        let cfg = StoreConfig::new(eb).with_chunk_blocks(2);
        let dir = std::env::temp_dir().join("hqmr_temporal_chain_test");
        std::fs::remove_dir_all(&dir).ok();
        write_temporal(
            &dir,
            &frames,
            &cfg,
            Prediction::delta(),
            &Sz3Codec::default(),
        );
        let tr = TemporalReader::open(&dir).unwrap();
        assert_eq!(tr.frame_count(), 5);
        // Some chunk beyond frame 0 must actually be a delta on this
        // correlated sequence.
        assert!(
            (1..5).any(|t| tr.manifest().frames[t].delta_chunks() > 0),
            "correlated frames should pick delta chunks"
        );
        for (t, mr) in frames.iter().enumerate() {
            let back = tr.read_frame(t).unwrap();
            assert_eq!(back.levels.len(), mr.levels.len());
            for (bl, ol) in back.levels.iter().zip(&mr.levels) {
                for (bb, ob) in bl.blocks.iter().zip(&ol.blocks) {
                    assert_eq!(bb.origin, ob.origin);
                    for (a, b) in bb.data.iter().zip(&ob.data) {
                        assert!(
                            (a - b).abs() as f64 <= eb * 1.0001,
                            "frame {t}: {a} vs {b} exceeds eb {eb}"
                        );
                    }
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn structure_change_forces_keyframe() {
        let mut frames = seq_frames(16, 3);
        // Frame 2 drops a block: structure changes, so it must be a keyframe.
        frames[2].levels[0].blocks.pop();
        let cfg = StoreConfig::new(0.02).with_chunk_blocks(2);
        let mut enc = TemporalEncoder::new(cfg, Prediction::delta());
        let mut buf = Vec::new();
        let mut per_frame = Vec::new();
        for mr in &frames {
            let flags = enc
                .encode_frame_into(mr, &Sz3Codec::default(), &mut buf)
                .unwrap();
            per_frame.push(flags.iter().flatten().filter(|&&d| d).count());
        }
        assert_eq!(per_frame[0], 0, "frame 0 is a keyframe");
        assert_eq!(per_frame[2], 0, "structure change forces keyframe");
    }

    #[test]
    fn a_block_of_the_wrong_length_is_a_typed_error() {
        let frames = seq_frames(16, 2);
        let cfg = StoreConfig::new(0.02).with_chunk_blocks(2);
        let codec = Sz3Codec::default();
        let mut enc = TemporalEncoder::new(cfg, Prediction::delta());
        let mut buf = Vec::new();
        let short = |mr: &MultiResData| {
            let mut mr = mr.clone();
            mr.levels[0].blocks[1].data.pop();
            mr
        };
        for (t, mr) in frames.iter().enumerate() {
            // Frame 0 is a keyframe; frame 1 has a base.
            let err = enc.encode_frame_into(&short(mr), &codec, &mut buf);
            assert!(matches!(err, Err(StoreError::Malformed(_))), "{t}: {err:?}");
            // The encoder has not advanced: the whole frame still encodes.
            let flags = enc.encode_frame_into(mr, &codec, &mut buf).unwrap();
            assert_eq!(flags.iter().flatten().any(|&d| d), t == 1);
        }
        let err = crate::encode_chunks(&short(&frames[0]), None, &cfg, &codec, false);
        assert!(matches!(err, Err(StoreError::Malformed(_))));
    }

    #[test]
    fn open_rejects_flag_shape_mismatch_and_delta_frame_zero() {
        let frames = seq_frames(16, 2);
        let cfg = StoreConfig::new(0.0).with_chunk_blocks(2);
        let dir = std::env::temp_dir().join("hqmr_temporal_badflags_test");
        std::fs::remove_dir_all(&dir).ok();
        let mut manifest = write_temporal(&dir, &frames, &cfg, Prediction::Off, &NullCodec);
        // Claim frame 0 has a delta chunk: must be rejected.
        manifest.frames[0].delta = vec![vec![true]];
        std::fs::write(dir.join(MANIFEST_NAME), manifest.to_bytes()).unwrap();
        assert!(matches!(
            TemporalReader::open(&dir),
            Err(StoreError::Malformed(_))
        ));
        // Wrong flag shape on frame 1: rejected too.
        manifest.frames[0].delta = Vec::new();
        manifest.frames[1].delta = vec![vec![false; 1]];
        std::fs::write(dir.join(MANIFEST_NAME), manifest.to_bytes()).unwrap();
        assert!(matches!(
            TemporalReader::open(&dir),
            Err(StoreError::Malformed(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
