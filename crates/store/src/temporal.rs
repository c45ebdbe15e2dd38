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
//! chunk picks keyframe-vs-delta independently (whichever compresses
//! smaller), whole frames are forced to keyframes on a configurable
//! interval and whenever the block structure changes, and frame 0 is always
//! a keyframe — so every chunk chain is seekable from its nearest keyframe.
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
//! `restore_in_place` chain walks use — and nothing is decoded to obtain
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
//! proxy fills through a [`FrameView`] keep their semantics.

use crate::format::{StoreError, StoreMeta};
use crate::read::{self, ChunkSource, DecodedChunk, Progressive};
use crate::{encode_frame, hqst_into, Loop, StoreConfig, StoreReader};
use hqmr_codec::{framed_head, framed_head_into, write_uvarint, Codec, Cur};
use hqmr_grid::Field3;
use hqmr_mr::{structure_matches, temporal as predict, LevelData, MultiResData, Upsample};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

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
    /// values; whichever of raw/delta compresses smaller wins per chunk.
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
        let mut body = Vec::new();
        write_uvarint(&mut body, self.frames.len() as u64);
        for f in &self.frames {
            write_uvarint(&mut body, f.step);
            write_uvarint(&mut body, f.file.len() as u64);
            body.extend_from_slice(f.file.as_bytes());
            write_uvarint(&mut body, f.delta.len() as u64);
            for level in &f.delta {
                write_uvarint(&mut body, level.len() as u64);
                // LSB-first bitset.
                let mut bits = vec![0u8; level.len().div_ceil(8)];
                for (i, &d) in level.iter().enumerate() {
                    if d {
                        bits[i / 8] |= 1 << (i % 8);
                    }
                }
                body.extend_from_slice(&bits);
            }
        }
        let mut out = Vec::new();
        framed_head_into(&mut out, TEMPORAL_MAGIC, TEMPORAL_VERSION, &body);
        out
    }

    /// Parses and CRC-validates [`Self::to_bytes`] output.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        let (body, _) = framed_head(bytes, TEMPORAL_MAGIC, TEMPORAL_VERSION)?;
        let mut c = Cur::new(body);
        // Smallest frame: step, name length, level count.
        let n_frames = c.count(3)?;
        let mut frames = Vec::with_capacity(n_frames);
        for _ in 0..n_frames {
            let step = c.uvarint()?;
            let file = c.str()?.to_string();
            let n_levels = c.count(1)?;
            let mut delta = Vec::with_capacity(n_levels);
            for _ in 0..n_levels {
                // LSB-first bitset, taken whole before a flag is built from it.
                let n_chunks = c.usize()?;
                let bits = c.take(n_chunks.div_ceil(8))?;
                delta.push(
                    (0..n_chunks)
                        .map(|i| bits[i / 8] & (1 << (i % 8)) != 0)
                        .collect(),
                );
            }
            frames.push(FrameMeta { step, file, delta });
        }
        c.done()?;
        Ok(TemporalManifest { frames })
    }
}

/// Adds `residual` onto `prev`, producing the actual-value chunk. Errors if
/// the two chunks disagree structurally (a malformed chain).
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
    let mut data: Vec<f32> = residual.data.to_vec();
    predict::restore_in_place(&mut data, &prev.data);
    Ok(DecodedChunk {
        unit: residual.unit,
        origins: Arc::clone(&residual.origins),
        data: data.into(),
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

/// Memo of actual-value chunks shared along chain walks (and across the
/// frames of a window read), so decoding frames `t0..=t1` touches each
/// underlying chunk once instead of once per frame.
type ChainMemo = Mutex<HashMap<TimeKey, DecodedChunk>>;

/// Random-access reader over a temporal store directory.
///
/// Every per-frame read funnels through a [`FrameView`] — a [`ChunkSource`]
/// whose `chunk` walks the delta chain back to the chunk's nearest keyframe
/// — so level, ROI, isovalue and progressive reads all come from the same
/// provider-generic assembly the single-frame store uses.
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

    /// Whether the store holds no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// The underlying per-frame store reader (chunk streams are residuals
    /// for delta chunks — use [`TemporalReader::frame`] for actual values).
    pub fn frame_reader(&self, t: usize) -> Result<&StoreReader, StoreError> {
        self.frames.get(t).ok_or(StoreError::NoSuchFrame(t))
    }

    /// An actual-value view of frame `t`, with a fresh chain memo.
    pub fn frame(&self, t: usize) -> Result<FrameView<'_>, StoreError> {
        if t >= self.frames.len() {
            return Err(StoreError::NoSuchFrame(t));
        }
        Ok(FrameView {
            reader: self,
            t,
            memo: Arc::new(Mutex::new(HashMap::new())),
        })
    }

    /// Chain walk with memoization: finds the nearest memoized state or
    /// keyframe at `s ≤ t`, then applies residuals forward `s+1..=t`,
    /// memoizing every intermediate so overlapping walks (a window read, a
    /// progressive refinement) decode each underlying chunk once.
    fn chunk_chain(
        &self,
        memo: &ChainMemo,
        t: usize,
        level: usize,
        block: usize,
    ) -> Result<DecodedChunk, StoreError> {
        if t >= self.frames.len() {
            return Err(StoreError::NoSuchFrame(t));
        }
        // Walk back to a memo hit or a keyframe chunk.
        let mut s = t;
        let mut acc: Option<DecodedChunk> = None;
        loop {
            if let Some(c) = memo
                .lock()
                .expect("chain memo lock")
                .get(&(s, level, block))
            {
                acc = Some(c.clone());
                break;
            }
            if !self.manifest.frames[s].is_delta(level, block) {
                break; // keyframe chunk at s
            }
            if s == 0 {
                return Err(StoreError::Malformed("delta chain has no keyframe root"));
            }
            s -= 1;
        }
        let mut acc = match acc {
            Some(c) => c,
            None => {
                let c = self.frames[s].decode_chunk(level, block)?;
                memo.lock()
                    .expect("chain memo lock")
                    .insert((s, level, block), c.clone());
                c
            }
        };
        for u in s + 1..=t {
            let residual = self.frames[u].decode_chunk(level, block)?;
            acc = apply_residual(&acc, &residual)?;
            memo.lock()
                .expect("chain memo lock")
                .insert((u, level, block), acc.clone());
        }
        Ok(acc)
    }

    /// Reads one whole resolution level of frame `t` (actual values).
    pub fn read_level(&self, t: usize, level: usize) -> Result<LevelData, StoreError> {
        read::read_level(&self.frame(t)?, level)
    }

    /// Reads every level of frame `t` — the temporal equivalent of
    /// `StoreReader::read_all`.
    pub fn read_frame(&self, t: usize) -> Result<MultiResData, StoreError> {
        read::read_all(&self.frame(t)?)
    }

    /// Reads the axis-aligned box `[lo, hi)` of one level at time `t`.
    pub fn read_roi(
        &self,
        t: usize,
        level: usize,
        lo: [usize; 3],
        hi: [usize; 3],
        fill: f32,
    ) -> Result<Field3, StoreError> {
        read::read_roi(&self.frame(t)?, level, lo, hi, fill)
    }

    /// Time-windowed ROI: the same box read at every frame of `t0..=t1`,
    /// one field per frame. The frames share one chain memo, so each
    /// underlying chunk along the window's chains decodes exactly once —
    /// equal results to calling [`TemporalReader::read_roi`] per frame, at
    /// a fraction of the decode work.
    pub fn read_roi_window(
        &self,
        t0: usize,
        t1: usize,
        level: usize,
        lo: [usize; 3],
        hi: [usize; 3],
        fill: f32,
    ) -> Result<Vec<Field3>, StoreError> {
        if t0 > t1 {
            return Err(StoreError::Malformed("empty time window"));
        }
        if t1 >= self.frames.len() {
            return Err(StoreError::NoSuchFrame(t1));
        }
        let memo = Arc::new(Mutex::new(HashMap::new()));
        (t0..=t1)
            .map(|t| {
                let view = FrameView {
                    reader: self,
                    t,
                    memo: Arc::clone(&memo),
                };
                read::read_roi(&view, level, lo, hi, fill)
            })
            .collect()
    }
}

/// One frame of a [`TemporalReader`], viewed as a [`ChunkSource`] of
/// actual-value chunks: `chunk` transparently walks the delta chain. All of
/// the provider-generic reads (level, ROI, isovalue skip, progressive)
/// therefore work per frame, chain decoding included.
pub struct FrameView<'a> {
    reader: &'a TemporalReader,
    t: usize,
    memo: Arc<ChainMemo>,
}

impl FrameView<'_> {
    /// The frame's time index.
    pub fn time(&self) -> usize {
        self.t
    }

    /// Coarse→fine temporal progressive refinement of this frame: each step
    /// decodes the next finer level *through the delta chains*, sharing the
    /// view's memo, so refining a delta frame only walks each chunk's chain
    /// once across all steps.
    pub fn progressive(&self, scheme: Upsample) -> Progressive<'_, Self> {
        read::progressive(self, scheme)
    }

    /// Reads the box `[lo, hi)` of one level (actual values).
    pub fn read_roi(
        &self,
        level: usize,
        lo: [usize; 3],
        hi: [usize; 3],
        fill: f32,
    ) -> Result<Field3, StoreError> {
        read::read_roi(self, level, lo, hi, fill)
    }

    /// Reads one whole level (actual values).
    pub fn read_level(&self, level: usize) -> Result<LevelData, StoreError> {
        read::read_level(self, level)
    }

    /// Reads one level under isovalue chunk-skipping; the chunk table's
    /// min/max are actual-value bounds even for delta chunks, so skipping
    /// semantics match the single-frame store.
    pub fn read_level_iso(&self, level: usize, iso: f32) -> Result<LevelData, StoreError> {
        read::read_level_iso(self, level, iso)
    }
}

impl ChunkSource for FrameView<'_> {
    fn store_meta(&self) -> &StoreMeta {
        self.reader.frames[self.t].meta()
    }

    fn chunk(&self, level: usize, block: usize) -> Result<DecodedChunk, StoreError> {
        self.reader.chunk_chain(&self.memo, self.t, level, block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hqmr_codec::NullCodec;
    use hqmr_grid::Dims3;
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
            .map(|t| predict::resample_like(&template, &seq_field(n, t)))
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
    fn window_reads_match_per_frame_and_progressive_refines_through_chains() {
        let frames = seq_frames(16, 4);
        let cfg = StoreConfig::new(0.02).with_chunk_blocks(2);
        let dir = std::env::temp_dir().join("hqmr_temporal_window_test");
        std::fs::remove_dir_all(&dir).ok();
        write_temporal(
            &dir,
            &frames,
            &cfg,
            Prediction::delta(),
            &Sz3Codec::default(),
        );
        let tr = TemporalReader::open(&dir).unwrap();
        // Window reads and per-frame reads decode the same stored data, so
        // they must be bit-equal regardless of codec lossiness — and the
        // window path walks each chain once through the shared memo.
        let d = tr.frame_reader(0).unwrap().meta().levels[0].dims;
        let (lo, hi) = ([0, 0, 0], [d.nx, d.ny / 2, d.nz]);
        let window = tr.read_roi_window(0, 3, 0, lo, hi, 0.0).unwrap();
        assert_eq!(window.len(), 4);
        for (t, w) in window.iter().enumerate() {
            let single = tr.read_roi(t, 0, lo, hi, 0.0).unwrap();
            assert_eq!(*w, single, "window read differs from per-frame at t={t}");
        }
        // Progressive through the delta chains refines to the same full
        // reconstruction a direct frame read produces.
        let view = tr.frame(3).unwrap();
        let steps: Vec<_> = view
            .progressive(Upsample::Nearest)
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(
            steps.last().unwrap().field,
            tr.read_frame(3).unwrap().reconstruct(Upsample::Nearest)
        );
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
