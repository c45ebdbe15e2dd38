//! `hqmr-store` — a seekable, block-indexed multi-resolution container.
//!
//! The monolithic MRC stream (`hqmr-core::mrc`) is one opaque blob: reading a
//! single coarse level — let alone a region of interest — means decompressing
//! everything. This crate is the random-access alternative, following the
//! EXR-style tiled/mip-mapped pattern: a [`format::StoreMeta`] directory up
//! front (per-level × per-chunk byte ranges, CRCs, value min/max) and an
//! append-only data region of independently compressed chunks. A reader
//! fetches and decodes *only* the chunks a query touches:
//!
//! * [`StoreReader::read_level`] — one resolution level, chunks decoded in
//!   parallel through the rayon shim;
//! * [`StoreReader::read_roi`] — an axis-aligned box, decoding only the
//!   chunks whose unit blocks intersect it;
//! * [`StoreReader::read_level_iso`] — an isovalue query that skips chunks
//!   whose `[min − eb, max + eb]` band provably misses the isovalue,
//!   substituting a same-side proxy value;
//! * [`StoreReader::progressive`] — a coarse→fine refinement iterator whose
//!   final step equals a full reconstruction.
//!
//! # One write path
//!
//! Every store buffer — [`write_store`], [`write_store_with_parity`],
//! [`encode_prepared_store_into`], each frame of a
//! [`temporal::TemporalEncoder`], and through them `hqmr-core`'s in-situ
//! writers — and every monolithic `compress_mr` stream is produced by one
//! private loop, `encode_frame`: the only code that fans codec compression
//! over chunks and builds the chunk table. Two envelopes wrap its output:
//! `HQST` framing here, and `hqmr-core::mrc`'s container through
//! [`encode_chunks`] — so a store written with
//! [`StoreConfig::one_chunk_per_level`] holds, chunk for chunk, the streams
//! of `compress_mr` under the same configuration. Its task is a chunk
//! *group* — at most `chunk_blocks` consecutive blocks of a level — and does
//! the whole trip from blocks to stream. Given no prepared groups it merges
//! and pads each group inside its task, so both cores prepare and no
//! whole-frame prepared copy exists; [`prepare_store`] +
//! [`encode_prepared_store_into`] remain as the two-stage form in-situ
//! writers time separately, feeding the same loop groups that are already
//! prepared. A frame that closes a prediction loop additionally gets, per
//! chunk, the codec's own reconstruction
//! ([`hqmr_codec::Codec::compress_with_recon`]) cut into the frame as a
//! reader will see it — the next frame's base, or `run_uniform_workflow`'s
//! reconstruction — and, given a base, a residual candidate beside the raw
//! one: a sampled plane picks the one compressed in full, and a close call
//! or a small array compresses both and keeps the smaller ([`temporal`]
//! has the rest). Every file a writer leaves on disk is published by one
//! function, [`write_atomic`].
//!
//! Every chunk payload carries a CRC-32 checked before the codec runs, so a
//! flipped bit surfaces as the typed
//! [`StoreError::CorruptChunk`]`{ level, block }` instead of garbage data.
//!
//! # What a chunk decode allocates
//!
//! One chunk goes fetch → CRC → codec → slab, and only the last step
//! allocates: the codec reconstructs into a per-thread scratch field
//! ([`hqmr_codec::Codec::decompress_into`]), the chunk table's layout is
//! checked against what decoded ([`hqmr_mr::check_slots`]), and the unit
//! blocks are copied straight out of the scratch — padding and all; a
//! trailing pad layer moves no cell — into the chunk's `Arc<[f32]>` slab,
//! built as an `Arc` so handing it to a cache copies nothing. Every
//! decode cuts into a slab the bare reader's owned walks handed back when
//! one of the exact length is pooled ([`read`]'s "Slab storage outlives the
//! walk"), and allocates only on a miss. There is no
//! stripped intermediate and no `Codec` seam for strided destinations: sz3
//! needs the whole padded array as working memory, so cutting from the
//! scratch is the same number of passes for every backend without a
//! per-backend fork. How query results are assembled from slabs, and why
//! whole-level reads ask for them a window at a time, is [`read`]'s story.
//!
//! # Thread safety
//!
//! [`StoreReader`] is `Send + Sync` by contract (enforced at compile time
//! below) and every read method takes `&self`: one reader can serve many
//! client threads concurrently. In-memory readers fetch chunk bytes without
//! any locking; file-backed readers use positional reads (`pread` via
//! `FileExt::read_at` on unix), so concurrent chunk fetches do not
//! serialize on a file lock either (non-unix targets fall back to
//! seek + read behind a mutex). The read-accounting
//! counters ([`StoreReader::bytes_decoded`] / [`StoreReader::chunks_decoded`])
//! are independent monotonic tallies maintained with `Ordering::Relaxed`
//! throughout — including [`StoreReader::reset_counters`] — because they
//! carry no synchronization duty; see `reset_counters` for the exact
//! cross-counter consistency contract. Caching layers (`hqmr-serve`) share a
//! reader via `Arc<StoreReader>` and drive the borrowed per-chunk API
//! ([`StoreReader::fetch_chunk_bytes`] / [`StoreReader::decode_chunk`])
//! directly.

pub mod format;
pub mod read;
pub mod scrub;
pub mod temporal;

pub use format::{
    parse_head, ChunkMeta, LevelMeta, StoreError, StoreMeta, MAGIC, PREFIX_LEN, VERSION,
};
pub use read::{
    BlockData, ChunkSource, DecodedChunk, LevelParts, Progressive, RefinementStep, RoiParts,
};
pub use scrub::{
    parity_path, repair_in_place, scrub_store, temporal_sidecars, write_atomic, ParitySidecar,
    ScrubReport, SidecarStatus, Throttle, DEFAULT_PARITY_GROUP, PARITY_MAGIC, PARITY_VERSION,
};
use temporal::FrameFlags;
pub use temporal::{
    FrameMeta, Prediction, TemporalEncoder, TemporalManifest, TemporalReader, MANIFEST_NAME,
    TEMPORAL_MAGIC, TEMPORAL_VERSION,
};

use hqmr_codec::kernels::PAR_MIN_CELLS;
use hqmr_codec::{crc32, Codec, CodecError, NullCodec};
use hqmr_grid::{Dims3, Field3};
use hqmr_mr::prepare::{prepare_blocks, PreparedLevel};
use hqmr_mr::{
    check_slots, split_blocks, temporal as predict, LevelData, MergeStrategy, MultiResData,
    PadKind, UnitBlock, Upsample,
};
use hqmr_sz2::Sz2Codec;
use hqmr_sz3::{InterpKind, Sz3Codec};
use hqmr_zfp::ZfpCodec;
use rayon::prelude::*;
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

// Compile-time thread-safety contract: `hqmr-serve` shares one reader across
// arbitrarily many client threads through `Arc<StoreReader>`, so losing
// `Send + Sync` (e.g. by storing an `Rc` or a raw pointer in a future
// refactor) must fail the build, not surface as a downstream type error.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<StoreReader>();
    assert_send_sync::<StoreError>();
    assert_send_sync::<DecodedChunk>();
};

thread_local! {
    /// Per-thread chunk-decode scratch: `decompress_into` reshapes this one
    /// field per worker instead of allocating a fresh reconstruction buffer
    /// for every chunk — the store's ROI/progressive readers decode hundreds
    /// of chunks per query. A level-sized one ([`PAR_MIN_CELLS`] cells) is
    /// dropped once its slab is cut ([`decode_stream`]).
    static DECODE_SCRATCH: RefCell<Field3> = RefCell::new(Field3::zeros(Dims3::new(0, 0, 0)));
}

/// Decoded-chunk slabs the bare reader's owned walks handed back
/// ([`ChunkSource::recycle`]), for the next decodes to cut into: the
/// process's one slab pool ([`read`]'s "Slab storage outlives the walk").
/// It lives as long as the process because a caller may open a fresh reader
/// for every exploration of the same store.
static SLAB_POOL: Mutex<SlabPool> = Mutex::new(SlabPool::new());

/// Uniquely owned slabs, oldest first, holding at most one window
/// ([`read::WINDOW_CELLS`]) of cells between them.
struct SlabPool {
    slabs: VecDeque<Arc<[f32]>>,
    cells: usize,
}

impl SlabPool {
    const fn new() -> Self {
        SlabPool {
            slabs: VecDeque::new(),
            cells: 0,
        }
    }

    /// The pool, a poisoned lock recovered: the pool's invariants hold
    /// between any two of its statements.
    fn lock() -> MutexGuard<'static, SlabPool> {
        SLAB_POOL.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A pooled slab of exactly `len` cells. On a miss the oldest slabs —
    /// all of other lengths — are dropped until `len` cells are freed, so
    /// the slab the caller allocates instead replaces them rather than
    /// adding to the pool's share of the heap. A length the pool never
    /// holds drops nothing.
    fn take(&mut self, len: usize) -> Option<Arc<[f32]>> {
        if let Some(k) = self.slabs.iter().position(|s| s.len() == len) {
            let slab = self.slabs.remove(k)?;
            self.cells -= len;
            return Some(slab);
        }
        if len > read::WINDOW_CELLS {
            return None; // never pooled, so nothing to make room for
        }
        let mut freed = 0;
        while freed < len {
            let Some(slab) = self.slabs.pop_front() else {
                break;
            };
            freed += slab.len();
            self.cells -= slab.len();
        }
        None
    }

    /// Keeps `slab`, which the caller proved nobody else holds, dropping
    /// the oldest slabs past the cap. A slab larger than the cap is not
    /// kept at all.
    fn put(&mut self, slab: Arc<[f32]>) {
        if slab.is_empty() || slab.len() > read::WINDOW_CELLS {
            return;
        }
        self.cells += slab.len();
        self.slabs.push_back(slab);
        while self.cells > read::WINDOW_CELLS {
            let Some(oldest) = self.slabs.pop_front() else {
                break;
            };
            self.cells -= oldest.len();
        }
    }
}

/// A slab of `len` cells from the pool, or a zeroed one from the allocator
/// on a miss. A pooled slab's contents are stale: the cut overwrites every
/// cell.
fn pooled_slab(len: usize) -> Arc<[f32]> {
    let pooled = SlabPool::lock().take(len);
    pooled.unwrap_or_else(|| std::iter::repeat_n(0f32, len).collect())
}

/// Which codec backend a writer drives: the one table of backends. A codec
/// variant holds its codec value, the one description of that backend's
/// knobs. The error bound is *not* here — it is passed through the
/// [`Codec`] trait per call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Backend {
    /// SZ3-class global interpolation (the paper's primary target).
    Sz3(Sz3Codec),
    /// SZ2-class block-wise prediction (the AMRIC pathway).
    Sz2(Sz2Codec),
    /// ZFP-class transform coding (the TAC pathway).
    Zfp,
    /// Lossless passthrough (debugging / arrangement-only measurements).
    Null,
}

impl Backend {
    /// Baseline SZ3: cubic interpolation, uniform error bound.
    pub const SZ3: Backend = Backend::Sz3(Sz3Codec {
        interp: InterpKind::Cubic,
        level_eb: None,
    });
    /// SZ3 with the paper's α=2.25, β=8 adaptive level bounds.
    pub const SZ3_PAPER: Backend = Backend::Sz3(Sz3Codec::PAPER);
    /// SZ2 with AMRIC's 4³ multi-resolution blocks.
    pub const SZ2: Backend = Backend::Sz2(Sz2Codec::MULTIRES);
    /// ZFP fixed-accuracy.
    pub const ZFP: Backend = Backend::Zfp;
    /// Raw passthrough.
    pub const NULL: Backend = Backend::Null;

    /// One default instance per backend: the bench matrix and [`codec_for_id`].
    pub const ALL: [Backend; 4] = [Self::SZ3, Self::SZ2, Self::ZFP, Self::NULL];

    /// Instantiates the codec this backend describes: the only match from a
    /// backend to a codec.
    pub fn codec(&self) -> Box<dyn Codec> {
        match *self {
            Backend::Sz3(c) => Box::new(c),
            Backend::Sz2(c) => Box::new(c),
            Backend::Zfp => Box::new(ZfpCodec),
            Backend::Null => Box::new(NullCodec),
        }
    }

    /// The backend's stream id ([`Codec::id`] of its codec).
    pub fn id(&self) -> u32 {
        self.codec().id()
    }

    /// The backend's stable name ([`Codec::name`] of its codec).
    pub fn name(&self) -> &'static str {
        self.codec().name()
    }
}

/// Decoder registry: a codec able to decode streams carrying `id`, read off
/// [`Backend::ALL`]. Streams are self-describing, so decode needs no
/// backend parameters.
pub fn codec_for_id(id: u32) -> Option<Box<dyn Codec>> {
    Backend::ALL
        .iter()
        .map(Backend::codec)
        .find(|c| c.id() == id)
}

/// Writer configuration: the arrangement axis (shared with the monolithic
/// engine), the error bound, and the tiling granularity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreConfig {
    /// Absolute error bound every chunk is compressed under.
    pub eb: f64,
    /// Unit-block arrangement within a chunk.
    pub merge: MergeStrategy,
    /// Padding for the small dims of linear merges (applied when `unit > 4`).
    pub pad: Option<PadKind>,
    /// Maximum unit blocks per chunk. Small values mean finer random access
    /// (ROI reads touch fewer bytes) at some compression-ratio cost;
    /// [`StoreConfig::one_chunk_per_level`] reproduces the monolithic
    /// engine's arrays exactly.
    pub chunk_blocks: usize,
    /// Chunks per XOR parity group in the `.hqpr` sidecar file-level
    /// writers emit beside each store (`0` disables sidecars). Smaller
    /// groups mean more repairable damage per store at proportionally more
    /// parity bytes — overhead ≈ `1/parity_group` of the compressed size.
    pub parity_group: usize,
}

/// Default chunk granularity: enough blocks for the codec to find structure,
/// small enough that ROI reads skip most of a level.
pub const DEFAULT_CHUNK_BLOCKS: usize = 16;

impl StoreConfig {
    /// Paper-default arrangement (linear merge + padding) at bound `eb`,
    /// tiled every [`DEFAULT_CHUNK_BLOCKS`] unit blocks.
    pub fn new(eb: f64) -> Self {
        StoreConfig {
            eb,
            merge: MergeStrategy::Linear,
            pad: Some(PadKind::Linear),
            chunk_blocks: DEFAULT_CHUNK_BLOCKS,
            parity_group: scrub::DEFAULT_PARITY_GROUP,
        }
    }

    /// Tiling granularity in unit blocks per chunk.
    pub fn with_chunk_blocks(mut self, blocks: usize) -> Self {
        self.chunk_blocks = blocks.max(1);
        self
    }

    /// Chunks per parity group in the emitted `.hqpr` sidecar; `0` turns
    /// sidecars off.
    pub fn with_parity_group(mut self, group: usize) -> Self {
        self.parity_group = group;
        self
    }

    /// One chunk per level: codec inputs byte-identical to the monolithic
    /// `compress_mr` under the same merge/pad/eb — the parity configuration.
    pub fn one_chunk_per_level(mut self) -> Self {
        self.chunk_blocks = usize::MAX;
        self
    }
}

/// The prepared (pre-codec) form of one level: one [`PreparedLevel`] per
/// chunk group. Produced by [`prepare_store`], consumed by
/// [`encode_prepared_store_into`] — split so in-situ writers can time the two
/// stages separately (Table IV), mirroring `mrc::prepare_mr`/`encode_prepared`.
pub type PreparedStore = Vec<Vec<PreparedLevel>>;

/// Stage 1: merges and pads every chunk group of every level. Groups are
/// consecutive runs of the level's raster-ordered blocks, prepared straight
/// off the borrowed slices — no block data is copied before merging.
pub fn prepare_store(mr: &MultiResData, cfg: &StoreConfig) -> PreparedStore {
    mr.levels
        .iter()
        .map(|level| {
            level
                .blocks
                .chunks(cfg.chunk_blocks.max(1))
                .map(|group| prepare_blocks(group, level.unit, cfg.merge, cfg.pad))
                .collect()
        })
        .collect()
}

/// Stage 2: compresses every prepared chunk (in parallel) and frames the
/// store into `out` (cleared first, so repeated in-situ frames reuse one
/// allocation). `prepared` must come from [`prepare_store`] with the same
/// `mr` and `cfg`.
///
/// # Panics
/// Panics if a block of `mr` does not hold `unit³` values.
pub fn encode_prepared_store_into(
    mr: &MultiResData,
    prepared: &PreparedStore,
    cfg: &StoreConfig,
    codec: &dyn Codec,
    out: &mut Vec<u8>,
) {
    let groups: Vec<&[PreparedLevel]> = prepared.iter().map(Vec::as_slice).collect();
    let encoded = encode_frame(mr, Some(&groups), Loop::Open, cfg, codec);
    hqst_into(encoded.expect(WHOLE_BLOCKS), out);
}

/// Why an open-loop encode can fail: it asks the codec for no
/// reconstruction and cuts none, so only a malformed block is left.
const WHOLE_BLOCKS: &str = "every block must hold unit³ values";

/// The one chunk-encode loop without an envelope, for `hqmr-core::mrc`'s
/// container: the directory, the data region it indexes, and with
/// `want_recon` `mr` as a reader will reconstruct it, blocks in `mr`'s order
/// ([`Codec::compress_with_recon`]'s; nothing is decoded). `prepared` holds
/// each level's prepared groups, as [`prepare_store`] does. A block that
/// does not hold `unit³` values is [`StoreError::Malformed`]; a backend
/// failing its reconstruction contract is [`StoreError::Codec`].
pub fn encode_chunks(
    mr: &MultiResData,
    prepared: Option<&[&[PreparedLevel]]>,
    cfg: &StoreConfig,
    codec: &dyn Codec,
    want_recon: bool,
) -> Result<(StoreMeta, Vec<u8>, Option<MultiResData>), StoreError> {
    let closed = if want_recon {
        Loop::Closed(None)
    } else {
        Loop::Open
    };
    let (meta, data, _, recon) = encode_frame(mr, prepared, closed, cfg, codec)?;
    Ok((meta, data, recon))
}

/// Whether a frame's encode closes the prediction loop.
pub(crate) enum Loop<'a> {
    /// Nothing will be predicted from this frame (a snapshot, a
    /// prediction-off frame): no reconstruction is asked of the codec.
    Open,
    /// The next frame is predicted from this one, so the encode hands back
    /// the frame as a reader will reconstruct it; given a base — the
    /// previous frame in that form, of the same block structure — every
    /// chunk also has its residual against it as a candidate.
    Closed(Option<&'a MultiResData>),
}

/// One task of the encode loop: at most `chunk_blocks` consecutive blocks of
/// a level, with their prepared form and their slice of the prediction base
/// where the frame has them.
struct Group<'a> {
    level: usize,
    blocks: &'a [UnitBlock],
    prepared: Option<&'a PreparedLevel>,
    base: Option<&'a [UnitBlock]>,
}

/// What a task returns: per chunk its table entry (offset not yet assigned),
/// the winning stream and whether that is a residual; in a closed loop also
/// the group's blocks as reconstructed, in the group's order.
struct EncodedGroup {
    chunks: Vec<(ChunkMeta, Vec<u8>, bool)>,
    blocks: Vec<UnitBlock>,
}

/// What the encode loop hands an envelope: the directory, the data region
/// it indexes, per `(level, chunk)` whether the chunk holds a residual, and
/// in a closed loop the frame as a reader will reconstruct it.
type Encoded = (StoreMeta, Vec<u8>, FrameFlags, Option<MultiResData>);

thread_local! {
    /// Per-thread reconstructions of a chunk's raw and residual candidates.
    static RECON_SCRATCH: RefCell<[Field3; 2]> = RefCell::default();
}

/// The `HQST` envelope: every store buffer, snapshot or temporal frame, is
/// the loop's output framed here into `out` (cleared first).
pub(crate) fn hqst_into(
    (meta, data, flags, recon): Encoded,
    out: &mut Vec<u8>,
) -> (FrameFlags, Option<MultiResData>) {
    format::frame_into(&meta, &data, out);
    (flags, recon)
}

/// The one chunk-encode loop, behind both containers: one parallel trip per
/// chunk group ([`encode_group`]), then the directory. `prepared`, when
/// given, holds each level's prepared groups for the same `mr` and `cfg`
/// (Table IV's stage split); otherwise each task prepares its own group.
///
/// The fan-out is *global*: every group of every level joins one work list,
/// so a coarse level with a single chunk cannot serialize a round of the
/// thread pool, and the shim's self-scheduling keeps the cores level though
/// the list runs from large chunks to small.
pub(crate) fn encode_frame(
    mr: &MultiResData,
    prepared: Option<&[&[PreparedLevel]]>,
    closed: Loop<'_>,
    cfg: &StoreConfig,
    codec: &dyn Codec,
) -> Result<Encoded, StoreError> {
    let (want_recon, base) = match closed {
        Loop::Open => (false, None),
        Loop::Closed(base) => (true, base),
    };
    let per = cfg.chunk_blocks.max(1);
    assert!(
        prepared.is_none_or(|p| p.len() == mr.levels.len()),
        "prepared levels mismatch"
    );
    let mut groups = Vec::new();
    for (level, lvl) in mr.levels.iter().enumerate() {
        // Merging copies `unit³` values per block; a block of any other
        // length is the caller's data, not a reason to panic in a task.
        let cells = lvl.unit.checked_pow(3);
        if lvl.blocks.iter().any(|b| Some(b.data.len()) != cells) {
            return Err(StoreError::Malformed("a block does not hold unit³ values"));
        }
        let prepared = prepared.map(|p| p[level]);
        assert!(
            prepared.is_none_or(|p| p.len() == lvl.blocks.len().div_ceil(per)),
            "prepared groups mismatch"
        );
        let base = base.map(|b| &b.levels[level].blocks);
        groups.extend(
            lvl.blocks
                .chunks(per)
                .enumerate()
                .map(|(gi, blocks)| Group {
                    level,
                    blocks,
                    prepared: prepared.map(|p| &p[gi]),
                    base: base.map(|b| &b[gi * per..][..blocks.len()]),
                }),
        );
    }
    let encoded: Vec<Result<EncodedGroup, (usize, CodecError)>> = groups
        .par_iter()
        .map(|g| encode_group(g, mr.levels[g.level].unit, want_recon, cfg, codec))
        .collect();

    let mut levels = Vec::with_capacity(mr.levels.len());
    let mut flags = Vec::with_capacity(mr.levels.len());
    let mut next = Vec::with_capacity(mr.levels.len());
    let mut data = Vec::new();
    let mut encoded = groups.iter().zip(encoded).peekable();
    for (li, level) in mr.levels.iter().enumerate() {
        let (mut chunks, mut level_flags, mut blocks) = (Vec::new(), Vec::new(), Vec::new());
        while let Some((_, group)) = encoded.next_if(|(g, _)| g.level == li) {
            // A task numbers chunks from its own first; name the level's.
            let group = group.map_err(|(i, source)| StoreError::Codec {
                level: li,
                block: chunks.len() + i,
                source,
            })?;
            for (mut chunk, stream, is_delta) in group.chunks {
                chunk.offset = data.len() as u64;
                data.extend_from_slice(&stream);
                chunks.push(chunk);
                level_flags.push(is_delta);
            }
            blocks.extend(group.blocks);
        }
        levels.push(LevelMeta {
            level: level.level,
            unit: level.unit,
            dims: level.dims,
            chunks,
        });
        flags.push(level_flags);
        next.push(LevelData { blocks, ..*level });
    }
    let meta = StoreMeta {
        domain: mr.domain,
        codec_id: codec.id(),
        eb: cfg.eb,
        levels,
    };
    let recon = want_recon.then_some(MultiResData {
        domain: mr.domain,
        levels: next,
    });
    Ok((meta, data, flags, recon))
}

/// One group's whole trip from blocks to streams: [`prepare_blocks`] (unless
/// the group came prepared), compress, CRC. In a closed loop (`want_recon`)
/// it compresses through [`Codec::compress_with_recon`] and cuts the
/// reconstruction into unit blocks by the checked slot walk a reader's
/// decode uses. Given a base it prepares the group's residual the same way
/// and lets [`candidates`] pick, per array, which of raw and residual to
/// compress in full: the one a sampled plane favours, or both on a close
/// call or a small array, the smaller stream kept (the raw one on a tie).
/// A winning residual's blocks are restored onto the base with
/// `restore_in_place`, the same `r + p` a chain walk applies. Nothing is
/// decoded: the blocks handed back are what a reader reconstructs by the
/// codec contract. The table entries describe the actual values either way
/// — layout, and the min/max isovalue skipping relies on, come from the raw
/// candidate. An error names the group's chunk the backend failed its
/// contract on.
fn encode_group(
    g: &Group<'_>,
    unit: usize,
    want_recon: bool,
    cfg: &StoreConfig,
    codec: &dyn Codec,
) -> Result<EncodedGroup, (usize, CodecError)> {
    let owned;
    let raw = match g.prepared {
        Some(prepared) => prepared,
        None => {
            owned = prepare_blocks(g.blocks, unit, cfg.merge, cfg.pad);
            &owned
        }
    };
    // Same origins, so the same arrays and layouts as `raw`.
    let residual = g.base.map(|base| {
        let blocks: Vec<UnitBlock> = (g.blocks.iter().zip(base))
            .map(|(cur, prev)| UnitBlock {
                origin: cur.origin,
                data: predict::residual(&cur.data, &prev.data),
            })
            .collect();
        prepare_blocks(&blocks, unit, cfg.merge, cfg.pad)
    });
    // Merges lay blocks out in their own order; they go back in the frame's.
    let position: BTreeMap<[usize; 3], usize> = (g.blocks.iter().enumerate())
        .filter(|_| want_recon)
        .map(|(i, b)| (b.origin, i))
        .collect();
    let unfilled = UnitBlock {
        origin: [0; 3],
        data: Vec::new(),
    };
    let mut blocks = vec![unfilled; position.len()];
    let mut chunks = Vec::with_capacity(raw.array_count());
    RECON_SCRATCH.with(|scratch| {
        let [raw_recon, delta_recon] = &mut *scratch.borrow_mut();
        for (i, (m, f)) in raw.blocks().enumerate() {
            let residual = residual.as_ref().map(|r| r.field(i));
            let (try_raw, try_delta) =
                residual.map_or((true, false), |r| candidates(f, r, cfg.eb, codec));
            let (mut stream, mut is_delta) = (Vec::new(), false);
            if !want_recon {
                codec.compress_into(f, cfg.eb, &mut stream);
            } else if try_raw {
                (codec.compress_with_recon(f, cfg.eb, &mut stream, raw_recon))
                    .map_err(|e| (i, e))?;
            }
            if let Some(residual) = residual.filter(|_| try_delta) {
                let mut delta = Vec::new();
                (codec.compress_with_recon(residual, cfg.eb, &mut delta, delta_recon))
                    .map_err(|e| (i, e))?;
                if !try_raw || delta.len() < stream.len() {
                    (stream, is_delta) = (delta, true);
                }
            }
            let (min, max) = m.field.min_max();
            let chunk = ChunkMeta {
                offset: 0,
                len: stream.len(),
                crc: crc32(&stream),
                min,
                max,
                enc_dims: f.dims(),
                padded: raw.padded(),
                unit: m.unit,
                slots: m.slots.clone(),
            };
            if want_recon {
                let recon = if is_delta { &*delta_recon } else { &*raw_recon };
                checked_block_cells(recon.dims(), chunk.layout(), Some(chunk.enc_dims))
                    .map_err(|why| (i, CodecError::Malformed(why)))?;
                for mut block in split_blocks(recon, chunk.unit, &chunk.slots) {
                    let at = position[&block.origin];
                    if let Some(base) = g.base.filter(|_| is_delta) {
                        predict::restore_in_place(&mut block.data, &base[at].data);
                    }
                    blocks[at] = block;
                }
            }
            chunks.push((chunk, stream, is_delta));
        }
        Ok(EncodedGroup { chunks, blocks })
    })
}

/// Arrays whose shortest side is below this are too small for one plane to
/// speak for them, and try both candidates. 16 is the paper's unit: every
/// array at a smaller unit — `golden_stores`' temporal runs at unit 8 among
/// them — keeps the try-both bytes exactly.
const SAMPLE_MIN_SIDE: usize = 16;

/// A sampled stream must be smaller than the other candidate's by more than
/// this many percent for its candidate alone to be compressed in full.
/// Chosen on the 128×128×256 WarpX proxy, six frames at advection 0.1, 0.5
/// and 1.3 cells per frame, under sz3, sz2 and zfp and two seeds: at 2 % the
/// delta frames' bytes stayed within 1.0 % of trying both (0.4 % over all
/// 18 runs) with 6 % of sampled arrays close calls (a quarter of sz3's at
/// 1.3 cells per frame). 1 % let the worst run reach +1.4 %; 3 % held it to
/// +0.8 % but made a third of sz3's arrays at 1.3 cells per frame close
/// calls, each compressed twice.
const MARGIN_PERCENT: usize = 2;

/// Which of an array's two candidates, `(raw, residual)`, to compress in
/// full. Each is sampled by compressing its mid plane across the array's
/// shortest axis; one that is smaller by more than the margin goes alone,
/// otherwise both. The plane keeps the two long axes — a linear merge's
/// merge axis among them — so the sample sees the same interpolation runs
/// the whole array does; a slab cut across the merge axis favours the
/// residual where the raw values win. The choice reads only the two arrays,
/// so a frame's bytes depend on its data and its base alone.
fn candidates(raw: &Field3, residual: &Field3, eb: f64, codec: &dyn Codec) -> (bool, bool) {
    let dims = raw.dims();
    let sides = [dims.nx, dims.ny, dims.nz];
    let axis = (0..3).min_by_key(|&a| sides[a]).unwrap_or(0);
    if sides[axis] < SAMPLE_MIN_SIDE {
        return (true, true);
    }
    let mut origin = [0; 3];
    origin[axis] = sides[axis] / 2;
    let mut size = sides;
    size[axis] = 1;
    let size = Dims3::new(size[0], size[1], size[2]);
    let sampled = |f: &Field3| {
        let mut out = Vec::new();
        codec.compress_into(&f.extract_box(origin, size), eb, &mut out);
        out.len()
    };
    let (raw, delta) = (sampled(raw), sampled(residual));
    // `a` beats `b` when a < (1 − margin)·b, in integers.
    let beats = |a: usize, b: usize| a * 100 < b * (100 - MARGIN_PERCENT);
    (!beats(delta, raw), !beats(raw, delta))
}

/// Writes `mr` into a complete in-memory store buffer. Each chunk group is
/// prepared inside its encode task, so no whole-store prepared copy exists;
/// the bytes equal [`prepare_store`] + [`encode_prepared_store_into`]'s.
///
/// # Panics
/// Panics if a block of `mr` does not hold `unit³` values.
pub fn write_store(mr: &MultiResData, cfg: &StoreConfig, codec: &dyn Codec) -> Vec<u8> {
    let mut out = Vec::new();
    let encoded = encode_frame(mr, None, Loop::Open, cfg, codec);
    hqst_into(encoded.expect(WHOLE_BLOCKS), &mut out);
    out
}

/// [`write_store`] plus the matching `.hqpr` parity sidecar bytes
/// (`None` when `cfg.parity_group == 0`). The sidecar is computed off the
/// just-framed buffer, so it is consistent with the store by construction;
/// file-level writers persist both through their crash-safe path.
///
/// # Panics
/// Panics where [`write_store`] does.
pub fn write_store_with_parity(
    mr: &MultiResData,
    cfg: &StoreConfig,
    codec: &dyn Codec,
) -> (Vec<u8>, Option<Vec<u8>>) {
    let buf = write_store(mr, cfg, codec);
    let parity = sidecar_bytes_for(&buf, cfg.parity_group);
    (buf, parity)
}

/// The serialized parity sidecar for a complete store buffer, or `None`
/// when parity is disabled. Building parity over bytes we just framed
/// cannot fail; the expect documents that invariant.
pub fn sidecar_bytes_for(store_buf: &[u8], parity_group: usize) -> Option<Vec<u8>> {
    if parity_group == 0 {
        return None;
    }
    let sc = scrub::ParitySidecar::from_store_bytes(store_buf, parity_group)
        .expect("parity over a freshly framed store");
    Some(sc.to_bytes())
}

/// The check before any unit block is cut out of an array of `dims`, encode
/// or decode: the dims must be those the envelope recorded, if any, and
/// every slot of the layout must lie inside them ([`check_slots`]). On the
/// read side the layout is untrusted; checked against what actually
/// decoded, a crafted one is a typed error, not a panic. Returns the cells
/// per block.
fn checked_block_cells(
    dims: Dims3,
    (padded, unit, slots): format::ArrayLayout<'_>,
    recorded: Option<Dims3>,
) -> Result<usize, &'static str> {
    if recorded.is_some_and(|r| r != dims) {
        return Err("decoded dims mismatch chunk table");
    }
    check_slots(dims, padded, unit, slots)
}

/// One array stream → its decoded slab, the decode step of both envelopes:
/// a reader's fetch, a parity-repaired payload, an `hqmr-core::mrc` array.
/// `bytes` must be trusted (CRC-verified, or never out of the process); the
/// layout and the dims the envelope `recorded` (`mrc` records none) need not
/// be. `at` is the chunk's `(level, block)`, named in a codec error. The
/// thread's scratch is kept unless it is level-sized ([`PAR_MIN_CELLS`]);
/// the slab is drawn from the slab pool before it is allocated.
pub fn decode_stream(
    codec: &dyn Codec,
    bytes: &[u8],
    (padded, unit, slots): format::ArrayLayout<'_>,
    recorded: Option<Dims3>,
    at: (usize, usize),
) -> Result<DecodedChunk, StoreError> {
    let codec_err = |source| StoreError::Codec {
        level: at.0,
        block: at.1,
        source,
    };
    DECODE_SCRATCH.with(|scratch| {
        let field = &mut *scratch.borrow_mut();
        codec.decompress_into(bytes, field).map_err(codec_err)?;
        let n = checked_block_cells(field.dims(), (padded, unit, slots), recorded)
            .map_err(StoreError::Malformed)?;
        let size = Dims3::cube(unit);
        // One contiguous slab for the whole chunk — the unit a cache
        // shares across clients with a single refcount bump — allocated
        // once (or taken from the pool), as the `Arc` it is handed out
        // in, and cut straight out of the scratch: a padded
        // reconstruction keeps its cells at their stripped coordinates
        // (`check_slots`), so no stripped copy stands between the codec's
        // output and the slab.
        let mut slab = pooled_slab(slots.len() * n);
        let cells = Arc::get_mut(&mut slab).expect("a fresh or pooled slab is not shared");
        // Fanned out only for level-sized slabs: a default chunk's copy is
        // tens of microseconds and decodes beside many others in
        // `ChunkSource::chunks`.
        if slots.len() >= 2 && cells.len() >= PAR_MIN_CELLS {
            cells.par_chunks_mut(n).enumerate().for_each(|(k, out)| {
                field.extract_box_into(slots[k].0, size, out);
            });
        } else {
            for (k, &(slot, _)) in slots.iter().enumerate() {
                field.extract_box_into(slot, size, &mut cells[k * n..(k + 1) * n]);
            }
        }
        if field.len() >= PAR_MIN_CELLS {
            *field = Field3::default(); // decoded once, not kept resident
        }
        Ok(DecodedChunk {
            unit,
            origins: slots.iter().map(|&(_, origin)| origin).collect(),
            data: slab,
        })
    })
}

/// Where a reader's chunk bytes come from.
enum Source {
    /// The whole store buffer in memory (data region addressed by range).
    Mem(Vec<u8>),
    /// An open file, read with positional reads — concurrent chunk fetches
    /// (e.g. from `hqmr-serve` client threads) do not serialize on a lock.
    File(PositionalFile),
}

/// A read-only file accessed at explicit offsets. On unix this is a bare
/// `File` driven through `FileExt::read_at` (`pread`), which takes `&self`
/// and never touches the shared cursor — concurrent chunk fetches proceed
/// in parallel. Elsewhere it falls back to seek + read behind a mutex.
///
/// The file's path is kept so every I/O error names the store it came from:
/// a multi-store server returns an attributable error frame instead of an
/// anonymous `io::Error` (or worse, a panic).
struct PositionalFile {
    #[cfg(unix)]
    file: std::fs::File,
    #[cfg(not(unix))]
    file: Mutex<std::fs::File>,
    path: std::path::PathBuf,
}

/// Adds path context to a non-EOF I/O error, preserving its kind.
/// `UnexpectedEof` passes through untouched so the `From<io::Error>`
/// conversion keeps mapping it to the typed [`StoreError::Truncated`].
fn with_path_context(e: std::io::Error, path: &Path) -> std::io::Error {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        return e;
    }
    std::io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

impl PositionalFile {
    fn new(file: std::fs::File, path: std::path::PathBuf) -> Self {
        #[cfg(unix)]
        {
            PositionalFile { file, path }
        }
        #[cfg(not(unix))]
        {
            PositionalFile {
                file: Mutex::new(file),
                path,
            }
        }
    }

    /// Size of the underlying file in bytes.
    fn len(&self) -> std::io::Result<u64> {
        #[cfg(unix)]
        {
            self.file
                .metadata()
                .map(|m| m.len())
                .map_err(|e| with_path_context(e, &self.path))
        }
        #[cfg(not(unix))]
        {
            self.file
                .lock()
                .expect("store file lock poisoned")
                .metadata()
                .map(|m| m.len())
                .map_err(|e| with_path_context(e, &self.path))
        }
    }

    /// Fills `buf` from the absolute file `offset` (EOF ⇒ error, matching
    /// `read_exact`). Non-EOF failures carry the store's path.
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file
                .read_exact_at(buf, offset)
                .map_err(|e| with_path_context(e, &self.path))
        }
        #[cfg(not(unix))]
        {
            use std::io::{Read, Seek, SeekFrom};
            let mut f = self.file.lock().expect("store file lock poisoned");
            f.seek(SeekFrom::Start(offset))
                .and_then(|_| f.read_exact(buf))
                .map_err(|e| with_path_context(e, &self.path))
        }
    }
}

/// Random-access reader over a store buffer or file.
///
/// Every chunk fetch verifies the chunk's CRC-32 before the codec touches
/// the bytes ([`StoreError::CorruptChunk`] on mismatch) and adds the chunk's
/// compressed length to a running counter ([`StoreReader::bytes_decoded`]) —
/// the accounting that proves ROI and isovalue reads touch strictly fewer
/// bytes than full reads.
pub struct StoreReader {
    meta: StoreMeta,
    data_start: u64,
    source: Source,
    codec: Box<dyn Codec>,
    bytes_decoded: AtomicU64,
    chunks_decoded: AtomicU64,
}

impl StoreReader {
    /// Opens an in-memory store buffer.
    pub fn from_bytes(buf: Vec<u8>) -> Result<Self, StoreError> {
        let (meta, data_start) = parse_head(&buf)?;
        Self::with_source(meta, data_start, Source::Mem(buf))
    }

    /// Opens a store file. Only the prefix and directory are read here; chunk
    /// bytes are fetched on demand per query.
    ///
    /// Failures before any store structure is parsed — the path does not
    /// exist, is not readable, or stat fails — surface as the typed
    /// [`StoreError::Open`] carrying the path, so a multi-store server can
    /// answer "which store?" in its error frame. A file that opens but ends
    /// mid-prefix/mid-directory is [`StoreError::Truncated`], and damaged
    /// structure keeps its existing typed variants ([`StoreError::BadMagic`]
    /// etc.). Nothing on this path panics on I/O.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        use std::io::Read;
        let path = path.as_ref();
        let open_err = |source: std::io::Error| {
            if source.kind() == std::io::ErrorKind::UnexpectedEof {
                StoreError::Truncated
            } else {
                StoreError::Open {
                    path: path.to_path_buf(),
                    source,
                }
            }
        };
        let mut file = std::fs::File::open(path).map_err(open_err)?;
        let mut head = vec![0u8; PREFIX_LEN];
        file.read_exact(&mut head).map_err(open_err)?;
        let (meta_len, _) = hqmr_codec::framed_prefix(&head, MAGIC, VERSION)?;
        // The directory is read whole: refuse a length the file cannot hold
        // before a buffer is sized by it.
        let file_len = file.metadata().map_err(open_err)?.len();
        if (PREFIX_LEN as u64).saturating_add(meta_len as u64) > file_len {
            return Err(StoreError::Truncated);
        }
        head.resize(PREFIX_LEN + meta_len, 0);
        file.read_exact(&mut head[PREFIX_LEN..]).map_err(open_err)?;
        let (meta, data_start) = parse_head(&head)?;
        Self::with_source(
            meta,
            data_start,
            Source::File(PositionalFile::new(file, path.to_path_buf())),
        )
    }

    fn with_source(meta: StoreMeta, data_start: u64, source: Source) -> Result<Self, StoreError> {
        let codec = codec_for_id(meta.codec_id).ok_or(StoreError::UnknownCodec(meta.codec_id))?;
        // The chunk table is untrusted input (its CRC is integrity, not
        // authentication): validate every byte range against the actual data
        // region up front, so fetches can never overflow, over-allocate, or
        // run past the end.
        let data_len = match &source {
            Source::Mem(buf) => (buf.len() as u64).saturating_sub(data_start),
            Source::File(file) => file.len()?.saturating_sub(data_start),
        };
        for lm in &meta.levels {
            for c in &lm.chunks {
                let end = c
                    .offset
                    .checked_add(c.len as u64)
                    .ok_or(StoreError::Truncated)?;
                if end > data_len {
                    return Err(StoreError::Truncated);
                }
            }
        }
        Ok(StoreReader {
            meta,
            data_start,
            source,
            codec,
            bytes_decoded: AtomicU64::new(0),
            chunks_decoded: AtomicU64::new(0),
        })
    }

    /// The store's directory (levels, chunk table, codec id, error bound).
    pub fn meta(&self) -> &StoreMeta {
        &self.meta
    }

    /// Name of the codec decoding this store's chunks.
    pub fn codec_name(&self) -> &'static str {
        self.codec.name()
    }

    /// Compressed bytes fetched + decoded since the last
    /// [`StoreReader::reset_counters`].
    pub fn bytes_decoded(&self) -> u64 {
        self.bytes_decoded.load(Ordering::Relaxed)
    }

    /// Chunks fetched + decoded since the last counter reset.
    pub fn chunks_decoded(&self) -> u64 {
        self.chunks_decoded.load(Ordering::Relaxed)
    }

    /// Zeroes the read-accounting counters.
    ///
    /// Ordering contract: both counters are plain monotonic tallies — every
    /// load, increment and this reset use `Ordering::Relaxed`, deliberately
    /// and consistently, because the counters never guard other memory.
    /// Each counter is individually exact: increments from any thread are
    /// never lost. What Relaxed (or indeed any ordering, short of locking
    /// both counters together) does *not* give you is a consistent snapshot
    /// **across** the two counters, or a reset that is atomic with respect
    /// to a fetch happening on another thread — a concurrent fetch may land
    /// its byte count before the reset and its chunk count after. Callers
    /// that want exact accounting for a specific set of reads (as the tests
    /// and benches do) must quiesce readers around the reset; callers that
    /// just watch throughput can ignore the skew, which is bounded by one
    /// in-flight fetch per thread.
    pub fn reset_counters(&self) {
        self.bytes_decoded.store(0, Ordering::Relaxed);
        self.chunks_decoded.store(0, Ordering::Relaxed);
    }

    /// Fetches one chunk's compressed bytes and verifies its CRC. In-memory
    /// stores hand out a borrowed slice (no copy); only file-backed stores
    /// materialize an owned buffer. Byte ranges were validated against the
    /// data region at open time, so the only runtime surprise left is a file
    /// shrinking underneath us.
    ///
    /// This is the raw half of the borrowed per-chunk API caching layers
    /// drive; [`StoreReader::decode_chunk`] is the decoded half.
    pub fn fetch_chunk_bytes(
        &self,
        level: usize,
        block: usize,
    ) -> Result<Cow<'_, [u8]>, StoreError> {
        let c = read::level_meta(&self.meta, level)?
            .chunks
            .get(block)
            .ok_or(StoreError::Malformed("chunk index out of range"))?;
        let bytes: Cow<'_, [u8]> = match &self.source {
            Source::Mem(buf) => {
                let start = (self.data_start + c.offset) as usize;
                Cow::Borrowed(
                    buf.get(start..start.saturating_add(c.len))
                        .ok_or(StoreError::Truncated)?,
                )
            }
            Source::File(file) => {
                let mut out = vec![0u8; c.len];
                file.read_exact_at(&mut out, self.data_start + c.offset)?;
                Cow::Owned(out)
            }
        };
        if crc32(&bytes) != c.crc {
            return Err(StoreError::CorruptChunk { level, block });
        }
        self.bytes_decoded
            .fetch_add(c.len as u64, Ordering::Relaxed);
        self.chunks_decoded.fetch_add(1, Ordering::Relaxed);
        Ok(bytes)
    }

    /// Fetches, CRC-checks and decodes one chunk — the decoded half of the
    /// borrowed per-chunk API. `hqmr-serve`'s cache calls this exactly once
    /// per miss; the reader's own `read_*` methods funnel through it (via
    /// [`ChunkSource`]) as well, so cached and uncached reads share one code
    /// path. Decoding reuses a per-thread scratch field, so a client thread
    /// issuing many chunk decodes allocates one reconstruction buffer, not
    /// one per chunk — except a level-sized one ([`decode_stream`]).
    pub fn decode_chunk(&self, level: usize, block: usize) -> Result<DecodedChunk, StoreError> {
        let bytes = self.fetch_chunk_bytes(level, block)?;
        self.cut(level, block, &bytes)
    }

    /// Decodes chunk `(level, block)` from its verified `bytes`.
    fn cut(&self, level: usize, block: usize, bytes: &[u8]) -> Result<DecodedChunk, StoreError> {
        let c = &self.meta.levels[level].chunks[block];
        let at = (level, block);
        decode_stream(&*self.codec, bytes, c.layout(), Some(c.enc_dims), at)
    }

    /// Decodes a caller-supplied compressed payload as chunk
    /// `(level, block)` — the entry point for parity-repaired bytes. The
    /// payload is verified against the chunk table's stored length and CRC
    /// first, so a bad reconstruction is the same typed
    /// [`StoreError::CorruptChunk`] a damaged fetch would be; a payload
    /// that passes decodes identically to the original chunk.
    pub fn decode_chunk_bytes(
        &self,
        level: usize,
        block: usize,
        bytes: &[u8],
    ) -> Result<DecodedChunk, StoreError> {
        let c = read::level_meta(&self.meta, level)?
            .chunks
            .get(block)
            .ok_or(StoreError::Malformed("chunk index out of range"))?;
        if bytes.len() != c.len || crc32(bytes) != c.crc {
            return Err(StoreError::CorruptChunk { level, block });
        }
        self.cut(level, block, bytes)
    }

    /// Reads one whole resolution level.
    pub fn read_level(&self, level: usize) -> Result<LevelData, StoreError> {
        read::read_level(self, level)
    }

    /// Reads every level (the store equivalent of `decompress_mr`).
    pub fn read_all(&self) -> Result<MultiResData, StoreError> {
        read::read_all(self)
    }

    /// Indices of the chunks whose unit blocks intersect `[lo, hi)` (level
    /// cell coordinates) — the chunk-table accounting behind
    /// [`StoreReader::read_roi`].
    pub fn roi_chunk_indices(
        &self,
        level: usize,
        lo: [usize; 3],
        hi: [usize; 3],
    ) -> Result<Vec<usize>, StoreError> {
        read::roi_chunk_indices(&self.meta, level, lo, hi)
    }

    /// Reads the axis-aligned box `[lo, hi)` of one level, decoding only the
    /// intersecting chunks. Returns a dense field of dims `hi − lo`; cells
    /// not covered by any unit block hold `fill`. Equals the same region
    /// cropped out of `read_level(level).to_field(fill)`.
    pub fn read_roi(
        &self,
        level: usize,
        lo: [usize; 3],
        hi: [usize; 3],
        fill: f32,
    ) -> Result<Field3, StoreError> {
        read::read_roi(self, level, lo, hi, fill)
    }

    /// Indices of the chunks that *may* contain a crossing of `iso`, judged
    /// from the chunk table's min/max widened by the stored error bound.
    pub fn iso_chunk_indices(&self, level: usize, iso: f32) -> Result<Vec<usize>, StoreError> {
        read::iso_chunk_indices(&self.meta, level, iso)
    }

    /// Reads one level for an isovalue query: chunks provably on one side of
    /// `iso` are skipped and their blocks synthesized as constants at the
    /// chunk's same-side proxy value, so every cell-crossing of `iso` in the
    /// result matches a full decode — while decoding strictly fewer bytes
    /// whenever any chunk is skippable.
    pub fn read_level_iso(&self, level: usize, iso: f32) -> Result<LevelData, StoreError> {
        read::read_level_iso(self, level, iso)
    }

    /// Coarse→fine progressive refinement. Each step decodes the next finer
    /// level and yields the cumulative dense reconstruction at full domain
    /// resolution; the last step equals `read_all().reconstruct(scheme)`.
    pub fn progressive(&self, scheme: Upsample) -> Progressive<'_, Self> {
        read::progressive(self, scheme)
    }
}

impl ChunkSource for StoreReader {
    fn store_meta(&self) -> &StoreMeta {
        &self.meta
    }

    fn chunk(&self, level: usize, block: usize) -> Result<DecodedChunk, StoreError> {
        self.decode_chunk(level, block)
    }

    /// Bulk override: fetching is serial (one pass over the file, friendly
    /// to the file-backed mutex); decoding fans out per chunk.
    fn chunks(&self, level: usize, indices: &[usize]) -> Result<Vec<DecodedChunk>, StoreError> {
        read::level_meta(&self.meta, level)?;
        let payloads: Vec<(usize, Cow<'_, [u8]>)> = indices
            .iter()
            .map(|&i| Ok((i, self.fetch_chunk_bytes(level, i)?)))
            .collect::<Result<_, StoreError>>()?;
        let decoded: Vec<Result<DecodedChunk, StoreError>> = payloads
            .par_iter()
            .map(|&(i, ref bytes)| self.cut(level, i, bytes))
            .collect();
        decoded.into_iter().collect()
    }

    /// Pools every slab `Arc::get_mut` proves nobody else holds — a slab a
    /// borrowed answer or a cache keeps is left alone.
    fn recycle(&self, chunks: Vec<DecodedChunk>) {
        let mut pool = SlabPool::lock();
        for mut c in chunks {
            if Arc::get_mut(&mut c.data).is_some() {
                pool.put(c.data);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hqmr_grid::synth;
    use hqmr_mr::{to_adaptive, RoiConfig};

    fn test_mr() -> MultiResData {
        let f = synth::nyx_like(32, 9);
        to_adaptive(&f, &RoiConfig::new(8, 0.5))
    }

    fn eb() -> f64 {
        1e6 // nyx-scale values ~1e8
    }

    #[test]
    fn roundtrip_through_memory() {
        let mr = test_mr();
        let cfg = StoreConfig::new(eb()).with_chunk_blocks(4);
        let buf = write_store(&mr, &cfg, &NullCodec);
        let r = StoreReader::from_bytes(buf).unwrap();
        assert_eq!(r.codec_name(), "null");
        let back = r.read_all().unwrap();
        assert_eq!(back, mr, "null codec must round-trip losslessly");
    }

    #[test]
    fn write_into_reuses_buffer_and_matches() {
        let mr = test_mr();
        let cfg = StoreConfig::new(eb()).with_chunk_blocks(4);
        let codec = Sz3Codec::default();
        let fresh = write_store(&mr, &cfg, &codec);
        // Pre-dirty the buffer: `encode_prepared_store_into` must clear and
        // reproduce the exact same bytes while keeping the allocation.
        let mut buf = vec![0xABu8; 1 << 20];
        let cap = buf.capacity();
        encode_prepared_store_into(&mr, &prepare_store(&mr, &cfg), &cfg, &codec, &mut buf);
        assert_eq!(buf, fresh, "buffer-reuse write drifted from write_store");
        assert!(buf.capacity() >= cap.min(fresh.len()), "allocation reused");
    }

    #[test]
    fn roundtrip_through_file() {
        let mr = test_mr();
        let cfg = StoreConfig::new(eb());
        let codec = Sz3Codec::default();
        let buf = write_store(&mr, &cfg, &codec);
        let path = std::env::temp_dir().join("hqmr_store_file_test.hqst");
        std::fs::write(&path, &buf).unwrap();
        let from_file = StoreReader::open(&path).unwrap().read_all().unwrap();
        let from_mem = StoreReader::from_bytes(buf).unwrap().read_all().unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(from_file, from_mem);
    }

    #[test]
    fn chunking_follows_config() {
        let mr = test_mr();
        let fine_blocks = mr.levels[0].blocks.len();
        assert!(fine_blocks > 4, "need a multi-block level");
        let one = write_store(
            &mr,
            &StoreConfig::new(eb()).one_chunk_per_level(),
            &NullCodec,
        );
        let many = write_store(
            &mr,
            &StoreConfig::new(eb()).with_chunk_blocks(1),
            &NullCodec,
        );
        let one = StoreReader::from_bytes(one).unwrap();
        let many = StoreReader::from_bytes(many).unwrap();
        assert_eq!(one.meta().levels[0].chunks.len(), 1);
        assert_eq!(many.meta().levels[0].chunks.len(), fine_blocks);
    }

    #[test]
    fn reader_counts_bytes() {
        let mr = test_mr();
        let cfg = StoreConfig::new(eb()).with_chunk_blocks(2);
        let r = StoreReader::from_bytes(write_store(&mr, &cfg, &NullCodec)).unwrap();
        assert_eq!(r.bytes_decoded(), 0);
        r.read_level(0).unwrap();
        assert_eq!(
            r.bytes_decoded(),
            r.meta().levels[0].compressed_bytes(),
            "a full level read decodes exactly the level's chunk bytes"
        );
        r.reset_counters();
        assert_eq!(r.bytes_decoded(), 0);
        assert_eq!(r.chunks_decoded(), 0);
    }

    #[test]
    fn open_failures_are_typed_with_path_context() {
        let missing = std::env::temp_dir().join("hqmr_store_definitely_missing.hqst");
        std::fs::remove_file(&missing).ok();
        let err = StoreReader::open(&missing)
            .map(|_| ())
            .expect_err("missing file must not open");
        match err {
            StoreError::Open { path, source } => {
                assert_eq!(path, missing);
                assert_eq!(source.kind(), std::io::ErrorKind::NotFound);
                let msg = format!("{}", StoreError::Open { path, source });
                assert!(msg.contains("hqmr_store_definitely_missing"), "{msg}");
            }
            other => panic!("expected typed Open error, got {other:?}"),
        }
        // A file that ends mid-prefix is Truncated, not a panic.
        let stub = std::env::temp_dir().join("hqmr_store_stub_prefix.hqst");
        std::fs::write(&stub, b"HQ").unwrap();
        assert!(matches!(
            StoreReader::open(&stub),
            Err(StoreError::Truncated)
        ));
        std::fs::remove_file(&stub).ok();
    }

    #[test]
    fn no_such_level_and_bad_roi_are_typed() {
        let mr = test_mr();
        let r =
            StoreReader::from_bytes(write_store(&mr, &StoreConfig::new(eb()), &NullCodec)).unwrap();
        assert!(matches!(r.read_level(99), Err(StoreError::NoSuchLevel(99))));
        let d = r.meta().levels[0].dims;
        assert!(matches!(
            r.read_roi(0, [0; 3], [d.nx + 1, d.ny, d.nz], 0.0),
            Err(StoreError::RoiOutOfBounds)
        ));
        assert!(matches!(
            r.read_roi(0, [3, 0, 0], [3, d.ny, d.nz], 0.0),
            Err(StoreError::RoiOutOfBounds)
        ));
    }

    #[test]
    fn progressive_refines_to_full_reconstruction() {
        let mr = test_mr();
        let cfg = StoreConfig::new(eb()).with_chunk_blocks(4);
        let r = StoreReader::from_bytes(write_store(&mr, &cfg, &NullCodec)).unwrap();
        let mut walk = r.progressive(Upsample::Nearest);
        let steps: Vec<RefinementStep> = walk.by_ref().collect::<Result<_, _>>().unwrap();
        // The last step gave its accumulator away; the walk stays finished.
        assert!(walk.next().is_none());
        assert_eq!(steps.len(), mr.levels.len());
        // Coarse→fine order.
        for w in steps.windows(2) {
            assert!(w[0].level > w[1].level);
        }
        let full = r.read_all().unwrap().reconstruct(Upsample::Nearest);
        assert_eq!(steps.last().unwrap().field, full);
    }

    #[test]
    fn iso_read_skips_chunks_but_keeps_crossings() {
        // A smooth ramp field: most chunks are provably far from the isovalue.
        let f = Field3::from_fn(Dims3::new(8, 8, 64), |x, y, z| (x + y + z) as f32);
        let mr = to_adaptive(&f, &RoiConfig::new(8, 1.0));
        let cfg = StoreConfig {
            eb: 0.01,
            merge: MergeStrategy::Linear,
            pad: None,
            chunk_blocks: 1,
            parity_group: 0,
        };
        let r = StoreReader::from_bytes(write_store(&mr, &cfg, &Sz3Codec::default())).unwrap();
        let iso = 40.0f32;
        let kept = r.iso_chunk_indices(0, iso).unwrap();
        let total = r.meta().levels[0].chunks.len();
        assert!(
            !kept.is_empty() && kept.len() < total,
            "{}/{total}",
            kept.len()
        );

        r.reset_counters();
        let full = r.read_level(0).unwrap();
        let full_bytes = r.bytes_decoded();
        r.reset_counters();
        let skim = r.read_level_iso(0, iso).unwrap();
        let skim_bytes = r.bytes_decoded();
        assert!(skim_bytes < full_bytes, "{skim_bytes} !< {full_bytes}");
        assert_eq!(skim.blocks.len(), full.blocks.len(), "proxy blocks present");
        let (cd, a) = hqmr_vis::cell_crossings(&full.to_field(0.0), iso);
        let (_, b) = hqmr_vis::cell_crossings(&skim.to_field(0.0), iso);
        assert_eq!(a, b, "crossings must survive chunk skipping ({cd})");
    }

    /// A slab of `len` cells whose first cell is `tag`, to tell slabs apart.
    fn slab(len: usize, tag: f32) -> Arc<[f32]> {
        let mut cells = vec![0.0; len];
        cells[0] = tag;
        cells.into()
    }

    /// The pool's slabs by tag, oldest first, after checking its tally.
    fn tags(pool: &SlabPool) -> Vec<f32> {
        let cells: usize = pool.slabs.iter().map(|s| s.len()).sum();
        assert_eq!(pool.cells, cells);
        pool.slabs.iter().map(|s| s[0]).collect()
    }

    #[test]
    fn the_slab_pool_hands_out_exact_lengths_oldest_first() {
        let mut pool = SlabPool::new();
        for (len, tag) in [(10, 1.0), (20, 2.0), (10, 3.0)] {
            pool.put(slab(len, tag));
        }
        let hit = pool.take(20).unwrap();
        assert_eq!((hit.len(), hit[0]), (20, 2.0));
        assert_eq!(pool.take(10).unwrap()[0], 1.0);
        assert_eq!(tags(&pool), [3.0]);
    }

    #[test]
    fn a_slab_pool_miss_drops_as_many_old_cells_as_it_allocates() {
        let mut pool = SlabPool::new();
        for tag in 0..4 {
            pool.put(slab(100, tag as f32));
        }
        assert!(pool.take(150).is_none());
        assert_eq!(tags(&pool), [2.0, 3.0]);
        // A length over the cap is never pooled, so its miss drops nothing.
        assert!(pool.take(read::WINDOW_CELLS + 1).is_none());
        assert_eq!(tags(&pool), [2.0, 3.0]);
    }

    #[test]
    fn the_slab_pool_holds_at_most_one_window_and_drops_the_oldest_first() {
        let (cap, mut pool) = (read::WINDOW_CELLS, SlabPool::new());
        pool.put(slab(cap + 1, 9.0));
        pool.put(Vec::new().into());
        assert_eq!(tags(&pool), [0.0; 0], "over the cap, or empty: not kept");
        for tag in 0..2 {
            pool.put(slab(100, tag as f32));
        }
        pool.put(slab(cap / 2, 5.0));
        pool.put(slab(cap / 2, 6.0));
        assert_eq!((tags(&pool), pool.cells), (vec![5.0, 6.0], cap));
        pool.put(slab(1, 7.0));
        assert_eq!(tags(&pool), [6.0, 7.0]);
    }

    #[test]
    fn a_level_sized_decode_drops_its_scratch_and_a_default_chunk_keeps_it() {
        // One unit-16 level of 256 blocks along z: `PAR_MIN_CELLS` cells,
        // one padded 17×17×4096 array at one chunk per level.
        let unit = 16;
        let dims = Dims3::new(unit, unit, 256 * unit);
        let blocks = (0..256)
            .map(|i| UnitBlock {
                origin: [0, 0, i * unit],
                data: vec![i as f32; unit.pow(3)],
            })
            .collect();
        let mr = MultiResData {
            domain: dims,
            levels: vec![LevelData {
                level: 0,
                unit,
                dims,
                blocks,
            }],
        };
        assert!(mr.total_cells() >= PAR_MIN_CELLS);
        let scratch_cells = || DECODE_SCRATCH.with(|s| s.borrow().len());
        let decode_first = |cfg: &StoreConfig| {
            let r = StoreReader::from_bytes(write_store(&mr, cfg, &NullCodec)).unwrap();
            r.decode_chunk(0, 0).unwrap()
        };
        let whole = decode_first(&StoreConfig::new(eb()).one_chunk_per_level());
        assert_eq!(whole.data.len(), mr.total_cells());
        assert_eq!(scratch_cells(), 0, "a level-sized scratch is dropped");
        let first = decode_first(&StoreConfig::new(eb()));
        assert!(first.data.len() < PAR_MIN_CELLS);
        assert!(
            scratch_cells() >= first.data.len(),
            "a default chunk's is kept"
        );
    }
}
