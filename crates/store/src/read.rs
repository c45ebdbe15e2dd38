//! Provider-generic read paths: one implementation of level / ROI / isovalue
//! / progressive assembly, shared by the bare [`StoreReader`] and any caching
//! layer stacked on top of it (`hqmr-serve`'s `StoreServer`).
//!
//! The split is deliberate: *where decoded chunks come from* (the
//! [`ChunkSource`] trait — decode on demand, or serve from an LRU cache with
//! single-flight deduplication) is orthogonal to *how query results are
//! assembled from them* (the free functions in this module). Because both the
//! cached and the uncached reader funnel through the same assembly code,
//! byte-identical results across the two paths are a structural property,
//! not a testing aspiration — the differential suite in
//! `crates/serve/tests/` then pins it down anyway.
//!
//! # One walk per query kind, owned or by reference
//!
//! An answer is a fixed arrangement of chunk slabs: an ROI is the clipped
//! `z`-rows of the intersecting blocks over a field of `fill`; a level (or
//! an isovalue read of one) is its `(origin, block)` pairs in raster order,
//! a skipped chunk's blocks being constants. Each arrangement is computed by
//! exactly one function — [`RoiParts::for_each_row`], `level_blocks` — and
//! comes in two forms. The *borrowed* form ([`roi_parts`], [`level_parts`])
//! holds the decoded chunks' `Arc`s and names the slabs in place: a server
//! whose chunks sit in a cache anyway answers with it, and a wire encoder
//! writes its frame from the slabs without an intermediate [`Field3`] or
//! [`UnitBlock`]. The *owned* form ([`read_roi`], [`read_level`],
//! [`read_level_iso`]) is the same walk copying out — for an ROI literally
//! `to_owned()` of the borrowed one; for a level the walk with owned
//! payloads, so that it can stay windowed (below). `to_owned()` of a
//! borrowed answer always equals the owned read.
//!
//! # Whole-level reads are windowed
//!
//! [`read_level`], [`read_level_iso`] and [`Progressive`] touch every chunk
//! of a level, and what they build from a chunk — owned [`UnitBlock`]s, rows
//! of the cumulative field — is a copy of its slab. They therefore ask the
//! source for a *window* of consecutive chunks at a time (about
//! `WINDOW_CELLS` decoded cells, through the ordinary
//! [`ChunkSource::chunks`], so every source — bare, cached, traced — serves
//! them unchanged), consume the window's slabs while they are still in
//! cache, and hand them back ([`ChunkSource::recycle`]) before asking for
//! the next. Transient heap is O(window) instead of a second copy of the
//! level. Each chunk is still fetched and decoded exactly once per call.
//!
//! A window is also the unit the copying fans out over: the owned reads copy
//! its chunks out side by side (answer order kept; an isovalue read fills
//! its skipped chunks' constant blocks side by side too), and [`Progressive`]
//! lands all of its blocks as one batch, whose destination `x`-planes
//! [`Field3::insert_boxes_replicated`] spreads across cores — copies and the
//! first-touch faults of the fresh accumulator alike. The accumulator and
//! each step's copy come from [`Field3::try_zeros`], so where the kernel
//! grants its huge-page hint a 64 MiB step faults in 32 times instead of
//! 16 384. ROI reads hold few chunks and keep the single bulk request;
//! [`level_parts`] keeps every chunk by design — it is for sources that
//! hold them already.
//!
//! # Slab storage outlives the walk
//!
//! A freed slab need not stay with the process: the system allocator may
//! hand its pages back to the kernel (glibc trims the top of its heap), and
//! the next window faults them in again. So the owned walks — every window
//! of [`read_level`], [`read_level_iso`], [`read_all`] and [`Progressive`],
//! and [`read_roi`] once its answer is copied out — hand their chunks back
//! to the source, and the bare [`StoreReader`] keeps each slab that
//! `Arc::get_mut` proves nobody else holds in one process-lifetime pool.
//! Every chunk decode ([`decode_stream`]) draws a slab of the exact length
//! from there before it allocates one, so a steady reader — fresh readers
//! of one store included — decodes into the same pages walk after walk.
//!
//! The pool holds at most one window of cells, drops its oldest slabs past
//! that, and on a miss drops old slabs worth the fresh one, so pool plus
//! live window stay about one window: the bound the windows set. A slab a
//! borrowed answer ([`roi_parts`], [`level_parts`]) or a cache still holds
//! fails the `get_mut` proof and is never reused. Only the bare reader
//! fills the pool; the trait's default `recycle` drops the chunks. A cache
//! keeps its slabs, and a temporal frame's actual-value chunks are not the
//! decoded slabs, so pooling them would only hold heap. A cache's misses
//! still draw, so what bare reads left in the pool drains into the cache's
//! budget instead of sitting beside it.
//!
//! [`StoreReader`]: crate::StoreReader
//! [`decode_stream`]: crate::decode_stream

use crate::format::{LevelMeta, StoreError, StoreMeta};
use hqmr_grid::{Dims3, Field3};
use hqmr_mr::{insert_blocks_upsampled, LevelData, MultiResData, UnitBlock, Upsample};
use rayon::prelude::*;
use std::sync::Arc;

/// Decoded cells (4 MiB of `f32`) a whole-level reader requests per call to
/// [`ChunkSource::chunks`]: sixteen default chunks — enough work per fan-out
/// to pay for the rayon shim's thread spawns many times over, small enough
/// that a window's slabs are consumed out of cache.
pub(crate) const WINDOW_CELLS: usize = 1 << 20;

/// One chunk, decoded: every unit block of the chunk as one immutable,
/// cheaply shareable slab.
///
/// `data` holds `origins.len() × unit³` values — block `i`'s cube lives at
/// `data[i·unit³ .. (i+1)·unit³]`, in the chunk table's slot order (not
/// sorted by origin). Both payload and origin list sit behind `Arc`, so a
/// clone is two reference-count bumps: the decoded-chunk cache hands the
/// same allocation to every concurrent client instead of copying per
/// request.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedChunk {
    /// Unit block side length.
    pub unit: usize,
    /// Level-local origin of each block, in slot order.
    pub origins: Arc<[[usize; 3]]>,
    /// `origins.len() × unit³` values, one contiguous slab per block.
    pub data: Arc<[f32]>,
}

impl DecodedChunk {
    /// Number of unit blocks in the chunk.
    pub fn block_count(&self) -> usize {
        self.origins.len()
    }

    /// Block `i`'s `unit³` values (slot order).
    pub fn block_data(&self, i: usize) -> &[f32] {
        let n = self.unit.pow(3);
        &self.data[i * n..(i + 1) * n]
    }

    /// Materializes owned [`UnitBlock`]s (needed when the caller keeps a
    /// [`LevelData`]; ROI assembly reads the slab in place instead).
    pub fn to_blocks(&self) -> impl Iterator<Item = UnitBlock> + '_ {
        self.origins
            .iter()
            .enumerate()
            .map(|(i, &origin)| UnitBlock {
                origin,
                data: self.block_data(i).to_vec(),
            })
    }

    /// Heap footprint of the shared allocations, the unit a cache budget is
    /// charged in.
    pub fn resident_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
            + self.origins.len() * std::mem::size_of::<[usize; 3]>()
    }
}

/// Where decoded chunks come from.
///
/// [`StoreReader`] implements this by fetching and decoding on every call;
/// `hqmr-serve`'s `StoreServer` implements it with an LRU cache and
/// single-flight decode in front of the same reader. Every read path in this
/// module is generic over the trait, so a caching layer inherits level, ROI,
/// isovalue and progressive reads without duplicating any assembly logic.
///
/// [`StoreReader`]: crate::StoreReader
pub trait ChunkSource: Sync {
    /// The store's directory.
    fn store_meta(&self) -> &StoreMeta;

    /// Produces one decoded chunk.
    fn chunk(&self, level: usize, block: usize) -> Result<DecodedChunk, StoreError>;

    /// Produces many chunks of one level, result in `indices` order. The
    /// default fans out per chunk through the rayon shim; implementations
    /// with a cheaper bulk path (serial file fetch, bulk cache probe)
    /// override it.
    fn chunks(&self, level: usize, indices: &[usize]) -> Result<Vec<DecodedChunk>, StoreError> {
        let decoded: Vec<Result<DecodedChunk, StoreError>> =
            indices.par_iter().map(|&i| self.chunk(level, i)).collect();
        decoded.into_iter().collect()
    }

    /// Takes back chunks an owned walk has finished copying out of (module
    /// docs, "Slab storage outlives the walk"). The default drops them; the
    /// bare reader pools the slabs nobody else holds.
    fn recycle(&self, _chunks: Vec<DecodedChunk>) {}
}

/// Looks up a level's directory entry.
pub(crate) fn level_meta(meta: &StoreMeta, level: usize) -> Result<&LevelMeta, StoreError> {
    meta.levels.get(level).ok_or(StoreError::NoSuchLevel(level))
}

/// Splits `indices` (chunks of level `lm`, in request order) into consecutive
/// windows of at most `budget` decoded cells; a chunk larger than the budget
/// is a window of its own.
fn windows<'a>(
    lm: &'a LevelMeta,
    indices: &'a [usize],
    budget: usize,
) -> impl Iterator<Item = &'a [usize]> {
    let mut rest = indices;
    std::iter::from_fn(move || {
        let mut cells = 0usize;
        let fits = rest.iter().enumerate().take_while(|&(k, &i)| {
            let c = &lm.chunks[i];
            cells = cells.saturating_add(c.slots.len().saturating_mul(c.unit.saturating_pow(3)));
            k == 0 || cells <= budget
        });
        let (window, tail) = rest.split_at(fits.count());
        rest = tail;
        (!window.is_empty()).then_some(window)
    })
}

/// Hands the chunks of `indices` to `land`, in order, one window of the
/// level at a time (module docs).
fn for_each_window<S: ChunkSource + ?Sized>(
    src: &S,
    level: usize,
    lm: &LevelMeta,
    indices: &[usize],
    mut land: impl FnMut(&[DecodedChunk]),
) -> Result<(), StoreError> {
    for window in windows(lm, indices, WINDOW_CELLS) {
        let chunks = src.chunks(level, window)?;
        land(&chunks);
        src.recycle(chunks);
    }
    Ok(())
}

/// Blocks of a level answer, each with its origin.
type Placed<B> = Vec<([usize; 3], B)>;

/// One block of a level answer, by reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BlockData<'a> {
    /// A decoded block: its `unit³` values, in place in the chunk's slab.
    Slab(&'a [f32]),
    /// A block of a chunk an isovalue read skipped: `unit³` copies of the
    /// chunk's same-side proxy value.
    Proxy(f32),
}

/// Where a [`LevelParts`] block lives.
#[derive(Debug, Clone, Copy)]
enum BlockSrc {
    /// Block `slot` of `LevelParts::chunks[chunk]`.
    Slab {
        chunk: usize,
        slot: usize,
    },
    Proxy(f32),
}

/// A [`read_level`] / [`read_level_iso`] answer still in its decoded chunks:
/// the answer's blocks in answer order, each naming a slab of a chunk this
/// value keeps alive (or a proxy constant). [`LevelParts::to_owned`] copies
/// them out into the [`LevelData`] an in-process caller keeps; a wire encoder
/// walks [`LevelParts::blocks`] and writes the slabs where they lie.
#[derive(Debug, Clone)]
pub struct LevelParts {
    /// Refinement distance from the finest level.
    pub level: usize,
    /// Unit block side length.
    pub unit: usize,
    /// Level-resolution domain extents.
    pub dims: Dims3,
    chunks: Vec<DecodedChunk>,
    blocks: Placed<BlockSrc>,
}

impl LevelParts {
    /// Number of blocks in the answer.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// `(origin, data)` of every block, in answer (raster) order.
    pub fn blocks(&self) -> impl Iterator<Item = ([usize; 3], BlockData<'_>)> {
        self.blocks.iter().map(|&(origin, src)| {
            let data = match src {
                BlockSrc::Slab { chunk, slot } => {
                    BlockData::Slab(self.chunks[chunk].block_data(slot))
                }
                BlockSrc::Proxy(value) => BlockData::Proxy(value),
            };
            (origin, data)
        })
    }

    /// The owned answer: what [`read_level`] / [`read_level_iso`] return.
    pub fn to_owned(&self) -> LevelData {
        let cells = self.unit.pow(3);
        let blocks = self.blocks().map(|(origin, data)| UnitBlock {
            origin,
            data: match data {
                BlockData::Slab(values) => values.to_vec(),
                BlockData::Proxy(value) => vec![value; cells],
            },
        });
        LevelData {
            level: self.level,
            unit: self.unit,
            dims: self.dims,
            blocks: blocks.collect(),
        }
    }
}

/// The one level assembly: every block of `level` paired with its origin, in
/// answer order. Chunks arrive a window at a time and `land` turns the
/// window's chunks into their blocks' payloads, in chunk order — owned copies
/// or references, the caller's choice;
/// with `iso`, chunks provably on one side of it are not fetched and their
/// blocks become `proxy` of the chunk's same-side value instead.
fn level_blocks<S: ChunkSource + ?Sized, B>(
    src: &S,
    level: usize,
    iso: Option<f32>,
    mut land: impl FnMut(&[DecodedChunk], &mut Placed<B>),
    proxy: impl Fn(f32) -> B,
) -> Result<Placed<B>, StoreError> {
    let meta = src.store_meta();
    let lm = level_meta(meta, level)?;
    let keep: Vec<usize> = match iso {
        Some(iso) => iso_chunk_indices(meta, level, iso)?,
        None => (0..lm.chunks.len()).collect(),
    };
    let mut blocks = Vec::new();
    for_each_window(src, level, lm, &keep, |w| land(w, &mut blocks))?;
    if let Some(iso) = iso {
        // `keep` ascends, so the skipped chunks fall out of one merge-walk.
        let mut kept = keep.iter().peekable();
        for (i, c) in lm.chunks.iter().enumerate() {
            if kept.next_if_eq(&&i).is_none() {
                let value = c.proxy_value(iso);
                blocks.extend(c.slots.iter().map(|&(_, origin)| (origin, proxy(value))));
            }
        }
    }
    blocks.sort_by_key(|&(origin, _)| origin);
    Ok(blocks)
}

/// [`level_blocks`] with owned payloads: each window's slabs are copied out,
/// its chunks fanned out across cores, and dropped before the next window is
/// requested (module docs). A skipped chunk's blocks are placed as their
/// proxy value (`Err`) and filled out to constant blocks side by side once
/// the walk is done.
fn owned_level<S: ChunkSource + ?Sized>(
    src: &S,
    level: usize,
    iso: Option<f32>,
) -> Result<LevelData, StoreError> {
    let lm = level_meta(src.store_meta(), level)?;
    let cells = lm.unit.pow(3);
    let constant = |value| vec![value; cells];
    let mut blocks = level_blocks(
        src,
        level,
        iso,
        |w, out| {
            let copies: Vec<Vec<_>> = w
                .par_iter()
                .map(|c| c.to_blocks().map(|b| (b.origin, Ok(b.data))).collect())
                .collect();
            out.extend(copies.into_iter().flatten());
        },
        Err,
    )?;
    if iso.is_some() {
        blocks.par_chunks_mut(1).for_each(|run| {
            for (_, data) in run {
                if let Err(value) = *data {
                    *data = Ok(constant(value));
                }
            }
        });
    }
    Ok(LevelData {
        level: lm.level,
        unit: lm.unit,
        dims: lm.dims,
        blocks: (blocks.into_iter())
            .map(|(origin, data)| UnitBlock {
                origin,
                data: data.unwrap_or_else(constant),
            })
            .collect(),
    })
}

/// [`read_level`] (`iso: None`) or [`read_level_iso`] by reference — the same
/// walk with borrowed payloads: the chunks stay whole and alive in the
/// result, and `to_owned()` of it equals the owned read.
pub fn level_parts<S: ChunkSource + ?Sized>(
    src: &S,
    level: usize,
    iso: Option<f32>,
) -> Result<LevelParts, StoreError> {
    let lm = level_meta(src.store_meta(), level)?;
    let mut chunks = Vec::new();
    let blocks = level_blocks(
        src,
        level,
        iso,
        |w, out| {
            for c in w {
                let chunk = chunks.len();
                chunks.push(c.clone());
                let slabs = c.origins.iter().enumerate();
                out.extend(slabs.map(|(slot, &origin)| (origin, BlockSrc::Slab { chunk, slot })));
            }
        },
        BlockSrc::Proxy,
    )?;
    Ok(LevelParts {
        level: lm.level,
        unit: lm.unit,
        dims: lm.dims,
        chunks,
        blocks,
    })
}

/// Reads one whole resolution level from `src`.
pub fn read_level<S: ChunkSource + ?Sized>(src: &S, level: usize) -> Result<LevelData, StoreError> {
    owned_level(src, level, None)
}

/// Reads every level of `src` (the store equivalent of `decompress_mr`).
pub fn read_all<S: ChunkSource + ?Sized>(src: &S) -> Result<MultiResData, StoreError> {
    let meta = src.store_meta();
    let levels = (0..meta.levels.len())
        .map(|l| read_level(src, l))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(MultiResData {
        domain: meta.domain,
        levels,
    })
}

/// Indices of the chunks whose unit blocks intersect `[lo, hi)` (level cell
/// coordinates) — pure chunk-table accounting, no decoding. Also the query
/// planner's unit: a batched ROI request unions these sets across requests.
pub fn roi_chunk_indices(
    meta: &StoreMeta,
    level: usize,
    lo: [usize; 3],
    hi: [usize; 3],
) -> Result<Vec<usize>, StoreError> {
    let lm = level_meta(meta, level)?;
    let d = lm.dims;
    if hi[0] > d.nx || hi[1] > d.ny || hi[2] > d.nz || (0..3).any(|a| lo[a] >= hi[a]) {
        return Err(StoreError::RoiOutOfBounds);
    }
    Ok(lm
        .chunks
        .iter()
        .enumerate()
        .filter(|(_, c)| c.intersects(lo, hi))
        .map(|(i, _)| i)
        .collect())
}

/// A [`read_roi`] answer still in its decoded chunks: the box, the fill, and
/// the intersecting chunks kept alive. [`RoiParts::to_owned`] lands the
/// clipped rows in the dense [`Field3`] an in-process caller keeps; a wire
/// encoder lands the same rows ([`RoiParts::for_each_row`]) in its frame.
#[derive(Debug, Clone)]
pub struct RoiParts {
    lo: [usize; 3],
    hi: [usize; 3],
    fill: f32,
    unit: usize,
    chunks: Vec<DecodedChunk>,
}

impl RoiParts {
    /// Extents of the dense answer, `hi − lo`.
    pub fn dims(&self) -> Dims3 {
        let [lo, hi] = [self.lo, self.hi];
        Dims3::new(hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2])
    }

    /// The value of every cell no unit block covers.
    pub fn fill(&self) -> f32 {
        self.fill
    }

    /// Hands `row` every covered run of the dense answer: `(at, values)`
    /// overwrites cells `at..at + values.len()` (raster order, `z` fastest).
    /// Runs come in chunk-table order; cells no run names hold the fill.
    pub fn for_each_row(&self, mut row: impl FnMut(usize, &[f32])) {
        let (lo, hi, u) = (self.lo, self.hi, self.unit);
        let (dims, bd) = (self.dims(), Dims3::cube(u));
        for c in &self.chunks {
            for (k, &origin) in c.origins.iter().enumerate() {
                // Clip the block to the ROI.
                let data = c.block_data(k);
                let blo: [usize; 3] = std::array::from_fn(|a| origin[a].max(lo[a]));
                let bhi: [usize; 3] = std::array::from_fn(|a| (origin[a] + u).min(hi[a]));
                if (0..3).any(|a| blo[a] >= bhi[a]) {
                    continue;
                }
                // `z` is contiguous in both layouts: one run per clipped z-row.
                let zn = bhi[2] - blo[2];
                for x in blo[0]..bhi[0] {
                    for y in blo[1]..bhi[1] {
                        let src = bd.idx(x - origin[0], y - origin[1], blo[2] - origin[2]);
                        let dst = dims.idx(x - lo[0], y - lo[1], blo[2] - lo[2]);
                        row(dst, &data[src..src + zn]);
                    }
                }
            }
        }
    }

    /// The owned answer: what [`read_roi`] returns.
    pub fn to_owned(&self) -> Field3 {
        let mut out = Field3::new(self.dims(), self.fill);
        let cells = out.data_mut();
        self.for_each_row(|at, values| cells[at..at + values.len()].copy_from_slice(values));
        out
    }
}

/// [`read_roi`] by reference: decodes (or fetches from `src`'s cache) only
/// the intersecting chunks and holds them; `to_owned()` of the result equals
/// [`read_roi`].
pub fn roi_parts<S: ChunkSource + ?Sized>(
    src: &S,
    level: usize,
    lo: [usize; 3],
    hi: [usize; 3],
    fill: f32,
) -> Result<RoiParts, StoreError> {
    let indices = roi_chunk_indices(src.store_meta(), level, lo, hi)?;
    Ok(RoiParts {
        lo,
        hi,
        fill,
        unit: level_meta(src.store_meta(), level)?.unit,
        chunks: src.chunks(level, &indices)?,
    })
}

/// Reads the axis-aligned box `[lo, hi)` of one level, decoding only the
/// intersecting chunks. Returns a dense field of dims `hi − lo`; cells not
/// covered by any unit block hold `fill`. Equals the same region cropped out
/// of `read_level(level).to_field(fill)`.
pub fn read_roi<S: ChunkSource + ?Sized>(
    src: &S,
    level: usize,
    lo: [usize; 3],
    hi: [usize; 3],
    fill: f32,
) -> Result<Field3, StoreError> {
    let parts = roi_parts(src, level, lo, hi, fill)?;
    let field = parts.to_owned();
    src.recycle(parts.chunks);
    Ok(field)
}

/// Indices of the chunks that *may* contain a crossing of `iso`, judged from
/// the chunk table's min/max widened by the stored error bound.
pub fn iso_chunk_indices(
    meta: &StoreMeta,
    level: usize,
    iso: f32,
) -> Result<Vec<usize>, StoreError> {
    let eb = meta.eb;
    Ok(level_meta(meta, level)?
        .chunks
        .iter()
        .enumerate()
        .filter(|(_, c)| c.may_cross(iso, eb))
        .map(|(i, _)| i)
        .collect())
}

/// Reads one level for an isovalue query: chunks provably on one side of
/// `iso` are skipped and their blocks synthesized as constants at the chunk's
/// same-side proxy value, so every cell-crossing of `iso` in the result
/// matches a full decode — while decoding strictly fewer bytes whenever any
/// chunk is skippable.
pub fn read_level_iso<S: ChunkSource + ?Sized>(
    src: &S,
    level: usize,
    iso: f32,
) -> Result<LevelData, StoreError> {
    owned_level(src, level, Some(iso))
}

/// One step of progressive refinement.
#[derive(Debug, Clone, PartialEq)]
pub struct RefinementStep {
    /// Level index (refinement distance) decoded in this step; the remaining
    /// finer levels are not yet part of the reconstruction.
    pub level: usize,
    /// Cumulative reconstruction at full domain resolution. Regions owned by
    /// not-yet-decoded levels are still zero-filled.
    pub field: Field3,
}

/// Coarse→fine progressive refinement over any chunk source. Each step
/// decodes the next finer level and yields the cumulative dense
/// reconstruction at full domain resolution; the last step equals
/// `read_all(src).reconstruct(scheme)`.
pub fn progressive<S: ChunkSource + ?Sized>(src: &S, scheme: Upsample) -> Progressive<'_, S> {
    Progressive {
        src,
        scheme,
        next: None,
        acc: Field3::default(),
    }
}

/// Iterator returned by [`progressive`] (and the `progressive` methods of
/// `StoreReader` / `StoreServer`).
///
/// Nothing is allocated until the first `next()`, which sizes the
/// accumulator by the store's declared domain: a domain no allocator grants
/// is that call's [`StoreError::Malformed`], and the walk ends there.
pub struct Progressive<'a, S: ChunkSource + ?Sized> {
    src: &'a S,
    scheme: Upsample,
    /// `levels[next - 1]` is the next level to decode, counting down in
    /// refinement order (coarsest, the highest index, first); `None` before
    /// the first step.
    next: Option<usize>,
    /// The cumulative reconstruction, refined in place: each step lands only
    /// the newly decoded (finer) level's blocks, straight from their chunk
    /// slabs, so blocks decoded in earlier steps are never copied or
    /// reconstructed again.
    acc: Field3,
}

impl<S: ChunkSource + ?Sized> Progressive<'_, S> {
    /// Decodes `level` a window at a time and lands each window's blocks in
    /// the accumulator as one batch. Coarse→fine order makes in-place landing
    /// match `MultiResData::reconstruct` exactly: finer blocks land later and
    /// overwrite coarser ones; within a level blocks are disjoint, so chunk
    /// order is as good as raster order and nothing is sorted or staged.
    fn refine(&mut self, level: usize) -> Result<(), StoreError> {
        let lm = level_meta(self.src.store_meta(), level)?;
        let indices: Vec<usize> = (0..lm.chunks.len()).collect();
        let (acc, scheme) = (&mut self.acc, self.scheme);
        for_each_window(self.src, level, lm, &indices, |w| {
            let blocks = w.iter().flat_map(|c| {
                (c.origins.iter().enumerate()).map(|(k, &origin)| (origin, c.block_data(k)))
            });
            insert_blocks_upsampled(acc, lm.level, lm.unit, blocks, scheme);
        })
    }

    /// The next refinement step, `Ok(None)` once level 0 has been handed out.
    fn step(&mut self) -> Result<Option<RefinementStep>, StoreError> {
        let meta = self.src.store_meta();
        let next = match self.next {
            Some(next) => next,
            None => {
                self.acc = fresh_field(meta.domain)?;
                meta.levels.len()
            }
        };
        let Some(level) = next.checked_sub(1) else {
            return Ok(None);
        };
        self.next = Some(level);
        self.refine(level)?;
        // The last step hands the accumulator over instead of copying it:
        // nothing refines it further.
        let field = if level == 0 {
            std::mem::take(&mut self.acc)
        } else {
            striped_copy(&self.acc)?
        };
        Ok(Some(RefinementStep { level, field }))
    }
}

/// A zero field of `dims` through `Field3`'s one allocation path (huge pages
/// from 4 MiB on), or `Malformed` for extents no allocator grants.
fn fresh_field(dims: Dims3) -> Result<Field3, StoreError> {
    Field3::try_zeros(dims).ok_or(StoreError::Malformed("domain too large to allocate"))
}

/// Copies `field` in stripes fanned out across the rayon shim. The
/// destination is fresh, lazily zeroed memory that the stripes touch first,
/// so its page faults (2 MiB ones where the kernel grants the hint) overlap
/// across cores.
fn striped_copy(field: &Field3) -> Result<Field3, StoreError> {
    const STRIPE: usize = 1 << 20;
    let src = field.data();
    let mut out = fresh_field(field.dims())?;
    out.data_mut()
        .par_chunks_mut(STRIPE)
        .enumerate()
        .for_each(|(i, out)| out.copy_from_slice(&src[i * STRIPE..][..out.len()]));
    Ok(out)
}

impl<S: ChunkSource + ?Sized> Iterator for Progressive<'_, S> {
    type Item = Result<RefinementStep, StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        let step = self.step().transpose();
        if let Some(Err(_)) = step {
            self.next = Some(0); // poison: no further refinement after an error
        }
        step
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::ChunkMeta;

    /// A level whose chunk `i` decodes to `blocks[i]` unit blocks of 2³ cells.
    fn level(blocks: &[usize]) -> LevelMeta {
        let chunk = |n: usize| ChunkMeta {
            offset: 0,
            len: 0,
            crc: 0,
            min: 0.0,
            max: 0.0,
            enc_dims: Dims3::new(2, 2, 2 * n),
            padded: false,
            unit: 2,
            slots: (0..n).map(|k| ([0, 0, 2 * k], [0, 0, 2 * k])).collect(),
        };
        LevelMeta {
            level: 0,
            unit: 2,
            dims: Dims3::new(2, 2, 2 * blocks.iter().sum::<usize>()),
            chunks: blocks.iter().map(|&n| chunk(n)).collect(),
        }
    }

    #[test]
    fn windows_partition_the_request_within_the_budget() {
        // 8 cells per block: chunks of 16, 16, 16, 40, 8, 8 and 8 cells.
        let lm = level(&[2, 2, 2, 5, 1, 1, 1]);
        let all: Vec<usize> = (0..7).collect();
        let split = |indices: &[usize], budget| -> Vec<Vec<usize>> {
            windows(&lm, indices, budget)
                .map(<[usize]>::to_vec)
                .collect()
        };
        // Exact fits close a window; the oversized chunk gets its own.
        assert_eq!(
            split(&all, 32),
            [vec![0, 1], vec![2], vec![3], vec![4, 5, 6]]
        );
        // A budget below every chunk degrades to one chunk per window.
        assert_eq!(split(&all, 1).len(), 7);
        // One that holds the whole level is a single request.
        assert_eq!(split(&all, 112), std::slice::from_ref(&all));
        assert_eq!(split(&all, 111).len(), 2);
        // Sparse requests (an isovalue's kept set) are walked in order.
        assert_eq!(split(&[1, 4, 6], 24), [vec![1, 4], vec![6]]);
        assert!(split(&[], 32).is_empty());
    }
}
