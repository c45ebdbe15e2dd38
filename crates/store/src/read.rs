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
//! [`StoreReader`]: crate::StoreReader

use crate::format::{LevelMeta, StoreError, StoreMeta};
use hqmr_grid::{Dims3, Field3};
use hqmr_mr::{LevelData, MultiResData, UnitBlock, Upsample};
use rayon::prelude::*;
use std::sync::Arc;

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
}

/// Looks up a level's directory entry.
pub(crate) fn level_meta(meta: &StoreMeta, level: usize) -> Result<&LevelMeta, StoreError> {
    meta.levels.get(level).ok_or(StoreError::NoSuchLevel(level))
}

/// Reads one whole resolution level from `src`.
pub fn read_level<S: ChunkSource + ?Sized>(src: &S, level: usize) -> Result<LevelData, StoreError> {
    let lm = level_meta(src.store_meta(), level)?;
    let indices: Vec<usize> = (0..lm.chunks.len()).collect();
    let (level_no, unit, dims) = (lm.level, lm.unit, lm.dims);
    let decoded = src.chunks(level, &indices)?;
    let mut blocks: Vec<UnitBlock> = decoded.iter().flat_map(DecodedChunk::to_blocks).collect();
    blocks.sort_by_key(|b| b.origin);
    Ok(LevelData {
        level: level_no,
        unit,
        dims,
        blocks,
    })
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
    let indices = roi_chunk_indices(src.store_meta(), level, lo, hi)?;
    let u = level_meta(src.store_meta(), level)?.unit;
    let decoded = src.chunks(level, &indices)?;
    let dims = Dims3::new(hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2]);
    let mut out = Field3::new(dims, fill);
    let bd = Dims3::cube(u);
    for c in &decoded {
        for (k, &origin) in c.origins.iter().enumerate() {
            // Clip the block to the ROI and copy the overlap.
            let data = c.block_data(k);
            let blo: [usize; 3] = std::array::from_fn(|a| origin[a].max(lo[a]));
            let bhi: [usize; 3] = std::array::from_fn(|a| (origin[a] + u).min(hi[a]));
            if (0..3).any(|a| blo[a] >= bhi[a]) {
                continue;
            }
            // `z` is contiguous in both layouts: one copy per clipped z-row.
            let zn = bhi[2] - blo[2];
            for x in blo[0]..bhi[0] {
                for y in blo[1]..bhi[1] {
                    let src = bd.idx(x - origin[0], y - origin[1], blo[2] - origin[2]);
                    let dst = dims.idx(x - lo[0], y - lo[1], blo[2] - lo[2]);
                    out.data_mut()[dst..dst + zn].copy_from_slice(&data[src..src + zn]);
                }
            }
        }
    }
    Ok(out)
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
    let meta = src.store_meta();
    let keep = iso_chunk_indices(meta, level, iso)?;
    let lm = level_meta(meta, level)?;
    let (level_no, unit, dims) = (lm.level, lm.unit, lm.dims);
    let proxies: Vec<(f32, Vec<[usize; 3]>)> = {
        let kept: std::collections::HashSet<usize> = keep.iter().copied().collect();
        lm.chunks
            .iter()
            .enumerate()
            .filter(|(i, _)| !kept.contains(i))
            .map(|(_, c)| {
                (
                    c.proxy_value(iso),
                    c.slots.iter().map(|&(_, origin)| origin).collect(),
                )
            })
            .collect()
    };
    let decoded = src.chunks(level, &keep)?;
    let mut blocks: Vec<UnitBlock> = decoded.iter().flat_map(DecodedChunk::to_blocks).collect();
    for (proxy, origins) in proxies {
        blocks.extend(origins.into_iter().map(|origin| UnitBlock {
            origin,
            data: vec![proxy; unit.pow(3)],
        }));
    }
    blocks.sort_by_key(|b| b.origin);
    Ok(LevelData {
        level: level_no,
        unit,
        dims,
        blocks,
    })
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
        // Refinement order: coarsest (highest level index) first.
        next: src.store_meta().levels.len(),
        acc: Field3::zeros(src.store_meta().domain),
    }
}

/// Iterator returned by [`progressive`] (and the `progressive` methods of
/// `StoreReader` / `StoreServer`).
pub struct Progressive<'a, S: ChunkSource + ?Sized> {
    src: &'a S,
    scheme: Upsample,
    /// `levels[next]` is the next level to decode, counting down to 0.
    next: usize,
    /// The cumulative reconstruction, refined in place: each step overlays
    /// only the newly decoded (finer) level's upsampled blocks, so blocks
    /// decoded in earlier steps are never copied or reconstructed again.
    acc: Field3,
}

impl<S: ChunkSource + ?Sized> Iterator for Progressive<'_, S> {
    type Item = Result<RefinementStep, StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.next == 0 {
            return None;
        }
        self.next -= 1;
        let level = self.next;
        match read_level(self.src, level) {
            Ok(lvl) => {
                // Coarse→fine order means in-place insertion matches
                // `MultiResData::reconstruct` exactly: finer blocks land
                // later and overwrite coarser ones.
                let factor = 1usize << lvl.level;
                for b in &lvl.blocks {
                    let origin = [
                        b.origin[0] * factor,
                        b.origin[1] * factor,
                        b.origin[2] * factor,
                    ];
                    if factor == 1 {
                        // Finest level: no upsampling, land the block data
                        // directly without a temporary field.
                        self.acc
                            .insert_box_from(origin, Dims3::cube(lvl.unit), &b.data);
                        continue;
                    }
                    let mut block = Field3::from_vec(Dims3::cube(lvl.unit), b.data.clone());
                    let mut f = factor;
                    while f > 1 {
                        let target = block.dims().scaled(2);
                        block = match self.scheme {
                            Upsample::Nearest => block.upsample2_nearest(target),
                            Upsample::Trilinear => block.upsample2_trilinear(target),
                        };
                        f /= 2;
                    }
                    self.acc.insert_box(origin, &block);
                }
                // The last step hands the accumulator over instead of
                // copying it: nothing refines it further.
                let field = if level == 0 {
                    std::mem::take(&mut self.acc)
                } else {
                    self.acc.clone()
                };
                Some(Ok(RefinementStep { level, field }))
            }
            Err(e) => {
                self.next = 0; // poison: no further refinement after an error
                Some(Err(e))
            }
        }
    }
}
