//! Unit-block arrangements for 3-D compression (§III-A, Fig. 6).
//!
//! A resolution level is a sparse set of `u³` unit blocks; global compressors
//! need a dense array. Three arrangements are implemented:
//!
//! * [`MergeStrategy::Linear`] — the baseline (and the paper's choice):
//!   concatenate blocks along `z` into a `(u, u, u·n)` array. Two small
//!   dimensions, one long one.
//! * [`MergeStrategy::Stack`] — AMRIC's cubic stacking into a
//!   `(u·m)³` array, `m = ⌈n^{1/3}⌉`. Balanced dimensions, but non-adjacent
//!   blocks become neighbours (the bold red line of Fig. 6-2b).
//! * [`MergeStrategy::Tac`] — TAC's adjacency-preserving merge: greedy runs
//!   along `z`, then `y`, then `x` produce variable-shaped boxes, each
//!   compressed separately (encoding overhead per box, §IV-C).

use crate::types::{LevelData, UnitBlock};
use hqmr_grid::{Dims3, Field3};
use std::collections::BTreeMap;

/// Block arrangement strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeStrategy {
    /// Linear merge along `z` (baseline; what SZ3MR pads).
    Linear,
    /// AMRIC-style cubic stacking.
    Stack,
    /// TAC-style adjacency-preserving boxes.
    Tac,
}

/// One dense array produced by merging, with enough layout to split it back.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedArray {
    /// The dense merged field.
    pub field: Field3,
    /// Unit block side.
    pub unit: usize,
    /// `(array-local origin, level-local origin)` for every real block.
    pub slots: Vec<([usize; 3], [usize; 3])>,
}

impl MergedArray {
    /// Extracts unit blocks back out of a (possibly decompressed) array with
    /// the same dims as `self.field`.
    ///
    /// # Panics
    /// Panics if `data` dims differ from the merged field's dims.
    pub fn split(&self, data: &Field3) -> Vec<UnitBlock> {
        assert_eq!(data.dims(), self.field.dims(), "split dims mismatch");
        split_blocks(data, self.unit, &self.slots)
    }
}

/// [`MergedArray::split`] from the raw layout — unit side plus
/// `(array slot, level origin)` pairs — so readers that reconstruct the
/// layout from a directory (`hqmr-store`) can split a decoded array without
/// materializing a throwaway [`MergedArray`] (and its zero-filled field).
pub fn split_blocks(
    data: &Field3,
    unit: usize,
    slots: &[([usize; 3], [usize; 3])],
) -> Vec<UnitBlock> {
    let size = Dims3::cube(unit);
    slots
        .iter()
        .map(|&(slot, origin)| {
            let mut block = vec![0f32; size.len()];
            data.extract_box_into(slot, size, &mut block);
            UnitBlock {
                origin,
                data: block,
            }
        })
        .collect()
}

/// Checks a layout that came from outside the program — a store's chunk
/// table, an `mrc` layout section — against the dims of the decoded array it
/// is about to be cut from, and returns the cells per block (`unit³`).
///
/// `padded` says `dims` still carries [`crate::pad_small_dims`]' extra `x`
/// and `y` layer. That layer is *trailing*, so a cell has the same
/// coordinates in the padded array and in the stripped one: once this
/// returns `Ok`, [`split_blocks`] (or [`Field3::extract_box_into`] per slot)
/// cuts the blocks straight out of the padded reconstruction — every copy an
/// interior one that never reads the padding — and nothing has to strip it
/// first. The checks are made against the stripped dims: a padded array
/// must be large enough to have been padded, every slot's cube must lie
/// inside it, and neither `unit³` nor the cell total may overflow.
pub fn check_slots(
    dims: Dims3,
    padded: bool,
    unit: usize,
    slots: &[([usize; 3], [usize; 3])],
) -> Result<usize, &'static str> {
    let d = if padded {
        if dims.nx < 2 || dims.ny < 2 {
            return Err("padded array too small to carry padding");
        }
        Dims3::new(dims.nx - 1, dims.ny - 1, dims.nz)
    } else {
        dims
    };
    let cells = unit.checked_pow(3).ok_or("unit overflows")?;
    slots
        .len()
        .checked_mul(cells)
        .ok_or("block cells overflow")?;
    let inside = |o: usize, dim: usize| o.checked_add(unit).is_some_and(|e| e <= dim);
    for &(slot, _) in slots {
        if !(inside(slot[0], d.nx) && inside(slot[1], d.ny) && inside(slot[2], d.nz)) {
            return Err("slot out of array bounds");
        }
    }
    Ok(cells)
}

/// Merges a level's blocks under `strategy`. Returns one array for
/// `Linear`/`Stack`, and one per box for `Tac`. Empty levels yield no arrays.
pub fn merge_level(level: &LevelData, strategy: MergeStrategy) -> Vec<MergedArray> {
    merge_blocks(&level.blocks, level.unit, strategy)
}

/// [`merge_level`] over a borrowed block slice — lets callers that tile a
/// level into chunk groups (`hqmr-store`) merge each group without cloning
/// the block data into a temporary [`LevelData`].
pub fn merge_blocks(
    blocks: &[UnitBlock],
    unit: usize,
    strategy: MergeStrategy,
) -> Vec<MergedArray> {
    if blocks.is_empty() {
        return Vec::new();
    }
    match strategy {
        MergeStrategy::Linear => vec![merge_linear(blocks, unit)],
        MergeStrategy::Stack => vec![merge_stack(blocks, unit)],
        MergeStrategy::Tac => merge_tac(blocks, unit),
    }
}

/// Reassembles a level from merged arrays and their decompressed data.
///
/// `pairs` associates each layout with the decompressed array contents;
/// blocks are returned in the concatenated slot order.
pub fn unsplit_level(pairs: &[(&MergedArray, &Field3)]) -> Vec<UnitBlock> {
    let mut blocks: Vec<UnitBlock> = pairs.iter().flat_map(|(m, f)| m.split(f)).collect();
    blocks.sort_by_key(|b| (b.origin[0], b.origin[1], b.origin[2]));
    blocks
}

fn merge_linear(blocks: &[UnitBlock], u: usize) -> MergedArray {
    let n = blocks.len();
    let mut field = Field3::zeros(Dims3::new(u, u, u * n));
    let mut slots = Vec::with_capacity(n);
    for (i, b) in blocks.iter().enumerate() {
        let slot = [0, 0, i * u];
        field.insert_box_from(slot, Dims3::cube(u), &b.data);
        slots.push((slot, b.origin));
    }
    MergedArray {
        field,
        unit: u,
        slots,
    }
}

fn merge_stack(blocks: &[UnitBlock], u: usize) -> MergedArray {
    let n = blocks.len();
    let m = (1..).find(|&m: &usize| m * m * m >= n).unwrap();
    let mut field = Field3::zeros(Dims3::cube(u * m));
    let mut slots = Vec::with_capacity(n);
    for i in 0..m * m * m {
        // Real blocks fill the first n slots; the rest replicate the last
        // block so the filler does not create artificial discontinuities
        // beyond those inherent to stacking.
        let src = i.min(n - 1);
        let slot = [(i / (m * m)) * u, ((i / m) % m) * u, (i % m) * u];
        let b = &blocks[src];
        field.insert_box_from(slot, Dims3::cube(u), &b.data);
        if i < n {
            slots.push((slot, b.origin));
        }
    }
    MergedArray {
        field,
        unit: u,
        slots,
    }
}

/// Greedy adjacency-preserving box merge: maximal runs along `z`, rods merged
/// along `y`, plates merged along `x`.
fn merge_tac(blocks: &[UnitBlock], u: usize) -> Vec<MergedArray> {
    // Block coordinates in units, mapped to their index in `blocks`.
    let mut by_coord: BTreeMap<(usize, usize, usize), usize> = BTreeMap::new();
    for (i, b) in blocks.iter().enumerate() {
        by_coord.insert((b.origin[0] / u, b.origin[1] / u, b.origin[2] / u), i);
    }
    // Rods: (x, y, z0, lz).
    let mut rods: Vec<(usize, usize, usize, usize)> = Vec::new();
    {
        let mut it = by_coord.keys().copied().peekable();
        while let Some((x, y, z0)) = it.next() {
            let mut lz = 1usize;
            while let Some(&(nx2, ny2, nz2)) = it.peek() {
                if nx2 == x && ny2 == y && nz2 == z0 + lz {
                    it.next();
                    lz += 1;
                } else {
                    break;
                }
            }
            rods.push((x, y, z0, lz));
        }
    }
    // Plates: merge rods with equal (x, z0, lz) and consecutive y.
    let mut plate_map: BTreeMap<(usize, usize, usize), Vec<(usize, usize)>> = BTreeMap::new();
    for (x, y, z0, lz) in rods {
        plate_map.entry((x, z0, lz)).or_default().push((y, 1));
    }
    // (x, y0, ly, z0, lz)
    let mut plates: Vec<(usize, usize, usize, usize, usize)> = Vec::new();
    for ((x, z0, lz), mut ys) in plate_map {
        ys.sort_unstable();
        let mut i = 0;
        while i < ys.len() {
            let y0 = ys[i].0;
            let mut ly = 1usize;
            while i + 1 < ys.len() && ys[i + 1].0 == y0 + ly {
                ly += 1;
                i += 1;
            }
            plates.push((x, y0, ly, z0, lz));
            i += 1;
        }
    }
    // Boxes: merge plates with equal (y0, ly, z0, lz) and consecutive x.
    let mut box_map: BTreeMap<(usize, usize, usize, usize), Vec<usize>> = BTreeMap::new();
    for (x, y0, ly, z0, lz) in plates {
        box_map.entry((y0, ly, z0, lz)).or_default().push(x);
    }
    let mut boxes: Vec<([usize; 3], [usize; 3])> = Vec::new(); // (coord origin, extent in units)
    for ((y0, ly, z0, lz), mut xs) in box_map {
        xs.sort_unstable();
        let mut i = 0;
        while i < xs.len() {
            let x0 = xs[i];
            let mut lx = 1usize;
            while i + 1 < xs.len() && xs[i + 1] == x0 + lx {
                lx += 1;
                i += 1;
            }
            boxes.push(([x0, y0, z0], [lx, ly, lz]));
            i += 1;
        }
    }

    boxes
        .into_iter()
        .map(|(bo, ext)| {
            let dims = Dims3::new(ext[0] * u, ext[1] * u, ext[2] * u);
            let mut field = Field3::zeros(dims);
            let mut slots = Vec::new();
            for cx in 0..ext[0] {
                for cy in 0..ext[1] {
                    for cz in 0..ext[2] {
                        let coord = (bo[0] + cx, bo[1] + cy, bo[2] + cz);
                        let bi = by_coord[&coord];
                        let b = &blocks[bi];
                        let slot = [cx * u, cy * u, cz * u];
                        field.insert_box_from(slot, Dims3::cube(u), &b.data);
                        slots.push((slot, b.origin));
                    }
                }
            }
            MergedArray {
                field,
                unit: u,
                slots,
            }
        })
        .collect()
}

/// Mean absolute jump across block-join faces inside merged arrays — the
/// "unsmoothness" Fig. 6 depicts (bold red lines). Lower is smoother.
pub fn merge_discontinuity(arrays: &[MergedArray]) -> f64 {
    let mut acc = 0.0f64;
    let mut count = 0u64;
    for m in arrays {
        let d = m.field.dims();
        let u = m.unit;
        // Faces normal to each axis at multiples of u (interior joins only).
        for (axis, n) in [(0usize, d.nx), (1, d.ny), (2, d.nz)] {
            let mut cut = u;
            while cut < n {
                for a in 0..if axis == 0 { d.ny } else { d.nx } {
                    for b in 0..if axis == 2 { d.ny } else { d.nz } {
                        let (lo, hi) = match axis {
                            0 => (m.field.get(cut - 1, a, b), m.field.get(cut, a, b)),
                            1 => (m.field.get(a, cut - 1, b), m.field.get(a, cut, b)),
                            _ => (m.field.get(a, b, cut - 1), m.field.get(a, b, cut)),
                        };
                        acc += (hi - lo).abs() as f64;
                        count += 1;
                    }
                }
                cut += u;
            }
        }
    }
    if count == 0 {
        0.0
    } else {
        acc / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A level whose blocks tile an `nb³` region of a smooth ramp field.
    fn ramp_level(nb: usize, u: usize, keep: impl Fn(usize, usize, usize) -> bool) -> LevelData {
        let mut blocks = Vec::new();
        for bx in 0..nb {
            for by in 0..nb {
                for bz in 0..nb {
                    if !keep(bx, by, bz) {
                        continue;
                    }
                    let origin = [bx * u, by * u, bz * u];
                    let data = Field3::from_fn(Dims3::cube(u), |x, y, z| {
                        ((origin[0] + x) + (origin[1] + y) + (origin[2] + z)) as f32
                    });
                    blocks.push(UnitBlock {
                        origin,
                        data: data.into_vec(),
                    });
                }
            }
        }
        LevelData {
            level: 0,
            unit: u,
            dims: Dims3::cube(nb * u),
            blocks,
        }
    }

    #[test]
    fn linear_merge_shape_and_roundtrip() {
        let lvl = ramp_level(2, 4, |_, _, _| true); // 8 blocks
        let merged = merge_level(&lvl, MergeStrategy::Linear);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].field.dims(), Dims3::new(4, 4, 32));
        let back = unsplit_level(&[(&merged[0], &merged[0].field.clone())]);
        assert_eq!(back, lvl.blocks);
    }

    #[test]
    fn stack_merge_shape_and_roundtrip() {
        let lvl = ramp_level(2, 4, |bx, by, bz| !(bx == 1 && by == 1 && bz == 1)); // 7 blocks
        let merged = merge_level(&lvl, MergeStrategy::Stack);
        assert_eq!(merged.len(), 1);
        // ceil(7^(1/3)) = 2 → 8³ array.
        assert_eq!(merged[0].field.dims(), Dims3::cube(8));
        assert_eq!(merged[0].slots.len(), 7);
        let back = unsplit_level(&[(&merged[0], &merged[0].field.clone())]);
        assert_eq!(back, lvl.blocks);
    }

    #[test]
    fn tac_merges_full_region_into_one_box() {
        let lvl = ramp_level(2, 4, |_, _, _| true);
        let merged = merge_level(&lvl, MergeStrategy::Tac);
        assert_eq!(merged.len(), 1, "a full cube should merge into one box");
        assert_eq!(merged[0].field.dims(), Dims3::cube(8));
        let pairs: Vec<_> = merged.iter().map(|m| (m, &m.field)).collect();
        let back = unsplit_level(&pairs.iter().map(|(m, f)| (*m, *f)).collect::<Vec<_>>());
        assert_eq!(back, lvl.blocks);
    }

    #[test]
    fn tac_sparse_produces_multiple_boxes_preserving_adjacency() {
        // Two separated slabs → at least 2 boxes, never mixing them.
        let lvl = ramp_level(4, 4, |bx, _, _| bx == 0 || bx == 3);
        let merged = merge_level(&lvl, MergeStrategy::Tac);
        assert_eq!(merged.len(), 2);
        let pairs: Vec<_> = merged.iter().map(|m| (m, &m.field)).collect();
        let back = unsplit_level(&pairs);
        assert_eq!(back.len(), lvl.blocks.len());
        assert_eq!(back, lvl.blocks);
    }

    #[test]
    fn check_slots_validates_against_the_stripped_dims() {
        let u = 4;
        let slots = [([0, 0, 0], [0, 0, 0]), ([0, 0, 4], [0, 0, 4])];
        let plain = Dims3::new(4, 4, 8);
        let padded = Dims3::new(5, 5, 8);
        assert_eq!(check_slots(plain, false, u, &slots), Ok(64));
        assert_eq!(check_slots(padded, true, u, &slots), Ok(64));
        // The padding layer is not block data: a 4-wide array flagged as
        // padded only has 3 real layers.
        assert!(check_slots(plain, true, u, &slots).is_err());
        // Too small to have been padded at all (the shape that used to
        // reach `strip_padding`'s assert).
        assert!(check_slots(Dims3::new(1, 1, 4), true, 1, &[]).is_err());
        // Slots past the end, by one cell and by overflow.
        assert!(check_slots(plain, false, u, &[([0, 0, 5], [0; 3])]).is_err());
        assert!(check_slots(plain, false, u, &[([usize::MAX, 0, 0], [0; 3])]).is_err());
        // Units whose cube, or whose cube times the slot count, overflows.
        assert!(check_slots(plain, false, usize::MAX, &[]).is_err());
        assert!(check_slots(plain, false, 1 << 21, &[([0; 3], [0; 3]); 2]).is_err());
        // And the cut itself reads the padded array in place.
        let f = Field3::from_fn(plain, |x, y, z| (x * 100 + y * 10 + z) as f32);
        let p = crate::pad_small_dims(&f, crate::PadKind::Linear);
        assert_eq!(split_blocks(&p, u, &slots), split_blocks(&f, u, &slots));
    }

    #[test]
    fn empty_level_merges_to_nothing() {
        let lvl = LevelData {
            level: 0,
            unit: 4,
            dims: Dims3::cube(8),
            blocks: vec![],
        };
        for s in [
            MergeStrategy::Linear,
            MergeStrategy::Stack,
            MergeStrategy::Tac,
        ] {
            assert!(merge_level(&lvl, s).is_empty());
        }
    }

    #[test]
    fn single_block_all_strategies() {
        let lvl = ramp_level(1, 4, |_, _, _| true);
        for s in [
            MergeStrategy::Linear,
            MergeStrategy::Stack,
            MergeStrategy::Tac,
        ] {
            let merged = merge_level(&lvl, s);
            let pairs: Vec<_> = merged.iter().map(|m| (m, &m.field)).collect();
            assert_eq!(unsplit_level(&pairs), lvl.blocks, "{s:?}");
        }
    }

    #[test]
    fn stack_is_less_smooth_than_tac_on_scattered_blocks() {
        // A checkerboard of blocks from a smooth ramp: stacking juxtaposes
        // non-neighbours (large jumps); TAC keeps physical neighbours together.
        let lvl = ramp_level(4, 4, |bx, by, bz| (bx + by + bz) % 2 == 0);
        let stack = merge_level(&lvl, MergeStrategy::Stack);
        let tac = merge_level(&lvl, MergeStrategy::Tac);
        let ds = merge_discontinuity(&stack);
        let dt = merge_discontinuity(&tac);
        assert!(
            dt <= ds,
            "tac ({dt}) should be at least as smooth as stack ({ds})"
        );
    }
}
