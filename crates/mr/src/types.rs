//! Core multi-resolution types.

use hqmr_grid::{Dims3, Field3};
use rayon::prelude::*;

/// One `u³` unit block of a resolution level, in level-local cell coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitBlock {
    /// Low corner in level-resolution cell coordinates (multiple of `unit`).
    pub origin: [usize; 3],
    /// `unit³` values, row-major (`z` fastest).
    pub data: Vec<f32>,
}

/// All unit blocks of one resolution level.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelData {
    /// Refinement distance from the finest level (0 = finest). Cell size
    /// doubles per level, so level `k` coordinates scale by `2^k`.
    pub level: usize,
    /// Unit block side length in this level's coordinates.
    pub unit: usize,
    /// Domain extents at this level's resolution.
    pub dims: Dims3,
    /// Occupied unit blocks, sorted by raster order of `origin`.
    pub blocks: Vec<UnitBlock>,
}

impl LevelData {
    /// Fraction of this level's domain covered by blocks (Table III "density"),
    /// measured against the *fine* domain: a level-k block covers `2^k`-scaled
    /// volume.
    pub fn covered_cells(&self) -> usize {
        self.blocks.len() * self.unit.pow(3)
    }

    /// Fraction of the level-resolution domain covered by its blocks.
    pub fn density(&self) -> f64 {
        if self.dims.is_empty() {
            return 0.0;
        }
        self.covered_cells() as f64 / self.dims.len() as f64
    }

    /// Builds a dense field of this level's resolution holding the block data
    /// (uncovered cells = `fill`). Useful for visualization (Fig. 2).
    pub fn to_field(&self, fill: f32) -> Field3 {
        let mut f = Field3::new(self.dims, fill);
        let u = self.unit;
        for b in &self.blocks {
            f.insert_box_from(b.origin, Dims3::cube(u), &b.data);
        }
        f
    }
}

/// Upsampling scheme used when reconstructing coarse regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Upsample {
    /// Piecewise-constant (each coarse cell fills its `2^k` children).
    Nearest,
    /// Trilinear within each coarse block.
    Trilinear,
}

/// A hierarchical multi-resolution dataset: AMR output or ROI-derived
/// adaptive data. Levels partition the domain — each fine-domain cell is
/// covered by exactly one level.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiResData {
    /// Fine-level (level 0) domain extents.
    pub domain: Dims3,
    /// Levels, index = refinement distance (0 = finest). Every level present
    /// even if empty.
    pub levels: Vec<LevelData>,
}

impl MultiResData {
    /// Total stored cells across levels (the storage the format actually
    /// keeps; the basis of multi-resolution storage savings).
    pub fn total_cells(&self) -> usize {
        self.levels.iter().map(|l| l.covered_cells()).sum()
    }

    /// Storage reduction versus the uniform fine grid.
    pub fn storage_ratio(&self) -> f64 {
        self.domain.len() as f64 / self.total_cells().max(1) as f64
    }

    /// A frame of the same structure — levels, units, block origins and
    /// order — whose block values are `data(level index, block index)`: how
    /// a timestep is poured into an earlier frame's layout. Blocks are
    /// independent, so the fill fans out across cores; order is preserved.
    pub fn with_block_data(&self, data: impl Fn(usize, usize) -> Vec<f32> + Sync) -> Self {
        let ids: Vec<(usize, usize)> = (self.levels.iter().enumerate())
            .flat_map(|(li, lvl)| (0..lvl.blocks.len()).map(move |bi| (li, bi)))
            .collect();
        let mut filled = ids
            .par_iter()
            .map(|&(li, bi)| UnitBlock {
                origin: self.levels[li].blocks[bi].origin,
                data: data(li, bi),
            })
            .collect::<Vec<_>>()
            .into_iter();
        let level = |lvl: &LevelData| LevelData {
            blocks: filled.by_ref().take(lvl.blocks.len()).collect(),
            ..*lvl
        };
        MultiResData {
            domain: self.domain,
            levels: self.levels.iter().map(level).collect(),
        }
    }

    /// Reconstructs a dense fine-resolution field: coarser levels are
    /// upsampled `2^k`× block-by-block, finer levels overwrite coarser ones.
    pub fn reconstruct(&self, scheme: Upsample) -> Field3 {
        let mut out = Field3::zeros(self.domain);
        for lvl in self.levels.iter().rev() {
            let blocks = lvl.blocks.iter().map(|b| (b.origin, &b.data[..]));
            insert_blocks_upsampled(&mut out, lvl.level, lvl.unit, blocks, scheme);
        }
        out
    }

    /// Checks the partition invariant: every fine cell covered exactly once.
    /// Returns the number of cells covered ≠ 1 (0 ⇒ valid).
    pub fn coverage_defects(&self) -> usize {
        let mut cover = vec![0u8; self.domain.len()];
        for lvl in &self.levels {
            let factor = 1usize << lvl.level;
            let u = lvl.unit * factor;
            for b in &lvl.blocks {
                let o = [
                    b.origin[0] * factor,
                    b.origin[1] * factor,
                    b.origin[2] * factor,
                ];
                for x in o[0]..(o[0] + u).min(self.domain.nx) {
                    for y in o[1]..(o[1] + u).min(self.domain.ny) {
                        for z in o[2]..(o[2] + u).min(self.domain.nz) {
                            let c = &mut cover[self.domain.idx(x, y, z)];
                            *c = c.saturating_add(1);
                        }
                    }
                }
            }
        }
        cover.iter().filter(|&&c| c != 1).count()
    }
}

/// Lands a batch of `unit³` blocks of resolution level `level` — `(level-local
/// origin, data)` pairs — in the fine-resolution field `out`: each is
/// upsampled `2^level`× and written at its fine-domain position, cells beyond
/// the domain edge dropped. The one entry point behind
/// [`MultiResData::reconstruct`] and the store's progressive reader, so the
/// two cannot drift apart.
///
/// [`Upsample::Nearest`] replicates rows in place
/// ([`Field3::insert_boxes_replicated`]) — no temporary, each output cell
/// written once, the destination `x`-planes the batch covers fanned out
/// across cores (so callers pass whole levels or windows, not single blocks).
/// [`Upsample::Trilinear`] interpolates within each isolated block (it never
/// reads a neighbour), doubling it `level` times before the insert; only
/// those doublings allocate.
pub fn insert_blocks_upsampled<'a, I>(
    out: &mut Field3,
    level: usize,
    unit: usize,
    blocks: I,
    scheme: Upsample,
) where
    I: Iterator<Item = ([usize; 3], &'a [f32])>,
{
    let factor = 1usize << level;
    let bd = Dims3::cube(unit);
    let blocks = blocks.map(|(origin, data)| (origin.map(|o| o * factor), data));
    if level == 0 || scheme == Upsample::Nearest {
        out.insert_boxes_replicated(bd, factor, blocks);
        return;
    }
    for (at, data) in blocks {
        let mut fine = Field3::upsample2_trilinear_from(bd, data, bd.scaled(2));
        for _ in 1..level {
            fine = fine.upsample2_trilinear(fine.dims().scaled(2));
        }
        out.insert_box(at, &fine);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_block_level(level: usize, unit: usize, dims: Dims3, origin: [usize; 3]) -> LevelData {
        LevelData {
            level,
            unit,
            dims,
            blocks: vec![UnitBlock {
                origin,
                data: vec![1.0; unit.pow(3)],
            }],
        }
    }

    #[test]
    fn density_and_cells() {
        let l = one_block_level(0, 4, Dims3::cube(8), [0, 0, 0]);
        assert_eq!(l.covered_cells(), 64);
        assert!((l.density() - 64.0 / 512.0).abs() < 1e-12);
    }

    #[test]
    fn reconstruct_two_levels() {
        // Fine block covers the low corner octant; coarse block covers the rest
        // coarsely (here: one coarse block spanning the whole coarse domain
        // would double-cover, so use a 4³ coarse block covering the other 8³ —
        // for the test we just verify values land in the right place).
        let fine = LevelData {
            level: 0,
            unit: 4,
            dims: Dims3::cube(8),
            blocks: vec![UnitBlock {
                origin: [0, 0, 0],
                data: vec![5.0; 64],
            }],
        };
        let coarse = LevelData {
            level: 1,
            unit: 2,
            dims: Dims3::cube(4),
            blocks: vec![UnitBlock {
                origin: [2, 2, 2],
                data: vec![3.0; 8],
            }],
        };
        let mr = MultiResData {
            domain: Dims3::cube(8),
            levels: vec![fine, coarse],
        };
        let f = mr.reconstruct(Upsample::Nearest);
        assert_eq!(f.get(0, 0, 0), 5.0);
        assert_eq!(f.get(3, 3, 3), 5.0);
        assert_eq!(f.get(4, 4, 4), 3.0);
        assert_eq!(f.get(7, 7, 7), 3.0);
        // Uncovered corner stays zero.
        assert_eq!(f.get(7, 0, 0), 0.0);
    }

    #[test]
    fn upsampled_insert_equals_isolated_block_upsampling() {
        // The block-local definition both schemes keep: upsample the
        // isolated block 2× per level, then insert (clipped at the edge).
        let unit = 3;
        let data: Vec<f32> = (0..27).map(|i| ((i * 7) % 11) as f32 - 2.5).collect();
        for scheme in [Upsample::Nearest, Upsample::Trilinear] {
            for level in 0..3usize {
                let mut fine = Field3::from_vec(Dims3::cube(unit), data.clone());
                for _ in 0..level {
                    let target = fine.dims().scaled(2);
                    fine = match scheme {
                        Upsample::Nearest => fine.upsample2_nearest(target),
                        Upsample::Trilinear => fine.upsample2_trilinear(target),
                    };
                }
                // Interior, and overhanging the high corner of the domain.
                for origin in [[0, 1, 2], [3, 3, 3]] {
                    let mut want = Field3::new(Dims3::new(14, 15, 16), 9.0);
                    let mut got = want.clone();
                    want.insert_box(origin.map(|o| o << level), &fine);
                    let block = std::iter::once((origin, &data[..]));
                    insert_blocks_upsampled(&mut got, level, unit, block, scheme);
                    assert_eq!(got, want, "{scheme:?} level {level} at {origin:?}");
                }
            }
        }
    }

    #[test]
    fn finer_levels_overwrite_coarser() {
        let fine = LevelData {
            level: 0,
            unit: 2,
            dims: Dims3::cube(4),
            blocks: vec![UnitBlock {
                origin: [0, 0, 0],
                data: vec![9.0; 8],
            }],
        };
        let coarse = LevelData {
            level: 1,
            unit: 2,
            dims: Dims3::cube(2),
            blocks: vec![UnitBlock {
                origin: [0, 0, 0],
                data: vec![1.0; 8],
            }],
        };
        let mr = MultiResData {
            domain: Dims3::cube(4),
            levels: vec![fine, coarse],
        };
        let f = mr.reconstruct(Upsample::Nearest);
        // Fine data wins where both exist.
        assert_eq!(f.get(0, 0, 0), 9.0);
        assert_eq!(f.get(1, 1, 1), 9.0);
        // Coarse fills the remainder.
        assert_eq!(f.get(3, 3, 3), 1.0);
    }

    #[test]
    fn coverage_defects_detects_gaps_and_overlaps() {
        let ok = MultiResData {
            domain: Dims3::cube(4),
            levels: vec![LevelData {
                level: 1,
                unit: 2,
                dims: Dims3::cube(2),
                blocks: vec![UnitBlock {
                    origin: [0, 0, 0],
                    data: vec![0.0; 8],
                }],
            }],
        };
        assert_eq!(ok.coverage_defects(), 0);

        let gap = MultiResData {
            domain: Dims3::cube(8),
            levels: ok.levels.clone(),
        };
        assert!(gap.coverage_defects() > 0);
    }

    #[test]
    fn coverage_defects_saturate_instead_of_wrapping() {
        // A `u8` tally wraps to 0 (one cover, no defect) at 257 in release
        // and panics at 256 in debug.
        for n in [255, 256, 257, 600] {
            let mut level = one_block_level(0, 1, Dims3::cube(1), [0, 0, 0]);
            level.blocks = vec![level.blocks[0].clone(); n];
            let mr = MultiResData {
                domain: Dims3::cube(1),
                levels: vec![level],
            };
            assert_eq!(mr.coverage_defects(), 1, "{n} covers");
        }
    }

    #[test]
    fn to_field_places_blocks() {
        let l = one_block_level(0, 2, Dims3::cube(4), [2, 0, 0]);
        let f = l.to_field(-1.0);
        assert_eq!(f.get(2, 0, 0), 1.0);
        assert_eq!(f.get(0, 0, 0), -1.0);
    }

    #[test]
    fn storage_ratio_reflects_savings() {
        // Half the domain fine + half coarse (2× down ⇒ 1/8 cells).
        let mr = MultiResData {
            domain: Dims3::cube(8),
            levels: vec![
                LevelData {
                    level: 0,
                    unit: 4,
                    dims: Dims3::cube(8),
                    blocks: (0..4)
                        .map(|i| UnitBlock {
                            origin: [4 * (i % 2), 4 * (i / 2), 0],
                            data: vec![0.0; 64],
                        })
                        .collect(),
                },
                LevelData {
                    level: 1,
                    unit: 2,
                    dims: Dims3::cube(4),
                    blocks: (0..4)
                        .map(|i| UnitBlock {
                            origin: [2 * (i % 2), 2 * (i / 2), 2],
                            data: vec![0.0; 8],
                        })
                        .collect(),
                },
            ],
        };
        assert_eq!(mr.coverage_defects(), 0);
        let expect = 512.0 / (4.0 * 64.0 + 4.0 * 8.0);
        assert!((mr.storage_ratio() - expect).abs() < 1e-12);
    }

    /// `reconstruct` against the definition it must equal, computed with
    /// none of its machinery: every block upsampled on its own with
    /// `upsample2_*` and inserted, coarse levels first. Layouts are seeded
    /// 2- and 3-level partitions of domains that are not a multiple of the
    /// coarse footprint, so blocks overhang the high faces.
    #[test]
    fn reconstruct_equals_per_block_oracle() {
        let mut h = 0x2545_F491u32;
        let mut next = move || {
            h = h.wrapping_mul(0x2C1B_3C6D).wrapping_add(0x2979_4F2B);
            h >> 8
        };
        let footprint = 8usize; // fine cells per block side, on every level
        for (n_levels, domain) in [
            (2, Dims3::new(21, 13, 30)),
            (3, Dims3::new(37, 29, 45)),
            (3, Dims3::new(9, 40, 17)),
        ] {
            let tiles = domain.div_ceil(footprint);
            let mut levels: Vec<LevelData> = (0..n_levels)
                .map(|level| LevelData {
                    level,
                    unit: footprint >> level,
                    dims: domain.div_ceil(1 << level),
                    blocks: Vec::new(),
                })
                .collect();
            // Raster order over the tiles keeps every level's blocks sorted.
            for t in 0..tiles.len() {
                let tile = [
                    t / (tiles.ny * tiles.nz),
                    t / tiles.nz % tiles.ny,
                    t % tiles.nz,
                ];
                let lvl = &mut levels[next() as usize % n_levels];
                let values = (0..lvl.unit.pow(3)).map(|_| next() as f32 / 1024.0 - 4096.0);
                lvl.blocks.push(UnitBlock {
                    origin: tile.map(|c| c * lvl.unit),
                    data: values.collect(),
                });
            }
            let mr = MultiResData { domain, levels };
            assert_eq!(mr.coverage_defects(), 0);
            for scheme in [Upsample::Nearest, Upsample::Trilinear] {
                let mut want = Field3::zeros(domain);
                for lvl in mr.levels.iter().rev() {
                    for b in &lvl.blocks {
                        let mut fine = Field3::from_vec(Dims3::cube(lvl.unit), b.data.clone());
                        for _ in 0..lvl.level {
                            let target = fine.dims().scaled(2);
                            fine = match scheme {
                                Upsample::Nearest => fine.upsample2_nearest(target),
                                Upsample::Trilinear => fine.upsample2_trilinear(target),
                            };
                        }
                        want.insert_box(b.origin.map(|o| o << lvl.level), &fine);
                    }
                }
                let bits = |f: &Field3| f.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                let got = mr.reconstruct(scheme);
                assert_eq!(got.dims(), domain);
                assert!(
                    bits(&got) == bits(&want),
                    "{scheme:?} {n_levels} levels {domain}"
                );
            }
        }
    }
}
