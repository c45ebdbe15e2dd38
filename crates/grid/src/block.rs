//! Regular block partition of a field.
//!
//! The ROI pipeline partitions the domain into `b³` blocks (`b = 2ⁿ, n > 2`,
//! §III of the paper) and ranks them by value range. `BlockGrid` owns that
//! partition logic; it is also reused by SZ2/ZFP for their compression blocks.

use crate::dims::Dims3;
use crate::field::{Field3, LaneMinMax};
use rayon::prelude::*;
use std::cmp::Ordering;

/// A regular partition of `domain` into cubes of side `b` (edge blocks may be
/// smaller).
#[derive(Debug, Clone, Copy)]
pub struct BlockGrid {
    domain: Dims3,
    b: usize,
    counts: Dims3,
}

/// One block of a [`BlockGrid`]: its grid index, cell origin, and actual size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockRef {
    /// Block coordinates within the block grid.
    pub index: [usize; 3],
    /// Cell coordinates of the block's low corner.
    pub origin: [usize; 3],
    /// Actual extent (clipped at the domain edge).
    pub size: Dims3,
}

impl BlockGrid {
    /// Creates a partition of `domain` into `b³` blocks.
    ///
    /// # Panics
    /// Panics if `b == 0`.
    pub fn new(domain: Dims3, b: usize) -> Self {
        assert!(b > 0, "block size must be positive");
        BlockGrid {
            domain,
            b,
            counts: domain.div_ceil(b),
        }
    }

    /// Number of blocks along each axis.
    #[inline]
    pub fn counts(&self) -> Dims3 {
        self.counts
    }

    /// Total number of blocks.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.counts.len()
    }

    /// The domain being partitioned.
    #[inline]
    pub fn domain(&self) -> Dims3 {
        self.domain
    }

    /// The block at block-grid coordinates `(bx, by, bz)`.
    pub fn block(&self, bx: usize, by: usize, bz: usize) -> BlockRef {
        let origin = [bx * self.b, by * self.b, bz * self.b];
        let size = Dims3::new(
            self.b.min(self.domain.nx - origin[0]),
            self.b.min(self.domain.ny - origin[1]),
            self.b.min(self.domain.nz - origin[2]),
        );
        BlockRef {
            index: [bx, by, bz],
            origin,
            size,
        }
    }

    /// Iterates all blocks in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = BlockRef> + '_ {
        let c = self.counts;
        (0..c.nx).flat_map(move |bx| {
            (0..c.ny).flat_map(move |by| (0..c.nz).map(move |bz| self.block(bx, by, bz)))
        })
    }

    /// Per-block value range (`max − min` of the `f32::min`/`f32::max` scan,
    /// NaN cells ignored), computed in parallel. Index order matches
    /// [`Self::iter`].
    ///
    /// Each block's rows fold into 8 lanes with compare-selects (the kernel
    /// behind [`Field3::min_max`]); a block whose min or max is a zero is
    /// rescanned with `f32::min`/`f32::max`, so every range is bit for bit
    /// the scalar scan's.
    pub fn block_ranges(&self, field: &Field3) -> Vec<f32> {
        assert_eq!(
            field.dims(),
            self.domain,
            "field does not match partition domain"
        );
        let blocks: Vec<BlockRef> = self.iter().collect();
        blocks
            .par_iter()
            .map(|blk| {
                let xs = blk.origin[0]..blk.origin[0] + blk.size.nx;
                let ys = blk.origin[1]..blk.origin[1] + blk.size.ny;
                let row = |x: usize, y: usize| {
                    let start = self.domain.idx(x, y, blk.origin[2]);
                    &field.data()[start..start + blk.size.nz]
                };
                let mut lanes = LaneMinMax::<8>::new();
                for x in xs.clone() {
                    for y in ys.clone() {
                        lanes.push(row(x, y));
                    }
                }
                let (mut mn, mut mx) = lanes.finish();
                if mn == 0.0 || mx == 0.0 {
                    (mn, mx) = (f32::INFINITY, f32::NEG_INFINITY);
                    for x in xs {
                        for &v in ys.clone().flat_map(|y| row(x, y)) {
                            mn = mn.min(v);
                            mx = mx.max(v);
                        }
                    }
                }
                mx - mn
            })
            .collect()
    }

    /// Every block index (in [`Self::iter`] order), widest value range
    /// first — the one ranking behind the ROI selector and AMR level
    /// assignment. A block whose non-NaN cells are all +∞ (or all −∞) has a
    /// NaN range and ranks below every number; ±0.0 rank equal; ties go to
    /// the lower block index. A total order, whatever the field holds.
    pub fn rank_by_range(&self, field: &Field3) -> Vec<usize> {
        let ranges = self.block_ranges(field);
        let mut order: Vec<usize> = (0..ranges.len()).collect();
        order.sort_unstable_by(|&a, &b| by_range(ranges[b], ranges[a]).then(a.cmp(&b)));
        order
    }

    /// Indices (into [`Self::iter`] order) of the top `frac` fraction of blocks
    /// by value range — the paper's range-thresholding ROI selector, on
    /// [`Self::rank_by_range`]'s order. `frac` is clamped to `[0, 1]`.
    pub fn top_range_blocks(&self, field: &Field3, frac: f64) -> Vec<usize> {
        let order = self.rank_by_range(field);
        let k = ((order.len() as f64) * frac.clamp(0.0, 1.0)).round() as usize;
        let mut top: Vec<usize> = order.into_iter().take(k).collect();
        top.sort_unstable();
        top
    }
}

/// Ascending order of value ranges: NaN below every number, ±0.0 equal.
fn by_range(a: f32, b: f32) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (false, false) => a.partial_cmp(&b).expect("neither is NaN"),
        (a_nan, b_nan) => b_nan.cmp(&a_nan),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_edges() {
        let g = BlockGrid::new(Dims3::new(10, 8, 8), 4);
        assert_eq!(g.counts(), Dims3::new(3, 2, 2));
        assert_eq!(g.num_blocks(), 12);
        let edge = g.block(2, 0, 0);
        assert_eq!(edge.origin, [8, 0, 0]);
        assert_eq!(edge.size, Dims3::new(2, 4, 4));
    }

    #[test]
    fn iter_covers_domain_exactly_once() {
        let g = BlockGrid::new(Dims3::new(6, 5, 7), 3);
        let mut seen = vec![0u8; 6 * 5 * 7];
        let d = g.domain();
        for blk in g.iter() {
            for x in blk.origin[0]..blk.origin[0] + blk.size.nx {
                for y in blk.origin[1]..blk.origin[1] + blk.size.ny {
                    for z in blk.origin[2]..blk.origin[2] + blk.size.nz {
                        seen[d.idx(x, y, z)] += 1;
                    }
                }
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn ranges_detect_variation() {
        let mut f = Field3::zeros(Dims3::cube(8));
        f.set(5, 5, 5, 10.0); // block (1,1,1) for b=4
        let g = BlockGrid::new(f.dims(), 4);
        let ranges = g.block_ranges(&f);
        let idx_of = |bx: usize, by: usize, bz: usize| (bx * 2 + by) * 2 + bz;
        assert_eq!(ranges[idx_of(1, 1, 1)], 10.0);
        assert_eq!(ranges[idx_of(0, 0, 0)], 0.0);
    }

    #[test]
    fn ranges_match_the_per_cell_scan() {
        let bits = |r: &[f32]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let per_cell = |g: &BlockGrid, f: &Field3| -> Vec<f32> {
            g.iter()
                .map(|blk| {
                    let mut mn = f32::INFINITY;
                    let mut mx = f32::NEG_INFINITY;
                    for x in blk.origin[0]..blk.origin[0] + blk.size.nx {
                        for y in blk.origin[1]..blk.origin[1] + blk.size.ny {
                            for z in blk.origin[2]..blk.origin[2] + blk.size.nz {
                                mn = mn.min(f.get(x, y, z));
                                mx = mx.max(f.get(x, y, z));
                            }
                        }
                    }
                    mx - mn
                })
                .collect()
        };

        // Edge blocks, NaN (ignored by min/max), ±∞, and an all-NaN block.
        let mut f = Field3::from_fn(Dims3::new(10, 9, 13), |x, y, z| {
            ((x * 31 + y * 17 + z * 7) % 23) as f32 - 11.5
        });
        f.set(1, 1, 1, f32::NAN);
        f.set(5, 5, 5, f32::INFINITY);
        f.set(9, 0, 12, f32::NEG_INFINITY);
        for x in 8..10 {
            for y in 8..9 {
                for z in 8..12 {
                    f.set(x, y, z, f32::NAN);
                }
            }
        }
        let g = BlockGrid::new(f.dims(), 4);
        assert_eq!(bits(&g.block_ranges(&f)), bits(&per_cell(&g, &f)));

        // Rows that take the 8-lane fold alone (b = 8), the fold and its
        // remainder (11 = 8 + 3, 19 = 16 + 3), or the remainder alone (the
        // short edge blocks), and blocks whose min or max is a zero: ±0
        // only, all +0, a zero as the min, a zero as the max, and a -0.0
        // inside a block that crosses zero.
        for b in [8, 11, 19] {
            let mut f = Field3::from_fn(Dims3::new(b + 3, b + 1, 40), |x, y, z| {
                ((x * 13 + y * 29 + z * 5) % 31) as f32 * 0.75 - 11.0
            });
            let g = BlockGrid::new(f.dims(), b);
            let mut fill = |blk: BlockRef, palette: &[f32]| {
                for x in blk.origin[0]..blk.origin[0] + blk.size.nx {
                    for y in blk.origin[1]..blk.origin[1] + blk.size.ny {
                        for z in blk.origin[2]..blk.origin[2] + blk.size.nz {
                            f.set(x, y, z, palette[(x * 7 + y * 5 + z * 3) % palette.len()]);
                        }
                    }
                }
            };
            fill(g.block(0, 0, 0), &[0.0, -0.0]);
            fill(g.block(0, 0, 1), &[0.0]);
            fill(g.block(0, 1, 0), &[-0.0, 0.0, 1.5, f32::NAN]);
            fill(g.block(1, 0, 0), &[-2.0, 0.0, -0.0]);
            fill(g.block(1, 1, 1), &[-0.0, -3.0, 2.5, 0.25]);
            fill(g.block(0, 1, 2), &[-0.0]);
            assert_eq!(
                bits(&g.block_ranges(&f)),
                bits(&per_cell(&g, &f)),
                "b = {b}"
            );
        }
    }

    #[test]
    fn range_order_is_total() {
        assert_eq!(by_range(0.0, -0.0), Ordering::Equal);
        assert_eq!(by_range(f32::NAN, f32::NEG_INFINITY), Ordering::Less);
        assert_eq!(by_range(1.0, f32::NAN), Ordering::Greater);
        assert_eq!(by_range(f32::NAN, -f32::NAN), Ordering::Equal);
        assert_eq!(by_range(-1.0, 2.0), Ordering::Less);
    }

    /// A block of nothing but +∞ has range ∞ − ∞ = NaN. The ranking puts
    /// it below every number instead of handing the sort an order that is
    /// not total (which aborts it), and the selector never picks it while
    /// numbers remain.
    #[test]
    fn nan_ranges_rank_last() {
        let mut f = Field3::from_fn(Dims3::new(8, 8, 512), |x, y, z| {
            ((x * 3 + y * 5 + z * 7) % 11) as f32 * (1 + z / 40) as f32
        });
        let g = BlockGrid::new(f.dims(), 8);
        for bz in (0..g.num_blocks()).step_by(3) {
            for x in 0..8 {
                for y in 0..8 {
                    for z in bz * 8..bz * 8 + 8 {
                        f.set(x, y, z, f32::INFINITY);
                    }
                }
            }
        }
        let ranges = g.block_ranges(&f);
        let order = g.rank_by_range(&f);
        let nans = ranges.iter().filter(|r| r.is_nan()).count();
        assert_eq!(nans, 22);
        let (numbers, last) = order.split_at(order.len() - nans);
        assert!(last.iter().all(|&i| ranges[i].is_nan()));
        assert!(last.windows(2).all(|w| w[0] < w[1]), "NaN ties by index");
        for w in numbers.windows(2) {
            let (a, b) = (ranges[w[0]], ranges[w[1]]);
            assert!(a > b || (a == b && w[0] < w[1]), "{w:?}: {a} then {b}");
        }
        let top = g.top_range_blocks(&f, 0.5);
        assert_eq!(top.len(), 32);
        assert!(top.iter().all(|&i| !ranges[i].is_nan()));
    }

    #[test]
    fn top_range_selects_hot_blocks() {
        let mut f = Field3::zeros(Dims3::cube(16));
        f.set(1, 1, 1, 5.0);
        f.set(9, 9, 9, 50.0);
        let g = BlockGrid::new(f.dims(), 8);
        let top = g.top_range_blocks(&f, 0.25); // 2 of 8 blocks
        assert_eq!(top.len(), 2);
        // Both hot blocks selected; indices are sorted.
        let idx_of = |bx: usize, by: usize, bz: usize| (bx * 2 + by) * 2 + bz;
        assert!(top.contains(&idx_of(0, 0, 0)));
        assert!(top.contains(&idx_of(1, 1, 1)));
    }

    #[test]
    fn top_range_frac_extremes() {
        let f = Field3::zeros(Dims3::cube(8));
        let g = BlockGrid::new(f.dims(), 4);
        assert!(g.top_range_blocks(&f, 0.0).is_empty());
        assert_eq!(g.top_range_blocks(&f, 1.0).len(), 8);
        assert_eq!(g.top_range_blocks(&f, 5.0).len(), 8); // clamped
    }
}
