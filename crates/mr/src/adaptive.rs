//! Uniform → adaptive conversion via range-threshold ROI extraction (§III).
//!
//! The paper partitions the domain into `b³` blocks (`b = 2ⁿ, n > 2`), ranks
//! blocks by value range, keeps the top `x%` at full resolution and stores the
//! rest 2× downsampled. The result has the same structure as 2-level AMR data
//! and flows into the same merge/pad/compress pipeline.

use crate::types::{LevelData, MultiResData, UnitBlock};
use hqmr_grid::{BlockGrid, BlockRef, Dims3, Field3};
use rayon::prelude::*;

/// ROI extraction parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoiConfig {
    /// ROI block side `b` (must be a power of two > 4, per the paper).
    pub block: usize,
    /// Fraction of blocks kept at full resolution (paper default 0.5).
    pub frac: f64,
}

impl RoiConfig {
    /// Creates a config, validating the block-size constraint.
    ///
    /// # Panics
    /// Panics if `block` is not a power of two greater than 4.
    pub fn new(block: usize, frac: f64) -> Self {
        assert!(
            block.is_power_of_two() && block > 4,
            "ROI block must be a power of two > 4 (b = 2^n, n > 2), got {block}"
        );
        RoiConfig { block, frac }
    }

    /// The paper's default: `b = 16`, top 50% of blocks.
    pub fn paper_default() -> Self {
        Self::new(16, 0.5)
    }
}

/// Converts a uniform field into 2-level adaptive data.
///
/// Level 0 holds the ROI blocks verbatim (`unit = b`); level 1 holds every
/// non-ROI block 2× average-downsampled (`unit = b/2`).
///
/// # Panics
/// Panics if any domain extent is not a multiple of `cfg.block` (the paper's
/// datasets are powers of two; edge-partial ROI blocks are out of scope).
pub fn to_adaptive(field: &Field3, cfg: &RoiConfig) -> MultiResData {
    let domain = field.dims();
    assert!(
        domain.nx.is_multiple_of(cfg.block)
            && domain.ny.is_multiple_of(cfg.block)
            && domain.nz.is_multiple_of(cfg.block),
        "domain {domain} not divisible by ROI block {}",
        cfg.block
    );
    let grid = BlockGrid::new(domain, cfg.block);
    let roi: Vec<usize> = grid.top_range_blocks(field, cfg.frac);
    let mut is_roi = vec![false; grid.num_blocks()];
    for &i in &roi {
        is_roi[i] = true;
    }

    // Every block is cut out (and the non-ROI ones averaged down) on its
    // own; the fan-out keeps block order, which the levels inherit.
    let blocks: Vec<(BlockRef, bool)> = grid.iter().zip(is_roi).collect();
    let units: Vec<UnitBlock> = blocks
        .par_iter()
        .map(|&(blk, is_roi)| {
            let size = Dims3::cube(cfg.block);
            if is_roi {
                UnitBlock {
                    origin: blk.origin,
                    data: field.extract_box(blk.origin, size).into_vec(),
                }
            } else {
                UnitBlock {
                    origin: blk.origin.map(|o| o / 2),
                    data: field.downsample2_box(blk.origin, size).into_vec(),
                }
            }
        })
        .collect();
    let mut fine_blocks = Vec::with_capacity(roi.len());
    let mut coarse_blocks = Vec::with_capacity(blocks.len() - roi.len());
    for (unit, (_, is_roi)) in units.into_iter().zip(blocks) {
        if is_roi {
            fine_blocks.push(unit);
        } else {
            coarse_blocks.push(unit);
        }
    }

    MultiResData {
        domain,
        levels: vec![
            LevelData {
                level: 0,
                unit: cfg.block,
                dims: domain,
                blocks: fine_blocks,
            },
            LevelData {
                level: 1,
                unit: cfg.block / 2,
                dims: domain.div_ceil(2),
                blocks: coarse_blocks,
            },
        ],
    }
}

/// Builds the "ROI only" field of Fig. 4: ROI blocks keep their data, the rest
/// of the domain is zeroed. Returns the field and the ROI volume fraction.
pub fn roi_only_field(field: &Field3, cfg: &RoiConfig) -> (Field3, f64) {
    let grid = BlockGrid::new(field.dims(), cfg.block);
    let roi = grid.top_range_blocks(field, cfg.frac);
    let mut out = Field3::zeros(field.dims());
    let blocks: Vec<_> = grid.iter().collect();
    for &i in &roi {
        let blk = blocks[i];
        let cube = field.extract_box(blk.origin, blk.size);
        out.insert_box(blk.origin, &cube);
    }
    let frac = roi.len() as f64 / grid.num_blocks() as f64;
    (out, frac)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Upsample;

    /// A field with a sharp hot corner and a smooth background.
    fn hotspot_field(n: usize) -> Field3 {
        Field3::from_fn(Dims3::cube(n), |x, y, z| {
            let base = 0.01 * (x + y + z) as f32;
            let spike = if x < n / 4 && y < n / 4 && z < n / 4 {
                ((x * 13 + y * 7 + z * 3) % 17) as f32
            } else {
                0.0
            };
            base + spike
        })
    }

    #[test]
    fn adaptive_partitions_domain_exactly() {
        let f = hotspot_field(32);
        let mr = to_adaptive(&f, &RoiConfig::new(8, 0.25));
        assert_eq!(mr.coverage_defects(), 0);
        assert_eq!(mr.levels.len(), 2);
        assert_eq!(mr.levels[0].unit, 8);
        assert_eq!(mr.levels[1].unit, 4);
        // 25% of 64 blocks = 16 fine blocks, 48 coarse.
        assert_eq!(mr.levels[0].blocks.len(), 16);
        assert_eq!(mr.levels[1].blocks.len(), 48);
    }

    #[test]
    fn roi_captures_high_range_region() {
        let f = hotspot_field(32);
        let mr = to_adaptive(&f, &RoiConfig::new(8, 0.25));
        // The hot corner occupies the first 4³=64 cells of block space; the
        // 8³-block grid is 4³ so the corner spans 1 block... it spans blocks
        // with origin < 8 in every axis: exactly 1. All selected blocks must
        // include it.
        let has_corner = mr.levels[0].blocks.iter().any(|b| b.origin == [0, 0, 0]);
        assert!(has_corner);
    }

    #[test]
    fn reconstruction_is_exact_inside_roi() {
        let f = hotspot_field(32);
        let mr = to_adaptive(&f, &RoiConfig::new(8, 0.25));
        let r = mr.reconstruct(Upsample::Nearest);
        // Fine blocks reproduce original data exactly.
        for b in &mr.levels[0].blocks {
            for dx in 0..8 {
                assert_eq!(
                    r.get(b.origin[0] + dx, b.origin[1], b.origin[2]),
                    f.get(b.origin[0] + dx, b.origin[1], b.origin[2])
                );
            }
        }
    }

    #[test]
    fn reconstruction_error_is_bounded_by_smoothness_outside_roi() {
        let f = hotspot_field(32);
        let mr = to_adaptive(&f, &RoiConfig::new(8, 0.25));
        let r = mr.reconstruct(Upsample::Nearest);
        // Background is a gentle ramp (slope 0.01/cell): 2× averaging then
        // nearest upsampling errs by at most ~ 3 cells of slope.
        let mut max_err = 0f32;
        for (a, b) in f.data().iter().zip(r.data()) {
            max_err = max_err.max((a - b).abs());
        }
        assert!(max_err < 0.05, "max_err = {max_err}");
    }

    #[test]
    fn storage_savings_match_roi_fraction() {
        let f = hotspot_field(32);
        let mr = to_adaptive(&f, &RoiConfig::new(8, 0.25));
        // 25% full + 75%/8 = 0.34375 of original cells.
        let expect = 1.0 / 0.34375;
        assert!((mr.storage_ratio() - expect).abs() < 1e-9);
    }

    #[test]
    fn roi_only_field_fraction() {
        let f = hotspot_field(32);
        let (roi, frac) = roi_only_field(&f, &RoiConfig::new(8, 0.25));
        assert!((frac - 0.25).abs() < 1e-12);
        // Non-ROI area is zeroed.
        let zeros = roi.data().iter().filter(|&&v| v == 0.0).count();
        assert!(zeros >= 32 * 32 * 32 * 3 / 5);
    }

    #[test]
    #[should_panic(expected = "power of two > 4")]
    fn rejects_small_block() {
        RoiConfig::new(4, 0.5);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn rejects_unaligned_domain() {
        let f = Field3::zeros(Dims3::new(20, 32, 32));
        to_adaptive(&f, &RoiConfig::new(8, 0.5));
    }
}
