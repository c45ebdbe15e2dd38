//! Synthetic AMR hierarchies with target per-level densities.
//!
//! The paper's AMR datasets come out of AMReX-based codes (Nyx, IAMR). Our
//! substitute assigns each `unit³` region of a fine uniform field to a
//! refinement level by value range — the same refinement criterion family AMR
//! codes use ("the mesh is refined … when the average value of a block
//! exceeds predefined thresholds", §II-B) — with quantile thresholds chosen to
//! hit the Table III densities (e.g. Nyx-T1: fine 18% / coarse 82%;
//! RT: 15/31/54).

use crate::types::{LevelData, MultiResData, UnitBlock};
use hqmr_grid::{BlockGrid, Dims3, Field3};

/// AMR generation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct AmrConfig {
    /// Fine-level unit block side (power of two; coarser levels halve it).
    pub unit: usize,
    /// Target fraction of the domain per level, fine → coarse. Must sum to 1.
    pub densities: Vec<f64>,
}

impl AmrConfig {
    /// Creates a config.
    ///
    /// # Panics
    /// Panics if densities don't sum to ~1, if there are fewer than 2 levels,
    /// or if the coarsest unit block would drop below 2 cells.
    pub fn new(unit: usize, densities: Vec<f64>) -> Self {
        assert!(densities.len() >= 2, "AMR needs at least 2 levels");
        let sum: f64 = densities.iter().sum();
        assert!(
            (sum - 1.0).abs() < 1e-9,
            "densities must sum to 1, got {sum}"
        );
        assert!(unit.is_power_of_two(), "unit must be a power of two");
        assert!(
            unit >> (densities.len() - 1) >= 2,
            "unit {unit} too small for {} levels",
            densities.len()
        );
        AmrConfig { unit, densities }
    }

    /// Nyx-T1-like: 2 levels, fine 18% / coarse 82% (Table III).
    pub fn nyx_t1() -> Self {
        Self::new(16, vec![0.18, 0.82])
    }

    /// Nyx-T2-like: 2 levels, fine 58% / coarse 42%.
    pub fn nyx_t2() -> Self {
        Self::new(16, vec![0.58, 0.42])
    }

    /// RT-like: 3 levels, 15% / 31% / 54%.
    pub fn rt() -> Self {
        Self::new(16, vec![0.15, 0.31, 0.54])
    }
}

/// Builds an AMR hierarchy from a fine uniform field.
///
/// Blocks are ranked by value range; the top `densities[0]` fraction becomes
/// level 0 (stored verbatim), the next `densities[1]` fraction level 1
/// (2× downsampled), and so on.
///
/// # Panics
/// Panics if the domain is not divisible by `cfg.unit`.
pub fn to_amr(field: &Field3, cfg: &AmrConfig) -> MultiResData {
    let domain = field.dims();
    assert!(
        domain.nx.is_multiple_of(cfg.unit)
            && domain.ny.is_multiple_of(cfg.unit)
            && domain.nz.is_multiple_of(cfg.unit),
        "domain {domain} not divisible by unit {}",
        cfg.unit
    );
    let grid = BlockGrid::new(domain, cfg.unit);
    let order = grid.rank_by_range(field);

    // Split the ranked blocks into per-level index sets by target density.
    let n_levels = cfg.densities.len();
    let n_blocks = grid.num_blocks();
    let mut level_of = vec![0usize; n_blocks];
    let mut cursor = 0usize;
    for (lvl, &d) in cfg.densities.iter().enumerate() {
        let take = if lvl + 1 == n_levels {
            n_blocks - cursor
        } else {
            ((n_blocks as f64) * d).round() as usize
        };
        for &bi in order.iter().skip(cursor).take(take) {
            level_of[bi] = lvl;
        }
        cursor += take;
    }

    let blocks: Vec<_> = grid.iter().collect();
    let mut levels: Vec<LevelData> = (0..n_levels)
        .map(|lvl| LevelData {
            level: lvl,
            unit: cfg.unit >> lvl,
            dims: Dims3::new(domain.nx >> lvl, domain.ny >> lvl, domain.nz >> lvl),
            blocks: Vec::new(),
        })
        .collect();
    for (bi, blk) in blocks.iter().enumerate() {
        let lvl = level_of[bi];
        let mut cube = field.extract_box(blk.origin, Dims3::cube(cfg.unit));
        for _ in 0..lvl {
            cube = cube.downsample2();
        }
        let f = 1usize << lvl;
        levels[lvl].blocks.push(UnitBlock {
            origin: [blk.origin[0] / f, blk.origin[1] / f, blk.origin[2] / f],
            data: cube.into_vec(),
        });
    }
    MultiResData { domain, levels }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Upsample;

    fn structured_field(n: usize) -> Field3 {
        // Range concentrates around a spherical shell: a natural "refine here".
        let c = n as f32 / 2.0;
        Field3::from_fn(Dims3::cube(n), |x, y, z| {
            let r =
                ((x as f32 - c).powi(2) + (y as f32 - c).powi(2) + (z as f32 - c).powi(2)).sqrt();
            (-(r - n as f32 / 4.0).powi(2) / 8.0).exp() * 100.0 + 0.001 * (x + y) as f32
        })
    }

    #[test]
    fn two_level_partition_valid() {
        let f = structured_field(64);
        let mr = to_amr(&f, &AmrConfig::nyx_t1());
        assert_eq!(mr.coverage_defects(), 0);
        assert_eq!(mr.levels.len(), 2);
        // Fine-level fraction ≈ 18% of blocks.
        let total = 64usize.pow(3) / 16usize.pow(3);
        let got = mr.levels[0].blocks.len() as f64 / total as f64;
        assert!((got - 0.18).abs() < 0.05, "fine density {got}");
    }

    #[test]
    fn three_level_partition_valid() {
        let f = structured_field(64);
        let mr = to_amr(&f, &AmrConfig::rt());
        assert_eq!(mr.coverage_defects(), 0);
        assert_eq!(mr.levels.len(), 3);
        assert_eq!(mr.levels[2].unit, 4);
        let total: usize = mr.levels.iter().map(|l| l.blocks.len()).sum();
        assert_eq!(total, 64);
    }

    #[test]
    fn fine_level_holds_high_range_blocks() {
        let f = structured_field(64);
        let mr = to_amr(&f, &AmrConfig::nyx_t1());
        let grid = BlockGrid::new(f.dims(), 16);
        let ranges = grid.block_ranges(&f);
        let mut fine_min = f32::INFINITY;
        for b in &mr.levels[0].blocks {
            let bi = (b.origin[0] / 16 * 4 + b.origin[1] / 16) * 4 + b.origin[2] / 16;
            fine_min = fine_min.min(ranges[bi]);
        }
        let mut coarse_max = 0f32;
        for b in &mr.levels[1].blocks {
            let bi = (b.origin[0] / 8 * 4 + b.origin[1] / 8) * 4 + b.origin[2] / 8;
            coarse_max = coarse_max.max(ranges[bi]);
        }
        assert!(
            fine_min >= coarse_max,
            "fine_min {fine_min} < coarse_max {coarse_max}"
        );
    }

    #[test]
    fn reconstruction_exact_on_fine_level() {
        let f = structured_field(32);
        let mr = to_amr(&f, &AmrConfig::new(8, vec![0.25, 0.75]));
        let r = mr.reconstruct(Upsample::Nearest);
        for b in &mr.levels[0].blocks {
            assert_eq!(
                r.get(b.origin[0], b.origin[1], b.origin[2]),
                f.get(b.origin[0], b.origin[1], b.origin[2])
            );
        }
    }

    /// Both range selectors rank on `BlockGrid::rank_by_range`: a block of
    /// nothing but +∞ (range ∞ − ∞ = NaN) ranks last instead of aborting
    /// the sort, so it stays on the coarse level.
    #[test]
    fn nan_range_blocks_rank_last_in_both_selectors() {
        let mut f = Field3::from_fn(Dims3::new(8, 8, 512), |x, y, z| {
            ((x + 2 * y + 3 * z) % 17) as f32
        });
        for z in 0..512 {
            if (z / 8) % 3 == 0 {
                for x in 0..8 {
                    for y in 0..8 {
                        f.set(x, y, z, f32::INFINITY);
                    }
                }
            }
        }
        let finite =
            |blocks: &[UnitBlock]| blocks.iter().all(|b| b.data.iter().all(|v| v.is_finite()));
        let amr = to_amr(&f, &AmrConfig::new(8, vec![0.5, 0.5]));
        assert_eq!(amr.coverage_defects(), 0);
        assert_eq!(amr.levels[0].blocks.len(), 32);
        assert!(finite(&amr.levels[0].blocks));
        let roi = crate::to_adaptive(&f, &crate::RoiConfig::new(8, 0.5));
        assert_eq!(roi.coverage_defects(), 0);
        assert_eq!(roi.levels[0].blocks.len(), 32);
        assert!(finite(&roi.levels[0].blocks));
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn rejects_bad_densities() {
        AmrConfig::new(16, vec![0.5, 0.2]);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn rejects_too_many_levels() {
        AmrConfig::new(4, vec![0.2, 0.3, 0.5]);
    }
}
