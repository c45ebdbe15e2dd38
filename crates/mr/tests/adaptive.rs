//! Dedicated coverage for `hqmr_mr::adaptive` — the uniform → adaptive
//! conversion (`to_adaptive`), the Fig. 4 ROI visualization helper
//! (`roi_only_field`) and the paper-default configuration
//! (`RoiConfig::paper_default`), exercised as an integration surface rather
//! than through the module's own unit tests: ROI blocks must survive at full
//! resolution bit-for-bit, off-ROI blocks must be the exact 2× average
//! downsample, and reconstruction error off-ROI must be bounded by the
//! field's local variation.

use hqmr_grid::{BlockGrid, Dims3, Field3};
use hqmr_mr::{roi_only_field, to_adaptive, RoiConfig, Upsample};

/// A field whose value range concentrates in one octant: a linear ramp
/// background (gentle, low range per block) plus a high-frequency spike
/// region (high range) in the low corner.
fn corner_spike_field(n: usize) -> Field3 {
    Field3::from_fn(Dims3::cube(n), |x, y, z| {
        let ramp = 0.02 * (x + 2 * y + 3 * z) as f32;
        if x < n / 2 && y < n / 2 && z < n / 2 {
            ramp + ((x * 31 + y * 17 + z * 11) % 23) as f32
        } else {
            ramp
        }
    })
}

#[test]
fn paper_default_is_b16_top_half() {
    let cfg = RoiConfig::paper_default();
    assert_eq!(cfg.block, 16);
    assert!((cfg.frac - 0.5).abs() < 1e-12);
    // And it runs end to end on a b-divisible domain.
    let f = corner_spike_field(32);
    let mr = to_adaptive(&f, &cfg);
    assert_eq!(mr.levels.len(), 2);
    assert_eq!(mr.levels[0].unit, 16);
    assert_eq!(mr.levels[1].unit, 8);
    assert_eq!(mr.coverage_defects(), 0);
    let total = 8; // (32/16)³ blocks
    assert_eq!(mr.levels[0].blocks.len() + mr.levels[1].blocks.len(), total);
}

#[test]
fn roi_blocks_are_kept_at_full_resolution_verbatim() {
    let f = corner_spike_field(32);
    // 8/64 blocks: exactly the spike octant's 2×2×2 block group, whose
    // ranges dwarf the ramp background's.
    let cfg = RoiConfig::new(8, 0.125);
    let mr = to_adaptive(&f, &cfg);
    assert_eq!(mr.levels[0].blocks.len(), 8);
    let b = cfg.block;
    for blk in &mr.levels[0].blocks {
        // Every cell of every fine block equals the original field exactly.
        for dx in 0..b {
            for dy in 0..b {
                for dz in 0..b {
                    assert_eq!(
                        blk.data[Dims3::cube(b).idx(dx, dy, dz)],
                        f.get(blk.origin[0] + dx, blk.origin[1] + dy, blk.origin[2] + dz),
                        "fine block at {:?} differs at +({dx},{dy},{dz})",
                        blk.origin
                    );
                }
            }
        }
    }
    // The spike octant has the top block ranges: every fine block sits
    // inside it.
    for blk in &mr.levels[0].blocks {
        assert!(
            blk.origin.iter().all(|&o| o < 16),
            "ROI block escaped the spike octant: {:?}",
            blk.origin
        );
    }
}

#[test]
fn off_roi_blocks_are_exact_2x_average_downsamples() {
    let f = corner_spike_field(32);
    let cfg = RoiConfig::new(8, 0.25);
    let mr = to_adaptive(&f, &cfg);
    let b = cfg.block;
    for blk in &mr.levels[1].blocks {
        // Coarse origins are fine origins halved; recover the fine box and
        // downsample it independently.
        let fine_origin = [blk.origin[0] * 2, blk.origin[1] * 2, blk.origin[2] * 2];
        let expect = f.extract_box(fine_origin, Dims3::cube(b)).downsample2();
        assert_eq!(
            blk.data,
            expect.into_vec(),
            "coarse block at {:?} is not the exact average downsample",
            blk.origin
        );
    }
}

#[test]
fn reconstruction_is_exact_on_roi_and_bounded_off_roi() {
    let f = corner_spike_field(32);
    let cfg = RoiConfig::new(8, 0.25);
    let mr = to_adaptive(&f, &cfg);
    let r = mr.reconstruct(Upsample::Nearest);
    assert_eq!(r.dims(), f.dims());
    let d = f.dims();
    // Off-ROI cells: 2× averaging + nearest upsampling can err by at most
    // the value spread of the 2×2×2 fine-cell group the cell was averaged
    // with — for the ramp background (slope 0.02/0.04/0.06 per axis) that
    // spread is ≤ 0.02 + 0.04 + 0.06.
    let bound = 0.121f32;
    let in_roi = |x: usize, y: usize, z: usize| {
        mr.levels[0].blocks.iter().any(|b| {
            (b.origin[0]..b.origin[0] + 8).contains(&x)
                && (b.origin[1]..b.origin[1] + 8).contains(&y)
                && (b.origin[2]..b.origin[2] + 8).contains(&z)
        })
    };
    let mut checked_roi = 0usize;
    let mut max_off = 0f32;
    for x in 0..d.nx {
        for y in 0..d.ny {
            for z in 0..d.nz {
                let err = (r.get(x, y, z) - f.get(x, y, z)).abs();
                if in_roi(x, y, z) {
                    assert_eq!(err, 0.0, "ROI cell ({x},{y},{z}) not exact");
                    checked_roi += 1;
                } else {
                    max_off = max_off.max(err);
                }
            }
        }
    }
    assert!(checked_roi > 0, "ROI must be non-empty");
    assert!(
        max_off <= bound,
        "off-ROI reconstruction error {max_off} exceeds smoothness bound {bound}"
    );
}

#[test]
fn roi_only_field_zeroes_exactly_the_complement() {
    let f = corner_spike_field(32);
    let cfg = RoiConfig::new(8, 0.25);
    let (roi, frac) = roi_only_field(&f, &cfg);
    assert!((frac - 0.25).abs() < 1e-12);
    // Rebuild the ROI membership from the same selection the extractor uses
    // and check both directions: kept cells verbatim, dropped cells zero.
    let grid = BlockGrid::new(f.dims(), cfg.block);
    let top = grid.top_range_blocks(&f, cfg.frac);
    let blocks: Vec<_> = grid.iter().collect();
    let mut kept = vec![false; blocks.len()];
    for &i in &top {
        kept[i] = true;
    }
    for (i, blk) in blocks.iter().enumerate() {
        for dx in 0..cfg.block {
            for dy in 0..cfg.block {
                for dz in 0..cfg.block {
                    let (x, y, z) = (blk.origin[0] + dx, blk.origin[1] + dy, blk.origin[2] + dz);
                    if kept[i] {
                        assert_eq!(roi.get(x, y, z), f.get(x, y, z));
                    } else {
                        assert_eq!(roi.get(x, y, z), 0.0, "off-ROI cell ({x},{y},{z}) kept");
                    }
                }
            }
        }
    }
}

#[test]
fn frac_extremes_degenerate_cleanly() {
    let f = corner_spike_field(16);
    // frac 1.0: everything fine, reconstruction is the identity.
    let all = to_adaptive(&f, &RoiConfig::new(8, 1.0));
    assert_eq!(all.levels[0].blocks.len(), 8);
    assert!(all.levels[1].blocks.is_empty());
    assert_eq!(all.reconstruct(Upsample::Nearest), f);
    assert_eq!(all.coverage_defects(), 0);
    // frac 0.0: everything coarse, storage ratio is the full 8×.
    let none = to_adaptive(&f, &RoiConfig::new(8, 0.0));
    assert!(none.levels[0].blocks.is_empty());
    assert_eq!(none.levels[1].blocks.len(), 8);
    assert_eq!(none.coverage_defects(), 0);
    assert!((none.storage_ratio() - 8.0).abs() < 1e-9);
}

#[test]
fn non_cubic_domains_partition_cleanly() {
    let f = Field3::from_fn(Dims3::new(16, 24, 8), |x, y, z| {
        (x as f32).mul_add(1.5, (y % 5) as f32) + if z < 4 { 40.0 } else { 0.0 }
    });
    let mr = to_adaptive(&f, &RoiConfig::new(8, 0.5));
    assert_eq!(mr.coverage_defects(), 0);
    assert_eq!(mr.levels[1].dims, Dims3::new(8, 12, 4));
    // The partition preserves the total cell budget: fine cells + 8× coarse
    // cells cover the domain exactly once.
    let fine = mr.levels[0].blocks.len() * 8usize.pow(3);
    let coarse = mr.levels[1].blocks.len() * 4usize.pow(3);
    assert_eq!(fine + coarse * 8, f.len());
}

/// `to_adaptive` as first written — one block after another, every cell
/// through `Field3::get`, children summed `dx`, `dy`, `dz` in `f64` — kept as
/// the oracle the row-slice, fanned-out product code must equal bit for bit.
fn to_adaptive_per_cell(f: &Field3, cfg: &RoiConfig) -> hqmr_mr::MultiResData {
    use hqmr_mr::{LevelData, MultiResData, UnitBlock};
    let b = cfg.block;
    let grid = BlockGrid::new(f.dims(), b);
    let blocks: Vec<_> = grid.iter().collect();
    let ranges: Vec<f32> = blocks
        .iter()
        .map(|blk| {
            let (mut mn, mut mx) = (f32::INFINITY, f32::NEG_INFINITY);
            for x in 0..b {
                for y in 0..b {
                    for z in 0..b {
                        let v = f.get(blk.origin[0] + x, blk.origin[1] + y, blk.origin[2] + z);
                        mn = mn.min(v);
                        mx = mx.max(v);
                    }
                }
            }
            mx - mn
        })
        .collect();
    let k = (ranges.len() as f64 * cfg.frac.clamp(0.0, 1.0)).round() as usize;
    let mut order: Vec<usize> = (0..ranges.len()).collect();
    order.sort_by(|&i, &j| {
        ranges[j]
            .partial_cmp(&ranges[i])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(i.cmp(&j))
    });
    let mut is_roi = vec![false; blocks.len()];
    for &i in &order[..k] {
        is_roi[i] = true;
    }
    let (mut fine, mut coarse) = (Vec::new(), Vec::new());
    for (blk, is_roi) in blocks.iter().zip(is_roi) {
        let o = blk.origin;
        if is_roi {
            let data = Field3::from_fn(Dims3::cube(b), |x, y, z| {
                f.get(o[0] + x, o[1] + y, o[2] + z)
            });
            fine.push(UnitBlock {
                origin: o,
                data: data.into_vec(),
            });
        } else {
            let data = Field3::from_fn(Dims3::cube(b / 2), |cx, cy, cz| {
                let mut sum = 0.0f64;
                for dx in 0..2 {
                    for dy in 0..2 {
                        for dz in 0..2 {
                            sum += f.get(o[0] + cx * 2 + dx, o[1] + cy * 2 + dy, o[2] + cz * 2 + dz)
                                as f64;
                        }
                    }
                }
                (sum / 8.0) as f32
            });
            coarse.push(UnitBlock {
                origin: [o[0] / 2, o[1] / 2, o[2] / 2],
                data: data.into_vec(),
            });
        }
    }
    MultiResData {
        domain: f.dims(),
        levels: vec![
            LevelData {
                level: 0,
                unit: b,
                dims: f.dims(),
                blocks: fine,
            },
            LevelData {
                level: 1,
                unit: b / 2,
                dims: f.dims().div_ceil(2),
                blocks: coarse,
            },
        ],
    }
}

#[test]
fn to_adaptive_matches_the_serial_per_cell_oracle() {
    // Cubes, an elongated domain, and block counts that are not powers of
    // two (so the fan-out's groups are uneven); smooth, spiky and tied
    // ranges (constant blocks: the index tie-break decides).
    let warpx = |d: Dims3| hqmr_grid::synth::warpx_like(d, 20240917);
    let cases: Vec<(Field3, RoiConfig)> = vec![
        (corner_spike_field(32), RoiConfig::new(8, 0.25)),
        (warpx(Dims3::cube(32)), RoiConfig::new(16, 0.5)),
        (warpx(Dims3::new(16, 16, 128)), RoiConfig::paper_default()),
        (warpx(Dims3::new(24, 40, 8)), RoiConfig::new(8, 0.5)),
        (warpx(Dims3::new(8, 24, 56)), RoiConfig::new(8, 0.3)),
        (
            Field3::from_fn(Dims3::new(16, 8, 24), |x, _, z| {
                ((x / 8) * 3 + z / 8) as f32
            }),
            RoiConfig::new(8, 0.5),
        ),
    ];
    for (f, cfg) in cases {
        let (got, want) = (to_adaptive(&f, &cfg), to_adaptive_per_cell(&f, &cfg));
        assert_eq!(got.domain, want.domain);
        assert_eq!(got.levels.len(), want.levels.len());
        for (g, w) in got.levels.iter().zip(&want.levels) {
            assert_eq!((g.level, g.unit, g.dims), (w.level, w.unit, w.dims));
            assert_eq!(
                g.blocks.len(),
                w.blocks.len(),
                "{} level {}",
                f.dims(),
                g.level
            );
            for (gb, wb) in g.blocks.iter().zip(&w.blocks) {
                assert_eq!(gb.origin, wb.origin, "{} level {}", f.dims(), g.level);
                let bits = |d: &[f32]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&gb.data), bits(&wb.data), "block at {:?}", gb.origin);
            }
        }
    }
}
