//! Shared experiment machinery: rate-distortion sweeps, CR matching,
//! block-wise multi-resolution round-trips, formatting.

use hqmr_core::mrc::{compress_mr, decompress_mr, Backend, MrcConfig};
use hqmr_core::post::{bezier_pass, select_intensity, PostConfig};
use hqmr_grid::Field3;
use hqmr_mr::{merge_level, LevelData, MergeStrategy, MultiResData};
use hqmr_sz2::Sz2Codec;

/// A named `MrcConfig` constructor from an absolute error bound — the shape
/// every sweep table is built from.
pub type MkConfig = fn(f64) -> MrcConfig;

/// One point on a rate-distortion curve.
#[derive(Debug, Clone, Copy)]
pub struct RdPoint {
    /// Compression ratio.
    pub cr: f64,
    /// PSNR in dB.
    pub psnr: f64,
}

/// PSNR over raw sample slices (used for per-level comparisons where a dense
/// field would dilute the metric with untouched fill values).
pub fn psnr_slices(orig: &[f32], dec: &[f32]) -> f64 {
    assert_eq!(orig.len(), dec.len());
    let (mut mn, mut mx) = (f32::INFINITY, f32::NEG_INFINITY);
    let mut mse = 0.0f64;
    for (&a, &b) in orig.iter().zip(dec) {
        mn = mn.min(a);
        mx = mx.max(a);
        let d = a as f64 - b as f64;
        mse += d * d;
    }
    mse /= orig.len() as f64;
    if mse == 0.0 {
        return f64::INFINITY;
    }
    20.0 * ((mx - mn) as f64).log10() - 10.0 * mse.log10()
}

/// Concatenated block values of a level (fine-to-coarse raster order).
pub fn level_values(level: &LevelData) -> Vec<f32> {
    level
        .blocks
        .iter()
        .flat_map(|b| b.data.iter().copied())
        .collect()
}

/// PSNR between two structurally identical levels, over stored block data.
pub fn level_psnr(a: &LevelData, b: &LevelData) -> f64 {
    psnr_slices(&level_values(a), &level_values(b))
}

/// Wraps one level as a standalone [`MultiResData`] so per-level CR and
/// quality can be measured in isolation (the per-panel plots of Fig. 15).
pub fn single_level(mr: &MultiResData, idx: usize) -> MultiResData {
    let mut lvl = mr.levels[idx].clone();
    lvl.level = 0;
    MultiResData {
        domain: lvl.dims,
        levels: vec![lvl],
    }
}

/// Compresses `mr` under `cfg`, returning `(cr, per-level PSNR over stored
/// blocks)`.
pub fn roundtrip_mr(mr: &MultiResData, cfg: &MrcConfig) -> (f64, Vec<f64>) {
    let (bytes, stats) = compress_mr(mr, cfg);
    let back = decompress_mr(&bytes).expect("fresh stream must decompress");
    let psnrs = mr
        .levels
        .iter()
        .zip(&back.levels)
        .map(|(a, b)| level_psnr(a, b))
        .collect();
    (stats.ratio(), psnrs)
}

/// Sweeps relative error bounds and returns one rate-distortion curve per
/// configuration constructor.
pub fn rd_sweep(
    mr: &MultiResData,
    range: f64,
    rel_ebs: &[f64],
    configs: &[(&'static str, MkConfig)],
) -> Vec<(&'static str, Vec<RdPoint>)> {
    configs
        .iter()
        .map(|&(name, mk)| {
            let pts = rel_ebs
                .iter()
                .map(|&rel| {
                    let (cr, psnrs) = roundtrip_mr(mr, &mk(range * rel));
                    RdPoint {
                        cr,
                        psnr: combine_level_psnr(mr, &psnrs),
                    }
                })
                .collect();
            (name, pts)
        })
        .collect()
}

/// Combines per-level PSNRs into a dataset PSNR by recomputing over all
/// stored values (cheap; levels already round-tripped inside `rd_sweep`).
fn combine_level_psnr(mr: &MultiResData, per_level: &[f64]) -> f64 {
    // Weighted in the MSE domain by stored cell counts; ranges differ per
    // level so this is approximate, but monotone in the thing we plot.
    let mut total_cells = 0.0f64;
    let mut mse_acc = 0.0f64;
    let mut range: f64 = 0.0;
    for (lvl, &p) in mr.levels.iter().zip(per_level) {
        let vals = level_values(lvl);
        if vals.is_empty() {
            continue;
        }
        let (mn, mx) = vals
            .iter()
            .fold((f32::INFINITY, f32::NEG_INFINITY), |(a, b), &v| {
                (a.min(v), b.max(v))
            });
        let r = (mx - mn) as f64;
        range = range.max(r);
        let mse = if p.is_finite() {
            (r.powi(2)) / 10f64.powf(p / 10.0)
        } else {
            0.0
        };
        let n = vals.len() as f64;
        mse_acc += mse * n;
        total_cells += n;
    }
    if total_cells == 0.0 || mse_acc == 0.0 {
        return f64::INFINITY;
    }
    20.0 * range.log10() - 10.0 * (mse_acc / total_cells).log10()
}

/// Finds the relative error bound whose compression ratio is closest to
/// `target_cr` by bisection on `log(rel_eb)` (CR grows with eb).
pub fn match_cr(
    eval: impl Fn(f64) -> f64,
    mut lo_rel: f64,
    mut hi_rel: f64,
    target_cr: f64,
    iters: usize,
) -> f64 {
    for _ in 0..iters {
        let mid = (lo_rel.ln() + hi_rel.ln()) / 2.0;
        let mid = mid.exp();
        if eval(mid) < target_cr {
            lo_rel = mid;
        } else {
            hi_rel = mid;
        }
    }
    (lo_rel.ln() / 2.0 + hi_rel.ln() / 2.0).exp()
}

/// Compress + decompress through `backend`'s codec, returning
/// `(compressed bytes, reconstruction)`.
pub fn roundtrip(backend: Backend, field: &Field3, eb: f64) -> (usize, Field3) {
    let codec = backend.codec();
    let bytes = codec.compress(field, eb);
    let d = codec.decompress(&bytes).expect("codec roundtrip");
    (bytes.len(), d)
}

/// The post-process configuration matching a block-wise backend: AMRIC's
/// 4³ SZ2 blocks, other SZ2 blocks, or ZFP.
pub fn post_config(backend: Backend) -> PostConfig {
    match backend {
        Backend::Sz2(Sz2Codec { block: 4 }) => PostConfig::sz2_multires(),
        Backend::Sz2(_) => PostConfig::sz2(),
        Backend::Zfp => PostConfig::zfp(),
        other => panic!("{} is not a block-wise backend", other.name()),
    }
}

/// Result of a block-wise round-trip over multi-resolution data.
pub struct MrBlockwiseResult {
    /// Compression ratio over stored cells.
    pub cr: f64,
    /// PSNR of stored values before post-processing.
    pub psnr_ori: f64,
    /// PSNR after the Bézier post-process.
    pub psnr_post: f64,
    /// Per-level `(psnr_ori, psnr_post)`.
    pub per_level: Vec<(f64, f64)>,
}

/// Round-trips multi-resolution data through a block-wise codec (the
/// AMRIC-SZ2 / ZFP paths of Tables V and VII): stack-merge each level,
/// compress the merged arrays, then post-process each decompressed array.
pub fn mr_blockwise_roundtrip(mr: &MultiResData, backend: Backend, eb: f64) -> MrBlockwiseResult {
    let mut bytes = 0usize;
    let mut per_level = Vec::new();
    let mut all_o: Vec<f32> = Vec::new();
    let mut all_d: Vec<f32> = Vec::new();
    let mut all_p: Vec<f32> = Vec::new();
    for level in &mr.levels {
        let arrays = merge_level(level, MergeStrategy::Stack);
        let mut lo: Vec<f32> = Vec::new();
        let mut ld: Vec<f32> = Vec::new();
        let mut lp: Vec<f32> = Vec::new();
        for m in &arrays {
            let (b, dec) = roundtrip(backend, &m.field, eb);
            bytes += b;
            let cfg = post_config(backend);
            let choice = select_intensity(&m.field, &dec, eb, &cfg);
            let post = bezier_pass(&dec, eb, choice.a, &cfg);
            // Only real slots count toward quality (stack filler excluded).
            for &(slot, _) in &m.slots {
                let size = hqmr_grid::Dims3::cube(m.unit);
                lo.extend(m.field.extract_box(slot, size).into_vec());
                ld.extend(dec.extract_box(slot, size).into_vec());
                lp.extend(post.extract_box(slot, size).into_vec());
            }
        }
        per_level.push((psnr_slices(&lo, &ld), psnr_slices(&lo, &lp)));
        all_o.extend(lo);
        all_d.extend(ld);
        all_p.extend(lp);
    }
    MrBlockwiseResult {
        cr: (mr.total_cells() * 4) as f64 / bytes.max(1) as f64,
        psnr_ori: psnr_slices(&all_o, &all_d),
        psnr_post: psnr_slices(&all_o, &all_p),
        per_level,
    }
}

/// Formats a labelled row of numbers.
pub fn row(
    label: &str,
    values: impl IntoIterator<Item = f64>,
    width: usize,
    prec: usize,
) -> String {
    let mut s = format!("{label:<16}");
    for v in values {
        if v.is_finite() {
            s.push_str(&format!(" {v:>width$.prec$}"));
        } else {
            s.push_str(&format!(" {:>width$}", "inf"));
        }
    }
    s.push('\n');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use hqmr_grid::synth;
    use hqmr_mr::{to_amr, AmrConfig};

    #[test]
    fn psnr_slices_matches_definition() {
        let o = vec![0.0f32, 10.0];
        let d = vec![0.1f32, 10.1];
        // range 10, rmse 0.1 → 40 dB (f32 representation error allowed).
        assert!((psnr_slices(&o, &d) - 40.0).abs() < 1e-3);
    }

    #[test]
    fn match_cr_converges() {
        // CR model: cr(rel) = 1000·rel (monotone).
        let rel = match_cr(|r| 1000.0 * r, 1e-4, 1.0, 50.0, 40);
        assert!((1000.0 * rel - 50.0).abs() < 1.0, "rel={rel}");
    }

    #[test]
    fn mr_blockwise_roundtrip_bounds_and_improves() {
        let f = synth::nyx_like(32, 3);
        let mr = to_amr(&f, &AmrConfig::new(8, vec![0.25, 0.75]));
        let eb = f.range() as f64 * 1e-3;
        let r = mr_blockwise_roundtrip(&mr, Backend::SZ2, eb);
        assert!(r.cr > 1.0);
        assert!(
            r.psnr_post >= r.psnr_ori - 0.01,
            "{} vs {}",
            r.psnr_post,
            r.psnr_ori
        );
    }
}
