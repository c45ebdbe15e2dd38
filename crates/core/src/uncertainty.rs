//! Compression-uncertainty modelling (§III-C).
//!
//! The workflow samples `(original, decompressed)` pairs during compression
//! (the same samples the post-process uses — "reusing the information"),
//! fits a Gaussian to the errors of points **near the isovalue** (the
//! isovalue-related variance of §III-C), and feeds the model into
//! probabilistic marching cubes to show where compression may have destroyed
//! or cracked isosurface features (Fig. 14).

use hqmr_grid::Field3;
use hqmr_vis::{components_of, crossing_probability_field, surface_features, PmcConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Gaussian error model fitted from sampled compression errors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorModel {
    /// Mean error (≈ 0 for error-bounded compressors).
    pub mean: f64,
    /// Error standard deviation.
    pub sigma: f64,
    /// Number of samples behind the fit.
    pub samples: usize,
}

impl ErrorModel {
    /// Converts to a PMC configuration at `iso`.
    pub fn pmc(&self, iso: f32) -> PmcConfig {
        PmcConfig::independent(iso, self.mean, self.sigma.max(1e-12))
    }
}

/// Samples `(original value, error)` pairs at rate `frac` (deterministic in
/// `seed`): at least one pair, none from an empty field.
pub fn sample_error_pairs(orig: &Field3, decomp: &Field3, frac: f64, seed: u64) -> Vec<(f32, f64)> {
    assert_eq!(orig.dims(), decomp.dims(), "field dims mismatch");
    let n = orig.len();
    if n == 0 {
        return Vec::new();
    }
    let target = ((n as f64 * frac).ceil() as usize).clamp(1, n);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(target);
    for _ in 0..target {
        let i = rng.gen_range(0..n);
        out.push((
            orig.data()[i],
            decomp.data()[i] as f64 - orig.data()[i] as f64,
        ));
    }
    out
}

/// Fits the error Gaussian from samples whose original value lies within
/// `band` of `iso` (§III-C: "data points close to the isovalue are more
/// likely to be considered for the isosurface construction"). Falls back to
/// all samples when fewer than 16 land in the band.
pub fn model_near_isovalue(pairs: &[(f32, f64)], iso: f32, band: f32) -> ErrorModel {
    let near: Vec<f64> = pairs
        .iter()
        .filter(|(v, _)| (v - iso).abs() <= band)
        .map(|&(_, e)| e)
        .collect();
    let selected: Vec<f64> = if near.len() >= 16 {
        near
    } else {
        pairs.iter().map(|&(_, e)| e).collect()
    };
    if selected.is_empty() {
        return ErrorModel {
            mean: 0.0,
            sigma: 0.0,
            samples: 0,
        };
    }
    let n = selected.len() as f64;
    let mean = selected.iter().sum::<f64>() / n;
    let var = selected.iter().map(|e| (e - mean).powi(2)).sum::<f64>() / n;
    ErrorModel {
        mean,
        sigma: var.sqrt(),
        samples: selected.len(),
    }
}

/// Fig. 14's quantitative summary: how many isosurface features of the
/// original survive deterministic extraction from the decompressed data, and
/// how many of the lost ones the uncertainty visualization recovers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureRecovery {
    /// Features in the original data.
    pub original: usize,
    /// Original features still present in the decompressed extraction.
    pub preserved: usize,
    /// Lost features flagged by PMC probability ≥ threshold.
    pub recovered: usize,
}

/// Matches features by bounding-box centre distance (≤ `match_dist` cells).
fn matched(
    a: &hqmr_vis::SurfaceFeature,
    candidates: &[hqmr_vis::SurfaceFeature],
    match_dist: f64,
) -> bool {
    let c = a.center();
    candidates.iter().any(|b| {
        let d = b.center();
        (0..3).map(|k| (c[k] - d[k]).powi(2)).sum::<f64>().sqrt() <= match_dist
    })
}

/// Runs the full Fig. 14 analysis.
pub fn analyze_feature_recovery(
    orig: &Field3,
    decomp: &Field3,
    iso: f32,
    model: &ErrorModel,
    prob_threshold: f32,
    min_cells: usize,
    match_dist: f64,
) -> FeatureRecovery {
    let ref_feats = surface_features(orig, iso, min_cells);
    let dec_feats = surface_features(decomp, iso, min_cells);
    let (cd, prob) = crossing_probability_field(decomp, &model.pmc(iso));
    let mask: Vec<bool> = prob.iter().map(|&p| p >= prob_threshold).collect();
    let pmc_feats = components_of(cd, &mask, min_cells);

    let mut preserved = 0usize;
    let mut recovered = 0usize;
    for f in &ref_feats {
        if matched(f, &dec_feats, match_dist) {
            preserved += 1;
        } else if matched(f, &pmc_feats, match_dist) {
            recovered += 1;
        }
    }
    FeatureRecovery {
        original: ref_feats.len(),
        preserved,
        recovered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hqmr_grid::Dims3;

    #[test]
    fn error_model_recovers_known_distribution() {
        // Errors uniform in [-0.5, 0.5]: mean 0, sigma = 1/√12 ≈ 0.2887.
        let orig = Field3::from_fn(Dims3::cube(24), |x, y, z| (x + y + z) as f32);
        let mut dec = orig.clone();
        for (i, v) in dec.data_mut().iter_mut().enumerate() {
            *v += ((i * 2654435761) % 1000) as f32 / 1000.0 - 0.4995;
        }
        let pairs = sample_error_pairs(&orig, &dec, 0.5, 3);
        let m = model_near_isovalue(&pairs, 30.0, 1e9); // band covers all
        assert!(m.mean.abs() < 0.02, "mean {}", m.mean);
        assert!((m.sigma - 0.2887).abs() < 0.02, "sigma {}", m.sigma);
    }

    #[test]
    fn isovalue_conditioning_selects_local_errors() {
        // Error magnitude depends on the value: small near 0, large near 100.
        let orig = Field3::from_fn(Dims3::new(8, 8, 128), |_, _, z| z as f32);
        let mut dec = orig.clone();
        for (i, v) in dec.data_mut().iter_mut().enumerate() {
            let magnitude = if *v > 64.0 { 2.0 } else { 0.01 };
            *v += magnitude * (((i * 7919) % 200) as f32 / 100.0 - 1.0);
        }
        let pairs = sample_error_pairs(&orig, &dec, 0.8, 5);
        let low = model_near_isovalue(&pairs, 10.0, 8.0);
        let high = model_near_isovalue(&pairs, 100.0, 8.0);
        assert!(
            high.sigma > 20.0 * low.sigma,
            "high {} vs low {}",
            high.sigma,
            low.sigma
        );
    }

    #[test]
    fn model_with_no_samples_is_degenerate_but_safe() {
        let m = model_near_isovalue(&[], 0.0, 1.0);
        assert_eq!(m.samples, 0);
        assert_eq!(m.sigma, 0.0);
        // PMC config must still be constructible.
        let _ = m.pmc(0.0);
    }

    #[test]
    fn empty_fields_yield_no_samples_and_a_degenerate_model() {
        let empty = Field3::default();
        let pairs = sample_error_pairs(&empty, &empty, 0.5, 1);
        assert!(pairs.is_empty());
        assert_eq!(model_near_isovalue(&pairs, 0.0, 1.0).samples, 0);
        let flat = Field3::zeros(Dims3::new(4, 0, 4));
        assert!(sample_error_pairs(&flat, &flat, 1.0, 1).is_empty());
    }

    #[test]
    fn recovery_analysis_flags_lost_feature() {
        // Original: two bumps above iso. "Compression" scales the smaller one
        // below the isovalue — deterministic extraction loses it; PMC with
        // the fitted sigma recovers it.
        let bump = |x: usize, y: usize, z: usize, c: [f32; 3], a: f32| {
            let r2 =
                (x as f32 - c[0]).powi(2) + (y as f32 - c[1]).powi(2) + (z as f32 - c[2]).powi(2);
            a * (-r2 / 8.0).exp()
        };
        let orig = Field3::from_fn(Dims3::cube(28), |x, y, z| {
            bump(x, y, z, [7.0, 7.0, 7.0], 2.0) + bump(x, y, z, [20.0, 20.0, 20.0], 1.1)
        });
        let mut dec = orig.clone();
        for v in dec.data_mut() {
            if *v > 0.9 && *v < 1.3 {
                *v -= 0.15; // push the small bump below iso = 1.0
            }
        }
        let model = ErrorModel {
            mean: 0.0,
            sigma: 0.1,
            samples: 100,
        };
        let r = analyze_feature_recovery(&orig, &dec, 1.0, &model, 0.15, 3, 6.0);
        assert_eq!(r.original, 2);
        assert_eq!(r.preserved, 1, "big bump survives");
        assert_eq!(r.recovered, 1, "small bump recovered by PMC");
    }

    #[test]
    fn sampling_is_deterministic_in_seed() {
        let orig = Field3::from_fn(Dims3::cube(8), |x, _, _| x as f32);
        let dec = orig.clone();
        let a = sample_error_pairs(&orig, &dec, 0.2, 42);
        let b = sample_error_pairs(&orig, &dec, 0.2, 42);
        assert_eq!(a, b);
        let c = sample_error_pairs(&orig, &dec, 0.2, 43);
        assert_ne!(a, c);
    }
}
