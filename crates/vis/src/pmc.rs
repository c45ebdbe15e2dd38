//! Probabilistic marching cubes for compression uncertainty (§III-C).
//!
//! Decompressed data is modelled as uncertain: each voxel carries a Gaussian
//! `N(d̂, σ²)` whose parameters come from the compression-error samples the
//! workflow already collects (§III-C "reusing the information"). The
//! probability that the isosurface crosses a cell is
//!
//! `P(cross) = 1 − P(all corners ≥ iso) − P(all corners < iso)`.
//!
//! With independent corners both terms are products of per-corner normal
//! CDFs (the closed form below); the Monte-Carlo variant adds a shared
//! correlation term, following Pöthkow et al.'s correlated model.
//!
//! # How the closed form runs
//!
//! A vertex's `P(value < iso) = Φ((iso − μ)/σ)` does not depend on which of
//! its eight cells asks, so it is computed once per vertex, into two rolling
//! `ny×nz` planes (the crate's shared cell walk), and a cell multiplies the
//! eight stored values in corner order. Most vertices need no `exp` at all:
//! [`gaussian_cdf`] is *exactly* 1.0 or 0.0 once `|t| ≥ 6√2 ≈ 8.49` (see
//! [`CERTAIN`]), so those are written as constants, and a row whose vertices
//! are all certainly below — or all certainly above — is remembered as such.
//! Four agreeing rows make every cell between them `1 − 1 − 0 = 0` (or
//! `1 − 0 − 1`), which the zero-initialised output already holds, so those
//! cells are never visited. None of this is an approximation: the output is
//! bit-identical to evaluating all eight CDFs per cell, which
//! `tests/kernel_equivalence.rs` holds it to. The Monte-Carlo arm has no such
//! structure to exploit — its cost is the `9·samples` normal draws per cell,
//! and its seeded output is pinned sample for sample — so it keeps its
//! per-slab loop and RNG streams.

use crate::cells::{cell_dims, cell_rows, corner_values, walk_active_rows, Side};
use hqmr_grid::{Dims3, Field3};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// PMC evaluation settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PmcConfig {
    /// Isovalue.
    pub iso: f32,
    /// Error standard deviation (uniform; from the sampled error model).
    pub sigma: f64,
    /// Error mean (usually ≈ 0 for error-bounded compressors).
    pub mean: f64,
    /// `None` ⇒ closed-form independent model; `Some((rho, samples, seed))`
    /// ⇒ Monte Carlo with inter-corner correlation `rho`.
    pub monte_carlo: Option<(f64, usize, u64)>,
}

impl PmcConfig {
    /// Independent-Gaussian closed form.
    pub fn independent(iso: f32, mean: f64, sigma: f64) -> Self {
        PmcConfig {
            iso,
            sigma,
            mean,
            monte_carlo: None,
        }
    }

    /// Monte-Carlo with shared correlation `rho` across the cell's corners.
    ///
    /// # Panics
    /// Panics if `rho` is outside `[0, 1]` or `samples` is zero (a cell's
    /// probability is `crossings / samples`).
    pub fn correlated(
        iso: f32,
        mean: f64,
        sigma: f64,
        rho: f64,
        samples: usize,
        seed: u64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&rho), "rho must be in [0,1]");
        assert!(samples > 0, "Monte-Carlo PMC needs at least one sample");
        PmcConfig {
            iso,
            sigma,
            mean,
            monte_carlo: Some((rho, samples, seed)),
        }
    }
}

/// Standard normal CDF via the Abramowitz–Stegun 7.1.26 erf approximation
/// (|ε| < 1.5·10⁻⁷ — far below the probabilities visualized).
pub fn gaussian_cdf(x: f64) -> f64 {
    let z = x / std::f64::consts::SQRT_2;
    0.5 * (1.0 + erf(z))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    sign * (1.0 - poly * (-x * x).exp())
}

/// `|t|` at and beyond which [`gaussian_cdf`] is exactly 0.0 (`t < 0`) or
/// 1.0 (`t > 0`), so a vertex that far from the isovalue needs no `exp`.
///
/// Proof: for `x = |t|/√2 ≥ 6` the 7.1.26 tail `poly·exp(−x²)` is below
/// `0.1·e⁻³⁶ ≈ 2.3·10⁻¹⁷ < 2⁻⁵⁴`, less than half an ulp of 1.0, so
/// `1 − tail` rounds to exactly 1.0, `erf` returns ±1.0 and the CDF
/// `0.5·(1 ± 1)` is exactly 1.0 or 0.0. That holds from `|t| = 6√2 ≈ 8.485`;
/// 8.6 leaves a margin, and `tests/kernel_equivalence.rs` checks the claim
/// point by point.
pub const CERTAIN: f64 = 8.6;

/// Cell slabs (along `x`) per parallel task of the closed form. Each task
/// evaluates one vertex plane its neighbour also evaluates; fixed, so the
/// split does not depend on the machine.
const TASK_SLABS: usize = 8;

/// Computes the per-cell crossing probability field (cell grid dims returned
/// alongside). Probabilities are in `[0, 1]`, with one exception: under the
/// closed form a NaN vertex makes the (up to eight) cells around it NaN — the
/// clamp passes NaN through — while the Monte-Carlo arm counts a NaN sample
/// as below the isovalue.
pub fn crossing_probability_field(field: &Field3, cfg: &PmcConfig) -> (Dims3, Vec<f32>) {
    let d = field.dims();
    let cd = cell_dims(d);
    if cd.is_empty() {
        return (cd, Vec::new());
    }
    let sigma = cfg.sigma.max(1e-300);
    let iso = cfg.iso as f64;
    let mut out = vec![0f32; cd.len()];
    match cfg.monte_carlo {
        None => {
            // P(vertex < iso), once per vertex of each plane a task touches.
            let p_below_row = |values: &[f32], p: &mut [f64]| {
                let (mut below, mut above) = (true, true);
                for (t, &v) in p.iter_mut().zip(values) {
                    *t = (iso - (v as f64 + cfg.mean)) / sigma;
                    below &= *t >= CERTAIN;
                    above &= *t <= -CERTAIN;
                }
                if below {
                    p.fill(1.0);
                    Side::Below
                } else if above {
                    p.fill(0.0);
                    Side::Above
                } else {
                    // NaN is on neither side of the cut-off and flows
                    // through the CDF like any uncertain vertex.
                    for t in p {
                        *t = if *t >= CERTAIN {
                            1.0
                        } else if *t <= -CERTAIN {
                            0.0
                        } else {
                            gaussian_cdf(*t)
                        };
                    }
                    Side::Mixed
                }
            };
            out.par_chunks_mut(TASK_SLABS * cd.ny * cd.nz)
                .enumerate()
                .for_each(|(task, out)| {
                    let x0 = task * TASK_SLABS;
                    let slabs = x0..x0 + out.len() / (cd.ny * cd.nz);
                    walk_active_rows(field, slabs, p_below_row, |x, y, rows| {
                        let cells = &mut out[((x - x0) * cd.ny + y) * cd.nz..][..cd.nz];
                        for (z, cell) in cells.iter_mut().enumerate() {
                            // Independence ⇒ products over the corners.
                            let mut p_all_below = 1.0f64;
                            let mut p_all_above = 1.0f64;
                            for p_below in corner_values(&rows, z) {
                                p_all_below *= p_below;
                                p_all_above *= 1.0 - p_below;
                            }
                            *cell = (1.0 - p_all_below - p_all_above).clamp(0.0, 1.0) as f32;
                        }
                    });
                });
        }
        Some((rho, samples, seed)) => {
            let sr = rho.sqrt();
            let si = (1.0 - rho).sqrt();
            out.par_chunks_mut(cd.ny * cd.nz)
                .enumerate()
                .for_each(|(x, slab)| {
                    let mut rng = StdRng::seed_from_u64(seed ^ (x as u64).wrapping_mul(0x9E37));
                    let mut normal = move || {
                        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                        let u2: f64 = rng.gen_range(0.0..1.0);
                        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
                    };
                    for (y, cells) in slab.chunks_exact_mut(cd.nz).enumerate() {
                        let rows = cell_rows(field.data(), d.ny, d.nz, x, y);
                        for (z, cell) in cells.iter_mut().enumerate() {
                            let mus = corner_values(&rows, z).map(|v| v as f64 + cfg.mean);
                            let mut crossings = 0usize;
                            for _ in 0..samples {
                                let shared = normal();
                                let mut above = false;
                                let mut below = false;
                                for mu in mus {
                                    let v = mu + sigma * (sr * shared + si * normal());
                                    if v >= iso {
                                        above = true;
                                    } else {
                                        below = true;
                                    }
                                }
                                if above && below {
                                    crossings += 1;
                                }
                            }
                            *cell = crossings as f32 / samples as f32;
                        }
                    }
                });
        }
    }
    (cd, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_reference_values() {
        assert!((gaussian_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((gaussian_cdf(1.0) - 0.841_344_7).abs() < 1e-6);
        assert!((gaussian_cdf(-1.0) - 0.158_655_3).abs() < 1e-6);
        assert!(gaussian_cdf(8.0) > 1.0 - 1e-14);
        assert!(gaussian_cdf(-8.0) < 1e-14);
    }

    fn ramp_field() -> Field3 {
        // Linear in x: isosurface at x = 7.5 for iso = 7.5.
        Field3::from_fn(Dims3::cube(16), |x, _, _| x as f32)
    }

    #[test]
    fn certain_crossing_has_probability_one() {
        let f = ramp_field();
        let cfg = PmcConfig::independent(7.5, 0.0, 1e-6);
        let (cd, p) = crossing_probability_field(&f, &cfg);
        // Cells spanning x ∈ [7, 8] certainly cross.
        assert!(p[cd.idx(7, 8, 8)] > 0.999);
        // Cells far away certainly don't.
        assert!(p[cd.idx(0, 8, 8)] < 1e-6);
        assert!(p[cd.idx(14, 8, 8)] < 1e-6);
    }

    #[test]
    fn uncertainty_spreads_the_surface() {
        let f = ramp_field();
        let tight = crossing_probability_field(&f, &PmcConfig::independent(7.5, 0.0, 0.01)).1;
        let wide = crossing_probability_field(&f, &PmcConfig::independent(7.5, 0.0, 2.0)).1;
        let count = |p: &Vec<f32>| p.iter().filter(|&&v| v > 0.05).count();
        assert!(
            count(&wide) > 3 * count(&tight),
            "{} vs {}",
            count(&wide),
            count(&tight)
        );
    }

    #[test]
    fn probability_bounded() {
        let f = ramp_field();
        let (_, p) = crossing_probability_field(&f, &PmcConfig::independent(7.5, 0.1, 0.5));
        assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    /// Small ramp for the Monte-Carlo tests (debug-mode sampling is slow).
    fn small_ramp() -> Field3 {
        Field3::from_fn(Dims3::cube(8), |x, _, _| x as f32)
    }

    #[test]
    fn monte_carlo_agrees_with_closed_form_when_independent() {
        let f = small_ramp();
        let exact = crossing_probability_field(&f, &PmcConfig::independent(3.5, 0.0, 1.0)).1;
        let mc =
            crossing_probability_field(&f, &PmcConfig::correlated(3.5, 0.0, 1.0, 0.0, 3000, 7)).1;
        let max_dev = exact
            .iter()
            .zip(&mc)
            .map(|(&a, &b)| (a - b).abs())
            .fold(0f32, f32::max);
        assert!(max_dev < 0.06, "max deviation {max_dev}");
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn monte_carlo_rejects_zero_samples() {
        // 0 crossings / 0 samples would be a field of NaN "probabilities".
        PmcConfig::correlated(3.5, 0.0, 1.0, 0.5, 0, 7);
    }

    #[test]
    fn full_correlation_reduces_crossing_probability() {
        // With rho = 1 all corners move together, so a far-away cell only
        // crosses when the shared shift lands the isovalue inside the cell's
        // (narrow) value span — much rarer than under independence.
        let f = small_ramp();
        let ind = crossing_probability_field(&f, &PmcConfig::independent(5.5, 0.0, 2.0)).1;
        let cor =
            crossing_probability_field(&f, &PmcConfig::correlated(5.5, 0.0, 2.0, 1.0, 3000, 3)).1;
        let cd = Dims3::cube(7);
        let far = cd.idx(1, 4, 4); // all corners below iso
        assert!(ind[far] > 0.05, "independent model spreads to {}", ind[far]);
        assert!(
            cor[far] < 0.6 * ind[far],
            "correlated {} vs independent {}",
            cor[far],
            ind[far]
        );
    }

    #[test]
    fn full_correlation_never_crosses_constant_cells() {
        // All eight corners equal ⇒ under rho = 1 they can never straddle.
        let f = Field3::new(Dims3::cube(6), 5.0);
        let (cd, p) =
            crossing_probability_field(&f, &PmcConfig::correlated(5.5, 0.0, 2.0, 1.0, 2000, 9));
        assert!(p[cd.idx(2, 2, 2)] == 0.0);
        // Independent corners do cross.
        let (_, pi) = crossing_probability_field(&f, &PmcConfig::independent(5.5, 0.0, 2.0));
        assert!(pi[cd.idx(2, 2, 2)] > 0.3);
    }

    #[test]
    fn recovers_features_destroyed_by_bias() {
        // A small bump that compression error pushed just below the isovalue:
        // deterministic extraction loses it; PMC shows nonzero probability.
        let f = Field3::from_fn(Dims3::cube(12), |x, y, z| {
            let r2 = (x as f32 - 5.5).powi(2) + (y as f32 - 5.5).powi(2) + (z as f32 - 5.5).powi(2);
            0.95 * (-r2 / 6.0).exp() // peak 0.95 < iso 1.0
        });
        let (cd, cross) = crate::iso::cell_crossings(&f, 1.0);
        assert!(
            cross.iter().all(|&c| !c),
            "deterministic surface must be empty"
        );
        let (_, p) = crossing_probability_field(&f, &PmcConfig::independent(1.0, 0.0, 0.1));
        assert!(
            p[cd.idx(5, 5, 5)] > 0.2,
            "PMC must flag the lost feature, got {}",
            p[cd.idx(5, 5, 5)]
        );
    }
}
