//! SZ3-class global interpolation compressor.
//!
//! SZ3 (§II-A of the paper) predicts every point by **level-wise
//! interpolation** over the whole array instead of per-block prediction:
//! levels proceed coarse→fine with strides `2^(L−1) … 1`; at each level, each
//! dimension is swept in turn and points at odd multiples of the stride are
//! predicted from their already-reconstructed neighbours at even multiples.
//! Residuals go through an error-controlled linear quantizer and a Huffman
//! stage.
//!
//! Two hooks make this implementation the substrate for the paper's SZ3MR:
//!
//! * interior points whose `+stride` neighbour falls outside the array are
//!   **extrapolated** (Fig. 7's pathology) — `hqmr-mr`'s padding removes
//!   these, and [`interp_stats`] counts them from an array's shape alone, so
//!   the effect is testable;
//! * [`LevelEbPolicy`] implements the paper's adaptive per-level error bound
//!   `eb_l = eb · (min(α^{maxlevel−l}, β))⁻¹` (§III-A, Improvement 2).

pub mod engine;
mod stream;

pub use engine::{interp_levels, interp_stats, InterpKind, InterpStats, PredKind};
pub use stream::{Sz3Codec, SZ3_CODEC_ID};

/// Pre-overhaul per-point implementations, kept verbatim as differential
/// oracles for the line kernels (`tests/kernel_equivalence.rs`) — the
/// `bitio::reference` pattern.
pub mod reference {
    pub use crate::engine::reference::traverse;
    pub use crate::stream::reference::{compress, decompress, CompressResult};
}

/// Adaptive per-level error-bound policy (the paper's Improvement 2).
///
/// With processing step `l = 1` (coarsest) … `maxlevel` (finest, stride 1):
/// `eb_l = eb / min(α^{maxlevel−l}, β)` — early levels, whose points seed all
/// later predictions, get tighter bounds. The paper fixes `α = 2.25`, `β = 8`
/// for multi-resolution data (larger than QoZ's sampled values, because the
/// two small dimensions of a linearized merge leave few interpolation levels).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelEbPolicy {
    /// Per-level shrink factor.
    pub alpha: f64,
    /// Cap on the shrink.
    pub beta: f64,
}

impl LevelEbPolicy {
    /// The paper's fixed choice for multi-resolution data.
    pub const PAPER: LevelEbPolicy = LevelEbPolicy {
        alpha: 2.25,
        beta: 8.0,
    };

    /// Error bound for processing step `l` (1-based) of `maxlevel` total.
    pub fn eb_for_level(&self, eb: f64, l: usize, maxlevel: usize) -> f64 {
        let exp = (maxlevel.saturating_sub(l)) as f64;
        eb / self.alpha.powf(exp).min(self.beta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_eb_monotone_tightening() {
        let p = LevelEbPolicy::PAPER;
        let maxlevel = 9;
        let ebs: Vec<f64> = (1..=maxlevel)
            .map(|l| p.eb_for_level(1.0, l, maxlevel))
            .collect();
        // Finest level gets the full budget.
        assert!((ebs[maxlevel - 1] - 1.0).abs() < 1e-12);
        // Earlier levels are tighter, monotonically.
        for w in ebs.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
        // Cap at beta: earliest levels sit at eb/8.
        assert!((ebs[0] - 1.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn level_eb_beta_cap_engages_quickly() {
        // alpha^(maxlevel-l) exceeds beta=8 within ceil(log_2.25 8) ≈ 3 levels.
        let p = LevelEbPolicy::PAPER;
        assert!((p.eb_for_level(1.0, 7, 10) - 1.0 / 8.0).abs() < 1e-12);
        assert!((p.eb_for_level(1.0, 9, 10) - 1.0 / 2.25).abs() < 1e-12);
    }
}
