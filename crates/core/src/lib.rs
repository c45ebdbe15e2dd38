//! The paper's workflow (§III): high-quality multi-resolution scientific data
//! reduction and visualization.
//!
//! * [`mrc`] — the backend-generic multi-resolution compression engine:
//!   linear merge + single-layer padding (Improvement 1) and adaptive
//!   per-level error bounds (Improvement 2), with the AMRIC (stack) and TAC
//!   (box) arrangements as selectable baselines — all dispatching through
//!   the [`hqmr_codec::Codec`] trait, so SZ3, SZ2, ZFP and the raw passthrough
//!   are interchangeable backends ([`Backend`], `hqmr-store`'s one table).
//! * [`post`] — the error-bounded adaptive Bézier post-process (§III-B):
//!   quadratic Bézier smoothing across compression-block boundaries, clamped
//!   to `d ± a·eb`, with the intensity `a` chosen per dimension by sampling +
//!   stochastic gradient descent.
//! * [`uncertainty`] — compression-error sampling, isovalue-conditioned
//!   Gaussian modelling, and probabilistic-marching-cubes integration
//!   (§III-C).
//! * [`insitu`] — the staged output pipeline (pre-process vs. compress+write)
//!   measured in Table IV; snapshots are written as block-indexed
//!   `hqmr-store` containers, so post-hoc readers get level/ROI/progressive
//!   access for free.
//! * [`workflow`] — one-call end-to-end API tying everything together, with
//!   the compressor selected as arrangement × backend
//!   ([`workflow::CompressorChoice`], which also yields the matching
//!   [`hqmr_store::StoreConfig`] for writing a block-indexed store).

pub mod insitu;
pub mod mrc;
pub mod post;
pub mod uncertainty;
pub mod workflow;

pub use insitu::{write_snapshot, FrameReport, SalvageReport, StageTimings, TemporalWriter};
pub use mrc::{compress_mr, decompress_mr, Backend, MrStats, MrcConfig};
pub use post::{bezier_pass, select_intensity, IntensityChoice, PostConfig};
pub use uncertainty::{
    analyze_feature_recovery, model_near_isovalue, sample_error_pairs, ErrorModel, FeatureRecovery,
};
pub use workflow::{
    run_uniform_workflow, Arrangement, CompressorChoice, WorkflowConfig, WorkflowResult,
};
