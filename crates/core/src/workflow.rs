//! End-to-end workflow convenience API (Fig. 3).
//!
//! One call runs the full pipeline on a uniform field: ROI extraction →
//! multi-resolution conversion → MRC compression (any arrangement × codec
//! backend), which hands back the compressor's own reconstruction of what
//! it wrote → dense reconstruction → optional Bézier post-processing →
//! optional uncertainty model. Nothing is decoded: the stream equals
//! `compress_mr`'s, and decoding it gives back the same field bit for bit.
//! Examples and integration tests build on this; the individual stages
//! remain available for finer control.

use crate::mrc::{encode, Backend, MrStats, MrcConfig};
use crate::post::{bezier_pass_in_place, select_intensity, PostConfig};
use crate::uncertainty::{model_near_isovalue, sample_error_pairs, ErrorModel};
use hqmr_codec::CodecError;
use hqmr_grid::Field3;
use hqmr_mr::{to_adaptive, MergeStrategy, PadKind, RoiConfig, Upsample};
use hqmr_store::StoreConfig;

/// Workflow configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkflowConfig {
    /// ROI extraction parameters (uniform → adaptive conversion).
    pub roi: RoiConfig,
    /// Error bound, *relative to the field's value range*.
    pub rel_eb: f64,
    /// Compressor: arrangement × codec backend (defaults to the paper's full
    /// "ours" arrangement on SZ3).
    pub compressor: CompressorChoice,
    /// Apply the Bézier post-process to the reconstruction.
    pub post_process: bool,
    /// Fit an uncertainty model for this isovalue.
    pub uncertainty_iso: Option<f32>,
    /// Upsampling used for reconstruction.
    pub upsample: Upsample,
}

/// How unit blocks are arranged for compression — the paper's four curves,
/// independent of which codec backend runs afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrangement {
    /// The paper's full method: linear merge + single-layer padding.
    Ours,
    /// Linear merge only.
    Baseline,
    /// AMRIC-style cubic stacking.
    Amric,
    /// TAC-style adjacency-preserving boxes.
    Tac,
}

/// Which compressor the workflow runs: an [`Arrangement`] crossed with a
/// codec [`Backend`]. The two axes are orthogonal — any arrangement works
/// with any backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressorChoice {
    /// Unit-block arrangement.
    pub arrangement: Arrangement,
    /// Codec backend.
    pub backend: Backend,
}

impl CompressorChoice {
    /// Crosses an arrangement with a backend.
    pub const fn new(arrangement: Arrangement, backend: Backend) -> Self {
        CompressorChoice {
            arrangement,
            backend,
        }
    }

    /// The paper's full method: "ours" arrangement + SZ3 with adaptive
    /// per-level error bounds.
    pub const fn ours() -> Self {
        Self::new(Arrangement::Ours, Backend::SZ3_PAPER)
    }

    /// Baseline SZ3 (linear merge only).
    pub const fn baseline() -> Self {
        Self::new(Arrangement::Baseline, Backend::SZ3)
    }

    /// AMRIC-style stacking on SZ3.
    pub const fn amric() -> Self {
        Self::new(Arrangement::Amric, Backend::SZ3)
    }

    /// TAC-style boxes on SZ3.
    pub const fn tac() -> Self {
        Self::new(Arrangement::Tac, Backend::SZ3)
    }

    /// Same arrangement, different codec backend.
    pub const fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Lowers the choice to an engine configuration at absolute bound `eb`.
    pub fn mrc_config(&self, eb: f64) -> MrcConfig {
        let (merge, pad) = match self.arrangement {
            Arrangement::Ours => (MergeStrategy::Linear, Some(PadKind::Linear)),
            Arrangement::Baseline => (MergeStrategy::Linear, None),
            Arrangement::Amric => (MergeStrategy::Stack, None),
            Arrangement::Tac => (MergeStrategy::Tac, None),
        };
        MrcConfig {
            eb,
            merge,
            pad,
            backend: self.backend,
        }
    }

    /// Lowers the choice to a block-indexed store configuration at absolute
    /// bound `eb`, tiling levels every `chunk_blocks` unit blocks.
    pub fn store_config(&self, eb: f64, chunk_blocks: usize) -> StoreConfig {
        self.mrc_config(eb).store_config(chunk_blocks)
    }
}

impl WorkflowConfig {
    /// Paper defaults: b=16 blocks, top 50% ROI, full MRC on SZ3.
    pub fn new(rel_eb: f64) -> Self {
        WorkflowConfig {
            roi: RoiConfig::paper_default(),
            rel_eb,
            compressor: CompressorChoice::ours(),
            post_process: true,
            uncertainty_iso: None,
            upsample: Upsample::Nearest,
        }
    }
}

/// Everything the workflow produced.
#[derive(Debug, Clone)]
pub struct WorkflowResult {
    /// Serialized compressed stream.
    pub compressed: Vec<u8>,
    /// Dense reconstruction at the original resolution (post-processed when
    /// requested).
    pub reconstruction: Field3,
    /// Compression statistics (per-level arrays, ratio vs. stored cells).
    pub mr_stats: MrStats,
    /// End-to-end compression ratio: original uniform bytes / compressed.
    pub end_to_end_ratio: f64,
    /// Absolute error bound used.
    pub eb: f64,
    /// Fitted error model (when `uncertainty_iso` was set).
    pub error_model: Option<ErrorModel>,
}

/// Runs the full workflow on a uniform field. An `Err` is the codec breaking
/// `compress_with_recon`: not reconstructing the stream it has just written,
/// or refusing the bound (a constant or all-NaN field has none).
pub fn run_uniform_workflow(
    field: &Field3,
    cfg: &WorkflowConfig,
) -> Result<WorkflowResult, CodecError> {
    // One scan of the original: the bound and the uncertainty band share it.
    let range = field.range();
    let eb = range as f64 * cfg.rel_eb;
    let mr_cfg = cfg.compressor.mrc_config(eb);
    let (compressed, mr_stats, recon) = encode(&to_adaptive(field, &cfg.roi), None, &mr_cfg, true)?;
    // The codec's own reconstruction: what decoding `compressed` would give.
    let recon = recon.expect("a closed loop returns its reconstruction");
    let mut reconstruction = recon.reconstruct(cfg.upsample);

    if cfg.post_process {
        // Boundaries along z with the fine unit period (the partition the
        // MRC pipeline introduced), smoothed in place: `bezier_pass` without
        // its copy, and no pass at all when the selector turned every axis
        // off.
        let post_cfg = PostConfig::sz3_multires(cfg.roi.block);
        let choice = select_intensity(field, &reconstruction, eb, &post_cfg);
        bezier_pass_in_place(&mut reconstruction, eb, choice.a, &post_cfg);
    }

    let error_model = cfg.uncertainty_iso.map(|iso| {
        let pairs = sample_error_pairs(field, &reconstruction, 0.01, 0x5EED);
        let band = range * 0.05;
        model_near_isovalue(&pairs, iso, band)
    });

    Ok(WorkflowResult {
        end_to_end_ratio: (field.len() * 4) as f64 / compressed.len() as f64,
        compressed,
        reconstruction,
        mr_stats,
        eb,
        error_model,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mrc::decompress_mr;
    use hqmr_grid::synth;
    use hqmr_metrics::psnr;
    use hqmr_sz2::Sz2Codec;

    #[test]
    fn full_workflow_runs_and_reduces() {
        let f = synth::nyx_like(64, 11);
        let cfg = WorkflowConfig {
            roi: RoiConfig::new(16, 0.3),
            ..WorkflowConfig::new(1e-3)
        };
        let r = run_uniform_workflow(&f, &cfg).unwrap();
        assert!(r.end_to_end_ratio > 4.0, "ratio {}", r.end_to_end_ratio);
        assert_eq!(r.reconstruction.dims(), f.dims());
        // ROI cells are error-bounded; non-ROI cells carry downsampling error,
        // so overall quality is judged by PSNR, not the bound.
        let p = psnr(&f, &r.reconstruction);
        assert!(p > 30.0, "psnr {p}");
    }

    #[test]
    fn uncertainty_model_is_produced_on_request() {
        let f = synth::hurricane_like(hqmr_grid::Dims3::new(32, 32, 8), 7);
        let mut cfg = WorkflowConfig::new(5e-3);
        cfg.roi = RoiConfig::new(8, 0.4);
        cfg.uncertainty_iso = Some(20.0);
        let r = run_uniform_workflow(&f, &cfg).unwrap();
        let m = r.error_model.expect("model requested");
        assert!(m.samples > 0);
        assert!(m.sigma >= 0.0);
    }

    #[test]
    fn better_compressor_choice_wins_on_ratio_at_equal_bound() {
        let f = synth::nyx_like(64, 13);
        let mk = |choice| {
            let mut cfg = WorkflowConfig::new(2e-3);
            cfg.roi = RoiConfig::new(16, 0.3);
            cfg.compressor = choice;
            cfg.post_process = false;
            run_uniform_workflow(&f, &cfg).unwrap()
        };
        let ours = mk(CompressorChoice::ours());
        let amric = mk(CompressorChoice::amric());
        // Same error bound: our stream should not be meaningfully larger.
        assert!(
            (ours.compressed.len() as f64) < (amric.compressed.len() as f64) * 1.1,
            "ours {} vs amric {}",
            ours.compressed.len(),
            amric.compressed.len()
        );
    }

    #[test]
    fn workflow_roundtrips_through_every_backend() {
        let f = synth::nyx_like(32, 17);
        for backend in Backend::ALL {
            let mut cfg = WorkflowConfig::new(2e-3);
            cfg.roi = RoiConfig::new(8, 0.4);
            cfg.compressor = CompressorChoice::ours().with_backend(backend);
            cfg.post_process = false;
            let r = run_uniform_workflow(&f, &cfg).unwrap();
            assert_eq!(r.reconstruction.dims(), f.dims(), "{backend:?}");
            assert_eq!(r.mr_stats.codec, backend.name());
            // The stream itself records the backend; decompression needs no
            // configuration.
            assert!(decompress_mr(&r.compressed).is_ok(), "{backend:?}");
        }
    }

    /// No sz2 block size makes the workflow write a stream its decoder
    /// refuses: side 1 (every block Lorenzo) round-trips to the workflow's
    /// own reconstruction, and side 0, which has no grid, is a typed error.
    #[test]
    fn sz2_degenerate_block_sizes_never_write_unreadable_streams() {
        let f = synth::nyx_like(16, 23);
        let mut cfg = WorkflowConfig::new(2e-3);
        cfg.roi = RoiConfig::new(8, 0.4);
        cfg.post_process = false;
        cfg.compressor = CompressorChoice::ours().with_backend(Backend::Sz2(Sz2Codec { block: 1 }));
        let r = run_uniform_workflow(&f, &cfg).unwrap();
        let back = decompress_mr(&r.compressed).expect("block-1 stream decodes");
        assert_eq!(back.reconstruct(cfg.upsample), r.reconstruction);

        cfg.compressor = CompressorChoice::ours().with_backend(Backend::Sz2(Sz2Codec { block: 0 }));
        let err = run_uniform_workflow(&f, &cfg).expect_err("block 0 has no grid");
        assert!(err.to_string().contains("block size"), "{err}");
    }

    /// A constant field has range 0 and an all-NaN one range NaN, so the
    /// relative bound is no bound at all: every lossy backend refuses it
    /// with a typed error instead of panicking in its quantizer, and the
    /// raw passthrough, which needs none, still runs.
    #[test]
    fn fields_without_a_bound_are_typed_errors_not_panics() {
        let dims = hqmr_grid::Dims3::new(32, 32, 64);
        for value in [1.5, f32::NAN] {
            let field = Field3::new(dims, value);
            for backend in [
                Backend::SZ3_PAPER,
                Backend::SZ2,
                Backend::ZFP,
                Backend::NULL,
            ] {
                let mut cfg = WorkflowConfig::new(1e-3);
                cfg.compressor = CompressorChoice::ours().with_backend(backend);
                let result = run_uniform_workflow(&field, &cfg);
                if backend == Backend::NULL {
                    result.expect("the passthrough needs no bound");
                } else {
                    let err = result.expect_err("no bound to honour");
                    assert!(
                        err.to_string().contains("error bound"),
                        "{backend:?}: {err}"
                    );
                }
            }
        }
    }

    #[test]
    fn corrupt_stream_surfaces_as_error_not_panic() {
        let f = synth::nyx_like(32, 19);
        let cfg = WorkflowConfig {
            roi: RoiConfig::new(8, 0.4),
            ..WorkflowConfig::new(1e-3)
        };
        let r = run_uniform_workflow(&f, &cfg).unwrap();
        let mut bad = r.compressed.clone();
        let n = bad.len();
        bad[n / 2] ^= 0xFF;
        assert!(decompress_mr(&bad).is_err());
        assert!(decompress_mr(&bad[..n / 4]).is_err());
    }
}
