//! `paper_workflow` — the paper's uniform-data pipeline across its three
//! compressors; the only workload where quality can move.
//!
//! One op runs, for each of sz3, sz2 and zfp, `run_uniform_workflow` (ROI
//! extraction → `compress_mr` → `decompress_mr` → `reconstruct` →
//! `select_intensity` + `bezier_pass` → uncertainty model) followed by
//! `crossing_probability_field` with the fitted model, so every op does the
//! same work. `core` (`mrc`, `post`, `uncertainty`), `mr::to_adaptive`, the
//! sz2/zfp kernels and `vis` do the work; `store`, `serve` and `net` are
//! bypassed, so their changes predict no change here, while a post-process
//! or ROI change that trades PSNR or ratio for speed is caught.

use super::{
    check_bound, digest, same, timed, Ctx, Quality, Recorder, Round, TracedOp, Workload, REL_EB,
};
use crate::gen;
use crate::trace::{self, span, span_then};
use hqmr_core::mrc::{encode_prepared, prepare_mr};
use hqmr_core::{
    bezier_pass, decompress_mr, model_near_isovalue, run_uniform_workflow, sample_error_pairs,
    select_intensity, Backend, CompressorChoice, PostConfig, WorkflowConfig, WorkflowResult,
};
use hqmr_grid::Field3;
use hqmr_mr::{to_adaptive, MultiResData};
use hqmr_vis::crossing_probability_field;
use std::hint::black_box;

const BACKENDS: [Backend; 3] = [Backend::SZ3_PAPER, Backend::SZ2, Backend::ZFP];

pub struct PaperWorkflow {
    field: Field3,
    eb: f64,
    iso: f32,
    /// The adaptive form `run_uniform_workflow` derives internally; the
    /// bound is checked against it.
    reference: Option<MultiResData>,
    /// Per backend: compressed bytes, PSNR and output digests of the last op.
    last: Vec<BackendOut>,
    expect: Option<Vec<BackendOut>>,
    next_op: u32,
}

/// What one backend's leg of an op produced, reduced to what is compared.
#[derive(Debug, Clone, PartialEq)]
struct BackendOut {
    compressed_bytes: usize,
    psnr_db: f64,
    reconstruction: u64,
    probabilities: u64,
}

impl PaperWorkflow {
    pub fn new(ctx: &Ctx) -> Self {
        let field = gen::warpx(ctx.sizes.small, ctx.seed ^ 0xF10);
        let (mn, mx) = field.min_max();
        PaperWorkflow {
            eb: (mx - mn) as f64 * REL_EB,
            // Inside the wake's amplitude, so the isosurface has features.
            iso: mn + 0.65 * (mx - mn),
            field,
            reference: None,
            last: Vec::new(),
            expect: None,
            next_op: 1,
        }
    }

    fn cfg(&self, backend: Backend) -> WorkflowConfig {
        let mut cfg = WorkflowConfig::new(REL_EB);
        cfg.compressor = CompressorChoice::ours().with_backend(backend);
        cfg.uncertainty_iso = Some(self.iso);
        cfg
    }

    /// One backend's leg as a user runs it: the workflow's result and the
    /// crossing probabilities.
    fn leg(&self, backend: Backend) -> Result<(WorkflowResult, Vec<f32>), String> {
        let r = run_uniform_workflow(&self.field, &self.cfg(backend)).map_err(|e| e.to_string())?;
        let model = r.error_model.ok_or("no error model fitted")?;
        let (_, prob) = crossing_probability_field(&r.reconstruction, &model.pmc(self.iso));
        Ok((r, prob))
    }

    /// Reduces a leg's outputs to what is compared (outside the op's time).
    fn reduce(&self, (r, prob): (WorkflowResult, Vec<f32>)) -> (BackendOut, Vec<u8>) {
        (
            BackendOut {
                compressed_bytes: r.compressed.len(),
                psnr_db: hqmr_metrics::psnr(&self.field, &r.reconstruction),
                reconstruction: digest(r.reconstruction.data()),
                probabilities: digest(&prob),
            },
            r.compressed,
        )
    }

    /// The same leg as the explicit sequence of public calls
    /// `run_uniform_workflow` is built from, each under a span.
    fn replay_leg(&self, backend: Backend) -> Result<BackendOut, String> {
        let cfg = self.cfg(backend);
        let mr_cfg = cfg.compressor.mrc_config(self.eb);
        let codec = backend.codec();
        let mr = span("mr.to_adaptive", || to_adaptive(&self.field, &cfg.roi));
        let prepared = span("mr.prepare", || prepare_mr(&mr, &mr_cfg));
        // `encode_prepared` and `decompress_mr` build their own codec, so
        // the compressor's share is timed by running it again on the same
        // arrays, outside the span it is subtracted from.
        let mut streams: Vec<Vec<u8>> = Vec::new();
        let (compressed, _) = span_then(
            "core.encode_prepared",
            || encode_prepared(&mr, &prepared, &mr_cfg),
            |_| {
                let (s, secs) = timed(|| {
                    prepared
                        .iter()
                        .flat_map(|p| p.fields())
                        .map(|f| codec.compress(f, self.eb))
                        .collect()
                });
                streams = s;
                vec![(codec_span(backend, true), secs)]
            },
        );
        let back = span_then(
            "core.decompress_mr",
            || decompress_mr(&compressed),
            |_| {
                let ((), secs) = timed(|| {
                    for s in &streams {
                        black_box(codec.decompress(s).ok());
                    }
                });
                vec![(codec_span(backend, false), secs)]
            },
        )
        .map_err(|e| e.to_string())?;
        let recon = span("mr.reconstruct", || back.reconstruct(cfg.upsample));
        let post = PostConfig::sz3_multires(cfg.roi.block);
        let choice = span("core.select_intensity", || {
            select_intensity(&self.field, &recon, self.eb, &post)
        });
        let recon = span("core.bezier_pass", || {
            bezier_pass(&recon, self.eb, choice.a, &post)
        });
        let model = span("core.uncertainty", || {
            let pairs = sample_error_pairs(&self.field, &recon, 0.01, 0x5EED);
            model_near_isovalue(&pairs, self.iso, self.field.range() * 0.05)
        });
        let (_, prob) = span("vis.pmc", || {
            crossing_probability_field(&recon, &model.pmc(self.iso))
        });
        Ok(BackendOut {
            compressed_bytes: compressed.len(),
            psnr_db: hqmr_metrics::psnr(&self.field, &recon),
            reconstruction: digest(recon.data()),
            probabilities: digest(&prob),
        })
    }

    /// Holds one op's outputs to the bound and to the other ops' outputs.
    fn check(&mut self, outs: Vec<(BackendOut, Vec<u8>)>, full: bool) -> Result<(), String> {
        let reference = self.reference.as_ref().expect("set up");
        if full {
            for (backend, (_, compressed)) in BACKENDS.iter().zip(&outs) {
                let back = decompress_mr(compressed).map_err(|e| e.to_string())?;
                check_bound(reference, &back, self.eb)
                    .map_err(|e| format!("{}: {e}", backend.name()))?;
            }
        }
        self.last = outs.into_iter().map(|(o, _)| o).collect();
        match &self.expect {
            Some(want) if *want != self.last => Err("outputs changed between ops".into()),
            Some(_) => Ok(()),
            None if full => {
                self.expect = Some(self.last.clone());
                Ok(())
            }
            None => Err("no checked warm-up op to compare against".into()),
        }
    }

    fn op(&self) -> Result<Vec<(WorkflowResult, Vec<f32>)>, String> {
        BACKENDS.iter().map(|&b| self.leg(b)).collect()
    }

    fn reduce_all(&self, legs: Vec<(WorkflowResult, Vec<f32>)>) -> Vec<(BackendOut, Vec<u8>)> {
        legs.into_iter().map(|leg| self.reduce(leg)).collect()
    }
}

fn codec_span(backend: Backend, compress: bool) -> &'static str {
    match (backend.name(), compress) {
        ("sz3", true) => "sz3.compress",
        ("sz3", false) => "sz3.decompress",
        ("sz2", true) => "sz2.compress",
        ("sz2", false) => "sz2.decompress",
        (_, true) => "zfp.compress",
        (_, false) => "zfp.decompress",
    }
}

impl Workload for PaperWorkflow {
    fn setup(&mut self) -> Result<(), String> {
        // Nothing of the pipeline persists between ops; what set-up builds
        // is the reference the error bound is checked against.
        self.reference = Some(to_adaptive(&self.field, &WorkflowConfig::new(REL_EB).roi));
        Ok(())
    }

    fn round(&mut self, rec: &mut Recorder, full_check: bool) -> Round {
        let (outs, secs) = timed(|| self.op());
        let outcome = outs.and_then(|legs| {
            let outs = self.reduce_all(legs);
            self.check(outs, full_check)
        });
        rec.op(secs, outcome);
        Round {
            wall_s: secs,
            field_bytes: (self.field.len() * 4 * BACKENDS.len()) as f64,
        }
    }

    fn traced_round(&mut self, rec: &mut Recorder, ops: &mut Vec<TracedOp>) -> Round {
        let op_id = self.next_op;
        self.next_op += 1;
        let (outs, secs) = trace::paused(|| timed(|| self.op()));
        trace::begin_op(op_id);
        let replay: Result<Vec<BackendOut>, String> =
            BACKENDS.iter().map(|&b| self.replay_leg(b)).collect();
        let outcome = outs
            .and_then(|legs| {
                let outs = self.reduce_all(legs);
                self.check(outs, false)
            })
            .and(replay)
            .and_then(|replay| {
                for (got, want) in replay.iter().zip(&self.last) {
                    same(
                        "replay reconstruction",
                        got.reconstruction,
                        want.reconstruction,
                    )?;
                    same(
                        "replay probabilities",
                        got.probabilities,
                        want.probabilities,
                    )?;
                    if got.compressed_bytes != want.compressed_bytes {
                        return Err("replay stream length differs".into());
                    }
                }
                Ok(())
            });
        rec.op(secs, outcome);
        ops.push(TracedOp {
            op_id,
            one_call_s: secs,
        });
        Round {
            wall_s: secs,
            field_bytes: (self.field.len() * 4 * BACKENDS.len()) as f64,
        }
    }

    fn quality(&mut self, _rec: &mut Recorder) -> Quality {
        let stored: usize = self.last.iter().map(|o| o.compressed_bytes).sum();
        let n = self.last.len().max(1) as f64;
        Quality {
            stored_bytes_per_input_byte: stored as f64
                / (self.field.len() * 4 * BACKENDS.len()) as f64,
            psnr_db: self.last.iter().map(|o| o.psnr_db).sum::<f64>() / n,
        }
    }
}
