//! Quickstart: compress a cosmology snapshot with the full workflow.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Generates a Nyx-like density field, converts it to multi-resolution data
//! via range-threshold ROI extraction, compresses it with MRC-SZ3 (padding +
//! adaptive per-level error bounds), reconstructs, post-processes, and
//! reports compression ratio and quality.

use hqmr::grid::synth;
use hqmr::metrics::{psnr, ssim3d};
use hqmr::mr::RoiConfig;
use hqmr::workflow::{run_uniform_workflow, WorkflowConfig};

fn main() {
    let n = 64;
    println!("generating Nyx-like density field ({n}^3)...");
    let field = synth::nyx_like(n, 42);

    let mut cfg = WorkflowConfig::new(1e-3); // eb = 0.1% of the value range
    cfg.roi = RoiConfig::new(16, 0.5); // paper defaults: b=16, top 50%
    cfg.uncertainty_iso = Some(field.range() * 0.3);

    println!("running the workflow (ROI -> SZ3MR -> post-process)...");
    let result = run_uniform_workflow(&field, &cfg).expect("codec reconstructs its stream");

    println!();
    println!(
        "multi-res storage ratio : {:.2}x ({} of {} cells stored)",
        field.len() as f64 / result.mr_stats.stored_cells as f64,
        result.mr_stats.stored_cells,
        field.len()
    );
    println!("compression ratio (MR)  : {:.1}x", result.mr_stats.ratio());
    println!(
        "end-to-end ratio        : {:.1}x (vs raw uniform f32)",
        result.end_to_end_ratio
    );
    println!("absolute error bound    : {:.3e}", result.eb);
    println!(
        "PSNR                    : {:.2} dB",
        psnr(&field, &result.reconstruction)
    );
    println!(
        "volumetric SSIM         : {:.4}",
        ssim3d(&field, &result.reconstruction)
    );
    if let Some(m) = result.error_model {
        println!(
            "error model near iso    : N({:.3e}, {:.3e}^2) from {} samples",
            m.mean, m.sigma, m.samples
        );
    }
}
