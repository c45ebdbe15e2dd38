//! In-situ scenario: a WarpX-like simulation loop streaming timesteps into a
//! temporal (`HQTM`) store with inter-frame prediction.
//!
//! ```text
//! cargo run --release --example insitu_warpx
//! ```
//!
//! Each "timestep" advances a laser pulse along `z`, pours the field into
//! the block layout chosen at step 0 (frame-stable layouts are what make
//! temporal deltas line up), and appends it to a [`TemporalWriter`]: every
//! frame lands as its own crash-safe `HQST` file, the manifest is rewritten
//! atomically after it, and chunks that changed little since the previous
//! step are stored as residuals against it. The analysis pass then reopens
//! the directory cold and reads it through a [`TemporalServer`]: a
//! time-windowed ROI query following the pulse, and coarse→fine progressive
//! refinement of the final frame — both resolving delta chains through the
//! server's chunk cache.

use hqmr::grid::{synth, Dims3};
use hqmr::metrics::psnr;
use hqmr::mr::{resample_like, to_adaptive, RoiConfig, Upsample};
use hqmr::serve::TemporalServer;
use hqmr::store::temporal::{Prediction, TemporalReader};
use hqmr::workflow::{MrcConfig, TemporalWriter};
use std::sync::Arc;

fn main() {
    let dims = Dims3::new(32, 32, 256);
    let steps = 6usize;
    let out_dir = std::env::temp_dir().join("hqmr_insitu_demo");
    std::fs::remove_dir_all(&out_dir).ok();

    // The simulation: a wakefield pulse propagating a quarter-cell of z per
    // output step (periodic boundaries keep the synthetic loop simple; the
    // laser wavelength is ~4 cells, so consecutive outputs stay coherent).
    let base = synth::warpx_like(dims, 100);
    let field_at = |step: usize| synth::advect_periodic(&base, [0.0, 0.0, 0.25 * step as f64]);

    let eb = base.range() as f64 * 2e-3;
    let cfg = MrcConfig::ours_pad(eb);
    let mut writer = TemporalWriter::create(&out_dir, &cfg, Prediction::delta()).unwrap();

    println!(
        "streaming {steps} WarpX-like timesteps at {dims} into {}",
        out_dir.display()
    );
    println!();
    println!("step      bytes  delta-chunks    write(s)");
    let mut template = None;
    let mut independent_estimate = 0u64;
    let mut temporal_total = 0u64;
    for step in 0..steps {
        let field = field_at(step);
        // Step 0 selects the adaptive block layout; later steps reuse it.
        let mr = match &template {
            None => {
                let t = to_adaptive(&field, &RoiConfig::new(16, 0.5));
                template = Some(t.clone());
                t
            }
            Some(t) => resample_like(t, &field),
        };
        let rep = writer.append(step as u64, &mr).unwrap();
        temporal_total += rep.bytes;
        if step == 0 {
            // Frame 0 is a keyframe: its size is what every frame would cost
            // without prediction (same content morphology throughout).
            independent_estimate = rep.bytes;
        }
        println!(
            "{step:4} {:10} {:7}/{:<5} {:10.4}",
            rep.bytes, rep.delta_chunks, rep.total_chunks, rep.seconds
        );
    }
    println!(
        "\ntemporal store: {temporal_total} bytes for {steps} frames \
         (~{} per frame vs {independent_estimate} for an independent snapshot)",
        temporal_total / steps as u64,
    );

    // Analysis side: cold open, no configuration — codecs and delta flags
    // come from the manifest and the per-frame containers. Every read goes
    // through one server, whose `(time, level, chunk)` cache resolves each
    // delta chain link once however many reads walk through it.
    let reader = Arc::new(TemporalReader::open(&out_dir).unwrap());
    assert_eq!(reader.frame_count(), steps);
    let server = TemporalServer::unbounded(reader);

    // Time-windowed ROI around the pulse axis.
    let (lo, hi) = ([8, 8, 128], [24, 24, 224]);
    let window = server
        .read_roi_window(1, steps - 1, 0, lo, hi, 0.0)
        .unwrap();
    println!(
        "\nwindowed ROI {:?}..{:?}, frames 1..{}: {} fields of {}",
        lo,
        hi,
        steps - 1,
        window.len(),
        window[0].dims()
    );

    // Progressive refinement of the last frame, through its delta chain.
    let last = server.frame(steps - 1).unwrap();
    let truth = field_at(steps - 1);
    println!("\nprogressive refinement of frame {}:", steps - 1);
    for step in last.progressive(Upsample::Trilinear) {
        let step = step.unwrap();
        println!(
            "  level {}: PSNR {:6.2} dB vs simulation truth",
            step.level,
            psnr(&truth, &step.field)
        );
    }
    let st = server.stats();
    println!(
        "\nchunk cache: {} decoded, {} served from cache",
        st.misses, st.hits
    );

    std::fs::remove_dir_all(&out_dir).ok();
}
