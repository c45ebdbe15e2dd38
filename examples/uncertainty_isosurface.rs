//! Uncertainty scenario: where did compression hurt the isosurface? (Fig. 14)
//!
//! ```text
//! cargo run --release --example uncertainty_isosurface
//! ```
//!
//! Compresses a Hurricane-like field aggressively with the ZFP-class codec,
//! fits the isovalue-conditioned Gaussian error model from sampled errors,
//! runs probabilistic marching cubes, and reports which isosurface features
//! deterministic extraction lost but the uncertainty visualization recovers.

use hqmr::codec::Codec;
use hqmr::grid::{synth, Dims3};
use hqmr::metrics::psnr;
use hqmr::vis::{extract_isosurface, render_slice, save_ppm, surface_features, Colormap};
use hqmr::workflow::{analyze_feature_recovery, model_near_isovalue, sample_error_pairs};
use hqmr::zfp::ZfpCodec;

fn main() {
    let field = synth::hurricane_like(Dims3::new(64, 64, 16), 3);
    let (mn, mx) = field.min_max();
    let iso = mn + 0.45 * (mx - mn);

    // Aggressive compression: large tolerance => high CR, visible feature loss.
    let tol = (mx - mn) as f64 * 0.12;
    let bytes = ZfpCodec.compress(&field, tol);
    let dec = ZfpCodec.decompress(&bytes).unwrap();
    println!(
        "ZFP: CR = {:.1}, PSNR = {:.1} dB",
        (field.len() * 4) as f64 / bytes.len() as f64,
        psnr(&field, &dec)
    );

    // Isosurface comparison.
    let mesh_o = extract_isosurface(&field, iso);
    let mesh_d = extract_isosurface(&dec, iso);
    println!(
        "isosurface triangles: original {}, decompressed {}",
        mesh_o.triangle_count(),
        mesh_d.triangle_count()
    );
    let feats_o = surface_features(&field, iso, 2);
    let feats_d = surface_features(&dec, iso, 2);
    println!(
        "surface features:     original {}, decompressed {}",
        feats_o.len(),
        feats_d.len()
    );

    // Error model from sampled (original, decompressed) pairs near the
    // isovalue — the same samples the post-processor collects.
    let pairs = sample_error_pairs(&field, &dec, 0.02, 0xCAFE);
    let model = model_near_isovalue(&pairs, iso, (mx - mn) * 0.1);
    println!(
        "error model near iso: N({:.4}, {:.4}^2), {} samples",
        model.mean, model.sigma, model.samples
    );

    let rec = analyze_feature_recovery(&field, &dec, iso, &model, 0.1, 2, 16.0);
    println!(
        "feature recovery: {} original, {} preserved, {} lost, {} recovered by PMC",
        rec.original,
        rec.preserved,
        rec.original - rec.preserved,
        rec.recovered
    );

    // Render Fig. 14-style panels. Renders land under results/ with the
    // other experiment artifacts, not in the repo root.
    let k = field.dims().nz / 2;
    std::fs::create_dir_all("results").unwrap();
    save_ppm(
        "results/uncertainty_original.ppm",
        &render_slice(&field, k, mn, mx, Colormap::Viridis),
    )
    .unwrap();
    let mut img = render_slice(&dec, k, mn, mx, Colormap::Viridis);
    let (cd, prob) = hqmr::vis::crossing_probability_field(&dec, &model.pmc(iso));
    let mut slice = vec![0f32; cd.nx * cd.ny];
    for x in 0..cd.nx {
        for y in 0..cd.ny {
            slice[x * cd.ny + y] = prob[cd.idx(x, y, k.min(cd.nz - 1))];
        }
    }
    hqmr::vis::render::overlay_probability(&mut img, &slice, cd.nx, cd.ny);
    save_ppm("results/uncertainty_pmc.ppm", &img).unwrap();
    println!("\nwrote results/uncertainty_original.ppm and results/uncertainty_pmc.ppm");
}
