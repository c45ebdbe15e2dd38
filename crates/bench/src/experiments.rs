//! One function per paper table/figure. Each returns a plain-text report;
//! the `tables` binary dispatches and persists them under `results/`.

use crate::datasets;
use crate::runner::{
    level_psnr, level_values, match_cr, mr_blockwise_roundtrip, post_config, psnr_slices, rd_sweep,
    roundtrip, roundtrip_mr, row, single_level, MkConfig, RdPoint,
};
use hqmr_codec::Codec;
use hqmr_core::mrc::{compress_mr, decompress_mr, Backend, MrcConfig};
use hqmr_core::post::{bezier_pass, select_intensity, select_intensity_sampled, PostConfig};
use hqmr_core::uncertainty::{analyze_feature_recovery, model_near_isovalue, sample_error_pairs};
use hqmr_core::{insitu, StageTimings};
use hqmr_filters::{anisotropic_diffusion, gaussian_blur, median3};
use hqmr_grid::{synth, Dims3};
use hqmr_metrics::{find_halos_abs, halo_recall, psnr, spectrum_rel_errors, ssim};
use hqmr_mr::{
    merge_discontinuity, merge_level, roi_only_field, to_adaptive, MergeStrategy, MultiResData,
    RoiConfig, Upsample,
};
use hqmr_sz2::Sz2Codec;
use hqmr_sz3::{interp_levels, interp_stats, InterpKind, LevelEbPolicy, Sz3Codec};
use hqmr_vis::{render_slice, save_ppm, Colormap};
use std::fmt::Write as _;

/// SZ2 with the 6³ blocks of the uniform-data tables.
const UNIFORM_SZ2: Backend = Backend::Sz2(Sz2Codec { block: 6 });

const RD_CONFIGS: [(&str, MkConfig); 5] = [
    ("Baseline-SZ3", MrcConfig::baseline),
    ("AMRIC-SZ3", MrcConfig::amric),
    ("TAC-SZ3", MrcConfig::tac),
    ("Ours(pad)", MrcConfig::ours_pad),
    ("Ours(pad+eb)", MrcConfig::ours),
];

fn fmt_curves(out: &mut String, curves: &[(&'static str, Vec<RdPoint>)]) {
    for (name, pts) in curves {
        out.push_str(&row(&format!("{name} CR"), pts.iter().map(|p| p.cr), 9, 2));
        out.push_str(&row(
            &format!("{name} PSNR"),
            pts.iter().map(|p| p.psnr),
            9,
            2,
        ));
    }
}

/// Table III: dataset inventory at the chosen scale.
pub fn tab03(scale: usize) -> String {
    let mut out = String::from("Table III — datasets (proxy instantiation)\n");
    let sets = [
        datasets::nyx_t1(scale, 1),
        datasets::warpx(scale / 2, 2),
        datasets::rt(scale, 3),
        datasets::nyx_t2(scale, 4),
        datasets::hurricane(scale, 5),
        datasets::nyx_t3(scale, 6),
        datasets::s3d(scale, 7),
    ];
    for d in sets {
        let dims = d.field.dims();
        let mb = (d.field.len() * 4) as f64 / (1024.0 * 1024.0);
        write!(out, "{:8} dims={dims} size={mb:.1} MiB", d.name).unwrap();
        if let Some(mr) = &d.mr {
            write!(out, " levels={}", mr.levels.len()).unwrap();
            for l in &mr.levels {
                write!(
                    out,
                    " [L{} unit={} density={:.0}%]",
                    l.level,
                    l.unit,
                    100.0 * l.density()
                )
                .unwrap();
            }
            write!(out, " storage_ratio={:.2}", mr.storage_ratio()).unwrap();
        } else {
            write!(out, " uniform").unwrap();
        }
        out.push('\n');
    }
    out
}

/// Fig. 4: range-threshold ROI extraction on Nyx — volume fraction vs. halo
/// recall and slice SSIM (the paper reports 15% volume, SSIM 0.99995).
pub fn fig04(scale: usize) -> String {
    let d = datasets::nyx_t1(scale, 11);
    // Halo definition: extreme over-densities (a FOF-style finder targets
    // collapsed structures, not the broad over-dense tail).
    let mean = d.field.data().iter().map(|&v| v as f64).sum::<f64>() / d.field.len() as f64;
    let thr = (25.0 * mean) as f32;
    let halos = find_halos_abs(&d.field, thr, 3);
    let mut out = format!(
        "Fig. 4 — ROI extraction on {} ({} halos at 25x mean, >=3 cells)\n",
        d.name,
        halos.len()
    );
    out.push_str("roi_frac  vol%   halo_recall  slice_SSIM  storage_ratio\n");
    for frac in [0.05, 0.10, 0.15, 0.25, 0.50] {
        let cfg = RoiConfig::new(if scale >= 128 { 16 } else { 8 }, frac);
        let (roi_field, vol) = roi_only_field(&d.field, &cfg);
        let roi_halos = find_halos_abs(&roi_field, thr, 1);
        let recall = halo_recall(&halos, &roi_halos, 3.0);
        let mr = to_adaptive(&d.field, &cfg);
        let recon = mr.reconstruct(Upsample::Trilinear);
        let k = d.field.dims().nz / 2;
        let (w, h, a) = d.field.slice_z(k);
        let (_, _, b) = recon.slice_z(k);
        let s = ssim(&a, &b, w, h);
        writeln!(
            out,
            "{:8.2} {:5.1}  {:11.3}  {:10.5}  {:13.2}",
            frac,
            100.0 * vol,
            recall,
            s,
            mr.storage_ratio()
        )
        .unwrap();
    }
    out
}

/// Fig. 5: visual quality at matched CR on the Nyx fine level —
/// TAC vs AMRIC vs ours (the paper: SSIM .64/.57/.91 at CR 163).
pub fn fig05(scale: usize) -> String {
    let d = datasets::nyx_t1(scale, 21);
    let mr = d.mr.as_ref().unwrap();
    let fine = single_level(mr, 0);
    let range = d.range();
    // Target CR: whatever "ours" reaches at a high relative bound.
    let (target_cr, _) = roundtrip_mr(&fine, &MrcConfig::ours(range * 2e-2));
    let mut out = format!("Fig. 5 — Nyx fine level at matched CR ≈ {target_cr:.0}\n");
    out.push_str("method        CR       PSNR     SSIM(slice)\n");
    for (name, mk) in RD_CONFIGS {
        let rel = match_cr(
            |r| roundtrip_mr(&fine, &mk(range * r)).0,
            1e-5,
            0.3,
            target_cr,
            18,
        );
        let cfg = mk(range * rel);
        let (bytes, stats) = compress_mr(&fine, &cfg);
        let back = decompress_mr(&bytes).unwrap();
        let p = level_psnr(&fine.levels[0], &back.levels[0]);
        // Slice SSIM of the fine-level field (empty cells filled with 0 in
        // both, so structural differences come from the blocks).
        let fa = fine.levels[0].to_field(0.0);
        let fb = back.levels[0].to_field(0.0);
        let k = fa.dims().nz / 2;
        let (w, h, a) = fa.slice_z(k);
        let (_, _, b) = fb.slice_z(k);
        writeln!(
            out,
            "{name:13} {:8.1} {p:8.2} {:10.4}",
            stats.ratio(),
            ssim(&a, &b, w, h)
        )
        .unwrap();
    }
    out
}

/// Fig. 6: boundary unsmoothness of the three arrangements.
pub fn fig06(scale: usize) -> String {
    let mut out =
        String::from("Fig. 6 — mean |jump| across merged block joins (lower = smoother)\n");
    for (name, d) in [
        ("Nyx-T1", datasets::nyx_t1(scale, 31)),
        ("RT", datasets::rt(scale, 32)),
    ] {
        let mr = d.mr.as_ref().unwrap();
        write!(out, "{name:8}").unwrap();
        for (sname, s) in [
            ("linear", MergeStrategy::Linear),
            ("stack", MergeStrategy::Stack),
            ("tac", MergeStrategy::Tac),
        ] {
            let arrays: Vec<_> = mr.levels.iter().flat_map(|l| merge_level(l, s)).collect();
            write!(out, "  {sname}={:.4e}", merge_discontinuity(&arrays)).unwrap();
        }
        out.push('\n');
    }
    out
}

/// Fig. 7/8: interpolation extrapolation counts with and without padding.
pub fn fig07(_scale: usize) -> String {
    let mut out =
        String::from("Fig. 7/8 — sub-optimal (extrapolated) predictions per line/array\n");
    for (label, dims) in [
        ("1-D n=8 (Fig.7)", Dims3::new(1, 1, 8)),
        ("1-D n=9 (Fig.8, padded)", Dims3::new(1, 1, 9)),
        ("1-D n=16", Dims3::new(1, 1, 16)),
        ("1-D n=17 (padded)", Dims3::new(1, 1, 17)),
        ("3-D 16^3", Dims3::cube(16)),
        ("3-D 17^3 (padded)", Dims3::cube(17)),
        ("merged 16x16x256", Dims3::new(16, 16, 256)),
        ("merged 17x17x256 (padded)", Dims3::new(17, 17, 256)),
    ] {
        let stats = interp_stats(dims, InterpKind::Cubic);
        writeln!(
            out,
            "{label:28} levels={} extrapolated={:5} of {:7} ({:.2}%)",
            interp_levels(dims.max_extent()),
            stats.extrapolated,
            stats.total(),
            100.0 * stats.extrapolated as f64 / stats.total() as f64
        )
        .unwrap();
    }
    out
}

/// Table I: post-process vs. image filters on ZFP-decompressed WarpX.
pub fn tab01(scale: usize) -> String {
    let d = datasets::warpx(scale / 2, 41);
    let eb = d.range() * 4e-3;
    let (bytes, dec) = roundtrip(Backend::ZFP, &d.field, eb);
    let cr = (d.field.len() * 4) as f64 / bytes as f64;
    let cfg = post_config(Backend::ZFP);
    let choice = select_intensity(&d.field, &dec, eb, &cfg);
    let ours = bezier_pass(&dec, eb, choice.a, &cfg);
    let median = median3(&dec);
    let gauss = gaussian_blur(&dec, 1.0);
    let aniso = anisotropic_diffusion(&dec, 5, d.range() * 0.01);
    let mut out = format!("Table I — WarpX + ZFP at CR {cr:.0}: PSNR of post-processing options\n");
    out.push_str("decompressed  median  gaussian  anisotropic  ours\n");
    writeln!(
        out,
        "{:12.1} {:7.1} {:9.1} {:12.1} {:5.1}",
        psnr(&d.field, &dec),
        psnr(&d.field, &median),
        psnr(&d.field, &gauss),
        psnr(&d.field, &aniso),
        psnr(&d.field, &ours),
    )
    .unwrap();
    writeln!(
        out,
        "(chosen a = {:?}, sample rate {:.2}%)",
        choice.a,
        100.0 * choice.sample_rate
    )
    .unwrap();
    out
}

/// Fig. 12: rate-distortion of post-process variants on WarpX + ZFP.
pub fn fig12(scale: usize) -> String {
    let d = datasets::warpx(scale / 2, 42);
    let mut out = String::from("Fig. 12 — WarpX + ZFP post-process variants\n");
    out.push_str("rows: CR, then PSNR for zfp / bezier(unclamped) / a=1 / processed(dynamic)\n");
    let cfg = post_config(Backend::ZFP);
    let mut crs = Vec::new();
    let mut p_zfp = Vec::new();
    let mut p_bez = Vec::new();
    let mut p_a1 = Vec::new();
    let mut p_dyn = Vec::new();
    for rel in [1e-3, 3e-3, 8e-3, 2e-2, 5e-2] {
        let eb = d.range() * rel;
        let (bytes, dec) = roundtrip(Backend::ZFP, &d.field, eb);
        crs.push((d.field.len() * 4) as f64 / bytes as f64);
        p_zfp.push(psnr(&d.field, &dec));
        p_bez.push(psnr(&d.field, &bezier_pass(&dec, eb, [1e12; 3], &cfg)));
        p_a1.push(psnr(&d.field, &bezier_pass(&dec, eb, [1.0; 3], &cfg)));
        let choice = select_intensity(&d.field, &dec, eb, &cfg);
        p_dyn.push(psnr(&d.field, &bezier_pass(&dec, eb, choice.a, &cfg)));
    }
    out.push_str(&row("CR", crs.iter().copied(), 8, 1));
    out.push_str(&row("ZFP", p_zfp.iter().copied(), 8, 2));
    out.push_str(&row("Bezier", p_bez.iter().copied(), 8, 2));
    out.push_str(&row("a=1", p_a1.iter().copied(), 8, 2));
    out.push_str(&row("Processed", p_dyn.iter().copied(), 8, 2));
    out
}

/// Table II: SZ2 + post-process on WarpX across CRs.
pub fn tab02(scale: usize) -> String {
    let d = datasets::warpx(scale / 2, 43);
    let cfg = post_config(UNIFORM_SZ2);
    let mut out = String::from("Table II — WarpX + SZ2: PSNR before/after post-process\n");
    let mut crs = Vec::new();
    let mut ori = Vec::new();
    let mut post = Vec::new();
    for rel in [5e-4, 1e-3, 3e-3, 8e-3, 2e-2, 5e-2, 1e-1] {
        let eb = d.range() * rel;
        let (bytes, dec) = roundtrip(UNIFORM_SZ2, &d.field, eb);
        crs.push((d.field.len() * 4) as f64 / bytes as f64);
        ori.push(psnr(&d.field, &dec));
        let choice = select_intensity(&d.field, &dec, eb, &cfg);
        post.push(psnr(&d.field, &bezier_pass(&dec, eb, choice.a, &cfg)));
    }
    out.push_str(&row("CR", crs.iter().copied(), 8, 1));
    out.push_str(&row("PSNR-SZ2", ori.iter().copied(), 8, 2));
    out.push_str(&row("PSNR-Proc'ed", post.iter().copied(), 8, 2));
    out
}

/// Fig. 14: uncertainty visualization recovers isosurface features lost to
/// compression (Hurricane + ZFP at high CR). Also writes PPM renders.
pub fn fig14(scale: usize) -> String {
    let d = datasets::hurricane(scale, 44);
    let eb = d.range() * 0.25;
    let (bytes, dec) = roundtrip(Backend::ZFP, &d.field, eb);
    let cr = (d.field.len() * 4) as f64 / bytes as f64;
    let (mn, mx) = d.field.min_max();
    // Scan for an isovalue where compression visibly destroys features (the
    // paper likewise shows a view chosen to exhibit the failure mode).
    let iso = (45..80)
        .map(|i| mn + i as f32 / 100.0 * (mx - mn))
        .find(|&iso| {
            let o = hqmr_vis::surface_features(&d.field, iso, 2).len();
            let dd = hqmr_vis::surface_features(&dec, iso, 2).len();
            o > dd
        })
        .unwrap_or(mn + 0.58 * (mx - mn));
    let pairs = sample_error_pairs(&d.field, &dec, 0.02, 0xF16);
    let model = model_near_isovalue(&pairs, iso, (mx - mn) * 0.1);
    let rec = analyze_feature_recovery(&d.field, &dec, iso, &model, 0.1, 2, scale as f64 / 8.0);
    let mut out = format!(
        "Fig. 14 — Hurricane + ZFP (CR {cr:.0}), iso = {iso:.2}, error model N({:.3}, {:.3}²)\n",
        model.mean, model.sigma
    );
    writeln!(
        out,
        "features: original={} preserved={} lost={} recovered_by_PMC={}",
        rec.original,
        rec.preserved,
        rec.original - rec.preserved,
        rec.recovered
    )
    .unwrap();

    // Renders: mid-z slice of original, decompressed, decompressed+PMC.
    let dir = crate::results_dir();
    std::fs::create_dir_all(&dir).ok();
    let k = d.field.dims().nz / 2;
    let img_o = render_slice(&d.field, k, mn, mx, Colormap::Viridis);
    let img_d = render_slice(&dec, k, mn, mx, Colormap::Viridis);
    let mut img_u = render_slice(&dec, k, mn, mx, Colormap::Viridis);
    let (cd, prob) = hqmr_vis::crossing_probability_field(&dec, &model.pmc(iso));
    if !cd.is_empty() && k < cd.nz {
        let mut slice = vec![0f32; cd.nx * cd.ny];
        for x in 0..cd.nx {
            for y in 0..cd.ny {
                slice[x * cd.ny + y] = prob[cd.idx(x, y, k.min(cd.nz - 1))];
            }
        }
        hqmr_vis::render::overlay_probability(&mut img_u, &slice, cd.nx, cd.ny);
    }
    for (name, img) in [
        ("fig14_original", &img_o),
        ("fig14_decompressed", &img_d),
        ("fig14_uncertainty", &img_u),
    ] {
        let p = dir.join(format!("{name}.ppm"));
        if save_ppm(&p, img).is_ok() {
            writeln!(out, "wrote {}", p.display()).unwrap();
        }
    }
    out
}

/// Fig. 15: in-situ AMR rate-distortion on Nyx-T1, per level, five methods.
pub fn fig15(scale: usize) -> String {
    let d = datasets::nyx_t1(scale, 51);
    let mr = d.mr.as_ref().unwrap();
    let range = d.range();
    let rels = [3e-4, 1e-3, 4e-3, 1.5e-2, 5e-2];
    let mut out = String::from("Fig. 15 — Nyx-T1 rate-distortion per level (CR / PSNR rows)\n");
    for (idx, label) in [(0usize, "fine level"), (1, "coarse level")] {
        let lvl = single_level(mr, idx);
        writeln!(
            out,
            "--- {label} (density {:.0}%)",
            100.0 * mr.levels[idx].density()
        )
        .unwrap();
        let curves = rd_sweep(&lvl, range, &rels, &RD_CONFIGS);
        fmt_curves(&mut out, &curves);
        // "Ours (processed)": ours + Bézier post on the merged arrays.
        let pts: Vec<RdPoint> = rels
            .iter()
            .map(|&rel| processed_point(&lvl, range * rel))
            .collect();
        out.push_str(&row("Ours(proc) CR", pts.iter().map(|p| p.cr), 9, 2));
        out.push_str(&row("Ours(proc) PSNR", pts.iter().map(|p| p.psnr), 9, 2));
    }
    out
}

/// "Ours (processed)" point: SZ3MR(ours) + Bézier post on unit-block joins.
fn processed_point(mr: &MultiResData, eb: f64) -> RdPoint {
    let cfg = MrcConfig::ours(eb);
    let (bytes, stats) = compress_mr(mr, &cfg);
    let back = decompress_mr(&bytes).unwrap();
    let mut all_o: Vec<f32> = Vec::new();
    let mut all_p: Vec<f32> = Vec::new();
    for (lo, lb) in mr.levels.iter().zip(&back.levels) {
        // Post-process the decompressed level on its merged linear layout.
        let arrays_o = merge_level(lo, MergeStrategy::Linear);
        let arrays_b = merge_level(lb, MergeStrategy::Linear);
        let pcfg = PostConfig::sz3_multires(lo.unit);
        for (mo, mb) in arrays_o.iter().zip(&arrays_b) {
            let choice = select_intensity(&mo.field, &mb.field, eb, &pcfg);
            let post = bezier_pass(&mb.field, eb, choice.a, &pcfg);
            all_o.extend(mo.field.data());
            all_p.extend(post.data());
        }
    }
    RdPoint {
        cr: stats.ratio(),
        psnr: psnr_slices(&all_o, &all_p),
    }
}

/// Table IV: output time, AMRIC vs ours, big and small error bounds.
pub fn tab04(scale: usize) -> String {
    let d = datasets::nyx_t1(scale, 52);
    let mr = d.mr.as_ref().unwrap();
    let path = std::env::temp_dir().join("hqmr_tab04.bin");
    let mut out =
        String::from("Table IV — output time (s): pre-process vs compress+write (Nyx-T1)\n");
    out.push_str("eb      method  preprocess  comp+write  total\n");
    // Warm up.
    let _ = insitu::write_snapshot(mr, &MrcConfig::ours(d.range() * 1e-2), &path);
    for (label, rel) in [("big", 4e-2), ("small", 2e-3)] {
        for (name, cfg) in [
            ("AMRIC", MrcConfig::amric(d.range() * rel)),
            ("Ours", MrcConfig::ours(d.range() * rel)),
        ] {
            let mut best = StageTimings {
                preprocess: f64::MAX,
                compress_write: f64::MAX,
            };
            for _ in 0..3 {
                let (t, _) = insitu::write_snapshot(mr, &cfg, &path).unwrap();
                if t.total() < best.total() {
                    best = t;
                }
            }
            writeln!(
                out,
                "{label:7} {name:7} {:10.4} {:11.4} {:6.4}",
                best.preprocess,
                best.compress_write,
                best.total()
            )
            .unwrap();
        }
    }
    std::fs::remove_file(&path).ok();
    out
}

/// Table V: AMRIC-SZ2 + post-process on Nyx-T1, per level.
pub fn tab05(scale: usize) -> String {
    let d = datasets::nyx_t1(scale, 53);
    let mr = d.mr.as_ref().unwrap();
    let mut out = String::from("Table V — Nyx-T1 AMRIC-SZ2 + post-process (per level)\n");
    for (idx, label) in [(0usize, "Fine"), (1, "Coarse")] {
        let lvl = single_level(mr, idx);
        let vals = level_values(&lvl.levels[0]);
        let (mn, mx) = vals
            .iter()
            .fold((f32::INFINITY, f32::NEG_INFINITY), |(a, b), &v| {
                (a.min(v), b.max(v))
            });
        let range = (mx - mn) as f64;
        let mut crs = Vec::new();
        let mut ori = Vec::new();
        let mut post = Vec::new();
        for rel in [2e-3, 6e-3, 2e-2, 6e-2, 1.5e-1] {
            let r = mr_blockwise_roundtrip(&lvl, Backend::SZ2, range * rel);
            crs.push(r.cr);
            ori.push(r.psnr_ori);
            post.push(r.psnr_post);
        }
        writeln!(out, "--- {label}").unwrap();
        out.push_str(&row("CR", crs.iter().copied(), 8, 1));
        out.push_str(&row("PSNR-AMRIC-SZ2", ori.iter().copied(), 8, 2));
        out.push_str(&row("PSNR-Post-SZ2", post.iter().copied(), 8, 2));
    }
    out
}

/// Fig. 16: WarpX visual comparison at matched CR — baseline SZ3 vs SZ3MR.
pub fn fig16(scale: usize) -> String {
    let d = datasets::warpx(scale / 2, 54);
    let mr = d.mr.as_ref().unwrap();
    let range = d.range();
    let (target_cr, _) = roundtrip_mr(mr, &MrcConfig::ours(range * 2e-2));
    let mut out = format!("Fig. 16 — WarpX at matched CR ≈ {target_cr:.0}\n");
    out.push_str("method        CR       PSNR     SSIM(slice)\n");
    let dir = crate::results_dir();
    std::fs::create_dir_all(&dir).ok();
    let (mn, mx) = d.field.min_max();
    for (name, mk) in [
        ("Baseline-SZ3", MrcConfig::baseline as fn(f64) -> _),
        ("Ours", MrcConfig::ours),
    ] {
        let rel = match_cr(
            |r| roundtrip_mr(mr, &mk(range * r)).0,
            1e-5,
            0.3,
            target_cr,
            18,
        );
        let (bytes, stats) = compress_mr(mr, &mk(range * rel));
        let back = decompress_mr(&bytes).unwrap();
        let recon = back.reconstruct(Upsample::Trilinear);
        let k = d.field.dims().nx / 2;
        let (w, h, a) = d.field.slice_x(k);
        let (_, _, b) = recon.slice_x(k);
        writeln!(
            out,
            "{name:13} {:8.1} {:8.2} {:10.4}",
            stats.ratio(),
            psnr(&d.field, &recon),
            ssim(&a, &b, w, h)
        )
        .unwrap();
        let img = render_slice(&recon, recon.dims().nz * 7 / 10, mn, mx, Colormap::CoolWarm);
        let p = dir.join(format!(
            "fig16_{}.ppm",
            name.to_lowercase().replace('-', "_")
        ));
        save_ppm(&p, &img).ok();
    }
    let img = render_slice(
        &d.field,
        d.field.dims().nz * 7 / 10,
        mn,
        mx,
        Colormap::CoolWarm,
    );
    save_ppm(dir.join("fig16_original.ppm"), &img).ok();
    out
}

/// Fig. 17: adaptive-data rate-distortion (WarpX + Hurricane), three curves.
pub fn fig17(scale: usize) -> String {
    let mut out = String::from("Fig. 17 — adaptive data rate-distortion\n");
    let configs: [(&str, MkConfig); 3] = [
        ("Baseline-SZ3", MrcConfig::baseline),
        ("Ours(pad)", MrcConfig::ours_pad),
        ("Ours(pad+eb)", MrcConfig::ours),
    ];
    for d in [
        datasets::warpx(scale / 2, 55),
        datasets::hurricane(scale, 56),
    ] {
        writeln!(out, "--- {}", d.name).unwrap();
        let mr = d.mr.as_ref().unwrap();
        let curves = rd_sweep(mr, d.range(), &[3e-4, 1e-3, 4e-3, 1.5e-2, 5e-2], &configs);
        fmt_curves(&mut out, &curves);
    }
    out
}

/// Fig. 18: offline AMR rate-distortion (Nyx-T2 + RT), five curves.
pub fn fig18(scale: usize) -> String {
    let mut out = String::from("Fig. 18 — offline AMR rate-distortion\n");
    for d in [datasets::nyx_t2(scale, 57), datasets::rt(scale, 58)] {
        writeln!(out, "--- {}", d.name).unwrap();
        let mr = d.mr.as_ref().unwrap();
        let curves = rd_sweep(
            mr,
            d.range(),
            &[3e-4, 1e-3, 4e-3, 1.5e-2, 5e-2],
            &RD_CONFIGS,
        );
        fmt_curves(&mut out, &curves);
    }
    out
}

/// Table VI: power-spectrum error at matched CR on Nyx-T2 (k < 10).
pub fn tab06(scale: usize) -> String {
    let d = datasets::nyx_t2(scale, 59);
    let mr = d.mr.as_ref().unwrap();
    let range = d.range();
    let (target_cr, _) = roundtrip_mr(mr, &MrcConfig::ours(range * 1.2e-2));
    let mut out =
        format!("Table VI — Nyx-T2 power-spectrum error at CR ≈ {target_cr:.0}, k < 10\n");
    out.push_str("method        CR      max_rel_err   avg_rel_err\n");
    let methods: [(&str, MkConfig); 4] = [
        ("Baseline-SZ3", MrcConfig::baseline),
        ("AMRIC-SZ3", MrcConfig::amric),
        ("TAC-SZ3", MrcConfig::tac),
        ("Ours(pad+eb)", MrcConfig::ours),
    ];
    for (name, mk) in methods {
        let rel = match_cr(
            |r| roundtrip_mr(mr, &mk(range * r)).0,
            1e-5,
            0.3,
            target_cr,
            18,
        );
        let (bytes, stats) = compress_mr(mr, &mk(range * rel));
        let back = decompress_mr(&bytes).unwrap();
        let recon = back.reconstruct(Upsample::Trilinear);
        let orig = mr.reconstruct(Upsample::Trilinear);
        let (mx, avg) = spectrum_rel_errors(&orig, &recon, 10);
        writeln!(
            out,
            "{name:13} {:7.1} {mx:13.3e} {avg:13.3e}",
            stats.ratio()
        )
        .unwrap();
    }
    out
}

/// Table VII: post-process on multi-resolution data (RT + Hurricane) with
/// ZFP and AMRIC-SZ2.
pub fn tab07(scale: usize) -> String {
    let mut out = String::from("Table VII — post-process on multi-resolution data\n");
    for d in [datasets::rt(scale, 61), datasets::hurricane(scale, 62)] {
        let mr = d.mr.as_ref().unwrap();
        let vals: Vec<f32> = mr.levels.iter().flat_map(level_values).collect();
        let (mn, mx) = vals
            .iter()
            .fold((f32::INFINITY, f32::NEG_INFINITY), |(a, b), &v| {
                (a.min(v), b.max(v))
            });
        let range = (mx - mn) as f64;
        for (cname, backend) in [("ZFP", Backend::ZFP), ("SZ2", Backend::SZ2)] {
            writeln!(out, "--- {} + {cname}", d.name).unwrap();
            let mut crs = Vec::new();
            let mut ori = Vec::new();
            let mut post = Vec::new();
            for rel in [1e-3, 4e-3, 1.2e-2, 4e-2, 1e-1] {
                let r = mr_blockwise_roundtrip(mr, backend, range * rel);
                crs.push(r.cr);
                ori.push(r.psnr_ori);
                post.push(r.psnr_post);
            }
            out.push_str(&row("CR", crs.iter().copied(), 8, 1));
            out.push_str(&row("PSNR-Ori", ori.iter().copied(), 8, 2));
            out.push_str(&row("PSNR-Post", post.iter().copied(), 8, 2));
        }
    }
    out
}

/// Table VIII: post-process on uniform data (S3D + Nyx-T3) with ZFP and SZ2.
pub fn tab08(scale: usize) -> String {
    let mut out = String::from("Table VIII — post-process on uniform data\n");
    for d in [datasets::s3d(scale, 63), datasets::nyx_t3(scale, 64)] {
        for (cname, backend) in [("ZFP", Backend::ZFP), ("SZ2", UNIFORM_SZ2)] {
            writeln!(out, "--- {} + {cname}", d.name).unwrap();
            let post_cfg = post_config(backend);
            let mut crs = Vec::new();
            let mut ori = Vec::new();
            let mut post = Vec::new();
            for rel in [1e-3, 4e-3, 1.2e-2, 4e-2, 1e-1] {
                let eb = d.range() * rel;
                let (bytes, dec) = roundtrip(backend, &d.field, eb);
                crs.push((d.field.len() * 4) as f64 / bytes as f64);
                ori.push(psnr(&d.field, &dec));
                let choice = select_intensity(&d.field, &dec, eb, &post_cfg);
                post.push(psnr(&d.field, &bezier_pass(&dec, eb, choice.a, &post_cfg)));
            }
            out.push_str(&row("CR", crs.iter().copied(), 8, 1));
            out.push_str(&row("PSNR-Ori", ori.iter().copied(), 8, 2));
            out.push_str(&row("PSNR-Post", post.iter().copied(), 8, 2));
        }
    }
    out
}

/// Table IX: post-processing overhead relative to the compression workflow.
pub fn tab09(scale: usize) -> String {
    use std::time::Instant;
    let d = datasets::s3d(scale, 65);
    let mut out = String::from(
        "Table IX — post-process overhead on S3D (seconds)\n\
         codec        eb    io     comp+dec  sample+model  process  ori(c1+c2)  extra(c3+c4)  overhead\n",
    );
    let io_path = std::env::temp_dir().join("hqmr_tab09.hqf3");
    for (cname, backend, post_cfg) in [
        ("ZFP(par)", Backend::ZFP, post_config(Backend::ZFP)),
        ("SZ2(par)", UNIFORM_SZ2, post_config(UNIFORM_SZ2)),
        (
            "SZ2(serial)",
            UNIFORM_SZ2,
            post_config(UNIFORM_SZ2).serial(),
        ),
    ] {
        for (elabel, rel) in [("small", 2e-3), ("mid", 1e-2), ("large", 5e-2)] {
            let eb = d.range() * rel;
            // c1: read original + write decompressed (round numbers on tmpfs).
            let t = Instant::now();
            hqmr_grid::io::save_field(&io_path, &d.field).unwrap();
            let loaded = hqmr_grid::io::load_field(&io_path).unwrap();
            let c1 = t.elapsed().as_secs_f64();
            // c2: compress + decompress.
            let t = Instant::now();
            let (_, dec) = roundtrip(backend, &loaded, eb);
            let c2 = t.elapsed().as_secs_f64();
            // c3: sampling + modelling (round-trips only the samples).
            let t = Instant::now();
            let choice =
                select_intensity_sampled(&d.field, |w| roundtrip(backend, w, eb).1, eb, &post_cfg);
            let c3 = t.elapsed().as_secs_f64();
            // c4: the post-process itself.
            let t = Instant::now();
            let _post = bezier_pass(&dec, eb, choice.a, &post_cfg);
            let c4 = t.elapsed().as_secs_f64();
            writeln!(
                out,
                "{cname:12} {elabel:5} {c1:6.3} {c2:9.3} {c3:13.4} {c4:8.4} {:11.3} {:13.4} {:9.4}",
                c1 + c2,
                c3 + c4,
                (c3 + c4) / (c1 + c2)
            )
            .unwrap();
        }
    }
    std::fs::remove_file(&io_path).ok();
    out
}

/// Ablations called out in DESIGN.md: pad value, α/β grid, padding cutoff.
pub fn ablations(scale: usize) -> String {
    let mut out = String::from("Ablations\n");
    let d = datasets::warpx(scale / 2, 71);
    let mr = d.mr.as_ref().unwrap();
    let range = d.range();
    let eb = range * 8e-3;

    // (a) Pad value: constant / linear / quadratic extrapolation.
    out.push_str("-- pad extrapolation kind (WarpX, rel eb 8e-3)\n");
    for kind in [
        hqmr_mr::PadKind::Constant,
        hqmr_mr::PadKind::Linear,
        hqmr_mr::PadKind::Quadratic,
    ] {
        let cfg = MrcConfig {
            pad: Some(kind),
            ..MrcConfig::ours_pad(eb)
        };
        let (cr, psnrs) = roundtrip_mr(mr, &cfg);
        writeln!(out, "{kind:?}: CR={cr:.2} PSNR(fine)={:.2}", psnrs[0]).unwrap();
    }

    // (b) Adaptive-eb parameter grid around the paper's (2.25, 8).
    out.push_str("-- adaptive eb (alpha, beta) grid (WarpX)\n");
    for alpha in [1.5, 2.25, 3.0] {
        for beta in [4.0, 8.0, 16.0] {
            let cfg = MrcConfig::ours_pad(eb).with_backend(Backend::Sz3(Sz3Codec {
                interp: InterpKind::Cubic,
                level_eb: Some(LevelEbPolicy { alpha, beta }),
            }));
            let (cr, psnrs) = roundtrip_mr(mr, &cfg);
            writeln!(
                out,
                "alpha={alpha:<4} beta={beta:<4}: CR={cr:.2} PSNR(fine)={:.2}",
                psnrs[0]
            )
            .unwrap();
        }
    }

    // (c) Padding cutoff: padding must pay at u = 16 but not at u = 4
    // ((u+1)^2/u^2 = 1.13 vs 1.56, SS III-A). Compare SZ3 bytes on merged
    // arrays directly, bypassing the config-level cutoff.
    out.push_str("-- padding overhead vs gain by unit size (WarpX level)\n");
    for unit in [4usize, 8, 16] {
        let f = synth::warpx_like(Dims3::new(unit * 2, unit * 2, unit * 32), 72);
        let lvl = hqmr_mr::LevelData {
            level: 0,
            unit,
            dims: f.dims(),
            blocks: hqmr_grid::BlockGrid::new(f.dims(), unit)
                .iter()
                .map(|b| hqmr_mr::UnitBlock {
                    origin: b.origin,
                    data: f.extract_box(b.origin, Dims3::cube(unit)).into_vec(),
                })
                .collect(),
        };
        let ebu = f.range() as f64 * 8e-3;
        let arrays = merge_level(&lvl, MergeStrategy::Linear);
        let sz3 = Sz3Codec::default();
        let mut plain = 0usize;
        let mut padded = 0usize;
        for m in &arrays {
            plain += sz3.compress(&m.field, ebu).len();
            let pf = hqmr_mr::pad_small_dims(&m.field, hqmr_mr::PadKind::Linear);
            padded += sz3.compress(&pf, ebu).len();
        }
        writeln!(
            out,
            "unit={unit:2}: plain={plain} bytes, padded={padded} bytes ({:+.1}%)",
            100.0 * (padded as f64 / plain as f64 - 1.0)
        )
        .unwrap();
    }
    out
}

/// Codec-backend matrix: backend × arrangement × error bound on Nyx-T1,
/// reporting compression ratio and PSNR over stored cells. Besides the text
/// report, the full matrix (stored bytes too) lands in `BENCH_codecs.json` at
/// the workspace root, a committed baseline that a rerun reproduces byte for
/// byte. Speed is not measured here: the repo benchmark's codec probes own it.
pub fn codecs(scale: usize) -> String {
    let d = datasets::nyx_t1(scale, 81);
    let mr = d.mr.as_ref().unwrap();
    let range = d.range();
    let arrangements: [(&str, MkConfig); 3] = [
        ("baseline", MrcConfig::baseline),
        ("amric", MrcConfig::amric),
        ("ours", MrcConfig::ours_pad),
    ];
    let rels = [1e-3, 8e-3, 5e-2];
    let stored_mb = (mr.total_cells() * 4) as f64 / (1024.0 * 1024.0);

    let mut out = format!(
        "Codec matrix — {} (scale {scale}, {:.1} MiB stored)\n\
         backend arrange   rel_eb       CR     PSNR\n",
        d.name, stored_mb
    );
    let mut json = String::from("{\n");
    write!(
        json,
        "  \"dataset\": \"{}\",\n  \"scale\": {scale},\n  \"stored_cells\": {},\n  \"records\": [\n",
        d.name,
        mr.total_cells()
    )
    .unwrap();
    let mut first = true;
    let vals_a: Vec<f32> = mr.levels.iter().flat_map(level_values).collect();
    for backend in Backend::ALL {
        for (aname, mk) in arrangements {
            for rel in rels {
                let cfg = mk(range * rel).with_backend(backend);
                let (bytes, stats) = compress_mr(mr, &cfg);
                let back = decompress_mr(&bytes).expect("fresh stream must decompress");
                let vals_b: Vec<f32> = back.levels.iter().flat_map(level_values).collect();
                let p = psnr_slices(&vals_a, &vals_b);
                writeln!(
                    out,
                    "{:7} {aname:8} {rel:8.0e} {:8.1} {:8.2}",
                    backend.name(),
                    stats.ratio(),
                    p,
                )
                .unwrap();
                if !first {
                    json.push_str(",\n");
                }
                first = false;
                let psnr_json = if p.is_finite() {
                    format!("{p:.3}")
                } else {
                    "null".to_string()
                };
                write!(
                    json,
                    "    {{\"backend\": \"{}\", \"arrangement\": \"{aname}\", \
                     \"rel_eb\": {rel:e}, \"bytes\": {}, \"cr\": {:.3}, \"psnr\": {psnr_json}}}",
                    backend.name(),
                    bytes.len(),
                    stats.ratio(),
                )
                .unwrap();
            }
        }
    }
    json.push_str("\n  ]\n}\n");
    crate::write_root_json("BENCH_codecs.json", &json, &mut out);
    out
}
