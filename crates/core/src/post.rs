//! Error-bounded adaptive Bézier post-processing (§III-B).
//!
//! Block-wise compressors lose spatial information at block boundaries. The
//! post-process rebuilds it: for each point `d₄` adjacent to a block
//! boundary, a quadratic Bézier curve through its two axis neighbours gives
//! `B(0.5) = ¼d₃ + ½d₄ + ¼d₅`, and the correction is clamped to
//! `d₄ ± a·eb` so the error bound is never betrayed. The intensity `a < 1`
//! is chosen **per dimension** by a lightweight sampling pass (< 1.5% of the
//! data) followed by stochastic gradient descent over the compressor-specific
//! candidate set (§III-B "dynamic limit/intensity").

use hqmr_grid::{Dims3, Field3};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;

/// Sample window side, in multiples of the boundary period (`j`).
const SAMPLE_MULT: usize = 2;
/// SGD epochs over the sample windows.
const SGD_EPOCHS: usize = 8;
/// Target sampling rate for intensity selection (paper: < 1.5%).
const SAMPLE_FRAC: f64 = 0.015;
/// RNG seed for sampling and SGD shuffling.
const SEED: u64 = 0x9E37;

/// Post-processing configuration: one per compressor, from the
/// constructors below.
#[derive(Debug, Clone, PartialEq)]
pub struct PostConfig {
    /// Candidate intensities (the paper's per-compressor sets).
    candidates: Vec<f64>,
    /// Block-boundary period per axis (`None` ⇒ no boundaries on that axis).
    periods: [Option<usize>; 3],
    /// Run the smoothing passes with rayon (Table IX's OpenMP analogue).
    parallel: bool,
}

impl PostConfig {
    fn with(candidates: Vec<f64>, period: usize) -> Self {
        PostConfig {
            candidates,
            periods: [Some(period); 3],
            parallel: true,
        }
    }

    /// SZ2 on uniform data: `a ∈ {0.05, 0.10, …, 0.50}`, 6³ blocks.
    pub fn sz2() -> Self {
        Self::with((1..=10).map(|i| i as f64 * 0.05).collect(), 6)
    }

    /// AMRIC-SZ2 on multi-resolution data: same candidates, 4³ blocks.
    pub fn sz2_multires() -> Self {
        Self::with((1..=10).map(|i| i as f64 * 0.05).collect(), 4)
    }

    /// ZFP: `a ∈ {0.005, …, 0.05}` (smaller because ZFP's real error sits
    /// well below its tolerance), 4³ blocks.
    pub fn zfp() -> Self {
        Self::with((1..=10).map(|i| i as f64 * 0.005).collect(), 4)
    }

    /// SZ3 on merged multi-resolution arrays: boundaries only along the long
    /// (z) axis with the unit-block period (§III-B "also improve … SZ3").
    pub fn sz3_multires(unit: usize) -> Self {
        let mut cfg = Self::with((1..=10).map(|i| i as f64 * 0.05).collect(), unit);
        cfg.periods = [None, None, Some(unit)];
        cfg
    }

    /// Disables rayon (Table IX's serial column).
    pub fn serial(mut self) -> Self {
        self.parallel = false;
        self
    }
}

/// Chosen intensities and selection metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct IntensityChoice {
    /// Per-axis intensity (0 ⇒ post-processing disabled on that axis).
    pub a: [f64; 3],
    /// Fraction of the field actually sampled.
    pub sample_rate: f64,
    /// Sampled squared error before/after, for diagnostics.
    pub sample_err_before: f64,
    /// See `sample_err_before`.
    pub sample_err_after: f64,
}

/// Whether `i` (position along an axis of extent `n` with boundary period
/// `p`) is adjacent to a block boundary and has both Bézier neighbours.
#[inline]
fn is_boundary_adjacent(i: usize, n: usize, p: usize) -> bool {
    if i == 0 || i + 1 >= n {
        return false;
    }
    let m = i % p;
    m == p - 1 || m == 0
}

/// `x.clamp(lo, hi)`, except that a NaN bound (a NaN cell, or the NaN `eb`
/// of a field with no range) clamps nothing instead of panicking.
fn clamp(x: f64, lo: f64, hi: f64) -> f64 {
    if lo <= hi {
        x.clamp(lo, hi)
    } else {
        x
    }
}

/// Updates the boundary pair `(b−1, b)` along a strided line in place.
/// All four stencil values are snapshotted before writing, so the result is
/// identical to evaluating every correction against the pristine buffer
/// (cells of *different* boundaries never overlap for periods ≥ 3).
#[inline]
fn smooth_pair(buf: &mut [f32], base: usize, stride: usize, b: usize, n: usize, limit: f64) {
    let at = |q: usize| buf[base + q * stride] as f64;
    let a0 = at(b - 2);
    let b0 = at(b - 1);
    let c0 = at(b);
    let new_b = clamp(0.25 * a0 + 0.5 * b0 + 0.25 * c0, b0 - limit, b0 + limit) as f32;
    let new_c = if b + 1 < n {
        let d0 = at(b + 1);
        clamp(0.25 * b0 + 0.5 * c0 + 0.25 * d0, c0 - limit, c0 + limit) as f32
    } else {
        c0 as f32
    };
    buf[base + (b - 1) * stride] = new_b;
    buf[base + b * stride] = new_c;
}

/// One smoothing pass along `axis`, in place. Only boundary-adjacent cells
/// (`≈ 2/period` of the field) are visited — Table IX's "highly
/// parallelizable, minimal overhead" property depends on this.
fn pass_axis(cur: &mut Field3, axis: usize, p: usize, limit: f64, parallel: bool) {
    let d = cur.dims();
    let n_axis = d.as_array()[axis];
    assert!(
        p >= 3,
        "post-process period must be ≥ 3 for pair independence"
    );
    if n_axis <= p {
        return;
    }
    let (ny, nz) = (d.ny, d.nz);
    let slab = ny * nz;
    match axis {
        2 => {
            let apply = |row: &mut [f32]| {
                let mut b = p;
                while b < nz {
                    smooth_pair(row, 0, 1, b, nz, limit);
                    b += p;
                }
            };
            if parallel {
                cur.data_mut().par_chunks_mut(nz).for_each(apply);
            } else {
                cur.data_mut().chunks_mut(nz).for_each(apply);
            }
        }
        1 => {
            let apply = |s: &mut [f32]| {
                let mut b = p;
                while b < ny {
                    for z in 0..nz {
                        smooth_pair(s, z, nz, b, ny, limit);
                    }
                    b += p;
                }
            };
            if parallel {
                cur.data_mut().par_chunks_mut(slab).for_each(apply);
            } else {
                cur.data_mut().chunks_mut(slab).for_each(apply);
            }
        }
        _ => {
            // x boundaries: each touches two whole slabs; boundaries are
            // independent, and within one boundary the (y, z) columns are
            // independent too — but slab-granular mutable splits are awkward,
            // so run columns serially (the work is 2/p of one pass anyway).
            let nx = d.nx;
            let data = cur.data_mut();
            let mut b = p;
            while b < nx {
                for c in 0..slab {
                    smooth_pair(data, c, slab, b, nx, limit);
                }
                b += p;
            }
        }
    }
}

/// Applies the full Bézier post-process: one pass per axis (sequentially, so
/// later axes see earlier corrections), each clamped to `a[axis]·eb`.
///
/// The result satisfies `|out − decomp|∞ ≤ max(a)·eb` per axis pass; combined
/// with the compressor's bound, `|out − orig|∞ ≤ (1 + Σa)·eb` worst case —
/// in practice the corrections move *toward* the original (that is the point).
pub fn bezier_pass(decomp: &Field3, eb: f64, a: [f64; 3], cfg: &PostConfig) -> Field3 {
    let mut cur = decomp.clone();
    bezier_pass_in_place(&mut cur, eb, a, cfg);
    cur
}

/// [`bezier_pass`] on the caller's field instead of a copy of it. An axis
/// without a period or with `a·eb <= 0` gets no pass, so when no axis has
/// one the field is left untouched.
pub(crate) fn bezier_pass_in_place(cur: &mut Field3, eb: f64, a: [f64; 3], cfg: &PostConfig) {
    for (axis, (&period, &ai)) in cfg.periods.iter().zip(&a).enumerate() {
        let (Some(p), limit) = (period, ai * eb) else {
            continue;
        };
        if limit <= 0.0 {
            continue;
        }
        pass_axis(cur, axis, p, limit, cfg.parallel);
    }
}

/// Squared error of the post-processed sample window versus the original,
/// restricted to boundary-adjacent cells of `axis` (the only cells a pass
/// can change).
fn window_axis_error(orig: &Field3, dec: &Field3, axis: usize, p: usize, limit: f64) -> f64 {
    let d = dec.dims();
    let n_axis = d.as_array()[axis];
    let mut acc = 0.0f64;
    for x in 0..d.nx {
        for y in 0..d.ny {
            for z in 0..d.nz {
                let i = match axis {
                    0 => x,
                    1 => y,
                    _ => z,
                };
                if !is_boundary_adjacent(i, n_axis, p) {
                    continue;
                }
                let (va, vb, vc) = match axis {
                    0 => (dec.get(x - 1, y, z), dec.get(x, y, z), dec.get(x + 1, y, z)),
                    1 => (dec.get(x, y - 1, z), dec.get(x, y, z), dec.get(x, y + 1, z)),
                    _ => (dec.get(x, y, z - 1), dec.get(x, y, z), dec.get(x, y, z + 1)),
                };
                let b = 0.25 * va as f64 + 0.5 * vb as f64 + 0.25 * vc as f64;
                let v = clamp(b, vb as f64 - limit, vb as f64 + limit);
                let e = orig.get(x, y, z) as f64 - v;
                acc += e * e;
            }
        }
    }
    acc
}

/// Sample-window origins: `count³`-ish windows of per-axis sides `size`,
/// aligned to the boundary period, spread through the volume with a
/// low-discrepancy (R3 Kronecker) sequence offset by [`SEED`], as many as
/// [`SAMPLE_FRAC`] of the volume affords.
///
/// Stratified placement instead of independent uniform draws: at small field
/// sizes the 1.5% budget affords only a handful of windows (often exactly
/// one), and with independent draws the selected intensity generalizes to the
/// whole field only by sampling luck. The Kronecker sequence keeps the same
/// determinism but guarantees spatial spread — the single-window case lands
/// at the domain center.
fn sample_windows(dims: Dims3, size: Dims3, align: usize) -> Vec<[usize; 3]> {
    let total = dims.len() as f64;
    let max_windows = ((SAMPLE_FRAC * total / size.len() as f64).floor() as usize).max(1);
    let (n, side) = (dims.as_array(), size.as_array());
    let [cx, cy, cz] = [0, 1, 2].map(|d| n[d].saturating_sub(side[d]) / align + 1);
    if cx == 0 || cy == 0 || cz == 0 {
        return vec![[0, 0, 0]];
    }
    // R3 sequence: powers of the inverse plastic constant.
    const ALPHA: [f64; 3] = [
        0.819_172_513_396_164_5,
        0.671_043_606_703_789_3,
        0.549_700_477_901_970_3,
    ];
    let offset = (SEED % 1024) as f64 / 1024.0;
    let mut out = Vec::with_capacity(max_windows);
    for w in 0..max_windows {
        let coord = |axis: usize, n: usize| -> usize {
            let u = (0.5 + offset + (w + 1) as f64 * ALPHA[axis]).fract();
            ((u * n as f64) as usize).min(n - 1) * align
        };
        out.push([coord(0, cx), coord(1, cy), coord(2, cz)]);
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// The `(original, decompressed)` sample-window pairs every selector
/// optimizes over, and how many cells they cover. `decompressed` gets each
/// window's origin and its original cells.
///
/// A window spans `SAMPLE_MULT` periods along every axis the field is long
/// enough for, and the whole extent along a shorter one: a merged array
/// only one period thick still gets windows that straddle the seams along
/// its long axis.
fn window_pairs(
    orig: &Field3,
    cfg: &PostConfig,
    decompressed: impl Fn([usize; 3], &Field3) -> Field3,
) -> (Vec<(Field3, Field3)>, usize) {
    let max_p = cfg.periods.iter().flatten().copied().max().unwrap_or(4);
    let [sx, sy, sz] = orig
        .dims()
        .as_array()
        .map(|n| (SAMPLE_MULT * max_p).min(n.max(1)));
    let wsize = Dims3::new(sx, sy, sz);
    let windows = sample_windows(orig.dims(), wsize, max_p);
    let pairs = windows
        .iter()
        .map(|&o| {
            let ow = orig.extract_box(o, wsize);
            let dw = decompressed(o, &ow);
            (ow, dw)
        })
        .collect();
    (pairs, windows.len() * wsize.len())
}

/// Selects the per-axis intensity from already-decompressed data (offline
/// path). See [`select_intensity_sampled`] for the in-workflow path that
/// round-trips only the sampled windows.
pub fn select_intensity(
    orig: &Field3,
    decomp: &Field3,
    eb: f64,
    cfg: &PostConfig,
) -> IntensityChoice {
    assert_eq!(orig.dims(), decomp.dims(), "field dims mismatch");
    let (pairs, sampled) = window_pairs(orig, cfg, |o, ow| decomp.extract_box(o, ow.dims()));
    optimize(&pairs, eb, cfg, sampled, orig.dims().len())
}

/// Selects the intensity the way the in-situ workflow does (Table IX's
/// "sample + model" stage): extract sample windows from the *original*,
/// round-trip only those through `codec` (compress + decompress at the same
/// error bound), then optimize.
pub fn select_intensity_sampled(
    orig: &Field3,
    codec: impl Fn(&Field3) -> Field3,
    eb: f64,
    cfg: &PostConfig,
) -> IntensityChoice {
    let (pairs, sampled) = window_pairs(orig, cfg, |_, ow| codec(ow));
    optimize(&pairs, eb, cfg, sampled, orig.dims().len())
}

/// Per-axis optimization: SGD over sample windows on a continuous `a`,
/// snapped to the nearest candidate, with a no-op fallback when post-
/// processing would not help (the paper's "conservative degree").
fn optimize(
    pairs: &[(Field3, Field3)],
    eb: f64,
    cfg: &PostConfig,
    sampled_cells: usize,
    total_cells: usize,
) -> IntensityChoice {
    let c_min = cfg.candidates.iter().copied().fold(f64::INFINITY, f64::min);
    let c_max = cfg.candidates.iter().copied().fold(0.0f64, f64::max);
    let mut rng = StdRng::seed_from_u64(SEED ^ 0xA5A5);
    let mut a = [0.0f64; 3];
    let mut err_before = 0.0f64;
    let mut err_after = 0.0f64;

    for (axis, a_slot) in a.iter_mut().enumerate() {
        let Some(p) = cfg.periods[axis] else {
            continue;
        };
        let f_axis = |limit: f64| -> f64 {
            pairs
                .iter()
                .map(|(o, d)| window_axis_error(o, d, axis, p, limit))
                .sum()
        };
        // SGD with sign updates (scale-free) on the continuous intensity.
        let mut cur = (c_min + c_max) / 2.0;
        let delta = (c_max - c_min) / 50.0;
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        for epoch in 0..SGD_EPOCHS {
            let lr = (c_max - c_min) * 0.25 / (epoch + 1) as f64;
            order.shuffle(&mut rng);
            for &wi in &order {
                let (o, d) = &pairs[wi];
                let up = window_axis_error(o, d, axis, p, (cur + delta) * eb);
                let down = window_axis_error(o, d, axis, p, (cur - delta).max(0.0) * eb);
                let g = up - down;
                if g > 0.0 {
                    cur -= lr;
                } else if g < 0.0 {
                    cur += lr;
                }
                cur = cur.clamp(c_min, c_max);
            }
        }
        // Snap to the nearest candidate and keep it only if it beats no-op.
        let snapped = cfg
            .candidates
            .iter()
            .copied()
            .min_by(|x, y| (x - cur).abs().total_cmp(&(y - cur).abs()))
            .unwrap_or(0.0);
        let base = f_axis(0.0);
        let with = f_axis(snapped * eb);
        err_before += base;
        if with < base {
            *a_slot = snapped;
            err_after += with;
        } else {
            err_after += base;
        }
    }
    IntensityChoice {
        a,
        sample_rate: sampled_cells as f64 / total_cells.max(1) as f64,
        sample_err_before: err_before,
        sample_err_after: err_after,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hqmr_codec::Codec;
    use hqmr_metrics::psnr;
    use hqmr_zfp::ZfpCodec;

    /// Exhaustive per-axis candidate search over the same samples: the oracle
    /// the SGD selector is held to.
    fn select_intensity_exhaustive(
        orig: &Field3,
        decomp: &Field3,
        eb: f64,
        cfg: &PostConfig,
    ) -> IntensityChoice {
        assert_eq!(orig.dims(), decomp.dims(), "field dims mismatch");
        let (pairs, sampled) = window_pairs(orig, cfg, |o, ow| decomp.extract_box(o, ow.dims()));
        let mut a = [0.0f64; 3];
        let mut before = 0.0;
        let mut after = 0.0;
        for (axis, a_slot) in a.iter_mut().enumerate() {
            let Some(p) = cfg.periods[axis] else {
                continue;
            };
            let f_axis = |limit: f64| -> f64 {
                pairs
                    .iter()
                    .map(|(o, d)| window_axis_error(o, d, axis, p, limit))
                    .sum()
            };
            let base = f_axis(0.0);
            let best = cfg
                .candidates
                .iter()
                .copied()
                .map(|c| (f_axis(c * eb), c))
                .min_by(|x, y| x.0.total_cmp(&y.0))
                .unwrap_or((base, 0.0));
            before += base;
            if best.0 < base {
                *a_slot = best.1;
                after += best.0;
            } else {
                after += base;
            }
        }
        IntensityChoice {
            a,
            sample_rate: sampled as f64 / orig.dims().len() as f64,
            sample_err_before: before,
            sample_err_after: after,
        }
    }

    /// Smooth truth plus per-block constant offsets — a caricature of
    /// block-wise compression artifacts with |error| ≤ eb.
    fn blocky_pair(n: usize, p: usize, eb: f32) -> (Field3, Field3) {
        let orig = Field3::from_fn(Dims3::cube(n), |x, y, z| {
            ((x as f32 * 0.21).sin() + (y as f32 * 0.17).cos() + (z as f32 * 0.13).sin()) * 10.0
        });
        let mut dec = orig.clone();
        let d = dec.dims();
        for x in 0..n {
            for y in 0..n {
                for z in 0..n {
                    let block_id = (x / p) * 31 + (y / p) * 17 + (z / p) * 7;
                    let offset = (((block_id * 2654435761) % 200) as f32 / 100.0 - 1.0) * eb * 0.9;
                    let i = d.idx(x, y, z);
                    dec.data_mut()[i] += offset;
                }
            }
        }
        (orig, dec)
    }

    #[test]
    fn pass_changes_only_boundary_cells_within_limit() {
        let (_, dec) = blocky_pair(24, 4, 0.5);
        let cfg = PostConfig::zfp();
        let out = bezier_pass(&dec, 0.5, [0.05, 0.05, 0.05], &cfg);
        let d = dec.dims();
        for x in 0..24 {
            for y in 0..24 {
                for z in 0..24 {
                    let diff = (out.get(x, y, z) - dec.get(x, y, z)).abs();
                    let adj = is_boundary_adjacent(x, 24, 4)
                        || is_boundary_adjacent(y, 24, 4)
                        || is_boundary_adjacent(z, 24, 4);
                    if !adj {
                        assert_eq!(diff, 0.0, "non-boundary cell changed at {x},{y},{z}");
                    }
                    // Three sequential passes each move ≤ a·eb.
                    assert!(
                        diff as f64 <= 3.0 * 0.05 * 0.5 + 1e-6,
                        "{diff} at {x},{y},{z}"
                    );
                    let _ = d;
                }
            }
        }
    }

    #[test]
    fn post_process_improves_blocky_data() {
        let (orig, dec) = blocky_pair(32, 4, 0.5);
        let cfg = PostConfig::sz2_multires();
        let choice = select_intensity(&orig, &dec, 0.5, &cfg);
        assert!(
            choice.a.iter().any(|&a| a > 0.0),
            "should engage: {choice:?}"
        );
        let out = bezier_pass(&dec, 0.5, choice.a, &cfg);
        let before = psnr(&orig, &dec);
        let after = psnr(&orig, &out);
        assert!(after > before, "PSNR {before} → {after}");
    }

    #[test]
    fn sample_rate_stays_below_target() {
        let (orig, dec) = blocky_pair(32, 4, 0.1);
        let cfg = PostConfig::sz2_multires();
        let choice = select_intensity(&orig, &dec, 0.1, &cfg);
        assert!(choice.sample_rate <= 0.06, "rate {}", choice.sample_rate);
    }

    #[test]
    fn perfect_data_falls_back_to_noop() {
        // decomp == orig: any smoothing hurts, so the selector must disable.
        let (orig, _) = blocky_pair(24, 4, 0.1);
        let cfg = PostConfig::sz2_multires();
        let choice = select_intensity(&orig, &orig, 0.1, &cfg);
        let out = bezier_pass(&orig, 0.1, choice.a, &cfg);
        let e = hqmr_metrics::max_abs_err(&orig, &out);
        assert!(
            e <= 0.1 * choice.a.iter().fold(0.0f64, |m, &a| m.max(a)) * 3.0 + 1e-12,
            "residual {e} with a = {:?}",
            choice.a
        );
    }

    #[test]
    fn sgd_matches_exhaustive_reasonably() {
        let (orig, dec) = blocky_pair(32, 4, 0.5);
        let cfg = PostConfig::sz2_multires();
        let sgd = select_intensity(&orig, &dec, 0.5, &cfg);
        let exh = select_intensity_exhaustive(&orig, &dec, 0.5, &cfg);
        // The SGD choice's sampled error must be within 20% of the exhaustive
        // optimum's improvement.
        let imp_sgd = exh.sample_err_before - sgd.sample_err_after;
        let imp_exh = exh.sample_err_before - exh.sample_err_after;
        assert!(
            imp_sgd >= 0.8 * imp_exh,
            "sgd {:?} (imp {imp_sgd}) vs exhaustive {:?} (imp {imp_exh})",
            sgd.a,
            exh.a
        );
    }

    /// A merged array one period thick, with seams every period along its
    /// long axis: windows that span two periods there straddle a seam, so
    /// the sampled "before" error is not zero and the selector engages.
    #[test]
    fn thin_period_aligned_arrays_sample_their_seams() {
        let (p, eb) = (8, 0.5f32);
        let dims = Dims3::new(p, p, 64 * p);
        let orig = Field3::from_fn(dims, |x, y, z| {
            ((x + y) as f32 * 0.3).sin() * 4.0 + (z as f32 * 0.05).cos() * 10.0
        });
        let dec = Field3::from_fn(dims, |x, y, z| {
            let offset = ((((z / p) * 2654435761) % 200) as f32 / 100.0 - 1.0) * eb * 0.9;
            orig.get(x, y, z) + offset
        });
        let cfg = PostConfig::sz3_multires(p);
        let choice = select_intensity(&orig, &dec, eb as f64, &cfg);
        assert!(choice.sample_err_before > 0.0, "{choice:?}");
        assert!(choice.a[2] > 0.0, "{choice:?}");
    }

    #[test]
    fn nan_inputs_select_without_panicking() {
        let dims = Dims3::new(16, 16, 64);
        let orig = Field3::new(dims, f32::NAN);
        let dec = Field3::from_fn(dims, |x, y, z| (x + y + z) as f32);
        let mut cfg = PostConfig::sz3_multires(8);
        let sgd = select_intensity(&orig, &dec, 0.5, &cfg);
        let exh = select_intensity_exhaustive(&orig, &dec, 0.5, &cfg);
        assert_eq!(sgd.a, [0.0; 3]);
        assert_eq!(exh.a, sgd.a);
        // A NaN among the public candidates is never the nearest one.
        cfg.candidates.insert(0, f64::NAN);
        let (orig, dec) = blocky_pair(32, 8, 0.5);
        let with_nan = select_intensity(&orig, &dec, 0.5, &cfg);
        assert!(with_nan.a.iter().all(|a| !a.is_nan()), "{with_nan:?}");
    }

    #[test]
    fn axis_specific_periods_respected() {
        let (_, dec) = blocky_pair(24, 8, 0.2);
        let mut cfg = PostConfig::sz3_multires(8);
        cfg.parallel = false;
        let out = bezier_pass(&dec, 0.2, [0.5, 0.5, 0.5], &cfg);
        // Only z-boundary-adjacent cells may change.
        for x in 0..24 {
            for y in 0..24 {
                for z in 0..24 {
                    if !is_boundary_adjacent(z, 24, 8) {
                        assert_eq!(out.get(x, y, z), dec.get(x, y, z));
                    }
                }
            }
        }
    }

    #[test]
    fn serial_and_parallel_agree() {
        let (_, dec) = blocky_pair(24, 4, 0.3);
        let par = bezier_pass(&dec, 0.3, [0.2, 0.1, 0.3], &PostConfig::sz2_multires());
        let ser = bezier_pass(
            &dec,
            0.3,
            [0.2, 0.1, 0.3],
            &PostConfig::sz2_multires().serial(),
        );
        assert_eq!(par, ser);
    }

    #[test]
    fn sampled_selection_with_real_codec() {
        let (orig, _) = blocky_pair(32, 4, 0.5);
        let tol = 0.5;
        let cfg = PostConfig::zfp();
        let choice = select_intensity_sampled(
            &orig,
            |w| ZfpCodec.decompress(&ZfpCodec.compress(w, tol)).unwrap(),
            tol,
            &cfg,
        );
        assert!(choice.sample_rate < 0.1);
        // Whatever it picked, applying it to real decompressed data must not
        // catastrophically hurt (clamped by construction).
        let dec = ZfpCodec.decompress(&ZfpCodec.compress(&orig, tol)).unwrap();
        let out = bezier_pass(&dec, tol, choice.a, &cfg);
        assert!(psnr(&orig, &out) >= psnr(&orig, &dec) - 0.2);
    }
}
