//! Seeded inputs: every dataset, ROI box, Zipf draw and client stream is a
//! function of `--seed`, generated here; the program under test only ever
//! sees the results.
//!
//! The datasets are the paper's WarpX proxy (`hqmr_grid::synth::warpx_like`,
//! Table III's in-situ adaptive dataset): its value range, compressibility
//! and PSNR move by well under a percent between seeds, where the lognormal
//! Nyx proxy's ratio moves by 2.6× and its PSNR by 6 dB — wider than any
//! bound a metric could be gated on when every run draws another seed.

use hqmr_grid::{synth, Dims3, Field3};
use hqmr_serve::Query;

/// SplitMix64: small, seedable, and owned by the benchmark so that a change
/// to the workspace's `rand` shim cannot move the inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `label` (a dataset, a client, …).
    pub fn fork(seed: u64, label: u64) -> Self {
        let mut r = Rng(seed ^ label.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }
}

/// Zipf(s) over ranks `0..n` by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += (k as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// The rank at cumulative probability `u ∈ [0, 1)`.
    pub fn quantile(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The WarpX proxy at `dims`.
pub fn warpx(dims: Dims3, seed: u64) -> Field3 {
    synth::warpx_like(dims, seed)
}

/// `frames` timesteps of the WarpX proxy: the pulse and its wake move along
/// `z` by `velocity` cells per step under periodic boundaries, which is
/// what a co-moving laser-wakefield window looks like frame to frame.
pub fn warpx_sequence(dims: Dims3, frames: usize, seed: u64) -> Vec<Field3> {
    let base = warpx(dims, seed);
    let velocity = [0.0, 0.0, 1.3];
    (0..frames)
        .map(|t| {
            if t == 0 {
                base.clone()
            } else {
                synth::advect_periodic(&base, velocity.map(|v| v * t as f64))
            }
        })
        .collect()
}

/// `n` evenly spaced origins of a `side`-wide box along an axis of extent
/// `dim`, each a multiple of `align`.
fn lattice_axis(dim: usize, side: usize, n: usize, align: usize) -> Vec<usize> {
    let span = dim.saturating_sub(side);
    (0..n)
        .map(|i| (span * i / (n - 1).max(1)) / align * align)
        .collect()
}

/// The `n³` origins of `side³` ROI boxes inside `dims`, block-aligned.
pub fn roi_lattice(dims: Dims3, side: usize, n: usize, align: usize) -> Vec<[usize; 3]> {
    let (xs, ys, zs) = (
        lattice_axis(dims.nx, side, n, align),
        lattice_axis(dims.ny, side, n, align),
        lattice_axis(dims.nz, side, n, align),
    );
    let mut out = Vec::with_capacity(n * n * n);
    for &x in &xs {
        for &y in &ys {
            for &z in &zs {
                out.push([x, y, z]);
            }
        }
    }
    out
}

/// An ROI query for the `side³` box at `origin` on level 0.
pub fn roi_query(origin: [usize; 3], side: usize, fill: f32) -> Query {
    Query::Roi {
        level: 0,
        lo: origin,
        hi: origin.map(|o| o + side),
        fill,
    }
}

/// Shuffles `items` (Fisher–Yates), so Zipf rank 0 is not always the
/// lattice's first corner.
pub fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let a: Vec<u64> = std::iter::repeat_with({
            let mut r = Rng::fork(7, 1);
            move || r.next_u64()
        })
        .take(4)
        .collect();
        let b: Vec<u64> = std::iter::repeat_with({
            let mut r = Rng::fork(7, 1);
            move || r.next_u64()
        })
        .take(4)
        .collect();
        let c: Vec<u64> = std::iter::repeat_with({
            let mut r = Rng::fork(8, 1);
            move || r.next_u64()
        })
        .take(4)
        .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(64, 1.1);
        let mut rng = Rng::fork(3, 0);
        let mut hist = [0usize; 64];
        for _ in 0..20_000 {
            hist[z.quantile(rng.unit())] += 1;
        }
        assert!(hist[0] > 3 * hist[7], "{hist:?}");
        assert!(hist[0] > 10 * hist[63].max(1));
        assert_eq!(hist.iter().sum::<usize>(), 20_000);
    }

    #[test]
    fn lattice_boxes_fit_and_align() {
        let dims = Dims3::new(128, 128, 1024);
        let l = roi_lattice(dims, 64, 4, 16);
        assert_eq!(l.len(), 64);
        assert_eq!(l[0], [0, 0, 0]);
        assert_eq!(*l.last().unwrap(), [64, 64, 960]);
        for o in &l {
            assert!(o[0] + 64 <= dims.nx && o[1] + 64 <= dims.ny && o[2] + 64 <= dims.nz);
            assert!(o.iter().all(|v| v % 16 == 0));
        }
    }
}
