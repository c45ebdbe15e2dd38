//! Level-wise interpolation kernels shared by compression and decompression.
//!
//! Two implementations live here:
//!
//! * [`compress_pass`] / [`decompress_pass`] — the production kernels. Each
//!   level-sweep is decomposed into independent *lines* along the sweep
//!   dimension, and every line is peeled into four branch-free segments from
//!   its geometry alone (`LineGeom`): a midpoint head, a cubic interior
//!   run, a midpoint tail, and (at most) one extrapolated boundary point.
//!   Within a line every prediction reads only even multiples of the stride
//!   (already-known points) while writes land on odd multiples, so the
//!   interior loops carry no dependency and no per-point predicate.
//!   Prediction-kind statistics ([`interp_stats`]) come from the same
//!   geometry (lines × per-line segment counts) with no pass over data.
//!
//!   Both passes run the same walks: a walk computes each point's
//!   prediction and hands the point to a [`PointStep`] — [`Quantize`] in
//!   compress, [`Recover`] in decompress — so visit order, segment split
//!   and prediction expressions are written once for both directions.
//!   Each sweep runs on one of three bit-identical arms, picked by
//!   `sweep_arm`: the scalar line walk `walk_line` (the oracle, and the
//!   only arm under `HQMR_FORCE_SCALAR` or without AVX2); an AVX2 line walk
//!   for the finest `z` sweep, whose lines are contiguous stride-2 walks;
//!   and, for every x and y sweep at every level, an AVX2 walk *across*
//!   lines — for each outer coordinate and each target position `k`, the
//!   lines adjacent in `z` four at a time, which at the finest level is the
//!   same stride-2 load the `z` walk does (`simd.rs` module docs). That
//!   walk leaves traversal order, so it steps each code at its line-major
//!   slot and orders the outlier side channel with one scan of the sweep's
//!   codes: after the walk in compress (an out-of-band cell still holds its
//!   original value), before it in decompress (pre-filling those cells).
//!   Large decode sweeps fan out across the rayon shim — by line on the line
//!   arms, by slab of one outer coordinate × 64 lanes on the across arm.
//!
//! * [`mod@reference`] — the original per-point traversal (an `FnMut` visit
//!   closure plus a gather-closure predictor), kept verbatim as the oracle.
//!   The differential suite (`tests/kernel_equivalence.rs`) pins the two
//!   bit-for-bit — same codes, same outliers, same reconstructions — and
//!   this module's tests pin [`interp_stats`] to its per-point tally,
//!   mirroring the `bitio::reference` pattern from the entropy-stage
//!   overhaul.
//!
//! Both paths evaluate predictions with the same f64 expressions in the same
//! order, so IEEE determinism makes them bit-identical by construction; the
//! tests make it checked, not assumed.

use hqmr_codec::kernels::{self, SharedSlice, SimdLevel};
use hqmr_codec::quantizer::{self, PointStep, Quantize, Recover};
use hqmr_codec::LinearQuantizer;
use hqmr_grid::Dims3;
use rayon::prelude::*;

#[cfg(target_arch = "x86_64")]
mod simd;

/// Interpolator choice for interior points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterpKind {
    /// Two-point midpoint prediction.
    Linear,
    /// Four-point cubic (weights −1/16, 9/16, 9/16, −1/16), falling back to
    /// linear near boundaries. SZ3's default.
    Cubic,
}

/// How a point was predicted (for diagnostics and the Fig. 7/8 experiment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredKind {
    /// The global first point, predicted from 0.
    Seed,
    /// Two-sided linear interpolation.
    Midpoint,
    /// Four-point cubic interpolation.
    Cubic,
    /// One-sided fallback: the `+stride` neighbour does not exist (the
    /// pathology the paper's padding eliminates).
    Extrapolated,
}

/// Prediction-kind counters accumulated over a traversal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InterpStats {
    /// Seed points (always 1 for non-empty arrays).
    pub seeds: usize,
    /// Midpoint-predicted points.
    pub midpoint: usize,
    /// Cubic-predicted points.
    pub cubic: usize,
    /// Extrapolated points (sub-optimal predictions).
    pub extrapolated: usize,
}

impl InterpStats {
    /// Total points visited.
    pub fn total(&self) -> usize {
        self.seeds + self.midpoint + self.cubic + self.extrapolated
    }
}

/// Number of interpolation levels for a largest extent of `n`:
/// `ceil(log2(n))` (0 when the array is a single point).
pub fn interp_levels(n: usize) -> usize {
    if n <= 1 {
        return 0;
    }
    (usize::BITS - (n - 1).leading_zeros()) as usize
}

/// Per-line segment counts for one level-sweep: every line of a sweep shares
/// the same extent `n` and stride `s`, so its prediction kinds are a pure
/// function of geometry. Target points sit at `p_k = (2k+1)·s < n`;
/// `predict`'s rules translate to contiguous `k`-ranges:
///
/// * only the last point can be one-sided (`p + s ≥ n` for an earlier point
///   would put its successor past the array);
/// * cubic requires `p ≥ 3s` (⇔ `k ≥ 1`) and `p + 3s < n`, which implies the
///   point is interior — so cubic points form one run sandwiched between a
///   single midpoint head point and a midpoint tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LineGeom {
    /// Midpoint points before the cubic run (`k < 1` or all-interior when
    /// the interpolator is linear).
    mid_head: usize,
    /// Cubic interior points.
    cubic: usize,
    /// Midpoint points after the cubic run (`p + 3s ≥ n` but `p + s < n`).
    mid_tail: usize,
    /// Whether the final point extrapolates from its predecessor.
    extra: bool,
}

impl LineGeom {
    fn new(n: usize, s: usize, interp: InterpKind) -> Self {
        debug_assert!(s < n, "no odd multiples of {s} inside extent {n}");
        let cnt = (n - 1 - s) / (2 * s) + 1;
        let last = (2 * cnt - 1) * s;
        let extra = last + s >= n;
        let interior = cnt - extra as usize;
        match interp {
            InterpKind::Linear => LineGeom {
                mid_head: interior,
                cubic: 0,
                mid_tail: 0,
                extra,
            },
            InterpKind::Cubic => {
                // k is cubic iff 1 ≤ k and (2k+4)·s ≤ n−1.
                let m = (n - 1) / s;
                let c_upper = if m >= 5 { (m - 4) / 2 + 1 } else { 0 };
                let hi = c_upper.min(interior);
                let cubic = hi.saturating_sub(1);
                let mid_head = interior.min(1);
                LineGeom {
                    mid_head,
                    cubic,
                    mid_tail: interior - mid_head - cubic,
                    extra,
                }
            }
        }
    }

    fn interior(&self) -> usize {
        self.mid_head + self.cubic + self.mid_tail
    }

    /// Targets (and so codes) per line.
    fn per_line(&self) -> usize {
        self.interior() + self.extra as usize
    }
}

/// One line's walk: points at odd multiples of `s` along element stride `e`,
/// peeled into the [`LineGeom`] segments, each handed to `step` with its
/// prediction and its value written back — one walk for both directions.
/// Every prediction reads even multiples only — never a value this line
/// writes — so the interior loops carry no dependency and keep a *rolling
/// window* of neighbour values: consecutive cubic points share three of
/// their four support points, so each iteration loads exactly one new value.
/// The f64 expressions match [`super::reference`] term for term, which (IEEE
/// determinism) makes the two paths bit-identical.
#[inline]
#[allow(clippy::too_many_arguments)] // the line kernel's full register set
fn walk_line<S: PointStep>(
    buf: &mut [f32],
    base: usize,
    e: usize,
    s: usize,
    g: &LineGeom,
    q: &LinearQuantizer,
    step: &mut S,
) {
    let se = s * e;
    let stride = 2 * se;
    let mut i = base + se;
    if g.mid_head > 0 {
        let mut prev = buf[i - se] as f64;
        for _ in 0..g.mid_head {
            let next = buf[i + se] as f64;
            let pred = (prev + next) / 2.0;
            buf[i] = step.point(q, buf[i], pred);
            i += stride;
            prev = next;
        }
    }
    if g.cubic > 0 {
        let se3 = 3 * se;
        let mut a = buf[i - se3] as f64;
        let mut b = buf[i - se] as f64;
        let mut c = buf[i + se] as f64;
        let mut d = buf[i + se3] as f64;
        for _ in 1..g.cubic {
            let pred = (-a + 9.0 * b + 9.0 * c - d) / 16.0;
            buf[i] = step.point(q, buf[i], pred);
            i += stride;
            (a, b, c) = (b, c, d);
            d = buf[i + se3] as f64;
        }
        let pred = (-a + 9.0 * b + 9.0 * c - d) / 16.0;
        buf[i] = step.point(q, buf[i], pred);
        i += stride;
    }
    if g.mid_tail > 0 {
        let mut prev = buf[i - se] as f64;
        for _ in 0..g.mid_tail {
            let next = buf[i + se] as f64;
            let pred = (prev + next) / 2.0;
            buf[i] = step.point(q, buf[i], pred);
            i += stride;
            prev = next;
        }
    }
    if g.extra {
        let pred = buf[i - se] as f64;
        buf[i] = step.point(q, buf[i], pred);
    }
}

/// The walk one sweep runs on, in either direction. All three are
/// bit-identical; the scalar [`walk_line`] is the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arm {
    /// The scalar line walk: every sweep under `HQMR_FORCE_SCALAR`, off
    /// x86-64 and without AVX2; on AVX2, the coarse `z` sweeps and the
    /// x/y sweeps with fewer than four lines side by side in `z`.
    Scalar,
    /// The AVX2 line walk of the finest `z` sweep (`stride == 1 &&
    /// s == 1`): contiguous stride-2 lines, about half of all points.
    Z1,
    /// The AVX2 across-lines walk of an x or y sweep: for each outer
    /// coordinate and each target position `k`, the lines adjacent in `z`
    /// four at a time (`simd.rs` module docs).
    Across,
}

/// The arm for one sweep (see [`Arm`]).
fn sweep_arm(sw: &Sweep) -> Arm {
    if kernels::simd_level() == SimdLevel::Scalar {
        Arm::Scalar
    } else if sw.stride == 1 && sw.s == 1 {
        Arm::Z1
    } else if sw.o_strides[1] == 1 && sw.lanes() >= 4 {
        // Lines adjacent in the inner outer dimension are adjacent in
        // memory: that dimension is `z`, so this is an x or y sweep.
        Arm::Across
    } else {
        Arm::Scalar
    }
}

/// Walks one line through the line arm selected by [`sweep_arm`].
#[allow(clippy::too_many_arguments)]
#[inline]
fn walk_line_arm<S: PointStep>(
    arm: Arm,
    buf: &mut [f32],
    base: usize,
    e: usize,
    s: usize,
    g: &LineGeom,
    q: &LinearQuantizer,
    step: &mut S,
) {
    match arm {
        // Safety: `Z1` is only picked on an AVX2 CPU, for the finest z sweep.
        #[cfg(target_arch = "x86_64")]
        Arm::Z1 => unsafe { simd::walk_line_z1_avx2(buf, base, g, q, step) },
        _ => walk_line(buf, base, e, s, g, q, step),
    }
}

/// Minimum sweep size (in points) before the decode fans its lines across
/// the rayon shim — below this, scoped-thread spawn overhead dominates.
const PAR_MIN_POINTS: usize = 1 << 16;

/// Lanes per slab of a fanned-out across-lines decode. A multiple of four,
/// so a slab's vector groups — and the 8-float windows they load — never
/// straddle two slabs.
#[cfg(target_arch = "x86_64")]
const PAR_LANES: usize = 64;

/// One level-sweep's loop bounds, shared by both passes so the visit order is
/// defined in exactly one place (and matches [`reference::traverse`]).
struct Sweep {
    l_proc: usize,
    stride: usize,
    n: usize,
    s: usize,
    o_strides: [usize; 2],
    o_steps: [usize; 2],
    o_extents: [usize; 2],
}

impl Sweep {
    /// Values of the outer line coordinate (the slow one of the two).
    fn outer(&self) -> usize {
        self.o_extents[0].div_ceil(self.o_steps[0])
    }

    /// Lines per outer coordinate: the values of the inner line coordinate,
    /// which for an x or y sweep is `z` — the lanes of the across-lines arm.
    fn lanes(&self) -> usize {
        self.o_extents[1].div_ceil(self.o_steps[1])
    }

    /// Number of lines this sweep visits.
    fn lines(&self) -> usize {
        self.outer() * self.lanes()
    }

    /// Calls `f(base)` for every line, in traversal order.
    #[inline]
    fn for_each_base(&self, mut f: impl FnMut(usize)) {
        let mut c1 = 0usize;
        while c1 < self.o_extents[0] {
            let b1 = c1 * self.o_strides[0];
            let mut c2 = 0usize;
            while c2 < self.o_extents[1] {
                f(b1 + c2 * self.o_strides[1]);
                c2 += self.o_steps[1];
            }
            c1 += self.o_steps[0];
        }
    }
}

/// An x or y sweep seen across its lines, its steps in elements computed
/// once: line `(c, j)` — outer coordinate index `c`, lane `j` along `z`,
/// line `c·lanes + j` in traversal order — holds its `k`-th target at
/// [`Across::cell`] and its code at slot [`Across::code`] of the pass's
/// codes.
#[cfg(target_arch = "x86_64")]
struct Across {
    outer: usize,
    outer_step: usize,
    lanes: usize,
    /// Between adjacent lanes: the lines' `2s` step along `z`.
    zs: usize,
    /// Lanes `[0, dense)` load four at a time with one 8-float window:
    /// `zs == 2` and the window ends inside the `z` row (a multiple of 4).
    dense: usize,
    /// Between a target and its nearest support.
    se: usize,
    per_line: usize,
    /// The slot of the sweep's first code.
    first: usize,
}

#[cfg(target_arch = "x86_64")]
impl Across {
    fn new(sw: &Sweep, g: &LineGeom, first: usize) -> Self {
        debug_assert_eq!(sw.o_strides[1], 1, "lanes run along z");
        let zs = sw.o_steps[1];
        Across {
            outer: sw.outer(),
            outer_step: sw.o_steps[0] * sw.o_strides[0],
            lanes: sw.lanes(),
            zs,
            dense: if zs == 2 { sw.o_extents[1] / 8 * 4 } else { 0 },
            se: sw.s * sw.stride,
            per_line: g.per_line(),
            first,
        }
    }

    /// The sweep's codes.
    fn slots(&self) -> std::ops::Range<usize> {
        self.first..self.first + self.outer * self.lanes * self.per_line
    }

    #[inline]
    fn cell(&self, c: usize, j: usize, k: usize) -> usize {
        c * self.outer_step + j * self.zs + (2 * k + 1) * self.se
    }

    #[inline]
    fn code(&self, c: usize, j: usize, k: usize) -> usize {
        self.first + (c * self.lanes + j) * self.per_line + k
    }

    /// Calls `f(cell)` for the cell of every `UNPREDICTABLE` code of the
    /// sweep in the pass's `codes`, in code order — the side channel's order.
    fn for_each_outlier(&self, codes: &[u32], mut f: impl FnMut(usize)) {
        let codes = &codes[self.slots()];
        // Out-of-band codes are rare: most blocks fail an OR-fold of
        // equality tests, which the compiler vectorizes on baseline SSE2.
        const BLOCK: usize = 64;
        for (b, block) in codes.chunks(BLOCK).enumerate() {
            if !block
                .iter()
                .fold(false, |any, &c| any | (c == LinearQuantizer::UNPREDICTABLE))
            {
                continue;
            }
            for (j, &c) in block.iter().enumerate() {
                if c == LinearQuantizer::UNPREDICTABLE {
                    let (line, k) = (
                        (b * BLOCK + j) / self.per_line,
                        (b * BLOCK + j) % self.per_line,
                    );
                    f(self.cell(line / self.lanes, line % self.lanes, k));
                }
            }
        }
    }
}

/// Yields every level-sweep of the coarse→fine traversal in processing order.
fn sweeps(dims: Dims3) -> impl Iterator<Item = Sweep> {
    let maxlevel = interp_levels(dims.max_extent());
    let strides = [dims.ny * dims.nz, dims.nz, 1usize];
    let extents = dims.as_array();
    (1..=maxlevel)
        .rev()
        .enumerate()
        .flat_map(move |(step, level)| {
            let l_proc = step + 1;
            let s = 1usize << (level - 1);
            (0..3).filter_map(move |d| {
                let n_d = extents[d];
                if s >= n_d {
                    return None; // no odd multiples of s inside this extent
                }
                // Other dims: already-processed dims this level use step `s`,
                // not-yet-processed use `2s`.
                let (o1, o2) = match d {
                    0 => (1, 2),
                    1 => (0, 2),
                    _ => (0, 1),
                };
                Some(Sweep {
                    l_proc,
                    stride: strides[d],
                    n: n_d,
                    s,
                    o_strides: [strides[o1], strides[o2]],
                    o_steps: [
                        if o1 < d { s } else { 2 * s },
                        if o2 < d { s } else { 2 * s },
                    ],
                    o_extents: [extents[o1], extents[o2]],
                })
            })
        })
}

/// How the traversal of a `dims` array predicts its points under `interp`
/// (Fig. 7/8's diagnostics): a pure function of the level geometry —
/// lines × per-line segment counts of every sweep — so no pass over data
/// tallies it.
pub fn interp_stats(dims: Dims3, interp: InterpKind) -> InterpStats {
    let mut stats = InterpStats::default();
    if dims.is_empty() {
        return stats;
    }
    stats.seeds = 1;
    for sw in sweeps(dims) {
        let g = LineGeom::new(sw.n, sw.s, interp);
        let lines = sw.lines();
        stats.midpoint += lines * (g.mid_head + g.mid_tail);
        stats.cubic += lines * g.cubic;
        stats.extrapolated += lines * g.extra as usize;
    }
    stats
}

/// Runs the full compression pass over `buf` (row-major, `dims`), quantizing
/// every point's prediction residual with the per-processing-step quantizers
/// `quants` (index 0 unused; `1..=maxlevel`, clamped to the last entry).
/// Codes and out-of-band values append to `codes` / `outliers`; `buf` ends up
/// holding the reconstruction decompression will reproduce.
pub fn compress_pass(
    dims: Dims3,
    interp: InterpKind,
    quants: &[LinearQuantizer],
    buf: &mut [f32],
    codes: &mut Vec<u32>,
    outliers: &mut Vec<f32>,
) {
    assert_eq!(buf.len(), dims.len(), "buffer does not match {dims}");
    if buf.is_empty() {
        return;
    }
    codes.reserve(buf.len());
    let mut step = Quantize { codes, outliers };
    // Seed: the global first point, predicted from 0 ("level 0" in the paper).
    buf[0] = step.point(&quants[1.min(quants.len() - 1)], buf[0], 0.0);
    for sw in sweeps(dims) {
        let q = &quants[sw.l_proc.min(quants.len() - 1)];
        let g = LineGeom::new(sw.n, sw.s, interp);
        match sweep_arm(&sw) {
            #[cfg(target_arch = "x86_64")]
            Arm::Across => {
                // The walk writes each code at its line-major slot; an
                // out-of-band cell ends the sweep holding its original value,
                // so one scan in code order pushes the side channel.
                let a = Across::new(&sw, &g, step.codes.len());
                step.codes.resize(a.slots().end, 0);
                // Safety: `Arm::Across` is only picked on an AVX2 CPU, for
                // an x or y sweep of `buf`.
                unsafe {
                    simd::walk_across_avx2(buf, &a, &g, q, &mut step, 0..a.outer, 0..a.lanes)
                };
                a.for_each_outlier(step.codes, |cell| step.outliers.push(buf[cell]));
            }
            arm => sw.for_each_base(|base| {
                walk_line_arm(arm, buf, base, sw.stride, sw.s, &g, q, &mut step);
            }),
        }
        debug_assert_eq!(g.per_line(), (sw.n - 1 - sw.s) / (2 * sw.s) + 1);
    }
}

/// Runs the full decompression pass into `buf`, consuming one code per point
/// (and one `outliers` entry per out-of-band code) in traversal order.
///
/// `codes` must hold exactly `dims.len()` entries (the caller validates the
/// stream before the pass). Returns `false` when the outlier side channel
/// underruns — the pass still completes, substituting zeros, so the caller
/// reports one typed error.
pub fn decompress_pass(
    dims: Dims3,
    interp: InterpKind,
    quants: &[LinearQuantizer],
    codes: &[u32],
    outliers: &[f32],
    buf: &mut [f32],
) -> bool {
    assert_eq!(buf.len(), dims.len(), "buffer does not match {dims}");
    assert_eq!(codes.len(), buf.len(), "one code per point");
    if buf.is_empty() {
        return true;
    }
    let mut step = Recover::new(codes, outliers);
    buf[0] = step.point(&quants[1.min(quants.len() - 1)], buf[0], 0.0);
    let cores = rayon::current_num_threads();
    for sw in sweeps(dims) {
        let q = &quants[sw.l_proc.min(quants.len() - 1)];
        let g = LineGeom::new(sw.n, sw.s, interp);
        let arm = sweep_arm(&sw);
        let per_line = g.per_line();
        let lines = sw.lines();
        let par = cores > 1 && lines >= 2 && lines * per_line >= PAR_MIN_POINTS;
        #[cfg(target_arch = "x86_64")]
        if arm == Arm::Across {
            let a = Across::new(&sw, &g, step.ci);
            // The side channel is in code order, the walk is not: one scan
            // in code order pre-fills the out-of-band cells (underrun: 0 and
            // a cleared flag) and the walk leaves them be.
            a.for_each_outlier(codes, |cell| {
                let out = LinearQuantizer::UNPREDICTABLE;
                buf[cell] =
                    quantizer::recover_value(q, 0.0, out, outliers, &mut step.oi, &mut step.ok);
            });
            let (outer, lanes) = (a.outer, a.lanes);
            if par {
                // Slabs of one outer coordinate and `PAR_LANES` lanes: their
                // lines are consecutive in code order, and the walk needs no
                // outlier cursor.
                let jobs: Vec<(usize, usize)> = (0..outer)
                    .flat_map(|c| (0..lanes).step_by(PAR_LANES).map(move |j| (c, j)))
                    .collect();
                let shared = SharedSlice::new(buf);
                let _: Vec<()> = jobs
                    .par_iter()
                    .map(|&(c, j)| {
                        // SAFETY: a slab's lines write only their own cells
                        // (odd multiples of `s` along the sweep dim, at
                        // bases no other slab has) and read cells no line
                        // of the sweep writes (even multiples) plus their
                        // own four-lane group's window, which no slab
                        // straddles (`PAR_LANES`). `Across` is only picked
                        // on an AVX2 CPU.
                        let mut slab = step;
                        unsafe {
                            let b = shared.slice();
                            let js = j..(j + PAR_LANES).min(lanes);
                            simd::walk_across_avx2(b, &a, &g, q, &mut slab, c..c + 1, js);
                        }
                    })
                    .collect();
            } else {
                // Safety: as above.
                unsafe { simd::walk_across_avx2(buf, &a, &g, q, &mut step, 0..outer, 0..lanes) };
            }
            step.ci = a.slots().end;
            continue;
        }
        if par {
            // Every line of a sweep consumes exactly `per_line` codes, so
            // per-line code cursors are a multiplication; per-line outlier
            // cursors come from prefix-counting the `UNPREDICTABLE` codes
            // (each consumes exactly one side-channel value — on underrun a
            // worker substitutes zero and clears its flag, and the caller
            // discards the buffer).
            let mut jobs: Vec<(usize, Recover)> = Vec::with_capacity(lines);
            let mut next = step;
            sw.for_each_base(|base| {
                jobs.push((base, next));
                next.oi += codes[next.ci..next.ci + per_line]
                    .iter()
                    .filter(|&&c| c == LinearQuantizer::UNPREDICTABLE)
                    .count();
                next.ci += per_line;
            });
            let shared = SharedSlice::new(buf);
            let line_ok: Vec<bool> = jobs
                .par_iter()
                .map(|&(base, mut line)| {
                    // SAFETY: lines of one sweep write disjoint cells (odd
                    // multiples of `s` along the sweep dim, at distinct
                    // bases) and read only cells no line of the sweep
                    // writes (even multiples).
                    let b = unsafe { shared.slice() };
                    walk_line_arm(arm, b, base, sw.stride, sw.s, &g, q, &mut line);
                    line.ok
                })
                .collect();
            next.ok &= line_ok.iter().all(|&x| x);
            step = next;
        } else {
            sw.for_each_base(|base| {
                walk_line_arm(arm, buf, base, sw.stride, sw.s, &g, q, &mut step);
            });
        }
    }
    debug_assert_eq!(step.ci, codes.len(), "every code consumed exactly once");
    step.ok
}

/// The pre-overhaul per-point traversal, kept verbatim as the differential
/// oracle for the line kernels (the `bitio::reference` pattern).
pub mod reference {
    use super::{interp_levels, InterpKind, InterpStats, PredKind};
    use hqmr_grid::Dims3;

    /// Predicts the point at line position `p` (an odd multiple of `s`) from
    /// its already-known neighbours at multiples of `2s`.
    #[inline]
    fn predict(
        buf: &[f32],
        base: usize,
        stride_elems: usize,
        n: usize,
        p: usize,
        s: usize,
        interp: InterpKind,
    ) -> (f64, PredKind) {
        let at = |q: usize| buf[base + q * stride_elems] as f64;
        let prev = at(p - s);
        if p + s >= n {
            // One-sided fallback: the point "depends solely" on its
            // predecessor (the paper's Fig. 7 description of SZ3's behaviour
            // — d1 extrapolates d5, d5 extrapolates d7). This limited
            // accuracy is precisely what padding (Improvement 1) removes.
            return (prev, PredKind::Extrapolated);
        }
        let next = at(p + s);
        if interp == InterpKind::Cubic && p >= 3 * s && p + 3 * s < n {
            let pred = (-at(p - 3 * s) + 9.0 * prev + 9.0 * next - at(p + 3 * s)) / 16.0;
            return (pred, PredKind::Cubic);
        }
        ((prev + next) / 2.0, PredKind::Midpoint)
    }

    /// Runs the full coarse→fine traversal over `buf` (row-major, `dims`).
    ///
    /// For every visited point, `visit(l, idx, cur, pred, kind)` is called
    /// with the 1-based processing step `l` (1 = coarsest), the linear index,
    /// the current buffer value and the prediction; its return value is
    /// stored back into the buffer. Compression passes original data in
    /// `buf` and returns reconstructions; decompression passes zeros and
    /// returns decoded values.
    ///
    /// Returns the prediction-kind statistics.
    pub fn traverse(
        dims: Dims3,
        interp: InterpKind,
        buf: &mut [f32],
        mut visit: impl FnMut(usize, usize, f32, f64, PredKind) -> f32,
    ) -> InterpStats {
        assert_eq!(buf.len(), dims.len(), "buffer does not match {dims}");
        let mut stats = InterpStats::default();
        if buf.is_empty() {
            return stats;
        }
        let maxlevel = interp_levels(dims.max_extent());
        // Seed: the global first point, predicted from 0 ("level 0").
        buf[0] = visit(1, 0, buf[0], 0.0, PredKind::Seed);
        stats.seeds += 1;

        let strides = [dims.ny * dims.nz, dims.nz, 1usize];
        let extents = dims.as_array();

        for (step, level) in (1..=maxlevel).rev().enumerate() {
            let l_proc = step + 1;
            let s = 1usize << (level - 1);
            for d in 0..3 {
                let n_d = extents[d];
                if s >= n_d {
                    continue; // no odd multiples of s inside this extent
                }
                // Other dims: already-processed dims this level use step
                // `s`, not-yet-processed use `2s`.
                let (o1, o2) = match d {
                    0 => (1, 2),
                    1 => (0, 2),
                    _ => (0, 1),
                };
                let step1 = if o1 < d { s } else { 2 * s };
                let step2 = if o2 < d { s } else { 2 * s };
                let mut c1 = 0usize;
                while c1 < extents[o1] {
                    let mut c2 = 0usize;
                    while c2 < extents[o2] {
                        let base = c1 * strides[o1] + c2 * strides[o2];
                        let mut p = s;
                        while p < n_d {
                            let (pred, kind) = predict(buf, base, strides[d], n_d, p, s, interp);
                            let idx = base + p * strides[d];
                            buf[idx] = visit(l_proc, idx, buf[idx], pred, kind);
                            match kind {
                                PredKind::Midpoint => stats.midpoint += 1,
                                PredKind::Cubic => stats.cubic += 1,
                                PredKind::Extrapolated => stats.extrapolated += 1,
                                PredKind::Seed => unreachable!(),
                            }
                            p += 2 * s;
                        }
                        c2 += step2;
                    }
                    c1 += step1;
                }
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::reference::traverse;
    use super::*;

    fn count_visits(dims: Dims3) -> (Vec<u32>, InterpStats) {
        let mut buf = vec![0f32; dims.len()];
        let mut visits = vec![0u32; dims.len()];
        let stats = traverse(dims, InterpKind::Linear, &mut buf, |_, idx, cur, _, _| {
            visits[idx] += 1;
            cur
        });
        (visits, stats)
    }

    #[test]
    fn levels_formula() {
        assert_eq!(interp_levels(1), 0);
        assert_eq!(interp_levels(2), 1);
        assert_eq!(interp_levels(8), 3);
        assert_eq!(interp_levels(9), 4);
        assert_eq!(interp_levels(17), 5);
        assert_eq!(interp_levels(512), 9);
    }

    #[test]
    fn every_cell_visited_exactly_once() {
        for dims in [
            Dims3::cube(8),
            Dims3::cube(9),
            Dims3::new(17, 17, 64),
            Dims3::new(1, 1, 8),
            Dims3::new(5, 3, 7),
            Dims3::new(1, 1, 1),
            Dims3::new(2, 1, 1),
        ] {
            let (visits, stats) = count_visits(dims);
            assert!(visits.iter().all(|&v| v == 1), "dims {dims}");
            assert_eq!(stats.total(), dims.len(), "dims {dims}");
        }
    }

    /// The geometry-only statistics must equal the per-point tally of the
    /// reference traversal on every shape, Fig. 7's eight among them.
    #[test]
    fn geometry_stats_match_reference_tally() {
        for dims in [
            Dims3::cube(8),
            Dims3::cube(9),
            Dims3::new(17, 17, 64),
            Dims3::new(1, 1, 8),
            Dims3::new(5, 3, 7),
            Dims3::new(1, 1, 1),
            Dims3::new(2, 1, 1),
            Dims3::new(1, 31, 2),
            Dims3::new(1, 1, 9),
            Dims3::new(1, 1, 16),
            Dims3::new(1, 1, 17),
            Dims3::cube(16),
            Dims3::cube(17),
            Dims3::new(16, 16, 256),
            Dims3::new(17, 17, 256),
        ] {
            for interp in [InterpKind::Linear, InterpKind::Cubic] {
                let mut buf = vec![1f32; dims.len()];
                let ref_stats = traverse(dims, interp, &mut buf, |_, _, cur, _, _| cur);
                assert_eq!(
                    interp_stats(dims, interp),
                    ref_stats,
                    "dims {dims} {interp:?}"
                );
                let quants = [LinearQuantizer::new(1.0); 2];
                let mut buf = vec![1f32; dims.len()];
                let (mut codes, mut outliers) = (Vec::new(), Vec::new());
                compress_pass(dims, interp, &quants, &mut buf, &mut codes, &mut outliers);
                assert_eq!(codes.len(), dims.len(), "one code per point");
            }
        }
    }

    /// Fig. 7: an 8-point line suffers inner extrapolations; Fig. 8: padding
    /// to 9 points leaves only the single outer extrapolation.
    #[test]
    fn padding_eliminates_inner_extrapolation() {
        let (_, s8) = count_visits(Dims3::new(1, 1, 8));
        let (_, s9) = count_visits(Dims3::new(1, 1, 9));
        // n=8: p=4 (stride 4), p=6 (stride 2), p=7 (stride 1) extrapolate.
        assert_eq!(s8.extrapolated, 3);
        // n=9: only the outer point p=8 (stride 8) extrapolates.
        assert_eq!(s9.extrapolated, 1);
    }

    #[test]
    fn padded_merge_shape_has_fewer_extrapolations_per_point() {
        // A 16³ block vs its 17³ padded version (per Improvement 1, the gain
        // holds in 3-D too).
        let (_, raw) = count_visits(Dims3::cube(16));
        let (_, pad) = count_visits(Dims3::cube(17));
        let raw_frac = raw.extrapolated as f64 / raw.total() as f64;
        let pad_frac = pad.extrapolated as f64 / pad.total() as f64;
        assert!(
            pad_frac < raw_frac / 4.0,
            "padded {pad_frac:.4} vs raw {raw_frac:.4}"
        );
    }

    #[test]
    fn predictors_only_use_known_points() {
        // Fill with NaN; the visitor replaces each visited cell with a real
        // value. Any prediction touching an unvisited cell would go NaN.
        let dims = Dims3::new(6, 10, 33);
        let mut buf = vec![f32::NAN; dims.len()];
        traverse(dims, InterpKind::Cubic, &mut buf, |_, _, _, pred, kind| {
            if kind != PredKind::Seed {
                assert!(pred.is_finite(), "prediction consumed an unknown point");
            }
            1.0
        });
        assert!(buf.iter().all(|v| *v == 1.0));
    }

    #[test]
    fn linear_ramp_predicts_exactly_inside() {
        // On a perfectly linear field, midpoint & cubic predictions are
        // exact; passing the true values straight through must keep every
        // interior prediction error at zero.
        let dims = Dims3::new(1, 1, 9);
        let mut buf: Vec<f32> = (0..9).map(|z| z as f32).collect();
        let mut max_err = 0f64;
        traverse(
            dims,
            InterpKind::Cubic,
            &mut buf,
            |_, _, cur, pred, kind| {
                if matches!(kind, PredKind::Midpoint | PredKind::Cubic) {
                    max_err = max_err.max((pred - cur as f64).abs());
                }
                cur
            },
        );
        assert!(max_err < 1e-12, "max interior error {max_err}");
    }

    #[test]
    fn seed_gets_coarsest_level_number() {
        let dims = Dims3::cube(8);
        let mut buf = vec![0f32; dims.len()];
        let mut seed_level = 0usize;
        let mut max_level = 0usize;
        traverse(dims, InterpKind::Linear, &mut buf, |l, _, cur, _, kind| {
            if kind == PredKind::Seed {
                seed_level = l;
            }
            max_level = max_level.max(l);
            cur
        });
        assert_eq!(seed_level, 1);
        assert_eq!(max_level, interp_levels(8));
    }
}
