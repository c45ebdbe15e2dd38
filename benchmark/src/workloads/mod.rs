//! The four workloads and what they share: sizes, per-op bookkeeping and
//! the checks every op goes through.
//!
//! All four use `rel_eb = 1e-3`, `RoiConfig::paper_default()` (16³ blocks,
//! top-50 % ROI) and the paper's "ours" arrangement; sizes, op scripts and
//! counts are fixed here and identical on both sides of an A/B.

pub mod cold_read;
pub mod insitu_write;
pub mod net_serve;
pub mod paper_workflow;

use hqmr_grid::Dims3;
use hqmr_mr::MultiResData;
use std::path::PathBuf;
use std::time::Instant;

/// Error bound relative to the value range, as in the paper's evaluation.
pub const REL_EB: f64 = 1e-3;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["insitu_write", "cold_read", "net_serve", "paper_workflow"];

/// Dataset extents and op counts. `full` is what every reported number is
/// measured at; `smoke` exists so `check.sh` can exercise every code path
/// in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `cold_read`'s store and `net_serve`'s sz3 tenant (67 MB of cells).
    pub big: Dims3,
    /// `net_serve`'s zfp tenant, `paper_workflow`'s field and the probes'
    /// dataset (8.4 MB of cells).
    pub small: Dims3,
    /// One `insitu_write` frame (16.8 MB of cells).
    pub frame: Dims3,
    /// Side of an ROI query box.
    pub roi_side: usize,
    /// `net_serve` requests per client per round.
    pub net_requests: usize,
    /// Timed rounds run at least this often, however short `--seconds` is.
    pub min_rounds: usize,
    /// Repeats of the set-up phase; `setup_s` is their median.
    pub setup_reps: usize,
}

impl Sizes {
    pub fn full() -> Self {
        Sizes {
            big: Dims3::new(128, 128, 1024),
            small: Dims3::new(64, 64, 512),
            frame: Dims3::new(128, 128, 256),
            roi_side: 64,
            net_requests: 100,
            min_rounds: 5,
            setup_reps: 5,
        }
    }

    pub fn smoke() -> Self {
        Sizes {
            big: Dims3::new(32, 32, 256),
            small: Dims3::new(32, 32, 128),
            frame: Dims3::new(32, 32, 128),
            roi_side: 16,
            net_requests: 40,
            min_rounds: 3,
            setup_reps: 2,
        }
    }
}

/// Where a run may write: a directory of its own under `benchmark/out/`.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub sizes: Sizes,
    pub traced: bool,
    /// Scratch directory, emptied and recreated by the runner.
    pub dir: PathBuf,
}

/// Attempted/failed ops and the latency of every timed op.
#[derive(Debug, Default)]
pub struct Recorder {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the report.
    pub failures: Vec<String>,
    /// Latency of each timed op, in milliseconds. Warm-up ops are counted
    /// and checked but not kept here.
    pub op_ms: Vec<f64>,
    /// Whether latencies are being kept (off during warm-up).
    pub keep: bool,
}

impl Recorder {
    /// Books one op: its latency and whether every check on it passed.
    pub fn op(&mut self, seconds: f64, outcome: Result<(), String>) {
        self.attempted += 1;
        if self.keep {
            self.op_ms.push(seconds * 1e3);
        }
        if let Err(why) = outcome {
            self.fail(why);
        }
    }

    /// Books a failed check that belongs to no single op's latency (e.g. a
    /// whole-round read-back).
    pub fn check(&mut self, outcome: Result<(), String>) {
        if let Err(why) = outcome {
            self.attempted += 1;
            self.fail(why);
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    pub fn absorb(&mut self, other: Recorder) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.op_ms.extend(other.op_ms);
        for f in other.failures {
            if self.failures.len() < 8 {
                self.failures.push(f);
            }
        }
    }
}

/// What one round did.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    /// Wall time the round's ops took, checks excluded.
    pub wall_s: f64,
    /// Uncompressed `f32` field bytes the round ingested or delivered.
    pub field_bytes: f64,
}

/// The two metrics that do not depend on the clock.
#[derive(Debug, Clone, Copy)]
pub struct Quality {
    /// Compressed bytes written or served per uniform input byte.
    pub stored_bytes_per_input_byte: f64,
    /// PSNR of the reconstruction against the original uniform field.
    pub psnr_db: f64,
}

/// One traced op: the library's one-call form next to its replay.
#[derive(Debug, Clone, Copy)]
pub struct TracedOp {
    pub op_id: u32,
    /// Wall time of the op as the untraced run performs it.
    pub one_call_s: f64,
}

/// One of the four workloads. The runner owns the phases (set-up repeats,
/// warm-up, timed rounds, quality); a workload owns its inputs and state.
pub trait Workload {
    /// Program-side set-up from inputs already in memory: ROI extraction,
    /// store writes, opening readers, spawning servers. Called
    /// `setup_reps` times; each call replaces the previous state.
    fn setup(&mut self) -> Result<(), String>;

    /// Work the checks need but a user of the stack would not do (oracle
    /// tables); runs once after the last set-up, outside `setup_s`.
    fn prepare_checks(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Called once between warm-up and the first timed round.
    fn begin_timed(&mut self) {}

    /// One round of the fixed op script. With `full_check` every output is
    /// verified against an independent path (warm-up); without, against the
    /// digests the warm-up recorded plus the cheap per-op checks.
    fn round(&mut self, rec: &mut Recorder, full_check: bool) -> Round;

    /// One round in the traced run: each op once as the untraced run does
    /// it, then replayed as explicit public calls under spans, the two
    /// results compared byte for byte.
    fn traced_round(&mut self, rec: &mut Recorder, ops: &mut Vec<TracedOp>) -> Round;

    /// Ratio and PSNR, measured after the timed phase.
    fn quality(&mut self, rec: &mut Recorder) -> Quality;

    /// Counts the workload keeps at layer boundaries (traced run only);
    /// names are per-layer metric names.
    fn counters(&mut self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    /// Stops servers and removes files.
    fn teardown(&mut self) {}
}

/// Builds the named workload's inputs from the seed.
pub fn build(name: &str, ctx: &Ctx) -> Option<Box<dyn Workload>> {
    Some(match name {
        "insitu_write" => Box::new(insitu_write::InsituWrite::new(ctx)),
        "cold_read" => Box::new(cold_read::ColdRead::new(ctx)),
        "net_serve" => Box::new(net_serve::NetServe::new(ctx)),
        "paper_workflow" => Box::new(paper_workflow::PaperWorkflow::new(ctx)),
        _ => return None,
    })
}

/// Times `f`.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Order-sensitive 64-bit digest of `f32` data by bit pattern (FNV-1a over
/// words): cheap enough to run on every op's output, and equal digests on
/// two paths mean byte-identical results.
pub fn digest(data: &[f32]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for v in data {
        h = (h ^ v.to_bits() as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Digest of a whole multi-resolution dataset: structure and values.
pub fn digest_mr(mr: &MultiResData) -> u64 {
    let mut h = 0u64;
    for lvl in &mr.levels {
        for b in &lvl.blocks {
            let o = b.origin;
            h = h
                .rotate_left(7)
                .wrapping_add(digest(&b.data) ^ ((o[0] << 40 | o[1] << 20 | o[2]) as u64));
        }
    }
    h
}

/// Largest absolute difference between the stored cells of two structurally
/// identical datasets; `None` if the structures differ.
pub fn stored_max_err(a: &MultiResData, b: &MultiResData) -> Option<f64> {
    if a.levels.len() != b.levels.len() {
        return None;
    }
    let mut worst = 0.0f64;
    for (la, lb) in a.levels.iter().zip(&b.levels) {
        if la.blocks.len() != lb.blocks.len() {
            return None;
        }
        for (ba, bb) in la.blocks.iter().zip(&lb.blocks) {
            if ba.origin != bb.origin || ba.data.len() != bb.data.len() {
                return None;
            }
            for (&x, &y) in ba.data.iter().zip(&bb.data) {
                worst = worst.max((x as f64 - y as f64).abs());
            }
        }
    }
    Some(worst)
}

/// The paper's contract: every stored cell within `eb` of the original
/// (with the float slack the repo's own benches allow).
pub fn check_bound(orig: &MultiResData, back: &MultiResData, eb: f64) -> Result<(), String> {
    match stored_max_err(orig, back) {
        None => Err("decoded structure differs from the original".into()),
        Some(err) if err > eb * (1.0 + 1e-6) => Err(format!("max_abs_err {err:e} > eb {eb:e}")),
        Some(_) => Ok(()),
    }
}

/// `Ok` when the two digests agree.
pub fn same(what: &str, got: u64, want: u64) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: digest {got:016x} != {want:016x}"))
    }
}
