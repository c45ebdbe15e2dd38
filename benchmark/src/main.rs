//! The repo benchmark: four closed-loop workloads, robust medians, a
//! per-layer traced run. See `README.md` beside this package.
//!
//! ```text
//! hqmr-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, one JSON line
//! hqmr-benchmark run [--seed <n> | --holdout] [--seconds <s>] [--trace] [--smoke] [--out <dir>]   all four, each in a child process
//! hqmr-benchmark compare --a <files|dirs>… --b <files|dirs>…
//! hqmr-benchmark spec                                                        prints BENCHMARK.json
//! ```

mod compare;
mod gen;
mod json;
mod probes;
mod spec;
mod stats;
mod sys;
mod trace;
mod workloads;

use json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Ctx, Recorder, Round, Sizes, TracedOp};

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

/// Untimed rounds before measuring: page faults, the `simd_level()` probe,
/// allocator growth, and the fully checked ops later ops are compared to.
const WARMUP_ROUNDS: usize = 2;
/// Calibration spread (interquartile distance of the loop's CPU rate over
/// its median) above which a run is flagged noisy.
const NOISY_SPREAD: f64 = 0.15;
/// Set-up repeats until this much time has gone into it (and at least
/// `Sizes::setup_reps` times, at most `MAX_SETUP_REPS`).
const SETUP_SECONDS: f64 = 1.5;
const MAX_SETUP_REPS: usize = 40;
/// Share of a traced run's `--seconds` spent on the workload's own ops;
/// the probes get the rest.
const TRACED_OPS_SHARE: f64 = 0.5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: hqmr-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out <dir>]\n\
         \x20      hqmr-benchmark run [--seed <n> | --holdout] [--seconds <s>] [--trace] [--smoke] [--out <dir>]\n\
         \x20      hqmr-benchmark compare --a <files|dirs>... --b <files|dirs>...\n\
         \x20      hqmr-benchmark spec",
        workloads::NAMES.join("|")
    );
    ExitCode::from(2)
}

/// Splits `--key value` pairs and bare flags.
fn parse_flags(args: &[String], bare: &[&str]) -> Option<BTreeMap<String, String>> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let key = a.strip_prefix("--")?;
        if bare.contains(&key) {
            out.insert(key.to_string(), "1".to_string());
        } else {
            out.insert(key.to_string(), it.next()?.clone());
        }
    }
    Some(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("spec") => {
            print!("{}", spec::benchmark_json());
            ExitCode::SUCCESS
        }
        Some("compare") => compare_cmd(&argv[1..]),
        Some("run") => run_all(&argv[1..]),
        Some(_) => run_one_cmd(&argv),
        None => usage(),
    }
}

fn compare_cmd(args: &[String]) -> ExitCode {
    let (mut a, mut b, mut side) = (Vec::new(), Vec::new(), None);
    for arg in args {
        match arg.as_str() {
            "--a" => side = Some(false),
            "--b" => side = Some(true),
            path => match side {
                Some(false) => a.push(PathBuf::from(path)),
                Some(true) => b.push(PathBuf::from(path)),
                None => return usage(),
            },
        }
    }
    match compare::run(&a, &b) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_one_cmd(argv: &[String]) -> ExitCode {
    let Some(flags) = parse_flags(argv, &["smoke"]) else {
        return usage();
    };
    let parsed = (|| {
        Some(Args {
            workload: flags.get("workload")?.clone(),
            seed: flags.get("seed")?.parse().ok()?,
            seconds: flags.get("seconds")?.parse().ok()?,
            trace: match flags.get("trace")?.as_str() {
                "0" => false,
                "1" => true,
                _ => return None,
            },
            smoke: flags.contains_key("smoke"),
            out: PathBuf::from(flags.get("out").map_or("benchmark/out", String::as_str)),
        })
    })();
    let Some(args) = parsed else {
        return usage();
    };
    if !workloads::NAMES.contains(&args.workload.as_str())
        || args.seconds.is_nan()
        || args.seconds <= 0.0
    {
        return usage();
    }
    match run_one(&args) {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

/// Cores, SIMD level, toolchain and revision: what a number depends on
/// besides the code.
fn machine_header(args: &Args) -> Json {
    let git_rev = std::fs::read_to_string(".git/HEAD")
        .ok()
        .map(|head| {
            let head = head.trim().to_string();
            match head.strip_prefix("ref: ") {
                Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
                    .map_or_else(|_| r.to_string(), |s| s.trim().to_string()),
                None => head,
            }
        })
        .unwrap_or_else(|| "unknown".into());
    Json::obj([
        (
            "cores",
            Json::Num(std::thread::available_parallelism().map_or(1, usize::from) as f64),
        ),
        (
            "simd_level",
            Json::Str(format!("{:?}", hqmr_codec::kernels::simd_level())),
        ),
        (
            "tile_parallel",
            Json::Bool(hqmr_codec::kernels::tile_parallel()),
        ),
        ("rustc", Json::Str(env!("BENCH_RUSTC_VERSION").into())),
        ("git_rev", Json::Str(git_rev)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("smoke", Json::Bool(args.smoke)),
    ])
}

/// Runs one workload in this process and prints its result line. `Ok(true)`
/// when every op passed and every declared metric was produced.
fn run_one(args: &Args) -> Result<bool, String> {
    let dir = args
        .out
        .join(format!("work-{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let result = measure(args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let (line, full) = result?;
    let path = args.out.join(format!(
        "result-{}-t{}.json",
        args.workload,
        u8::from(args.trace)
    ));
    std::fs::write(&path, full.to_line() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    let clean = line.get("correct") == Some(&Json::Bool(true));
    println!("{}", line.to_line());
    Ok(clean)
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([
        // `+ 0.0`: an empty sum is -0.0, which would print as "-0".
        ("value", Json::Num(value + 0.0)),
        ("unit", Json::Str(unit.into())),
    ])
}

/// Wall time on a shared two-core box is the program's speed times the
/// machine's mood: the same binary runs tens of percent slower while a
/// neighbour sits on the sibling hyperthread. The calibration loop is
/// therefore sampled before and after every set-up and every round, and a
/// phase's clock is scaled by the median rate of its samples relative to a
/// fixed nominal rate: a *calibrated* time is what the interval would have
/// taken on the nominal machine. (One sample is too noisy to scale one
/// round by; a phase has dozens.) Raw times are kept in the result file.
struct CalibratedClock {
    calibrator: sys::Calibrator,
    /// Every sample of the run, in order.
    samples: Vec<sys::CalibSample>,
    /// Where the current phase's samples start.
    phase_start: usize,
}

impl CalibratedClock {
    fn new() -> Self {
        CalibratedClock {
            calibrator: sys::Calibrator::new(),
            samples: Vec::new(),
            phase_start: 0,
        }
    }

    fn sample(&mut self) {
        let rate = self.calibrator.sample();
        self.samples.push(rate);
    }

    /// Starts a phase with a fresh sample.
    fn begin_phase(&mut self) {
        self.phase_start = self.samples.len();
        self.sample();
    }

    /// The factors the current phase's measured wall-clock and CPU times
    /// are scaled by.
    fn phase_scale(&self) -> (f64, f64) {
        let phase = &self.samples[self.phase_start..];
        let wall: Vec<f64> = phase.iter().map(|s| s.wall_rate).collect();
        let cpu: Vec<f64> = phase.iter().map(|s| s.cpu_rate).collect();
        (
            stats::median(&wall) / sys::CALIB_NOMINAL_WALL,
            stats::median(&cpu) / sys::CALIB_NOMINAL_CPU,
        )
    }
}

/// The phases of one run. Returns the contract's result line and the full
/// result document (header, samples, waterfall) for `benchmark/out/`.
fn measure(args: &Args, dir: &Path) -> Result<(Json, Json), String> {
    let sizes = if args.smoke {
        Sizes::smoke()
    } else {
        Sizes::full()
    };
    let ctx = Ctx {
        seed: args.seed,
        sizes,
        traced: args.trace,
        dir: dir.to_path_buf(),
    };
    if args.trace {
        trace::enable();
    }
    let mut clock = CalibratedClock::new();

    // Inputs from the seed (not part of `setup_s`: the program under test
    // does not synthesise its own data).
    let (w, synth_s) = workloads::timed(|| workloads::build(&args.workload, &ctx));
    let mut w = w.ok_or("unknown workload")?;

    // Set-up, several times over; the last one's state is used. Cheap
    // set-ups repeat more often, so that their median rests on enough
    // samples to repeat.
    let mut setups_raw = Vec::new();
    let setup_t0 = Instant::now();
    clock.begin_phase();
    while setups_raw.len() < sizes.setup_reps
        || (!args.smoke
            && setups_raw.len() < MAX_SETUP_REPS
            && setup_t0.elapsed().as_secs_f64() < SETUP_SECONDS)
    {
        let (res, s) = workloads::timed(|| w.setup());
        res.map_err(|e| format!("set-up: {e}"))?;
        setups_raw.push(s);
        clock.sample();
    }
    let setup_s = stats::median(&setups_raw) * clock.phase_scale().0;
    w.prepare_checks().map_err(|e| format!("oracle: {e}"))?;

    let mut rec = Recorder::default();
    for _ in 0..WARMUP_ROUNDS {
        trace::paused(|| w.round(&mut rec, true));
    }
    w.begin_timed();
    rec.keep = true;

    let ops_seconds = if args.trace {
        args.seconds * TRACED_OPS_SHARE
    } else {
        args.seconds
    };
    let mut rounds: Vec<Round> = Vec::new();
    let mut traced_ops: Vec<TracedOp> = Vec::new();
    let mut cpu_raw_s = 0.0;
    let t0 = Instant::now();
    clock.begin_phase();
    loop {
        let cpu0 = sys::process_cpu_seconds();
        let round = if args.trace {
            w.traced_round(&mut rec, &mut traced_ops)
        } else {
            w.round(&mut rec, false)
        };
        cpu_raw_s += sys::process_cpu_seconds() - cpu0;
        rounds.push(round);
        clock.sample();
        let enough = rounds.len() >= sizes.min_rounds;
        if enough && (args.smoke || t0.elapsed().as_secs_f64() >= ops_seconds) {
            break;
        }
    }
    let timed_phase_s = t0.elapsed().as_secs_f64();
    let (scale, cpu_scale) = clock.phase_scale();
    let peak_heap = sys::peak_heap_bytes();
    let quality = w.quality(&mut rec);

    let field_bytes: f64 = rounds.iter().map(|r| r.field_bytes).sum();
    let round_mbps_raw: Vec<f64> = rounds
        .iter()
        .filter(|r| r.wall_s > 0.0)
        .map(|r| r.field_bytes / 1e6 / r.wall_s)
        .collect();
    let calib: Vec<f64> = clock.samples.iter().map(|s| s.wall_rate).collect();
    let calib_cpu: Vec<f64> = clock.samples.iter().map(|s| s.cpu_rate).collect();
    let calib_med = stats::median(&calib);
    // The wall rate is two-valued even on a quiet box (the kernel may start
    // both of a fork-join's threads on one core), so noise is judged on the
    // CPU rate, which only moves when instructions get slower.
    let calib_spread = stats::iqr_over_median(&calib_cpu).unwrap_or(0.0);
    let noisy = calib_spread > NOISY_SPREAD;

    let mut metrics: Vec<(String, Json)> = Vec::new();
    let mut waterfall = Vec::new();
    if args.trace {
        let mut values: BTreeMap<&str, f64> = BTreeMap::new();
        let spans = trace::snapshot();
        waterfall = layer_metrics(&spans, &traced_ops, &rec, &mut values);
        let trace_path = args.out.join(format!("trace-{}.jsonl", args.workload));
        trace::write_jsonl(&trace_path, &spans)
            .map_err(|e| format!("{}: {e}", trace_path.display()))?;
        values.insert("bench.calib_Melem_per_s", calib_med);
        values.insert("bench.calib_spread", calib_spread);
        for (name, v) in w.counters() {
            values.insert(name, v);
        }
        let probe_budget = if args.smoke {
            0.0
        } else {
            (args.seconds - timed_phase_s).max(args.seconds * 0.25)
        };
        for p in probes::run(&ctx, probe_budget) {
            values.insert(p.name, p.value);
        }
        print_waterfall(&args.workload, &waterfall);
        for m in &spec::PER_LAYER {
            // Counts a workload never produces are 0 by definition; a
            // missing time or rate is a broken probe and fails the run.
            let counted = matches!(m.unit, "count" | "ratio" | "%");
            match values.get(m.name) {
                Some(&v) => metrics.push((m.name.into(), metric(v, m.unit))),
                None if counted => metrics.push((m.name.into(), metric(0.0, m.unit))),
                None => rec.check(Err(format!("per-layer metric {} was not produced", m.name))),
            }
        }
    } else {
        let gb = field_bytes / 1e9;
        let value = |name: &str| match name {
            "setup_s" => setup_s,
            "throughput_MBps" => stats::median(&round_mbps_raw) / scale,
            "op_ms_p50" => stats::median(&rec.op_ms) * scale,
            "cpu_s_per_GB" => cpu_raw_s / gb * cpu_scale,
            "peak_heap_mb" => peak_heap as f64 / 1e6,
            "stored_bytes_per_input_byte" => quality.stored_bytes_per_input_byte,
            "psnr_db" => quality.psnr_db,
            other => unreachable!("end-to-end metric {other} has no definition"),
        };
        for m in &spec::END_TO_END {
            metrics.push((m.name.into(), metric(value(m.name), m.unit)));
        }
    }
    w.teardown();

    let tail = stats::highest_supported_percentile(&rec.op_ms);
    eprintln!(
        "{}: seed {} | {} rounds, {} timed ops in {:.1}s | failed_ops/attempted_ops {}/{} | synth {:.2}s, set-up median {:.3}s of {} | calib {:.0} Melem/s (nominal {:.0}) spread {:.3}{}",
        args.workload,
        args.seed,
        rounds.len(),
        rec.op_ms.len(),
        timed_phase_s,
        rec.failed,
        rec.attempted,
        synth_s,
        setup_s,
        setups_raw.len(),
        calib_med,
        sys::CALIB_NOMINAL_WALL,
        calib_spread,
        if noisy { " NOISY" } else { "" },
    );
    if let Some((p, v)) = tail {
        eprintln!(
            "{}: op latency p50 {:.3} ms, p{p} {v:.3} ms over {} ops (tail is ungated)",
            args.workload,
            stats::median(&rec.op_ms),
            rec.op_ms.len()
        );
    }
    for f in &rec.failures {
        eprintln!("{}: FAILED {f}", args.workload);
    }

    let line = Json::obj([
        ("correct", Json::Bool(rec.failed == 0)),
        ("attempted", Json::Num(rec.attempted.max(1) as f64)),
        ("failed", Json::Num(rec.failed as f64)),
        ("metrics", Json::Obj(metrics.clone())),
    ]);
    let nums = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
    let mut full = vec![
        ("workload", Json::Str(args.workload.clone())),
        ("trace", Json::Bool(args.trace)),
        ("machine", machine_header(args)),
        ("noisy", Json::Bool(noisy)),
        ("correct", Json::Bool(rec.failed == 0)),
        ("attempted", Json::Num(rec.attempted as f64)),
        ("failed", Json::Num(rec.failed as f64)),
        (
            "failures",
            Json::Arr(rec.failures.iter().cloned().map(Json::Str).collect()),
        ),
        ("metrics", Json::Obj(metrics)),
        ("rounds", Json::Num(rounds.len() as f64)),
        ("timed_ops", Json::Num(rec.op_ms.len() as f64)),
        ("timed_phase_s", Json::Num(timed_phase_s)),
        ("input_synth_s", Json::Num(synth_s)),
        ("calib_Melem_per_s", nums(&calib)),
        ("calib_Melem_per_cpu_s", nums(&calib_cpu)),
        (
            "raw",
            Json::obj([
                ("setup_samples_s", nums(&setups_raw)),
                ("round_MBps", nums(&round_mbps_raw)),
                ("op_ms_p50", Json::Num(stats::median(&rec.op_ms))),
                ("timed_phase_scale", Json::Num(scale)),
                ("timed_phase_cpu_scale", Json::Num(cpu_scale)),
                ("cpu_s_per_GB", Json::Num(cpu_raw_s / (field_bytes / 1e9))),
            ]),
        ),
    ];
    if let Some((p, v)) = tail {
        full.push((
            "op_ms_tail",
            Json::obj([("percentile", Json::Num(p)), ("value", Json::Num(v))]),
        ));
    }
    if args.trace {
        let rows = waterfall.iter().map(|(path, ms, share)| {
            Json::obj([
                ("path", Json::Str(path.clone())),
                ("self_ms_per_op", Json::Num(*ms)),
                ("share", Json::Num(*share)),
            ])
        });
        full.push(("waterfall", Json::Arr(rows.collect())));
    }
    Ok((line, Json::obj(full)))
}

/// Turns the traced ops' spans into the span-derived per-layer metrics and
/// the waterfall: `(span path, self ms per op, share of the op)`.
fn layer_metrics(
    spans: &[trace::Span],
    ops: &[TracedOp],
    rec: &Recorder,
    values: &mut BTreeMap<&'static str, f64>,
) -> Vec<(String, f64, f64)> {
    let mut by_op: BTreeMap<u32, Vec<&trace::Span>> = BTreeMap::new();
    for s in spans {
        by_op.entry(s.op_id).or_default().push(s);
    }
    let mut by_path: BTreeMap<String, f64> = BTreeMap::new();
    let (mut sums, mut ratios) = (Vec::new(), Vec::new());
    for op in ops {
        let Some(mine) = by_op.get(&op.op_id) else {
            continue;
        };
        let selfs = trace::self_times(mine);
        let sum: f64 = selfs.values().sum();
        sums.push(sum);
        if op.one_call_s > 0.0 {
            ratios.push(sum / op.one_call_s);
        }
        for (path, s) in selfs {
            *by_path.entry(path).or_default() += s;
        }
    }
    let total: f64 = by_path.values().sum();
    let n = ops.len().max(1) as f64;
    for (layer, name) in spec::LAYER_SHARES {
        let t: f64 = by_path
            .iter()
            .filter(|(p, _)| trace::layer_of(p) == layer)
            .map(|(_, s)| s)
            .sum();
        values.insert(name, if total > 0.0 { t / total } else { 0.0 });
    }
    let one_call: Vec<f64> = ops.iter().map(|o| o.one_call_s).collect();
    let base = stats::median(&one_call);
    values.insert("bench.layer_sum_over_wall", stats::median(&ratios));
    values.insert(
        "bench.trace_overhead_frac",
        if base > 0.0 {
            stats::median(&sums) / base - 1.0
        } else {
            0.0
        },
    );
    values.insert("bench.traced_op_ms_p50", base * 1e3);
    let (pct, tail) = stats::highest_supported_percentile(&rec.op_ms)
        .unwrap_or((50.0, stats::median(&rec.op_ms)));
    values.insert("bench.op_ms_tail", tail);
    values.insert("bench.op_tail_pct", pct);
    by_path
        .into_iter()
        .map(|(path, s)| (path, s / n * 1e3, if total > 0.0 { s / total } else { 0.0 }))
        .collect()
}

fn print_waterfall(workload: &str, rows: &[(String, f64, f64)]) {
    eprintln!("{workload}: waterfall of the traced op (self time per op, share of the op)");
    for (path, ms, share) in rows {
        let depth = path.matches('/').count();
        let leaf = path.rsplit('/').next().unwrap_or(path);
        eprintln!(
            "  {:indent$}{leaf:<w$} {ms:>10.3} ms {:>6.1}%",
            "",
            share * 100.0,
            indent = depth * 2,
            w = 34 - depth * 2
        );
    }
}

/// `run`: every workload in a fresh child process, every metric printed by
/// name with its unit, non-zero exit on any failed op.
fn run_all(args: &[String]) -> ExitCode {
    let Some(flags) = parse_flags(args, &["smoke", "trace", "holdout"]) else {
        return usage();
    };
    let smoke = flags.contains_key("smoke");
    let trace = flags.contains_key("trace");
    let default_seed = if flags.contains_key("holdout") {
        spec::HOLDOUT_SEED
    } else {
        spec::DEFAULT_SEED
    };
    let seed = flags
        .get("seed")
        .map_or(default_seed.to_string(), String::clone);
    let seconds = flags
        .get("seconds")
        .map_or(spec::RUN_SECONDS.to_string(), String::clone);
    let out = flags
        .get("out")
        .map_or("benchmark/out".to_string(), String::clone);
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot find my own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut clean = true;
    for name in workloads::NAMES {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &seed, "--seconds", &seconds])
            .args(["--trace", if trace { "1" } else { "0" }, "--out", &out])
            .stdout(std::process::Stdio::null());
        if smoke {
            cmd.arg("--smoke");
        }
        match cmd.status() {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{name}: exited with {s}");
                clean = false;
            }
            Err(e) => {
                eprintln!("{name}: {e}");
                clean = false;
            }
        }
        let path = Path::new(&out).join(format!("result-{name}-t{}.json", u8::from(trace)));
        match compare::read_result(&path) {
            Ok((_, metrics)) => {
                for (metric, value, unit) in metrics {
                    println!("{name}/{metric} = {value} {unit}");
                }
            }
            Err(e) => {
                eprintln!("{name}: {e}");
                clean = false;
            }
        }
    }
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
