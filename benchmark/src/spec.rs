//! The benchmark's contract in one place: workloads, metrics, units,
//! directions and bounds. `BENCHMARK.json` at the repository root is this
//! table serialized (`hqmr-benchmark spec` prints it; `check.sh` holds the
//! committed file to it), and the runner emits exactly these names.

use crate::json::Json;

/// The seed `run` uses when none is given, and the hold-out seed a claim
/// must also hold on (never used while a change is being written).
pub const DEFAULT_SEED: u64 = 20_240_917;
pub const HOLDOUT_SEED: u64 = 77_003;

/// How long one run measures, in seconds.
pub const RUN_SECONDS: u64 = 10;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "insitu_write",
        why: "simulation side: resample + TemporalWriter::append of 6 frames; mr, sz3 compress, store encode/parity and core publish work, serve/net/vis idle",
    },
    Workload {
        name: "cold_read",
        why: "analyst side: open + read_all + 8 ROI + 2 iso + progressive on a store file; store and sz3 decode work, no cache, serve/net bypassed",
    },
    Workload {
        name: "net_serve",
        why: "viewer side: 2 closed-loop TCP clients, Zipf ROI/level/iso mix over 2 tenants, cache a third of the data; net and serve work, decode on misses only",
    },
    Workload {
        name: "paper_workflow",
        why: "the paper's uniform pipeline on sz3, sz2 and zfp plus crossing probabilities; core, mr, sz2/zfp and vis work, store/serve/net bypassed; quality can move",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_MBps",
        unit: "MB/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s_per_GB",
        unit: "s/GB",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MB",
        better: "lower",
        bound: 0.05,
    },
    EndToEnd {
        name: "stored_bytes_per_input_byte",
        unit: "ratio",
        better: "lower",
        bound: 0.05,
    },
    EndToEnd {
        name: "psnr_db",
        unit: "dB",
        better: "higher",
        bound: 0.005,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn pl(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Per-layer metrics, all emitted by every traced run. Shares and `bench.*`
/// come from the traced workload's own spans, counts from its layer
/// boundaries (0 where the workload never crosses one), the rest from the
/// probe suite.
pub const PER_LAYER: [PerLayer; 66] = [
    // Share of the traced op's time charged to each crate.
    pl("mr.share", "ratio", "lower"),
    pl("sz3.share", "ratio", "lower"),
    pl("sz2.share", "ratio", "lower"),
    pl("zfp.share", "ratio", "lower"),
    pl("store.share", "ratio", "lower"),
    pl("serve.share", "ratio", "lower"),
    pl("net.share", "ratio", "lower"),
    pl("core.share", "ratio", "lower"),
    pl("vis.share", "ratio", "lower"),
    // Whether the other numbers can be trusted.
    pl("bench.layer_sum_over_wall", "ratio", "higher"),
    pl("bench.trace_overhead_frac", "ratio", "lower"),
    pl("bench.traced_op_ms_p50", "ms", "lower"),
    pl("bench.op_ms_tail", "ms", "lower"),
    pl("bench.op_tail_pct", "%", "higher"),
    pl("bench.calib_Melem_per_s", "1/s", "higher"),
    pl("bench.calib_spread", "ratio", "lower"),
    // Counts at layer boundaries.
    pl("store.chunks_decoded", "count", "lower"),
    pl("store.bytes_decoded", "count", "lower"),
    pl("serve.hit_ratio", "ratio", "higher"),
    pl("serve.misses", "count", "lower"),
    pl("serve.evictions", "count", "lower"),
    pl("serve.shared_joins", "count", "higher"),
    pl("net.busy_rejections", "count", "lower"),
    // Probes.
    pl("mr.to_adaptive_ms", "ms", "lower"),
    pl("mr.resample_like_ms", "ms", "lower"),
    pl("mr.prepare_ms", "ms", "lower"),
    pl("mr.reconstruct_ms", "ms", "lower"),
    pl("codec.huffman_encode_MBps", "MB/s", "higher"),
    pl("codec.huffman_decode_MBps", "MB/s", "higher"),
    pl("codec.huffman_decode_small_MBps", "MB/s", "higher"),
    pl("codec.crc32_MBps", "MB/s", "higher"),
    pl("sz3.compress_MBps", "MB/s", "higher"),
    pl("sz3.decompress_MBps", "MB/s", "higher"),
    pl("sz3.chunk_decode_us_p50", "us", "lower"),
    pl("sz2.compress_MBps", "MB/s", "higher"),
    pl("sz2.decompress_MBps", "MB/s", "higher"),
    pl("zfp.compress_MBps", "MB/s", "higher"),
    pl("zfp.decompress_MBps", "MB/s", "higher"),
    pl("store.temporal_encode_ms", "ms", "lower"),
    pl("store.parity_ms", "ms", "lower"),
    pl("store.open_ms", "ms", "lower"),
    pl("store.fetch_MBps", "MB/s", "higher"),
    pl("store.decode_chunk_us_p50", "us", "lower"),
    pl("store.assemble_ms", "ms", "lower"),
    pl("store.read_all_ms", "ms", "lower"),
    pl("store.read_roi_ms", "ms", "lower"),
    pl("store.read_iso_ms", "ms", "lower"),
    pl("store.progressive_ms", "ms", "lower"),
    pl("store.scrub_MBps", "MB/s", "higher"),
    pl("serve.batch_hit_us_p50", "us", "lower"),
    pl("serve.batch_miss_us_p50", "us", "lower"),
    pl("serve.plan_us_p50", "us", "lower"),
    pl("net.request_encode_us_p50", "us", "lower"),
    pl("net.response_encode_MBps", "MB/s", "higher"),
    pl("net.response_decode_MBps", "MB/s", "higher"),
    pl("net.frame_write_MBps", "MB/s", "higher"),
    pl("net.frame_read_MBps", "MB/s", "higher"),
    pl("net.wire_overhead_us_p50", "us", "lower"),
    pl("core.compress_mr_MBps", "MB/s", "higher"),
    pl("core.decompress_mr_MBps", "MB/s", "higher"),
    pl("core.select_intensity_ms", "ms", "lower"),
    pl("core.bezier_pass_ms", "ms", "lower"),
    pl("core.uncertainty_ms", "ms", "lower"),
    pl("core.publish_ms", "ms", "lower"),
    pl("vis.pmc_ms", "ms", "lower"),
    pl("vis.isosurface_ms", "ms", "lower"),
];

/// The crates a traced op's time is shared out among, each with the
/// per-layer metric its share is reported as.
pub const LAYER_SHARES: [(&str, &str); 9] = [
    ("mr", "mr.share"),
    ("sz3", "sz3.share"),
    ("sz2", "sz2.share"),
    ("zfp", "zfp.share"),
    ("store", "store.share"),
    ("serve", "serve.share"),
    ("net", "net.share"),
    ("core", "core.share"),
    ("vis", "vis.share"),
];

/// `BENCHMARK.json`, from the tables above.
pub fn benchmark_json() -> String {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::Str(s.to_string())).collect());
    let s = |v: &str| Json::Str(v.to_string());
    let doc = [
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];
    // One top-level key per line, list items one per line: diffs of the
    // committed file stay readable.
    let mut out = String::from("{\n");
    for (i, (key, value)) in doc.iter().enumerate() {
        let sep = if i + 1 < doc.len() { "," } else { "" };
        match value {
            Json::Arr(items) if matches!(items.first(), Some(Json::Obj(_))) => {
                out.push_str(&format!("  \"{key}\": [\n"));
                for (j, item) in items.iter().enumerate() {
                    let isep = if j + 1 < items.len() { "," } else { "" };
                    out.push_str(&format!("    {}{isep}\n", item.to_line()));
                }
                out.push_str(&format!("  ]{sep}\n"));
            }
            other => out.push_str(&format!("  \"{key}\": {}{sep}\n", other.to_line())),
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn name_ok(n: &str) -> bool {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn the_contract_holds() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END
            .iter()
            .all(|m| unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert_eq!(
            WORKLOADS.map(|w| w.name),
            crate::workloads::NAMES,
            "spec and runner disagree on the workloads"
        );
    }

    #[test]
    fn benchmark_json_parses_and_has_exactly_the_six_keys() {
        let text = benchmark_json();
        assert!(text.len() < 64 << 10);
        let doc = json::parse(&text).unwrap();
        let Json::Obj(kv) = &doc else { panic!() };
        let keys: Vec<&str> = kv.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let Some(Json::Arr(per_layer)) = doc.get("per_layer") else {
            panic!()
        };
        assert_eq!(per_layer.len(), PER_LAYER.len());
    }
}
