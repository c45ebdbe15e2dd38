//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run -p hqmr-bench --release --bin tables -- all [scale]
//! cargo run -p hqmr-bench --release --bin tables -- fig15 128
//! ```
//!
//! Reports land in `results/<id>.txt`; Fig. 14/16 additionally write PPM
//! renders next to them.

use hqmr_bench::{emit_report, experiments as ex};

/// An experiment: scale in, report text out.
type Experiment = fn(usize) -> String;

const DEFAULT_SCALE: usize = 64;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map(String::as_str).unwrap_or("all");
    let scale: usize = args
        .get(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SCALE);
    if !scale.is_power_of_two() || scale < 32 {
        eprintln!("scale must be a power of two >= 32, got {scale}");
        std::process::exit(2);
    }

    let all: &[(&str, Experiment)] = &[
        ("tab03", ex::tab03),
        ("fig04", ex::fig04),
        ("fig05", ex::fig05),
        ("fig06", ex::fig06),
        ("fig07", ex::fig07),
        ("tab01", ex::tab01),
        ("fig12", ex::fig12),
        ("tab02", ex::tab02),
        ("fig14", ex::fig14),
        ("fig15", ex::fig15),
        ("tab04", ex::tab04),
        ("tab05", ex::tab05),
        ("fig16", ex::fig16),
        ("fig17", ex::fig17),
        ("fig18", ex::fig18),
        ("tab06", ex::tab06),
        ("tab07", ex::tab07),
        ("tab08", ex::tab08),
        ("tab09", ex::tab09),
        ("ablations", ex::ablations),
        ("codecs", ex::codecs),
    ];

    let selected: Vec<_> = if which == "all" {
        all.to_vec()
    } else {
        all.iter().copied().filter(|(n, _)| *n == which).collect()
    };
    if selected.is_empty() {
        eprintln!("unknown experiment '{which}'. available:");
        eprintln!(
            "  all {}",
            all.iter().map(|(n, _)| *n).collect::<Vec<_>>().join(" ")
        );
        std::process::exit(2);
    }
    for (name, f) in selected {
        eprintln!("== {name} (scale {scale}) ==");
        let t = std::time::Instant::now();
        let report = f(scale);
        emit_report(name, &report);
        eprintln!("[{name} took {:.1}s]\n", t.elapsed().as_secs_f64());
    }
}
