//! Experiment harness regenerating every table and figure of §IV.
//!
//! `cargo run -p hqmr-bench --release --bin tables -- <experiment> [scale]`
//! runs one experiment (or `all`) and writes its report to
//! `results/<experiment>.txt`. The default scale keeps every experiment
//! within seconds on a laptop; pass a larger scale (e.g. `128`) for the
//! numbers recorded in EXPERIMENTS.md.
//!
//! The absolute values differ from the paper (synthetic proxies, different
//! machine); the *shape* — who wins, by what factor, where crossovers sit —
//! is the reproduction target.

pub mod datasets;
pub mod experiments;
pub mod runner;

use std::io::Write;
use std::path::PathBuf;

/// Writes a report to `results/<name>.txt` (creating the directory) and
/// echoes it to stdout.
pub fn emit_report(name: &str, body: &str) {
    println!("{body}");
    let dir = results_dir();
    std::fs::create_dir_all(&dir).ok();
    let path = dir.join(format!("{name}.txt"));
    match std::fs::File::create(&path) {
        Ok(mut f) => {
            let _ = f.write_all(body.as_bytes());
            eprintln!("[saved {}]", path.display());
        }
        Err(e) => eprintln!("[could not save {}: {e}]", path.display()),
    }
}

/// The `results/` directory at the workspace root (falls back to CWD).
pub fn results_dir() -> PathBuf {
    let here = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    here.ancestors()
        .nth(2)
        .map(|p| p.join("results"))
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Writes a committed JSON baseline (`BENCH_codecs.json`) at the workspace
/// root, appending the outcome to the experiment's report body.
pub fn write_root_json(name: &str, json: &str, report: &mut String) {
    use std::fmt::Write as _;
    let Some(root) = results_dir().parent().map(std::path::Path::to_path_buf) else {
        return;
    };
    let path = root.join(name);
    match std::fs::write(&path, json) {
        Ok(()) => writeln!(report, "wrote {}", path.display()).unwrap(),
        Err(e) => writeln!(report, "could not write {}: {e}", path.display()).unwrap(),
    }
}
