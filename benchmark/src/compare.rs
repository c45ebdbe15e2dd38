//! `compare`: two sets of result files side by side — the tool behind the
//! "two sets of runs of the same code agree" criterion and every later A/B.
//!
//! For each (end-to-end metric, workload) pair it prints each side's median
//! and quartiles, the relative difference with its base, and a verdict from
//! the metric's bound in [`crate::spec`]: `unresolved` when either side's
//! own spread is wider than the bound (the runs cannot tell), `worse` when
//! side B's median is worse than A's by more than the bound, else
//! `within_bound`.

use crate::json::{self, Json};
use crate::spec;
use crate::stats::{iqr_over_median, median, quartiles};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// metric → workload → one value per run.
type Samples = BTreeMap<(String, String), Vec<f64>>;

/// Collects `result-*.json` files from directories, or takes files as given.
fn result_files(args: &[PathBuf]) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for p in args {
        if p.is_dir() {
            let mut found: Vec<PathBuf> = std::fs::read_dir(p)
                .into_iter()
                .flatten()
                .filter_map(|e| Some(e.ok()?.path()))
                .filter(|f| {
                    f.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("result-") && n.ends_with(".json"))
                })
                .collect();
            found.sort();
            files.extend(found);
        } else {
            files.push(p.clone());
        }
    }
    files
}

fn load(files: &[PathBuf]) -> Result<Samples, String> {
    let mut out = Samples::new();
    for f in files {
        let (workload, metrics) = read_result(f)?;
        for (name, value, _) in metrics {
            out.entry((name, workload.clone())).or_default().push(value);
        }
    }
    Ok(out)
}

/// Median, quartiles and spread (IQR over median) of one side.
struct Side {
    q: [f64; 3],
    spread: f64,
    n: usize,
}

fn side(values: &[f64]) -> Side {
    Side {
        q: quartiles(values).unwrap_or([median(values); 3]),
        spread: iqr_over_median(values).unwrap_or(0.0),
        n: values.len(),
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(a: f64, b: f64, better: &str) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        "higher" => (a - b) / a.abs(),
        _ => (b - a) / a.abs(),
    }
}

pub fn verdict(a: &[f64], b: &[f64], better: &str, bound: f64) -> &'static str {
    let (sa, sb) = (side(a), side(b));
    if sa.spread > bound || sb.spread > bound {
        "unresolved"
    } else if worsening(sa.q[1], sb.q[1], better) > bound {
        "worse"
    } else {
        "within_bound"
    }
}

/// Prints the comparison; `Ok(true)` when no pair is `worse`.
pub fn run(a: &[PathBuf], b: &[PathBuf]) -> Result<bool, String> {
    let (fa, fb) = (result_files(a), result_files(b));
    if fa.is_empty() || fb.is_empty() {
        return Err("compare needs result files on both sides".into());
    }
    let (sa, sb) = (load(&fa)?, load(&fb)?);
    println!(
        "A: {} files, B: {} files; difference = how much worse B's median is than A's, as a share of A's",
        fa.len(),
        fb.len()
    );
    println!(
        "{:<28} {:<15} {:>36} {:>36} {:>9} {:>6}  verdict",
        "metric", "workload", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "diff", "bound"
    );
    let mut ok = true;
    for m in &spec::END_TO_END {
        for w in &spec::WORKLOADS {
            let key = (m.name.to_string(), w.name.to_string());
            let (Some(va), Some(vb)) = (sa.get(&key), sb.get(&key)) else {
                continue;
            };
            let (qa, qb) = (side(va), side(vb));
            let v = verdict(va, vb, m.better, m.bound);
            ok &= v != "worse";
            let cell = |s: &Side| format!("{:.5} [{:.5}, {:.5}] ({})", s.q[1], s.q[0], s.q[2], s.n);
            println!(
                "{:<28} {:<15} {:>36} {:>36} {:>+8.2}% {:>5.1}%  {v}",
                m.name,
                w.name,
                cell(&qa),
                cell(&qb),
                worsening(qa.q[1], qb.q[1], m.better) * 100.0,
                m.bound * 100.0,
            );
        }
    }
    Ok(ok)
}

/// One metric of a result file: `(name, value, unit)`.
pub type MetricRow = (String, f64, String);

/// Reads one result file: its workload and its metrics.
pub fn read_result(path: &Path) -> Result<(String, Vec<MetricRow>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let workload = doc
        .get("workload")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{}: no workload", path.display()))?;
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        return Err(format!("{}: no metrics", path.display()));
    };
    let metrics = metrics
        .iter()
        .filter_map(|(name, m)| {
            Some((
                name.clone(),
                m.get("value")?.as_f64()?,
                m.get("unit")?.as_str()?.to_string(),
            ))
        })
        .collect();
    Ok((workload.to_string(), metrics))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [88.0, 89.0, 87.0, 88.5, 87.5];
        let noisy = [100.0, 140.0, 70.0, 120.0, 85.0];
        assert_eq!(verdict(&steady, &steady, "higher", 0.10), "within_bound");
        assert_eq!(verdict(&steady, &slower, "higher", 0.10), "worse");
        // The same numbers as a latency: lower is an improvement.
        assert_eq!(verdict(&steady, &slower, "lower", 0.10), "within_bound");
        assert_eq!(verdict(&steady, &noisy, "higher", 0.10), "unresolved");
    }
}
