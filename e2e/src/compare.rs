//! `--compare a.jsonl b.jsonl`: two sets of recorded runs (`--out` files,
//! one run per line) against the bounds `BENCHMARK.json` fixes. Per
//! workload × end-to-end metric it prints both medians, how much worse the
//! second is, and the bound; any breach, and any failed check in either
//! set, makes the exit code non-zero. So does anything that is not there to
//! compare — a workload in one set only, a contracted metric one side never
//! reported, two empty sets — and sets measured with different `--seconds`
//! are refused: a truncated set must not read as "no regression". When both
//! sets ran the same seeds, the per-layer metrics that are exact by
//! construction (counts, bytes, the result digest) must also agree exactly.

use std::collections::{BTreeMap, BTreeSet};

use crate::json::Json;
use crate::measure::{percentile, sorted};

/// The runs of one workload in one file.
#[derive(Default)]
struct Runs {
    seeds: BTreeSet<u64>,
    /// metric → its value in every run that reported it.
    metrics: BTreeMap<String, Vec<f64>>,
}

/// workload → its runs.
type RunSet = BTreeMap<String, Runs>;

/// The runs in `text` (the contents of `path`), their failed checks, and the `--seconds` they were
/// all measured with.
fn parse_runs(path: &str, text: &str) -> Result<(RunSet, u64, f64), String> {
    let mut runs = RunSet::new();
    let mut failed = 0;
    let mut seconds = None;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let run = Json::parse(line).map_err(|e| format!("{path}: {e}"))?;
        let of_run = run.get("seconds").and_then(Json::as_f64);
        if of_run.is_none() || *seconds.get_or_insert(of_run) != of_run {
            return Err(format!("{path}: runs of different or unrecorded --seconds"));
        }
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: a run names no workload"))?;
        failed += run.get("failed").and_then(Json::as_f64).unwrap_or(1.0) as u64;
        let of_workload = runs.entry(workload.to_string()).or_default();
        let seed = run.get("seed").and_then(Json::as_f64).unwrap_or(-1.0);
        of_workload.seeds.insert(seed as u64);
        for (name, metric) in run.get("metrics").map_or(&[][..], Json::members) {
            if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                let values = of_workload.metrics.entry(name.clone()).or_default();
                values.push(value);
            }
        }
    }
    let seconds = seconds
        .flatten()
        .ok_or_else(|| format!("{path}: no runs"))?;
    Ok((runs, failed, seconds))
}

/// String member `key` of a `BENCHMARK.json` metric entry ("" if absent).
fn text<'a>(metric: &'a Json, key: &str) -> &'a str {
    metric.get(key).and_then(Json::as_str).unwrap_or_default()
}

/// Returns whether the second set is within every bound of the first.
pub fn compare(benchmark_json: &str, a: &str, b: &str) -> Result<bool, String> {
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    compare_texts(&read(benchmark_json)?, (a, &read(a)?), (b, &read(b)?))
}

/// [`compare`] on the files' contents; `a` and `b` are `(path, contents)`.
fn compare_texts(spec: &str, a: (&str, &str), b: (&str, &str)) -> Result<bool, String> {
    let spec = Json::parse(spec)?;
    let ((a, text_a), (b, text_b)) = (a, b);
    let (runs_a, failed_a, seconds_a) = parse_runs(a, text_a)?;
    let (runs_b, failed_b, seconds_b) = parse_runs(b, text_b)?;
    if seconds_a != seconds_b {
        return Err(format!(
            "{a} was measured with --seconds {seconds_a}, {b} with {seconds_b}: not comparable"
        ));
    }
    let mut ok = failed_a + failed_b == 0;
    if !ok {
        println!("failed checks: {failed_a} in {a}, {failed_b} in {b}");
    }
    println!(
        "{:<12} {:<26} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "median a", "median b", "worse by", "bound"
    );
    let median = |values: &Vec<f64>| percentile(&sorted(values.clone()), 50.0);
    let listed = |group| spec.get(group).map_or(&[][..], Json::items);
    let workloads: BTreeSet<&String> = runs_a.keys().chain(runs_b.keys()).collect();
    for workload in workloads {
        let (Some(of_a), Some(of_b)) = (runs_a.get(workload), runs_b.get(workload)) else {
            ok = false;
            println!("{workload:<12} in one set only  BREACH");
            continue;
        };
        let both = |name| of_a.metrics.get(name).zip(of_b.metrics.get(name));
        for metric in listed("end_to_end") {
            let name = text(metric, "name");
            let bound = metric.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let Some((va, vb)) = both(name) else {
                ok = false;
                println!("{workload:<12} {name:<26} not reported by both sets  BREACH");
                continue;
            };
            let (ma, mb) = (median(va), median(vb));
            let worse = if text(metric, "better") == "lower" {
                (mb - ma) / ma
            } else {
                (ma - mb) / ma
            };
            let breach = worse > bound;
            ok &= !breach;
            println!(
                "{workload:<12} {name:<26} {ma:>14.4} {mb:>14.4} {:>8.2}% {:>6.1}%{}",
                worse * 100.0,
                bound * 100.0,
                if breach { "  BREACH" } else { "" }
            );
        }
        if of_a.seeds != of_b.seeds {
            continue;
        }
        for metric in listed("per_layer") {
            let name = text(metric, "name");
            // `dist.bytes` is a size but not exact: CH contraction iterates
            // `HashMap` adjacency, so one seed gives a different hierarchy
            // (and hub labels 19–22 MB at 30k vertices) in every process.
            if !matches!(text(metric, "unit"), "count" | "B" | "hash") || name == "dist.bytes" {
                continue;
            }
            let distinct = |values: &Vec<f64>| {
                let mut v = sorted(values.clone());
                v.dedup();
                v
            };
            if let Some((va, vb)) = both(name) {
                if distinct(va) != distinct(vb) {
                    ok = false;
                    println!("{workload:<12} {:<26} exact values differ  BREACH", name);
                }
            }
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{"end_to_end": [
        {"name": "qps", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "load_ms", "unit": "ms", "better": "lower", "bound": 0.25}],
        "per_layer": [{"name": "calls", "unit": "count", "better": "lower"}]}"#;

    fn run(workload: &str, seconds: u32, metrics: &[(&str, f64)]) -> String {
        let metrics: Vec<String> = metrics
            .iter()
            .map(|(name, value)| format!(r#""{name}": {{"value": {value}, "unit": "x"}}"#))
            .collect();
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": 1, \"seconds\": {seconds}, \"failed\": 0, \"metrics\": {{{}}}}}\n",
            metrics.join(", ")
        )
    }

    fn verdict(a: &str, b: &str) -> Result<bool, String> {
        compare_texts(SPEC, ("a", a), ("b", b))
    }

    #[test]
    fn passes_only_when_everything_contracted_was_compared() {
        let full = [("qps", 100.0), ("load_ms", 2.0), ("calls", 7.0)];
        let one = run("w", 10, &full);
        assert_eq!(verdict(&one, &one), Ok(true));
        // Within the bound, beyond it, and the exact counter.
        let slower = |qps, calls| run("w", 10, &[("qps", qps), ("load_ms", 2.0), ("calls", calls)]);
        assert_eq!(verdict(&one, &slower(80.0, 7.0)), Ok(true));
        assert_eq!(verdict(&one, &slower(70.0, 7.0)), Ok(false));
        assert_eq!(verdict(&one, &slower(100.0, 8.0)), Ok(false));
        // Nothing to compare is not "no regression".
        let two = one.clone() + &run("v", 10, &full);
        assert_eq!(verdict(&two, &one), Ok(false));
        assert_eq!(verdict(&one, &two), Ok(false));
        assert_eq!(verdict(&one, &run("w", 10, &[("qps", 100.0)])), Ok(false));
        assert!(verdict(&one, "").is_err());
        assert!(verdict("", "").is_err());
        // Run length is part of the estimator.
        assert!(verdict(&one, &run("w", 5, &full)).is_err());
        assert!(verdict(&one, &(one.clone() + &run("w", 5, &full))).is_err());
    }
}
