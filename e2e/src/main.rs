//! `e2e`: the one seeded, self-checking end-to-end benchmark of K-SPIN,
//! driven through the public facade only. See `README.md` beside
//! `Cargo.toml` for the metrics, the workloads and the estimator.
//!
//! ```text
//! cargo run --release --manifest-path e2e/Cargo.toml -- \
//!     --workload <query_hl|query_ch|serve_zipf|lifecycle|all> --seed <u64> \
//!     [--seconds <s>] [--trace <0|1>] [--trace-out spans.jsonl] [--out runs.jsonl]
//! cargo run --release --manifest-path e2e/Cargo.toml -- --compare a.jsonl b.jsonl
//! ```

mod compare;
mod json;
mod layers;
mod measure;
mod phases;
mod report;
mod scenario;
mod trace;
mod verify;

use std::io::Write as _;
use std::process::ExitCode;

use kspin::prelude::*;

use measure::{over_passes, percentile, sorted, Better, Budget};
use phases::Run;
use report::Report;
use scenario::{Scenario, World, SCENARIOS};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Cycles of an untraced and of a traced run.
const CYCLES: usize = 7;
const TRACED_CYCLES: usize = 3;
/// Shares of `--seconds` for the phases that repeat until their slot is
/// used; a §6.2 round is a fixed amount of work on top.
const QUERY_SHARE: f64 = 0.45;
const SERVING_SHARE: f64 = 0.25;
const SNAPSHOT_SHARE: f64 = 0.05;
/// A traced run takes its untraced reference from shorter phases: most of
/// its time goes into recording and replaying.
const TRACED_SHARE: f64 = 0.4;

struct Options {
    seed: u64,
    budget: Budget,
    trace: bool,
    trace_out: Option<String>,
    /// Overrides the scenario's size (the smoke test runs small).
    vertices: Option<usize>,
}

fn run_workload(sc: &Scenario, opts: &Options) -> Report {
    let mut rep = Report::new(sc.name, opts.seed, opts.trace);
    let vertices = opts.vertices.unwrap_or(sc.vertices);
    let repeats = if opts.trace { 1 } else { SETUP_REPEATS };
    let mut world = World::build(sc, vertices, opts.seed);
    let mut times = vec![world.times];
    for _ in 1..repeats {
        // Dropped before the next is built, not after: one set-up's memory
        // at a time, and no deallocation inside a timed set-up.
        drop(world);
        world = World::build(sc, vertices, opts.seed);
        times.push(world.times);
    }

    let column = |f: fn(&scenario::SetupTimes) -> f64| times.iter().map(f).collect::<Vec<_>>();
    let setup_s = percentile(&sorted(column(|t| t.total_s)), 50.0);
    rep.end_to_end("setup_s", setup_s, "s");
    rep.info("setup.repeats", repeats as f64, "count");
    // Three samples at most: too few to gate on this host. The gated build
    // time is `index_build_s`, taken once per §6.2 round.
    let build_s = over_passes(&column(|t| t.system_build_s), Better::Lower).best;
    let index_s = over_passes(&column(|t| t.index_build_s), Better::Lower).best;
    let sys = &world.system;
    rep.per_layer("system.build_s", build_s, "s");
    rep.per_layer("alt.build_s", build_s - index_s, "s");
    rep.per_layer("alt.bytes", sys.alt.size_bytes() as f64, "B");
    rep.per_layer("index.build_s", index_s, "s");
    rep.per_layer(
        "index.nvd_terms",
        sys.index.stats().nvd_terms as f64,
        "count",
    );
    rep.per_layer(
        "index.small_terms",
        sys.index.stats().small_terms as f64,
        "count",
    );
    rep.per_layer("index.bytes", sys.index.size_bytes() as f64, "B");
    rep.per_layer(
        "dist.build_s",
        over_passes(&column(|t| t.dist_build_s), Better::Lower).best,
        "s",
    );
    let dist_bytes = world
        .hl
        .as_ref()
        .map_or(world.ch.size_bytes(), |hl| hl.size_bytes());
    rep.per_layer("dist.bytes", dist_bytes as f64, "B");
    rep.info("vertices", sys.graph.num_vertices() as f64, "count");
    rep.info("objects", sys.corpus.num_objects() as f64, "count");

    // The plain adapter types from here on: every engine is monomorphised
    // on the module, exactly as an application's would be.
    match &world.hl {
        Some(hl) => phases(&world, opts, &mut rep, || HlDistance::new(hl)),
        None => phases(&world, opts, &mut rep, || ChDistance::new(&world.ch)),
    }
    rep.per_layer("diag.pass_spread", rep.pass_spread, "ratio");
    rep
}

fn phases<D, F>(world: &World, opts: &Options, rep: &mut Report, make_dist: F)
where
    D: NetworkDistance,
    F: Fn() -> D + Sync,
{
    let run = Run {
        world,
        trace: opts.trace,
        make_dist,
    };
    let mut queries = run.query_passes(rep);
    let mut serving = run.serving_passes(rep);
    let mut snapshots = run.snapshot_passes(rep, &queries.answers);
    let mut updates = run.update_rounds();
    for cycle in 0..opts.budget.cycles {
        queries.run_for(opts.budget.slot(QUERY_SHARE));
        serving.run_for(opts.budget.slot(SERVING_SHARE));
        snapshots.run_for(opts.budget.slot(SNAPSHOT_SHARE));
        updates.round(cycle, rep);
    }
    let best_pass_s = queries.finish(rep);
    // 52 bits: exact in the f64 every metric value is.
    let digest = queries.digest & ((1 << 52) - 1);
    rep.per_layer("result_digest", digest as f64, "hash");
    if opts.trace {
        // A CH distance is long enough to time in place; a label merge is not.
        let time_calls = world.hl.is_none();
        let untraced = (queries.digest, best_pass_s);
        run.trace_phase(rep, untraced, time_calls, opts.trace_out.as_deref());
    }
    serving.finish(rep);
    snapshots.finish(rep);
    updates.finish(rep);
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: e2e --workload <{}|all> --seed <u64> [--seconds <s>] [--trace <0|1>] \
         [--trace-out <file>] [--out <file>]\n       e2e --compare <a.jsonl> <b.jsonl>",
        SCENARIOS.map(|s| s.name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, a, b] = args.as_slice() {
        if flag == "--compare" {
            // Beside the package, wherever the command is run from.
            let spec = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
            return match compare::compare(spec, a, b) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::from(2)
                }
            };
        }
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10.0, false);
    let (mut trace_out, mut out) = (None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage();
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse().unwrap_or(f64::NAN),
            "--trace" => trace = value == "1",
            "--trace-out" => trace_out = Some(value.clone()),
            "--out" => out = Some(value.clone()),
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed)) = (workload, seed) else {
        return usage();
    };
    let chosen: Vec<&Scenario> = SCENARIOS
        .iter()
        .filter(|s| workload == "all" || workload == s.name)
        .collect();
    if chosen.is_empty() || seconds.is_nan() || seconds <= 0.0 {
        return usage();
    }
    let opts = Options {
        seed,
        budget: if trace {
            Budget {
                seconds: seconds * TRACED_SHARE,
                cycles: TRACED_CYCLES,
            }
        } else {
            Budget {
                seconds,
                cycles: CYCLES,
            }
        },
        trace,
        trace_out,
        vertices: None,
    };

    let mut failed = 0;
    for sc in chosen {
        let rep = run_workload(sc, &opts);
        rep.print_table();
        failed += rep.checks.failed;
        if let Some(path) = &out {
            let appended = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut f| writeln!(f, "{}", rep.record_json(seconds)));
            if let Err(e) = appended {
                eprintln!("{path}: {e}");
                return ExitCode::from(2);
            }
        }
        println!("{}", rep.result_json());
    }
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::report::Group;

    /// The package copies the repository's `[profile.release]` (it cannot
    /// inherit it from outside the workspace); the copy must not drift.
    #[test]
    fn release_profile_is_the_repositorys() {
        let profile = |manifest: &str| -> Vec<String> {
            let after = manifest
                .split("[profile.release]")
                .nth(1)
                .expect("a profile");
            let lines = after.lines().skip(1).map(str::trim);
            lines
                .take_while(|l| !l.starts_with('['))
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(String::from)
                .collect()
        };
        assert_eq!(
            profile(include_str!("../Cargo.toml")),
            profile(include_str!("../../Cargo.toml"))
        );
    }

    /// All four workloads, small and short, traced and untraced: every
    /// metric `BENCHMARK.json` lists is emitted exactly once, nothing else
    /// is, and no check fails.
    #[test]
    fn every_workload_emits_exactly_the_contracted_metrics() {
        let spec = include_str!("../../BENCHMARK.json");
        let spec = Json::parse(spec).expect("BENCHMARK.json parses");
        let listed = |group: &str| -> Vec<(String, String)> {
            let field = |m: &Json, key| m.get(key).and_then(Json::as_str).unwrap().to_string();
            let mut names: Vec<_> = spec
                .get(group)
                .unwrap()
                .items()
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit")))
                .collect();
            names.sort();
            names
        };
        let workloads: Vec<&str> = spec
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, SCENARIOS.map(|s| s.name));
        // Every per-layer metric is tagged with its layer, and should move
        // only what the contract gates.
        for (name, _) in listed("per_layer") {
            let (_, moves) = layers::layer_of(&name).unwrap_or_else(|| panic!("{name}: no layer"));
            for moved in moves {
                let gated = |(n, _): &(String, String)| n == moved;
                assert!(listed("end_to_end").iter().any(gated), "{name} -> {moved}");
            }
        }

        for sc in &SCENARIOS {
            for (trace, group, key) in [
                (false, Group::EndToEnd, "end_to_end"),
                (true, Group::PerLayer, "per_layer"),
            ] {
                let opts = Options {
                    seed: 3,
                    budget: Budget {
                        seconds: 1e-9,
                        cycles: 2,
                    },
                    trace,
                    trace_out: None,
                    vertices: Some(2_000),
                };
                let rep = run_workload(sc, &opts);
                assert_eq!(rep.checks.failed, 0, "{} trace={trace}", sc.name);
                assert!(rep.checks.attempted > 0);
                let mut emitted: Vec<(String, String)> = rep
                    .metrics
                    .iter()
                    .filter(|m| m.group == group)
                    .map(|m| (m.name.clone(), m.unit.to_string()))
                    .collect();
                emitted.sort();
                assert_eq!(emitted, listed(key), "{} trace={trace}", sc.name);
                for (name, _) in &emitted {
                    let legal = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
                    assert!(name.chars().all(legal) && name.len() <= 64, "{name}");
                }
                let line = Json::parse(&rep.result_json()).expect("the result line parses");
                assert_eq!(line.get("metrics").unwrap().members().len(), emitted.len());
            }
        }
    }
}
