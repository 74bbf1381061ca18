//! Distance-kernel sweep: the three queue-driven searches — Dijkstra, the
//! CH query (both upward searches, the source's re-pinned on every pair)
//! and the exact-NVD construction sweep — on
//! generated road networks at |V| ∈ {10k, 30k, 100k}, in the generator's
//! vertex order (the only order the system serves in).
//!
//! Every leg runs the production code path: the two searches on the
//! shared indexed 4-ary decrease-key kernel (`kspin_graph::dheap`), the
//! NVD sweep on its bucket queue, whose counters take the same shape
//! (entries queued, entries taken out, in-queue improvements). The host's wall clock is
//! noisy, so the heap counters are the primary signal (the EXPERIMENTS.md
//! convention): they are exact and reproducible. QPS rides along as
//! best-of-5. Results go to `BENCH_distance.json` at the workspace root
//! (CI validates its schema and uploads it as an artifact).
//!
//! `KSPIN_BENCH_SCALE=small` drops the 100k size and halves the query
//! pairs for CI smoke runs.

use std::fmt::Write as _;
use std::time::Instant;

use kspin_bench::{header, row};
use kspin_ch::{ChConfig, ChQuery, ContractionHierarchy};
use kspin_graph::generate::{road_network, RoadNetworkConfig};
use kspin_graph::{Dijkstra, HeapCounters, VertexId};
use kspin_nvd::{ExactNvd, SweepScratch};

fn sizes() -> Vec<usize> {
    if std::env::var("KSPIN_BENCH_SCALE").as_deref() == Ok("small") {
        vec![10_000, 30_000]
    } else {
        vec![10_000, 30_000, 100_000]
    }
}

/// Deterministic point-to-point query pairs, spread across the network.
fn query_pairs(n: usize) -> Vec<(VertexId, VertexId)> {
    let mut pairs = match n {
        0..=15_000 => 48,
        15_001..=50_000 => 24,
        _ => 10,
    };
    if std::env::var("KSPIN_BENCH_SCALE").as_deref() == Ok("small") {
        pairs /= 2;
    }
    (0..pairs)
        .map(|i| {
            (
                ((i * 7919) % n) as VertexId,
                ((i * 104_729 + n / 2) % n) as VertexId,
            )
        })
        .collect()
}

/// Every 64th vertex generates a Voronoi cell (road-network POI density).
fn generators(n: usize) -> Vec<VertexId> {
    (0..n as VertexId).step_by(64).collect()
}

/// Best-of-5 wall clock around `pass`. Five passes because the host is
/// shared: any one pass can eat a multi-hundred-ms scheduler stall, and
/// min-of-N is the estimator that discards those.
fn measure<F: FnMut()>(work_items: usize, mut pass: F) -> f64 {
    let mut best = f64::INFINITY;
    pass(); // warmup (first-touch page faults, branch history)
    for _ in 0..5 {
        let t0 = Instant::now();
        pass();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    work_items as f64 / best
}

fn main() {
    let sizes = sizes();
    header(
        "Distance kernels: module × |V|",
        &["leg", "q/s", "pushes", "pops", "dec-keys"],
    );
    let mut json_rows = String::new();
    for &n in &sizes {
        let g = road_network(&RoadNetworkConfig::new(n, 0x5eed ^ n as u64));
        let pairs = query_pairs(g.num_vertices());
        let gens = generators(g.num_vertices());
        let t0 = Instant::now();
        let ch = ContractionHierarchy::build(&g, &ChConfig::default());
        eprintln!(
            "|V|={n}: CH {:.1}s; {} query pairs, {} NVD generators",
            t0.elapsed().as_secs_f64(),
            pairs.len(),
            gens.len(),
        );

        let mut emit = |module: &str, qps: f64, c: HeapCounters| {
            row(
                format!("{module}/{n}"),
                &[qps, c.pushes as f64, c.pops as f64, c.decrease_keys as f64],
            );
            let comma = if json_rows.is_empty() { "" } else { ",\n" };
            write!(
                json_rows,
                "{comma}    {{\"module\": \"{module}\", \"vertices\": {n}, \
                 \"qps\": {qps:.2}, \"pushes\": {}, \"pops\": {}, \"decrease_keys\": {}}}",
                c.pushes, c.pops, c.decrease_keys,
            )
            .expect("write to String cannot fail");
        };

        // Dijkstra
        {
            let mut d = Dijkstra::new(g.num_vertices());
            let qps = measure(pairs.len(), || {
                for &(s, t) in &pairs {
                    std::hint::black_box(d.one_to_one(&g, s, t));
                }
            });
            let base = d.heap_counters();
            for &(s, t) in &pairs {
                std::hint::black_box(d.one_to_one(&g, s, t));
            }
            emit("dijkstra", qps, d.heap_counters().since(base));
        }

        // CH: every pair has another source, so every call re-pins.
        {
            let mut d = ChQuery::new(&ch);
            let qps = measure(pairs.len(), || {
                for &(s, t) in &pairs {
                    std::hint::black_box(d.distance(s, t));
                }
            });
            let base = d.heap_counters();
            for &(s, t) in &pairs {
                std::hint::black_box(d.distance(s, t));
            }
            emit("ch", qps, d.heap_counters().since(base));
        }

        // Exact-NVD construction (one build = one work item), reusing one
        // bucket queue the way an index-build worker does.
        {
            let mut scratch = SweepScratch::default();
            let qps = measure(1, || {
                std::hint::black_box(ExactNvd::build(&g, &gens, &mut scratch));
            });
            emit(
                "nvd_build",
                qps,
                ExactNvd::build(&g, &gens, &mut scratch).build_counters(),
            );
        }
    }

    let json = format!(
        "{{\n  \"bench\": \"table_distance\",\n  \"sizes\": {sizes:?},\n  \
         \"hardware_threads\": {},\n  \"rows\": [\n{json_rows}\n  ]\n}}\n",
        std::thread::available_parallelism().map_or(1, |p| p.get()),
    );
    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_distance.json");
    std::fs::write(out_path, &json).expect("failed to write BENCH_distance.json");
    println!("\nwrote {out_path}");
}
