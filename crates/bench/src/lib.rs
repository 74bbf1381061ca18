//! Shared scaffolding for the table/figure benches.
//!
//! Every bench target regenerates one table or figure of the paper's
//! evaluation (§7): it builds the synthetic stand-ins for the paper's
//! datasets (Table 2 ratios; see DESIGN.md §3), runs the §7.1 workload, and
//! prints the same rows/series the paper reports. Absolute numbers differ
//! from the paper's AWS testbed; the *shape* is what EXPERIMENTS.md checks.
//!
//! Scales default to CI-friendly sizes; set `KSPIN_BENCH_SCALE=full` for
//! the larger sweep.

// Float ordering goes through `OrderedWeight`: `partial_cmp` is on the
// clippy.toml method list, with the clock and thread calls.
#![deny(clippy::disallowed_methods)]

use std::time::Instant;

use kspin_graph::generate::{road_network, RoadNetworkConfig};
use kspin_graph::Graph;
use kspin_text::generate::{corpus, CorpusConfig};
use kspin_text::workload::{queries, Query, WorkloadConfig};
use kspin_text::{Corpus, Vocabulary};

/// One synthetic dataset standing in for a Table 2 road network.
pub struct Dataset {
    pub name: &'static str,
    pub graph: Graph,
    pub corpus: Corpus,
    pub vocab: Vocabulary,
}

/// The scale ladder standing in for DE / ME / FL / E (Table 2). The US
/// scale (24M vertices) is out of wall-clock scope — see DESIGN.md §3.
pub const SCALES: [(&str, usize); 4] = [
    ("DE", 10_000),
    ("ME", 30_000),
    ("FL", 80_000),
    ("E", 160_000),
];

/// Whether the full-size sweep was requested via `KSPIN_BENCH_SCALE=full`.
pub fn full_scale() -> bool {
    std::env::var("KSPIN_BENCH_SCALE").is_ok_and(|v| v == "full")
}

/// The scale used by single-dataset benches: FL-like normally ("the
/// largest dataset" stand-in that keeps `cargo bench` under control),
/// E-like under `KSPIN_BENCH_SCALE=full`, ME-like under
/// `KSPIN_BENCH_SCALE=small` (smoke runs).
pub fn default_scale() -> (&'static str, usize) {
    match std::env::var("KSPIN_BENCH_SCALE").as_deref() {
        Ok("full") => SCALES[3],
        Ok("small") => SCALES[1],
        _ => SCALES[2],
    }
}

/// Builds a dataset at `vertices` scale with Table 2-like keyword ratios.
pub fn build_dataset(name: &'static str, vertices: usize) -> Dataset {
    let graph = road_network(&RoadNetworkConfig::new(vertices, 0x5eed ^ vertices as u64));
    let (corpus, vocab) = corpus(&CorpusConfig::new(
        graph.num_vertices(),
        0xc0de ^ vertices as u64,
    ));
    Dataset {
        name,
        graph,
        corpus,
        vocab,
    }
}

/// The §7.1 workload: correlated keyword vectors from the five seed terms,
/// crossed with uniform query vertices. Scaled-down counts keep each bench
/// in seconds; the structure matches the paper exactly.
pub fn std_queries(ds: &Dataset, num_terms: usize) -> Vec<Query> {
    let cfg = WorkloadConfig {
        seed_terms: vec![0, 1, 2, 3, 4],
        objects_per_term: 4,
        vertices_per_vector: 5,
        seed: 0xbead,
    };
    queries(&ds.corpus, &cfg, ds.graph.num_vertices(), num_terms)
}

/// The benches' one clock read: timing is what they report, and the
/// method list denies `Instant::now` everywhere else in this crate.
#[expect(clippy::disallowed_methods, reason = "a bench times what it runs")]
fn now() -> Instant {
    Instant::now()
}

/// Times `f` over all queries; returns average microseconds per query.
pub fn time_per_query<F: FnMut(&Query)>(qs: &[Query], mut f: F) -> f64 {
    let t0 = now();
    for q in qs {
        f(q);
    }
    t0.elapsed().as_secs_f64() / qs.len() as f64 * 1e6
}

/// Queries per second from a per-query microsecond figure.
pub fn qps(us_per_query: f64) -> f64 {
    1e6 / us_per_query
}

/// Prints a figure/table header in a uniform style.
pub fn header(title: &str, cols: &[&str]) {
    println!("\n=== {title} ===");
    print!("{:<14}", cols[0]);
    for c in &cols[1..] {
        print!(" {c:>14}");
    }
    println!();
}

/// Prints one row: a label and a series of values.
pub fn row(label: impl std::fmt::Display, values: &[f64]) {
    print!("{label:<14}");
    for v in values {
        if *v < 0.0 {
            print!(" {:>14}", "x"); // "not supported / not built"
        } else if *v >= 1000.0 {
            print!(" {v:>14.0}");
        } else {
            print!(" {v:>14.2}");
        }
    }
    println!();
}

/// Formats bytes as MiB.
pub fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// All owned index structures a comparison bench needs (the borrowing
/// layers — `GtreeSpatialKeyword`, `RoadIndex`, `FsFbs`, engines — are
/// created per bench on top of these).
pub struct Oracles {
    pub alt: kspin_alt::AltIndex,
    pub index: kspin_core::KspinIndex,
    pub ch: kspin_ch::ContractionHierarchy,
    pub hl: kspin_hl::HubLabels,
    pub gt: kspin_gtree::GTree,
}

/// Builds every distance oracle and the K-SPIN index for `ds`, printing
/// per-structure build times.
pub fn build_oracles(ds: &Dataset) -> Oracles {
    let t0 = now();
    let alt = kspin_alt::AltIndex::build(&ds.graph, 16, kspin_alt::LandmarkStrategy::Farthest, 0);
    eprintln!("  ALT built in {:.1}s", t0.elapsed().as_secs_f64());
    let index =
        kspin_core::KspinIndex::build(&ds.graph, &ds.corpus, &kspin_core::KspinConfig::default());
    eprintln!(
        "  K-SPIN index built in {:.1}s",
        index.stats().build_seconds
    );
    let t0 = now();
    let ch = kspin_ch::ContractionHierarchy::build(&ds.graph, &kspin_ch::ChConfig::default());
    eprintln!("  CH built in {:.1}s", t0.elapsed().as_secs_f64());
    let t0 = now();
    let hl = kspin_hl::HubLabels::build(&ch);
    eprintln!("  HL built in {:.1}s", t0.elapsed().as_secs_f64());
    let t0 = now();
    let gt = kspin_gtree::GTree::build(&ds.graph, &kspin_gtree::tree::GtreeConfig::default());
    eprintln!("  G-tree built in {:.1}s", t0.elapsed().as_secs_f64());
    Oracles {
        alt,
        index,
        ch,
        hl,
        gt,
    }
}
