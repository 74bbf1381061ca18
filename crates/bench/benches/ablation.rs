//! Ablation study of K-SPIN's design choices (DESIGN.md §1):
//!
//! 1. **Lower-bound oracle** — ALT with 16 farthest landmarks (the paper's
//!    choice) vs 4 landmarks vs random landmarks vs the trivial zero bound.
//!    Looser bounds keep results exact but cost extra network distances.
//! 2. **Lazy NVD-backed heaps vs eager full-list heaps** — `ρ = ∞` makes
//!    every keyword a plain list, i.e. the "simple approach" §5 dismisses
//!    (populate the whole inverted heap per query). Expect eager to pay
//!    with keyword frequency.

use kspin::adapters::ChDistance;
use kspin_alt::{AltIndex, LandmarkStrategy};
use kspin_bench::{build_dataset, default_scale, header, row, std_queries, time_per_query};
use kspin_ch::{ChConfig, ContractionHierarchy};
use kspin_core::modules::ZeroLowerBound;
use kspin_core::{KspinConfig, KspinIndex, LowerBound, Op, QueryEngine};

fn main() {
    let (name, vertices) = default_scale();
    println!("dataset: {name}-scale ({vertices} vertices); k=10, 2 terms");
    let ds = build_dataset(name, vertices);
    let threads = std::thread::available_parallelism().map_or(4, |p| p.get());
    let index = KspinIndex::build(
        &ds.graph,
        &ds.corpus,
        &KspinConfig {
            rho: 5,
            num_threads: threads,
        },
    );
    let qs = std_queries(&ds, 2);
    let ch = ContractionHierarchy::build(&ds.graph, &ChConfig::default());

    // ---- 1. lower-bound oracle -----------------------------------------
    header(
        "Ablation 1: lower-bound oracle (k=10, 2 terms)",
        &[
            "oracle",
            "top-k (us)",
            "BkNN (us)",
            "dists/query",
            "LBs/query",
        ],
    );
    let alt16 = AltIndex::build(&ds.graph, 16, LandmarkStrategy::Farthest, 0);
    let alt4 = AltIndex::build(&ds.graph, 4, LandmarkStrategy::Farthest, 0);
    let rand16 = AltIndex::build(&ds.graph, 16, LandmarkStrategy::Random, 0);
    let zero = ZeroLowerBound;
    let oracles: [(&str, &dyn LowerBound); 4] = [
        ("ALT-16 farthest", &alt16),
        ("ALT-4 farthest", &alt4),
        ("ALT-16 random", &rand16),
        ("zero bound", &zero),
    ];
    for (label, lb) in oracles {
        let mut e = QueryEngine::new(&ds.graph, &ds.corpus, &index, lb, ChDistance::new(&ch));
        e.reset_stats();
        let t_topk = time_per_query(&qs, |q| {
            e.top_k(q.vertex, 10, &q.terms);
        });
        let t_bknn = time_per_query(&qs, |q| {
            e.bknn(q.vertex, 10, &q.terms, Op::Or);
        });
        let s = e.stats();
        let per = (2 * qs.len()) as f64;
        row(
            label,
            &[
                t_topk,
                t_bknn,
                s.dist_computations as f64 / per,
                s.lb_computations as f64 / per,
            ],
        );
    }

    // ---- 2. lazy vs eager heaps -----------------------------------------
    header(
        "Ablation 2: lazy NVD heaps (rho=5) vs eager full-list heaps (rho=inf)",
        &["variant", "top-k (us)", "BkNN (us)", "LBs/query"],
    );
    let eager = KspinIndex::build(
        &ds.graph,
        &ds.corpus,
        &KspinConfig {
            rho: usize::MAX,
            num_threads: threads,
        },
    );
    for (label, idx) in [("lazy (NVD)", &index), ("eager (lists)", &eager)] {
        let mut e = QueryEngine::new(&ds.graph, &ds.corpus, idx, &alt16, ChDistance::new(&ch));
        e.reset_stats();
        let t_topk = time_per_query(&qs, |q| {
            e.top_k(q.vertex, 10, &q.terms);
        });
        let t_bknn = time_per_query(&qs, |q| {
            e.bknn(q.vertex, 10, &q.terms, Op::Or);
        });
        let s = e.stats();
        row(
            label,
            &[
                t_topk,
                t_bknn,
                s.lb_computations as f64 / (2 * qs.len()) as f64,
            ],
        );
    }
}
