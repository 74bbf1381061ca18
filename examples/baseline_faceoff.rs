//! Face-off: K-SPIN vs the keyword-aggregated baselines (G-tree, ROAD,
//! FS-FBS) and plain network expansion, on one workload — a miniature of
//! the paper's Table 1.
//!
//! ```text
//! cargo run --release --example baseline_faceoff
//! ```

use std::time::Instant;

use kspin::adapters::HlDistance;
use kspin::prelude::*;
use kspin_ch::{ChConfig, ContractionHierarchy};
use kspin_core::query::baseline::{ine_bknn, ine_topk};
use kspin_fsfbs::FsFbs;
use kspin_graph::generate::{road_network, RoadNetworkConfig};
use kspin_gtree::tree::GtreeConfig;
use kspin_gtree::{GTree, GtreeSpatialKeyword, OccurrenceMode};
use kspin_hl::HubLabels;
use kspin_road::RoadIndex;
use kspin_text::generate::{corpus, CorpusConfig};
use kspin_text::workload::{queries, WorkloadConfig};

fn main() {
    println!("building world (25k vertices)…");
    let graph = road_network(&RoadNetworkConfig::new(25_000, 99));
    let (corp, vocab) = corpus(&CorpusConfig::new(graph.num_vertices(), 99));

    println!("building every index…");
    let ch = ContractionHierarchy::build(&graph, &ChConfig::default());
    let hl = HubLabels::build(&ch);
    let gt = GTree::build(&graph, &GtreeConfig::default());
    let sk = GtreeSpatialKeyword::build(&gt, &graph, &corp);
    let road = RoadIndex::build(&gt, &graph, &corp);
    let fsfbs = FsFbs::build(&graph, &corp, &hl);
    let alt = kspin_alt::AltIndex::build(&graph, 16, kspin_alt::LandmarkStrategy::Farthest, 0);
    let index = KspinIndex::build(&graph, &corp, &KspinConfig::default());
    let _ = vocab;

    let wl = WorkloadConfig {
        seed_terms: vec![0, 1, 2, 3, 4],
        objects_per_term: 4,
        vertices_per_vector: 8,
        seed: 17,
    };
    let qs = queries(&corp, &wl, graph.num_vertices(), 2);
    println!("workload: {} queries (2 keywords, k = 10)\n", qs.len());

    let time = |label: &str, mut f: Box<dyn FnMut(&kspin_text::workload::Query) -> usize + '_>| {
        let t0 = Instant::now();
        let mut n = 0usize;
        for q in &qs {
            n += f(q);
        }
        let dt = t0.elapsed().as_secs_f64();
        println!(
            "  {:<22} {:>9.1} queries/s  ({} results)",
            label,
            qs.len() as f64 / dt,
            n
        );
    };

    println!("top-10 spatial keyword queries:");
    {
        let mut e = QueryEngine::new(&graph, &corp, &index, &alt, HlDistance::new(&hl));
        time(
            "KS-HL (K-SPIN)",
            Box::new(move |q| e.top_k(q.vertex, 10, &q.terms).len()),
        );
    }
    time(
        "G-tree",
        Box::new(|q| {
            sk.top_k(q.vertex, 10, &q.terms, OccurrenceMode::Aggregated)
                .0
                .len()
        }),
    );
    time(
        "Gtree-Opt",
        Box::new(|q| {
            sk.top_k(q.vertex, 10, &q.terms, OccurrenceMode::PerKeyword)
                .0
                .len()
        }),
    );
    time(
        "ROAD",
        Box::new(|q| road.top_k(q.vertex, 10, &q.terms).len()),
    );
    time(
        "network expansion",
        Box::new(|q| ine_topk(&graph, &corp, q.vertex, 10, &q.terms).len()),
    );

    println!("\ndisjunctive B10NN queries:");
    {
        let mut e = QueryEngine::new(&graph, &corp, &index, &alt, HlDistance::new(&hl));
        time(
            "KS-HL (K-SPIN)",
            Box::new(move |q| e.bknn(q.vertex, 10, &q.terms, Op::Or).len()),
        );
    }
    time(
        "G-tree",
        Box::new(|q| {
            sk.bknn(q.vertex, 10, &q.terms, false, OccurrenceMode::Aggregated)
                .0
                .len()
        }),
    );
    time(
        "FS-FBS",
        Box::new(|q| fsfbs.bknn(q.vertex, 10, &q.terms, false).len()),
    );
    time(
        "network expansion",
        Box::new(|q| ine_bknn(&graph, &corp, q.vertex, 10, &q.terms, Op::Or).len()),
    );

    println!("\nindex sizes:");
    println!(
        "  K-SPIN keyword index   {:>9} KiB",
        index.size_bytes() / 1024
    );
    println!(
        "  ALT lower bounds       {:>9} KiB",
        alt.size_bytes() / 1024
    );
    println!("  CH                     {:>9} KiB", ch.size_bytes() / 1024);
    println!("  HL                     {:>9} KiB", hl.size_bytes() / 1024);
    println!(
        "  G-tree (+ keywords)    {:>9} KiB",
        (gt.size_bytes() + sk.size_bytes()) / 1024
    );
    println!(
        "  ROAD overlay           {:>9} KiB",
        road.size_bytes() / 1024
    );
    println!(
        "  FS-FBS                 {:>9} KiB",
        fsfbs.size_bytes() / 1024
    );
}
