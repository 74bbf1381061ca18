//! Criterion micro-benchmarks of the framework's hot primitives:
//! ALT lower bounds, CH / HL / G-tree point-to-point distances, NVD point
//! location, on-demand heap creation + drain, and the pseudo-lower-bound
//! computation.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use kspin_alt::{AltIndex, LandmarkStrategy};
use kspin_ch::{ChConfig, ChQuery, ContractionHierarchy};
use kspin_core::heap::{HeapContext, InvertedHeap};
use kspin_core::{KspinConfig, KspinIndex};
use kspin_graph::generate::{road_network, RoadNetworkConfig};
use kspin_graph::Graph;
use kspin_gtree::tree::GtreeConfig;
use kspin_gtree::{GTree, GtreeDistance};
use kspin_hl::{HlQuery, HubLabels};
use kspin_text::generate::{corpus, CorpusConfig};
use kspin_text::{Corpus, TermId};

struct World {
    graph: Graph,
    corpus: Corpus,
    alt: AltIndex,
    index: KspinIndex,
    ch: ContractionHierarchy,
    hl: HubLabels,
    gt: GTree,
    frequent: TermId,
}

fn world() -> World {
    let graph = road_network(&RoadNetworkConfig::new(20_000, 7));
    let (corpus, _) = corpus(&CorpusConfig::new(graph.num_vertices(), 7));
    let alt = AltIndex::build(&graph, 16, LandmarkStrategy::Farthest, 0);
    let index = KspinIndex::build(&graph, &corpus, &KspinConfig::default());
    let ch = ContractionHierarchy::build(&graph, &ChConfig::default());
    let hl = HubLabels::build(&ch);
    let gt = GTree::build(&graph, &GtreeConfig::default());
    let frequent = (0..corpus.num_terms() as TermId)
        .max_by_key(|&t| corpus.inv_len(t))
        .unwrap();
    World {
        graph,
        corpus,
        alt,
        index,
        ch,
        hl,
        gt,
        frequent,
    }
}

/// The next vertex of a Weyl sequence over `0..n`: a new, well-spread
/// vertex per iteration.
fn next_vertex(seq: &mut u32, n: u32) -> u32 {
    *seq = seq.wrapping_add(2654435761);
    *seq % n
}

fn benches(c: &mut Criterion) {
    let w = world();
    let n = w.graph.num_vertices() as u32;

    c.bench_function("alt_lower_bound", |b| {
        let mut seq = 0u32;
        b.iter(|| {
            let i = next_vertex(&mut seq, n);
            black_box(w.alt.lower_bound(i, (i * 7 + 13) % n))
        })
    });

    // The Heap Generator's access pattern: one source held for 128 calls (a
    // top-k query asks ~117 bounds from its query vertex), a new spread-out
    // candidate each call. Like `alt_lower_bound` this is a warm-table
    // number — nothing evicts the table between calls, as the distance
    // scans of a real query do — so it understates the in-engine cost.
    c.bench_function("alt_lower_bound_pinned", |b| {
        let mut seq = 0u32;
        let (mut source, mut calls) = (0u32, 0u32);
        b.iter(|| {
            if calls % 128 == 0 {
                source = next_vertex(&mut seq, n);
            }
            calls = calls.wrapping_add(1);
            black_box(w.alt.lower_bound(source, next_vertex(&mut seq, n)))
        })
    });

    c.bench_function("ch_distance", |b| {
        let mut q = ChQuery::new(&w.ch);
        let mut seq = 0u32;
        b.iter(|| {
            let i = next_vertex(&mut seq, n);
            black_box(q.distance(i, (i * 31 + 7) % n))
        })
    });

    // The other regime of the same kernel: the source stays, so its forward
    // search space is pinned and each call is one backward search. The
    // source moves every 128 calls, as in `alt_lower_bound_pinned`: a
    // target met again since the last re-pin is answered from memory, and
    // the sequence revisits vertices, so a fixed source would end up
    // timing those answers rather than searches.
    c.bench_function("ch_distance_pinned", |b| {
        let mut q = ChQuery::new(&w.ch);
        let mut seq = 0u32;
        let (mut source, mut calls) = (0u32, 0u32);
        b.iter(|| {
            if calls % 128 == 0 {
                source = next_vertex(&mut seq, n);
            }
            calls = calls.wrapping_add(1);
            black_box(q.distance(source, next_vertex(&mut seq, n)))
        })
    });

    c.bench_function("hl_distance", |b| {
        let mut seq = 0u32;
        b.iter(|| {
            let i = next_vertex(&mut seq, n);
            black_box(w.hl.distance(i, (i * 31 + 7) % n))
        })
    });

    // The serving kernel in the regime the query processors put it in: the
    // source stays, so its label is scattered once and each call is one scan
    // of the target's label.
    c.bench_function("hl_distance_pinned", |b| {
        let mut q = HlQuery::new(&w.hl);
        let mut seq = 0u32;
        b.iter(|| {
            let i = next_vertex(&mut seq, n);
            black_box(q.distance(11, i))
        })
    });

    c.bench_function("gtree_distance_cold", |b| {
        let mut seq = 0u32;
        b.iter(|| {
            let i = next_vertex(&mut seq, n);
            let mut d = GtreeDistance::new(&w.gt, &w.graph, i);
            black_box(d.distance((i * 31 + 7) % n))
        })
    });

    c.bench_function("gtree_distance_materialized", |b| {
        let mut d = GtreeDistance::new(&w.gt, &w.graph, 11);
        let mut seq = 0u32;
        b.iter(|| {
            let i = next_vertex(&mut seq, n);
            black_box(d.distance(i))
        })
    });

    c.bench_function("heap_create_frequent_keyword", |b| {
        let mut seq = 0u32;
        b.iter(|| {
            let i = next_vertex(&mut seq, n);
            let ctx = HeapContext::new(&w.graph, &w.corpus, &w.alt, i);
            black_box(InvertedHeap::create(&w.index, w.frequent, &ctx).map(|h| h.len()))
        })
    });

    c.bench_function("heap_extract_ten", |b| {
        let ctx = HeapContext::new(&w.graph, &w.corpus, &w.alt, 1234 % n);
        b.iter(|| {
            let mut h = InvertedHeap::create(&w.index, w.frequent, &ctx).unwrap();
            let mut sum = 0u64;
            for _ in 0..10 {
                match h.extract(&ctx) {
                    Some(c) => sum += c.lower_bound as u64,
                    None => break,
                }
            }
            black_box(sum)
        })
    });
}

criterion_group! {
    name = micro;
    config = Criterion::default().sample_size(30).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_secs(1));
    targets = benches
}
criterion_main!(micro);
