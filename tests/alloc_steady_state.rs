//! The dynamic face of `cargo xtask certify`'s allocation certificate: a
//! counting global allocator measures what batch serving actually
//! allocates once warmed up.
//!
//! The static certificate proves no *unjustified* allocation source is
//! reachable from the steady-state entry points; every residual site
//! carries an `ALLOC-OK` capacity invariant (per-query buffers bounded by
//! `k`/`|ψ|`, per-batch setup amortized over the batch). This test pins
//! those invariants to numbers: after a warm-up batch, two identical
//! measured batches must allocate (a) exactly the same amount — steady
//! state is reproducible, nothing accumulates — and (b) at most a small
//! justified constant per query.
//!
//! One test per binary: the allocation counter is process-global, so a
//! concurrently running sibling test would pollute the measurement.

// The workspace denies `unsafe_code`; a `#[global_allocator]` impl is the
// one place this test binary genuinely needs it (GlobalAlloc is an unsafe
// trait — the impl below only delegates to `System` and counts).
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use kspin::prelude::*;
use kspin_text::workload::{zipf_queries, ZipfWorkloadConfig};

/// Counts every heap acquisition (`alloc` and `realloc` — `dealloc` is
/// free of interest here) and delegates to the system allocator.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[test]
fn steady_state_batches_allocate_a_pinned_reproducible_amount() {
    // Same fixture family as serving_determinism, sized down: Zipf-hot
    // keywords over a small vertex pool, cycled through query types.
    let graph = kspin::graph::generate::road_network(
        &kspin::graph::generate::RoadNetworkConfig::new(700, 2026),
    );
    let mut cc = kspin::text::generate::CorpusConfig::new(graph.num_vertices(), 2027);
    cc.object_fraction = 0.1;
    let (corpus, _) = kspin::text::generate::corpus(&cc);
    let alt = kspin::alt::AltIndex::build(&graph, 8, kspin::alt::LandmarkStrategy::Farthest, 0);
    let index = KspinIndex::build(
        &graph,
        &corpus,
        &KspinConfig {
            rho: 4,
            ..KspinConfig::default()
        },
    );
    let zipf = zipf_queries(
        &corpus,
        &ZipfWorkloadConfig {
            num_queries: 120,
            terms_per_query: 2,
            zipf_exponent: 1.0,
            hot_vertex_pool: 16,
            seed: 41,
        },
        graph.num_vertices(),
    );
    let queries: Vec<ServingQuery> = zipf
        .iter()
        .enumerate()
        .map(|(i, q)| match i % 3 {
            0 => ServingQuery::Bknn {
                vertex: q.vertex,
                k: 8,
                terms: q.terms.clone(),
                op: Op::Or,
            },
            1 => ServingQuery::Bknn {
                vertex: q.vertex,
                k: 8,
                terms: q.terms.clone(),
                op: Op::And,
            },
            _ => ServingQuery::TopK {
                vertex: q.vertex,
                k: 8,
                terms: q.terms.clone(),
            },
        })
        .collect();

    // One worker: thread-spawn and shard bookkeeping is identical across
    // batches and the cross-batch comparison is exact, not statistical.
    let exec = BatchExecutor::new(&graph, &corpus, &index, &alt, 1);

    // Two oracles: Dijkstra, and the hub-label kernel behind KS-HL, whose
    // source-pinning table must be allocated when the oracle is made and
    // never touched by the allocator while it serves.
    steady_state_leg(&exec, &queries, "dijkstra", || {
        DijkstraDistance::new(&graph)
    });
    let ch = kspin::ch::ContractionHierarchy::build(&graph, &kspin::ch::ChConfig::default());
    let hl = kspin::hl::HubLabels::build(&ch);
    steady_state_leg(&exec, &queries, "hl", || HlDistance::new(&hl));

    // The executor legs bound allocations per query; this pins the kernel
    // itself to zero across re-pins, scans and `s == t`.
    let mut oracle = HlDistance::new(&hl);
    let n = graph.num_vertices() as VertexId;
    let before = allocations();
    for q in &zipf {
        for t in [q.vertex, 0, n / 2, n - 1] {
            std::hint::black_box(oracle.distance(q.vertex, t));
        }
    }
    assert_eq!(
        allocations() - before,
        0,
        "HlDistance::distance allocated after construction"
    );
}

/// Warms `exec` up with one batch, then holds two more identical batches to
/// the steady-state contract.
fn steady_state_leg<D, F>(exec: &BatchExecutor<'_>, queries: &[ServingQuery], oracle: &str, make: F)
where
    D: NetworkDistance,
    F: Fn() -> D + Sync,
{
    // Warm-up batch: anything lazily initialized on first use happens here.
    exec.execute(queries, &make);

    let measure = |label: &str| {
        let before = allocations();
        let out = exec.execute(queries, &make);
        let total = allocations() - before;
        assert_eq!(
            out.stats.heap_grows, 0,
            "{oracle}, {label}: a pre-sized heap kernel reallocated while serving"
        );
        total
    };
    let second = measure("second batch");
    let third = measure("third batch");

    // Steady state is reproducible: nothing accumulates batch over batch
    // (no growing side tables, no leak-by-retention).
    assert_eq!(
        second, third,
        "{oracle}: identical warmed batches allocated different amounts"
    );

    // And it is small: per-batch engine/oracle construction plus the
    // ALLOC-OK'd per-query buffers (result Vecs bounded by k, per-term
    // heap generation, the pre-sized k-best buffer). The bound is deliberately
    // generous — it exists to catch regressions to per-candidate or
    // per-edge allocation, which blow past it by orders of magnitude.
    let per_query = second as f64 / queries.len() as f64;
    println!(
        "steady-state allocations ({oracle}): total={second} per-query={per_query:.1} \
         (batch of {})",
        queries.len()
    );
    assert!(
        per_query <= 64.0,
        "{oracle}: steady-state serving allocates {per_query:.1} times per query \
         (batch total {second}) — an ALLOC-OK invariant no longer holds"
    );
}
