//! What batch serving allocates once warmed up, counted by a global
//! allocator that tallies every heap acquisition.
//!
//! A query's allocations must not grow with `k` or with the work it does:
//! per batch there is engine and oracle construction, and per query a
//! handful of buffers bounded by `k` or `|ψ|` (the result `Vec`, one heap
//! per keyword, the pre-sized k-best buffer), each allocated once. So for
//! every query kind — BkNN-∨, BkNN-∧, top-k and a mixed Boolean — under
//! every oracle — Dijkstra, CH and HL — a warmed batch must allocate
//! exactly the same amount at k = 1, 8, 32 and 128, while its heap
//! extractions rise with `k` (else the equality would hold vacuously).
//! Within one `k`, two identical warmed batches must allocate the same
//! (nothing accumulates), the pre-sized heap kernels must never grow, and
//! the total must stay within a small constant per query and equal its
//! pinned value. The CH and HL distance kernels themselves must allocate
//! nothing once warm.
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
use kspin_text::workload::{zipf_queries, Query, ZipfWorkloadConfig};

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

/// The result sizes every leg is measured at.
const KS: [usize; 4] = [1, 8, 32, 128];

/// Allocations one warmed query may make, batch setup included. Generous
/// on purpose: per-candidate or per-edge allocation blows past it by
/// orders of magnitude.
const PER_QUERY_BOUND: f64 = 64.0;

/// What a warmed 120-query batch allocates, the same at every `k`, less
/// what one idle worker's spawn allocates ([`idle_spawn`]): per kind, in
/// the order of [`KINDS`], under Dijkstra, CH and HL. A change in what a
/// batch allocates, either way, fails here until the totals are re-pinned
/// with its reason.
const PINNED_TOTALS: [[u64; 3]; 4] = [
    [855, 855, 851],
    [615, 615, 611],
    [1336, 1336, 1332],
    [1045, 1045, 1041],
];

/// The four query kinds, each served as a batch of its own.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Or,
    And,
    TopK,
    Boolean,
}

const KINDS: [Kind; 4] = [Kind::Or, Kind::And, Kind::TopK, Kind::Boolean];

/// The batch of `kind` at result size `k`: BkNN and top-k ask the first
/// two keywords of each query, the Boolean kind `a ∧ (b ∨ c)` over all
/// three.
fn batch(workload: &[Query], kind: Kind, k: usize) -> Vec<ServingQuery> {
    workload
        .iter()
        .map(|q| {
            let vertex = q.vertex;
            let terms = q.terms[..2].to_vec();
            match kind {
                Kind::Or => ServingQuery::Bknn {
                    vertex,
                    k,
                    terms,
                    op: Op::Or,
                },
                Kind::And => ServingQuery::Bknn {
                    vertex,
                    k,
                    terms,
                    op: Op::And,
                },
                Kind::TopK => ServingQuery::TopK { vertex, k, terms },
                Kind::Boolean => ServingQuery::Boolean {
                    vertex,
                    k,
                    expr: BoolExpr::And(vec![
                        BoolExpr::Term(q.terms[0]),
                        BoolExpr::any(&q.terms[1..]),
                    ]),
                },
            }
        })
        .collect()
}

#[test]
fn steady_state_batches_allocate_a_pinned_reproducible_amount() {
    // Same fixture family as serving_determinism, sized down: Zipf-hot
    // keywords over a small vertex pool.
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
            list_max: 4,
            ..KspinConfig::default()
        },
    );
    let workload = zipf_queries(
        &corpus,
        &ZipfWorkloadConfig {
            num_queries: 120,
            terms_per_query: 3,
            zipf_exponent: 1.0,
            hot_vertex_pool: 16,
            seed: 41,
        },
        graph.num_vertices(),
    );

    // One worker: thread-spawn and shard bookkeeping is identical across
    // batches and the cross-batch comparison is exact, not statistical.
    let exec = BatchExecutor::new(&graph, &corpus, &index, &alt, 1);
    let ch = kspin::ch::ContractionHierarchy::build(&graph, &kspin::ch::ChConfig::default());
    let hl = kspin::hl::HubLabels::build(&ch);
    let spawn = idle_spawn();
    for kind in KINDS {
        let pinned = PINNED_TOTALS[kind as usize];
        k_independent_leg(&exec, &workload, kind, "dijkstra", pinned[0], spawn, || {
            DijkstraDistance::new(&graph)
        });
        k_independent_leg(&exec, &workload, kind, "ch", pinned[1], spawn, || {
            ChDistance::new(&ch)
        });
        k_independent_leg(&exec, &workload, kind, "hl", pinned[2], spawn, || {
            HlDistance::new(&hl)
        });
    }

    // The executor legs bound allocations per query; these pin the CH and
    // HL kernels themselves to zero across re-pins, repeats and `s == t`,
    // once a first pass has grown the CH search space to its high water.
    let n = graph.num_vertices() as VertexId;
    let pairs: Vec<(VertexId, VertexId)> = workload
        .iter()
        .flat_map(|q| [q.vertex, 0, n / 2, n - 1].map(|t| (q.vertex, t)))
        .collect();
    let pass = |oracle: &mut dyn NetworkDistance| {
        let before = allocations();
        for &(s, t) in &pairs {
            std::hint::black_box(oracle.distance(s, t));
        }
        allocations() - before
    };
    let mut hl_oracle = HlDistance::new(&hl);
    assert_eq!(
        pass(&mut hl_oracle),
        0,
        "HlDistance::distance allocated after construction"
    );
    let mut ch_oracle = ChDistance::new(&ch);
    pass(&mut ch_oracle);
    assert_eq!(
        pass(&mut ch_oracle),
        0,
        "ChDistance::distance allocated after a warm pass"
    );
}

/// What a thread scope that spawns and joins one idle worker allocates, as
/// every batch's scope does (the executor's crossbeam scope is a
/// `std::thread::scope`). The figure is not the test's to pin: std's
/// thread spawn allocates more while the test harness captures output
/// than under `--nocapture`.
fn idle_spawn() -> u64 {
    let once = || {
        let before = allocations();
        std::thread::scope(|scope| {
            scope.spawn(|| ());
        });
        allocations() - before
    };
    once();
    let spawn = once();
    assert_eq!(spawn, once(), "an idle spawn allocated different amounts");
    spawn
}

/// Serves `kind` at every `k` of [`KS`] through `exec` with oracles made by
/// `make`, and holds each warmed batch to the steady-state contract: the
/// same allocation count at every `k`, equal to `pinned` beyond an idle
/// `spawn`, while heap extractions rise.
fn k_independent_leg<D, F>(
    exec: &BatchExecutor<'_>,
    workload: &[Query],
    kind: Kind,
    oracle: &str,
    pinned: u64,
    spawn: u64,
    make: F,
) where
    D: NetworkDistance,
    F: Fn() -> D + Sync,
{
    let mut counts = Vec::with_capacity(KS.len());
    let mut extractions = Vec::with_capacity(KS.len());
    for k in KS {
        let queries = batch(workload, kind, k);
        let leg = format!("{kind:?} under {oracle} at k = {k}");
        // Warm-up batch: anything lazily initialized on first use happens
        // here.
        exec.execute(&queries, &make);
        let measure = || {
            let before = allocations();
            let out = exec.execute(&queries, &make);
            let total = allocations() - before;
            assert_eq!(
                out.stats.heap_grows, 0,
                "{leg}: a pre-sized heap kernel reallocated while serving"
            );
            (total, out.stats)
        };
        let (second, stats) = measure();
        let (third, _) = measure();
        // Nothing accumulates batch over batch (no growing side tables,
        // no leak-by-retention).
        assert_eq!(
            second, third,
            "{leg}: identical warmed batches allocated different amounts"
        );
        let per_query = second as f64 / queries.len() as f64;
        assert!(
            per_query <= PER_QUERY_BOUND,
            "{leg}: steady-state serving allocates {per_query:.1} times per query \
             (batch total {second})"
        );
        println!(
            "steady-state allocations ({kind:?}, {oracle}, k = {k}): total={second} \
             beyond-spawn={} per-query={per_query:.1} extractions={} dist_calls={} \
             (batch of {})",
            second - spawn,
            stats.heap_extractions,
            stats.dist_computations,
            queries.len()
        );
        counts.push(second);
        extractions.push(stats.heap_extractions);
    }
    assert!(
        counts.iter().all(|&c| c == counts[0]),
        "{kind:?} under {oracle}: allocations grow with k: {counts:?} at k = {KS:?}"
    );
    assert_eq!(
        counts[0] - spawn,
        pinned,
        "{kind:?} under {oracle}: a warmed batch allocates {} times beyond an idle spawn \
         ({spawn}), not the pinned total",
        counts[0] - spawn
    );
    assert!(
        extractions.windows(2).all(|w| w[0] <= w[1]) && extractions[0] < extractions[KS.len() - 1],
        "{kind:?} under {oracle}: extractions {extractions:?} at k = {KS:?} do not rise with k"
    );
}
