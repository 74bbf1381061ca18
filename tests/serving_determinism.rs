//! Serving-layer determinism: the `BatchExecutor` must be a pure
//! throughput optimization — at any thread count, results are
//! bit-identical to a sequential `QueryEngine` loop, including after §6.2
//! updates.

use kspin::prelude::*;
use kspin_core::BoolExpr;
use kspin_text::workload::{zipf_queries, ZipfWorkloadConfig};

struct Fixture {
    graph: Graph,
    corpus: Corpus,
    alt: kspin::alt::AltIndex,
    index: KspinIndex,
    queries: Vec<ServingQuery>,
}

fn fixture() -> Fixture {
    let graph = kspin::graph::generate::road_network(
        &kspin::graph::generate::RoadNetworkConfig::new(1_200, 2026),
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
    // The fixed 200-query workload: Zipf-hot keywords over a small vertex
    // pool, cycled through all three query families.
    let zipf = zipf_queries(
        &corpus,
        &ZipfWorkloadConfig {
            num_queries: 200,
            terms_per_query: 2,
            zipf_exponent: 1.0,
            hot_vertex_pool: 24,
            seed: 41,
        },
        graph.num_vertices(),
    );
    let queries: Vec<ServingQuery> = zipf
        .iter()
        .enumerate()
        .map(|(i, q)| match i % 4 {
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
            2 => ServingQuery::TopK {
                vertex: q.vertex,
                k: 8,
                terms: q.terms.clone(),
            },
            _ => ServingQuery::Boolean {
                vertex: q.vertex,
                k: 8,
                expr: BoolExpr::And(vec![BoolExpr::Term(q.terms[0]), BoolExpr::any(&q.terms)]),
            },
        })
        .collect();
    Fixture {
        graph,
        corpus,
        alt,
        index,
        queries,
    }
}

/// Sequential reference run on one engine.
fn sequential(f: &Fixture) -> Vec<ServingResult> {
    let mut engine = QueryEngine::new(
        &f.graph,
        &f.corpus,
        &f.index,
        &f.alt,
        DijkstraDistance::new(&f.graph),
    );
    f.queries.iter().map(|q| q.run(&mut engine)).collect()
}

fn assert_batches_match(f: &Fixture, reference: &[ServingResult]) {
    for threads in [1, 2, 8] {
        // The count is taken as given: the 8-worker leg really runs 8
        // workers even on a 1-core host.
        let exec = BatchExecutor::new(&f.graph, &f.corpus, &f.index, &f.alt, threads);
        let out = exec.execute(&f.queries, || DijkstraDistance::new(&f.graph));
        assert_eq!(
            out.results, reference,
            "{threads}-thread run diverged from the sequential run"
        );
        // The d-ary kernel under every search: real heap traffic.
        assert!(out.stats.heap_pops > 0, "workload produced no heap traffic");
        assert!(out.stats.heap_pushes >= out.stats.heap_pops);
        // Pre-sized kernels never grow their entry arrays while serving.
        assert_eq!(
            out.stats.heap_grows, 0,
            "a heap kernel reallocated while serving"
        );
    }
}

#[test]
fn batch_executor_matches_sequential_cold_at_all_thread_counts() {
    let f = fixture();
    let reference = sequential(&f);
    assert_batches_match(&f, &reference);
}

/// Live §6.2 update stream: several epochs of interleaved deletes and
/// re-inserts. After EVERY epoch, parallel serving must still be
/// bit-identical to a sequential run over the post-update index — the
/// dynamic twin of the serving crates' crate-level
/// `#![deny(clippy::disallowed_types, clippy::disallowed_methods)]`, which
/// keeps hashed containers, clocks and host-shape reads out statically.
#[test]
fn batch_executor_stays_deterministic_across_live_update_stream() {
    let mut f = fixture();

    // Objects of queried keywords, so updates change served answers.
    let mut touched: Vec<ObjectId> = f
        .queries
        .iter()
        .filter_map(|q| match q {
            ServingQuery::Bknn { terms, .. } | ServingQuery::TopK { terms, .. } => {
                f.corpus.inverted(terms[0]).first().map(|p| p.object)
            }
            ServingQuery::Boolean { .. } => None,
        })
        .collect();
    touched.sort_unstable();
    touched.dedup();
    touched.truncate(9);
    assert!(touched.len() >= 6, "workload touched too few objects");

    let mut dist = DijkstraDistance::new(&f.graph);
    for (epoch, batch) in touched.chunks(3).enumerate() {
        // Delete the epoch's batch, re-insert a prefix of it.
        for &o in batch {
            f.index.delete_object(&f.corpus, o);
        }
        for &o in batch.iter().take(epoch % batch.len().max(1)) {
            f.index.insert_object(&f.graph, &f.corpus, o, &mut dist);
        }

        // After every update epoch the parallel executor equals the
        // sequential reference.
        let reference = sequential(&f);
        assert_batches_match(&f, &reference);
    }
}

/// Snapshot persistence must be invisible at the serving boundary: save
/// the whole deployment, reload it from bytes, and every batch — at any
/// thread count, on graph searches and on the exact distances of the
/// hierarchy that rode through the snapshot — answers bit-identically to
/// the sequential reference over the *originally built* structures. A §6.2
/// update epoch applied to the reloaded engine then must land exactly
/// where the same epoch lands on a never-snapshotted build.
#[test]
fn snapshot_reload_is_invisible_to_serving() {
    let f = fixture();
    let reference = sequential(&f);

    // The fixture discards its vocabulary; regenerate it with the same
    // deterministic config to assemble a full system for the save.
    let mut cc = kspin::text::generate::CorpusConfig::new(f.graph.num_vertices(), 2027);
    cc.object_fraction = 0.1;
    let (_, vocab) = kspin::text::generate::corpus(&cc);
    let ch = kspin::ch::ContractionHierarchy::build(&f.graph, &kspin::ch::ChConfig::default());
    let system = KspinSystem {
        graph: f.graph,
        corpus: f.corpus,
        vocab,
        alt: f.alt,
        index: f.index,
    };
    let bytes = system.save_snapshot(&kspin::snapshot::SnapshotExtras { ch: Some(ch) });
    drop(system); // only the bytes survive
    let (mut sys, extras) = KspinSystem::load_snapshot(&bytes).expect("snapshot loads");
    let pch = extras.ch.expect("ch rides along");

    for threads in [1, 4] {
        let exec = BatchExecutor::new(&sys.graph, &sys.corpus, &sys.index, &sys.alt, threads);
        let dijkstra = exec.execute(&f.queries, || DijkstraDistance::new(&sys.graph));
        assert_eq!(
            dijkstra.results, reference,
            "reloaded {threads}-thread Dijkstra run diverged"
        );
        let ch = exec.execute(&f.queries, || kspin::adapters::ChDistance::new(&pch));
        assert_eq!(
            ch.results, reference,
            "reloaded {threads}-thread CH run diverged"
        );
    }

    // The same §6.2 epoch on the reloaded engine and on a fresh
    // build: delete a batch of queried objects, re-insert half.
    let mut touched: Vec<ObjectId> = f
        .queries
        .iter()
        .filter_map(|q| match q {
            ServingQuery::Bknn { terms, .. } | ServingQuery::TopK { terms, .. } => {
                sys.corpus.inverted(terms[0]).first().map(|p| p.object)
            }
            ServingQuery::Boolean { .. } => None,
        })
        .collect();
    touched.sort_unstable();
    touched.dedup();
    touched.truncate(6);
    assert!(touched.len() >= 2, "workload touched too few objects");

    let mut f2 = fixture();
    let mut dist2 = DijkstraDistance::new(&f2.graph);
    let mut dist = DijkstraDistance::new(&sys.graph);
    for &o in &touched {
        sys.index.delete_object(&sys.corpus, o);
        f2.index.delete_object(&f2.corpus, o);
    }
    for &o in touched.iter().step_by(2) {
        sys.index
            .insert_object(&sys.graph, &sys.corpus, o, &mut dist);
        f2.index.insert_object(&f2.graph, &f2.corpus, o, &mut dist2);
    }
    let reference2 = sequential(&f2);
    for threads in [1, 4] {
        let exec = BatchExecutor::new(&sys.graph, &sys.corpus, &sys.index, &sys.alt, threads);
        let out = exec.execute(&f.queries, || DijkstraDistance::new(&sys.graph));
        assert_eq!(
            out.results, reference2,
            "post-load epoch {threads}-thread run diverged from the fresh build"
        );
    }
}

#[test]
fn batch_executor_stays_deterministic_after_updates() {
    let mut f = fixture();

    // §6.2 lazy updates on objects of queried keywords: delete a batch,
    // re-insert half of it.
    let mut touched: Vec<ObjectId> = f
        .queries
        .iter()
        .filter_map(|q| match q {
            ServingQuery::Bknn { terms, .. } | ServingQuery::TopK { terms, .. } => {
                f.corpus.inverted(terms[0]).first().map(|p| p.object)
            }
            ServingQuery::Boolean { .. } => None,
        })
        .collect();
    touched.sort_unstable();
    touched.dedup();
    touched.truncate(6);
    assert!(touched.len() >= 2, "workload touched too few objects");
    let mut dist = DijkstraDistance::new(&f.graph);
    for &o in &touched {
        f.index.delete_object(&f.corpus, o);
    }
    for &o in touched.iter().step_by(2) {
        f.index.insert_object(&f.graph, &f.corpus, o, &mut dist);
    }

    // Post-update: parallel must again equal sequential.
    let reference = sequential(&f);
    assert_batches_match(&f, &reference);
}
