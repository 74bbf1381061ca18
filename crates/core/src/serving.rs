//! The serving layer: batch query execution over worker threads.
//!
//! The ROADMAP north star is a system serving heavy traffic, and the
//! related experimental literature is unambiguous that *throughput*, not
//! single-query latency, is the deciding metric at scale. K-SPIN's query
//! side is read-only — [`crate::KspinIndex`], the corpus, the graph and
//! the lower-bound oracle are all shared immutably — so queries
//! parallelize embarrassingly, exactly like index construction does
//! (Observation 3). The [`BatchExecutor`] fans a slice of
//! [`ServingQuery`]s out over N crossbeam-scoped worker threads; each
//! worker owns a private [`QueryEngine`] (its own scratch buffers and
//! distance oracle — the two mutable pieces), and per-worker
//! [`QueryStats`] merge into one aggregate via `AddAssign`.
//!
//! Determinism: workers claim disjoint chunks of the query slice and
//! write results into per-query slots, so the output order is the input
//! order and every query's result is bit-identical to a sequential run —
//! only the *assignment* of queries to threads varies.

use std::sync::atomic::{AtomicUsize, Ordering};

use kspin_graph::{Graph, VertexId, Weight};
use kspin_text::{Corpus, ObjectId, TermId};

use crate::engine::{QueryEngine, QueryStats};
use crate::index::KspinIndex;
use crate::modules::{LowerBound, NetworkDistance};
use crate::query::boolean::BoolExpr;
use crate::query::Op;

/// Queries claimed per fetch: large enough to amortize the atomic, small
/// enough that a straggler query cannot strand much work on one thread.
const CHUNK: usize = 8;

/// One query of a serving batch — the three query families of §2 in
/// self-contained (engine-independent) form.
#[derive(Debug, Clone, PartialEq)]
pub enum ServingQuery {
    /// Boolean kNN (§4.1): `k` nearest objects matching all/any `terms`.
    Bknn {
        /// The query vertex.
        vertex: VertexId,
        /// Result size.
        k: usize,
        /// Query keywords.
        terms: Vec<TermId>,
        /// Conjunctive or disjunctive semantics.
        op: Op,
    },
    /// Top-k by weighted distance (§4.2, Eq. 1).
    TopK {
        /// The query vertex.
        vertex: VertexId,
        /// Result size.
        k: usize,
        /// Query keywords.
        terms: Vec<TermId>,
    },
    /// Mixed ∧/∨ Boolean kNN (§2's remark).
    Boolean {
        /// The query vertex.
        vertex: VertexId,
        /// Result size.
        k: usize,
        /// The Boolean criterion.
        expr: BoolExpr,
    },
}

impl ServingQuery {
    /// Runs this query on `engine` — the single dispatch point shared by
    /// the sequential baseline and every [`BatchExecutor`] worker, so both
    /// paths execute literally the same code per query.
    pub fn run<D: NetworkDistance>(&self, engine: &mut QueryEngine<'_, D>) -> ServingResult {
        match self {
            ServingQuery::Bknn {
                vertex,
                k,
                terms,
                op,
            } => ServingResult::Distances(engine.bknn(*vertex, *k, terms, *op)),
            ServingQuery::TopK { vertex, k, terms } => {
                ServingResult::Scores(engine.top_k(*vertex, *k, terms))
            }
            ServingQuery::Boolean { vertex, k, expr } => {
                ServingResult::Distances(engine.bknn_expr(*vertex, *k, expr))
            }
        }
    }
}

/// The result of one [`ServingQuery`], in the result shape of its family.
#[derive(Debug, Clone, PartialEq)]
pub enum ServingResult {
    /// BkNN family: objects with network distances, ascending.
    Distances(Vec<(ObjectId, Weight)>),
    /// Top-k family: objects with spatio-textual scores, ascending.
    Scores(Vec<(ObjectId, f64)>),
}

/// A completed batch: one result per input query (same order) plus the
/// merged statistics of every worker.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutput {
    /// `results[i]` answers `queries[i]`.
    pub results: Vec<ServingResult>,
    /// Sum of all workers' [`QueryStats`].
    pub stats: QueryStats,
}

/// Fans batches of queries out over worker threads, each owning a private
/// [`QueryEngine`] over the same shared read-only modules.
///
/// ```no_run
/// # use kspin_core::{BatchExecutor, DijkstraDistance, ServingQuery, Op};
/// # let graph: kspin_graph::Graph = unimplemented!();
/// # let corpus: kspin_text::Corpus = unimplemented!();
/// # let index: kspin_core::KspinIndex = unimplemented!();
/// # let alt: kspin_alt::AltIndex = unimplemented!();
/// let exec = BatchExecutor::new(&graph, &corpus, &index, &alt, 8);
/// let queries = vec![ServingQuery::Bknn { vertex: 3, k: 10, terms: vec![0, 1], op: Op::And }];
/// let out = exec.execute(&queries, || DijkstraDistance::new(&graph));
/// ```
pub struct BatchExecutor<'a> {
    graph: &'a Graph,
    corpus: &'a Corpus,
    index: &'a KspinIndex,
    /// `Sync` on top of [`LowerBound`] because every worker shares it.
    /// (`ExactLowerBound` is deliberately not `Sync` — its `RefCell` SSSP
    /// memo is single-threaded; audits run on a sequential engine.)
    lower_bound: &'a (dyn LowerBound + Sync),
    num_threads: usize,
}

impl<'a> BatchExecutor<'a> {
    /// Assembles an executor over the shared framework modules with
    /// exactly `num_threads` workers (at least 1). The count is the
    /// caller's to choose: workers are pure CPU with no blocking I/O, so
    /// more of them than `available_parallelism()` only adds scheduler
    /// churn (EXPERIMENTS.md, "Serving sweep": 0.77× QPS at 8 workers on
    /// a 1-hardware-thread host).
    pub fn new(
        graph: &'a Graph,
        corpus: &'a Corpus,
        index: &'a KspinIndex,
        lower_bound: &'a (dyn LowerBound + Sync),
        num_threads: usize,
    ) -> Self {
        BatchExecutor {
            graph,
            corpus,
            index,
            lower_bound,
            num_threads: num_threads.max(1),
        }
    }

    /// The worker count this executor fans out to (fewer for a batch of
    /// fewer than that many chunks).
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// Executes `queries`, constructing each worker's distance oracle with
    /// `make_dist` (a factory rather than `Clone` so oracles with
    /// per-instance mutable state — every [`NetworkDistance`] impl — get a
    /// fresh instance per thread).
    ///
    /// Results come back in input order regardless of which worker served
    /// which query. Workers claim chunks from a shared atomic cursor, so
    /// load balances dynamically across skewed query costs.
    ///
    /// # Panics
    /// Re-raises the first worker panic (a query panicking on worker `w`
    /// surfaces exactly as it would sequentially).
    pub fn execute<D, F>(&self, queries: &[ServingQuery], make_dist: F) -> BatchOutput
    where
        D: NetworkDistance,
        F: Fn() -> D + Sync,
    {
        let n = queries.len();
        // One worker per chunk at most: a worker with no chunk to claim
        // would build its oracle (|V|-sized arrays) for nothing.
        let workers = self.num_threads.min(n.div_ceil(CHUNK));
        let next = AtomicUsize::new(0);
        // Per-batch bookkeeping: O(num_threads) slots, filled once per
        // execute() call and amortized over the whole batch.
        let mut shards: Vec<(Vec<(usize, ServingResult)>, QueryStats)> = Vec::new();
        let scope_result = crossbeam::thread::scope(|scope| {
            let mut handles = Vec::new();
            for _ in 0..workers {
                let next = &next;
                let make_dist = &make_dist;
                handles.push(scope.spawn(move |_| {
                    let mut engine = QueryEngine::new(
                        self.graph,
                        self.corpus,
                        self.index,
                        self.lower_bound,
                        make_dist(),
                    );
                    // Created once per batch; grows to this worker's share
                    // of the batch, one slot per query.
                    let mut out = Vec::new();
                    loop {
                        let base = next.fetch_add(CHUNK, Ordering::Relaxed);
                        if base >= n {
                            break;
                        }
                        let end = (base + CHUNK).min(n);
                        for (i, q) in queries.iter().enumerate().skip(base).take(end - base) {
                            out.push((i, q.run(&mut engine)));
                        }
                    }
                    (out, engine.stats())
                }));
            }
            shards = handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(shard) => shard,
                    // Re-raise the worker's own panic payload (same
                    // pattern as index construction).
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect();
        });
        if let Err(payload) = scope_result {
            // Unreachable: every handle is joined above; re-raise to
            // preserve the payload if it somehow triggers.
            std::panic::resume_unwind(payload);
        }

        let mut slots: Vec<Option<ServingResult>> = (0..n).map(|_| None).collect();
        let mut stats = QueryStats::default();
        for (shard, worker_stats) in shards {
            stats += worker_stats;
            #[expect(
                clippy::indexing_slicing,
                reason = "workers only emit indexes of `queries`, and slots was built with \
                          one slot per query"
            )]
            for (i, r) in shard {
                slots[i] = Some(r);
            }
        }
        #[expect(
            clippy::panic,
            reason = "the chunk cursor covers 0..n exactly once (see above)"
        )]
        let results = slots
            .into_iter()
            .enumerate()
            .map(|(i, r)| match r {
                Some(r) => r,
                // Unreachable: the cursor hands every index to exactly one
                // worker and all workers were joined. Losing a result
                // silently would corrupt the batch ↔ result pairing, so
                // this stays a loud panic rather than a default answer.
                None => panic!("query {i} was claimed by no worker"),
            })
            .collect();
        BatchOutput { results, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::KspinConfig;
    use crate::modules::DijkstraDistance;
    use kspin_alt::{AltIndex, LandmarkStrategy};
    use kspin_graph::generate::{road_network, RoadNetworkConfig};
    use kspin_text::generate::{corpus as gen_corpus, CorpusConfig};

    fn fixture() -> (Graph, Corpus, AltIndex, KspinIndex) {
        let graph = road_network(&RoadNetworkConfig::new(700, 77));
        let mut cc = CorpusConfig::new(graph.num_vertices(), 78);
        cc.object_fraction = 0.1;
        let (corpus, _) = gen_corpus(&cc);
        let alt = AltIndex::build(&graph, 8, LandmarkStrategy::Farthest, 77);
        let index = KspinIndex::build(
            &graph,
            &corpus,
            &KspinConfig {
                rho: 4,
                num_threads: 2,
            },
        );
        (graph, corpus, alt, index)
    }

    fn workload(corpus: &Corpus, num_vertices: usize) -> Vec<ServingQuery> {
        let frequent: Vec<TermId> = (0..corpus.num_terms() as TermId)
            .filter(|&t| corpus.inv_len(t) >= 2)
            .take(6)
            .collect();
        assert!(frequent.len() >= 3, "fixture corpus too sparse");
        (0..60)
            .map(|i| {
                let v = (i * 37) % num_vertices as VertexId;
                let t0 = frequent[i as usize % frequent.len()];
                let t1 = frequent[(i as usize + 1) % frequent.len()];
                match i % 3 {
                    0 => ServingQuery::Bknn {
                        vertex: v,
                        k: 5,
                        terms: vec![t0, t1],
                        op: Op::Or,
                    },
                    1 => ServingQuery::TopK {
                        vertex: v,
                        k: 5,
                        terms: vec![t0, t1],
                    },
                    _ => ServingQuery::Boolean {
                        vertex: v,
                        k: 5,
                        expr: BoolExpr::any(&[t0, t1]),
                    },
                }
            })
            .collect()
    }

    #[test]
    fn batch_matches_sequential_at_any_thread_count() {
        let (graph, corpus, alt, index) = fixture();
        let queries = workload(&corpus, graph.num_vertices());
        let mut engine =
            QueryEngine::new(&graph, &corpus, &index, &alt, DijkstraDistance::new(&graph));
        let sequential: Vec<ServingResult> = queries.iter().map(|q| q.run(&mut engine)).collect();
        for threads in [1, 2, 8] {
            let exec = BatchExecutor::new(&graph, &corpus, &index, &alt, threads);
            let out = exec.execute(&queries, || DijkstraDistance::new(&graph));
            assert_eq!(out.results, sequential, "{threads} threads diverged");
        }
    }

    #[test]
    fn zero_workers_means_one() {
        let (graph, corpus, alt, index) = fixture();
        let exec = BatchExecutor::new(&graph, &corpus, &index, &alt, 0);
        assert_eq!(exec.num_threads(), 1);
    }

    #[test]
    fn batch_stats_match_sequential_totals() {
        let (graph, corpus, alt, index) = fixture();
        let queries = workload(&corpus, graph.num_vertices());
        let mut engine =
            QueryEngine::new(&graph, &corpus, &index, &alt, DijkstraDistance::new(&graph));
        for q in &queries {
            q.run(&mut engine);
        }
        let exec = BatchExecutor::new(&graph, &corpus, &index, &alt, 4);
        let out = exec.execute(&queries, || DijkstraDistance::new(&graph));
        // Every counter is query-deterministic, so the merged worker
        // stats must equal the sequential totals exactly.
        assert_eq!(out.stats, engine.stats());
        assert!(out.stats.heap_extractions > 0);
    }

    #[test]
    fn empty_batch_is_fine() {
        let (graph, corpus, alt, index) = fixture();
        let exec = BatchExecutor::new(&graph, &corpus, &index, &alt, 4);
        let built = AtomicUsize::new(0);
        let out = exec.execute(&[], || {
            built.fetch_add(1, Ordering::Relaxed);
            DijkstraDistance::new(&graph)
        });
        assert!(out.results.is_empty());
        assert_eq!(out.stats, QueryStats::default());
        assert_eq!(built.into_inner(), 0, "an empty batch built an oracle");
    }

    #[test]
    fn one_oracle_per_worker_with_a_chunk_to_claim() {
        let (graph, corpus, alt, index) = fixture();
        let queries = workload(&corpus, graph.num_vertices());
        let exec = BatchExecutor::new(&graph, &corpus, &index, &alt, 4);
        for (n, oracles) in [(0, 0), (5, 1), (4 * CHUNK, 4)] {
            let batch = &queries[..n];
            let mut engine =
                QueryEngine::new(&graph, &corpus, &index, &alt, DijkstraDistance::new(&graph));
            let sequential: Vec<ServingResult> = batch.iter().map(|q| q.run(&mut engine)).collect();
            let built = AtomicUsize::new(0);
            let out = exec.execute(batch, || {
                built.fetch_add(1, Ordering::Relaxed);
                DijkstraDistance::new(&graph)
            });
            assert_eq!(built.into_inner(), oracles, "{n} queries on 4 workers");
            assert_eq!(out.results, sequential, "{n} queries diverged");
            assert_eq!(out.stats, engine.stats(), "{n} queries: stats diverged");
        }
    }
}
