//! End-to-end exactness: every K-SPIN query processor must return exactly
//! what the network-expansion oracle returns, across operators, k values,
//! keyword counts, ρ values, distance modules, and after updates.

use kspin_alt::{AltIndex, LandmarkStrategy};
use kspin_core::query::baseline::{brute_bknn, brute_topk};
use kspin_core::{
    BatchExecutor, BoolExpr, DijkstraDistance, KspinConfig, KspinIndex, LowerBound, Op,
    QueryEngine, ServingQuery, ServingResult,
};
use kspin_graph::generate::{road_network, RoadNetworkConfig};
use kspin_graph::{Graph, VertexId, Weight};
use kspin_text::generate::{corpus as gen_corpus, CorpusConfig};
use kspin_text::workload::{query_vectors, WorkloadConfig};
use kspin_text::{Corpus, ObjectId, TermId};

struct World {
    graph: Graph,
    corpus: Corpus,
    alt: AltIndex,
    index: KspinIndex,
}

fn world(n: usize, seed: u64, rho: usize) -> World {
    let graph = road_network(&RoadNetworkConfig::new(n, seed));
    let mut cc = CorpusConfig::new(graph.num_vertices(), seed ^ 0xabc);
    cc.object_fraction = 0.08;
    let (corpus, _) = gen_corpus(&cc);
    let alt = AltIndex::build(&graph, 8, LandmarkStrategy::Farthest, seed);
    let index = KspinIndex::build(
        &graph,
        &corpus,
        &KspinConfig {
            rho,
            list_max: rho,
            num_threads: 2,
        },
    );
    World {
        graph,
        corpus,
        alt,
        index,
    }
}

fn engine(w: &World) -> QueryEngine<'_, DijkstraDistance<'_>> {
    QueryEngine::new(
        &w.graph,
        &w.corpus,
        &w.index,
        &w.alt,
        DijkstraDistance::new(&w.graph),
    )
}

fn vectors(w: &World, len: usize) -> Vec<Vec<TermId>> {
    let cfg = WorkloadConfig {
        seed_terms: vec![0, 1, 2, 3, 4],
        objects_per_term: 2,
        vertices_per_vector: 1,
        seed: 7,
    };
    query_vectors(&w.corpus, &cfg, len)
}

/// Distances must match exactly; object identity may differ only on ties.
fn assert_same_distances(got: &[(ObjectId, Weight)], want: &[(ObjectId, Weight)], label: &str) {
    let gd: Vec<Weight> = got.iter().map(|&(_, d)| d).collect();
    let wd: Vec<Weight> = want.iter().map(|&(_, d)| d).collect();
    assert_eq!(
        gd, wd,
        "{label}: distances differ\ngot  {got:?}\nwant {want:?}"
    );
}

fn assert_same_scores(got: &[(ObjectId, f64)], want: &[(ObjectId, f64)], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: result counts differ");
    for (i, ((_, gs), (_, ws))) in got.iter().zip(want).enumerate() {
        assert!(
            (gs - ws).abs() < 1e-9,
            "{label}: score {i} differs: {gs} vs {ws}\ngot  {got:?}\nwant {want:?}"
        );
    }
}

/// Brute-force BkNN over the `live` objects satisfying `expr`.
fn brute_expr(
    w: &World,
    q: VertexId,
    k: usize,
    expr: &BoolExpr,
    live: impl Fn(ObjectId) -> bool,
) -> Vec<(ObjectId, Weight)> {
    let mut dij = kspin_graph::Dijkstra::new(w.graph.num_vertices());
    dij.sssp(&w.graph, q);
    let space = dij.space();
    let mut want: Vec<(ObjectId, Weight)> = (0..w.corpus.num_objects() as ObjectId)
        .filter(|&o| live(o) && expr.matches(&w.corpus, o))
        .filter_map(|o| space.distance(w.corpus.vertex_of(o)).map(|d| (o, d)))
        .collect();
    want.sort_unstable_by_key(|&(o, d)| (d, o));
    want.truncate(k);
    want
}

/// `t0 ∧ (t1 ∨ t2)` — §2's "Thai and (takeaway or restaurant)".
fn t0_and_t1_or_t2(ts: &[TermId]) -> BoolExpr {
    BoolExpr::And(vec![BoolExpr::Term(ts[0]), BoolExpr::any(&[ts[1], ts[2]])])
}

#[test]
fn bknn_matches_oracle_across_k_and_ops() {
    let w = world(800, 11, 5);
    let mut e = engine(&w);
    for terms in vectors(&w, 2) {
        for q in [3u32, 177, 555] {
            for k in [1usize, 5, 10] {
                for op in [Op::And, Op::Or] {
                    let got = e.bknn(q, k, &terms, op);
                    let want = brute_bknn(&w.graph, &w.corpus, q, k, &terms, op);
                    assert_same_distances(
                        &got,
                        &want,
                        &format!("q={q} k={k} op={op:?} terms={terms:?}"),
                    );
                }
            }
        }
    }
}

#[test]
fn bknn_matches_oracle_across_term_counts() {
    let w = world(800, 13, 5);
    let mut e = engine(&w);
    for len in 1..=4 {
        for terms in vectors(&w, len).into_iter().take(3) {
            for op in [Op::And, Op::Or] {
                let got = e.bknn(42, 5, &terms, op);
                let want = brute_bknn(&w.graph, &w.corpus, 42, 5, &terms, op);
                assert_same_distances(&got, &want, &format!("len={len} op={op:?}"));
            }
        }
    }
}

#[test]
fn topk_matches_oracle() {
    let w = world(800, 17, 5);
    let mut e = engine(&w);
    for len in 1..=3 {
        for terms in vectors(&w, len).into_iter().take(4) {
            for q in [9u32, 250, 700] {
                for k in [1usize, 5, 10] {
                    let got = e.top_k(q, k, &terms);
                    let want = brute_topk(&w.graph, &w.corpus, q, k, &terms);
                    assert_same_scores(&got, &want, &format!("q={q} k={k} terms={terms:?}"));
                }
            }
        }
    }
}

#[test]
fn results_are_exact_for_every_rho() {
    // §6.1: approximation affects performance only — results stay exact.
    for rho in [1usize, 3, 7, 11] {
        let w = world(500, 19, rho);
        let mut e = engine(&w);
        let terms = vectors(&w, 2).remove(0);
        let got = e.bknn(77, 5, &terms, Op::Or);
        let want = brute_bknn(&w.graph, &w.corpus, 77, 5, &terms, Op::Or);
        assert_same_distances(&got, &want, &format!("rho={rho}"));
        let got = e.top_k(77, 5, &terms);
        let want = brute_topk(&w.graph, &w.corpus, 77, 5, &terms);
        assert_same_scores(&got, &want, &format!("rho={rho}"));
    }
}

#[test]
fn mixed_boolean_expression_matches_filtered_brute_force() {
    let w = world(700, 23, 5);
    let mut e = engine(&w);
    let ts = vectors(&w, 3).remove(0);
    for expr in [
        t0_and_t1_or_t2(&ts),
        // An unsatisfiable operand adds nothing to a disjunction — it must
        // not make the whole query unsatisfiable.
        BoolExpr::Or(vec![BoolExpr::Term(ts[0]), BoolExpr::Or(vec![])]),
    ] {
        for q in [5u32, 340] {
            let got = e.bknn_expr(q, 5, &expr);
            let want = brute_expr(&w, q, 5, &expr, |_| true);
            assert!(!want.is_empty(), "{expr:?} matches something");
            assert_same_distances(&got, &want, &format!("{expr:?} q={q}"));
        }
    }
}

#[test]
fn bknn_ops_and_their_expression_trees_are_one_query() {
    // `Op::Or` / `Op::And` and `BoolExpr::any` / `all` only plan differently;
    // on a fresh index (live counts = inverted-list lengths) both planners
    // pick the same driving keywords, so answers *and* work done coincide.
    let w = world(800, 11, 5);
    let mut e = engine(&w);
    for len in [2, 3] {
        for mut terms in vectors(&w, len) {
            // Sorted, so both planners break driver ties the same way.
            terms.sort_unstable();
            terms.dedup();
            for (op, expr) in [
                (Op::Or, BoolExpr::any(&terms)),
                (Op::And, BoolExpr::all(&terms)),
            ] {
                for q in [3u32, 555] {
                    e.reset_stats();
                    let by_op = (e.bknn(q, 5, &terms, op), e.stats());
                    e.reset_stats();
                    let by_expr = (e.bknn_expr(q, 5, &expr), e.stats());
                    assert_eq!(by_op, by_expr, "q={q} op={op:?} terms={terms:?}");
                }
            }
        }
    }
}

#[test]
fn query_on_unused_keywords_returns_empty() {
    let w = world(400, 29, 5);
    let mut e = engine(&w);
    let unused = (0..w.corpus.num_terms() as TermId)
        .find(|&t| w.corpus.inv_len(t) == 0)
        .expect("corpus has an unused term");
    assert!(e.bknn(0, 5, &[unused], Op::Or).is_empty());
    assert!(e.bknn(0, 5, &[unused, 0], Op::And).is_empty());
    assert!(e.top_k(0, 5, &[unused]).is_empty());
    // Disjunction with one live keyword still answers.
    assert!(!e.bknn(0, 5, &[unused, 0], Op::Or).is_empty());
}

/// A query vertex is caller input, not a built id: out of range it gets
/// the answer unknown keywords get — empty — from every processor, and
/// inside a batch it must not take the other queries down with it.
#[test]
fn out_of_range_query_vertex_returns_empty() {
    let w = world(400, 29, 5);
    let mut e = engine(&w);
    for q in [w.graph.num_vertices() as VertexId, VertexId::MAX] {
        assert!(e.bknn(q, 5, &[0, 1], Op::Or).is_empty());
        assert!(e.bknn(q, 5, &[0, 1], Op::And).is_empty());
        assert!(e.top_k(q, 5, &[0, 1]).is_empty());
        assert!(e.bknn_expr(q, 5, &BoolExpr::any(&[0, 1])).is_empty());
    }

    let valid = |vertex: VertexId| ServingQuery::Bknn {
        vertex,
        k: 5,
        terms: vec![0, 1],
        op: Op::Or,
    };
    let mut batch: Vec<ServingQuery> = (0..20).map(|i| valid(i * 7)).collect();
    batch.insert(11, valid(w.graph.num_vertices() as VertexId));
    let exec = BatchExecutor::new(&w.graph, &w.corpus, &w.index, &w.alt, 2);
    let out = exec.execute(&batch, || DijkstraDistance::new(&w.graph));
    for (i, (query, got)) in batch.iter().zip(&out.results).enumerate() {
        assert_eq!(got, &query.run(&mut e), "batch slot {i}");
    }
    assert_eq!(out.results[11], ServingResult::Distances(Vec::new()));
}

#[test]
fn query_from_object_vertex_returns_it_first() {
    let w = world(400, 31, 5);
    let mut e = engine(&w);
    // Pick an object and query from its own vertex with its first keyword.
    let o: ObjectId = 3.min(w.corpus.num_objects() as u32 - 1);
    let t = w.corpus.doc(o)[0].term;
    let q = w.corpus.vertex_of(o);
    let got = e.bknn(q, 1, &[t], Op::Or);
    assert_eq!(got[0].1, 0, "nearest object at distance 0");
}

#[test]
fn duplicate_query_terms_are_harmless() {
    let w = world(400, 37, 5);
    let mut e = engine(&w);
    let a = e.bknn(10, 5, &[0, 0, 1, 1], Op::Or);
    let b = e.bknn(10, 5, &[0, 1], Op::Or);
    assert_eq!(a, b);
    let ta = e.top_k(10, 5, &[0, 0, 1]);
    let tb = e.top_k(10, 5, &[0, 1]);
    assert_eq!(ta.len(), tb.len());
}

#[test]
fn kappa_stays_a_small_multiple_of_k() {
    // §5.1: in practice κ ≤ 3k for BkNN and ≤ 5k for top-k. Give slack for
    // small synthetic corpora (plus the ρ initialization overhead).
    let w = world(900, 41, 5);
    let mut e = engine(&w);
    let terms = vectors(&w, 2).remove(0);
    let k = 10;
    e.reset_stats();
    let _ = e.bknn(123, k, &terms, Op::Or);
    let kappa = e.stats().heap_extractions;
    assert!(
        kappa <= 8 * k + 20,
        "BkNN κ = {kappa} too large for k = {k}"
    );
    e.reset_stats();
    let _ = e.top_k(123, k, &terms);
    let kappa = e.stats().heap_extractions;
    assert!(
        kappa <= 12 * k + 20,
        "top-k κ = {kappa} too large for k = {k}"
    );
}

#[test]
fn stats_count_distance_computations() {
    let w = world(500, 43, 5);
    let mut e = engine(&w);
    e.reset_stats();
    let res = e.bknn(7, 3, &[0], Op::Or);
    let s = e.stats();
    assert!(s.dist_computations >= res.len());
    assert!(s.heap_extractions >= s.dist_computations);
    assert!(s.lb_computations > 0);
}

/// Counts the calls an engine makes into its Lower Bounding Module.
struct CountingBound<'a> {
    inner: &'a AltIndex,
    calls: std::cell::Cell<usize>,
}

impl LowerBound for CountingBound<'_> {
    fn lower_bound(&self, s: VertexId, t: VertexId) -> Weight {
        self.calls.set(self.calls.get() + 1);
        self.inner.lower_bound(s, t)
    }
}

#[test]
fn lb_computations_count_heaps_discarded_as_all_deleted() {
    // §6.2-delete every object of one NVD-backed and one list keyword:
    // whatever cell the query falls in, the heap's seeds (and everything
    // LazyReheap expands from them) are deleted, so the Heap Generator
    // hands the query loop no heap — the lower bounds it spent finding
    // that out must still reach `QueryStats`.
    let mut w = world(700, 47, 4);
    let by_len = |range: std::ops::RangeInclusive<usize>| {
        (0..w.corpus.num_terms() as TermId)
            .find(|&t| range.contains(&w.corpus.inv_len(t)))
            .expect("corpus has no such keyword")
    };
    let (frequent, rare) = (by_len(9..=usize::MAX), by_len(2..=4));
    let mut objects: Vec<ObjectId> = [frequent, rare]
        .iter()
        .flat_map(|&t| w.corpus.inverted(t).iter().map(|p| p.object))
        .collect();
    objects.sort_unstable();
    objects.dedup();
    for o in objects {
        w.index.delete_object(&w.corpus, o);
    }
    let live = by_len(5..=8);
    let bound = CountingBound {
        inner: &w.alt,
        calls: std::cell::Cell::new(0),
    };
    let mut e = QueryEngine::new(
        &w.graph,
        &w.corpus,
        &w.index,
        &bound,
        DijkstraDistance::new(&w.graph),
    );
    for q in [3u32, 410] {
        for terms in [vec![frequent, live], vec![rare, live], vec![frequent, rare]] {
            for topk in [false, true] {
                e.reset_stats();
                bound.calls.set(0);
                if topk {
                    e.top_k(q, 5, &terms);
                } else {
                    e.bknn(q, 5, &terms, Op::Or);
                }
                assert!(bound.calls.get() >= w.corpus.inv_len(terms[0]));
                assert_eq!(
                    e.stats().lb_computations,
                    bound.calls.get(),
                    "q={q} terms={terms:?} topk={topk}"
                );
            }
        }
    }
}

/// Brute-force top-k over the `live` objects: Eq. 1 under cosine
/// relevance, from one full Dijkstra.
fn brute_topk_with(
    w: &World,
    q: u32,
    k: usize,
    terms: &[TermId],
    live: impl Fn(ObjectId) -> bool,
) -> Vec<f64> {
    let query = kspin_text::QueryTerms::new(&w.corpus, terms);
    let mut dij = kspin_graph::Dijkstra::new(w.graph.num_vertices());
    dij.sssp(&w.graph, q);
    let space = dij.space();
    let mut scores: Vec<f64> = (0..w.corpus.num_objects() as ObjectId)
        .filter(|&o| live(o))
        .filter_map(|o| {
            let tr = query.relevance(&w.corpus, o);
            if tr <= 0.0 {
                return None; // candidates must share a keyword (§2)
            }
            let d = space.distance(w.corpus.vertex_of(o))?;
            Some(kspin_text::score(d, tr))
        })
        .collect();
    scores.sort_by(f64::total_cmp);
    scores.truncate(k);
    scores
}

// ---- updates ----------------------------------------------------------

#[test]
fn results_stay_exact_after_lazy_insertions() {
    // Build over 70% of objects, lazily insert the rest, then compare with
    // the full-corpus oracle (Fig. 8(a)'s setting).
    let w0 = world(700, 47, 5);
    let cut = |o: ObjectId| o % 10 < 7;
    let mut index = KspinIndex::build_filtered(
        &w0.graph,
        &w0.corpus,
        cut,
        &KspinConfig {
            rho: 5,
            list_max: 5,
            num_threads: 2,
        },
    );
    let mut dist = DijkstraDistance::new(&w0.graph);
    for o in 0..w0.corpus.num_objects() as ObjectId {
        if !cut(o) {
            index.insert_object(&w0.graph, &w0.corpus, o, &mut dist);
        }
    }
    let mut e = QueryEngine::new(
        &w0.graph,
        &w0.corpus,
        &index,
        &w0.alt,
        DijkstraDistance::new(&w0.graph),
    );
    for terms in vectors(&w0, 2).into_iter().take(3) {
        for q in [31u32, 444] {
            let got = e.bknn(q, 5, &terms, Op::Or);
            let want = brute_bknn(&w0.graph, &w0.corpus, q, 5, &terms, Op::Or);
            assert_same_distances(&got, &want, "after lazy insertions");
            let got = e.bknn(q, 5, &terms, Op::And);
            let want = brute_bknn(&w0.graph, &w0.corpus, q, 5, &terms, Op::And);
            assert_same_distances(&got, &want, "∧ after lazy insertions");
            let got = e.top_k(q, 5, &terms);
            let want = brute_topk(&w0.graph, &w0.corpus, q, 5, &terms);
            assert_same_scores(&got, &want, "top-k after lazy insertions");
        }
    }
    for ts in vectors(&w0, 3).into_iter().take(3) {
        let expr = t0_and_t1_or_t2(&ts);
        for q in [31u32, 444] {
            let got = e.bknn_expr(q, 5, &expr);
            let want = brute_expr(&w0, q, 5, &expr, |_| true);
            assert_same_distances(&got, &want, "expr after lazy insertions");
        }
    }
}

#[test]
fn results_stay_exact_after_deletions() {
    let w = world(700, 53, 5);
    let mut index = KspinIndex::build(
        &w.graph,
        &w.corpus,
        &KspinConfig {
            rho: 5,
            list_max: 5,
            num_threads: 2,
        },
    );
    // Delete every 5th object.
    let deleted: Vec<ObjectId> = (0..w.corpus.num_objects() as ObjectId)
        .filter(|o| o % 5 == 0)
        .collect();
    for &o in &deleted {
        index.delete_object(&w.corpus, o);
    }
    let mut e = QueryEngine::new(
        &w.graph,
        &w.corpus,
        &index,
        &w.alt,
        DijkstraDistance::new(&w.graph),
    );
    let is_deleted = |o: ObjectId| o.is_multiple_of(5);
    for terms in vectors(&w, 2).into_iter().take(3) {
        for q in [8u32, 600] {
            let got = e.bknn(q, 5, &terms, Op::Or);
            for &(o, _) in &got {
                assert!(!is_deleted(o), "deleted object {o} returned");
            }
            // Oracle over the live subset.
            let want = brute_expr(&w, q, 5, &BoolExpr::any(&terms), |o| !is_deleted(o));
            assert_same_distances(&got, &want, "after deletions");
            let got = e.bknn(q, 5, &terms, Op::And);
            let want = brute_expr(&w, q, 5, &BoolExpr::all(&terms), |o| !is_deleted(o));
            assert_same_distances(&got, &want, "∧ after deletions");
            let got = e.top_k(q, 5, &terms);
            for &(o, _) in &got {
                assert!(!is_deleted(o), "deleted object {o} ranked by top-k");
            }
            let want = brute_topk_with(&w, q, 5, &terms, |o| !is_deleted(o));
            assert_eq!(got.len(), want.len(), "top-k after deletions");
            for ((_, gs), ws) in got.iter().zip(&want) {
                assert!((gs - ws).abs() < 1e-9, "top-k after deletions q={q}");
            }
        }
    }
    for ts in vectors(&w, 3).into_iter().take(3) {
        let expr = t0_and_t1_or_t2(&ts);
        for q in [8u32, 600] {
            let got = e.bknn_expr(q, 5, &expr);
            let want = brute_expr(&w, q, 5, &expr, |o| !is_deleted(o));
            assert_same_distances(&got, &want, "expr after deletions");
        }
    }
}

#[test]
fn rebuild_after_updates_preserves_results() {
    let w = world(600, 59, 5);
    let mut index = KspinIndex::build_filtered(
        &w.graph,
        &w.corpus,
        |o| o % 2 == 0,
        &KspinConfig {
            rho: 5,
            list_max: 5,
            num_threads: 2,
        },
    );
    let mut dist = DijkstraDistance::new(&w.graph);
    for o in 0..w.corpus.num_objects() as ObjectId {
        if o % 2 == 1 {
            index.insert_object(&w.graph, &w.corpus, o, &mut dist);
        }
    }
    // Rebuild every keyword's index and re-check exactness.
    for t in 0..w.corpus.num_terms() as TermId {
        index.rebuild_term(&w.graph, &w.corpus, t);
    }
    let mut e = QueryEngine::new(
        &w.graph,
        &w.corpus,
        &index,
        &w.alt,
        DijkstraDistance::new(&w.graph),
    );
    let terms = vectors(&w, 2).remove(0);
    let got = e.bknn(99, 5, &terms, Op::Or);
    let want = brute_bknn(&w.graph, &w.corpus, 99, 5, &terms, Op::Or);
    assert_same_distances(&got, &want, "after rebuild");
}
