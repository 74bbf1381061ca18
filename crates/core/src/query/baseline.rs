//! Network-expansion (INE) baselines.
//!
//! The paper excludes network-expansion methods from its main comparison
//! because past results showed them orders of magnitude slower (§7.1) — but
//! they are the natural correctness oracle: a plain Dijkstra expansion that
//! inspects every settled vertex. Every integration test in this workspace
//! checks K-SPIN's exact results against these functions.

use kspin_graph::{Dijkstra, Graph, OrderedWeight, VertexId, Weight};
use kspin_text::{score, Corpus, ObjectId, QueryTerms, TermId};

use crate::query::Op;

/// Exact BkNN by incremental network expansion — the INE family the paper
/// excludes from its main comparison as uncompetitive (§7.1), kept here as
/// the correctness oracle for Algorithm 1.
pub fn ine_bknn(
    graph: &Graph,
    corpus: &Corpus,
    q: VertexId,
    k: usize,
    terms: &[TermId],
    op: Op,
) -> Vec<(ObjectId, Weight)> {
    let mut uniq = terms.to_vec();
    uniq.sort_unstable();
    uniq.dedup();
    if k == 0 || uniq.is_empty() {
        return Vec::new();
    }
    let mut dij = Dijkstra::new(graph.num_vertices());
    let mut found = Vec::with_capacity(k);
    dij.run(graph, &[(q, 0)], |v, d| {
        if let Some(o) = corpus.object_at(v) {
            let ok = match op {
                Op::And => corpus.contains_all(o, &uniq),
                Op::Or => corpus.contains_any(o, &uniq),
            };
            if ok {
                found.push((o, d));
                if found.len() == k {
                    return kspin_graph::dijkstra::Control::Stop;
                }
            }
        }
        kspin_graph::dijkstra::Control::Continue
    });
    found.sort_unstable_by_key(|&(o, d)| (d, o));
    found
}

/// Exact top-k (scores per Eq. 1) by network expansion with the standard
/// early-termination bound: once `d_settled / TR_max ≥ D_k`, no farther
/// object can win. Oracle for Algorithms 2–3 (§4.2).
pub fn ine_topk(
    graph: &Graph,
    corpus: &Corpus,
    q: VertexId,
    k: usize,
    terms: &[TermId],
) -> Vec<(ObjectId, f64)> {
    let query = QueryTerms::new(corpus, terms);
    if k == 0 || query.is_empty() {
        return Vec::new();
    }
    let tr_max = query.max_relevance();
    if tr_max <= 0.0 {
        return Vec::new();
    }
    let mut dij = Dijkstra::new(graph.num_vertices());
    // Bounded k-best result max-heap (evicts the worst of <= k entries);
    // not a search frontier, no decrease-key.
    let mut best = std::collections::BinaryHeap::<(OrderedWeight, ObjectId)>::new();
    dij.run(graph, &[(q, 0)], |v, d| {
        let d_k = match best.peek() {
            Some(&(s, _)) if best.len() == k => s.get(),
            _ => f64::INFINITY,
        };
        if d as f64 / tr_max >= d_k {
            return kspin_graph::dijkstra::Control::Stop;
        }
        if let Some(o) = corpus.object_at(v) {
            let tr = query.relevance(corpus, o);
            if tr > 0.0 {
                let st = score(d, tr);
                if best.len() < k {
                    best.push((OrderedWeight::new(st), o));
                } else if st < d_k {
                    best.pop();
                    best.push((OrderedWeight::new(st), o));
                }
            }
        }
        kspin_graph::dijkstra::Control::Continue
    });
    let mut out: Vec<(ObjectId, f64)> = best.into_iter().map(|(s, o)| (o, s.get())).collect();
    out.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    out
}

/// Brute-force top-k: score every object by Eq. 1 against a full SSSP. The
/// slowest possible oracle, used to validate `ine_topk` itself in tests.
pub fn brute_topk(
    graph: &Graph,
    corpus: &Corpus,
    q: VertexId,
    k: usize,
    terms: &[TermId],
) -> Vec<(ObjectId, f64)> {
    let query = QueryTerms::new(corpus, terms);
    let mut dij = Dijkstra::new(graph.num_vertices());
    dij.sssp(graph, q);
    let space = dij.space();
    let mut scored: Vec<(ObjectId, f64)> = (0..corpus.num_objects() as ObjectId)
        .filter_map(|o| {
            let tr = query.relevance(corpus, o);
            if tr <= 0.0 {
                return None;
            }
            let d = space.distance(corpus.vertex_of(o))?;
            Some((o, score(d, tr)))
        })
        .collect();
    scored.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    scored.truncate(k);
    scored
}

/// Brute-force BkNN (§2's Boolean kNN semantics) over the full object set
/// (oracle for `ine_bknn`).
pub fn brute_bknn(
    graph: &Graph,
    corpus: &Corpus,
    q: VertexId,
    k: usize,
    terms: &[TermId],
    op: Op,
) -> Vec<(ObjectId, Weight)> {
    let mut uniq = terms.to_vec();
    uniq.sort_unstable();
    uniq.dedup();
    if uniq.is_empty() {
        return Vec::new();
    }
    let mut dij = Dijkstra::new(graph.num_vertices());
    dij.sssp(graph, q);
    let space = dij.space();
    let mut found: Vec<(ObjectId, Weight)> = (0..corpus.num_objects() as ObjectId)
        .filter(|&o| match op {
            Op::And => corpus.contains_all(o, &uniq),
            Op::Or => corpus.contains_any(o, &uniq),
        })
        .filter_map(|o| space.distance(corpus.vertex_of(o)).map(|d| (o, d)))
        .collect();
    found.sort_unstable_by_key(|&(o, d)| (d, o));
    found.truncate(k);
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use kspin_graph::generate::{road_network, RoadNetworkConfig};
    use kspin_text::generate::{corpus as gen_corpus, CorpusConfig};

    fn fixture() -> (Graph, Corpus) {
        let graph = road_network(&RoadNetworkConfig::new(700, 201));
        let mut cc = CorpusConfig::new(graph.num_vertices(), 202);
        cc.object_fraction = 0.1;
        let (corpus, _) = gen_corpus(&cc);
        (graph, corpus)
    }

    #[test]
    fn ine_bknn_matches_brute_force() {
        let (g, c) = fixture();
        for q in [0u32, 100, 333] {
            for op in [Op::And, Op::Or] {
                let a = ine_bknn(&g, &c, q, 5, &[0, 1], op);
                let b = brute_bknn(&g, &c, q, 5, &[0, 1], op);
                let da: Vec<Weight> = a.iter().map(|&(_, d)| d).collect();
                let db: Vec<Weight> = b.iter().map(|&(_, d)| d).collect();
                assert_eq!(da, db, "q={q} op={op:?}");
            }
        }
    }

    #[test]
    fn ine_topk_matches_brute_force() {
        let (g, c) = fixture();
        for q in [0u32, 50, 500] {
            let a = ine_topk(&g, &c, q, 5, &[0, 1]);
            let b = brute_topk(&g, &c, q, 5, &[0, 1]);
            let sa: Vec<f64> = a.iter().map(|&(_, s)| s).collect();
            let sb: Vec<f64> = b.iter().map(|&(_, s)| s).collect();
            assert_eq!(sa.len(), sb.len());
            for (x, y) in sa.iter().zip(&sb) {
                assert!((x - y).abs() < 1e-9, "q={q}: {sa:?} vs {sb:?}");
            }
        }
    }

    #[test]
    fn fewer_matches_than_k_returns_all() {
        let (g, c) = fixture();
        // A rare term: find one with small inverted list.
        let rare = (0..c.num_terms() as TermId)
            .find(|&t| (1..=2).contains(&c.inv_len(t)))
            .expect("no rare term");
        let got = ine_bknn(&g, &c, 0, 50, &[rare], Op::Or);
        assert_eq!(got.len(), c.inv_len(rare));
    }

    #[test]
    fn empty_terms_and_zero_k() {
        let (g, c) = fixture();
        assert!(ine_bknn(&g, &c, 0, 5, &[], Op::Or).is_empty());
        assert!(ine_bknn(&g, &c, 0, 0, &[0], Op::Or).is_empty());
        assert!(ine_topk(&g, &c, 0, 0, &[0]).is_empty());
    }
}
