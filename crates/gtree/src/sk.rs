//! Keyword-aggregated spatial keyword queries over a G-tree — the
//! state-of-the-art baseline the paper compares against (§1.1, §7).
//!
//! Every tree node aggregates its subtree's keywords into a
//! *pseudo-document* (term → max impact) and an *occurrence list* (which
//! children contain objects). Queries traverse the hierarchy best-first by
//! lower-bound score/distance, computing assembly distances to groups and
//! objects — incurring exactly the false-positive work the paper's
//! motivating example walks through.
//!
//! [`OccurrenceMode::PerKeyword`] is **Gtree-Opt** (§7.4.1): a separate
//! occurrence list per keyword lets the traversal skip children without
//! query-keyword objects before touching their pseudo-documents. As §7.4.2
//! shows, this trims pseudo-document lookups but *not* matrix operations —
//! aggregation's information loss is structural.

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashMap};

use kspin_graph::{Graph, VertexId, Weight};
use kspin_text::{score, Corpus, ObjectId, QueryTerms, TermId};

use crate::dist::GtreeDistance;
use crate::tree::GTree;

/// Which occurrence lists the traversal consults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OccurrenceMode {
    /// Original G-tree: one occurrence list per node + pseudo-document
    /// checks per child.
    Aggregated,
    /// Gtree-Opt: per-keyword occurrence lists (keyword separation applied
    /// to occurrence lists only).
    PerKeyword,
}

/// Keyword aggregation layers over a [`GTree`].
pub struct GtreeSpatialKeyword<'a> {
    gt: &'a GTree,
    graph: &'a Graph,
    corpus: &'a Corpus,
    /// Per node: term → maximum impact of that term in the subtree.
    pseudo_doc: Vec<HashMap<TermId, f64>>,
    /// Per node: child positions (into the node's child list) containing
    /// at least one object.
    occurrence: Vec<Vec<u8>>,
    /// Per node: per-term child positions (Gtree-Opt).
    term_occurrence: Vec<HashMap<TermId, Vec<u8>>>,
    /// Per leaf: its objects.
    leaf_objects: Vec<Vec<ObjectId>>,
    /// Pseudo-document lookups performed by the last query.
    pseudo_lookups: std::cell::Cell<u64>,
}

impl<'a> GtreeSpatialKeyword<'a> {
    /// Aggregates `corpus` into the tree.
    pub fn build(gt: &'a GTree, graph: &'a Graph, corpus: &'a Corpus) -> Self {
        let n = gt.hierarchy.num_nodes();
        let mut pseudo_doc: Vec<HashMap<TermId, f64>> = vec![HashMap::new(); n];
        let mut occurrence: Vec<Vec<u8>> = vec![Vec::new(); n];
        let mut term_occurrence: Vec<HashMap<TermId, Vec<u8>>> = vec![HashMap::new(); n];
        let mut leaf_objects: Vec<Vec<ObjectId>> = vec![Vec::new(); n];

        for o in 0..corpus.num_objects() as ObjectId {
            let leaf = gt.hierarchy.leaf_of(corpus.vertex_of(o)) as usize;
            leaf_objects[leaf].push(o);
            for p in corpus.doc(o) {
                let e = pseudo_doc[leaf].entry(p.term).or_insert(0.0);
                if p.impact > *e {
                    *e = p.impact;
                }
            }
        }
        // Children were appended after their parents, so reverse id order is
        // a valid bottom-up order.
        for node in (0..n).rev() {
            if gt.hierarchy.is_leaf(node as u32) {
                continue;
            }
            let children = gt.hierarchy.children(node as u32).to_vec();
            for (ci, &c) in children.iter().enumerate() {
                if pseudo_doc[c as usize].is_empty() {
                    continue; // no objects below
                }
                occurrence[node].push(ci as u8);
                let child_doc = pseudo_doc[c as usize].clone();
                for (t, imp) in child_doc {
                    let e = pseudo_doc[node].entry(t).or_insert(0.0);
                    if imp > *e {
                        *e = imp;
                    }
                    term_occurrence[node].entry(t).or_default().push(ci as u8);
                }
            }
        }

        GtreeSpatialKeyword {
            gt,
            graph,
            corpus,
            pseudo_doc,
            occurrence,
            term_occurrence,
            leaf_objects,
            pseudo_lookups: std::cell::Cell::new(0),
        }
    }

    /// Maximum possible textual relevance of any object under `node` —
    /// `Σ_j λ_{t_j,ψ} · maximpact(t_j, subtree)`. Zero means prunable.
    fn tr_max(&self, query: &QueryTerms, node: u32) -> f64 {
        let doc = &self.pseudo_doc[node as usize];
        let mut tr = 0.0;
        for (j, &t) in query.terms().iter().enumerate() {
            self.pseudo_lookups.set(self.pseudo_lookups.get() + 1);
            if let Some(&imp) = doc.get(&t) {
                tr += query.impact(j) * imp;
            }
        }
        tr
    }

    /// Children of `node` that may contain relevant objects, per mode.
    fn candidate_children(&self, node: u32, terms: &[TermId], mode: OccurrenceMode) -> Vec<u32> {
        let kids = self.gt.hierarchy.children(node);
        match mode {
            OccurrenceMode::Aggregated => self.occurrence[node as usize]
                .iter()
                .map(|&ci| kids[ci as usize])
                .collect(),
            OccurrenceMode::PerKeyword => {
                // Union the per-keyword lists via a bitmask (fanout ≤ 64 —
                // ours is 2) to keep Gtree-Opt's savings allocation-free.
                let mut mask = 0u64;
                for &t in terms {
                    if let Some(cis) = self.term_occurrence[node as usize].get(&t) {
                        for &ci in cis {
                            mask |= 1 << ci;
                        }
                    }
                }
                (0..kids.len())
                    .filter(|&ci| mask & (1 << ci) != 0)
                    .map(|ci| kids[ci])
                    .collect()
            }
        }
    }

    /// Pseudo-document lookups in the last query (the cost Gtree-Opt
    /// saves, Fig. 15 vs Fig. 16).
    pub fn last_pseudo_lookups(&self) -> u64 {
        self.pseudo_lookups.get()
    }

    /// Top-k by keyword-aggregated best-first traversal. Returns the exact
    /// results and the matrix-operation count.
    pub fn top_k(
        &self,
        q: VertexId,
        k: usize,
        terms: &[TermId],
        mode: OccurrenceMode,
    ) -> (Vec<(ObjectId, f64)>, u64) {
        self.pseudo_lookups.set(0);
        let query = QueryTerms::new(self.corpus, terms);
        let mut out = Vec::new();
        if k == 0 || query.is_empty() {
            return (out, 0);
        }
        let mut dist = GtreeDistance::new(self.gt, self.graph, q);
        let mut pq: BinaryHeap<Reverse<(u64, Entry)>> = BinaryHeap::new();
        // Score keys scaled to u64 for a total order; f64 scores in our
        // weight range fit comfortably (scale by 2^16).
        let key = |s: f64| -> u64 { (s * 65536.0).min(u64::MAX as f64 / 2.0) as u64 };
        if self.tr_max(&query, 0) > 0.0 {
            pq.push(Reverse((0, Entry::Node(0))));
        }
        while let Some(Reverse((_, entry))) = pq.pop() {
            match entry {
                Entry::Object(o, st) => {
                    out.push((o, f64::from_bits(st)));
                    if out.len() == k {
                        break;
                    }
                }
                Entry::Node(n) => {
                    if self.gt.hierarchy.is_leaf(n) {
                        // Score every relevant object in the group — the
                        // aggregation-induced bulk work of §1.1.
                        for &o in &self.leaf_objects[n as usize] {
                            let tr = query.relevance(self.corpus, o);
                            if tr <= 0.0 {
                                continue;
                            }
                            let d = dist.distance(self.corpus.vertex_of(o));
                            let st = score(d, tr);
                            pq.push(Reverse((key(st), Entry::Object(o, st.to_bits()))));
                        }
                    } else {
                        for m in self.candidate_children(n, query.terms(), mode) {
                            let tr_max = self.tr_max(&query, m);
                            if tr_max <= 0.0 {
                                continue;
                            }
                            let md = dist.min_dist(m);
                            let lb = md as f64 / tr_max;
                            pq.push(Reverse((key(lb), Entry::Node(m))));
                        }
                    }
                }
            }
        }
        (out, dist.ops())
    }

    /// Boolean kNN by keyword-aggregated best-first traversal.
    /// `conjunctive` selects ∧ (all terms) vs ∨ (any term).
    pub fn bknn(
        &self,
        q: VertexId,
        k: usize,
        terms: &[TermId],
        conjunctive: bool,
        mode: OccurrenceMode,
    ) -> (Vec<(ObjectId, Weight)>, u64) {
        self.pseudo_lookups.set(0);
        let mut uniq = terms.to_vec();
        uniq.sort_unstable();
        uniq.dedup();
        let mut out = Vec::new();
        if k == 0 || uniq.is_empty() {
            return (out, 0);
        }
        let mut dist = GtreeDistance::new(self.gt, self.graph, q);
        let mut pq: BinaryHeap<Reverse<(Weight, Entry)>> = BinaryHeap::new();
        if self.node_may_match(0, &uniq, conjunctive) {
            pq.push(Reverse((0, Entry::Node(0))));
        }
        while let Some(Reverse((_, entry))) = pq.pop() {
            match entry {
                Entry::Object(o, d) => {
                    out.push((o, d as Weight));
                    if out.len() == k {
                        break;
                    }
                }
                Entry::Node(n) => {
                    if self.gt.hierarchy.is_leaf(n) {
                        for &o in &self.leaf_objects[n as usize] {
                            let ok = if conjunctive {
                                self.corpus.contains_all(o, &uniq)
                            } else {
                                self.corpus.contains_any(o, &uniq)
                            };
                            if !ok {
                                continue;
                            }
                            let d = dist.distance(self.corpus.vertex_of(o));
                            pq.push(Reverse((d, Entry::Object(o, d as u64))));
                        }
                    } else {
                        for m in self.candidate_children(n, &uniq, mode) {
                            if !self.node_may_match(m, &uniq, conjunctive) {
                                continue;
                            }
                            let md = dist.min_dist(m);
                            pq.push(Reverse((md, Entry::Node(m))));
                        }
                    }
                }
            }
        }
        (out, dist.ops())
    }

    /// Pseudo-document keyword test. For conjunctions this is precisely the
    /// lossy aggregated check: the subtree contains every keyword *somewhere*,
    /// not necessarily on one object — the false-positive source.
    fn node_may_match(&self, node: u32, terms: &[TermId], conjunctive: bool) -> bool {
        let doc = &self.pseudo_doc[node as usize];
        self.pseudo_lookups
            .set(self.pseudo_lookups.get() + terms.len() as u64);
        if conjunctive {
            terms.iter().all(|t| doc.contains_key(t))
        } else {
            terms.iter().any(|t| doc.contains_key(t))
        }
    }

    /// Index size in bytes of the keyword aggregation layers (added on top
    /// of [`GTree::size_bytes`]).
    pub fn size_bytes(&self) -> usize {
        let pd: usize = self.pseudo_doc.iter().map(|d| d.len() * 16 + 32).sum();
        let occ: usize = self.occurrence.iter().map(|o| o.len() + 24).sum();
        let tocc: usize = self
            .term_occurrence
            .iter()
            .map(|m| m.values().map(|v| 16 + v.len()).sum::<usize>() + 32)
            .sum();
        let lo: usize = self.leaf_objects.iter().map(|l| l.len() * 4).sum();
        pd + occ + tocc + lo
    }
}

/// Priority-queue entry: a tree node (keyed by lower bound) or a fully
/// scored object. Object payloads carry their exact key so equal-priority
/// ordering stays deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Entry {
    Object(ObjectId, u64),
    Node(u32),
}

impl Entry {
    /// The order a derive would give: objects before nodes, then by fields.
    fn rank(self) -> (u8, u32, u64) {
        match self {
            Entry::Object(o, key) => (0, o, key),
            Entry::Node(n) => (1, n, 0),
        }
    }
}

// Written by hand: a derived `PartialOrd` calls `partial_cmp` on the
// fields, which the clippy.toml method list refuses.
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.rank().cmp(&other.rank())
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::GtreeConfig;
    use kspin_graph::generate::{road_network, RoadNetworkConfig};
    use kspin_text::generate::{corpus as gen_corpus, CorpusConfig};

    fn fixture(n: usize, seed: u64) -> (Graph, Corpus, GTree) {
        let g = road_network(&RoadNetworkConfig::new(n, seed));
        let mut cc = CorpusConfig::new(g.num_vertices(), seed ^ 5);
        cc.object_fraction = 0.08;
        let (corpus, _) = gen_corpus(&cc);
        let gt = GTree::build(
            &g,
            &GtreeConfig {
                partition: crate::partition::PartitionConfig { leaf_size: 48 },
                num_threads: 2,
            },
        );
        (g, corpus, gt)
    }

    /// Brute-force top-k oracle.
    fn brute_topk(g: &Graph, c: &Corpus, q: VertexId, k: usize, terms: &[TermId]) -> Vec<f64> {
        let query = QueryTerms::new(c, terms);
        let mut dij = kspin_graph::Dijkstra::new(g.num_vertices());
        dij.sssp(g, q);
        let space = dij.space();
        let mut scores: Vec<f64> = (0..c.num_objects() as ObjectId)
            .filter_map(|o| {
                let tr = query.relevance(c, o);
                (tr > 0.0).then(|| score(space.distance(c.vertex_of(o)).unwrap(), tr))
            })
            .collect();
        scores.sort_by(f64::total_cmp);
        scores.truncate(k);
        scores
    }

    #[test]
    fn topk_matches_brute_force_in_both_modes() {
        let (g, c, gt) = fixture(600, 111);
        let sk = GtreeSpatialKeyword::build(&gt, &g, &c);
        for q in [3u32, 301] {
            for mode in [OccurrenceMode::Aggregated, OccurrenceMode::PerKeyword] {
                let (got, ops) = sk.top_k(q, 5, &[0, 1], mode);
                let want = brute_topk(&g, &c, q, 5, &[0, 1]);
                assert_eq!(got.len(), want.len());
                for ((_, gs), ws) in got.iter().zip(&want) {
                    assert!((gs - ws).abs() < 1e-9, "mode {mode:?} q {q}");
                }
                assert!(ops > 0, "no matrix ops counted");
            }
        }
    }

    #[test]
    fn bknn_matches_brute_force() {
        let (g, c, gt) = fixture(600, 113);
        let sk = GtreeSpatialKeyword::build(&gt, &g, &c);
        let mut dij = kspin_graph::Dijkstra::new(g.num_vertices());
        for q in [9u32, 441] {
            for conj in [false, true] {
                let (got, _) = sk.bknn(q, 5, &[0, 1], conj, OccurrenceMode::Aggregated);
                dij.sssp(&g, q);
                let space = dij.space();
                let mut want: Vec<Weight> = (0..c.num_objects() as ObjectId)
                    .filter(|&o| {
                        if conj {
                            c.contains_all(o, &[0, 1])
                        } else {
                            c.contains_any(o, &[0, 1])
                        }
                    })
                    .map(|o| space.distance(c.vertex_of(o)).unwrap())
                    .collect();
                want.sort_unstable();
                want.truncate(5);
                let gd: Vec<Weight> = got.iter().map(|&(_, d)| d).collect();
                assert_eq!(gd, want, "q={q} conj={conj}");
            }
        }
    }

    #[test]
    fn both_modes_do_identical_matrix_ops() {
        // §7.4.2's finding: Gtree-Opt saves pseudo-document lookups, not
        // matrix operations.
        let (g, c, gt) = fixture(800, 115);
        let sk = GtreeSpatialKeyword::build(&gt, &g, &c);
        let (_, ops_agg) = sk.top_k(42, 10, &[0, 1], OccurrenceMode::Aggregated);
        let lookups_agg = sk.last_pseudo_lookups();
        let (_, ops_opt) = sk.top_k(42, 10, &[0, 1], OccurrenceMode::PerKeyword);
        let lookups_opt = sk.last_pseudo_lookups();
        assert_eq!(ops_agg, ops_opt, "matrix ops must match across modes");
        assert!(
            lookups_opt <= lookups_agg,
            "Opt should not do more pseudo-doc lookups"
        );
    }

    #[test]
    fn pseudo_documents_aggregate_max_impacts() {
        let (g, c, gt) = fixture(400, 117);
        let sk = GtreeSpatialKeyword::build(&gt, &g, &c);
        // Root pseudo-doc's max impact per term equals corpus max impact.
        for t in 0..c.num_terms() as TermId {
            if c.inv_len(t) == 0 {
                continue;
            }
            let got = sk.pseudo_doc[0].get(&t).copied().unwrap_or(0.0);
            assert!((got - c.max_impact(t)).abs() < 1e-12, "term {t}");
        }
        let _ = &g;
    }

    #[test]
    fn unused_keyword_returns_empty() {
        let (g, c, gt) = fixture(400, 119);
        let sk = GtreeSpatialKeyword::build(&gt, &g, &c);
        let unused = (0..c.num_terms() as TermId)
            .find(|&t| c.inv_len(t) == 0)
            .unwrap();
        let (got, _) = sk.top_k(0, 5, &[unused], OccurrenceMode::Aggregated);
        assert!(got.is_empty());
        let (got, _) = sk.bknn(0, 5, &[unused], false, OccurrenceMode::Aggregated);
        assert!(got.is_empty());
    }
}
