//! ROAD (Lee et al. [12], applied to top-k spatial keyword queries by
//! Rocha-Junior & Nørvåg [3]).
//!
//! ROAD organizes the network as a hierarchy of *Rnets* with *shortcuts*
//! between each Rnet's border vertices. Search is a network expansion that
//! *bypasses* Rnets containing no relevant objects: when the wavefront
//! reaches a border of an object-free Rnet, it jumps across it via
//! shortcuts instead of expanding its interior. Keyword aggregation stores,
//! per Rnet, which keywords occur in the subtree — exactly the
//! false-positive-prone aggregation of §1.1.
//!
//! The hierarchy and the shortcut distances are shared with the
//! [`kspin_gtree`] crate (the paper notes the two baselines differ mainly
//! in how the same subgraph hierarchy is stored and searched).

// Float ordering goes through `OrderedWeight`: `partial_cmp` is on the
// clippy.toml method list, with the clock and thread calls.
#![deny(clippy::disallowed_methods)]

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

use kspin_graph::{weight_add, Graph, OrderedWeight, VertexId, Weight, INFINITY};
use kspin_gtree::GTree;
use kspin_text::{score, Corpus, ObjectId, QueryTerms, TermId};

/// The ROAD index: per-vertex border chains + per-Rnet keyword sets,
/// layered over a [`GTree`] hierarchy whose matrices provide shortcuts.
pub struct RoadIndex<'a> {
    gt: &'a GTree,
    graph: &'a Graph,
    corpus: &'a Corpus,
    /// Per vertex: the nodes (Rnets) having it as a border, shallowest
    /// (closest to the root) first — the search tries to bypass the biggest
    /// object-free Rnet available.
    border_chain: Vec<Vec<u32>>,
    /// Per vertex: its position within each chain node's border list.
    border_pos_in_node: Vec<Vec<u32>>,
    /// Per Rnet: keywords present in the subtree.
    rnet_terms: Vec<HashSet<TermId>>,
    /// Per Rnet: object count in the subtree.
    rnet_objects: Vec<u32>,
}

impl<'a> RoadIndex<'a> {
    /// Builds the overlay layers.
    pub fn build(gt: &'a GTree, graph: &'a Graph, corpus: &'a Corpus) -> Self {
        let num_nodes = gt.hierarchy.num_nodes();
        let n = graph.num_vertices();
        let mut border_chain: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut border_pos_in_node: Vec<Vec<u32>> = vec![Vec::new(); n];
        // Nodes are allocated parent-before-child, so increasing id order
        // visits shallow nodes first.
        for node in 0..num_nodes as u32 {
            for (i, &b) in gt.borders(node).iter().enumerate() {
                border_chain[b as usize].push(node);
                border_pos_in_node[b as usize].push(i as u32);
            }
        }

        let mut rnet_terms: Vec<HashSet<TermId>> = vec![HashSet::new(); num_nodes];
        let mut rnet_objects = vec![0u32; num_nodes];
        for o in 0..corpus.num_objects() as ObjectId {
            let mut node = gt.hierarchy.leaf_of(corpus.vertex_of(o));
            loop {
                rnet_objects[node as usize] += 1;
                for p in corpus.doc(o) {
                    rnet_terms[node as usize].insert(p.term);
                }
                if node == 0 {
                    break;
                }
                node = gt.hierarchy.parent(node);
            }
        }

        RoadIndex {
            gt,
            graph,
            corpus,
            border_chain,
            border_pos_in_node,
            rnet_terms,
            rnet_objects,
        }
    }

    /// Whether Rnet `n` contains any object with any of `terms`.
    fn rnet_relevant(&self, n: u32, terms: &[TermId]) -> bool {
        let set = &self.rnet_terms[n as usize];
        terms.iter().any(|t| set.contains(t))
    }

    /// The shallowest bypassable Rnet at border vertex `v`: object-free of
    /// query keywords and not containing the query's leaf.
    fn bypass_net(&self, v: VertexId, q_leaf: u32, terms: &[TermId]) -> Option<(u32, u32)> {
        for (ci, &n) in self.border_chain[v as usize].iter().enumerate() {
            if self.gt.in_subtree(n, q_leaf) {
                continue;
            }
            if self.rnet_objects[n as usize] > 0 && self.rnet_relevant(n, terms) {
                continue;
            }
            return Some((n, self.border_pos_in_node[v as usize][ci]));
        }
        None
    }

    /// Core expansion: settles vertices in distance order, bypassing
    /// irrelevant Rnets, invoking `visit(object, distance)`; stops when
    /// `visit` returns false or the frontier empties.
    fn expand<F>(&self, q: VertexId, terms: &[TermId], mut visit: F) -> ExpansionStats
    where
        F: FnMut(ObjectId, Weight) -> bool,
    {
        let q_leaf = self.gt.hierarchy.leaf_of(q);
        let n = self.graph.num_vertices();
        let mut dist: Vec<Weight> = vec![INFINITY; n];
        let mut settled = vec![false; n];
        let mut heap: BinaryHeap<(Reverse<Weight>, VertexId)> = BinaryHeap::new();
        dist[q as usize] = 0;
        heap.push((Reverse(0), q));
        let mut stats = ExpansionStats::default();

        while let Some((Reverse(d), v)) = heap.pop() {
            if settled[v as usize] || d > dist[v as usize] {
                continue;
            }
            settled[v as usize] = true;
            stats.settled += 1;
            if let Some(o) = self.corpus.object_at(v) {
                if !visit(o, d) {
                    break;
                }
            }
            if let Some((net, pos)) = self.bypass_net(v, q_leaf, terms) {
                // Jump across the Rnet via shortcuts…
                let borders = self.gt.borders(net);
                for (j, &b2) in borders.iter().enumerate() {
                    if b2 == v {
                        continue;
                    }
                    stats.shortcut_relaxations += 1;
                    let nd = d.saturating_add(self.gt.border_shortcut(net, pos as usize, j));
                    if nd < dist[b2 as usize] {
                        dist[b2 as usize] = nd;
                        heap.push((Reverse(nd), b2));
                    }
                }
                // …and still take original edges that leave the Rnet.
                for (u, w) in self.graph.neighbors(v) {
                    if self.gt.in_subtree(net, self.gt.hierarchy.leaf_of(u)) {
                        continue;
                    }
                    let nd = weight_add(d, w);
                    if nd < dist[u as usize] {
                        dist[u as usize] = nd;
                        heap.push((Reverse(nd), u));
                    }
                }
            } else {
                for (u, w) in self.graph.neighbors(v) {
                    let nd = weight_add(d, w);
                    if nd < dist[u as usize] {
                        dist[u as usize] = nd;
                        heap.push((Reverse(nd), u));
                    }
                }
            }
        }
        stats
    }

    /// Top-k spatial keyword query [3]: distance-ordered expansion scoring
    /// each settled relevant object, terminating once
    /// `d / TR_max ≥ D_k`. Exact.
    pub fn top_k(&self, q: VertexId, k: usize, terms: &[TermId]) -> Vec<(ObjectId, f64)> {
        let query = QueryTerms::new(self.corpus, terms);
        if k == 0 || query.is_empty() {
            return Vec::new();
        }
        let tr_max = query.max_relevance();
        if tr_max <= 0.0 {
            return Vec::new();
        }
        let mut best: BinaryHeap<(OrderedWeight, ObjectId)> = BinaryHeap::new();
        self.expand(q, query.terms(), |o, d| {
            let d_k = match best.peek() {
                Some(&(s, _)) if best.len() == k => s.get(),
                _ => f64::INFINITY,
            };
            if d as f64 / tr_max >= d_k {
                return false; // no farther object can improve the top-k
            }
            let tr = query.relevance(self.corpus, o);
            if tr > 0.0 {
                let st = score(d, tr);
                if best.len() < k {
                    best.push((OrderedWeight::new(st), o));
                } else if st < d_k {
                    best.pop();
                    best.push((OrderedWeight::new(st), o));
                }
            }
            true
        });
        let mut out: Vec<(ObjectId, f64)> = best.into_iter().map(|(s, o)| (o, s.get())).collect();
        out.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Overlay size in bytes (border chains + Rnet keyword sets), excluding
    /// the shared hierarchy matrices.
    pub fn size_bytes(&self) -> usize {
        let chains: usize = self.border_chain.iter().map(|c| c.len() * 8 + 24).sum();
        let terms: usize = self.rnet_terms.iter().map(|s| s.len() * 8 + 32).sum();
        chains + terms + self.rnet_objects.len() * 4
    }
}

/// Expansion effort counters (for diagnostics/benches).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExpansionStats {
    pub settled: usize,
    pub shortcut_relaxations: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use kspin_graph::generate::{road_network, RoadNetworkConfig};
    use kspin_graph::{Dijkstra, GraphBuilder};
    use kspin_gtree::tree::GtreeConfig;
    use kspin_text::generate::{corpus as gen_corpus, CorpusConfig};
    use kspin_text::CorpusBuilder;

    fn fixture(n: usize, seed: u64) -> (Graph, Corpus, GTree) {
        let g = road_network(&RoadNetworkConfig::new(n, seed));
        let mut cc = CorpusConfig::new(g.num_vertices(), seed ^ 9);
        cc.object_fraction = 0.06;
        let (corpus, _) = gen_corpus(&cc);
        let gt = GTree::build(
            &g,
            &GtreeConfig {
                partition: kspin_gtree::PartitionConfig { leaf_size: 48 },
                num_threads: 2,
            },
        );
        (g, corpus, gt)
    }

    #[test]
    fn topk_matches_brute_force() {
        let (g, c, gt) = fixture(700, 211);
        let road = RoadIndex::build(&gt, &g, &c);
        let mut dij = kspin_graph::Dijkstra::new(g.num_vertices());
        for q in [1u32, 350, 680] {
            let q = q.min(g.num_vertices() as u32 - 1);
            let got = road.top_k(q, 5, &[0, 1]);
            // Brute force oracle.
            let query = QueryTerms::new(&c, &[0, 1]);
            dij.sssp(&g, q);
            let space = dij.space();
            let mut want: Vec<f64> = (0..c.num_objects() as ObjectId)
                .filter_map(|o| {
                    let tr = query.relevance(&c, o);
                    (tr > 0.0).then(|| score(space.distance(c.vertex_of(o)).unwrap(), tr))
                })
                .collect();
            want.sort_by(f64::total_cmp);
            want.truncate(5);
            assert_eq!(got.len(), want.len());
            for ((_, gs), ws) in got.iter().zip(&want) {
                assert!((gs - ws).abs() < 1e-9, "q={q}");
            }
        }
    }

    #[test]
    fn bypass_actually_skips_interior_vertices() {
        let (g, c, gt) = fixture(1200, 215);
        let road = RoadIndex::build(&gt, &g, &c);
        // A keyword so rare that most Rnets are bypassable.
        let rare = (0..c.num_terms() as TermId)
            .find(|&t| c.inv_len(t) == 1)
            .expect("no singleton keyword");
        let stats = road.expand(0, &[rare], |_, _| true);
        assert!(
            stats.settled < g.num_vertices(),
            "bypass settled every vertex ({} of {})",
            stats.settled,
            g.num_vertices()
        );
        assert!(stats.shortcut_relaxations > 0, "no shortcuts used");
    }

    #[test]
    fn unused_keyword_returns_empty() {
        let (g, c, gt) = fixture(400, 217);
        let road = RoadIndex::build(&gt, &g, &c);
        let unused = (0..c.num_terms() as TermId)
            .find(|&t| c.inv_len(t) == 0)
            .unwrap();
        assert!(road.top_k(0, 5, &[unused]).is_empty());
    }

    /// Every source's expansion distance to each object with the query
    /// term against Dijkstra, at leaf sizes from two vertices per leaf up to
    /// a single leaf. Every vertex holds an object with term 1, every third
    /// one also term 0, so a term-0 expansion meets Rnets it bypasses and a
    /// term-1 expansion none.
    fn all_objects_match_dijkstra(g: &Graph) {
        let n = g.num_vertices();
        let mut cb = CorpusBuilder::new();
        for v in 0..n as VertexId {
            let doc: &[(TermId, u32)] = if v % 3 == 0 {
                &[(0, 1), (1, 1)]
            } else {
                &[(1, 1)]
            };
            cb.add_object(v, doc);
        }
        let corpus = cb.build();
        let mut dij = Dijkstra::new(n);
        for leaf_size in [2, 3, n.max(2)] {
            let gt = GTree::build(
                g,
                &GtreeConfig {
                    partition: kspin_gtree::PartitionConfig { leaf_size },
                    num_threads: 1,
                },
            );
            let road = RoadIndex::build(&gt, g, &corpus);
            for q in 0..n as VertexId {
                for term in [0, 1] {
                    let mut got: Vec<(VertexId, Weight)> = Vec::new();
                    road.expand(q, &[term], |o, d| {
                        if corpus.contains_any(o, &[term]) {
                            got.push((corpus.vertex_of(o), d));
                        }
                        true
                    });
                    got.sort_unstable();
                    let want: Vec<(VertexId, Weight)> = (0..n as VertexId)
                        .filter(|&v| term == 1 || v % 3 == 0)
                        .map(|v| (v, dij.one_to_one(g, q, v)))
                        .filter(|&(_, d)| d < INFINITY)
                        .collect();
                    assert_eq!(got, want, "leaf size {leaf_size}, q {q}, term {term}");
                }
            }
        }
    }

    #[test]
    fn near_saturating_weights_do_not_wrap() {
        // The expansion adds an edge to a settled distance, bypassing or
        // not: across a `u32::MAX - 1` edge a raw `+` panics in debug builds
        // and in release builds wraps to a distance shorter than the true one.
        let mut one_heavy = GraphBuilder::new(6);
        for v in 0..6 {
            one_heavy.add_edge(v, (v + 1) % 6, if v == 5 { u32::MAX - 1 } else { 10 });
        }
        all_objects_match_dijkstra(&one_heavy.build());
        // Two edges already sum past INFINITY: such objects are unreachable.
        let mut path = GraphBuilder::new(12);
        for v in 0..11 {
            path.add_edge(v, v + 1, INFINITY / 2 + 1);
        }
        all_objects_match_dijkstra(&path.build());
    }
}
