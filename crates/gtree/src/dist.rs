//! Assembly-based network distances with materialization.
//!
//! A [`GtreeDistance`] is pinned to one source vertex at a time. It
//! materializes, per tree node `n`, the vector `dist(q, ·)` over `cb(n)`
//! (the node's matrix frame) by min-plus composition along the hierarchy,
//! and caches those vectors so later distance computations from the same
//! source reuse them — the *materialization* of Zhong et al. that §7.4
//! keeps identical between KS-GT and the G-tree baseline for an
//! apples-to-apples comparison.
//!
//! Every `lookup + add` inside a composition increments the *matrix
//! operation* counter, the machine-independent cost measure of Fig. 16.

use std::collections::HashMap;

use kspin_graph::{weight_add, Graph, VertexId, Weight, INFINITY};

use crate::tree::GTree;

/// Materialized assembly state for one source vertex.
pub struct GtreeDistance<'a> {
    gt: &'a GTree,
    graph: &'a Graph,
    source: VertexId,
    source_leaf: u32,
    /// Per node: `dist(source, cb(n))` for internal nodes; for the source
    /// leaf: `dist(source, borders(leaf))`.
    arrays: HashMap<u32, Vec<Weight>>,
    /// Matrix operations performed (lookup + add in compositions).
    ops: u64,
}

impl<'a> GtreeDistance<'a> {
    /// Creates assembly state pinned to `source`.
    pub fn new(gt: &'a GTree, graph: &'a Graph, source: VertexId) -> Self {
        GtreeDistance {
            gt,
            graph,
            source,
            source_leaf: gt.hierarchy.leaf_of(source),
            arrays: HashMap::new(),
            ops: 0,
        }
    }

    /// The pinned source vertex.
    pub fn source(&self) -> VertexId {
        self.source
    }

    /// Re-pins to a new source, clearing materialized arrays.
    pub fn reset(&mut self, source: VertexId) {
        self.source = source;
        self.source_leaf = self.gt.hierarchy.leaf_of(source);
        self.arrays.clear();
    }

    /// Matrix operations since construction (or the last counter reset).
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Zeroes the matrix-operation counter.
    pub fn reset_ops(&mut self) {
        self.ops = 0;
    }

    /// Exact network distance from the pinned source to `t`.
    pub fn distance(&mut self, t: VertexId) -> Weight {
        if t == self.source {
            return 0;
        }
        let t_leaf = self.gt.hierarchy.leaf_of(t);
        if t_leaf == self.source_leaf {
            return self.same_leaf_distance(t);
        }
        // Materialize down to t's leaf and finish over its borders.
        let border_dists = self.border_array(t_leaf).to_vec();
        let cols = self.gt.leaf_col[t_leaf as usize].len();
        let tcol = self.gt.leaf_col[t_leaf as usize][&t] as usize;
        let mat = &self.gt.matrix[t_leaf as usize];
        let mut best = INFINITY;
        for (bi, &dqb) in border_dists.iter().enumerate() {
            self.ops += 1;
            let d = dqb.saturating_add(mat[bi * cols + tcol]);
            if d < best {
                best = d;
            }
        }
        best
    }

    /// Minimum distance from the source to any border of node `n` — the
    /// `mindist(q, node)` the keyword-aggregated search orders its queue
    /// by. Zero for nodes containing the source.
    pub fn min_dist(&mut self, n: u32) -> Weight {
        if self.gt.in_subtree(n, self.source_leaf) {
            return 0;
        }
        self.border_array(n)
            .iter()
            .copied()
            .min()
            .unwrap_or(INFINITY)
    }

    /// `dist(source, borders(n))`, materializing ancestors as needed.
    pub fn border_array(&mut self, n: u32) -> Vec<Weight> {
        if n == self.source_leaf {
            // Direct from the leaf matrix: column of the source.
            return self.source_leaf_border_dists();
        }
        if self.gt.in_subtree(n, self.source_leaf) {
            // Ancestor of the source: restrict its cb array to its borders.
            let frame = self.cb_array(n);
            return self.restrict_to_borders(n, &frame);
        }
        // Neither the source leaf nor an ancestor: the parent's cb frame
        // contains this node's borders as a block.
        let parent = self.gt.hierarchy.parent(n);
        debug_assert_ne!(parent, u32::MAX);
        let parent_frame = self.cb_array(parent);
        let child_idx = self
            .gt
            .hierarchy
            .children(parent)
            .iter()
            .position(|&c| c == n)
            .expect("child listed in parent");
        let off = self.gt.cb_child_offset[parent as usize][child_idx] as usize;
        let len = self.gt.borders[n as usize].len();
        parent_frame[off..off + len].to_vec()
    }

    /// `dist(source, cb(n))` for an internal node, cached.
    fn cb_array(&mut self, n: u32) -> Vec<Weight> {
        debug_assert!(!self.gt.hierarchy.is_leaf(n), "cb_array on a leaf");
        if let Some(a) = self.arrays.get(&n) {
            return a.clone();
        }
        let frame_len = self.gt.cb[n as usize].len();
        let (seed_positions, seed_dists): (Vec<u32>, Vec<Weight>) =
            if self.gt.in_subtree(n, self.source_leaf) {
                // Compose upward through the child on the source's path.
                let c = self.gt.child_toward_leaf(n, self.source_leaf);
                let child_borders = self.border_array(c);
                let child_idx = self
                    .gt
                    .hierarchy
                    .children(n)
                    .iter()
                    .position(|&x| x == c)
                    .expect("child listed in parent");
                let off = self.gt.cb_child_offset[n as usize][child_idx];
                let positions = (off..off + child_borders.len() as u32).collect();
                (positions, child_borders)
            } else {
                // Source outside n: every entering path crosses borders(n).
                let own = self.border_array(n);
                (self.gt.border_pos[n as usize].clone(), own)
            };

        let mat = &self.gt.matrix[n as usize];
        let mut out = vec![INFINITY; frame_len];
        for (&p, &d0) in seed_positions.iter().zip(&seed_dists) {
            out[p as usize] = out[p as usize].min(d0);
        }
        for x in 0..frame_len {
            let mut best = out[x];
            for (&p, &d0) in seed_positions.iter().zip(&seed_dists) {
                self.ops += 1;
                let d = d0.saturating_add(mat[p as usize * frame_len + x]);
                if d < best {
                    best = d;
                }
            }
            out[x] = best;
        }
        self.arrays.insert(n, out.clone());
        out
    }

    fn restrict_to_borders(&self, n: u32, frame: &[Weight]) -> Vec<Weight> {
        self.gt.border_pos[n as usize]
            .iter()
            .map(|&p| frame[p as usize])
            .collect()
    }

    fn source_leaf_border_dists(&mut self) -> Vec<Weight> {
        let leaf = self.source_leaf as usize;
        let cols = self.gt.leaf_col[leaf].len();
        let scol = self.gt.leaf_col[leaf][&self.source] as usize;
        let mat = &self.gt.matrix[leaf];
        (0..self.gt.borders[leaf].len())
            .map(|bi| {
                self.ops += 1;
                mat[bi * cols + scol]
            })
            .collect()
    }

    /// Same-leaf distances: the global shortest path either stays inside
    /// the leaf subgraph (local Dijkstra) or crosses a leaf border
    /// (via-border assembly); the minimum of the two is exact.
    fn same_leaf_distance(&mut self, t: VertexId) -> Weight {
        let leaf = self.source_leaf;
        let local = self.local_leaf_dijkstra(t);
        let cols = self.gt.leaf_col[leaf as usize].len();
        let tcol = self.gt.leaf_col[leaf as usize][&t] as usize;
        let border_dists = self.source_leaf_border_dists();
        let mat = &self.gt.matrix[leaf as usize];
        let mut best = local;
        for (bi, &dqb) in border_dists.iter().enumerate() {
            self.ops += 1;
            let d = dqb.saturating_add(mat[bi * cols + tcol]);
            if d < best {
                best = d;
            }
        }
        best
    }

    fn local_leaf_dijkstra(&self, t: VertexId) -> Weight {
        use std::cmp::Reverse;
        let leaf = self.source_leaf;
        let mut dist: HashMap<VertexId, Weight> = HashMap::new();
        let mut heap = std::collections::BinaryHeap::new();
        dist.insert(self.source, 0);
        heap.push((Reverse(0), self.source));
        while let Some((Reverse(d), v)) = heap.pop() {
            if d > dist[&v] {
                continue;
            }
            if v == t {
                return d;
            }
            for (u, w) in self.graph.neighbors(v) {
                if self.gt.hierarchy.leaf_of(u) != leaf {
                    continue;
                }
                let nd = weight_add(d, w);
                if nd < dist.get(&u).copied().unwrap_or(INFINITY) {
                    dist.insert(u, nd);
                    heap.push((Reverse(nd), u));
                }
            }
        }
        INFINITY
    }
}

impl GTree {
    /// The child of `anc` whose subtree contains `leaf`.
    pub(crate) fn child_toward_leaf(&self, anc: u32, leaf: u32) -> u32 {
        for &c in self.hierarchy.children(anc) {
            if self.in_subtree(c, leaf) {
                return c;
            }
        }
        unreachable!("leaf {leaf} not under node {anc}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::GtreeConfig;
    use kspin_graph::generate::{road_network, RoadNetworkConfig};
    use kspin_graph::{Dijkstra, GraphBuilder};

    fn build(n: usize, leaf: usize, seed: u64) -> (Graph, GTree) {
        let g = road_network(&RoadNetworkConfig::new(n, seed));
        let gt = GTree::build(
            &g,
            &GtreeConfig {
                partition: crate::partition::PartitionConfig { leaf_size: leaf },
                num_threads: 2,
            },
        );
        (g, gt)
    }

    #[test]
    fn assembly_matches_dijkstra_everywhere() {
        let (g, gt) = build(700, 32, 91);
        let mut dij = Dijkstra::new(g.num_vertices());
        for s in [0u32, 123, 456, 699] {
            let s = s.min(g.num_vertices() as u32 - 1);
            let mut gd = GtreeDistance::new(&gt, &g, s);
            dij.sssp(&g, s);
            let space = dij.space();
            for t in (0..g.num_vertices() as VertexId).step_by(23) {
                assert_eq!(gd.distance(t), space.distance(t).unwrap(), "({s},{t})");
            }
        }
    }

    #[test]
    fn same_leaf_pairs_are_exact() {
        let (g, gt) = build(500, 64, 93);
        let mut dij = Dijkstra::new(g.num_vertices());
        // Exhaustively test one leaf.
        let leaf = gt.hierarchy.leaf_of(0);
        let vs = gt.hierarchy.leaf_vertices(leaf).to_vec();
        let s = vs[0];
        let mut gd = GtreeDistance::new(&gt, &g, s);
        dij.sssp(&g, s);
        let space = dij.space();
        for &t in &vs {
            assert_eq!(
                gd.distance(t),
                space.distance(t).unwrap(),
                "same-leaf ({s},{t})"
            );
        }
    }

    #[test]
    fn min_dist_lower_bounds_every_member() {
        let (g, gt) = build(600, 32, 95);
        let s = 7;
        let mut gd = GtreeDistance::new(&gt, &g, s);
        let mut dij = Dijkstra::new(g.num_vertices());
        dij.sssp(&g, s);
        let space = dij.space();
        for n in 0..gt.hierarchy.num_nodes() as u32 {
            let md = gd.min_dist(n);
            // Every vertex inside the node is at least min_dist away.
            if gt.hierarchy.is_leaf(n) {
                for &v in gt.hierarchy.leaf_vertices(n) {
                    assert!(md <= space.distance(v).unwrap(), "node {n} vertex {v}");
                }
            }
        }
    }

    #[test]
    fn materialization_reuses_arrays() {
        let (g, gt) = build(600, 32, 97);
        let mut gd = GtreeDistance::new(&gt, &g, 11);
        let _ = gd.distance(500);
        let ops_first = gd.ops();
        let _ = gd.distance(501.min(g.num_vertices() as u32 - 1));
        let ops_second = gd.ops() - ops_first;
        assert!(
            ops_second <= ops_first,
            "second query ({ops_second} ops) should reuse materialized arrays ({ops_first} ops)"
        );
    }

    #[test]
    fn reset_changes_source() {
        let (g, gt) = build(400, 32, 99);
        let mut gd = GtreeDistance::new(&gt, &g, 0);
        let d1 = gd.distance(100);
        gd.reset(100);
        assert_eq!(gd.distance(0), d1, "distance must be symmetric");
        assert_eq!(gd.distance(100), 0);
    }

    /// All pairs, one `GtreeDistance` pinned per source, against Dijkstra —
    /// at leaf sizes from two vertices per leaf up to a single leaf.
    fn all_pairs_match_dijkstra(g: &Graph) {
        let n = g.num_vertices();
        let mut dij = Dijkstra::new(n);
        for leaf_size in [2, 3, n.max(2)] {
            let gt = GTree::build(
                g,
                &GtreeConfig {
                    partition: crate::partition::PartitionConfig { leaf_size },
                    num_threads: 1,
                },
            );
            for s in 0..n as VertexId {
                let mut gd = GtreeDistance::new(&gt, g, s);
                for t in 0..n as VertexId {
                    let want = dij.one_to_one(g, s, t).min(INFINITY);
                    assert_eq!(gd.distance(t), want, "leaf size {leaf_size}: ({s},{t})");
                }
            }
        }
    }

    #[test]
    fn near_saturating_weights_do_not_wrap() {
        // The same-leaf search adds an edge to a tentative distance: across
        // a `u32::MAX - 1` edge a raw `+` panics in debug builds and in
        // release builds wraps to a distance shorter than the true one.
        let mut one_heavy = GraphBuilder::new(6);
        for v in 0..6 {
            one_heavy.add_edge(v, (v + 1) % 6, if v == 5 { u32::MAX - 1 } else { 10 });
        }
        all_pairs_match_dijkstra(&one_heavy.build());
        // Two edges already sum past INFINITY: such pairs are unreachable.
        let mut path = GraphBuilder::new(12);
        for v in 0..11 {
            path.add_edge(v, v + 1, INFINITY / 2 + 1);
        }
        all_pairs_match_dijkstra(&path.build());
    }
}
