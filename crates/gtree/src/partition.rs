//! Geometric hierarchical partitioning.
//!
//! Recursive alternating-axis median bisection over vertex coordinates.
//! For planar-like road networks this produces boundary (border) counts of
//! the same order as METIS's edge-cut partitions — and border counts are
//! what drive G-tree matrix sizes and query cost (DESIGN.md §3,
//! substitution 3).

use kspin_graph::{Graph, VertexId};

/// Partitioning parameters.
#[derive(Debug, Clone)]
pub struct PartitionConfig {
    /// Maximum vertices per leaf (τ). Paper-style G-trees use 64–256.
    pub leaf_size: usize,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig { leaf_size: 128 }
    }
}

/// The partition hierarchy: a binary tree over vertex sets.
///
/// Storage is flat CSR: child lists and per-leaf vertex lists live in
/// pooled `(offsets, data)` arrays.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    /// Per node: parent id (`u32::MAX` for the root).
    parent: Vec<u32>,
    /// CSR offsets into `child_data` (`num_nodes + 1` entries).
    child_offsets: Vec<u32>,
    /// Pooled child ids (empty range for leaves).
    child_data: Vec<u32>,
    /// CSR offsets into `vert_data` (`num_nodes + 1` entries).
    vert_offsets: Vec<u32>,
    /// Pooled per-leaf vertices (empty range for internal nodes).
    vert_data: Vec<VertexId>,
    /// Per vertex: owning leaf node id.
    leaf_of: Vec<u32>,
}

impl Hierarchy {
    /// Number of tree nodes.
    pub fn num_nodes(&self) -> usize {
        self.parent.len()
    }

    /// Whether `n` is a leaf.
    pub fn is_leaf(&self, n: u32) -> bool {
        self.children(n).is_empty()
    }

    /// Parent of `n` (`u32::MAX` for the root).
    #[inline]
    pub fn parent(&self, n: u32) -> u32 {
        self.parent[n as usize]
    }

    /// Child ids of `n` (empty for leaves).
    #[inline]
    pub fn children(&self, n: u32) -> &[u32] {
        let lo = self.child_offsets[n as usize] as usize;
        let hi = self.child_offsets[n as usize + 1] as usize;
        &self.child_data[lo..hi]
    }

    /// Vertices of leaf `n` (empty for internal nodes). Order is the
    /// build's partition order — downstream matrix layouts key on it.
    #[inline]
    pub fn leaf_vertices(&self, n: u32) -> &[VertexId] {
        let lo = self.vert_offsets[n as usize] as usize;
        let hi = self.vert_offsets[n as usize + 1] as usize;
        &self.vert_data[lo..hi]
    }

    /// The leaf node owning vertex `v`.
    #[inline]
    pub fn leaf_of(&self, v: VertexId) -> u32 {
        self.leaf_of[v as usize]
    }

    /// Total pooled leaf-vertex count (= number of graph vertices).
    pub fn total_leaf_vertices(&self) -> usize {
        self.vert_data.len()
    }
}

/// Nested-list scratch state for the recursive build; flattened into the
/// CSR [`Hierarchy`] once the recursion finishes.
struct Builder {
    parent: Vec<u32>,
    children: Vec<Vec<u32>>,
    vertices: Vec<Vec<VertexId>>,
    leaf_of: Vec<u32>,
}

impl Builder {
    fn finish(self) -> Hierarchy {
        let mut child_offsets = Vec::with_capacity(self.children.len() + 1);
        child_offsets.push(0u32);
        let mut child_data = Vec::new();
        for l in &self.children {
            child_data.extend_from_slice(l);
            child_offsets.push(child_data.len() as u32);
        }
        let mut vert_offsets = Vec::with_capacity(self.vertices.len() + 1);
        vert_offsets.push(0u32);
        let mut vert_data = Vec::with_capacity(self.leaf_of.len());
        for l in &self.vertices {
            vert_data.extend_from_slice(l);
            vert_offsets.push(vert_data.len() as u32);
        }
        Hierarchy {
            parent: self.parent,
            child_offsets,
            child_data,
            vert_offsets,
            vert_data,
            leaf_of: self.leaf_of,
        }
    }
}

/// Builds the hierarchy by recursive median bisection.
pub fn partition(graph: &Graph, config: &PartitionConfig) -> Hierarchy {
    assert!(config.leaf_size >= 2, "leaf_size must be at least 2");
    let n = graph.num_vertices();
    let mut b = Builder {
        parent: vec![u32::MAX],
        children: vec![Vec::new()],
        vertices: vec![Vec::new()],
        leaf_of: vec![u32::MAX; n],
    };
    let all: Vec<VertexId> = (0..n as VertexId).collect();
    split(graph, config, &mut b, 0, all, 0);
    b.finish()
}

fn split(
    graph: &Graph,
    config: &PartitionConfig,
    b: &mut Builder,
    node: u32,
    mut vertices: Vec<VertexId>,
    axis: u8,
) {
    if vertices.len() <= config.leaf_size {
        for &v in &vertices {
            b.leaf_of[v as usize] = node;
        }
        b.vertices[node as usize] = vertices;
        return;
    }
    // Median split on the current axis (ties broken by the other axis and
    // id so the split is always proper).
    let mid = vertices.len() / 2;
    vertices.select_nth_unstable_by_key(mid, |&v| {
        let p = graph.coord(v);
        if axis == 0 {
            (p.x, p.y, v)
        } else {
            (p.y, p.x, v)
        }
    });
    let right = vertices.split_off(mid);
    let left = vertices;
    for part in [left, right] {
        let child = b.parent.len() as u32;
        b.parent.push(node);
        b.children.push(Vec::new());
        b.vertices.push(Vec::new());
        b.children[node as usize].push(child);
        split(graph, config, b, child, part, 1 - axis);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kspin_graph::generate::{road_network, RoadNetworkConfig};

    fn build(n: usize, leaf: usize) -> (Graph, Hierarchy) {
        let g = road_network(&RoadNetworkConfig::new(n, 71));
        let h = partition(&g, &PartitionConfig { leaf_size: leaf });
        (g, h)
    }

    #[test]
    fn every_vertex_lands_in_exactly_one_leaf() {
        let (g, h) = build(1000, 64);
        let mut seen = vec![false; g.num_vertices()];
        for n in 0..h.num_nodes() as u32 {
            if h.is_leaf(n) {
                for &v in h.leaf_vertices(n) {
                    assert!(!seen[v as usize], "vertex {v} in two leaves");
                    seen[v as usize] = true;
                    assert_eq!(h.leaf_of(v), n);
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn leaves_respect_size_bound() {
        let (_, h) = build(1000, 64);
        for n in 0..h.num_nodes() as u32 {
            if h.is_leaf(n) {
                let s = h.leaf_vertices(n).len();
                assert!(s <= 64 && s > 0, "leaf size {s}");
            }
        }
    }

    #[test]
    fn tree_structure_is_consistent() {
        let (_, h) = build(500, 32);
        for n in 1..h.num_nodes() as u32 {
            let p = h.parent(n);
            assert!(h.children(p).contains(&n));
            // Parents precede children: the bottom-up build order.
            assert!(p < n);
        }
        assert_eq!(h.parent(0), u32::MAX);
    }

    #[test]
    fn single_leaf_when_graph_is_small() {
        let (g, h) = build(50, 128);
        assert_eq!(h.num_nodes(), 1);
        assert!(h.is_leaf(0));
        assert_eq!(h.leaf_vertices(0).len(), g.num_vertices());
    }
}
