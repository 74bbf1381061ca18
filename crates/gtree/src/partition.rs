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
/// Storage is flat CSR — child lists and per-leaf vertex lists live in
/// pooled `(offsets, data)` arrays — so the whole structure snapshots as
/// six plain little-endian arrays and loads by validate-then-copy.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    /// Per node: parent id (`u32::MAX` for the root).
    parent: Vec<u32>,
    /// Per node: depth (root = 0).
    depth: Vec<u32>,
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

    /// Depth of `n` (root = 0).
    #[inline]
    pub fn depth(&self, n: u32) -> u32 {
        self.depth[n as usize]
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

    /// Lowest common ancestor of two nodes.
    pub fn lca(&self, mut a: u32, mut b: u32) -> u32 {
        while self.depth[a as usize] > self.depth[b as usize] {
            a = self.parent[a as usize];
        }
        while self.depth[b as usize] > self.depth[a as usize] {
            b = self.parent[b as usize];
        }
        while a != b {
            a = self.parent[a as usize];
            b = self.parent[b as usize];
        }
        a
    }

    /// The child of ancestor `anc` on the path toward node `n` (which must
    /// be a strict descendant of `anc`).
    pub fn child_toward(&self, anc: u32, mut n: u32) -> u32 {
        while self.parent[n as usize] != anc {
            n = self.parent[n as usize];
            debug_assert_ne!(n, u32::MAX, "n is not a descendant of anc");
        }
        n
    }

    /// Borrowed views of the raw arrays — `(parent, child_offsets,
    /// child_data, depth, vert_offsets, vert_data, leaf_of)` — the
    /// snapshot serialization boundary.
    #[allow(clippy::type_complexity)]
    pub fn flat_parts(&self) -> (&[u32], &[u32], &[u32], &[u32], &[u32], &[VertexId], &[u32]) {
        (
            &self.parent,
            &self.child_offsets,
            &self.child_data,
            &self.depth,
            &self.vert_offsets,
            &self.vert_data,
            &self.leaf_of,
        )
    }

    /// Reassembles a hierarchy from its raw arrays, verbatim, validating
    /// every structural invariant the traversal code indexes by: CSR
    /// shapes, parents precede children (the bottom-up reverse-iteration
    /// order), depth bookkeeping, parent/child symmetry, leaves-only
    /// vertex ranges, and that the leaf vertex lists partition
    /// `0..leaf_of.len()` consistently with `leaf_of`.
    ///
    /// # Errors
    /// A description of the first violated invariant.
    pub fn from_flat_parts(
        parent: Vec<u32>,
        child_offsets: Vec<u32>,
        child_data: Vec<u32>,
        depth: Vec<u32>,
        vert_offsets: Vec<u32>,
        vert_data: Vec<VertexId>,
        leaf_of: Vec<u32>,
    ) -> Result<Hierarchy, String> {
        let n = parent.len();
        if n == 0 {
            return Err("hierarchy must hold at least the root node".into());
        }
        if depth.len() != n {
            return Err(format!("depth holds {} entries for {n} nodes", depth.len()));
        }
        check_csr("child", &child_offsets, child_data.len(), n)?;
        check_csr("vert", &vert_offsets, vert_data.len(), n)?;
        if parent[0] != u32::MAX || depth[0] != 0 {
            return Err("root must have parent = u32::MAX and depth 0".into());
        }
        for node in 1..n {
            let p = parent[node] as usize;
            if p >= node {
                return Err(format!(
                    "node {node} has parent {p}: parents must precede children"
                ));
            }
            if depth[node] != depth[p] + 1 {
                return Err(format!("node {node} depth is not parent depth + 1"));
            }
        }
        // Every non-root node is listed by exactly its parent.
        let mut listed = vec![false; n];
        for node in 0..n {
            let lo = child_offsets[node] as usize;
            let hi = child_offsets[node + 1] as usize;
            for &c in &child_data[lo..hi] {
                let c = c as usize;
                if c >= n || c == 0 {
                    return Err(format!("node {node} lists invalid child {c}"));
                }
                if parent[c] as usize != node {
                    return Err(format!("node {node} lists child {c} with another parent"));
                }
                if listed[c] {
                    return Err(format!("node {c} listed as a child twice"));
                }
                listed[c] = true;
            }
        }
        if let Some(orphan) = (1..n).find(|&c| !listed[c]) {
            return Err(format!("node {orphan} is not listed by its parent"));
        }
        // Leaves own vertices; internal nodes own none; leaf lists
        // partition the vertex set consistently with leaf_of.
        let mut seen = vec![false; leaf_of.len()];
        for node in 0..n {
            let is_leaf = child_offsets[node] == child_offsets[node + 1];
            let lo = vert_offsets[node] as usize;
            let hi = vert_offsets[node + 1] as usize;
            if !is_leaf && lo != hi {
                return Err(format!("internal node {node} holds vertices"));
            }
            for &v in &vert_data[lo..hi] {
                match seen.get_mut(v as usize) {
                    Some(slot) if !*slot => *slot = true,
                    _ => {
                        return Err(format!(
                            "vertex {v} out of range or in two leaves — not a partition"
                        ))
                    }
                }
                if leaf_of[v as usize] as usize != node {
                    return Err(format!("leaf_of[{v}] disagrees with leaf {node}"));
                }
            }
        }
        if vert_data.len() != leaf_of.len() {
            return Err(format!(
                "{} pooled leaf vertices for {} graph vertices",
                vert_data.len(),
                leaf_of.len()
            ));
        }
        Ok(Hierarchy {
            parent,
            depth,
            child_offsets,
            child_data,
            vert_offsets,
            vert_data,
            leaf_of,
        })
    }
}

fn check_csr(what: &str, offsets: &[u32], data_len: usize, n: usize) -> Result<(), String> {
    if offsets.len() != n + 1 {
        return Err(format!(
            "{what}_offsets holds {} entries for {n} nodes",
            offsets.len()
        ));
    }
    if u32::try_from(data_len).is_err() {
        return Err(format!("{what}_data length {data_len} exceeds u32"));
    }
    if offsets.first() != Some(&0) || offsets.last() != Some(&(data_len as u32)) {
        return Err(format!(
            "{what}_offsets must start at 0 and end at the data length"
        ));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(format!("{what}_offsets must be monotone non-decreasing"));
    }
    Ok(())
}

/// Nested-list scratch state for the recursive build; flattened into the
/// CSR [`Hierarchy`] once the recursion finishes.
struct Builder {
    parent: Vec<u32>,
    children: Vec<Vec<u32>>,
    depth: Vec<u32>,
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
            depth: self.depth,
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
        depth: vec![0],
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
        b.depth.push(b.depth[node as usize] + 1);
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
            assert_eq!(h.depth(n), h.depth(p) + 1);
        }
        assert_eq!(h.parent(0), u32::MAX);
    }

    #[test]
    fn lca_and_child_toward() {
        let (g, h) = build(800, 32);
        let la = h.leaf_of(0);
        let lb = h.leaf_of(g.num_vertices() as VertexId - 1);
        let l = h.lca(la, lb);
        assert!(h.depth(l) <= h.depth(la));
        assert_eq!(h.lca(la, la), la);
        if la != lb {
            let c = h.child_toward(l, la);
            assert_eq!(h.parent(c), l);
        }
        // Root is an ancestor of everything.
        assert_eq!(h.lca(la, 0), 0);
    }

    #[test]
    fn single_leaf_when_graph_is_small() {
        let (g, h) = build(50, 128);
        assert_eq!(h.num_nodes(), 1);
        assert!(h.is_leaf(0));
        assert_eq!(h.leaf_vertices(0).len(), g.num_vertices());
    }

    #[test]
    fn flat_parts_round_trip_is_identity() {
        let (_, h) = build(900, 32);
        let (p, co, cd, d, vo, vd, lo) = h.flat_parts();
        let h2 = Hierarchy::from_flat_parts(
            p.to_vec(),
            co.to_vec(),
            cd.to_vec(),
            d.to_vec(),
            vo.to_vec(),
            vd.to_vec(),
            lo.to_vec(),
        )
        .expect("round trip");
        for n in 0..h.num_nodes() as u32 {
            assert_eq!(h2.parent(n), h.parent(n));
            assert_eq!(h2.depth(n), h.depth(n));
            assert_eq!(h2.children(n), h.children(n));
            assert_eq!(h2.leaf_vertices(n), h.leaf_vertices(n));
        }
    }

    #[test]
    fn from_flat_parts_rejects_corruption() {
        let (_, h) = build(400, 32);
        let (p, co, cd, d, vo, vd, lo) = h.flat_parts();
        // Swap a vertex into the wrong leaf.
        let mut bad_lo = lo.to_vec();
        bad_lo[0] = bad_lo[lo.len() - 1];
        if bad_lo[0] != lo[0] {
            assert!(Hierarchy::from_flat_parts(
                p.to_vec(),
                co.to_vec(),
                cd.to_vec(),
                d.to_vec(),
                vo.to_vec(),
                vd.to_vec(),
                bad_lo,
            )
            .is_err());
        }
        // Break the depth bookkeeping.
        let mut bad_d = d.to_vec();
        if bad_d.len() > 1 {
            bad_d[1] = 7;
            assert!(Hierarchy::from_flat_parts(
                p.to_vec(),
                co.to_vec(),
                cd.to_vec(),
                bad_d,
                vo.to_vec(),
                vd.to_vec(),
                lo.to_vec(),
            )
            .is_err());
        }
        // Truncate the child CSR.
        assert!(Hierarchy::from_flat_parts(
            p.to_vec(),
            co[..co.len() - 1].to_vec(),
            cd.to_vec(),
            d.to_vec(),
            vo.to_vec(),
            vd.to_vec(),
            lo.to_vec(),
        )
        .is_err());
    }
}
