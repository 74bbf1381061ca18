//! The G-tree structure: borders, distance matrices, build.

use std::collections::HashMap;

use kspin_graph::{Dijkstra, Graph, VertexId, Weight};

use crate::partition::{partition, Hierarchy, PartitionConfig};

/// Build parameters.
#[derive(Debug, Clone, Default)]
pub struct GtreeConfig {
    /// Partitioning parameters (leaf size τ).
    pub partition: PartitionConfig,
    /// Worker threads for matrix construction (0 = all available).
    pub num_threads: usize,
}

/// A built G-tree over one road network.
///
/// Matrices are **globally exact**: every entry is the true network
/// distance in `G`, computed during the build by bounded one-to-many
/// Dijkstra (see the crate docs for why this differs from the original
/// bottom-up supergraph construction without changing query behavior).
#[derive(Debug)]
pub struct GTree {
    pub hierarchy: Hierarchy,
    /// Per node: its border vertices.
    pub(crate) borders: Vec<Vec<VertexId>>,
    /// Per internal node: concatenation of children's borders (the matrix
    /// dimension); per leaf: empty.
    pub(crate) cb: Vec<Vec<VertexId>>,
    /// Per internal node and child position: offset of that child's border
    /// block within `cb`.
    pub(crate) cb_child_offset: Vec<Vec<u32>>,
    /// Per node: positions of `borders[n]` within the parent-facing frame —
    /// for internal nodes, indices into `cb[n]`; for leaves, indices into
    /// the leaf's vertex list.
    pub(crate) border_pos: Vec<Vec<u32>>,
    /// Per node matrix, row-major:
    /// * leaf: `borders × leaf_vertices` (column order = the leaf's
    ///   vertex-list order),
    /// * internal: `cb × cb`.
    pub(crate) matrix: Vec<Vec<Weight>>,
    /// Per leaf: vertex → column index.
    pub(crate) leaf_col: Vec<HashMap<VertexId, u32>>,
    /// DFS leaf-interval per node (`[lo, hi)`) and leaf order index per
    /// leaf, for O(1) subtree membership tests.
    pub(crate) leaf_range: Vec<(u32, u32)>,
    leaf_order: Vec<u32>,
}

impl GTree {
    /// Builds the tree (partition + borders + matrices).
    pub fn build(graph: &Graph, config: &GtreeConfig) -> Self {
        let hierarchy = partition(graph, &config.partition);
        let num_nodes = hierarchy.num_nodes();

        // --- DFS leaf intervals ------------------------------------------
        let mut leaf_range = vec![(0u32, 0u32); num_nodes];
        let mut leaf_order = vec![0u32; num_nodes];
        let mut counter = 0u32;
        dfs_intervals(
            &hierarchy,
            0,
            &mut counter,
            &mut leaf_range,
            &mut leaf_order,
        );

        let in_subtree = |n: u32, leaf: u32| -> bool {
            let (lo, hi) = leaf_range[n as usize];
            (lo..hi).contains(&leaf_order[leaf as usize])
        };

        // --- borders ------------------------------------------------------
        let mut borders: Vec<Vec<VertexId>> = vec![Vec::new(); num_nodes];
        // Leaves: a vertex is a border if any neighbor lives in another leaf.
        for n in 0..num_nodes as u32 {
            if !hierarchy.is_leaf(n) {
                continue;
            }
            for &v in hierarchy.leaf_vertices(n) {
                if graph.neighbors(v).any(|(u, _)| hierarchy.leaf_of(u) != n) {
                    borders[n as usize].push(v);
                }
            }
        }
        // Internal nodes bottom-up (children have larger ids than parents
        // in our construction order, so iterate in reverse).
        for n in (0..num_nodes as u32).rev() {
            if hierarchy.is_leaf(n) {
                continue;
            }
            let mut bs = Vec::new();
            for &c in hierarchy.children(n) {
                for &b in &borders[c as usize] {
                    let outside = graph
                        .neighbors(b)
                        .any(|(u, _)| !in_subtree(n, hierarchy.leaf_of(u)));
                    if outside {
                        bs.push(b);
                    }
                }
            }
            borders[n as usize] = bs;
        }

        // --- cb frames and border positions --------------------------------
        let mut cb: Vec<Vec<VertexId>> = vec![Vec::new(); num_nodes];
        let mut cb_child_offset: Vec<Vec<u32>> = vec![Vec::new(); num_nodes];
        for n in 0..num_nodes as u32 {
            if hierarchy.is_leaf(n) {
                continue;
            }
            let mut frame = Vec::new();
            let mut offsets = Vec::new();
            for &c in hierarchy.children(n) {
                offsets.push(frame.len() as u32);
                frame.extend_from_slice(&borders[c as usize]);
            }
            cb[n as usize] = frame;
            cb_child_offset[n as usize] = offsets;
        }

        let mut leaf_col: Vec<HashMap<VertexId, u32>> = vec![HashMap::new(); num_nodes];
        for n in 0..num_nodes as u32 {
            if hierarchy.is_leaf(n) {
                leaf_col[n as usize] = hierarchy
                    .leaf_vertices(n)
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| (v, i as u32))
                    .collect();
            }
        }

        let mut border_pos: Vec<Vec<u32>> = vec![Vec::new(); num_nodes];
        for n in 0..num_nodes as u32 {
            border_pos[n as usize] = if hierarchy.is_leaf(n) {
                borders[n as usize]
                    .iter()
                    .map(|b| leaf_col[n as usize][b])
                    .collect()
            } else {
                let pos: HashMap<VertexId, u32> = cb[n as usize]
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| (v, i as u32))
                    .collect();
                borders[n as usize].iter().map(|b| pos[b]).collect()
            };
        }

        // --- matrices (parallel over matrix *rows*: the root node alone can
        // carry most of the work, so node-level parallelism would serialize
        // on it) -------------------------------------------------------------
        #[expect(
            clippy::disallowed_methods,
            reason = "the worker count moves only build time: each row is one independent search"
        )]
        let threads = if config.num_threads == 0 {
            std::thread::available_parallelism().map_or(4, |p| p.get())
        } else {
            config.num_threads
        };
        // A job is (node, row): one bounded one-to-many Dijkstra.
        let mut jobs: Vec<(u32, u32)> = Vec::new();
        for n in 0..num_nodes as u32 {
            let rows = if hierarchy.is_leaf(n) {
                borders[n as usize].len()
            } else {
                cb[n as usize].len()
            };
            for r in 0..rows as u32 {
                jobs.push((n, r));
            }
        }
        let next = std::sync::atomic::AtomicUsize::new(0);
        // Each worker keeps the rows it computed with their job index; the
        // rows are placed by that index afterwards, so the matrices do not
        // depend on which worker claimed which job.
        let shards = crossbeam_scope(threads, || {
            let mut dij = Dijkstra::new(graph.num_vertices());
            let mut shard = Vec::new();
            loop {
                let j = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if j >= jobs.len() {
                    break;
                }
                let (n, r) = jobs[j];
                let (source, targets): (VertexId, &[VertexId]) = if hierarchy.is_leaf(n) {
                    (borders[n as usize][r as usize], hierarchy.leaf_vertices(n))
                } else {
                    (cb[n as usize][r as usize], &cb[n as usize])
                };
                shard.push((j, dij.one_to_many(graph, source, targets)));
            }
            shard
        });
        let mut rows: Vec<Vec<Weight>> = vec![Vec::new(); jobs.len()];
        for (j, row) in shards.into_iter().flatten() {
            rows[j] = row;
        }
        let mut matrix: Vec<Vec<Weight>> = vec![Vec::new(); num_nodes];
        for (&(n, _), row) in jobs.iter().zip(rows) {
            matrix[n as usize].extend(row);
        }

        GTree {
            hierarchy,
            borders,
            cb,
            cb_child_offset,
            border_pos,
            matrix,
            leaf_col,
            leaf_range,
            leaf_order,
        }
    }

    /// Whether `leaf` (a leaf node id) lies in the subtree of `n`.
    #[inline]
    pub fn in_subtree(&self, n: u32, leaf: u32) -> bool {
        let (lo, hi) = self.leaf_range[n as usize];
        (lo..hi).contains(&self.leaf_order[leaf as usize])
    }

    /// Exact network distance between the `i`-th and `j`-th borders of
    /// node `n` (read from the node's matrix). This is the *shortcut*
    /// weight a ROAD-style route overlay hangs between Rnet borders.
    pub fn border_shortcut(&self, n: u32, i: usize, j: usize) -> Weight {
        let ni = n as usize;
        if self.hierarchy.is_leaf(n) {
            let cols = self.hierarchy.leaf_vertices(n).len();
            let col = self.border_pos[ni][j] as usize;
            self.matrix[ni][i * cols + col]
        } else {
            let dim = self.cb[ni].len();
            let (pi, pj) = (
                self.border_pos[ni][i] as usize,
                self.border_pos[ni][j] as usize,
            );
            self.matrix[ni][pi * dim + pj]
        }
    }

    /// Borders of node `n`.
    pub fn borders(&self, n: u32) -> &[VertexId] {
        &self.borders[n as usize]
    }

    /// Total index size in bytes (matrices dominate — this is the
    /// keyword-free road-network index of Fig. 14).
    pub fn size_bytes(&self) -> usize {
        let mats: usize = self.matrix.iter().map(|m| m.len() * 4).sum();
        let frames: usize = self.cb.iter().map(|f| f.len() * 4).sum();
        let bs: usize = self.borders.iter().map(|b| b.len() * 8).sum();
        let leaves: usize = self.hierarchy.total_leaf_vertices() * 12;
        mats + frames + bs + leaves
    }
}

fn dfs_intervals(
    h: &Hierarchy,
    n: u32,
    counter: &mut u32,
    range: &mut [(u32, u32)],
    order: &mut [u32],
) {
    let lo = *counter;
    if h.is_leaf(n) {
        order[n as usize] = *counter;
        *counter += 1;
    } else {
        for &c in h.children(n) {
            dfs_intervals(h, c, counter, range, order);
        }
    }
    range[n as usize] = (lo, *counter);
}

/// Runs `f` on `threads` scoped workers and returns each worker's result.
/// A worker's panic reaches the caller with its own payload.
fn crossbeam_scope<T: Send, F: Fn() -> T + Sync>(threads: usize, f: F) -> Vec<T> {
    let joined = crossbeam::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.max(1)).map(|_| s.spawn(|_| f())).collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    });
    joined.unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kspin_graph::generate::{road_network, RoadNetworkConfig};

    fn build(n: usize, leaf: usize) -> (Graph, GTree) {
        let g = road_network(&RoadNetworkConfig::new(n, 81));
        let gt = GTree::build(
            &g,
            &GtreeConfig {
                partition: PartitionConfig { leaf_size: leaf },
                num_threads: 2,
            },
        );
        (g, gt)
    }

    #[test]
    fn borders_have_outside_neighbors() {
        let (g, gt) = build(600, 32);
        for n in 0..gt.hierarchy.num_nodes() as u32 {
            for &b in gt.borders(n) {
                let has_outside = g
                    .neighbors(b)
                    .any(|(u, _)| !gt.in_subtree(n, gt.hierarchy.leaf_of(u)));
                assert!(has_outside, "border {b} of node {n} has no outside edge");
            }
        }
    }

    #[test]
    fn all_cut_edges_touch_borders() {
        let (g, gt) = build(600, 32);
        // Every edge crossing a leaf boundary has both endpoints as leaf
        // borders.
        for e in g.edges() {
            let (lu, lv) = (gt.hierarchy.leaf_of(e.u), gt.hierarchy.leaf_of(e.v));
            if lu != lv {
                assert!(gt.borders(lu).contains(&e.u));
                assert!(gt.borders(lv).contains(&e.v));
            }
        }
    }

    #[test]
    fn leaf_matrices_hold_exact_distances() {
        let (g, gt) = build(400, 32);
        let mut dij = Dijkstra::new(g.num_vertices());
        // Check one leaf exhaustively.
        let leaf = gt.hierarchy.leaf_of(0);
        let cols = gt.hierarchy.leaf_vertices(leaf);
        for (bi, &b) in gt.borders(leaf).iter().enumerate() {
            dij.sssp(&g, b);
            let space = dij.space();
            for (ci, &v) in cols.iter().enumerate() {
                let want = space.distance(v).unwrap();
                let got = gt.matrix[leaf as usize][bi * cols.len() + ci];
                assert_eq!(got, want, "leaf {leaf} border {b} vertex {v}");
            }
        }
    }

    #[test]
    fn internal_matrices_hold_exact_distances() {
        let (g, gt) = build(400, 32);
        let mut dij = Dijkstra::new(g.num_vertices());
        // Root matrix spot check.
        let frame = &gt.cb[0];
        assert!(!frame.is_empty(), "root has no child borders");
        let rows = frame.len();
        for bi in (0..rows).step_by((rows / 4).max(1)) {
            dij.sssp(&g, frame[bi]);
            let space = dij.space();
            for ci in 0..rows {
                let want = space.distance(frame[ci]).unwrap();
                assert_eq!(gt.matrix[0][bi * rows + ci], want);
            }
        }
    }

    #[test]
    fn border_pos_points_at_the_right_vertices() {
        let (_, gt) = build(500, 32);
        for n in 0..gt.hierarchy.num_nodes() as u32 {
            let ni = n as usize;
            for (i, &b) in gt.borders[ni].iter().enumerate() {
                let p = gt.border_pos[ni][i] as usize;
                if gt.hierarchy.is_leaf(n) {
                    assert_eq!(gt.hierarchy.leaf_vertices(n)[p], b);
                } else {
                    assert_eq!(gt.cb[ni][p], b);
                }
            }
        }
    }

    #[test]
    fn cb_blocks_match_children_borders() {
        let (_, gt) = build(500, 32);
        for n in 0..gt.hierarchy.num_nodes() as u32 {
            let ni = n as usize;
            for (k, &c) in gt.hierarchy.children(n).iter().enumerate() {
                let off = gt.cb_child_offset[ni][k] as usize;
                let bs = &gt.borders[c as usize];
                assert_eq!(&gt.cb[ni][off..off + bs.len()], &bs[..]);
            }
        }
    }
}
