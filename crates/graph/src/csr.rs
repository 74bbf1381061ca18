//! Compressed-sparse-row graph representation.
//!
//! The CSR layout keeps each vertex's adjacency contiguous, which is the
//! single biggest lever for Dijkstra throughput on road networks (the
//! traversal is memory-bound). Undirected edges are stored once per
//! direction.

use std::sync::OnceLock;

use crate::morton::MortonSpace;
use crate::types::{Edge, Point, VertexId, Weight, INFINITY};

/// Row `row` of a CSR arena: `data[offsets[row]..offsets[row + 1]]`. The
/// one place the workspace's flat adjacency, upward-edge, hub-label and
/// leaf-candidate arenas are sliced.
///
/// # Panics
/// If `offsets` is not the arena's fence array — `rows + 1` monotone
/// entries, the last at most `data.len()` — or `row` is not below `rows`.
/// Every caller's constructor or snapshot validator establishes the shape.
#[inline]
#[expect(
    clippy::indexing_slicing,
    reason = "offsets has rows + 1 monotone slots, the last at most data.len(), and \
              row < rows for every id the owning structure hands out"
)]
pub fn row_slice<'a, T>(offsets: &[u32], data: &'a [T], row: usize) -> &'a [T] {
    let lo = offsets[row] as usize;
    let hi = offsets[row + 1] as usize;
    &data[lo..hi]
}

/// An immutable undirected road-network graph in CSR form.
///
/// Construct via [`GraphBuilder`], [`crate::dimacs`] or [`crate::generate`].
#[derive(Debug, Clone)]
pub struct Graph {
    /// `offsets[v]..offsets[v + 1]` indexes `targets`/`weights` for vertex `v`.
    offsets: Vec<u32>,
    targets: Vec<VertexId>,
    weights: Vec<Weight>,
    coords: Vec<Point>,
    /// [`Graph::morton_order`], computed on first use.
    morton: OnceLock<(MortonSpace, Vec<(u32, VertexId)>)>,
    /// [`Graph::arc_extremes`], computed on first use.
    extremes: OnceLock<(Weight, Weight)>,
}

impl Graph {
    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges (each stored twice internally).
    #[inline]
    #[expect(
        clippy::integer_division_remainder_used,
        reason = "halves the arc count"
    )]
    pub fn num_edges(&self) -> usize {
        self.targets.len() / 2
    }

    /// Number of directed arcs (twice [`Self::num_edges`]).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.targets.len()
    }

    /// Iterates `(neighbor, weight)` pairs of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        let targets = row_slice(&self.offsets, &self.targets, v as usize);
        let weights = row_slice(&self.offsets, &self.weights, v as usize);
        targets.iter().copied().zip(weights.iter().copied())
    }

    /// Coordinate of `v`.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "coords is sized n; v < n for every built vertex id"
    )]
    pub fn coord(&self, v: VertexId) -> Point {
        self.coords[v as usize]
    }

    /// All coordinates, indexed by vertex id.
    #[inline]
    pub fn coords(&self) -> &[Point] {
        &self.coords
    }

    /// Iterates every undirected edge once (`u < v`).
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        (0..self.num_vertices() as VertexId).flat_map(move |u| {
            self.neighbors(u)
                .filter(move |&(v, _)| u < v)
                .map(move |(v, w)| Edge::new(u, v, w))
        })
    }

    /// Approximate in-memory size in bytes (CSR arrays + coordinates).
    pub fn size_bytes(&self) -> usize {
        self.offsets.len() * 4
            + self.targets.len() * 4
            + self.weights.len() * 4
            + self.coords.len() * 8
    }

    /// Axis-aligned bounding box over all vertex coordinates as
    /// `(min, max)`. Returns a degenerate box for an empty graph.
    fn bounding_box(&self) -> (Point, Point) {
        let mut min = Point::new(i32::MAX, i32::MAX);
        let mut max = Point::new(i32::MIN, i32::MIN);
        for p in &self.coords {
            min.x = min.x.min(p.x);
            min.y = min.y.min(p.y);
            max.x = max.x.max(p.x);
            max.y = max.y.max(p.y);
        }
        if self.coords.is_empty() {
            (Point::new(0, 0), Point::new(0, 0))
        } else {
            (min, max)
        }
    }

    /// Every vertex as `(Morton code, vertex)`, ascending, with the
    /// [`MortonSpace`] over the vertices' bounding box that the codes are
    /// taken in.
    ///
    /// The ρ-approximate NVD build of every keyword reads its codes from
    /// here, so a graph pays for one `n log n` sort, on the first build,
    /// not one per keyword. Held in memory only (8 B per vertex), never
    /// serialized: a decoded graph computes it again when first asked.
    pub fn morton_order(&self) -> (MortonSpace, &[(u32, VertexId)]) {
        let (space, order) = self.morton.get_or_init(|| {
            let (min, max) = self.bounding_box();
            let space = MortonSpace::new(min, max);
            let mut order: Vec<(u32, VertexId)> = self
                .coords
                .iter()
                .zip(0..)
                .map(|(&p, v)| (space.code(p), v))
                .collect();
            order.sort_unstable();
            (space, order)
        });
        (*space, order)
    }

    /// The lightest arc weight and the heaviest one below [`INFINITY`]:
    /// `(Weight::MAX, 0)` where there is no such arc.
    ///
    /// Every keyword's NVD sweep sizes its buckets from these two, so,
    /// like [`Self::morton_order`], they are found once per graph, on the
    /// first build that asks, and never serialized.
    pub fn arc_extremes(&self) -> (Weight, Weight) {
        *self.extremes.get_or_init(|| {
            self.weights.iter().fold((Weight::MAX, 0), |(lo, hi), &w| {
                (lo.min(w), if w < INFINITY { hi.max(w) } else { hi })
            })
        })
    }

    /// Borrowed views of the raw CSR arrays — `(offsets, targets, weights,
    /// coords)` — the flat-serialization boundary for snapshots.
    pub fn csr_parts(&self) -> (&[u32], &[VertexId], &[Weight], &[Point]) {
        (&self.offsets, &self.targets, &self.weights, &self.coords)
    }

    /// Reassembles a graph from raw CSR arrays without re-sorting or
    /// copying, validating every invariant [`row_slice`] and the other
    /// accessors rely on: `n + 1` monotone offsets bracketing the arc
    /// arrays, targets in range, and per-vertex adjacency strictly
    /// ascending (the builder's canonical order).
    ///
    /// # Errors
    /// A description of the first violated CSR invariant.
    pub fn from_csr_parts(
        offsets: Vec<u32>,
        targets: Vec<VertexId>,
        weights: Vec<Weight>,
        coords: Vec<Point>,
    ) -> Result<Graph, String> {
        if offsets.is_empty() {
            return Err("offsets must hold n + 1 entries, got 0".into());
        }
        let n = offsets.len() - 1;
        if coords.len() != n {
            return Err(format!(
                "coords holds {} entries for {n} vertices",
                coords.len()
            ));
        }
        if targets.len() != weights.len() {
            return Err(format!(
                "targets/weights length mismatch: {} vs {}",
                targets.len(),
                weights.len()
            ));
        }
        if u32::try_from(targets.len()).is_err() {
            return Err(format!("arc count {} exceeds u32 offsets", targets.len()));
        }
        if offsets.first() != Some(&0) || offsets.last() != Some(&(targets.len() as u32)) {
            return Err("offsets must start at 0 and end at the arc count".into());
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "windows(2) yields two-element slices"
        )]
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("offsets must be monotone non-decreasing".into());
        }
        // Whole-array passes, free of branches on a valid graph; a failed
        // pass then locates its first violation for the message. The
        // vertex whose row holds arc `i` is the last one whose row starts
        // at or before `i` (empty rows included).
        let row_of = |i: usize| offsets.partition_point(|&o| o as usize <= i) - 1;
        let max_target = targets.iter().fold(0, |m, &t| m.max(t));
        if !targets.is_empty() && max_target as usize >= n {
            let i = targets.iter().position(|&t| t as usize >= n).unwrap_or(0);
            return Err(format!(
                "vertex {} has a target out of range {n}",
                row_of(i)
            ));
        }
        // Every row ascends strictly iff each descent of the arc array
        // falls where a row starts: count both.
        let next = targets.get(1..).unwrap_or_default();
        let descents = targets.iter().zip(next).filter(|(a, b)| a >= b).count();
        #[expect(
            clippy::indexing_slicing,
            reason = "windows(2) yields two-element slices"
        )]
        let at_row_starts = offsets
            .windows(2)
            .filter(|w| 0 < w[0] && w[0] < w[1])
            .filter(|w| {
                let start = w[0] as usize;
                matches!(targets.get(start - 1..=start), Some(&[a, b]) if a >= b)
            })
            .count();
        #[expect(
            clippy::indexing_slicing,
            reason = "windows(2) yields two-element slices"
        )]
        if descents != at_row_starts {
            let mut fences = offsets.iter().map(|&o| o as usize).peekable();
            for (i, w) in targets.windows(2).enumerate() {
                if w[0] >= w[1] {
                    let start = i + 1;
                    while fences.next_if(|&f| f < start).is_some() {}
                    if fences.peek() != Some(&start) {
                        return Err(format!(
                            "vertex {} adjacency is not strictly ascending",
                            row_of(start)
                        ));
                    }
                }
            }
        }
        Ok(Graph {
            offsets,
            targets,
            weights,
            coords,
            morton: OnceLock::new(),
            extremes: OnceLock::new(),
        })
    }
}

/// Incremental builder for [`Graph`].
///
/// Accepts edges in any order; duplicate `(u, v)` pairs keep the smallest
/// weight, mirroring how the DIMACS loaders collapse parallel road segments.
#[derive(Debug, Default)]
pub struct GraphBuilder {
    num_vertices: usize,
    edges: Vec<Edge>,
    coords: Vec<Point>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `n` vertices at the origin.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            num_vertices: n,
            edges: Vec::new(),
            coords: vec![Point::default(); n],
        }
    }

    /// Number of vertices the built graph will have.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Sets the coordinate of vertex `v`.
    ///
    /// # Panics
    /// If `v` is out of range.
    #[expect(
        clippy::indexing_slicing,
        reason = "the documented panic on a bad vertex id"
    )]
    pub fn set_coord(&mut self, v: VertexId, p: Point) {
        self.coords[v as usize] = p;
    }

    /// Adds an undirected edge. Self-loops are ignored (they can never lie
    /// on a shortest path with positive weights).
    ///
    /// # Panics
    /// If an endpoint is out of range or the weight is zero.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId, weight: Weight) {
        assert!(
            (u as usize) < self.num_vertices && (v as usize) < self.num_vertices,
            "edge endpoint out of range: ({u}, {v}) with n = {}",
            self.num_vertices
        );
        assert!(weight > 0, "edge weights must be strictly positive");
        if u == v {
            return;
        }
        self.edges.push(Edge::new(u, v, weight));
    }

    /// Finalizes into a CSR [`Graph`], deduplicating parallel edges by
    /// minimum weight.
    #[expect(
        clippy::indexing_slicing,
        reason = "build time: add_edge checked every endpoint < n, deg and cursor hold n + 1 \
                  fences and each edge fills two of the 2·|E| arc slots"
    )]
    pub fn build(mut self) -> Graph {
        // Canonicalize so duplicates collapse regardless of insertion order.
        for e in &mut self.edges {
            if e.u > e.v {
                std::mem::swap(&mut e.u, &mut e.v);
            }
        }
        self.edges.sort_unstable_by_key(|e| (e.u, e.v, e.weight));
        self.edges.dedup_by(|next, prev| {
            // Retain the first (minimum-weight) copy of each pair.
            next.u == prev.u && next.v == prev.v
        });

        let n = self.num_vertices;
        let mut deg = vec![0u32; n + 1];
        for e in &self.edges {
            deg[e.u as usize + 1] += 1;
            deg[e.v as usize + 1] += 1;
        }
        for i in 0..n {
            deg[i + 1] += deg[i];
        }
        let offsets = deg;
        let arcs = self.edges.len() * 2;
        let mut targets = vec![0 as VertexId; arcs];
        let mut weights = vec![0 as Weight; arcs];
        let mut cursor = offsets.clone();
        for e in &self.edges {
            let cu = &mut cursor[e.u as usize];
            targets[*cu as usize] = e.v;
            weights[*cu as usize] = e.weight;
            *cu += 1;
            let cv = &mut cursor[e.v as usize];
            targets[*cv as usize] = e.u;
            weights[*cv as usize] = e.weight;
            *cv += 1;
        }
        Graph {
            offsets,
            targets,
            weights,
            coords: self.coords,
            morton: OnceLock::new(),
            extremes: OnceLock::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Weight of edge `(u, v)` if present.
    fn edge_weight(g: &Graph, u: VertexId, v: VertexId) -> Option<Weight> {
        g.neighbors(u).find(|&(t, _)| t == v).map(|(_, w)| w)
    }

    fn triangle() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 2);
        b.add_edge(1, 2, 3);
        b.add_edge(2, 0, 10);
        b.build()
    }

    #[test]
    fn row_slice_serves_first_last_and_empty_rows() {
        let offsets = [0u32, 2, 2, 5];
        let data = [10u32, 11, 12, 13, 14];
        assert_eq!(row_slice(&offsets, &data, 0), &[10, 11]);
        assert_eq!(row_slice(&offsets, &data, 1), &[] as &[u32]);
        assert_eq!(row_slice(&offsets, &data, 2), &[12, 13, 14]);
    }

    /// Rows 0, 2, 3 and 5 are empty; rows 1 and 4 hold the arcs, so the
    /// arc array descends at the start of row 4.
    #[test]
    fn from_csr_parts_names_the_row_around_empty_rows() {
        let offsets = vec![0u32, 0, 2, 2, 2, 4, 4];
        let parts = |targets: [u32; 4]| {
            Graph::from_csr_parts(
                offsets.clone(),
                targets.to_vec(),
                vec![1; 4],
                vec![Point::default(); 6],
            )
        };
        let g = parts([2, 5, 1, 3]).expect("ascending rows");
        assert_eq!(g.neighbors(4).map(|(t, _)| t).collect::<Vec<_>>(), [1, 3]);
        assert!(g.neighbors(5).next().is_none());
        for (targets, want) in [
            ([2, 6, 1, 3], "vertex 1 has a target out of range"),
            ([2, 5, 1, 6], "vertex 4 has a target out of range"),
            ([5, 2, 1, 3], "vertex 1 adjacency is not strictly ascending"),
            ([2, 5, 3, 3], "vertex 4 adjacency is not strictly ascending"),
            ([2, 5, 3, 1], "vertex 4 adjacency is not strictly ascending"),
        ] {
            let err = parts(targets).expect_err("a broken row");
            assert!(err.starts_with(want), "{targets:?}: {err}");
        }
    }

    #[test]
    fn csr_counts_and_degrees() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_arcs(), 6);
        for v in 0..3 {
            assert_eq!(g.neighbors(v).count(), 2);
        }
    }

    #[test]
    fn neighbors_are_symmetric() {
        let g = triangle();
        assert_eq!(edge_weight(&g, 0, 1), Some(2));
        assert_eq!(edge_weight(&g, 1, 0), Some(2));
        assert_eq!(edge_weight(&g, 0, 2), Some(10));
        assert_eq!(edge_weight(&g, 1, 2), Some(3));
        assert_eq!(edge_weight(&g, 0, 0), None);
    }

    #[test]
    fn parallel_edges_keep_minimum_weight() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 7);
        b.add_edge(1, 0, 3); // reversed duplicate, smaller
        b.add_edge(0, 1, 9);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(edge_weight(&g, 0, 1), Some(3));
    }

    #[test]
    fn self_loops_are_dropped() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 0, 5);
        b.add_edge(0, 1, 1);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.neighbors(0).count(), 1);
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn zero_weight_rejected() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 0);
    }

    #[test]
    fn edges_iterator_visits_each_edge_once() {
        let g = triangle();
        let mut es: Vec<_> = g.edges().map(|e| (e.u, e.v, e.weight)).collect();
        es.sort_unstable();
        assert_eq!(es, vec![(0, 1, 2), (0, 2, 10), (1, 2, 3)]);
    }

    #[test]
    fn coords_roundtrip_and_bbox() {
        let mut b = GraphBuilder::new(2);
        b.set_coord(0, Point::new(-5, 2));
        b.set_coord(1, Point::new(9, -1));
        b.add_edge(0, 1, 1);
        let g = b.build();
        assert_eq!(g.coord(0), Point::new(-5, 2));
        let (min, max) = g.bounding_box();
        assert_eq!(min, Point::new(-5, -1));
        assert_eq!(max, Point::new(9, 2));
    }

    #[test]
    fn morton_order_lists_every_vertex_once_by_code_then_id() {
        let mut b = GraphBuilder::new(4);
        for (v, (x, y)) in [(9, 9), (0, 0), (9, 0), (0, 0)].into_iter().enumerate() {
            b.set_coord(v as VertexId, Point::new(x, y));
        }
        b.add_edge(0, 1, 1);
        let g = b.build();
        let (space, order) = g.morton_order();
        let code = |x, y| space.code(Point::new(x, y));
        assert_eq!(
            (code(0, 0), code(9, 0), code(9, 9)),
            (0, 0x5555_5555, u32::MAX)
        );
        assert_eq!(order, [(0, 1), (0, 3), (0x5555_5555, 2), (u32::MAX, 0)]);
        // Computed once: a second call hands out the same table.
        assert!(std::ptr::eq(order, g.morton_order().1));
    }

    #[test]
    fn arc_extremes_skip_unrelaxable_arcs() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 7);
        b.add_edge(1, 2, 3);
        b.add_edge(2, 3, INFINITY);
        assert_eq!(b.build().arc_extremes(), (3, 7));
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, INFINITY + 1);
        assert_eq!(b.build().arc_extremes(), (INFINITY + 1, 0));
        assert_eq!(
            GraphBuilder::new(3).build().arc_extremes(),
            (Weight::MAX, 0)
        );
    }

    #[test]
    fn empty_graph_is_valid() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }
}
