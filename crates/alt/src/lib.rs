//! ALT landmark index (Goldberg & Harrelson [15]).
//!
//! K-SPIN's Lower Bounding Module (§3, module 1) needs a cheap, admissible
//! lower bound on network distance between arbitrary vertex pairs. ALT
//! pre-computes exact distances from a small set of *landmark* vertices to
//! every vertex; the triangle inequality then gives
//! `|d(L,u) − d(L,v)| ≤ d(u,v)` for every landmark `L`, and the maximum over
//! landmarks is the reported bound. The paper uses m = 16 landmarks (§5.1),
//! chosen by farthest selection as in [16].

#![deny(missing_docs)]
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]
// Panic sources: a site that may panic is fixed or carries
// `#[expect(<lint>, reason = "…")]`. Tests may index and panic (clippy.toml);
// the division lint has no such switch, so it is denied outside tests only.
#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![cfg_attr(not(test), deny(clippy::integer_division_remainder_used))]

pub mod astar;

pub use astar::AltAstar;

use kspin_graph::{Dijkstra, Graph, VertexId, Weight, INFINITY};

/// Landmark selection strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LandmarkStrategy {
    /// Greedy farthest-point selection: each landmark maximizes the minimum
    /// network distance to those already chosen. The road-network default.
    Farthest,
    /// Uniformly random vertices — cheaper to select, looser bounds. Used
    /// by the ablation bench.
    Random,
}

/// The ALT index: `m` landmarks with full distance vectors.
///
/// The distance table is one flat vertex-major array (`n × m`, stride
/// `m`): a vertex's `m` landmark distances are one contiguous run —
/// exactly one 64-byte cache line's worth at the paper's m = 16 — so a
/// bound reads two rows, not `2m` scattered words. One allocation, and the
/// exact layout the snapshot format serializes verbatim.
#[derive(Debug, Clone)]
pub struct AltIndex {
    landmarks: Vec<VertexId>,
    num_vertices: usize,
    /// `dist[v * m + l]` = network distance from landmark `l` to vertex
    /// `v` (symmetric on undirected graphs).
    dist: Vec<Weight>,
}

impl AltIndex {
    /// Builds an index with `num_landmarks` landmarks.
    ///
    /// Farthest selection seeds from a deterministic function of `seed`, so
    /// builds are reproducible.
    ///
    /// # Panics
    /// If the graph is empty or `num_landmarks` is zero.
    #[expect(
        clippy::indexing_slicing,
        clippy::integer_division_remainder_used,
        reason = "build time: n > 0 is asserted above, and d and min_dist hold n entries"
    )]
    pub fn build(
        graph: &Graph,
        num_landmarks: usize,
        strategy: LandmarkStrategy,
        seed: u64,
    ) -> Self {
        let n = graph.num_vertices();
        assert!(n > 0, "cannot build ALT over an empty graph");
        assert!(num_landmarks > 0, "need at least one landmark");
        let m = num_landmarks.min(n);
        let mut dijkstra = Dijkstra::new(n);
        let mut landmarks = Vec::with_capacity(m);
        let mut dist = vec![INFINITY; m * n];

        match strategy {
            LandmarkStrategy::Farthest => {
                // min_dist[v] = distance from v to the nearest chosen landmark.
                let mut min_dist = vec![INFINITY; n];
                let mut next = (seed % n as u64) as VertexId;
                for l in 0..m {
                    landmarks.push(next);
                    let d = Self::distances_from(graph, &mut dijkstra, next);
                    let mut best = next;
                    let mut best_d = 0;
                    for v in 0..n {
                        let dv = d[v].min(min_dist[v]);
                        min_dist[v] = dv;
                        // Ignore unreachable vertices when picking the next
                        // landmark (they would otherwise absorb every pick).
                        if dv > best_d && dv < INFINITY {
                            best_d = dv;
                            best = v as VertexId;
                        }
                    }
                    Self::fill_column(&mut dist, m, l, &d);
                    next = best;
                }
            }
            LandmarkStrategy::Random => {
                let mut state = seed | 1;
                let mut chosen = std::collections::BTreeSet::new();
                while landmarks.len() < m {
                    // xorshift64* — avoids a rand dependency in the hot path.
                    state ^= state >> 12;
                    state ^= state << 25;
                    state ^= state >> 27;
                    let v =
                        ((state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 32) % n as u64) as VertexId;
                    if chosen.insert(v) {
                        let d = Self::distances_from(graph, &mut dijkstra, v);
                        Self::fill_column(&mut dist, m, landmarks.len(), &d);
                        landmarks.push(v);
                    }
                }
            }
        }
        AltIndex {
            landmarks,
            num_vertices: n,
            dist,
        }
    }

    fn distances_from(graph: &Graph, dijkstra: &mut Dijkstra, l: VertexId) -> Vec<Weight> {
        dijkstra.sssp(graph, l);
        let space = dijkstra.space();
        (0..graph.num_vertices() as VertexId)
            .map(|v| space.distance(v).unwrap_or(INFINITY))
            .collect()
    }

    /// Writes landmark `l`'s distance vector `d` into column `l < m` of the
    /// vertex-major table.
    #[expect(
        clippy::indexing_slicing,
        reason = "build time: each row holds m > l entries"
    )]
    fn fill_column(dist: &mut [Weight], m: usize, l: usize, d: &[Weight]) {
        for (row, &dv) in dist.chunks_exact_mut(m).zip(d) {
            row[l] = dv;
        }
    }

    /// The chosen landmark vertices.
    pub fn landmarks(&self) -> &[VertexId] {
        &self.landmarks
    }

    /// Vertex `v`'s `m` landmark distances; `None` when `v` is out of range.
    #[inline]
    fn row(&self, v: VertexId) -> Option<&[Weight]> {
        let m = self.landmarks.len();
        let at = v as usize * m;
        self.dist.get(at..at + m)
    }

    /// Admissible lower bound on `d(u, v)`:
    /// `max_L |d(L,u) − d(L,v)|`. O(m) with m a small constant (§5.1).
    /// An id outside the graph, or an index with no landmarks, gets the
    /// trivially admissible bound 0.
    #[inline]
    pub fn lower_bound(&self, u: VertexId, v: VertexId) -> Weight {
        if u == v {
            return 0;
        }
        let (Some(du), Some(dv)) = (self.row(u), self.row(v)) else {
            return 0;
        };
        // A select, not a `continue`: the loop has no data-dependent branch,
        // so it compiles to SIMD lanes over the two rows.
        du.iter()
            .zip(dv)
            .map(|(&du, &dv)| {
                // A landmark that cannot reach either endpoint tells us nothing.
                if du >= INFINITY || dv >= INFINITY {
                    0
                } else {
                    du.abs_diff(dv)
                }
            })
            .fold(0, Weight::max)
    }

    /// Index size in bytes (the n × m distance table dominates).
    pub fn size_bytes(&self) -> usize {
        self.dist.len() * 4 + self.landmarks.len() * 4
    }

    /// Borrowed views of the flat storage — `(landmarks, num_vertices,
    /// dist)` with `dist` vertex-major at stride `landmarks.len()`
    /// (`dist[v * m + l]`) — the snapshot serialization boundary.
    pub fn flat_parts(&self) -> (&[VertexId], usize, &[Weight]) {
        (&self.landmarks, self.num_vertices, &self.dist)
    }

    /// Reassembles an index from its flat arrays, verbatim: `dist` is taken
    /// as vertex-major (`dist[v * m + l]`), the shape [`Self::flat_parts`]
    /// hands out. The shape check cannot tell a transposed table from a
    /// proper one — both hold `m · n` words — which is why the snapshot
    /// format version, not this function, fences off the old layout.
    ///
    /// # Errors
    /// When the table shape is inconsistent (`dist` is not
    /// `num_vertices × landmarks`) or a landmark id is out of range.
    pub fn from_flat_parts(
        landmarks: Vec<VertexId>,
        num_vertices: usize,
        dist: Vec<Weight>,
    ) -> Result<AltIndex, String> {
        let expect = landmarks.len().checked_mul(num_vertices);
        if expect != Some(dist.len()) {
            return Err(format!(
                "distance table holds {} entries for {num_vertices} vertices × {} landmarks",
                dist.len(),
                landmarks.len()
            ));
        }
        if let Some(&bad) = landmarks.iter().find(|&&l| l as usize >= num_vertices) {
            return Err(format!("landmark {bad} out of range {num_vertices}"));
        }
        Ok(AltIndex {
            landmarks,
            num_vertices,
            dist,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kspin_graph::generate::{road_network, RoadNetworkConfig};
    use kspin_graph::GraphBuilder;

    fn small_network() -> Graph {
        road_network(&RoadNetworkConfig::new(500, 17))
    }

    /// Holds every pair's bound to the definition — `max_l |d(L_l,u) −
    /// d(L_l,v)|` over the landmarks that reach both, from one fresh
    /// Dijkstra per landmark — without knowing how the table is laid out.
    fn assert_bounds_match_the_definition(g: &Graph, alt: &AltIndex) {
        let mut dijkstra = Dijkstra::new(g.num_vertices());
        let from_landmark: Vec<Vec<Weight>> = alt
            .landmarks()
            .iter()
            .map(|&l| AltIndex::distances_from(g, &mut dijkstra, l))
            .collect();
        let n = g.num_vertices() as VertexId;
        for u in 0..n {
            for v in 0..n {
                let expect = from_landmark
                    .iter()
                    .map(|d| (d[u as usize], d[v as usize]))
                    .filter(|&(du, dv)| du < INFINITY && dv < INFINITY)
                    .map(|(du, dv)| du.abs_diff(dv))
                    .max()
                    .unwrap_or(0);
                assert_eq!(alt.lower_bound(u, v), expect, "bound for ({u}, {v})");
            }
        }
    }

    #[test]
    fn lower_bound_is_admissible_everywhere() {
        let g = small_network();
        let alt = AltIndex::build(&g, 8, LandmarkStrategy::Farthest, 3);
        let mut d = Dijkstra::new(g.num_vertices());
        for s in [0u32, 13, 99, 250] {
            d.sssp(&g, s);
            let space = d.space();
            for v in 0..g.num_vertices() as VertexId {
                let exact = space.distance(v).unwrap();
                let lb = alt.lower_bound(s, v);
                assert!(lb <= exact, "lb {lb} > exact {exact} for ({s}, {v})");
            }
        }
    }

    #[test]
    fn bound_is_exact_to_a_landmark() {
        // For u = L, |d(L,L) − d(L,v)| = d(L,v), so the bound to a landmark
        // itself is exact.
        let g = small_network();
        let alt = AltIndex::build(&g, 4, LandmarkStrategy::Farthest, 3);
        let l = alt.landmarks()[0];
        let mut d = Dijkstra::new(g.num_vertices());
        d.sssp(&g, l);
        let space = d.space();
        for v in (0..g.num_vertices() as VertexId).step_by(37) {
            assert_eq!(alt.lower_bound(l, v), space.distance(v).unwrap());
        }
    }

    #[test]
    fn zero_on_identical_vertices_and_symmetric() {
        let g = small_network();
        let alt = AltIndex::build(&g, 6, LandmarkStrategy::Farthest, 9);
        assert_eq!(alt.lower_bound(42, 42), 0);
        for (u, v) in [(0u32, 100u32), (5, 250), (33, 34)] {
            assert_eq!(alt.lower_bound(u, v), alt.lower_bound(v, u));
        }
    }

    #[test]
    fn farthest_is_competitive_with_random() {
        let g = small_network();
        let far = AltIndex::build(&g, 8, LandmarkStrategy::Farthest, 3);
        let rnd = AltIndex::build(&g, 8, LandmarkStrategy::Random, 3);
        let mut sum_far = 0u64;
        let mut sum_rnd = 0u64;
        for u in (0..g.num_vertices() as VertexId).step_by(29) {
            for v in (0..g.num_vertices() as VertexId).step_by(41) {
                sum_far += far.lower_bound(u, v) as u64;
                sum_rnd += rnd.lower_bound(u, v) as u64;
            }
        }
        assert!(
            sum_far * 10 >= sum_rnd * 9,
            "farthest bounds unexpectedly loose: {sum_far} vs {sum_rnd}"
        );
    }

    #[test]
    fn landmark_count_is_clamped_to_graph_size() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 1);
        let g = b.build();
        let alt = AltIndex::build(&g, 16, LandmarkStrategy::Farthest, 0);
        assert_eq!(alt.landmarks().len(), 3);
        assert_eq!(alt.lower_bound(0, 2), 2);
        assert_bounds_match_the_definition(&g, &alt);
    }

    #[test]
    fn disconnected_components_dont_poison_bounds() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 5);
        b.add_edge(2, 3, 7);
        let g = b.build();
        let alt = AltIndex::build(&g, 2, LandmarkStrategy::Farthest, 0);
        // Bound between components must not be a wild wrapped value; any
        // finite value is admissible because the true distance is infinite.
        let lb = alt.lower_bound(0, 2);
        assert!(lb < INFINITY);
        // Within-component bounds still work.
        assert!(alt.lower_bound(0, 1) <= 5);
        assert_bounds_match_the_definition(&g, &alt);
    }

    #[test]
    fn bound_equals_max_over_landmark_triangles() {
        // Non-square tables (m ≠ n), where a stride or transposition
        // mistake cannot cancel out; the m = n path and the two-component
        // graph are held to the same definition in their own tests.
        let g = road_network(&RoadNetworkConfig::new(90, 23));
        for (m, strategy) in [
            (1, LandmarkStrategy::Farthest),
            (5, LandmarkStrategy::Farthest),
            (5, LandmarkStrategy::Random),
        ] {
            let alt = AltIndex::build(&g, m, strategy, 4);
            assert_eq!(alt.landmarks().len(), m);
            assert_bounds_match_the_definition(&g, &alt);
        }
    }

    #[test]
    fn flat_parts_round_trip_and_shape_checks() {
        let g = small_network();
        let n = g.num_vertices();
        let alt = AltIndex::build(&g, 5, LandmarkStrategy::Farthest, 3);
        let (landmarks, num_vertices, dist) = alt.flat_parts();
        assert_eq!((num_vertices, dist.len()), (n, 5 * n));

        let back = AltIndex::from_flat_parts(landmarks.to_vec(), num_vertices, dist.to_vec())
            .expect("own parts are accepted");
        assert_eq!(back.flat_parts(), alt.flat_parts());

        // One word short, one word over.
        for len in [5 * n - 1, 5 * n + 1] {
            let mut table = dist.to_vec();
            table.resize(len, 0);
            assert!(AltIndex::from_flat_parts(landmarks.to_vec(), n, table).is_err());
        }
        assert!(AltIndex::from_flat_parts(vec![n as VertexId], n, vec![0; n]).is_err());

        // No landmarks: an empty table, every bound the trivial 0 — as is
        // the bound for an id the table has no row for.
        let none = AltIndex::from_flat_parts(Vec::new(), n, Vec::new()).expect("0 × n table");
        assert_eq!(none.lower_bound(0, 1), 0);
        assert_eq!(none.lower_bound(0, n as VertexId + 7), 0);
        assert_eq!(alt.lower_bound(0, n as VertexId), 0);
    }

    #[test]
    fn size_accounts_for_distance_tables() {
        let g = small_network();
        let alt = AltIndex::build(&g, 4, LandmarkStrategy::Farthest, 1);
        assert!(alt.size_bytes() >= 4 * g.num_vertices() * 4);
    }

    #[test]
    fn builds_reproducibly() {
        let g = small_network();
        let a = AltIndex::build(&g, 4, LandmarkStrategy::Farthest, 5);
        let b = AltIndex::build(&g, 4, LandmarkStrategy::Farthest, 5);
        assert_eq!(a.landmarks(), b.landmarks());
    }
}
