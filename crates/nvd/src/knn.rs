//! Voronoi-based kNN over a single object set (Kolahdouzan–Shahabi VN3
//! [18], with the ρ-approximate twist).
//!
//! This is the keyword-free ancestor of K-SPIN's heap generation: find the
//! k nearest *objects* of one generator set, consuming exact distances
//! instead of lower bounds. Property 2 — the i-th NN is adjacent (in the
//! NVD) to one of the first i−1 — drives the expansion; the ρ-approximate
//! leaf candidates seed it (Theorem 1 applies with lower bound = exact
//! distance).
//!
//! Useful on its own (category kNN: "5 nearest fuel stations") and as a
//! differential oracle for the Heap Generator in tests.

use kspin_graph::{Point, VertexId, Weight};

use crate::approx::ApproxNvd;

impl ApproxNvd {
    /// The `k` nearest live objects to a query at `coord`, by exact network
    /// distance. `dist(vertex)` must return the exact distance from the
    /// query to `vertex`. Results are sorted ascending; fewer than `k` are
    /// returned only if fewer live objects exist.
    pub fn knn<F>(&self, coord: Point, k: usize, mut dist: F) -> Vec<(u32, Weight)>
    where
        F: FnMut(VertexId) -> Weight,
    {
        if k == 0 {
            return Vec::new();
        }
        // The indexed heap's epoch stamps double as the "already inserted"
        // side table the lazy kernel kept in a separate Vec<bool>.
        let mut heap = kspin_graph::DaryHeap::new(self.num_total());
        for id in self.init_candidates(coord) {
            if !heap.was_inserted(id) {
                heap.push(dist(self.object_vertex(id)), id);
            }
        }
        let mut out = Vec::with_capacity(k);
        while let Some((d, id)) = heap.pop() {
            // Property 2: expand adjacency regardless of deletion state so
            // the frontier keeps moving outward.
            for &a in self.adjacent(id) {
                if !heap.was_inserted(a) {
                    heap.push(dist(self.object_vertex(a)), a);
                }
            }
            if !self.is_deleted(id) {
                out.push((id, d));
                if out.len() == k {
                    break;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kspin_graph::generate::{road_network, RoadNetworkConfig};
    use kspin_graph::{Dijkstra, Graph, GraphBuilder, INFINITY};

    fn setup(n: usize, gens: usize, seed: u64) -> (Graph, Vec<VertexId>, ApproxNvd) {
        let g = road_network(&RoadNetworkConfig::new(n, seed));
        let step = (g.num_vertices() / gens).max(1);
        let generators: Vec<VertexId> = (0..gens).map(|i| (i * step) as VertexId).collect();
        let apx = ApproxNvd::build(&g, &generators, 4);
        (g, generators, apx)
    }

    #[test]
    fn knn_matches_network_expansion() {
        let (g, gens, apx) = setup(800, 30, 401);
        let mut dij = Dijkstra::new(g.num_vertices());
        for q in [0u32, 350, 777] {
            let q = q.min(g.num_vertices() as u32 - 1);
            let gens2 = gens.clone();
            dij.sssp(&g, q);
            let all: Vec<Weight> = gens2
                .iter()
                .map(|&v| dij.space().distance(v).unwrap())
                .collect();
            let mut want = all.clone();
            want.sort_unstable();
            want.truncate(5);
            let mut dd = Dijkstra::new(g.num_vertices());
            let got = apx.knn(g.coord(q), 5, |v| dd.one_to_one(&g, q, v));
            let gd: Vec<Weight> = got.iter().map(|&(_, d)| d).collect();
            assert_eq!(gd, want, "q={q}");
        }
    }

    #[test]
    fn knn_skips_deleted_objects() {
        let (g, _, mut apx) = setup(500, 15, 403);
        let q = 77u32.min(g.num_vertices() as u32 - 1);
        let mut dd = Dijkstra::new(g.num_vertices());
        let first = apx.knn(g.coord(q), 1, |v| dd.one_to_one(&g, q, v))[0].0;
        apx.delete_object(first);
        let got = apx.knn(g.coord(q), 3, |v| dd.one_to_one(&g, q, v));
        assert!(got.iter().all(|&(id, _)| id != first));
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn knn_finds_lazily_inserted_objects() {
        let (g, gens, mut apx) = setup(600, 12, 405);
        let new_vertex = (0..g.num_vertices() as u32)
            .find(|v| !gens.contains(v))
            .expect("some non-generator vertex exists");
        let mut dd = Dijkstra::new(g.num_vertices());
        let mut dist2 = |a: VertexId, b: VertexId| dd.one_to_one(&g, a, b);
        let id = apx.insert_object(new_vertex, g.coord(new_vertex), &mut dist2);
        // Querying from the inserted object's own vertex must return it at
        // distance 0.
        let mut dd2 = Dijkstra::new(g.num_vertices());
        let got = apx.knn(g.coord(new_vertex), 1, |v| {
            dd2.one_to_one(&g, new_vertex, v)
        });
        assert_eq!(got[0], (id, 0));
    }

    #[test]
    fn asking_beyond_population_returns_all() {
        let (g, gens, apx) = setup(300, 6, 407);
        let mut dd = Dijkstra::new(g.num_vertices());
        let got = apx.knn(g.coord(0), 100, |v| dd.one_to_one(&g, 0, v));
        assert_eq!(got.len(), gens.len());
        // Sorted ascending.
        assert!(got.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn zero_k_is_empty() {
        let (g, _, apx) = setup(200, 4, 409);
        let mut dd = Dijkstra::new(g.num_vertices());
        assert!(apx
            .knn(g.coord(0), 0, |v| dd.one_to_one(&g, 0, v))
            .is_empty());
    }

    /// A ring whose vertices sit at distinct grid points, so ρ = 1 leaves
    /// hold exactly the Voronoi owner of the vertices inside them.
    fn ring(weights: &[Weight]) -> Graph {
        let n = weights.len() as u32;
        let mut b = GraphBuilder::new(n as usize);
        for v in 0..n {
            b.set_coord(v, Point::new(v as i32 * 1000, (v % 2) as i32 * 1000));
            b.add_edge(v, (v + 1) % n, weights[v as usize]);
        }
        b.build()
    }

    #[test]
    fn saturating_weights_keep_voronoi_owners_exact() {
        // `add_edge` rejects only weight 0, so both rings are legal input.
        // In the first, the sweep pops 5 (10 from generator 4) before 0 (10
        // from generator 1) and relaxes 0 across the heavy edge: a raw sum
        // panics in debug builds and in release builds wraps to 8, which
        // wins and hands vertex 0 to the wrong cell.
        let one_heavy = ring(&[10, 10, 10, 10, 10, u32::MAX - 1]);
        let all_heavy = ring(&[INFINITY / 2 + 1; 8]);
        for (g, gens) in [(one_heavy, vec![1, 4]), (all_heavy, vec![0, 1, 4])] {
            let apx = ApproxNvd::build(&g, &gens, 1);
            let mut dij = Dijkstra::new(g.num_vertices());
            for q in 0..g.num_vertices() as VertexId {
                // An object at distance ≥ ∞ is unreachable, for the oracle
                // and for the expansion alike.
                let mut want = dij.one_to_many(&g, q, &gens);
                want.retain(|&d| d < INFINITY);
                want.sort_unstable();
                for k in 1..=gens.len() {
                    let mut dd = Dijkstra::new(g.num_vertices());
                    let got: Vec<Weight> = apx
                        .knn(g.coord(q), k, |v| dd.one_to_one(&g, q, v))
                        .into_iter()
                        .map(|(_, d)| d)
                        .filter(|&d| d < INFINITY)
                        .collect();
                    assert_eq!(got, want[..k.min(want.len())], "q={q} k={k}");
                }
            }
        }
    }
}
