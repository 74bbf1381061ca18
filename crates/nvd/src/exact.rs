//! Exact NVD construction (Erwig–Hagen graph Voronoi [19]).
//!
//! One multi-source Dijkstra started simultaneously from all generators
//! computes, in `O(|V| log |V|)`:
//!
//! * `owner[v]` — the nearest generator of every vertex (the Voronoi
//!   partition),
//! * `MaxRadius` per generator — free during construction, needed by the
//!   Theorem-2 update rule (§6.2).
//!
//! A second pass, over the road edges once the owners are final, yields
//! the generator [`AdjacencyGraph`]: every edge whose endpoints have
//! different owners links their two cells.

use kspin_graph::dheap::{DaryHeap, HeapCounters};
use kspin_graph::{weight_add, Graph, VertexId, Weight, INFINITY};

use crate::adjacency::AdjacencyGraph;

/// An exact Network Voronoi Diagram over a set of generator vertices.
#[derive(Debug, Clone)]
pub struct ExactNvd {
    owner: Vec<u32>,
    dist_to_owner: Vec<Weight>,
    max_radius: Vec<Weight>,
    adjacency: AdjacencyGraph,
    build_counters: HeapCounters,
}

impl ExactNvd {
    /// Builds the NVD for `generators` (distinct vertices, at least one).
    ///
    /// # Panics
    /// If `generators` is empty or contains duplicates.
    pub fn build(graph: &Graph, generators: &[VertexId]) -> Self {
        assert!(
            !generators.is_empty(),
            "an NVD needs at least one generator"
        );
        let n = graph.num_vertices();
        let m = generators.len();
        let mut owner = vec![u32::MAX; n];
        let mut dist = vec![INFINITY; n];
        let mut heap = DaryHeap::new(n);

        for (i, &g) in generators.iter().enumerate() {
            assert!(
                owner[g as usize] == u32::MAX,
                "duplicate generator vertex {g}"
            );
            owner[g as usize] = i as u32;
            dist[g as usize] = 0;
            heap.push(0, g);
        }

        let mut max_radius = vec![0 as Weight; m];
        while let Some((d, v)) = heap.pop() {
            // The indexed heap holds each vertex once at its best key, so
            // every pop settles (no stale-entry or settled-vertex skips).
            debug_assert!(d == dist[v as usize]);
            let o = owner[v as usize];
            if d > max_radius[o as usize] {
                max_radius[o as usize] = d;
            }
            for (u, w) in graph.neighbors(v) {
                let nd = weight_add(d, w);
                if nd < dist[u as usize] {
                    dist[u as usize] = nd;
                    owner[u as usize] = o;
                    heap.insert_or_decrease(nd, u);
                }
            }
        }

        // Cell adjacency: a road edge whose endpoints have different owners
        // connects the two cells.
        let boundary: Vec<(u32, u32)> = graph
            .edges()
            .map(|e| (owner[e.u as usize], owner[e.v as usize]))
            .filter(|&(ou, ov)| ou != ov && ou != u32::MAX && ov != u32::MAX)
            .collect();
        let adjacency = AdjacencyGraph::from_edges(m, &boundary);

        ExactNvd {
            owner,
            dist_to_owner: dist,
            max_radius,
            adjacency,
            build_counters: heap.counters(),
        }
    }

    /// Heap-kernel counters of the construction sweep.
    pub fn build_counters(&self) -> HeapCounters {
        self.build_counters
    }

    /// The nearest generator (by id) of vertex `v`; `None` if `v` is
    /// disconnected from all generators.
    #[inline]
    pub fn owner(&self, v: VertexId) -> Option<u32> {
        let o = self.owner[v as usize];
        (o != u32::MAX).then_some(o)
    }

    /// Distance from `v` to its owning generator.
    #[inline]
    pub fn dist_to_owner(&self, v: VertexId) -> Weight {
        self.dist_to_owner[v as usize]
    }

    /// `MaxRadius(p)` — the farthest distance from generator `p` to a vertex
    /// in its cell (Theorem 2).
    #[inline]
    pub fn max_radius(&self, p: u32) -> Weight {
        self.max_radius[p as usize]
    }

    /// The generator adjacency graph.
    pub fn adjacency(&self) -> &AdjacencyGraph {
        &self.adjacency
    }

    /// Consumes the NVD, yielding the parts the approximate index keeps.
    pub fn into_parts(self) -> (Vec<u32>, Vec<Weight>, AdjacencyGraph) {
        (self.owner, self.max_radius, self.adjacency)
    }

    /// Size of the full exact NVD in bytes — `O(|V|)`, dominated by the
    /// owner and distance tables. This is the §5 "Limitations" cost that
    /// the ρ-approximate representation eliminates.
    pub fn size_bytes(&self) -> usize {
        self.owner.len() * 8 + self.max_radius.len() * 4 + self.adjacency.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kspin_graph::generate::{road_network, RoadNetworkConfig};
    use kspin_graph::{Dijkstra, GraphBuilder};

    fn network(n: usize, seed: u64) -> Graph {
        road_network(&RoadNetworkConfig::new(n, seed))
    }

    fn spread_generators(g: &Graph, count: usize) -> Vec<VertexId> {
        let step = (g.num_vertices() / count).max(1);
        (0..count).map(|i| (i * step) as VertexId).collect()
    }

    #[test]
    fn owner_is_true_nearest_generator() {
        let g = network(400, 51);
        let gens = spread_generators(&g, 8);
        let nvd = ExactNvd::build(&g, &gens);
        let mut dij = Dijkstra::new(g.num_vertices());
        for v in (0..g.num_vertices() as VertexId).step_by(17) {
            let dists = dij.one_to_many(&g, v, &gens);
            let (best, &best_d) = dists.iter().enumerate().min_by_key(|&(_, d)| *d).unwrap();
            let got = nvd.owner(v).unwrap();
            // Ties may resolve to another equally-near generator.
            assert_eq!(
                dists[got as usize], best_d,
                "vertex {v}: owner {got} vs best {best}"
            );
            assert_eq!(nvd.dist_to_owner(v), best_d);
        }
    }

    #[test]
    fn generators_own_themselves() {
        let g = network(200, 3);
        let gens = spread_generators(&g, 5);
        let nvd = ExactNvd::build(&g, &gens);
        for (i, &gv) in gens.iter().enumerate() {
            assert_eq!(nvd.owner(gv), Some(i as u32));
            assert_eq!(nvd.dist_to_owner(gv), 0);
        }
    }

    #[test]
    fn max_radius_bounds_every_cell_member() {
        let g = network(300, 8);
        let gens = spread_generators(&g, 6);
        let nvd = ExactNvd::build(&g, &gens);
        let mut observed = vec![0 as Weight; gens.len()];
        for v in 0..g.num_vertices() as VertexId {
            let o = nvd.owner(v).unwrap();
            assert!(nvd.dist_to_owner(v) <= nvd.max_radius(o));
            observed[o as usize] = observed[o as usize].max(nvd.dist_to_owner(v));
        }
        // And it is tight: some vertex attains it.
        for (p, &r) in observed.iter().enumerate() {
            assert_eq!(r, nvd.max_radius(p as u32));
        }
    }

    #[test]
    fn adjacency_comes_from_boundary_edges() {
        let g = network(300, 8);
        let gens = spread_generators(&g, 6);
        let nvd = ExactNvd::build(&g, &gens);
        for e in g.edges() {
            let (a, b) = (nvd.owner(e.u).unwrap(), nvd.owner(e.v).unwrap());
            if a != b {
                assert!(
                    nvd.adjacency().adjacent(a).contains(&b),
                    "cells {a} and {b} share edge but not adjacency"
                );
            }
        }
    }

    #[test]
    fn single_generator_owns_everything() {
        let g = network(150, 2);
        let nvd = ExactNvd::build(&g, &[7]);
        for v in 0..g.num_vertices() as VertexId {
            assert_eq!(nvd.owner(v), Some(0));
        }
        assert!(nvd.adjacency().adjacent(0).is_empty());
    }

    #[test]
    fn adjacency_degree_is_small_constant() {
        // Observation 2a: average degree of NVD adjacency graphs is a small
        // constant (~6 in [18]).
        let g = network(3000, 14);
        let gens = spread_generators(&g, 100);
        let nvd = ExactNvd::build(&g, &gens);
        let adj = nvd.adjacency();
        let avg = (0..adj.num_nodes() as u32)
            .map(|a| adj.adjacent(a).len())
            .sum::<usize>() as f64
            / adj.num_nodes() as f64;
        assert!((2.0..10.0).contains(&avg), "avg adjacency degree {avg}");
    }

    #[test]
    fn disconnected_vertices_have_no_owner() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1);
        // vertex 2 isolated
        let g = b.build();
        let nvd = ExactNvd::build(&g, &[0]);
        assert_eq!(nvd.owner(2), None);
        assert_eq!(nvd.owner(1), Some(0));
    }

    #[test]
    #[should_panic(expected = "duplicate generator")]
    fn duplicate_generators_rejected() {
        let g = network(50, 1);
        ExactNvd::build(&g, &[3, 3]);
    }

    #[test]
    fn voronoi_property_on_kolahdouzan_shahabi_example() {
        // Property 2 sanity: the 2nd NN of any vertex is adjacent to its
        // 1NN in the NVD (verified exhaustively on a small network).
        let g = network(250, 33);
        let gens = spread_generators(&g, 10);
        let nvd = ExactNvd::build(&g, &gens);
        let mut dij = Dijkstra::new(g.num_vertices());
        for v in (0..g.num_vertices() as VertexId).step_by(11) {
            let dists = dij.one_to_many(&g, v, &gens);
            let mut order: Vec<usize> = (0..gens.len()).collect();
            order.sort_by_key(|&i| dists[i]);
            let first = order[0] as u32;
            let second = order[1] as u32;
            if dists[order[0]] == dists[order[1]] {
                continue; // ties make "the" 2nd NN ambiguous
            }
            let adj = nvd.adjacency().adjacent(first);
            assert!(
                adj.contains(&second) || dists[order[1]] == dists[order[0]],
                "vertex {v}: 2nd NN {second} not adjacent to 1NN {first}"
            );
        }
    }

    /// A ring whose edge `v – v+1` weighs `weights[v]`.
    fn ring(weights: &[Weight]) -> Graph {
        let n = weights.len() as u32;
        let mut b = GraphBuilder::new(n as usize);
        for v in 0..n {
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
            let nvd = ExactNvd::build(&g, &gens);
            let mut dij = Dijkstra::new(g.num_vertices());
            // Distance from every generator to every vertex, by the oracle.
            let all: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();
            let from: Vec<Vec<Weight>> =
                gens.iter().map(|&s| dij.one_to_many(&g, s, &all)).collect();
            for v in 0..g.num_vertices() as VertexId {
                let best = from.iter().map(|d| d[v as usize]).min().unwrap();
                if best >= INFINITY {
                    // Unreachable from every generator: no owner.
                    assert_eq!(nvd.owner(v), None, "v={v}");
                    continue;
                }
                let owner = nvd.owner(v).expect("reachable vertex has an owner");
                // Ties may resolve to another equally-near generator.
                assert_eq!(
                    from[owner as usize][v as usize], best,
                    "v={v} owner={owner}"
                );
                assert_eq!(nvd.dist_to_owner(v), best, "v={v}");
            }
        }
    }
}
