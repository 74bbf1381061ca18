//! A* point-to-point search guided by ALT lower bounds — the search
//! algorithm the ALT index was originally designed for [15].
//!
//! The potential `π(v) = lower_bound(v, t)` is *consistent* (it derives
//! from the triangle inequality over landmark distances), so A* with
//! reduced costs `w(u,v) − π(u) + π(v)` settles each vertex once and
//! returns exact distances while exploring a cone toward the target
//! instead of a full Dijkstra ball.

use kspin_graph::dheap::{DaryHeap, HeapCounters};
use kspin_graph::{weight_add, Graph, Labels, VertexId, Weight, INFINITY};

use crate::AltIndex;

/// Reusable ALT-A* search state.
pub struct AltAstar {
    /// The g values (distances from `s`); heap keys are f = g + π(v).
    labels: Labels,
    heap: DaryHeap,
}

impl AltAstar {
    /// Creates state for graphs with `n` vertices.
    pub fn new(n: usize) -> Self {
        AltAstar {
            labels: Labels::new(n),
            heap: DaryHeap::new(n),
        }
    }

    /// Exact distance from `s` to `t`, guided by `alt`'s potentials.
    pub fn distance(&mut self, graph: &Graph, alt: &AltIndex, s: VertexId, t: VertexId) -> Weight {
        if s == t {
            return 0;
        }
        self.labels.reset();
        self.heap.clear();
        self.labels.set(s, 0);
        self.heap.push(alt.lower_bound(s, t), s);
        // The potential is consistent, so the first (and only) pop of a
        // vertex carries its final g: improvements to an open vertex are
        // decrease-keys, and the heap kernel's own debug check refuses one
        // on a vertex already popped.
        while let Some((_, v)) = self.heap.pop() {
            let g = self.labels.get(v);
            if v == t {
                return g;
            }
            for (u, w) in graph.neighbors(v) {
                let ng = weight_add(g, w);
                if ng < self.labels.get(u) {
                    self.labels.set(u, ng);
                    self.heap
                        .insert_or_decrease(weight_add(ng, alt.lower_bound(u, t)), u);
                }
            }
        }
        INFINITY
    }

    /// Cumulative heap-kernel counters across every query this instance
    /// has run.
    pub fn heap_counters(&self) -> HeapCounters {
        self.heap.counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LandmarkStrategy;
    use kspin_graph::generate::{road_network, RoadNetworkConfig};
    use kspin_graph::{Dijkstra, GraphBuilder};

    #[test]
    fn exact_on_road_network() {
        let g = road_network(&RoadNetworkConfig::new(600, 91));
        let alt = AltIndex::build(&g, 8, LandmarkStrategy::Farthest, 1);
        let mut astar = AltAstar::new(g.num_vertices());
        let mut dij = Dijkstra::new(g.num_vertices());
        for s in [0u32, 99, 444] {
            dij.sssp(&g, s);
            for t in (0..g.num_vertices() as VertexId).step_by(41) {
                let want = dij.space().distance(t).unwrap();
                assert_eq!(astar.distance(&g, &alt, s, t), want, "({s},{t})");
            }
        }
    }

    #[test]
    fn explores_less_than_dijkstra() {
        let g = road_network(&RoadNetworkConfig::new(3000, 92));
        let alt = AltIndex::build(&g, 16, LandmarkStrategy::Farthest, 1);
        let mut astar = AltAstar::new(g.num_vertices());
        // A long query: A* should settle well under the full vertex count.
        let t = g.num_vertices() as VertexId - 1;
        let _ = astar.distance(&g, &alt, 0, t);
        // Each vertex settles at its one and only pop.
        let settled = astar.heap_counters().pops as usize;
        assert!(
            settled * 2 < g.num_vertices(),
            "A* settled {settled} of {} vertices",
            g.num_vertices()
        );
    }

    #[test]
    fn self_distance_zero() {
        let g = road_network(&RoadNetworkConfig::new(200, 93));
        let alt = AltIndex::build(&g, 4, LandmarkStrategy::Farthest, 1);
        let mut astar = AltAstar::new(g.num_vertices());
        assert_eq!(astar.distance(&g, &alt, 5, 5), 0);
    }

    #[test]
    fn saturating_weights_match_dijkstra() {
        // `add_edge` rejects only weight 0, so both graphs are legal input.
        // In the first the heavy edge is a chord of the ring: its endpoints
        // lie on shortest paths, so they are settled with g ≥ 10 however
        // well the landmarks prune, and relaxing the chord with a raw
        // `g + w` panics in debug builds and wraps to g − 2 in release
        // builds, which then reads as the shortest way across.
        let mut one_heavy = GraphBuilder::new(6);
        let mut all_heavy = GraphBuilder::new(8);
        for v in 0..6 {
            one_heavy.add_edge(v, (v + 1) % 6, 10);
        }
        one_heavy.add_edge(0, 3, u32::MAX - 1);
        for v in 0..8 {
            all_heavy.add_edge(v, (v + 1) % 8, INFINITY / 2 + 1);
        }
        for g in [one_heavy.build(), all_heavy.build()] {
            let n = g.num_vertices() as VertexId;
            let alt = AltIndex::build(&g, 2, LandmarkStrategy::Farthest, 1);
            let mut astar = AltAstar::new(g.num_vertices());
            let mut dij = Dijkstra::new(g.num_vertices());
            for s in 0..n {
                for t in 0..n {
                    let want = dij.one_to_one(&g, s, t).min(INFINITY);
                    assert_eq!(astar.distance(&g, &alt, s, t), want, "({s},{t})");
                }
            }
        }
    }
}
