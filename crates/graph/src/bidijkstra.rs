//! Bidirectional Dijkstra for point-to-point queries.
//!
//! Runs forward and backward searches alternately and stops when the sum
//! of the two frontiers' minimum keys reaches the best meeting distance —
//! on road networks this roughly halves the settled vertices vs. a
//! unidirectional search, making it the cheapest index-free upgrade for
//! the Network Distance Module.

use crate::csr::Graph;
use crate::dheap::{DaryHeap, HeapCounters};
use crate::labels::Labels;
use crate::types::{VertexId, Weight, INFINITY};
use crate::weight::weight_add;

/// One search direction: its tentative distances and its frontier.
struct Side {
    labels: Labels,
    heap: DaryHeap,
}

impl Side {
    fn new(n: usize) -> Self {
        Side {
            labels: Labels::new(n),
            heap: DaryHeap::new(n),
        }
    }

    /// Starts a fresh search from `source`.
    fn restart(&mut self, source: VertexId) {
        self.labels.reset();
        self.heap.clear();
        self.improve(source, 0);
    }

    /// Lowers the tentative distance of `v` to `d`.
    #[inline]
    fn improve(&mut self, v: VertexId, d: Weight) {
        self.labels.set(v, d);
        self.heap.insert_or_decrease(d, v);
    }

    /// The smallest tentative distance still open, [`INFINITY`] when none is.
    fn frontier_key(&self) -> Weight {
        self.heap.peek().map(|(d, _)| d).unwrap_or(INFINITY)
    }
}

/// Reusable bidirectional search state (epoch-reset, no per-query
/// allocation in the steady state).
pub struct BiDijkstra {
    fwd: Side,
    bwd: Side,
}

impl BiDijkstra {
    /// Creates state for graphs with `n` vertices.
    pub fn new(n: usize) -> Self {
        BiDijkstra {
            fwd: Side::new(n),
            bwd: Side::new(n),
        }
    }

    /// Exact distance between `s` and `t` ([`INFINITY`] when disconnected).
    pub fn distance(&mut self, graph: &Graph, s: VertexId, t: VertexId) -> Weight {
        if s == t {
            return 0;
        }
        self.fwd.restart(s);
        self.bwd.restart(t);
        let mut best = INFINITY;
        loop {
            // Pick the side with the smaller frontier key; stop when the
            // frontier sum can no longer improve the best meeting.
            let (f, b) = (self.fwd.frontier_key(), self.bwd.frontier_key());
            if f.saturating_add(b) >= best || (f == INFINITY && b == INFINITY) {
                break;
            }
            let (near, far) = if f <= b {
                (&mut self.fwd, &self.bwd)
            } else {
                (&mut self.bwd, &self.fwd)
            };
            let Some((d, v)) = near.heap.pop() else {
                break;
            };
            debug_assert!(d == near.labels.get(v), "indexed heap pops are never stale");
            let other = far.labels.get(v);
            if other < INFINITY {
                let total = weight_add(d, other);
                if total < best {
                    best = total;
                }
            }
            for (u, w) in graph.neighbors(v) {
                let nd = weight_add(d, w);
                if nd < near.labels.get(u) {
                    near.improve(u, nd);
                }
            }
        }
        best
    }

    /// Cumulative heap-kernel counters summed over both search directions.
    pub fn heap_counters(&self) -> HeapCounters {
        let mut c = self.fwd.heap.counters();
        c += self.bwd.heap.counters();
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::GraphBuilder;
    use crate::dijkstra::Dijkstra;
    use crate::generate::{road_network, RoadNetworkConfig};

    #[test]
    fn agrees_with_unidirectional_everywhere() {
        let g = road_network(&RoadNetworkConfig::new(700, 87));
        let mut bi = BiDijkstra::new(g.num_vertices());
        let mut uni = Dijkstra::new(g.num_vertices());
        for s in [0u32, 45, 333] {
            uni.sssp(&g, s);
            for t in (0..g.num_vertices() as VertexId).step_by(31) {
                let want = uni.space().distance(t).unwrap();
                assert_eq!(bi.distance(&g, s, t), want, "({s},{t})");
            }
        }
    }

    #[test]
    fn self_distance_and_symmetry() {
        let g = road_network(&RoadNetworkConfig::new(300, 88));
        let mut bi = BiDijkstra::new(g.num_vertices());
        assert_eq!(bi.distance(&g, 17, 17), 0);
        assert_eq!(bi.distance(&g, 0, 250), bi.distance(&g, 250, 0));
    }

    #[test]
    fn disconnected_is_infinity() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 2);
        b.add_edge(2, 3, 2);
        let g = b.build();
        let mut bi = BiDijkstra::new(g.num_vertices());
        assert_eq!(bi.distance(&g, 0, 3), INFINITY);
        assert_eq!(bi.distance(&g, 0, 1), 2);
    }

    #[test]
    fn state_reuse_is_clean() {
        let g = road_network(&RoadNetworkConfig::new(200, 89));
        let mut bi = BiDijkstra::new(g.num_vertices());
        let d1 = bi.distance(&g, 0, 150);
        let _ = bi.distance(&g, 10, 20);
        assert_eq!(bi.distance(&g, 0, 150), d1);
    }
}
