//! Dijkstra searches over [`Graph`].
//!
//! A single [`Dijkstra`] instance owns its working arrays and reuses them
//! across searches through [`Labels`] stores, so repeated queries (the
//! dominant pattern in every index builder and in the network-expansion
//! baseline) never pay an `O(|V|)` clear.

use crate::csr::Graph;
use crate::dheap::{DaryHeap, HeapCounters};
use crate::labels::Labels;
use crate::types::{VertexId, Weight, INFINITY};
use crate::weight::weight_add;

/// Sentinel for "no slot" in the one-to-many target chains.
const NO_SLOT: u32 = u32::MAX;

/// What the settle callback tells the search loop to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Relax the settled vertex's edges and continue.
    Continue,
    /// Do not relax this vertex's edges, but keep searching.
    Prune,
    /// Terminate the search immediately.
    Stop,
}

/// Reusable Dijkstra state for one graph size.
///
/// All query methods leave the search space readable through
/// [`Dijkstra::space`] until the next query starts.
///
/// The tentative distances are a [`Labels`] store, and the settled set is
/// the heap's own: a vertex is settled once it has been popped.
pub struct Dijkstra {
    dist: Labels,
    heap: DaryHeap,
    /// One-to-many target bookkeeping ([`Dijkstra::one_to_many`]):
    /// per-vertex chain heads into `tgt_next`, so repeated calls never
    /// clear or reallocate the per-vertex array.
    tgt_head: Labels<u32>,
    tgt_next: Vec<u32>,
}

impl Dijkstra {
    /// Creates search state for graphs with `n` vertices.
    pub fn new(n: usize) -> Self {
        Dijkstra {
            dist: Labels::new(n, INFINITY),
            heap: DaryHeap::new(n),
            tgt_head: Labels::new(n, NO_SLOT),
            // Pre-sized to n: one slot per requested target. Target sets
            // are vertex subsets in every caller (candidate lists of the
            // graph's own vertices), so len ≤ n and the pushes in
            // `one_to_many` never reallocate once warmed.
            tgt_next: Vec::with_capacity(n),
        }
    }

    /// Runs a multi-source search, invoking `on_settle(v, d)` exactly once
    /// per settled vertex in non-decreasing distance order.
    pub fn run<F>(&mut self, graph: &Graph, sources: &[(VertexId, Weight)], mut on_settle: F)
    where
        F: FnMut(VertexId, Weight) -> Control,
    {
        self.dist.reset();
        self.heap.clear();
        for &(s, d0) in sources {
            if self.dist.get(s) > d0 {
                self.relax(s, d0);
            }
        }
        while let Some((d, v)) = self.heap.pop() {
            // The indexed heap holds each vertex once, at its best key:
            // every pop settles (no stale entries to skip).
            debug_assert_eq!(d, self.dist.get(v));
            match on_settle(v, d) {
                Control::Continue => {
                    for (u, w) in graph.neighbors(v) {
                        let nd = weight_add(d, w);
                        if nd < self.dist.get(u) {
                            self.relax(u, nd);
                        }
                    }
                }
                Control::Prune => {}
                Control::Stop => break,
            }
        }
    }

    /// Point-to-point distance; [`INFINITY`] when disconnected.
    pub fn one_to_one(&mut self, graph: &Graph, s: VertexId, t: VertexId) -> Weight {
        let mut answer = INFINITY;
        self.run(graph, &[(s, 0)], |v, d| {
            if v == t {
                answer = d;
                Control::Stop
            } else {
                Control::Continue
            }
        });
        answer
    }

    /// Full single-source shortest paths; read results via [`Dijkstra::space`].
    pub fn sssp(&mut self, graph: &Graph, s: VertexId) {
        self.run(graph, &[(s, 0)], |_, _| Control::Continue);
    }

    /// Distances from `s` to each of `targets`, stopping as soon as all are
    /// settled. Unreachable targets get [`INFINITY`].
    pub fn one_to_many(&mut self, graph: &Graph, s: VertexId, targets: &[VertexId]) -> Vec<Weight> {
        let mut out = vec![INFINITY; targets.len()];
        if targets.is_empty() {
            return out;
        }
        // Target chains instead of a per-call HashMap: `tgt_head[v]` is the
        // most recent slot asking for `v`, and `tgt_next` chains duplicates.
        self.tgt_head.reset();
        self.tgt_next.clear();
        for (i, &t) in targets.iter().enumerate() {
            self.tgt_next.push(self.tgt_head.get(t));
            self.tgt_head.set(t, i as u32);
        }
        // Move the chains out so the settle closure can read them while
        // `run` holds `&mut self`; restored below. An empty store allocates
        // nothing.
        let tgt_head = std::mem::replace(&mut self.tgt_head, Labels::new(0, NO_SLOT));
        let tgt_next = std::mem::take(&mut self.tgt_next);
        let mut remaining = targets.len();
        self.run(graph, &[(s, 0)], |v, d| {
            let mut slot = tgt_head.get(v);
            while slot != NO_SLOT {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "a slot is an index of `targets`; `out` and `tgt_next` hold one \
                              entry per target"
                )]
                {
                    out[slot as usize] = d;
                    slot = tgt_next[slot as usize];
                }
                remaining -= 1;
            }
            if remaining == 0 {
                Control::Stop
            } else {
                Control::Continue
            }
        });
        self.tgt_head = tgt_head;
        self.tgt_next = tgt_next;
        out
    }

    /// Read-only view of the last search.
    pub fn space(&self) -> SearchSpace<'_> {
        SearchSpace { d: self }
    }

    /// Cumulative heap-kernel counters across every search this instance
    /// has run.
    pub fn heap_counters(&self) -> HeapCounters {
        self.heap.counters()
    }

    #[inline]
    fn relax(&mut self, v: VertexId, d: Weight) {
        self.dist.set(v, d);
        self.heap.insert_or_decrease(d, v);
    }
}

/// Read-only view of a completed (or stopped) search.
pub struct SearchSpace<'a> {
    d: &'a Dijkstra,
}

impl SearchSpace<'_> {
    /// Final distance of `v` if it was settled by the last search.
    pub fn distance(&self, v: VertexId) -> Option<Weight> {
        self.d.heap.was_popped(v).then(|| self.d.dist.get(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::GraphBuilder;

    /// 0 -1- 1 -1- 2 -1- 3, plus shortcut 0 -5- 3 and isolated vertex 4.
    fn line_graph() -> Graph {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 1);
        b.add_edge(2, 3, 1);
        b.add_edge(0, 3, 5);
        b.build()
    }

    #[test]
    fn one_to_one_prefers_multi_hop_shortcut() {
        let g = line_graph();
        let mut d = Dijkstra::new(g.num_vertices());
        assert_eq!(d.one_to_one(&g, 0, 3), 3);
        assert_eq!(d.one_to_one(&g, 0, 0), 0);
    }

    #[test]
    fn unreachable_is_infinity() {
        let g = line_graph();
        let mut d = Dijkstra::new(g.num_vertices());
        assert_eq!(d.one_to_one(&g, 0, 4), INFINITY);
    }

    #[test]
    fn sssp_space_distances() {
        let g = line_graph();
        let mut d = Dijkstra::new(g.num_vertices());
        d.sssp(&g, 0);
        let s = d.space();
        assert_eq!(s.distance(0), Some(0));
        assert_eq!(s.distance(2), Some(2));
        assert_eq!(s.distance(3), Some(3));
        assert_eq!(s.distance(4), None);
    }

    #[test]
    fn one_to_many_handles_duplicates_and_unreachable() {
        let g = line_graph();
        let mut d = Dijkstra::new(g.num_vertices());
        let out = d.one_to_many(&g, 1, &[3, 3, 0, 4]);
        assert_eq!(out, vec![2, 2, 1, INFINITY]);
    }

    #[test]
    fn state_reuse_across_queries_is_clean() {
        let g = line_graph();
        let mut d = Dijkstra::new(g.num_vertices());
        d.sssp(&g, 0);
        d.sssp(&g, 3);
        let s = d.space();
        assert_eq!(s.distance(0), Some(3));
        assert_eq!(s.distance(3), Some(0));
    }

    #[test]
    fn multi_source_takes_minimum_over_sources() {
        let g = line_graph();
        let mut d = Dijkstra::new(g.num_vertices());
        let mut settled = Vec::new();
        d.run(&g, &[(0, 0), (3, 0)], |v, dist| {
            settled.push((v, dist));
            Control::Continue
        });
        let s = d.space();
        assert_eq!(s.distance(1), Some(1));
        assert_eq!(s.distance(2), Some(1));
        // Settle order is non-decreasing in distance.
        for w in settled.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn heap_counters_report_decrease_keys() {
        let g = line_graph();
        let mut d = Dijkstra::new(g.num_vertices());
        // Relaxing 0→3 first (weight 5) then improving via 0-1-2-3 makes
        // vertex 3 a decrease-key, not a duplicate push.
        d.sssp(&g, 0);
        let c = d.heap_counters();
        assert!(c.decrease_keys >= 1, "shortcut graph must improve vertex 3");
        assert_eq!(c.pops, 4, "one pop per reachable vertex");
        assert_eq!(c.pushes, 4);
    }

    #[test]
    fn one_to_many_reuses_target_chains_across_calls() {
        let g = line_graph();
        let mut d = Dijkstra::new(g.num_vertices());
        assert_eq!(d.one_to_many(&g, 1, &[3, 3, 0, 4]), vec![2, 2, 1, INFINITY]);
        // A second call with different (and duplicate) targets must see
        // fresh chains, not leftovers from the first call.
        assert_eq!(d.one_to_many(&g, 0, &[2, 2, 2]), vec![2, 2, 2]);
        assert_eq!(d.one_to_many(&g, 3, &[]), Vec::<Weight>::new());
    }

    #[test]
    fn prune_control_stops_relaxation_locally() {
        let g = line_graph();
        let mut d = Dijkstra::new(g.num_vertices());
        // Prune at vertex 1: vertex 2 only reachable via 0-3-2 = 5+1.
        let mut dist2 = None;
        d.run(&g, &[(0, 0)], |v, dist| {
            if v == 2 {
                dist2 = Some(dist);
            }
            if v == 1 {
                Control::Prune
            } else {
                Control::Continue
            }
        });
        assert_eq!(dist2, Some(6));
    }
}
