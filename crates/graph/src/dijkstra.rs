//! Dijkstra searches over [`Graph`].
//!
//! A single [`Dijkstra`] instance owns its working arrays and reuses them
//! across searches via an epoch counter, so repeated queries (the dominant
//! pattern in every index builder and in the network-expansion baseline)
//! never pay an `O(|V|)` clear.

use crate::csr::Graph;
use crate::dheap::{DaryHeap, HeapCounters};
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
/// The epoch-stamped arrays are this struct's own rather than a
/// [`crate::Labels`]: one stamp here covers `dist` *and* `settled` (a
/// fresh stamp in `relax` also clears the settled bit), a different record
/// from a bare distance label.
pub struct Dijkstra {
    dist: Vec<Weight>,
    epoch: Vec<u32>,
    settled: Vec<bool>,
    cur_epoch: u32,
    heap: DaryHeap,
    /// One-to-many target bookkeeping ([`Dijkstra::one_to_many`]):
    /// per-vertex chain heads into `tgt_next`, epoch-stamped so repeated
    /// calls never clear or reallocate the per-vertex arrays.
    tgt_epoch: Vec<u32>,
    tgt_head: Vec<u32>,
    tgt_next: Vec<u32>,
    tgt_cur: u32,
}

impl Dijkstra {
    /// Creates search state for graphs with `n` vertices.
    pub fn new(n: usize) -> Self {
        Dijkstra {
            dist: vec![INFINITY; n],
            epoch: vec![0; n],
            settled: vec![false; n],
            cur_epoch: 0,
            heap: DaryHeap::new(n),
            tgt_epoch: vec![0; n],
            tgt_head: vec![NO_SLOT; n],
            // Pre-sized to n: one slot per requested target. Target sets
            // are vertex subsets in every caller (candidate lists of the
            // graph's own vertices), so len ≤ n and the pushes in
            // `one_to_many` never reallocate once warmed.
            tgt_next: Vec::with_capacity(n),
            tgt_cur: 0,
        }
    }

    /// Runs a multi-source search, invoking `on_settle(v, d)` exactly once
    /// per settled vertex in non-decreasing distance order.
    pub fn run<F>(&mut self, graph: &Graph, sources: &[(VertexId, Weight)], mut on_settle: F)
    where
        F: FnMut(VertexId, Weight) -> Control,
    {
        self.begin();
        for &(s, d0) in sources {
            if self.tentative(s) > d0 {
                self.relax(s, d0);
            }
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "every heap item is a vertex id < n; arrays sized n at new()"
        )]
        while let Some((d, v)) = self.heap.pop() {
            // The indexed heap holds each vertex once, at its best key:
            // every pop settles (no stale entries to skip).
            debug_assert!(!self.settled[v as usize] && d == self.dist[v as usize]);
            self.settled[v as usize] = true;
            match on_settle(v, d) {
                Control::Continue => {
                    for (u, w) in graph.neighbors(v) {
                        let nd = weight_add(d, w);
                        if nd < self.tentative(u) {
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
    #[expect(
        clippy::indexing_slicing,
        reason = "targets are vertex ids < n and the chain arrays are sized n at new(); \
                  a slot is an index of `targets`, and `out` has one entry per target"
    )]
    pub fn one_to_many(&mut self, graph: &Graph, s: VertexId, targets: &[VertexId]) -> Vec<Weight> {
        let mut out = vec![INFINITY; targets.len()];
        if targets.is_empty() {
            return out;
        }
        // Epoch-stamped target chains instead of a per-call HashMap:
        // `tgt_head[v]` points at the most recent slot asking for `v`, and
        // `tgt_next` chains duplicates. Only slots touched this call are
        // initialized, so the per-vertex arrays are never cleared.
        self.tgt_cur = self.tgt_cur.wrapping_add(1);
        if self.tgt_cur == 0 {
            self.tgt_epoch.iter_mut().for_each(|e| *e = 0);
            self.tgt_cur = 1;
        }
        self.tgt_next.clear();
        for (i, &t) in targets.iter().enumerate() {
            let ti = t as usize;
            if self.tgt_epoch[ti] != self.tgt_cur {
                self.tgt_epoch[ti] = self.tgt_cur;
                self.tgt_head[ti] = NO_SLOT;
            }
            self.tgt_next.push(self.tgt_head[ti]);
            self.tgt_head[ti] = i as u32;
        }
        // Move the chains out so the settle closure can read them while
        // `run` holds `&mut self`; restored below.
        let tgt_epoch = std::mem::take(&mut self.tgt_epoch);
        let tgt_head = std::mem::take(&mut self.tgt_head);
        let tgt_next = std::mem::take(&mut self.tgt_next);
        let cur = self.tgt_cur;
        let mut remaining = targets.len();
        self.run(graph, &[(s, 0)], |v, d| {
            let vi = v as usize;
            if tgt_epoch[vi] == cur {
                let mut slot = tgt_head[vi];
                while slot != NO_SLOT {
                    out[slot as usize] = d;
                    remaining -= 1;
                    slot = tgt_next[slot as usize];
                }
                if remaining == 0 {
                    return Control::Stop;
                }
            }
            Control::Continue
        });
        self.tgt_epoch = tgt_epoch;
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

    fn begin(&mut self) {
        self.cur_epoch = self.cur_epoch.wrapping_add(1);
        if self.cur_epoch == 0 {
            // Extremely rare wrap: zero every stamp and restart at 1, the
            // one stamp value no later epoch takes before the next wrap.
            self.epoch.fill(0);
            self.cur_epoch = 1;
        }
        self.heap.clear();
    }

    #[inline]
    fn tentative(&self, v: VertexId) -> Weight {
        #[expect(
            clippy::indexing_slicing,
            reason = "v is a vertex id < n from the CSR graph; arrays sized n"
        )]
        if self.epoch[v as usize] == self.cur_epoch {
            self.dist[v as usize]
        } else {
            INFINITY
        }
    }

    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "v is a vertex id < n from the CSR graph; arrays sized n"
    )]
    fn relax(&mut self, v: VertexId, d: Weight) {
        let i = v as usize;
        if self.epoch[i] != self.cur_epoch {
            self.epoch[i] = self.cur_epoch;
            self.settled[i] = false;
        }
        self.dist[i] = d;
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
        let i = v as usize;
        #[expect(
            clippy::indexing_slicing,
            reason = "v is a vertex id < n from the CSR graph; arrays sized n"
        )]
        if self.d.epoch[i] == self.d.cur_epoch && self.d.settled[i] {
            Some(self.d.dist[i])
        } else {
            None
        }
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

    #[test]
    fn epoch_wrap_refreshes_stale_stamps() {
        let g = line_graph();
        let mut d = Dijkstra::new(g.num_vertices());
        d.cur_epoch = u32::MAX - 1;
        d.sssp(&g, 0); // stamps 0..=3 with u32::MAX
        assert_eq!(d.space().distance(3), Some(3));
        d.sssp(&g, 4); // wraps: every stamp refreshed, epoch restarts at 1
        assert_eq!(d.cur_epoch, 1);
        assert_eq!(d.space().distance(3), None);
        // A stamp written by the refresh never equals a later epoch: replay
        // the last epoch before the *next* wrap over vertices untouched since.
        d.cur_epoch = u32::MAX - 1;
        d.sssp(&g, 4);
        assert_eq!(d.space().distance(3), None);
        assert_eq!(d.space().distance(4), Some(0));
    }
}
