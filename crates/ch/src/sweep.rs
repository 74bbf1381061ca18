//! PHAST-style batched one-to-many distance sweeps.
//!
//! A per-query Dijkstra pays a heap operation and a cache-missing adjacency
//! scan per settled vertex, for *every* query. PHAST (Delling et al.; see
//! SALT in PAPERS.md) restructures one-to-many over a contraction hierarchy
//! into two phases:
//!
//! 1. **Upward search** — a plain Dijkstra from the source restricted to
//!    upward edges. Its search space is tiny (the source's CH label).
//! 2. **Downward sweep** — one *linear* pass over vertices in descending
//!    contraction rank, relaxing each vertex's upward arcs in reverse:
//!    `dist[v] = min(dist[v], dist[u] + w)` for every upward arc `(v → u)`.
//!    Every up-down shortest path is covered because the higher-ranked
//!    endpoint is always processed first.
//!
//! The sweep touches each vertex exactly once with perfectly sequential
//! memory access — no heap, no frontier — so a batch of queries against the
//! same target set amortizes beautifully. **RPHAST** restricts the sweep to
//! the union of the targets' upward search spaces ([`RestrictedTargets`]),
//! computed once per target set and reused across every source in a batch.
//!
//! Distances are exact (CH preserves shortest paths), so swapping a
//! per-query Dijkstra for a sweep is invisible in results — the property
//! the serving layer's determinism certificate relies on.

use kspin_graph::{weight_add, DaryHeap, HeapCounters, VertexId, Weight, INFINITY};

use crate::construction::ContractionHierarchy;
use crate::labels::Labels;

/// Structural instrumentation for the sweep kernel (mirrors
/// [`HeapCounters`] for the per-query kernels).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepCounters {
    /// Full (PHAST) one-to-many sweeps run.
    pub sweeps: u64,
    /// Restricted (RPHAST) one-to-many sweeps run.
    pub restricted_sweeps: u64,
    /// Vertices relaxed by downward sweeps — the sweep analogue of
    /// "settled" for a per-query search.
    pub swept_vertices: u64,
    /// Vertices settled by upward searches (phase 1).
    pub upward_settled: u64,
}

impl SweepCounters {
    /// Total vertices this kernel has settled/relaxed, comparable to the
    /// pop count of a per-query Dijkstra over the same queries.
    pub fn total_settled(&self) -> u64 {
        self.swept_vertices + self.upward_settled
    }
}

/// The union of the upward search spaces of a target set, in descending
/// contraction-rank order — the restricted sweep domain of RPHAST.
///
/// Built once per target set (e.g. per keyword group in a serving batch)
/// and shared by every source sweeping against those targets.
#[derive(Debug, Clone)]
pub struct RestrictedTargets {
    /// The targets, in the caller's order (output order of
    /// [`OneToManySweep::one_to_many_restricted`]).
    targets: Vec<VertexId>,
    /// Sweep domain: every vertex reachable from a target via upward arcs,
    /// sorted by descending rank. Upward-closed by construction, which is
    /// exactly what makes the restricted sweep exact.
    order: Vec<VertexId>,
}

impl RestrictedTargets {
    /// Collects the restriction for `targets` by a DFS over upward arcs.
    pub fn new(ch: &ContractionHierarchy, targets: &[VertexId]) -> Self {
        let n = ch.num_vertices();
        let mut in_set = vec![false; n];
        let mut stack: Vec<VertexId> = Vec::new();
        for &t in targets {
            // PANIC-OK: in_set is sized n; targets are graph vertices < n.
            if !in_set[t as usize] {
                in_set[t as usize] = true; // PANIC-OK: t < n as above.
                stack.push(t);
            }
        }
        let mut order: Vec<VertexId> = Vec::new();
        while let Some(v) = stack.pop() {
            order.push(v);
            for (u, _) in ch.upward(v) {
                // PANIC-OK: in_set is sized n; upward targets are vertices < n.
                if !in_set[u as usize] {
                    in_set[u as usize] = true; // PANIC-OK: u < n as above.
                    stack.push(u);
                }
            }
        }
        // Rank is a bijection onto 0..n, so this order is deterministic.
        order.sort_unstable_by_key(|&v| std::cmp::Reverse(ch.rank(v)));
        RestrictedTargets {
            targets: targets.to_vec(),
            order,
        }
    }

    /// The target set, in construction order.
    pub fn targets(&self) -> &[VertexId] {
        &self.targets
    }

    /// Size of the restricted sweep domain.
    pub fn restricted_len(&self) -> usize {
        self.order.len()
    }
}

/// Reusable one-to-many sweep state over a built hierarchy.
///
/// All buffers are pre-sized to the vertex count at construction and
/// epoch-stamped, so repeated sweeps never clear or reallocate them.
pub struct OneToManySweep<'a> {
    ch: &'a ContractionHierarchy,
    /// All vertices in descending contraction rank — the full sweep order.
    order: Vec<VertexId>,
    labels: Labels,
    heap: DaryHeap,
    counters: SweepCounters,
}

impl<'a> OneToManySweep<'a> {
    /// Creates sweep state for `ch`.
    pub fn new(ch: &'a ContractionHierarchy) -> Self {
        let n = ch.num_vertices();
        // rank is a bijection onto 0..n: invert it directly instead of
        // sorting (order[n - 1 - rank(v)] = v gives descending rank).
        let mut order = vec![0 as VertexId; n];
        for v in 0..n as VertexId {
            // PANIC-OK: rank is a bijection onto 0..n, so the index is < n.
            order[n - 1 - ch.rank(v) as usize] = v;
        }
        OneToManySweep {
            ch,
            order,
            labels: Labels::new(n),
            heap: DaryHeap::new(n),
            counters: SweepCounters::default(),
        }
    }

    /// Distances from `source` to each of `targets` via a full PHAST sweep,
    /// written into `out` (cleared first). Unreachable targets get
    /// [`INFINITY`].
    ///
    /// After the call, [`OneToManySweep::distance`] reads the distance to
    /// *any* vertex — the sweep computes a full SSSP.
    pub fn one_to_many(&mut self, source: VertexId, targets: &[VertexId], out: &mut Vec<Weight>) {
        self.upward_search(source);
        self.counters.sweeps += 1;
        // Move the order out so the loop can relax through &mut self.
        let order = std::mem::take(&mut self.order);
        for &v in &order {
            self.relax_downward(v);
        }
        self.counters.swept_vertices += order.len() as u64;
        self.order = order;
        self.gather(targets, out);
    }

    /// RPHAST: distances from `source` to `restricted.targets()` sweeping
    /// only the restricted domain, written into `out` (cleared first).
    pub fn one_to_many_restricted(
        &mut self,
        source: VertexId,
        restricted: &RestrictedTargets,
        out: &mut Vec<Weight>,
    ) {
        self.upward_search(source);
        self.counters.restricted_sweeps += 1;
        for &v in &restricted.order {
            self.relax_downward(v);
        }
        self.counters.swept_vertices += restricted.order.len() as u64;
        self.gather(&restricted.targets, out);
    }

    /// Distance of `v` as of the last sweep ([`INFINITY`] if unreached, or
    /// outside the restricted domain of a restricted sweep).
    #[inline]
    pub fn distance(&self, v: VertexId) -> Weight {
        self.labels.get(v)
    }

    /// Structural sweep counters accumulated over this instance's lifetime.
    pub fn counters(&self) -> SweepCounters {
        self.counters
    }

    /// Heap counters of the upward-search phase.
    pub fn heap_counters(&self) -> HeapCounters {
        self.heap.counters()
    }

    /// Phase 1: Dijkstra from `source` restricted to upward arcs.
    fn upward_search(&mut self, source: VertexId) {
        self.counters.upward_settled += self.labels.fill_upward(self.ch, &mut self.heap, source);
    }

    /// Phase 2 step: pull `v`'s label down through its upward arcs. The
    /// heads are strictly higher-ranked, so descending-rank processing has
    /// already finalized them.
    #[inline]
    fn relax_downward(&mut self, v: VertexId) {
        let mut best = self.labels.get(v);
        for (u, w) in self.ch.upward(v) {
            let du = self.labels.get(u);
            if du < INFINITY {
                let nd = weight_add(du, w);
                if nd < best {
                    best = nd;
                }
            }
        }
        if best < INFINITY {
            self.labels.set(v, best);
        }
    }

    fn gather(&self, targets: &[VertexId], out: &mut Vec<Weight>) {
        out.clear();
        // ALLOC-OK: out is a caller-reused buffer; extend grows it to
        // targets.len() once, after which clear+extend never reallocates.
        out.extend(targets.iter().map(|&t| self.distance(t)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construction::{ChConfig, ContractionHierarchy};
    use kspin_graph::generate::{road_network, RoadNetworkConfig};
    use kspin_graph::{Dijkstra, Graph, GraphBuilder};

    fn network(n: usize, seed: u64) -> (Graph, ContractionHierarchy) {
        let g = road_network(&RoadNetworkConfig::new(n, seed));
        let ch = ContractionHierarchy::build(&g, &ChConfig::default());
        (g, ch)
    }

    #[test]
    fn full_sweep_matches_dijkstra_sssp() {
        let (g, ch) = network(600, 19);
        let mut sweep = OneToManySweep::new(&ch);
        let mut dij = Dijkstra::new(g.num_vertices());
        let targets: Vec<VertexId> = (0..g.num_vertices() as VertexId).step_by(7).collect();
        let mut out = Vec::new();
        for s in [0u32, 13, 250, 599] {
            sweep.one_to_many(s, &targets, &mut out);
            dij.sssp(&g, s);
            let space = dij.space();
            for (i, &t) in targets.iter().enumerate() {
                assert_eq!(
                    out[i],
                    space.distance(t).unwrap_or(INFINITY),
                    "mismatch at ({s}, {t})"
                );
            }
        }
    }

    #[test]
    fn restricted_sweep_matches_full_on_targets() {
        let (g, ch) = network(500, 31);
        let mut sweep = OneToManySweep::new(&ch);
        let targets: Vec<VertexId> = vec![3, 77, 201, 499, 77];
        let restricted = RestrictedTargets::new(&ch, &targets);
        assert!(restricted.restricted_len() < g.num_vertices());
        let (mut full, mut fast) = (Vec::new(), Vec::new());
        for s in [5u32, 100, 444] {
            sweep.one_to_many(s, &targets, &mut full);
            sweep.one_to_many_restricted(s, &restricted, &mut fast);
            assert_eq!(full, fast, "restricted sweep diverged for source {s}");
        }
    }

    #[test]
    fn restricted_domain_is_upward_closed_and_ordered() {
        let (_, ch) = network(300, 7);
        let r = RestrictedTargets::new(&ch, &[1, 50, 299]);
        for w in r.order.windows(2) {
            assert!(ch.rank(w[0]) > ch.rank(w[1]), "order not descending");
        }
        let in_set: std::collections::BTreeSet<_> = r.order.iter().copied().collect();
        for &v in &r.order {
            for (u, _) in ch.upward(v) {
                assert!(in_set.contains(&u), "domain not upward-closed at {v}->{u}");
            }
        }
    }

    #[test]
    fn counters_account_for_sweep_work() {
        let (g, ch) = network(400, 3);
        let mut sweep = OneToManySweep::new(&ch);
        let mut out = Vec::new();
        sweep.one_to_many(0, &[1, 2], &mut out);
        let c = sweep.counters();
        assert_eq!(c.sweeps, 1);
        assert_eq!(c.swept_vertices, g.num_vertices() as u64);
        assert!(c.upward_settled >= 1);
        let restricted = RestrictedTargets::new(&ch, &[1, 2]);
        sweep.one_to_many_restricted(0, &restricted, &mut out);
        let c = sweep.counters();
        assert_eq!(c.restricted_sweeps, 1);
        assert!(c.total_settled() > 0);
        assert_eq!(sweep.heap_counters().stale_skipped, 0);
    }

    #[test]
    fn disconnected_targets_are_infinite() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 3);
        b.add_edge(1, 2, 4);
        b.add_edge(3, 4, 1);
        let g = b.build();
        let ch = ContractionHierarchy::build(&g, &ChConfig::default());
        let mut sweep = OneToManySweep::new(&ch);
        let mut out = Vec::new();
        sweep.one_to_many(0, &[2, 3, 4], &mut out);
        assert_eq!(out, vec![7, INFINITY, INFINITY]);
        assert_eq!(g.num_vertices(), 5);
    }

    #[test]
    fn state_reuse_across_sweeps_is_clean() {
        let (_, ch) = network(200, 11);
        let mut sweep = OneToManySweep::new(&ch);
        let mut out = Vec::new();
        sweep.one_to_many(0, &[199], &mut out);
        let first = out[0];
        sweep.one_to_many(199, &[0], &mut out);
        assert_eq!(out[0], first, "undirected distance must be symmetric");
        // distance() reflects only the latest sweep's epoch.
        assert_eq!(sweep.distance(199), 0);
    }
}
