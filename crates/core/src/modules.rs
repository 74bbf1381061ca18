//! The pluggable module traits of the K-SPIN framework (§3).
//!
//! Decoupling keyword indexes from the distance oracle is the paper's
//! "Flexibility" contribution: any [`NetworkDistance`] technique — CH, hub
//! labels, G-tree, even plain Dijkstra — plugs in unchanged, and any
//! admissible [`LowerBound`] heuristic serves the Heap Generator.

use kspin_alt::AltIndex;
use kspin_graph::{Dijkstra, Graph, HeapCounters, VertexId, Weight};

/// Module 2: exact network distance between two vertices.
///
/// Implementations may keep mutable per-query state (search arrays, heaps),
/// hence `&mut self`. This is "the bottleneck … the most expensive operation
/// performed for an object" (§3), which is why the query processors count
/// calls to it (see [`crate::QueryStats`]).
pub trait NetworkDistance {
    /// Exact `d(s, t)`; `INFINITY` when disconnected.
    fn distance(&mut self, s: VertexId, t: VertexId) -> Weight;

    /// Human-readable technique name ("CH", "HL", "G-tree", "Dijkstra").
    fn name(&self) -> &'static str;

    /// Cumulative heap-kernel counters of this oracle's internal searches
    /// (zero for oracles that answer from precomputed tables, the
    /// default). [`crate::QueryEngine`] snapshots and diffs these to
    /// attribute per-query heap traffic in [`crate::QueryStats`].
    fn heap_counters(&self) -> HeapCounters {
        HeapCounters::default()
    }
}

impl<T: NetworkDistance + ?Sized> NetworkDistance for &mut T {
    fn distance(&mut self, s: VertexId, t: VertexId) -> Weight {
        (**self).distance(s, t)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn heap_counters(&self) -> HeapCounters {
        (**self).heap_counters()
    }
}

/// Module 1: admissible lower bound on network distance.
///
/// Must satisfy `lower_bound(s, t) ≤ d(s, t)` for all pairs; tighter is
/// faster but never required for correctness.
pub trait LowerBound {
    /// A lower bound on `d(s, t)`.
    fn lower_bound(&self, s: VertexId, t: VertexId) -> Weight;

    /// Whether this bound is *exact*: `lower_bound(s, t) == d(s, t)` for
    /// every pair. Exactness unlocks the strict Property-1 extraction-order
    /// audit in the Heap Generator (keys must come out nondecreasing —
    /// see [`crate::heap::InvertedHeap`]); merely admissible bounds like
    /// ALT may legally insert a smaller key after a larger one was
    /// extracted, so the audit stays off for them.
    fn is_exact(&self) -> bool {
        false
    }
}

impl LowerBound for AltIndex {
    fn lower_bound(&self, s: VertexId, t: VertexId) -> Weight {
        AltIndex::lower_bound(self, s, t)
    }
}

/// The trivial bound `0` — always admissible, never informative. Exists for
/// the lower-bound ablation bench (how much of K-SPIN's win comes from ALT?).
#[derive(Debug, Clone, Copy, Default)]
pub struct ZeroLowerBound;

impl LowerBound for ZeroLowerBound {
    fn lower_bound(&self, _: VertexId, _: VertexId) -> Weight {
        0
    }
}

/// Module 1 taken to its limit: the exact network distance used as its own
/// lower bound. The tightest admissible bound possible — and, because it is
/// exact, the one that arms the strict Property-1 extraction-order audit
/// ([`LowerBound::is_exact`] returns `true`).
///
/// Heap generation always bounds from the one query vertex, so a single
/// cached SSSP per source answers every probe; the cache refreshes whenever
/// the source changes. Intended for the invariant-audit tests and small
/// ablation runs, not production queries — each fresh source costs a full
/// Dijkstra.
pub struct ExactLowerBound<'a> {
    graph: &'a Graph,
    cache: std::cell::RefCell<ExactCache>,
}

struct ExactCache {
    source: Option<VertexId>,
    dist: Vec<Weight>,
    search: Dijkstra,
}

impl<'a> ExactLowerBound<'a> {
    /// Creates the oracle over `graph` with an empty SSSP cache.
    pub fn new(graph: &'a Graph) -> Self {
        ExactLowerBound {
            graph,
            cache: std::cell::RefCell::new(ExactCache {
                source: None,
                dist: Vec::new(),
                search: Dijkstra::new(graph.num_vertices()),
            }),
        }
    }
}

impl std::fmt::Debug for ExactLowerBound<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExactLowerBound").finish_non_exhaustive()
    }
}

impl LowerBound for ExactLowerBound<'_> {
    fn lower_bound(&self, s: VertexId, t: VertexId) -> Weight {
        let mut cache = self.cache.borrow_mut();
        if cache.source != Some(s) {
            let ExactCache {
                dist,
                search,
                source,
            } = &mut *cache;
            search.sssp(self.graph, s);
            let space = search.space();
            dist.clear();
            // Audit-oracle table refresh, once per distinct source: reaches
            // |V| capacity on the first refresh and the clear-then-extend
            // refill never exceeds it.
            dist.extend((0..self.graph.num_vertices()).map(|v| {
                space
                    .distance(v as VertexId)
                    .unwrap_or(kspin_graph::INFINITY)
            }));
            *source = Some(s);
        }
        // Checked: a target outside the cached table (can't happen for ids
        // the engine mints, but cheap to tolerate) reads as unreachable.
        cache
            .dist
            .get(t as usize)
            .copied()
            .unwrap_or(kspin_graph::INFINITY)
    }

    fn is_exact(&self) -> bool {
        true
    }
}

/// A [`NetworkDistance`] backed by plain point-to-point Dijkstra on the
/// input graph — the index-free oracle (and the network-expansion
/// baseline's engine).
pub struct DijkstraDistance<'a> {
    graph: &'a Graph,
    search: Dijkstra,
}

impl<'a> DijkstraDistance<'a> {
    /// Creates an oracle over `graph`.
    pub fn new(graph: &'a Graph) -> Self {
        DijkstraDistance {
            graph,
            search: Dijkstra::new(graph.num_vertices()),
        }
    }
}

impl NetworkDistance for DijkstraDistance<'_> {
    fn distance(&mut self, s: VertexId, t: VertexId) -> Weight {
        self.search.one_to_one(self.graph, s, t)
    }

    fn name(&self) -> &'static str {
        "Dijkstra"
    }

    fn heap_counters(&self) -> HeapCounters {
        self.search.heap_counters()
    }
}

/// A [`NetworkDistance`] backed by bidirectional Dijkstra — still
/// index-free, roughly half the search space of [`DijkstraDistance`].
pub struct BiDijkstraDistance<'a> {
    graph: &'a Graph,
    search: kspin_graph::BiDijkstra,
}

impl<'a> BiDijkstraDistance<'a> {
    /// Creates an oracle over `graph`.
    pub fn new(graph: &'a Graph) -> Self {
        BiDijkstraDistance {
            graph,
            search: kspin_graph::BiDijkstra::new(graph.num_vertices()),
        }
    }
}

impl NetworkDistance for BiDijkstraDistance<'_> {
    fn distance(&mut self, s: VertexId, t: VertexId) -> Weight {
        self.search.distance(self.graph, s, t)
    }

    fn name(&self) -> &'static str {
        "BiDijkstra"
    }

    fn heap_counters(&self) -> HeapCounters {
        self.search.heap_counters()
    }
}

/// A [`NetworkDistance`] backed by ALT-guided A* — reuses the Lower
/// Bounding Module's landmarks as goal-directed potentials, so the only
/// extra index is the one K-SPIN already carries.
pub struct AltAstarDistance<'a> {
    graph: &'a Graph,
    alt: &'a AltIndex,
    search: kspin_alt::AltAstar,
}

impl<'a> AltAstarDistance<'a> {
    /// Creates an oracle over `graph` guided by `alt`.
    pub fn new(graph: &'a Graph, alt: &'a AltIndex) -> Self {
        AltAstarDistance {
            graph,
            alt,
            search: kspin_alt::AltAstar::new(graph.num_vertices()),
        }
    }
}

impl NetworkDistance for AltAstarDistance<'_> {
    fn distance(&mut self, s: VertexId, t: VertexId) -> Weight {
        self.search.distance(self.graph, self.alt, s, t)
    }

    fn name(&self) -> &'static str {
        "ALT-A*"
    }

    fn heap_counters(&self) -> HeapCounters {
        self.search.heap_counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kspin_alt::LandmarkStrategy;
    use kspin_graph::generate::{road_network, RoadNetworkConfig};

    #[test]
    fn dijkstra_distance_oracle_works() {
        let g = road_network(&RoadNetworkConfig::new(200, 1));
        let mut d = DijkstraDistance::new(&g);
        assert_eq!(d.distance(5, 5), 0);
        assert_eq!(d.distance(0, 10), d.distance(10, 0));
        assert_eq!(d.name(), "Dijkstra");
    }

    #[test]
    fn alt_satisfies_the_trait_admissibly() {
        let g = road_network(&RoadNetworkConfig::new(300, 2));
        let alt = AltIndex::build(&g, 8, LandmarkStrategy::Farthest, 0);
        let mut d = DijkstraDistance::new(&g);
        let oracle: &dyn LowerBound = &alt;
        for (s, t) in [(0u32, 99u32), (10, 200), (3, 3)] {
            assert!(oracle.lower_bound(s, t) <= d.distance(s, t));
        }
    }

    #[test]
    fn zero_bound_is_trivially_admissible() {
        assert_eq!(ZeroLowerBound.lower_bound(1, 2), 0);
    }

    #[test]
    fn all_index_free_oracles_agree() {
        let g = road_network(&RoadNetworkConfig::new(400, 3));
        let alt = AltIndex::build(&g, 8, LandmarkStrategy::Farthest, 0);
        let mut dij = DijkstraDistance::new(&g);
        let mut bi = BiDijkstraDistance::new(&g);
        let mut astar = AltAstarDistance::new(&g, &alt);
        for (s, t) in [(0u32, 399u32), (5, 200), (77, 78), (9, 9)] {
            let t = t.min(g.num_vertices() as u32 - 1);
            let want = dij.distance(s, t);
            assert_eq!(bi.distance(s, t), want, "bidijkstra ({s},{t})");
            assert_eq!(astar.distance(s, t), want, "astar ({s},{t})");
        }
    }
}
