//! Contraction Hierarchies (Geisberger et al. [10]).
//!
//! The low-memory Network Distance Module variant in the paper (KS-CH,
//! Table 1). Vertices are contracted in importance order; shortcuts preserve
//! shortest-path distances among the remaining vertices; a point-to-point
//! query meets two Dijkstras restricted to upward edges, the source's kept
//! across calls, together with the distances already answered from it
//! ([`ChQuery`]).
//!
//! The implementation follows the standard recipe:
//!
//! * lazy-update priority queue over `2 · edge difference + deleted
//!   neighbours + level`,
//! * hop/space-bounded witness searches during contraction,
//! * a CSR upward graph for cache-friendly queries.
//!
//! There is one label store: the witness search of the build and both
//! upward searches of a query keep their tentative distances in
//! [`kspin_graph::Labels`]; this crate adds only the CH-specific search
//! that fills one (`labels::fill_upward`).

#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

mod construction;
mod labels;
mod query;

pub use construction::{ChConfig, ContractionHierarchy};
pub use query::ChQuery;

#[cfg(test)]
mod tests {
    use super::*;
    use kspin_graph::generate::{road_network, RoadNetworkConfig};
    use kspin_graph::{Dijkstra, GraphBuilder, HeapCounters, VertexId, INFINITY};

    #[test]
    fn exact_on_random_road_network() {
        let g = road_network(&RoadNetworkConfig::new(800, 23));
        let ch = ContractionHierarchy::build(&g, &ChConfig::default());
        let mut q = ChQuery::new(&ch);
        let mut dij = Dijkstra::new(g.num_vertices());
        for s in [0u32, 7, 111, 400, 750] {
            let s = s.min(g.num_vertices() as u32 - 1);
            dij.sssp(&g, s);
            let space = dij.space();
            for t in (0..g.num_vertices() as VertexId).step_by(53) {
                let exact = space.distance(t).unwrap();
                let got = q.distance(s, t);
                assert_eq!(got, exact, "mismatch for ({s}, {t})");
            }
        }
    }

    #[test]
    fn one_input_builds_one_hierarchy() {
        // Large enough that the contraction endgame and witness-search ties
        // occur; with hash-ordered adjacency two builds in one process
        // disagreed on the shortcut count.
        let g = road_network(&RoadNetworkConfig::new(3000, 11));
        let a = ContractionHierarchy::build(&g, &ChConfig::default());
        let b = ContractionHierarchy::build(&g, &ChConfig::default());
        assert_eq!(a.flat_parts(), b.flat_parts());
    }

    /// Mean over all vertices of `(closure vertices, closure arcs)`: the
    /// vertices an unpruned upward search from it settles, and the upward
    /// arcs it scans.
    fn mean_upward_closure(ch: &ContractionHierarchy) -> (f64, f64) {
        let n = ch.num_vertices();
        let mut seen = vec![u32::MAX; n];
        let (mut vertices, mut arcs) = (0usize, 0usize);
        let mut stack = Vec::new();
        for s in 0..n as VertexId {
            seen[s as usize] = s;
            stack.push(s);
            while let Some(v) = stack.pop() {
                vertices += 1;
                for (u, _) in ch.upward(v) {
                    arcs += 1;
                    if seen[u as usize] != s {
                        seen[u as usize] = s;
                        stack.push(u);
                    }
                }
            }
        }
        (vertices as f64 / n as f64, arcs as f64 / n as f64)
    }

    #[test]
    fn node_order_keeps_the_hierarchy_shallow() {
        // This network's mean closure is 150.5 arcs; it was 207.8 with
        // witness searches of 50 settled vertices / 5 hops, and 280 without
        // the level term of the node order. The bound fails both.
        let g = road_network(&RoadNetworkConfig::new(3000, 11));
        let ch = ContractionHierarchy::build(&g, &ChConfig::default());
        let (vertices, arcs) = mean_upward_closure(&ch);
        assert!(
            arcs <= 170.0,
            "mean upward closure {vertices:.1} vertices, {arcs:.1} arcs"
        );
    }

    #[test]
    fn distance_to_self_is_zero() {
        let g = road_network(&RoadNetworkConfig::new(200, 5));
        let ch = ContractionHierarchy::build(&g, &ChConfig::default());
        let mut q = ChQuery::new(&ch);
        for v in [0u32, 50, 150] {
            assert_eq!(q.distance(v, v), 0);
        }
    }

    #[test]
    fn disconnected_pairs_are_infinite() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 3);
        b.add_edge(2, 3, 4);
        let g = b.build();
        let ch = ContractionHierarchy::build(&g, &ChConfig::default());
        let mut q = ChQuery::new(&ch);
        assert_eq!(q.distance(0, 2), INFINITY);
        assert_eq!(q.distance(0, 1), 3);
        assert_eq!(q.distance(2, 3), 4);
    }

    #[test]
    fn path_graph_distances() {
        let mut b = GraphBuilder::new(6);
        for v in 0..5 {
            b.add_edge(v, v + 1, v + 1);
        }
        let g = b.build();
        let ch = ContractionHierarchy::build(&g, &ChConfig::default());
        let mut q = ChQuery::new(&ch);
        assert_eq!(q.distance(0, 5), 1 + 2 + 3 + 4 + 5);
        assert_eq!(q.distance(2, 4), 3 + 4);
    }

    #[test]
    fn query_is_symmetric_and_matches_dijkstra() {
        let g = road_network(&RoadNetworkConfig::new(300, 8));
        let ch = ContractionHierarchy::build(&g, &ChConfig::default());
        let mut q = ChQuery::new(&ch);
        let mut dij = Dijkstra::new(g.num_vertices());
        let d1 = q.distance(0, 99);
        let d2 = q.distance(99, 0);
        assert_eq!(d1, d2);
        assert_eq!(d1, dij.one_to_one(&g, 0, 99));
    }

    #[test]
    fn saturating_weights_on_a_ring_match_dijkstra() {
        // Every two-edge path sums past INFINITY, and contraction stacks
        // shortcuts on shortcuts: a raw `+` panics in debug builds and wraps
        // a shortcut to a tiny weight in release builds.
        let mut b = GraphBuilder::new(8);
        for v in 0..8 {
            b.add_edge(v, (v + 1) % 8, INFINITY / 2 + 1);
        }
        let g = b.build();
        let ch = ContractionHierarchy::build(&g, &ChConfig::default());
        let mut q = ChQuery::new(&ch);
        let mut dij = Dijkstra::new(g.num_vertices());
        for s in 0..8 {
            for t in 0..8 {
                let want = dij.one_to_one(&g, s, t).min(INFINITY);
                assert_eq!(q.distance(s, t), want, "mismatch for ({s}, {t})");
            }
        }
    }

    #[test]
    fn one_forward_search_serves_every_call_from_a_source() {
        let g = road_network(&RoadNetworkConfig::new(600, 41));
        let ch = ContractionHierarchy::build(&g, &ChConfig::default());
        let calls: Vec<(VertexId, VertexId)> = (1..=12).map(|i| (3, i * 47)).collect();
        let replay = |calls: &[(VertexId, VertexId)]| -> HeapCounters {
            let mut q = ChQuery::new(&ch);
            for &(s, t) in calls {
                let _ = q.distance(s, t);
            }
            q.heap_counters()
        };
        let pinned = replay(&calls);
        let fresh_pops: u64 = calls.iter().map(|&c| replay(&[c]).pops).sum();
        // The forward search is unpruned, so it pops exactly the upward
        // closure of the source — once here, once per fresh instance there.
        let mut closure = std::collections::BTreeSet::from([3]);
        let mut stack = vec![3];
        while let Some(v) = stack.pop() {
            stack.extend(
                ch.upward(v)
                    .filter_map(|(u, _)| closure.insert(u).then_some(u)),
            );
        }
        assert!(closure.len() > 1);
        assert_eq!(
            fresh_pops - pinned.pops,
            (calls.len() - 1) as u64 * closure.len() as u64
        );
        assert_eq!(pinned.grows, 0);
        assert_eq!(replay(&calls), pinned, "counters must replay exactly");
    }

    #[test]
    fn a_repeated_target_is_answered_without_a_search() {
        let g = road_network(&RoadNetworkConfig::new(600, 41));
        let ch = ContractionHierarchy::build(&g, &ChConfig::default());
        let mut dij = Dijkstra::new(g.num_vertices());
        let (a, b) = (211, 523);
        let mut q = ChQuery::new(&ch);
        let mut heap_work = Vec::new();
        for (s, t) in [(3, a), (3, b), (3, a), (5, a), (3, a)] {
            let before = q.heap_counters();
            assert_eq!(q.distance(s, t), dij.one_to_one(&g, s, t), "({s}, {t})");
            let d = q.heap_counters().since(before);
            heap_work.push(d.pushes + d.pops);
        }
        assert!(
            heap_work[1] > 0,
            "(3, b) is a new target: a backward search"
        );
        assert_eq!(heap_work[2], 0, "(3, a) again: answered from memory");
        // Re-pinning to 5 forgot every kept answer: back at 3, the
        // forward space and the backward search both run again.
        assert_eq!(heap_work[4], heap_work[0]);
    }
}
