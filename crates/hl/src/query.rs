//! Source-pinned point-to-point distances over built hub labels.

use kspin_graph::{weight_add, VertexId, Weight, INFINITY};

use crate::HubLabels;

/// Reusable point-to-point query state.
///
/// Every caller in this workspace asks for many distances from one source
/// in a row (a query vertex against its candidates, §3 module 2), so the
/// source's label is read once and kept in a form that makes each later
/// call a single pass over the *target's* label: the first call from a
/// source `s` scatters `L(s)` into a vertex-indexed table
/// (`table[hub] = dist`, every other slot [`INFINITY`]) and pins `s`;
/// every call then returns the minimum of `table[h] + d` over
/// `(h, d) ∈ L(t)`. A call from another source walks the old source's
/// label writing [`INFINITY`] back, then scatters the new one.
///
/// Exactness is the 2-hop cover property read through a table instead of
/// a sorted merge: a hub of `L(t)` that `L(s)` lacks reads [`INFINITY`],
/// and `weight_add` saturates, so it can never win the minimum; a common
/// hub contributes exactly the sum the merge forms. The result never
/// depends on what was pinned before the call.
///
/// The table is sized to the vertex count at construction, so an `HlQuery`
/// performs no allocation afterwards.
pub struct HlQuery<'a> {
    labels: &'a HubLabels,
    /// Distance from `pinned` to each of its hubs; [`INFINITY`] elsewhere.
    table: Vec<Weight>,
    pinned: Option<VertexId>,
}

impl<'a> HlQuery<'a> {
    /// Creates query state for `labels`.
    pub fn new(labels: &'a HubLabels) -> Self {
        HlQuery {
            labels,
            table: vec![INFINITY; labels.num_vertices()],
            pinned: None,
        }
    }

    /// Exact network distance between `s` and `t` ([`INFINITY`] when
    /// disconnected).
    pub fn distance(&mut self, s: VertexId, t: VertexId) -> Weight {
        if s == t {
            return 0;
        }
        if self.pinned != Some(s) {
            self.pin(s);
        }
        let (hubs, dists) = self.labels.label(t);
        hubs.iter()
            .zip(dists)
            .map(|(&h, &d)| weight_add(self.table.get(h as usize).copied().unwrap_or(INFINITY), d))
            .fold(INFINITY, Weight::min)
    }

    /// Makes `s` the source the table describes. Hubs are vertices and the
    /// table has a slot per vertex, so every `get_mut` finds one.
    fn pin(&mut self, s: VertexId) {
        if let Some(old) = self.pinned {
            for &h in self.labels.label(old).0 {
                if let Some(slot) = self.table.get_mut(h as usize) {
                    *slot = INFINITY;
                }
            }
        }
        let (hubs, dists) = self.labels.label(s);
        for (&h, &d) in hubs.iter().zip(dists) {
            if let Some(slot) = self.table.get_mut(h as usize) {
                *slot = d;
            }
        }
        self.pinned = Some(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::ring;
    use kspin_ch::{ChConfig, ContractionHierarchy};
    use kspin_graph::generate::{road_network, RoadNetworkConfig};
    use kspin_graph::{Dijkstra, Graph, GraphBuilder};

    fn labels_of(g: &Graph) -> HubLabels {
        HubLabels::build(&ContractionHierarchy::build(g, &ChConfig::default()))
    }

    /// The vertices whose table slot is not [`INFINITY`], ascending.
    fn occupied(q: &HlQuery<'_>) -> Vec<VertexId> {
        (0..q.table.len() as VertexId)
            .filter(|&h| q.table[h as usize] != INFINITY)
            .collect()
    }

    #[test]
    fn unpinning_leaves_nothing_behind() {
        let g = road_network(&RoadNetworkConfig::new(600, 31));
        let hl = labels_of(&g);
        let n = g.num_vertices() as VertexId;
        // Neighbouring sources: their labels overlap in the high hubs, so a
        // careless unpin would either wipe or keep shared slots.
        let (a, b) = (300, 301);
        let (ha, hb) = (hl.label(a).0, hl.label(b).0);
        assert!(ha.iter().any(|h| hb.contains(h)), "labels share no hub");
        assert_ne!(ha, hb);

        let targets: Vec<VertexId> = (0..n).step_by(37).collect();
        let mut reused = HlQuery::new(&hl);
        for s in [a, b, a] {
            let mut fresh = HlQuery::new(&hl);
            for &t in &targets {
                assert_eq!(reused.distance(s, t), fresh.distance(s, t), "({s},{t})");
            }
            // Only the pinned source's hubs are occupied, whatever came before.
            assert_eq!(occupied(&reused), hl.label(s).0, "after pinning {s}");
        }
        // `s == t` answers without pinning: the table still describes `a`.
        assert_eq!(reused.distance(b, b), 0);
        assert_eq!(occupied(&reused), ha);
    }

    /// All pairs of `g` through one reused kernel against Dijkstra, with the
    /// source changing fastest so every call re-pins.
    fn all_pairs_match_dijkstra(g: &Graph) {
        let hl = labels_of(g);
        let n = g.num_vertices() as VertexId;
        let mut q = HlQuery::new(&hl);
        let mut dij = Dijkstra::new(g.num_vertices());
        for t in 0..n {
            for s in 0..n {
                let got = q.distance(s, t);
                assert_eq!(got, dij.one_to_one(g, s, t).min(INFINITY), "({s},{t})");
                assert_eq!(got, hl.distance(s, t), "merge ({s},{t})");
            }
        }
    }

    #[test]
    fn near_saturating_weights_do_not_wrap() {
        // Sums of two label entries pass INFINITY here and must read as
        // unreachable, exactly as Dijkstra's clamped answer does; and the
        // scan adds a label distance to INFINITY itself at every hub the
        // source lacks, which must neither wrap nor win.
        all_pairs_match_dijkstra(&ring(8, INFINITY / 3 + 1));
        all_pairs_match_dijkstra(&ring(300, INFINITY / 2 + 1));
        let mut path = GraphBuilder::new(12);
        for v in 0..11 {
            path.add_edge(v, v + 1, INFINITY / 2 + 1);
        }
        all_pairs_match_dijkstra(&path.build());
    }

    #[test]
    fn one_saturating_edge_does_not_wrap_the_label_merge() {
        // The build's min-merge shifts a neighbour's whole label by the
        // connecting edge: `u32::MAX - 1` plus any entry past 1 overflows.
        let mut one_heavy = GraphBuilder::new(6);
        for v in 0..6 {
            one_heavy.add_edge(v, (v + 1) % 6, if v == 5 { u32::MAX - 1 } else { 10 });
        }
        all_pairs_match_dijkstra(&one_heavy.build());
        all_pairs_match_dijkstra(&ring(8, INFINITY / 2 + 1));
    }
}
