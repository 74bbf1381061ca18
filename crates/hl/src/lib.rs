//! Hub labeling (2-hop labels) built from Contraction Hierarchies.
//!
//! This is the workspace's stand-in for Pruned Highway Labeling [11]
//! (DESIGN.md §3, substitution 2): a label-class distance oracle with
//! O(label size) queries — much faster than CH at a much larger index,
//! which is exactly the trade-off the paper's KS-PHL variant demonstrates.
//!
//! Every vertex `v` receives a label `L(v)`: a sorted list of `(hub, dist)`
//! pairs such that any shortest `s`–`t` path has a common hub in
//! `L(s) ∩ L(t)` (the 2-hop cover property). Labels are extracted from CH
//! upward search spaces in descending rank order with on-the-fly pruning,
//! the standard CHHL construction.
//!
//! Two ways to ask for a distance:
//!
//! * [`HlQuery`] — the serving kernel behind `HlDistance` (KS-HL). It keeps
//!   the last source's label scattered into a vertex-indexed table, so a
//!   run of calls from one query vertex costs one linear scan of each
//!   candidate's label.
//! * [`HubLabels::distance`] — the stateless sorted merge of two labels,
//!   for callers with no source to hold on to (FS-FBS's infrequent-keyword
//!   path) and as the reference the kernel is tested against.
//!
//! The same labels serve FS-FBS [2], which additionally needs the *inverse*
//! mapping ([`BackwardLabels`]): for each hub, the vertices whose label
//! contains it.

#![deny(missing_docs)]

use kspin_ch::ContractionHierarchy;
use kspin_graph::csr::row_slice;
use kspin_graph::{weight_add, VertexId, Weight, INFINITY};

mod query;

pub use query::HlQuery;

/// Forward 2-hop labels for every vertex, stored in one flat arena.
#[derive(Debug, Clone)]
pub struct HubLabels {
    offsets: Vec<u32>,
    hubs: Vec<VertexId>,
    dists: Vec<Weight>,
}

impl HubLabels {
    /// Extracts pruned labels from a built hierarchy.
    pub fn build(ch: &ContractionHierarchy) -> Self {
        let n = ch.num_vertices();
        // Process vertices top-down (descending rank): when v is labeled,
        // the labels of all its upward neighbors are final.
        let mut by_rank: Vec<VertexId> = (0..n as VertexId).collect();
        by_rank.sort_unstable_by_key(|&v| std::cmp::Reverse(ch.rank(v)));

        // Temporary per-vertex labels, sorted by hub id.
        let mut labels: Vec<Vec<(VertexId, Weight)>> = vec![Vec::new(); n];
        let mut merged: Vec<(VertexId, Weight)> = Vec::new();

        for &v in &by_rank {
            merged.clear();
            merged.push((v, 0));
            // Min-merge the labels of all upward neighbors, shifted by the
            // connecting edge weight.
            for (u, w) in ch.upward(v) {
                for &(h, d) in &labels[u as usize] {
                    merged.push((h, weight_add(d, w)));
                }
            }
            merged.sort_unstable_by_key(|&(h, d)| (h, d));
            merged.dedup_by(|next, prev| next.0 == prev.0); // keep min dist per hub

            // Prune entries already certified by higher hubs: drop (h, d) if
            // some other common hub g of v and h yields dist ≤ d.
            let mut pruned: Vec<(VertexId, Weight)> = Vec::with_capacity(merged.len());
            for &(h, d) in merged.iter() {
                if h == v {
                    pruned.push((h, d));
                    continue;
                }
                let via = Self::merge_min_excluding(&pruned, &labels[h as usize], h);
                if via <= d {
                    continue;
                }
                pruned.push((h, d));
            }
            labels[v as usize] = pruned;
        }

        // Flatten into the arena.
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let total: usize = labels.iter().map(Vec::len).sum();
        let mut hubs = Vec::with_capacity(total);
        let mut dists = Vec::with_capacity(total);
        for l in &labels {
            for &(h, d) in l {
                hubs.push(h);
                dists.push(d);
            }
            offsets.push(hubs.len() as u32);
        }
        HubLabels {
            offsets,
            hubs,
            dists,
        }
    }

    fn merge_min_excluding(
        a: &[(VertexId, Weight)],
        b: &[(VertexId, Weight)],
        exclude: VertexId,
    ) -> Weight {
        let mut best = INFINITY;
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    if a[i].0 != exclude {
                        let d = weight_add(a[i].1, b[j].1);
                        if d < best {
                            best = d;
                        }
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        best
    }

    /// Number of labeled vertices.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The label of `v` as parallel `(hubs, dists)` slices, sorted by hub id.
    #[inline]
    pub fn label(&self, v: VertexId) -> (&[VertexId], &[Weight]) {
        (
            row_slice(&self.offsets, &self.hubs, v as usize),
            row_slice(&self.offsets, &self.dists, v as usize),
        )
    }

    /// Exact distance via sorted-label intersection; [`INFINITY`] when the
    /// labels share no hub (disconnected). Stateless: for a run of calls
    /// from one source, [`HlQuery`] reads the source's label once.
    pub fn distance(&self, s: VertexId, t: VertexId) -> Weight {
        if s == t {
            return 0;
        }
        let (sh, sd) = self.label(s);
        let (th, td) = self.label(t);
        let mut s_entries = sh.iter().zip(sd);
        let mut t_entries = th.iter().zip(td);
        let (mut a, mut b) = (s_entries.next(), t_entries.next());
        let mut best = INFINITY;
        while let (Some((ha, &da)), Some((hb, &db))) = (a, b) {
            match ha.cmp(hb) {
                std::cmp::Ordering::Less => a = s_entries.next(),
                std::cmp::Ordering::Greater => b = t_entries.next(),
                std::cmp::Ordering::Equal => {
                    best = best.min(weight_add(da, db));
                    a = s_entries.next();
                    b = t_entries.next();
                }
            }
        }
        best
    }

    /// Average label length — the constant behind query time.
    pub fn avg_label_len(&self) -> f64 {
        self.hubs.len() as f64 / self.num_vertices().max(1) as f64
    }

    /// Index size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.offsets.len() * 4 + self.hubs.len() * 8
    }

    /// Builds the hub → vertices inverse used by FS-FBS backward search.
    pub fn invert(&self) -> BackwardLabels {
        let n = self.num_vertices();
        let mut deg = vec![0u32; n + 1];
        for &h in &self.hubs {
            deg[h as usize + 1] += 1;
        }
        for i in 0..n {
            deg[i + 1] += deg[i];
        }
        let offsets = deg;
        let mut vertices = vec![0 as VertexId; self.hubs.len()];
        let mut dists = vec![0 as Weight; self.hubs.len()];
        let mut cursor = offsets.clone();
        for v in 0..n as VertexId {
            let (hs, ds) = self.label(v);
            for (&h, &d) in hs.iter().zip(ds) {
                let c = &mut cursor[h as usize];
                vertices[*c as usize] = v;
                dists[*c as usize] = d;
                *c += 1;
            }
        }
        // Sort each hub's list by distance — FS-FBS scans backward labels in
        // ascending distance order.
        let mut perm: Vec<u32> = Vec::new();
        for h in 0..n {
            let lo = offsets[h] as usize;
            let hi = offsets[h + 1] as usize;
            perm.clear();
            perm.extend(lo as u32..hi as u32);
            perm.sort_unstable_by_key(|&i| dists[i as usize]);
            let vs: Vec<VertexId> = perm.iter().map(|&i| vertices[i as usize]).collect();
            let ds: Vec<Weight> = perm.iter().map(|&i| dists[i as usize]).collect();
            vertices[lo..hi].copy_from_slice(&vs);
            dists[lo..hi].copy_from_slice(&ds);
        }
        BackwardLabels {
            offsets,
            vertices,
            dists,
        }
    }
}

/// For each hub `h`, the vertices whose forward label contains `h`, sorted
/// by ascending distance ("backward labels" in FS-FBS terminology).
#[derive(Debug, Clone)]
pub struct BackwardLabels {
    offsets: Vec<u32>,
    vertices: Vec<VertexId>,
    dists: Vec<Weight>,
}

impl BackwardLabels {
    /// The vertices having `h` in their label, with distances, sorted by
    /// ascending distance.
    #[inline]
    pub fn of(&self, h: VertexId) -> (&[VertexId], &[Weight]) {
        (
            row_slice(&self.offsets, &self.vertices, h as usize),
            row_slice(&self.offsets, &self.dists, h as usize),
        )
    }

    /// Index size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.offsets.len() * 4 + self.vertices.len() * 8
    }

    /// Arena offset of hub `h`'s first entry — lets callers maintain
    /// parallel per-entry side tables (FS-FBS keeps keyword signatures
    /// aligned with backward entries this way).
    #[inline]
    pub fn entry_offset(&self, h: VertexId) -> usize {
        self.offsets[h as usize] as usize
    }

    /// Total number of backward entries across all hubs.
    pub fn num_entries(&self) -> usize {
        self.vertices.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kspin_ch::ChConfig;
    use kspin_graph::generate::{road_network, RoadNetworkConfig};
    use kspin_graph::{Dijkstra, GraphBuilder};

    fn build_pair(n: usize, seed: u64) -> (kspin_graph::Graph, HubLabels) {
        let g = road_network(&RoadNetworkConfig::new(n, seed));
        let ch = ContractionHierarchy::build(&g, &ChConfig::default());
        let hl = HubLabels::build(&ch);
        (g, hl)
    }

    #[test]
    fn exact_on_random_road_network() {
        let (g, hl) = build_pair(600, 31);
        let mut dij = Dijkstra::new(g.num_vertices());
        for s in [0u32, 42, 300, 550] {
            let s = s.min(g.num_vertices() as u32 - 1);
            dij.sssp(&g, s);
            let space = dij.space();
            for t in (0..g.num_vertices() as VertexId).step_by(29) {
                assert_eq!(hl.distance(s, t), space.distance(t).unwrap(), "({s},{t})");
            }
        }
    }

    #[test]
    fn self_distance_zero_and_symmetry() {
        let (_, hl) = build_pair(300, 12);
        assert_eq!(hl.distance(17, 17), 0);
        assert_eq!(hl.distance(3, 200), hl.distance(200, 3));
    }

    #[test]
    fn every_label_contains_self_with_zero() {
        let (_, hl) = build_pair(200, 9);
        for v in 0..hl.num_vertices() as VertexId {
            let (hs, ds) = hl.label(v);
            let pos = hs.binary_search(&v).expect("label must contain self hub");
            assert_eq!(ds[pos], 0);
        }
    }

    #[test]
    fn labels_are_sorted_by_hub() {
        let (_, hl) = build_pair(200, 9);
        for v in 0..hl.num_vertices() as VertexId {
            let (hs, _) = hl.label(v);
            assert!(hs.windows(2).all(|w| w[0] < w[1]), "label of {v} unsorted");
        }
    }

    #[test]
    fn disconnected_pairs_are_infinite() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 2);
        b.add_edge(2, 3, 2);
        let g = b.build();
        let ch = ContractionHierarchy::build(&g, &ChConfig::default());
        let hl = HubLabels::build(&ch);
        assert_eq!(hl.distance(0, 3), INFINITY);
        assert_eq!(hl.distance(0, 1), 2);
    }

    #[test]
    fn labels_are_much_smaller_than_n() {
        let (g, hl) = build_pair(2000, 77);
        // Pruning must keep labels sublinear; generous cap for CI noise.
        assert!(
            hl.avg_label_len() < (g.num_vertices() as f64).sqrt() * 3.0,
            "avg label length {} too large",
            hl.avg_label_len()
        );
    }

    #[test]
    fn backward_labels_invert_forward_labels() {
        let (_, hl) = build_pair(300, 4);
        let bw = hl.invert();
        // Every forward entry appears in the inverse, with the same distance.
        for v in 0..hl.num_vertices() as VertexId {
            let (hs, ds) = hl.label(v);
            for (&h, &d) in hs.iter().zip(ds) {
                let (vs, bds) = bw.of(h);
                let found = vs.iter().zip(bds).any(|(&bv, &bd)| bv == v && bd == d);
                assert!(found, "missing inverse entry ({v}, {h}, {d})");
            }
        }
    }

    #[test]
    fn backward_labels_sorted_by_distance() {
        let (_, hl) = build_pair(300, 4);
        let bw = hl.invert();
        for h in 0..hl.num_vertices() as VertexId {
            let (_, ds) = bw.of(h);
            assert!(ds.windows(2).all(|w| w[0] <= w[1]));
        }
    }
}
