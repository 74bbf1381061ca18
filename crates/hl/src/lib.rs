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
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]
// Panic sources: a site that may panic is fixed or carries
// `#[expect(<lint>, reason = "…")]`. Tests may index and panic (clippy.toml);
// the division lint has no such switch, so it is denied outside tests only.
#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![cfg_attr(not(test), deny(clippy::integer_division_remainder_used))]

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
    #[expect(
        clippy::indexing_slicing,
        reason = "build time: every per-vertex table is sized n and indexed by vertex or \
                  hub ids of the hierarchy, which are < n"
    )]
    pub fn build(ch: &ContractionHierarchy) -> Self {
        let n = ch.num_vertices();
        // Process vertices top-down (descending rank): when v is labeled,
        // the labels of all its upward neighbors are final.
        let mut by_rank: Vec<VertexId> = (0..n as VertexId).collect();
        by_rank.sort_unstable_by_key(|&v| std::cmp::Reverse(ch.rank(v)));

        // Temporary per-vertex labels, sorted by hub id.
        let mut labels: Vec<Vec<(VertexId, Weight)>> = vec![Vec::new(); n];
        // The min-merge of v's candidates, by hub: `merged[h]` is live iff
        // `stamp[h]` is v's epoch. Membership is the stamp, not a sentinel
        // distance — a saturated sum legally reaches INFINITY and beyond.
        let mut merged = vec![0 as Weight; n];
        let mut stamp = vec![0u32; n];
        let mut cands: Vec<VertexId> = Vec::new();
        // v's pruned-so-far label by hub, INFINITY elsewhere. Unambiguous:
        // a kept entry is below INFINITY (see the prune).
        let mut kept = vec![INFINITY; n];

        for (epoch, &v) in (1u32..).zip(&by_rank) {
            // Min-merge the labels of all upward neighbors, shifted by the
            // connecting edge weight.
            stamp[v as usize] = epoch;
            merged[v as usize] = 0;
            cands.clear();
            cands.push(v);
            for (u, w) in ch.upward(v) {
                for &(h, d) in &labels[u as usize] {
                    let d = weight_add(d, w);
                    let slot = h as usize;
                    if stamp[slot] != epoch {
                        stamp[slot] = epoch;
                        merged[slot] = d;
                        cands.push(h);
                    } else if d < merged[slot] {
                        merged[slot] = d;
                    }
                }
            }
            cands.sort_unstable();

            // Prune, in hub order, entries already certified by a hub kept
            // so far: drop (h, d) if the minimum of kept[g] + L(h)[g] over
            // the hubs g common to both is ≤ d. One scan of L(h) against the
            // table finds it — a hub not kept reads INFINITY, whose saturated
            // sum never undercuts a d below INFINITY — and only its prefix
            // below h can hit, since every hub kept so far is below h.
            // A d ≥ INFINITY is dropped outright, as that minimum starts at
            // INFINITY.
            let mut pruned: Vec<(VertexId, Weight)> = Vec::with_capacity(cands.len());
            for &h in &cands {
                let d = merged[h as usize];
                if h != v
                    && (d >= INFINITY
                        || labels[h as usize]
                            .iter()
                            .take_while(|&&(g, _)| g < h)
                            .any(|&(g, dg)| weight_add(kept[g as usize], dg) <= d))
                {
                    continue;
                }
                kept[h as usize] = d;
                pruned.push((h, d));
            }
            for &(h, _) in &pruned {
                kept[h as usize] = INFINITY;
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
    #[expect(
        clippy::indexing_slicing,
        reason = "build time: deg and cursor hold n + 1 fences over hub ids < n, and each \
                  label entry fills one of the hubs.len() arena slots"
    )]
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
    #[expect(
        clippy::indexing_slicing,
        reason = "h is a hub id < n and offsets holds n + 1 fences"
    )]
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

    /// A cycle `0 – 1 – … – n-1 – 0` of equal weights.
    pub(crate) fn ring(n: u32, w: Weight) -> kspin_graph::Graph {
        let mut b = GraphBuilder::new(n as usize);
        for v in 0..n {
            b.add_edge(v, (v + 1) % n, w);
        }
        b.build()
    }

    /// The graphs of the build-exactness digests: seeded road networks and
    /// the saturating rings and paths of this crate's query tests.
    fn digest_inputs() -> Vec<(&'static str, kspin_graph::Graph)> {
        let heavy_ring = {
            let mut b = GraphBuilder::new(6);
            for v in 0..6 {
                b.add_edge(v, (v + 1) % 6, if v == 5 { u32::MAX - 1 } else { 10 });
            }
            b.build()
        };
        let path = {
            let mut b = GraphBuilder::new(12);
            for v in 0..11 {
                b.add_edge(v, v + 1, INFINITY / 2 + 1);
            }
            b.build()
        };
        vec![
            (
                "road 800/23",
                road_network(&RoadNetworkConfig::new(800, 23)),
            ),
            (
                "road 2000/77",
                road_network(&RoadNetworkConfig::new(2000, 77)),
            ),
            (
                "road 3000/11",
                road_network(&RoadNetworkConfig::new(3000, 11)),
            ),
            ("ring 8 of INF/3+1", ring(8, INFINITY / 3 + 1)),
            ("ring 8 of INF/2+1", ring(8, INFINITY / 2 + 1)),
            ("ring 300 of INF/2+1", ring(300, INFINITY / 2 + 1)),
            ("path 12 of INF/2+1", path),
            ("ring 6, one edge u32::MAX-1", heavy_ring),
        ]
    }

    /// FNV-1a over the little-endian bytes of `words`, continuing from `h`.
    fn fnv(h: u64, words: &[u32]) -> u64 {
        words
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    }

    /// Digests of `ContractionHierarchy::flat_parts` and of every label.
    fn build_digests(g: &kspin_graph::Graph) -> (u64, u64) {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        let ch = ContractionHierarchy::build(g, &ChConfig::default());
        let (rank, offsets, targets, weights, shortcuts) = ch.flat_parts();
        let parts: [&[u32]; 5] = [rank, offsets, targets, weights, &[shortcuts as u32]];
        let ch_digest = parts.iter().fold(FNV_OFFSET, |h, p| fnv(h, p));
        let hl = HubLabels::build(&ch);
        let labels_digest = (0..hl.num_vertices() as VertexId).fold(FNV_OFFSET, |h, v| {
            let (hs, ds) = hl.label(v);
            fnv(fnv(fnv(h, &[hs.len() as u32]), hs), ds)
        });
        (ch_digest, labels_digest)
    }

    #[test]
    fn build_output_matches_the_reference_digests() {
        // Captured when the witness searches were raised to 200 settled
        // vertices / 8 hops, which finds witnesses for shortcuts the old
        // limits added and so contracts the road networks in another order
        // (the rings and the path build as before). The build may get
        // faster only if these stay; a change of order re-pins them.
        // Exactness is held by the all-pairs Dijkstra tests, not here.
        // The road networks' CH digests were re-captured when the shortcut
        // count became the upward arcs between non-neighbours (1,330 →
        // 1,327, 3,413 → 3,404, 5,141 → 5,128) instead of a tally of row
        // writes; the four arrays and every label hash as before.
        const EXPECTED: [(&str, u64, u64); 8] = [
            ("road 800/23", 0x588698973f214658, 0xc79e3b7d8efcc554),
            ("road 2000/77", 0xb9ed6b89cf61b37b, 0xd33d2c845f0ce8e8),
            ("road 3000/11", 0xa58e7cbd9858828e, 0xeccab7201a191964),
            ("ring 8 of INF/3+1", 0xa25c843e5d5dddd9, 0x6c9d51c8a08afe55),
            ("ring 8 of INF/2+1", 0xac9adf3b1c5abd4d, 0x3c0a9525f5a4bfd5),
            (
                "ring 300 of INF/2+1",
                0xbfdb32478e5c6196,
                0x6e3d9a156e576535,
            ),
            ("path 12 of INF/2+1", 0x12d1f451e69706fe, 0x1aaf97f3c384acd4),
            (
                "ring 6, one edge u32::MAX-1",
                0x98fe0b86f5697b43,
                0x467916d9ba2da1a0,
            ),
        ];
        let got: Vec<(&str, u64, u64)> = digest_inputs()
            .iter()
            .map(|(name, g)| {
                let (c, l) = build_digests(g);
                (*name, c, l)
            })
            .collect();
        assert_eq!(got, EXPECTED);
    }
}
