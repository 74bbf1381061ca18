//! Exact NVD construction (Erwig–Hagen graph Voronoi [19]).
//!
//! One multi-source shortest-path sweep, started simultaneously from all
//! generators, labels every vertex `v` with the lexicographically least
//! `(distance, generator id)` pair over all generators:
//!
//! * [`ExactNvd::owner`] — the nearest generator, and among equidistant
//!   ones the smallest id (the Voronoi partition, canonical at ties),
//! * [`ExactNvd::dist_to_owner`] — its distance.
//!
//! `MaxRadius` per generator, needed by the Theorem-2 update rule (§6.2),
//! is one pass over the final labels. The generator [`AdjacencyGraph`]
//! links two cells for every road edge whose endpoints have different
//! owners. The sweep finds those edges on its way: it marks the smaller
//! endpoint of each, and the boundary pass reads the marked vertices' rows
//! only (about 2,500 of 30k on a generated network), not every arc.
//!
//! **The sweep is a bucket queue** (Dial's algorithm): a circular array of
//! `BUCKETS` = 4096 vertex lists, bucket `i` holding the labels in
//! `[i·2^s, (i+1)·2^s)`. The width `2^s` is the largest power of two no
//! heavier than the lightest arc, widened only while the largest relaxable
//! arc weight would span `BUCKETS − 1` buckets or more, so every queued
//! label sits within one turn of the array. Both weights are read from the
//! graph ([`Graph::arc_extremes`], found once per graph). When every arc is
//! at least one bucket wide — every generated road network, whose lightest
//! arc weighs about a hundred, sweeps in 64-wide buckets — a relaxation
//! always lands in a later bucket, so a vertex's label is final when its
//! bucket is reached and each vertex settles once, in `O(|V| + |E| +
//! D / 2^s)` for the largest label `D`. Buckets as wide as the lightest arc
//! rather than 1 wide skip the empty ones: at width 1 nearly every bucket
//! of a 30k network is empty. A graph whose weight span forces wider
//! buckets drains them label-correcting, in the same loop: a vertex whose
//! label improves is queued again, also when it lands in the bucket being
//! drained. Either way the sweep stops at the least fixpoint of "no arc
//! improves a label", which is unique, so any exact queue — this one, or
//! the indexed heap the tests keep as an oracle — writes the same owners,
//! distances, radii and adjacency rows, byte for byte.
//!
//! The tie rule is what makes the fixpoint unique in the owner too:
//! without it, a vertex equidistant from two generators went to whichever
//! wavefront the queue happened to expand first.

use kspin_graph::csr::row_slice;
use kspin_graph::dheap::HeapCounters;
use kspin_graph::{weight_add, Graph, VertexId, Weight, INFINITY};

use crate::adjacency::AdjacencyGraph;

/// Buckets in the sweep's circular queue (a power of two).
const BUCKETS: usize = 4096;

/// A vertex's label, `(distance << 32) | owner`: plain `u64` order is the
/// lexicographic order of `(distance, generator id)`, so one comparison
/// decides a relaxation, ties included.
const fn packed(dist: Weight, owner: u32) -> u64 {
    ((dist as u64) << 32) | owner as u64
}

/// The label of a vertex no generator reaches.
const UNREACHED: u64 = packed(INFINITY, u32::MAX);

fn dist_of(label: u64) -> Weight {
    (label >> 32) as Weight
}

fn owner_of(label: u64) -> u32 {
    label as u32
}

/// The sweep's bucket width `2^s`, as the shift `s`: the largest power of
/// two no heavier than the lightest arc, widened while the heaviest arc
/// below [`INFINITY`] would span `BUCKETS − 1` buckets or more, so that
/// every queued label sits within one turn of the array.
///
/// At a width no heavier than every arc, a relaxation always lands in a
/// later bucket than the one being drained, so a vertex's label is final
/// when its bucket is reached and the sweep is label-setting. Only a graph
/// whose weight span forces a wider bucket drains label-correcting.
fn bucket_shift(graph: &Graph) -> u32 {
    let (lightest, heaviest) = graph.arc_extremes();
    let mut shift = lightest.max(1).ilog2();
    while (heaviest >> shift) as usize > BUCKETS - 2 {
        shift += 1;
    }
    shift
}

/// The reusable memory of the construction sweep: the bucket queue's
/// vertex lists and the boundary marks.
///
/// A scratch holds no state from one build to the next but the marks of
/// the last sweep, which that build reads; otherwise it only keeps the
/// capacity, so a caller that builds many NVDs allocates the queue once
/// (each index-build worker owns one, and the index keeps one for its
/// rebuilds).
#[derive(Debug, Default)]
pub struct SweepScratch {
    buckets: Vec<Vec<VertexId>>,
    /// One bit per vertex: set for the smaller endpoint of every arc the
    /// sweep scanned without improving a label across two owners.
    marks: Vec<u64>,
}

impl SweepScratch {
    /// Runs the sweep from `labels` seeded at the generators (distance 0,
    /// owner the generator id; every other vertex [`UNREACHED`]) to the
    /// least fixpoint, in buckets of [`bucket_shift`]'s width.
    ///
    /// A vertex is queued in the bucket of each label it takes, unless its
    /// previous label already queued it in that bucket and the bucket is
    /// not the one being drained. An entry whose vertex has since moved to
    /// an earlier bucket is stale and skipped. When the buckets are no
    /// wider than the lightest arc, a vertex's label is final when its
    /// bucket is drained, so each vertex settles once.
    ///
    /// An arc `v → u` that improves nothing while `u` belongs to another
    /// owner marks `min(u, v)`. Every labelled vertex is scanned once more
    /// after its label became final, and of an edge's two endpoints the
    /// later to become final then scans the other's final label: so the
    /// smaller endpoint of every edge between two cells is marked, in
    /// either drain mode and across arcs of `INFINITY` weight too.
    ///
    /// Returns the queue's counters: `pushes` counts every list entry,
    /// `pops` every entry taken out (stale ones included), `decrease_keys`
    /// every improvement of a label that was already finite.
    #[expect(
        clippy::indexing_slicing,
        clippy::integer_division_remainder_used,
        reason = "build time: labels holds a label per vertex and marks a bit per label, \
                  vertex ids come from the graph, and a bucket index is masked below \
                  BUCKETS; the divisions are by the constant 64"
    )]
    fn sweep(
        &mut self,
        graph: &Graph,
        generators: &[VertexId],
        labels: &mut [u64],
    ) -> HeapCounters {
        let shift = bucket_shift(graph);
        self.buckets.resize_with(BUCKETS, Vec::new);
        self.buckets.iter_mut().for_each(Vec::clear);
        self.marks.clear();
        self.marks.resize(labels.len().div_ceil(64), 0);

        let mut counters = HeapCounters::default();
        self.buckets[0].extend_from_slice(generators);
        let mut entries = generators.len();
        counters.pushes = entries as u64;

        let mut bucket: Weight = 0;
        while entries > 0 {
            let slot = bucket as usize & (BUCKETS - 1);
            while let Some(v) = self.buckets[slot].pop() {
                entries -= 1;
                counters.pops += 1;
                let own = labels[v as usize];
                let d = dist_of(own);
                if d >> shift != bucket {
                    continue; // moved to an earlier bucket since
                }
                for (u, w) in graph.neighbors(v) {
                    let nd = weight_add(d, w);
                    let old = labels[u as usize];
                    let new = packed(nd, owner_of(own));
                    if nd >= INFINITY || new >= old {
                        if owner_of(old) != owner_of(own) {
                            let a = u.min(v) as usize;
                            self.marks[a / 64] |= 1 << (a % 64);
                        }
                        continue;
                    }
                    labels[u as usize] = new;
                    let to = nd >> shift;
                    debug_assert!(((to - bucket) as usize) < BUCKETS);
                    if old != UNREACHED {
                        counters.decrease_keys += 1;
                        if dist_of(old) >> shift == to && to != bucket {
                            continue; // still queued in its bucket
                        }
                    }
                    self.buckets[to as usize & (BUCKETS - 1)].push(u);
                    counters.pushes += 1;
                    entries += 1;
                }
            }
            bucket += 1;
        }
        counters
    }

    /// The edges between two cells, as `(owner of u, owner of v)` in
    /// [`Graph::edges`] order (row `u` ascending, then its targets `v > u`
    /// in row order): the rows of the vertices the last sweep marked, in
    /// ascending order, and in each the targets above it with another
    /// owner. An edge with an unowned endpoint joins no cell.
    #[expect(
        clippy::indexing_slicing,
        reason = "build time: a marked bit and a row target are vertex ids, and labels holds \
                  a label per vertex"
    )]
    fn boundary(&self, graph: &Graph, labels: &[u64]) -> Vec<(u32, u32)> {
        let (offsets, targets, _, _) = graph.csr_parts();
        let mut boundary = Vec::new();
        for (word, &bits) in self.marks.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let u = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let ou = owner_of(labels[u]);
                if ou == u32::MAX {
                    continue;
                }
                for &v in row_slice(offsets, targets, u) {
                    let ov = owner_of(labels[v as usize]);
                    if u < v as usize && ov != ou && ov != u32::MAX {
                        boundary.push((ou, ov));
                    }
                }
            }
        }
        boundary
    }
}

/// An exact Network Voronoi Diagram over a set of generator vertices.
#[derive(Debug, Clone)]
pub struct ExactNvd {
    /// Per vertex, `packed(distance to owner, owner)`.
    labels: Vec<u64>,
    max_radius: Vec<Weight>,
    adjacency: AdjacencyGraph,
    build_counters: HeapCounters,
}

impl ExactNvd {
    /// Builds the NVD for `generators` (distinct vertices, at least one),
    /// sweeping with `scratch`'s bucket queue.
    ///
    /// # Panics
    /// If `generators` is empty or contains duplicates.
    #[expect(
        clippy::indexing_slicing,
        reason = "build time: generators are vertex ids and labels holds a label per vertex"
    )]
    pub fn build(graph: &Graph, generators: &[VertexId], scratch: &mut SweepScratch) -> Self {
        assert!(
            !generators.is_empty(),
            "an NVD needs at least one generator"
        );
        let m = generators.len();
        let mut labels = vec![UNREACHED; graph.num_vertices()];
        for (i, &g) in generators.iter().enumerate() {
            assert!(
                labels[g as usize] == UNREACHED,
                "duplicate generator vertex {g}"
            );
            labels[g as usize] = packed(0, i as u32);
        }
        let build_counters = scratch.sweep(graph, generators, &mut labels);

        let mut max_radius = vec![0 as Weight; m];
        for &l in &labels {
            if let Some(r) = max_radius.get_mut(owner_of(l) as usize) {
                *r = (*r).max(dist_of(l));
            }
        }

        // Cell adjacency: a road edge whose endpoints have different owners
        // connects the two cells. The edges come in `Graph::edges` order,
        // which fixes the order of every adjacency row.
        let boundary = scratch.boundary(graph, &labels);
        let adjacency = AdjacencyGraph::from_edges(m, &boundary);

        ExactNvd {
            labels,
            max_radius,
            adjacency,
            build_counters,
        }
    }

    /// Bucket-queue counters of the construction sweep, in the heap
    /// kernels' shape: `pushes` are list entries (re-queueings and moves
    /// included), `pops` are entries taken out (stale skips included),
    /// `decrease_keys` are improvements of an already finite label.
    pub fn build_counters(&self) -> HeapCounters {
        self.build_counters
    }

    /// The nearest generator (by id) of vertex `v`, the smallest id among
    /// equidistant ones; `None` if `v` is disconnected from all generators.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "v is a vertex of the graph the NVD was built on, with a label each"
    )]
    pub fn owner(&self, v: VertexId) -> Option<u32> {
        let o = owner_of(self.labels[v as usize]);
        (o != u32::MAX).then_some(o)
    }

    /// Distance from `v` to its owning generator.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "v is a vertex of the graph the NVD was built on, with a label each"
    )]
    pub fn dist_to_owner(&self, v: VertexId) -> Weight {
        dist_of(self.labels[v as usize])
    }

    /// `MaxRadius(p)` — the farthest distance from generator `p` to a vertex
    /// in its cell (Theorem 2).
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "p is a generator id, and max_radius holds one entry per generator"
    )]
    pub fn max_radius(&self, p: u32) -> Weight {
        self.max_radius[p as usize]
    }

    /// The generator adjacency graph.
    pub fn adjacency(&self) -> &AdjacencyGraph {
        &self.adjacency
    }

    /// Consumes the NVD, yielding the parts the approximate index keeps
    /// besides the owners: `MaxRadius` and the adjacency graph.
    pub fn into_parts(self) -> (Vec<Weight>, AdjacencyGraph) {
        (self.max_radius, self.adjacency)
    }

    /// Size of the full exact NVD in bytes — `O(|V|)`, dominated by the
    /// per-vertex labels (owner and distance). This is the §5
    /// "Limitations" cost that the ρ-approximate representation eliminates.
    pub fn size_bytes(&self) -> usize {
        self.labels.len() * 8 + self.max_radius.len() * 4 + self.adjacency.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kspin_graph::dheap::DaryHeap;
    use kspin_graph::generate::{road_network, RoadNetworkConfig};
    use kspin_graph::{Dijkstra, GraphBuilder, Point};

    fn network(n: usize, seed: u64) -> Graph {
        road_network(&RoadNetworkConfig::new(n, seed))
    }

    fn spread_generators(g: &Graph, count: usize) -> Vec<VertexId> {
        let step = (g.num_vertices() / count).max(1);
        (0..count).map(|i| (i * step) as VertexId).collect()
    }

    fn build(g: &Graph, gens: &[VertexId]) -> ExactNvd {
        ExactNvd::build(g, gens, &mut SweepScratch::default())
    }

    /// Labels by brute force: one full Dijkstra per generator, then per
    /// vertex the least `(distance, generator id)`; `(INFINITY, u32::MAX)`
    /// where no generator reaches.
    fn brute_force_labels(g: &Graph, gens: &[VertexId]) -> (Vec<u32>, Vec<Weight>) {
        let n = g.num_vertices();
        let mut best = vec![(INFINITY, u32::MAX); n];
        let mut dij = Dijkstra::new(n);
        for (i, &s) in gens.iter().enumerate() {
            dij.sssp(g, s);
            let space = dij.space();
            for (v, slot) in best.iter_mut().enumerate() {
                if let Some(d) = space.distance(v as VertexId) {
                    *slot = (*slot).min((d, i as u32));
                }
            }
        }
        best.into_iter().map(|(d, o)| (o, d)).unzip()
    }

    /// The sweep before the bucket queue: a multi-source Dijkstra on the
    /// indexed heap, with the same tie rule.
    fn heap_labels(g: &Graph, gens: &[VertexId]) -> (Vec<u32>, Vec<Weight>) {
        let n = g.num_vertices();
        let mut owner = vec![u32::MAX; n];
        let mut dist = vec![INFINITY; n];
        let mut heap = DaryHeap::new(n);
        for (i, &s) in gens.iter().enumerate() {
            owner[s as usize] = i as u32;
            dist[s as usize] = 0;
            heap.push(0, s);
        }
        while let Some((d, v)) = heap.pop() {
            let o = owner[v as usize];
            for (u, w) in g.neighbors(v) {
                let nd = weight_add(d, w);
                let du = dist[u as usize];
                if nd < du {
                    dist[u as usize] = nd;
                    owner[u as usize] = o;
                    heap.insert_or_decrease(nd, u);
                } else if nd == du && nd < INFINITY && o < owner[u as usize] {
                    owner[u as usize] = o;
                }
            }
        }
        (owner, dist)
    }

    /// Holds a build to the brute-force labels, vertex by vertex, and to
    /// the `MaxRadius` and adjacency rows those labels give.
    fn assert_exact(g: &Graph, gens: &[VertexId], nvd: &ExactNvd) {
        let (owner, dist) = brute_force_labels(g, gens);
        assert_eq!((owner.clone(), dist.clone()), heap_labels(g, gens));
        for v in 0..g.num_vertices() {
            let want = (owner[v] != u32::MAX).then_some(owner[v]);
            assert_eq!(nvd.owner(v as VertexId), want, "owner of {v}");
            assert_eq!(nvd.dist_to_owner(v as VertexId), dist[v], "dist of {v}");
        }
        let mut radius = vec![0 as Weight; gens.len()];
        for (&o, &d) in owner.iter().zip(&dist) {
            if o != u32::MAX {
                radius[o as usize] = radius[o as usize].max(d);
            }
        }
        let boundary: Vec<(u32, u32)> = g
            .edges()
            .map(|e| (owner[e.u as usize], owner[e.v as usize]))
            .filter(|&(a, b)| a != b && a != u32::MAX && b != u32::MAX)
            .collect();
        let adjacency = AdjacencyGraph::from_edges(gens.len(), &boundary);
        for p in 0..gens.len() as u32 {
            assert_eq!(nvd.max_radius(p), radius[p as usize], "MaxRadius({p})");
            assert_eq!(
                nvd.adjacency().adjacent(p),
                adjacency.adjacent(p),
                "row {p}"
            );
        }
        let c = nvd.build_counters();
        assert_eq!(c.pushes, c.pops, "every queued entry is taken out");
        assert_eq!(c.grows, 0);
    }

    /// A `side × side` grid whose edges all weigh `weight`.
    fn grid(side: u32, weight: impl Fn(u32, u32) -> Weight) -> Graph {
        let mut b = GraphBuilder::new((side * side) as usize);
        for y in 0..side {
            for x in 0..side {
                let v = y * side + x;
                b.set_coord(v, Point::new(x as i32 * 10, y as i32 * 10));
                if x + 1 < side {
                    b.add_edge(v, v + 1, weight(v, v + 1));
                }
                if y + 1 < side {
                    b.add_edge(v, v + side, weight(v, v + side));
                }
            }
        }
        b.build()
    }

    #[test]
    fn unit_grid_ties_go_to_the_smallest_generator() {
        // On a unit grid every vertex on a bisector is equidistant from two
        // generators, and generators listed against vertex order put the
        // smaller id on either side.
        let g = grid(60, |_, _| 1);
        for gens in [
            vec![3599, 0, 59, 3540],
            vec![1830, 1770, 29, 3570, 1799, 1741],
            vec![2, 0, 4, 6, 120, 122, 124],
        ] {
            let nvd = build(&g, &gens);
            assert_exact(&g, &gens, &nvd);
            // Vertex 1 of the last set is 1 from generators 0 (vertex 2)
            // and 1 (vertex 0): generator 0 wins although 1 is nearer in
            // vertex order.
            if gens[0] == 2 {
                assert_eq!(nvd.owner(1), Some(0));
            }
        }
    }

    /// A 24 × 24 grid whose arcs weigh 2^20 and more next to arcs of 1..7.
    fn heavy_grid() -> Graph {
        grid(24, |u, v| {
            if (u ^ v).is_multiple_of(7) {
                (1 << 20) + u % 5
            } else {
                1 + (u * 31 + v) % 7
            }
        })
    }

    #[test]
    fn buckets_are_as_wide_as_the_lightest_arc() {
        let width = |g: &Graph| 1u32 << bucket_shift(g);
        assert_eq!(width(&grid(10, |_, _| 1)), 1);
        // Generated arcs weigh about a hundred at least: 64-wide buckets.
        let road = network(3000, 14);
        assert_eq!(
            road.arc_extremes().0.ilog2(),
            6,
            "{:?}",
            road.arc_extremes()
        );
        assert_eq!(width(&road), 64);
        // A lightest arc of 1, but 2^20 + 4 must span fewer than 4095
        // buckets: the heaviest arc sets the width.
        assert_eq!(width(&heavy_grid()), 512);
        // An arc too heavy to relax widens nothing: the lightest, 10, sets
        // 8. Relaxable arcs of 2^30 make buckets of 2^30.
        assert_eq!(width(&ring(&[10, 10, 10, 10, 10, u32::MAX - 1])), 8);
        assert_eq!(width(&ring(&[INFINITY / 2 + 1; 8])), 1 << 30);
    }

    #[test]
    fn wide_buckets_stay_exact() {
        // The buckets are 512 wide while arcs weigh 1, so a bucket holds
        // many distances and drains label-correcting, re-queueing vertices
        // it has already settled.
        let g = heavy_grid();
        let n = g.num_vertices() as u32;
        for gens in [vec![0], vec![575, 0, 300, 17], (0..n).step_by(37).collect()] {
            let nvd = build(&g, &gens);
            assert_exact(&g, &gens, &nvd);
            let c = nvd.build_counters();
            assert!(c.pops > u64::from(n), "no vertex was re-queued: {c:?}");
        }
    }

    #[test]
    fn one_scratch_serves_graphs_of_any_size() {
        let mut scratch = SweepScratch::default();
        let small = grid(5, |_, _| 2);
        let large = network(900, 4);
        for (g, gens) in [
            (&large, spread_generators(&large, 30)),
            (&small, vec![24, 0]),
            (&large, spread_generators(&large, 7)),
        ] {
            let nvd = ExactNvd::build(g, &gens, &mut scratch);
            assert_exact(g, &gens, &nvd);
            assert_eq!(nvd.build_counters(), build(g, &gens).build_counters());
        }
    }

    #[test]
    fn owner_is_true_nearest_generator() {
        let g = network(400, 51);
        let gens = spread_generators(&g, 8);
        let nvd = build(&g, &gens);
        let mut dij = Dijkstra::new(g.num_vertices());
        for v in (0..g.num_vertices() as VertexId).step_by(17) {
            let dists = dij.one_to_many(&g, v, &gens);
            // The least (distance, id): `min_by_key` keeps the first of
            // equal keys.
            let (best, &best_d) = dists.iter().enumerate().min_by_key(|&(_, d)| *d).unwrap();
            assert_eq!(nvd.owner(v), Some(best as u32), "vertex {v}");
            assert_eq!(nvd.dist_to_owner(v), best_d);
        }
        assert_exact(&g, &gens, &nvd);
    }

    #[test]
    fn generators_own_themselves() {
        let g = network(200, 3);
        let gens = spread_generators(&g, 5);
        let nvd = build(&g, &gens);
        for (i, &gv) in gens.iter().enumerate() {
            assert_eq!(nvd.owner(gv), Some(i as u32));
            assert_eq!(nvd.dist_to_owner(gv), 0);
        }
    }

    #[test]
    fn max_radius_bounds_every_cell_member() {
        let g = network(300, 8);
        let gens = spread_generators(&g, 6);
        let nvd = build(&g, &gens);
        let mut observed = vec![0 as Weight; gens.len()];
        for v in 0..g.num_vertices() as VertexId {
            let o = nvd.owner(v).unwrap();
            assert!(nvd.dist_to_owner(v) <= nvd.max_radius(o));
            observed[o as usize] = observed[o as usize].max(nvd.dist_to_owner(v));
        }
        // And it is tight: some vertex attains it.
        for (p, &r) in observed.iter().enumerate() {
            assert_eq!(r, nvd.max_radius(p as u32));
        }
    }

    #[test]
    fn adjacency_comes_from_boundary_edges() {
        let g = network(300, 8);
        let gens = spread_generators(&g, 6);
        let nvd = build(&g, &gens);
        for e in g.edges() {
            let (a, b) = (nvd.owner(e.u).unwrap(), nvd.owner(e.v).unwrap());
            if a != b {
                assert!(
                    nvd.adjacency().adjacent(a).contains(&b),
                    "cells {a} and {b} share edge but not adjacency"
                );
            }
        }
    }

    #[test]
    fn single_generator_owns_everything() {
        let g = network(150, 2);
        let nvd = build(&g, &[7]);
        for v in 0..g.num_vertices() as VertexId {
            assert_eq!(nvd.owner(v), Some(0));
        }
        assert!(nvd.adjacency().adjacent(0).is_empty());
    }

    #[test]
    fn adjacency_degree_is_small_constant() {
        // Observation 2a: average degree of NVD adjacency graphs is a small
        // constant (~6 in [18]).
        let g = network(3000, 14);
        let gens = spread_generators(&g, 100);
        let nvd = build(&g, &gens);
        let adj = nvd.adjacency();
        let avg = (0..adj.num_nodes() as u32)
            .map(|a| adj.adjacent(a).len())
            .sum::<usize>() as f64
            / adj.num_nodes() as f64;
        assert!((2.0..10.0).contains(&avg), "avg adjacency degree {avg}");
    }

    #[test]
    fn disconnected_vertices_have_no_owner() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1);
        // vertex 2 isolated
        let g = b.build();
        let nvd = build(&g, &[0]);
        assert_eq!(nvd.owner(2), None);
        assert_eq!(nvd.owner(1), Some(0));
    }

    #[test]
    #[should_panic(expected = "duplicate generator")]
    fn duplicate_generators_rejected() {
        let g = network(50, 1);
        build(&g, &[3, 3]);
    }

    #[test]
    fn voronoi_property_on_kolahdouzan_shahabi_example() {
        // Property 2 sanity: the 2nd NN of any vertex is adjacent to its
        // 1NN in the NVD (verified exhaustively on a small network).
        let g = network(250, 33);
        let gens = spread_generators(&g, 10);
        let nvd = build(&g, &gens);
        let mut dij = Dijkstra::new(g.num_vertices());
        for v in (0..g.num_vertices() as VertexId).step_by(11) {
            let dists = dij.one_to_many(&g, v, &gens);
            let mut order: Vec<usize> = (0..gens.len()).collect();
            order.sort_by_key(|&i| dists[i]);
            let first = order[0] as u32;
            let second = order[1] as u32;
            if dists[order[0]] == dists[order[1]] {
                continue; // ties make "the" 2nd NN ambiguous
            }
            let adj = nvd.adjacency().adjacent(first);
            assert!(
                adj.contains(&second) || dists[order[1]] == dists[order[0]],
                "vertex {v}: 2nd NN {second} not adjacent to 1NN {first}"
            );
        }
    }

    /// A ring whose edge `v – v+1` weighs `weights[v]`.
    fn ring(weights: &[Weight]) -> Graph {
        let n = weights.len() as u32;
        let mut b = GraphBuilder::new(n as usize);
        for v in 0..n {
            b.add_edge(v, (v + 1) % n, weights[v as usize]);
        }
        b.build()
    }

    #[test]
    fn saturating_weights_keep_voronoi_owners_exact() {
        // `add_edge` rejects only weight 0, so both rings are legal input.
        // In the first, generator 4 reaches vertex 5 at 10 before generator
        // 1 reaches vertex 0 at 10, and relaxes 0 across the heavy edge: a
        // raw sum panics in debug builds and in release builds wraps to 8,
        // which wins and hands vertex 0 to the wrong cell. The heavy edge
        // is not relaxable, so the first ring sweeps in buckets as wide as
        // its lightest arc allows (8); the second's edges are relaxable,
        // and its buckets are 2^30 wide.
        let one_heavy = ring(&[10, 10, 10, 10, 10, u32::MAX - 1]);
        let all_heavy = ring(&[INFINITY / 2 + 1; 8]);
        for (g, gens) in [(one_heavy, vec![1, 4]), (all_heavy, vec![0, 1, 4])] {
            let nvd = build(&g, &gens);
            let mut dij = Dijkstra::new(g.num_vertices());
            // Distance from every generator to every vertex, by the oracle.
            let all: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();
            let from: Vec<Vec<Weight>> =
                gens.iter().map(|&s| dij.one_to_many(&g, s, &all)).collect();
            for v in 0..g.num_vertices() as VertexId {
                let (best, owner) = (0..gens.len())
                    .map(|i| (from[i][v as usize], i as u32))
                    .min()
                    .unwrap();
                if best >= INFINITY {
                    // Unreachable from every generator: no owner.
                    assert_eq!(nvd.owner(v), None, "v={v}");
                    continue;
                }
                assert_eq!(nvd.owner(v), Some(owner), "v={v}");
                assert_eq!(nvd.dist_to_owner(v), best, "v={v}");
            }
            assert_exact(&g, &gens, &nvd);
        }
    }
}
