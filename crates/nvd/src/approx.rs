//! The ρ-Approximate Network Voronoi Diagram (§6.1).
//!
//! Definition 1: a structure returning, for **every** vertex `v`, up to ρ
//! candidate objects among which is the true 1NN of `v`. We build the exact
//! NVD once, color vertices by owner, then build a quadtree that subdivides
//! until every cell holds at most ρ distinct colors — stored as a *Morton
//! list*: leaves sorted by Z-order start code, located by binary search.
//! The exact NVD (and its `O(|V|)` owner table) is then discarded; only the
//! leaves, the adjacency graph and `MaxRadius` (for updates) are kept.
//!
//! The vertices' Morton codes, and their order, depend on the road network
//! alone, so every keyword's build reads them from the graph
//! ([`Graph::morton_order`], sorted once per graph) rather than computing
//! and sorting its own. The walk that gathers the owned vertices' codes
//! also records where the owner changes along them, and the quadtree
//! counts a cell's colors over those owner runs, one entry per run rather
//! than one per vertex: neighbouring codes mostly share an owner (on a
//! generated 30k network a frequent keyword's 30k owned vertices form
//! about 2,700 runs).

use kspin_graph::csr::row_slice;
use kspin_graph::morton::{MortonSpace, BITS};
use kspin_graph::{Graph, Point, VertexId, Weight};

use crate::adjacency::{AdjacencyGraph, SymmetryAudit};
use crate::exact::{ExactNvd, SweepScratch};

/// A built ρ-approximate NVD for one generator (object) set, with the §6.2
/// lazy-update overlay.
///
/// Object ids are the owning keyword's local ids: `0..num_original()` are
/// the build-time generators, ids beyond that lazily inserted objects
/// (see [`crate::update`]). Which object and vertex an id stands for, and
/// whether it is deleted, is the keyword's record, not the NVD's: the
/// overlay here is adjacency edges only.
#[derive(Debug, Clone)]
pub struct ApproxNvd {
    space: MortonSpace,
    /// Leaf start codes, ascending. Leaf `i` covers `[starts[i], starts[i+1])`.
    starts: Vec<u32>,
    cand_offsets: Vec<u32>,
    cands: Vec<u32>,
    /// Per-generator `MaxRadius`; its length is the generator count.
    max_radius: Vec<Weight>,
    pub(crate) adjacency: AdjacencyGraph,
}

/// Borrowed flat views of every array an [`ApproxNvd`] owns, as handed
/// out by [`ApproxNvd::snapshot_parts`] for serialization.
#[derive(Debug, Clone, Copy)]
pub struct ApproxNvdParts<'a> {
    /// The Morton space normalizing coordinates onto the quadtree grid.
    pub space: MortonSpace,
    /// Leaf start codes, ascending.
    pub starts: &'a [u32],
    /// Per-leaf candidate offsets (length `starts.len() + 1`).
    pub cand_offsets: &'a [u32],
    /// Pooled leaf candidate generator indices.
    pub cands: &'a [u32],
    /// Per-generator `MaxRadius` values.
    pub max_radius: &'a [Weight],
    /// The generator adjacency graph (originals + inserted overlay).
    pub adjacency: &'a AdjacencyGraph,
}

impl ApproxNvd {
    /// Builds the index: exact NVD sweep (on `scratch`'s bucket queue),
    /// then quadtree compression.
    pub fn build(
        graph: &Graph,
        generators: &[VertexId],
        rho: usize,
        scratch: &mut SweepScratch,
    ) -> Self {
        let exact = ExactNvd::build(graph, generators, scratch);
        Self::from_exact(graph, exact, rho)
    }

    /// Compresses an already-built exact NVD. The exact owner table is
    /// consumed and dropped.
    ///
    /// The color table — the Morton code of every owned vertex, in code
    /// order, and the runs of equal owners along it — is one walk over the
    /// graph's shared [`Graph::morton_order`]: this build computes no code
    /// and sorts nothing. Within one code the table follows vertex ids, not
    /// owners, and no leaf can tell: the quadtree splits by code alone and
    /// sorts each leaf's candidates.
    pub fn from_exact(graph: &Graph, exact: ExactNvd, rho: usize) -> Self {
        assert!(rho >= 1, "rho must be at least 1");
        let (space, order) = graph.morton_order();

        let mut codes: Vec<u32> = Vec::with_capacity(order.len());
        let mut runs: Vec<Run> = Vec::new();
        for &(code, v) in order {
            if let Some(owner) = exact.owner(v) {
                if runs.last().is_none_or(|r| r.owner != owner) {
                    runs.push(Run {
                        start: codes.len(),
                        owner,
                    });
                }
                codes.push(code);
            }
        }
        let (max_radius, adjacency) = exact.into_parts();

        let mut builder = LeafBuilder {
            rho,
            codes: &codes,
            starts: Vec::new(),
            cand_offsets: vec![0],
            cands: Vec::new(),
        };
        builder.subdivide(&runs, 0, codes.len(), 0, 0);

        ApproxNvd {
            space,
            starts: builder.starts,
            cand_offsets: builder.cand_offsets,
            cands: builder.cands,
            max_radius,
            adjacency,
        }
    }

    /// Number of build-time generators.
    pub fn num_original(&self) -> usize {
        self.max_radius.len()
    }

    /// Total objects including lazily inserted ones: the adjacency graph
    /// holds one node per object.
    pub fn num_total(&self) -> usize {
        self.adjacency.num_nodes()
    }

    /// Objects adjacent to `id` in the (update-extended) adjacency graph.
    #[inline]
    pub fn adjacent(&self, id: u32) -> &[u32] {
        self.adjacency.adjacent(id)
    }

    /// `MaxRadius` of original generator `p`.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "p is an original generator, and max_radius holds one entry per original \
                  generator (num_original)"
    )]
    pub fn max_radius(&self, p: u32) -> Weight {
        self.max_radius[p as usize]
    }

    /// The quadtree's point-location: candidate *original* generators for a
    /// query at `p` (at most ρ, except where the tree bottomed out at max
    /// depth). The true 1NN of any indexed vertex at `p` is among them.
    pub fn leaf_candidates(&self, p: Point) -> &[u32] {
        // leaf_index partition-points into starts: as long as the leaf
        // count and at least 1 — a build over ≥ 1 generator makes a leaf
        // and `validate` refuses a decoded NVD without one.
        row_slice(&self.cand_offsets, &self.cands, self.leaf_index(p))
    }

    /// Index of the Morton-list leaf covering `p`.
    fn leaf_index(&self, p: Point) -> usize {
        let code = self.space.code(p);
        self.starts
            .partition_point(|&s| s <= code)
            .saturating_sub(1)
    }

    /// Heap-initialization candidates at `p`: the leaf's original
    /// generators, then every lazily inserted object adjacent to one of
    /// them (§6.2 — "the 1NN of q and all the objects stored in the node";
    /// an insert is stored in a node as an adjacency edge to its
    /// generator). An insert linked to two of the leaf's generators is
    /// yielded twice: callers push under `was_inserted`. Deleted objects
    /// are *included*: the Heap Generator must still expand their
    /// adjacency, it just never reports them.
    pub fn init_candidates(&self, p: Point) -> impl Iterator<Item = u32> + '_ {
        let leaf = self.leaf_candidates(p);
        let originals = self.num_original() as u32;
        // Until the first insert no adjacency list holds an inserted id.
        let hosts: &[u32] = if self.num_total() == self.num_original() {
            &[]
        } else {
            leaf
        };
        let inserted = hosts
            .iter()
            .flat_map(move |&c| self.adjacent(c).iter().copied())
            .filter(move |&a| a >= originals);
        leaf.iter().copied().chain(inserted)
    }

    /// Invariant audit over the whole structure (the NVD half of the
    /// debug-mode invariant auditor; `KspinIndex::validate` calls this per
    /// NVD-indexed keyword). Checks:
    ///
    /// * an adjacency node for every generator;
    /// * adjacency symmetry, range, and simplicity (Observation 2a — the
    ///   generator graph is undirected, so LazyReheap reaches every
    ///   neighbor from either side);
    /// * there is at least one quadtree leaf and every leaf holds at least
    ///   one *original* generator candidate, sorted and duplicate-free
    ///   (Definition 1: point location must always produce a non-empty
    ///   candidate set containing the 1NN).
    ///
    /// Returns every violation found, as human-readable strings.
    pub fn validate(&self) -> Result<(), Vec<String>> {
        self.validate_with(&mut SymmetryAudit::default())
    }

    /// [`Self::validate`], auditing the adjacency with `audit`'s scratch.
    fn validate_with(&self, audit: &mut SymmetryAudit) -> Result<(), Vec<String>> {
        let mut errs = Vec::new();
        let originals = self.num_original();
        let total = self.num_total();
        if total < originals {
            errs.push(format!(
                "adjacency covers {total} nodes for {originals} generators"
            ));
        }
        if let Err(adj_errs) = self.adjacency.validate_symmetric(audit) {
            errs.extend(adj_errs);
        }
        if self.starts.is_empty() || originals == 0 {
            errs.push(format!(
                "{} quadtree leaves over {originals} generators: point location needs one of each",
                self.starts.len()
            ));
        }
        if self.cand_offsets.len() != self.starts.len() + 1 {
            errs.push(format!(
                "{} leaf starts but {} candidate offsets",
                self.starts.len(),
                self.cand_offsets.len()
            ));
        } else {
            #[expect(
                clippy::indexing_slicing,
                reason = "leaf < starts.len(), cand_offsets holds starts.len() + 1 monotone \
                          fences ending at cands.len() (checked before the audit runs), and \
                          windows(2) yields two-element slices"
            )]
            for leaf in 0..self.starts.len() {
                if leaf > 0 && self.starts[leaf] <= self.starts[leaf - 1] {
                    errs.push(format!("leaf starts not strictly ascending at leaf {leaf}"));
                }
                let lo = self.cand_offsets[leaf] as usize;
                let hi = self.cand_offsets[leaf + 1] as usize;
                if lo >= hi {
                    errs.push(format!("leaf {leaf} has no candidates"));
                    continue;
                }
                let cands = &self.cands[lo..hi];
                if !cands.windows(2).all(|w| w[0] < w[1]) {
                    errs.push(format!(
                        "leaf {leaf} candidates not sorted/unique: {cands:?}"
                    ));
                }
                if let Some(&bad) = cands.iter().find(|&&c| c as usize >= originals) {
                    errs.push(format!(
                        "leaf {leaf} candidate {bad} is not an original generator (originals={originals})"
                    ));
                }
            }
        }
        if errs.is_empty() {
            Ok(())
        } else {
            Err(errs)
        }
    }

    /// Borrowed views of every array the index owns — the snapshot
    /// serialization boundary.
    pub fn snapshot_parts(&self) -> ApproxNvdParts<'_> {
        ApproxNvdParts {
            space: self.space,
            starts: &self.starts,
            cand_offsets: &self.cand_offsets,
            cands: &self.cands,
            max_radius: &self.max_radius,
            adjacency: &self.adjacency,
        }
    }

    /// Reassembles an index from decoded snapshot arrays, verbatim (no
    /// rebuild, so serving is bit-identical), then runs the full
    /// structural audit of [`ApproxNvd::validate`] before returning it.
    /// `audit` is the adjacency audit's scratch, shared by a loader's NVDs.
    ///
    /// # Errors
    /// A description of every violated invariant, joined with `"; "`.
    pub fn from_snapshot_parts(
        space: MortonSpace,
        starts: Vec<u32>,
        cand_offsets: Vec<u32>,
        cands: Vec<u32>,
        max_radius: Vec<Weight>,
        adjacency: AdjacencyGraph,
        audit: &mut SymmetryAudit,
    ) -> Result<Self, String> {
        // validate() slices cands through cand_offsets, so bound those
        // first — the audit must not be able to panic on decoded input.
        if u32::try_from(cands.len()).is_err() {
            return Err(format!("candidate count {} exceeds u32", cands.len()));
        }
        if cand_offsets.first() != Some(&0) || cand_offsets.last() != Some(&(cands.len() as u32)) {
            return Err("cand_offsets must start at 0 and end at the candidate count".into());
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "windows(2) yields two-element slices"
        )]
        if cand_offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("cand_offsets must be monotone non-decreasing".into());
        }
        let nvd = ApproxNvd {
            space,
            starts,
            cand_offsets,
            cands,
            max_radius,
            adjacency,
        };
        nvd.validate_with(audit).map_err(|v| v.join("; "))?;
        Ok(nvd)
    }

    /// Index size in bytes: Morton list + candidate lists + adjacency +
    /// MaxRadius. Compare with [`ExactNvd::size_bytes`].
    pub fn size_bytes(&self) -> usize {
        (self.starts.len() + self.cand_offsets.len() + self.cands.len() + self.max_radius.len()) * 4
            + self.adjacency.size_bytes()
    }
}

/// A maximal stretch of the color table with one owner, from index
/// `start` to the next run's start.
#[derive(Debug, Clone, Copy)]
struct Run {
    start: usize,
    owner: u32,
}

struct LeafBuilder<'a> {
    rho: usize,
    /// The color table's codes, ascending.
    codes: &'a [u32],
    starts: Vec<u32>,
    cand_offsets: Vec<u32>,
    cands: Vec<u32>,
}

impl LeafBuilder<'_> {
    /// Recursively subdivides the cell holding table entries `lo..hi` (all
    /// sharing the `2·depth`-bit prefix of `prefix_start`), whose owners
    /// are those of `runs`: the runs that overlap `lo..hi`.
    #[expect(
        clippy::indexing_slicing,
        reason = "build time: lo..hi lies within codes, and first..last within runs \
                  (both partition points of runs)"
    )]
    fn subdivide(&mut self, runs: &[Run], lo: usize, hi: usize, depth: u32, prefix_start: u32) {
        if lo == hi {
            return;
        }
        let colors = distinct_colors(runs, self.rho);
        if colors.len() <= self.rho || depth >= BITS {
            self.starts.push(prefix_start);
            // At max depth the cell may exceed ρ colors (co-located
            // vertices); store them all — Definition 1's "up to ρ" becomes
            // "up to the co-location bound", still containing the 1NN.
            let all = if colors.len() <= self.rho {
                colors
            } else {
                distinct_colors(runs, usize::MAX)
            };
            self.cands.extend(all);
            self.cand_offsets.push(self.cands.len() as u32);
            return;
        }
        let shift = 32 - 2 * (depth + 1);
        let mut child_lo = lo;
        for child in 0..4u32 {
            let child_start = prefix_start | (child << shift);
            let child_end_excl = child_start.wrapping_add(1 << shift);
            let child_hi = if child == 3 {
                hi
            } else {
                child_lo + self.codes[child_lo..hi].partition_point(|&c| c < child_end_excl)
            };
            // The run holding `child_lo`, through the last one starting
            // before `child_hi`.
            let first = runs
                .partition_point(|r| r.start <= child_lo)
                .saturating_sub(1);
            let last = runs.partition_point(|r| r.start < child_hi);
            self.subdivide(
                &runs[first..last],
                child_lo,
                child_hi,
                depth + 1,
                child_start,
            );
            child_lo = child_hi;
        }
    }
}

/// Collects the distinct owners of `runs`, early-exiting once more than
/// `limit` are found (returns `limit + 1` entries in that case).
fn distinct_colors(runs: &[Run], limit: usize) -> Vec<u32> {
    let mut colors: Vec<u32> = Vec::with_capacity(limit.clamp(4, 16));
    for r in runs {
        if !colors.contains(&r.owner) {
            colors.push(r.owner);
            if colors.len() > limit {
                break;
            }
        }
    }
    colors.sort_unstable();
    colors
}

#[cfg(test)]
mod tests {
    use super::*;
    use kspin_graph::generate::{road_network, RoadNetworkConfig};
    use kspin_graph::{Dijkstra, GraphBuilder};

    fn setup(n: usize, gens: usize, rho: usize, seed: u64) -> (Graph, Vec<VertexId>, ApproxNvd) {
        let g = road_network(&RoadNetworkConfig::new(n, seed));
        let step = (g.num_vertices() / gens).max(1);
        let generators: Vec<VertexId> = (0..gens.min(g.num_vertices()))
            .map(|i| (i * step) as VertexId)
            .collect();
        let apx = ApproxNvd::build(&g, &generators, rho, &mut SweepScratch::default());
        (g, generators, apx)
    }

    #[test]
    fn definition1_one_nn_is_among_candidates() {
        let (g, gens, apx) = setup(800, 25, 4, 3);
        let mut dij = Dijkstra::new(g.num_vertices());
        for v in (0..g.num_vertices() as VertexId).step_by(7) {
            let dists = dij.one_to_many(&g, v, &gens);
            let best = *dists.iter().min().unwrap();
            let cands = apx.leaf_candidates(g.coord(v));
            let has_1nn = cands.iter().any(|&c| dists[c as usize] == best);
            assert!(has_1nn, "vertex {v}: 1NN missing from candidates {cands:?}");
        }
    }

    #[test]
    fn candidate_lists_respect_rho() {
        let (g, _, apx) = setup(800, 25, 4, 3);
        for v in (0..g.num_vertices() as VertexId).step_by(13) {
            let cands = apx.leaf_candidates(g.coord(v));
            assert!(cands.len() <= 4, "leaf has {} candidates", cands.len());
            assert!(!cands.is_empty());
        }
    }

    #[test]
    fn rho_one_equals_exact_owner() {
        let (g, gens, apx) = setup(500, 12, 1, 5);
        let exact = ExactNvd::build(&g, &gens, &mut SweepScratch::default());
        for v in (0..g.num_vertices() as VertexId).step_by(11) {
            let cands = apx.leaf_candidates(g.coord(v));
            if cands.len() == 1 {
                // A one-colour leaf is coloured by the exact owners, ties
                // included.
                assert_eq!(Some(cands[0]), exact.owner(v), "vertex {v}");
            }
        }
    }

    #[test]
    fn larger_rho_means_smaller_index() {
        let (_, gens, apx1) = setup(2000, 80, 1, 9);
        let (g5, _, apx5) = setup(2000, 80, 5, 9);
        assert_eq!(gens.len(), 80);
        assert!(
            apx5.size_bytes() < apx1.size_bytes(),
            "rho=5 ({}) not smaller than rho=1 ({})",
            apx5.size_bytes(),
            apx1.size_bytes()
        );
        assert!(apx5.starts.len() < apx1.starts.len());
        // Approximate index is far smaller than the exact NVD it came from.
        let exact = ExactNvd::build(
            &g5,
            &(0..80).map(|i| (i * 25) as u32).collect::<Vec<_>>(),
            &mut SweepScratch::default(),
        );
        assert!(apx5.size_bytes() < exact.size_bytes());
    }

    #[test]
    fn every_leaf_candidate_is_a_real_generator() {
        let (g, gens, apx) = setup(600, 20, 3, 7);
        for v in (0..g.num_vertices() as VertexId).step_by(5) {
            for &c in apx.leaf_candidates(g.coord(v)) {
                assert!((c as usize) < gens.len());
            }
        }
    }

    #[test]
    fn single_generator_single_leaf() {
        let (g, _, apx) = setup(300, 1, 5, 2);
        assert_eq!(apx.starts.len(), 1);
        assert_eq!(apx.leaf_candidates(g.coord(42)), &[0]);
    }

    #[test]
    fn leaf_index_is_consistent_with_point_location() {
        let (g, _, apx) = setup(400, 10, 3, 4);
        for v in (0..g.num_vertices() as VertexId).step_by(17) {
            assert!(apx.leaf_index(g.coord(v)) < apx.starts.len());
        }
    }

    #[test]
    fn init_candidates_match_leaf_before_updates() {
        let (g, _, apx) = setup(400, 10, 3, 4);
        for v in (0..g.num_vertices() as VertexId).step_by(17) {
            let a: Vec<u32> = apx.init_candidates(g.coord(v)).collect();
            assert_eq!(a, apx.leaf_candidates(g.coord(v)));
        }
    }

    /// A `side × side` grid with varied weights, vertex ids from `first`,
    /// placed by `place(x, y)`.
    fn add_grid(b: &mut GraphBuilder, first: u32, side: u32, place: impl Fn(u32, u32) -> Point) {
        for y in 0..side {
            for x in 0..side {
                let v = first + y * side + x;
                b.set_coord(v, place(x, y));
                if x + 1 < side {
                    b.add_edge(v, v + 1, 3 + (x * 7 + y) % 5);
                }
                if y + 1 < side {
                    b.add_edge(v, v + side, 2 + (x + y * 3) % 4);
                }
            }
        }
    }

    /// The NVD-build digest inputs: `(name, graph, generators, ρ)`.
    fn digest_inputs() -> Vec<(&'static str, Graph, Vec<VertexId>, usize)> {
        let every = |g: &Graph, step: usize| -> Vec<VertexId> {
            (0..g.num_vertices() as VertexId).step_by(step).collect()
        };
        // 2×2 blocks of a 12×12 grid share one point: equal Morton codes
        // under different owners.
        let blocks = {
            let mut b = GraphBuilder::new(144);
            add_grid(&mut b, 0, 12, |x, y| {
                Point::new((x / 2) as i32 * 100, (y / 2) as i32 * 100)
            });
            b.build()
        };
        // Every vertex at one point: one code, a max-depth leaf.
        let one_point = {
            let mut b = GraphBuilder::new(30);
            for v in 0..29 {
                b.add_edge(v, v + 1, 1 + v % 3);
            }
            b.build()
        };
        // A second grid and an isolated vertex that no generator reaches.
        let split = {
            let mut b = GraphBuilder::new(2 * 100 + 1);
            add_grid(&mut b, 0, 10, |x, y| {
                Point::new(x as i32 * 50, y as i32 * 50)
            });
            add_grid(&mut b, 100, 10, |x, y| {
                Point::new(700 + x as i32 * 50, 300 + y as i32 * 50)
            });
            b.set_coord(200, Point::new(260, 240));
            b.build()
        };
        let split_gens: Vec<VertexId> = (0..100).step_by(9).collect();
        let road = |n, seed| road_network(&RoadNetworkConfig::new(n, seed));
        let (r1, r2, r3) = (road(900, 31), road(1500, 8), road(600, 5));
        let (g1, g2, g3) = (every(&r1, 13), every(&r2, 21), vec![123]);
        vec![
            (
                "co-located 2x2 blocks, rho 2",
                blocks.clone(),
                every(&blocks, 5),
                2,
            ),
            (
                "co-located 2x2 blocks, rho 1",
                blocks.clone(),
                every(&blocks, 3),
                1,
            ),
            (
                "one point, rho 2",
                one_point.clone(),
                every(&one_point, 4),
                2,
            ),
            ("disconnected, rho 3", split, split_gens, 3),
            ("single generator, rho 5", r3, g3, 5),
            ("road 900/31, rho 1", r1.clone(), g1.clone(), 1),
            ("road 900/31, rho 5", r1, g1, 5),
            ("road 1500/8, rho 4", r2, g2, 4),
        ]
    }

    /// FNV-1a over the little-endian bytes of `words`, continuing from `h`.
    fn fnv(h: u64, words: &[u32]) -> u64 {
        words
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    }

    /// Digest of every [`ApproxNvd::snapshot_parts`] field. The digests
    /// were captured while the NVD still held its generators' vertices and
    /// a deletion flag each, in the field order below; a fresh build's are
    /// `gens` and all clear, so they are folded in where they stood.
    fn parts_digest(apx: &ApproxNvd, gens: &[VertexId]) -> u64 {
        let p = apx.snapshot_parts();
        let (min, scale_x, scale_y) = p.space.to_parts();
        let bits = |f: f64| [f.to_bits() as u32, (f.to_bits() >> 32) as u32];
        let (adj_offsets, adj_data) = p.adjacency.flat_parts();
        let deleted = vec![0u32; gens.len()];
        let space = [min.x as u32, min.y as u32];
        let fields: [&[u32]; 11] = [
            &space,
            &bits(scale_x),
            &bits(scale_y),
            p.starts,
            p.cand_offsets,
            p.cands,
            gens,
            p.max_radius,
            &adj_offsets,
            &adj_data,
            &deleted,
        ];
        // The inserted-vertex field that followed was unprefixed, and
        // empty after a build: it folded in nothing.
        fields.iter().fold(0xcbf2_9ce4_8422_2325, |h, f| {
            fnv(fnv(h, &[f.len() as u32]), f)
        })
    }

    #[test]
    fn build_output_matches_the_reference_digests() {
        // Captured at 48ed84b, while every build still computed, sorted and
        // partitioned its own Morton codes. The three inputs with equidistant
        // generators were re-captured when a tie went to the smallest
        // generator id rather than to the heap's pop order.
        const EXPECTED: [(&str, u64); 8] = [
            ("co-located 2x2 blocks, rho 2", 0x89873bc1a57118b2),
            ("co-located 2x2 blocks, rho 1", 0x614a55ade3f7b18f),
            ("one point, rho 2", 0xa6bc4935ea928e3c),
            ("disconnected, rho 3", 0xbb8efb87a6f34760),
            ("single generator, rho 5", 0x1aeaaa034b082ad5),
            ("road 900/31, rho 1", 0xe134a4782feea88a),
            ("road 900/31, rho 5", 0x74de0604090f2729),
            ("road 1500/8, rho 4", 0x3d57fe0eeee5a33b),
        ];
        let mut got = Vec::new();
        for (name, g, gens, rho) in digest_inputs() {
            let apx = ApproxNvd::build(&g, &gens, rho, &mut SweepScratch::default());
            if name.starts_with("co-located") || name.starts_with("one point") {
                // Owners that share a code: a max-depth leaf holds them all.
                let widest = apx.cand_offsets.windows(2).map(|w| w[1] - w[0]).max();
                assert!(widest > Some(rho as u32), "{name}: no co-located owners");
            }
            got.push((name, parts_digest(&apx, &gens)));
        }
        assert_eq!(got, EXPECTED);
    }
}
