//! The Heap Generator (§3 module 3, §5): on-demand inverted heaps.
//!
//! An [`InvertedHeap`] for keyword `t` maintains **Property 1**: at any
//! time, every object containing `t` not yet extracted has network distance
//! from `q` at least the lower bound of the current top. That lets query
//! processors consume candidates in lower-bound order while the heap is
//! populated *lazily*:
//!
//! * **Initialization** — Observation 2b / Theorem 1: seed with the ρ
//!   quadtree candidates (one of which is the 1NN of `q`) plus their
//!   lazily inserted neighbours; Zipf-tail keywords seed with their whole
//!   (≤ ρ) list.
//! * **`LazyReheap`** (Algorithm 4) — after each extraction, insert the
//!   extracted object's NVD-adjacent objects that were never inserted.
//!
//! Deleted objects (§6.2) are never *returned*, but their adjacencies are
//! still expanded, so the frontier keeps growing past them.

use kspin_graph::dheap::{DaryHeap, HeapCounters};
use kspin_graph::{Graph, VertexId, Weight};
use kspin_text::{Corpus, ObjectId, TermId};

use crate::index::{KeywordIndex, KspinIndex};
use crate::modules::LowerBound;

/// Everything a heap needs to compute lower bounds for one query.
pub struct HeapContext<'a> {
    /// The road network.
    pub graph: &'a Graph,
    /// The object corpus.
    pub corpus: &'a Corpus,
    /// The pluggable lower-bounding oracle (§3's first module).
    pub lower_bound: &'a dyn LowerBound,
    /// The query vertex.
    pub q: VertexId,
}

impl<'a> HeapContext<'a> {
    /// Creates a context for query vertex `q`.
    pub fn new(
        graph: &'a Graph,
        corpus: &'a Corpus,
        lower_bound: &'a dyn LowerBound,
        q: VertexId,
    ) -> Self {
        HeapContext {
            graph,
            corpus,
            lower_bound,
            q,
        }
    }
}

/// An extracted candidate: corpus object plus the lower bound it carried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// The extracted object.
    pub object: ObjectId,
    /// The MINKEY it was extracted under (Property 1's bound).
    pub lower_bound: Weight,
}

/// An on-demand inverted heap for one query keyword.
///
/// `None` is returned from constructors when the keyword has no live
/// objects at all (query processors treat such heaps as exhausted).
pub struct InvertedHeap<'a> {
    entry: &'a KeywordIndex,
    /// The indexed d-ary kernel. Its epoch stamps double as the "already
    /// inserted" side table (Algorithm 4 line 3): `was_inserted` covers
    /// both buffered and extracted locals, so LazyReheap inserts each
    /// object at most once without a separate `Vec<bool>`.
    heap: DaryHeap,
    /// Lower-bound computations performed (for the §5.1 cost accounting).
    lb_computed: usize,
    /// Successful [`InvertedHeap::extract`] calls — the κ of §5.1, counted
    /// structurally here (once per extraction, never per candidate touched)
    /// so no query-loop call site can drift the accounting.
    extractions: usize,
    /// Key of the last extraction, for the Property-1 audit (debug builds
    /// and the `audit` feature only).
    #[cfg(any(debug_assertions, feature = "audit"))]
    last_extracted_lb: Option<Weight>,
}

impl<'a> InvertedHeap<'a> {
    /// Creates the heap for keyword `t` of `index`, or `None` if the
    /// keyword indexes no objects.
    pub fn create(index: &'a KspinIndex, t: TermId, ctx: &HeapContext<'_>) -> Option<Self> {
        Self::seed(index, t, ctx).ok()
    }

    /// [`InvertedHeap::create`] for the query loops: a keyword without a
    /// live object yields `Err` carrying the lower bounds spent finding
    /// that out (seeds that were all §6.2-deleted, and their expansions),
    /// so the §5.1 accounting survives the discarded heap.
    pub(crate) fn seed(
        index: &'a KspinIndex,
        t: TermId,
        ctx: &HeapContext<'_>,
    ) -> Result<Self, usize> {
        let entry = index.entry(t).ok_or(0usize)?;
        let mut lb_computed = 0;
        let mut heap = DaryHeap::new(entry.rows.len());
        // An insert linked to two seeding generators arrives twice, hence
        // `was_inserted`.
        let offer = |local: u32| {
            if !heap.was_inserted(local) {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "seeds are local ids < the table's length"
                )]
                let v = entry.rows[local as usize].vertex;
                lb_computed += 1;
                heap.push(ctx.lower_bound.lower_bound(ctx.q, v), local);
            }
        };
        match &entry.nvd {
            // Observation 1: the whole inverted list fits; seeding it
            // entirely trivially satisfies Property 1.
            None => (0..entry.rows.len() as u32).for_each(offer),
            // Theorem 1: seeding with the quadtree leaf's candidates (which
            // contain the 1NN of q) plus the lazy inserts adjacent to them
            // satisfies Property 1.
            Some(n) => n
                .apx
                .init_candidates(ctx.graph.coord(ctx.q))
                .for_each(offer),
        }
        let mut h = InvertedHeap {
            entry,
            heap,
            lb_computed,
            extractions: 0,
            #[cfg(any(debug_assertions, feature = "audit"))]
            last_extracted_lb: None,
        };
        h.skip_deleted(ctx);
        if h.heap.is_empty() {
            return Err(h.lb_computed);
        }
        Ok(h)
    }

    /// `MINKEY(H)` — the lower bound of the current top (a live object).
    /// `None` once exhausted.
    pub fn min_key(&self) -> Option<Weight> {
        self.heap.peek().map(|(d, _)| d)
    }

    /// Extracts the top candidate and runs `LazyReheap` so Property 1 keeps
    /// holding for the remainder.
    #[expect(
        clippy::indexing_slicing,
        reason = "heap items are local ids < the table's length"
    )]
    pub fn extract(&mut self, ctx: &HeapContext<'_>) -> Option<Candidate> {
        let (lb, local) = self.heap.pop()?;
        self.extractions += 1;
        #[cfg(any(debug_assertions, feature = "audit"))]
        self.audit_extraction_order(lb, ctx);
        self.reheap(local, ctx);
        self.skip_deleted(ctx);
        Some(Candidate {
            object: self.entry.rows[local as usize].object,
            lower_bound: lb,
        })
    }

    /// The Property-1 audit: with an **exact** lower bound, every key the
    /// heap hands out must be ≥ the previous one. Property 1 promises that
    /// all not-yet-extracted objects (inserted or not) lie at true distance
    /// ≥ MINKEY; an exact bound makes each later key equal that true
    /// distance, so a decrease can only mean lazy seeding or `LazyReheap`
    /// skipped a reachable object (e.g. a missing adjacency edge). Merely
    /// admissible bounds may legally produce decreasing keys, so the audit
    /// disarms for them ([`LowerBound::is_exact`]).
    #[cfg(any(debug_assertions, feature = "audit"))]
    fn audit_extraction_order(&mut self, lb: Weight, ctx: &HeapContext<'_>) {
        if !ctx.lower_bound.is_exact() {
            return;
        }
        if let Some(prev) = self.last_extracted_lb {
            assert!(
                lb >= prev,
                "Property 1 violated: extracted key {lb} after {prev} — \
                 an unseen object was closer than a previous MINKEY"
            );
        }
        self.last_extracted_lb = Some(lb);
    }

    /// Algorithm 4: push never-inserted neighbors of `local` in the NVD
    /// adjacency graph. Keywords without an NVD were fully seeded, so
    /// there is nothing to do for them.
    fn reheap(&mut self, local: u32, ctx: &HeapContext<'_>) {
        let Some(n) = &self.entry.nvd else {
            return;
        };
        for &a in n.apx.adjacent(local) {
            if !self.heap.was_inserted(a) {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "adjacency ids are local ids < the table's length"
                )]
                let v = self.entry.rows[a as usize].vertex;
                self.lb_computed += 1;
                self.heap.push(ctx.lower_bound.lower_bound(ctx.q, v), a);
            }
        }
    }

    /// Pops (and expands) deleted objects until the top is live. Keeps
    /// `min_key` meaningful and guarantees `extract` returns live objects.
    fn skip_deleted(&mut self, ctx: &HeapContext<'_>) {
        while let Some((_, local)) = self.heap.peek() {
            if self.is_live(local) {
                break;
            }
            self.heap.pop();
            self.reheap(local, ctx);
        }
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "heap items are local ids < the table's length"
    )]
    fn is_live(&self, local: u32) -> bool {
        !self.entry.rows[local as usize].deleted
    }

    /// Lower-bound computations this heap performed so far.
    pub fn lb_computed(&self) -> usize {
        self.lb_computed
    }

    /// Candidates extracted from this heap so far (the κ of §5.1) —
    /// incremented exactly once per successful [`InvertedHeap::extract`].
    pub fn extractions(&self) -> usize {
        self.extractions
    }

    /// Current number of buffered (not yet extracted) entries — small by
    /// design ("the heap only contains a small number of objects due to
    /// being lazily populated", §4.2 implementation notes).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no live candidates remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Heap-kernel counters of this heap (pushes/pops/decrease-keys).
    pub fn heap_counters(&self) -> HeapCounters {
        self.heap.counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::KspinConfig;
    use crate::modules::DijkstraDistance;
    use crate::modules::NetworkDistance;
    use kspin_alt::{AltIndex, LandmarkStrategy};
    use kspin_graph::generate::{road_network, RoadNetworkConfig};
    use kspin_graph::Dijkstra;
    use kspin_text::generate::{corpus as gen_corpus, CorpusConfig};

    struct Fixture {
        graph: Graph,
        corpus: Corpus,
        alt: AltIndex,
        index: KspinIndex,
    }

    fn fixture(n: usize, seed: u64) -> Fixture {
        let graph = road_network(&RoadNetworkConfig::new(n, seed));
        let mut cc = CorpusConfig::new(graph.num_vertices(), seed ^ 1);
        cc.object_fraction = 0.08;
        let (corpus, _) = gen_corpus(&cc);
        let alt = AltIndex::build(&graph, 8, LandmarkStrategy::Farthest, seed);
        let index = KspinIndex::build(
            &graph,
            &corpus,
            &KspinConfig {
                rho: 4,
                num_threads: 2,
            },
        );
        Fixture {
            graph,
            corpus,
            alt,
            index,
        }
    }

    /// A frequent term (NVD-backed) and a rare term (a list) of the corpus.
    fn pick_terms(f: &Fixture) -> (TermId, TermId) {
        let mut frequent = None;
        let mut rare = None;
        for t in 0..f.corpus.num_terms() as TermId {
            let l = f.corpus.inv_len(t);
            if l > 8 && frequent.is_none() {
                frequent = Some(t);
            }
            if (1..=3).contains(&l) && rare.is_none() {
                rare = Some(t);
            }
        }
        (
            frequent.expect("no frequent term"),
            rare.expect("no rare term"),
        )
    }

    #[test]
    fn property1_holds_throughout_drain() {
        // Drain an NVD-backed heap completely; every extraction's lower
        // bound must under-approximate the true distance of all *later*
        // extractions (Property 1 restated over the extraction sequence).
        let f = fixture(900, 101);
        let (t, _) = pick_terms(&f);
        let ctx = HeapContext::new(&f.graph, &f.corpus, &f.alt, 17);
        let mut heap = InvertedHeap::create(&f.index, t, &ctx).unwrap();
        let mut dij = Dijkstra::new(f.graph.num_vertices());
        let mut extracted = Vec::new();
        while let Some(c) = heap.extract(&ctx) {
            extracted.push(c);
        }
        assert_eq!(
            extracted.len(),
            f.corpus.inv_len(t),
            "heap must drain the whole inverted list"
        );
        let dists: Vec<Weight> = extracted
            .iter()
            .map(|c| dij.one_to_one(&f.graph, 17, f.corpus.vertex_of(c.object)))
            .collect();
        for i in 0..extracted.len() {
            for (j, &dj) in dists.iter().enumerate().skip(i) {
                assert!(
                    extracted[i].lower_bound <= dj,
                    "LB of extraction {i} ({}) exceeds distance of later object {j} ({dj})",
                    extracted[i].lower_bound
                );
            }
        }
    }

    #[test]
    fn extraction_lower_bounds_are_non_decreasing_enough_for_1nn() {
        // The first extraction must identify an object whose distance is
        // minimal among the keyword's objects when its LB equals its
        // distance (1NN guarantee check in aggregate: the minimum true
        // distance over the inverted list equals the minimum over the first
        // extractions up to that distance).
        let f = fixture(900, 103);
        let (t, _) = pick_terms(&f);
        let q = 42;
        let ctx = HeapContext::new(&f.graph, &f.corpus, &f.alt, q);
        let mut heap = InvertedHeap::create(&f.index, t, &ctx).unwrap();
        let mut dij = Dijkstra::new(f.graph.num_vertices());
        // True 1NN distance over the inverted list.
        let best = f
            .corpus
            .inverted(t)
            .iter()
            .map(|p| dij.one_to_one(&f.graph, q, f.corpus.vertex_of(p.object)))
            .min()
            .unwrap();
        // Drain until we see an object at distance `best`; Property 1 says
        // no extraction before it may have LB above `best`.
        loop {
            let c = heap
                .extract(&ctx)
                .expect("1NN must be extracted eventually");
            assert!(c.lower_bound <= best);
            if dij.one_to_one(&f.graph, q, f.corpus.vertex_of(c.object)) == best {
                break;
            }
        }
    }

    #[test]
    fn small_keyword_heap_is_fully_seeded() {
        let f = fixture(600, 105);
        let (_, t) = pick_terms(&f);
        let ctx = HeapContext::new(&f.graph, &f.corpus, &f.alt, 3);
        let heap = InvertedHeap::create(&f.index, t, &ctx).unwrap();
        assert_eq!(heap.len(), f.corpus.inv_len(t));
    }

    #[test]
    fn nvd_heap_is_lazily_seeded() {
        let f = fixture(900, 101);
        let (t, _) = pick_terms(&f);
        let ctx = HeapContext::new(&f.graph, &f.corpus, &f.alt, 11);
        let heap = InvertedHeap::create(&f.index, t, &ctx).unwrap();
        assert!(
            heap.len() <= f.index.rho(),
            "NVD heap seeded {} > rho {}",
            heap.len(),
            f.index.rho()
        );
        assert!(heap.len() < f.corpus.inv_len(t));
    }

    #[test]
    fn unused_keyword_yields_no_heap() {
        let f = fixture(600, 105);
        // Find a term id with empty inverted list.
        let unused = (0..f.corpus.num_terms() as TermId)
            .find(|&t| f.corpus.inv_len(t) == 0)
            .expect("corpus has no unused term");
        let ctx = HeapContext::new(&f.graph, &f.corpus, &f.alt, 0);
        assert!(InvertedHeap::create(&f.index, unused, &ctx).is_none());
    }

    #[test]
    fn deleted_objects_are_skipped_but_expansion_continues() {
        let mut f = fixture(900, 107);
        let (t, _) = pick_terms(&f);
        // Delete the object nearest to q for keyword t.
        let q = 5;
        let mut dij = Dijkstra::new(f.graph.num_vertices());
        let nearest = f
            .corpus
            .inverted(t)
            .iter()
            .map(|p| p.object)
            .min_by_key(|&o| dij.one_to_one(&f.graph, q, f.corpus.vertex_of(o)))
            .unwrap();
        f.index.delete_object(&f.corpus, nearest);

        let ctx = HeapContext::new(&f.graph, &f.corpus, &f.alt, q);
        let mut heap = InvertedHeap::create(&f.index, t, &ctx).unwrap();
        let mut seen = Vec::new();
        while let Some(c) = heap.extract(&ctx) {
            assert_ne!(c.object, nearest, "deleted object escaped the heap");
            seen.push(c.object);
        }
        assert_eq!(seen.len(), f.corpus.inv_len(t) - 1);
    }

    #[test]
    fn lazily_inserted_object_is_discoverable() {
        let mut f = fixture(900, 109);
        let (t, _) = pick_terms(&f);
        // Simulate insertion: rebuild the index without one object of t,
        // then lazily insert it back.
        let victim = f.corpus.inverted(t)[0].object;
        let index = KspinIndex::build_filtered(
            &f.graph,
            &f.corpus,
            |o| o != victim,
            &KspinConfig {
                rho: 4,
                num_threads: 1,
            },
        );
        f.index = index;
        let mut dist = DijkstraDistance::new(&f.graph);
        f.index.insert_object(
            &f.graph,
            &f.corpus,
            victim,
            &mut dist as &mut dyn NetworkDistance,
        );

        let ctx = HeapContext::new(&f.graph, &f.corpus, &f.alt, 29);
        let mut heap = InvertedHeap::create(&f.index, t, &ctx).unwrap();
        let mut found = false;
        while let Some(c) = heap.extract(&ctx) {
            if c.object == victim {
                found = true;
            }
        }
        assert!(found, "lazily inserted object never extracted");
    }
}
