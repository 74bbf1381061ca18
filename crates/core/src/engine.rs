//! The Query Processor module (§3 module 4): ties the index and the
//! pluggable distance/lower-bound modules together and hosts the query
//! algorithms implemented in [`crate::query`].

use std::ops::AddAssign;

use kspin_graph::{Graph, HeapCounters, Weight};
use kspin_text::{Corpus, ObjectId, TermId};

use crate::heap::{HeapContext, InvertedHeap};
use crate::index::KspinIndex;
use crate::modules::{LowerBound, NetworkDistance};

/// Per-query/side-channel instrumentation.
///
/// `dist_computations` is the paper's headline cost driver ("this module is
/// the bottleneck", §3): the false-positive experiment (§7.4) compares
/// methods on exactly this axis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Calls into the Network Distance Module.
    pub dist_computations: usize,
    /// Candidates extracted from inverted heaps (the κ of §5.1).
    pub heap_extractions: usize,
    /// Lower-bound computations across all heaps.
    pub lb_computations: usize,
    /// Candidates discarded without a distance computation (keyword filter,
    /// duplicate, or lower-bound-score prune).
    pub pruned_candidates: usize,
    /// Heap-kernel entries pushed by the inverted heaps, plus those of the
    /// distance oracle's internal searches where the oracle reports them
    /// through [`NetworkDistance::heap_counters`]: the Dijkstra,
    /// bidirectional Dijkstra and ALT-A* oracles do; the CH, HL and G-tree
    /// adapters do not, so on KS-CH and KS-HL this counts the inverted
    /// heaps only.
    pub heap_pushes: usize,
    /// Heap-kernel entries popped, counted as `heap_pushes` is.
    pub heap_pops: usize,
    /// Heap-kernel pushes that forced the entry array to grow. Zero in the
    /// steady state (`DaryHeap::new` pre-sizes to the item count), as
    /// `tests/alloc_steady_state.rs` and `tests/serving_determinism.rs`
    /// assert.
    pub heap_grows: usize,
}

impl QueryStats {
    pub(crate) fn clear(&mut self) {
        *self = QueryStats::default();
    }

    /// Folds a finished inverted heap's accounting into these stats: the
    /// §5.1 lb/extraction counters and the heap-kernel traffic counters.
    pub(crate) fn absorb_heap(&mut self, heap: &crate::heap::InvertedHeap<'_>) {
        self.lb_computations += heap.lb_computed();
        self.heap_extractions += heap.extractions();
        self.absorb_counters(heap.heap_counters());
    }

    /// Adds raw kernel counters (inverted heaps and distance oracles).
    pub(crate) fn absorb_counters(&mut self, c: HeapCounters) {
        self.heap_pushes += c.pushes as usize;
        self.heap_pops += c.pops as usize;
        self.heap_grows += c.grows as usize;
    }
}

/// Cross-thread merge for the [`crate::serving::BatchExecutor`]: every
/// counter is an additive total, so worker stats sum into an aggregate.
impl AddAssign for QueryStats {
    fn add_assign(&mut self, rhs: QueryStats) {
        self.dist_computations += rhs.dist_computations;
        self.heap_extractions += rhs.heap_extractions;
        self.lb_computations += rhs.lb_computations;
        self.pruned_candidates += rhs.pruned_candidates;
        self.heap_pushes += rhs.heap_pushes;
        self.heap_pops += rhs.heap_pops;
        self.heap_grows += rhs.heap_grows;
    }
}

/// Reusable scratch buffers for the query hot loops: allocated once per
/// engine, cleared per query, and grown to high-water capacity — never
/// reallocated per iteration of the Algorithm 1/3 candidate loops.
///
/// Safe to move in and out with `std::mem::take` because the inverted
/// heaps borrow the index through the engine's `'a` references, not
/// through the engine itself.
#[derive(Debug, Default)]
pub(crate) struct QueryScratch {
    /// Per-heap MINKEY snapshot for Algorithm 3's selection scan.
    pub(crate) min_keys: Vec<Weight>,
    /// Candidate dedup set shared by the BkNN/top-k extraction loops.
    pub(crate) evaluated: SeenSet,
}

/// Epoch-stamped membership set over `ObjectId`, replacing the former
/// `HashSet<ObjectId>` dedup set: a `RandomState`-hashed set on the
/// extraction loop was a latent nondeterminism source (and a rehash-growth
/// alloc risk). Same trick as the `one_to_many` target slots in
/// `kspin-graph::dijkstra` — a slot is a member iff its stamp equals the
/// current epoch, so [`SeenSet::clear`] is O(1) and [`SeenSet::insert`] is
/// a branch-free array write with no hashing, no iteration order, and no
/// steady-state allocation.
#[derive(Debug, Default)]
pub(crate) struct SeenSet {
    /// `epoch_of[o]` = the epoch in which object `o` was last inserted.
    epoch_of: Vec<u32>,
    /// Current membership epoch; 0 means "no epoch started".
    epoch: u32,
}

impl SeenSet {
    /// A set covering objects `0..n`, sized once at engine construction
    /// (the warm-up phase — the query loops never resize it).
    pub(crate) fn new(n: usize) -> SeenSet {
        SeenSet {
            epoch_of: vec![0; n],
            epoch: 0,
        }
    }

    /// Empties the set by advancing the epoch — O(1), no deallocation.
    /// On the (practically unreachable) u32 wrap the stamps are rewritten
    /// wholesale so stale epochs can never alias.
    pub(crate) fn clear(&mut self) {
        if self.epoch == u32::MAX {
            self.epoch_of.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    /// Inserts `o`, returning whether it was newly inserted — the
    /// `HashSet::insert` contract the query loops rely on.
    pub(crate) fn insert(&mut self, o: ObjectId) -> bool {
        #[expect(
            clippy::indexing_slicing,
            reason = "sized to corpus.num_objects() at engine construction, and every \
                      candidate ObjectId comes from that same corpus"
        )]
        let slot = &mut self.epoch_of[o as usize];
        if *slot == self.epoch {
            false
        } else {
            *slot = self.epoch;
            true
        }
    }
}

/// A K-SPIN query engine: one borrowed index + corpus + lower-bound oracle,
/// and an owned (mutable) network distance oracle.
///
/// ```no_run
/// # use kspin_core::{KspinIndex, KspinConfig, QueryEngine, DijkstraDistance, Op};
/// # use kspin_alt::{AltIndex, LandmarkStrategy};
/// # let graph: kspin_graph::Graph = unimplemented!();
/// # let corpus: kspin_text::Corpus = unimplemented!();
/// let alt = AltIndex::build(&graph, 16, LandmarkStrategy::Farthest, 0);
/// let index = KspinIndex::build(&graph, &corpus, &KspinConfig::default());
/// let mut engine = QueryEngine::new(&graph, &corpus, &index, &alt, DijkstraDistance::new(&graph));
/// let results = engine.bknn(42, 10, &[0, 1], Op::And);
/// ```
pub struct QueryEngine<'a, D: NetworkDistance> {
    pub(crate) graph: &'a Graph,
    pub(crate) corpus: &'a Corpus,
    pub(crate) index: &'a KspinIndex,
    pub(crate) lower_bound: &'a dyn LowerBound,
    pub(crate) dist: D,
    /// The distance oracle's kernel counters at the last stats reset —
    /// [`QueryEngine::stats`] reports the delta, so oracle heap traffic
    /// is attributed alongside the inverted-heap traffic.
    dist_base: HeapCounters,
    pub(crate) stats: QueryStats,
    pub(crate) scratch: QueryScratch,
}

impl<'a, D: NetworkDistance> QueryEngine<'a, D> {
    /// Assembles an engine from the four framework modules.
    pub fn new(
        graph: &'a Graph,
        corpus: &'a Corpus,
        index: &'a KspinIndex,
        lower_bound: &'a dyn LowerBound,
        dist: D,
    ) -> Self {
        let dist_base = dist.heap_counters();
        QueryEngine {
            graph,
            corpus,
            index,
            lower_bound,
            dist,
            dist_base,
            stats: QueryStats::default(),
            scratch: QueryScratch {
                min_keys: Vec::new(),
                evaluated: SeenSet::new(corpus.num_objects()),
            },
        }
    }

    /// Builds the inverted heap for keyword `t` (§5, Theorem 1). A keyword
    /// whose seeds are all §6.2-deleted yields no heap, but the lower
    /// bounds spent discovering that still count toward §5.1's accounting.
    pub(crate) fn make_heap(
        &mut self,
        t: TermId,
        ctx: &HeapContext<'_>,
    ) -> Option<InvertedHeap<'a>> {
        match InvertedHeap::seed(self.index, t, ctx) {
            Ok(heap) => Some(heap),
            Err(lb_computed) => {
                self.stats.lb_computations += lb_computed;
                None
            }
        }
    }

    /// Statistics accumulated since the last [`QueryEngine::reset_stats`],
    /// including the distance oracle's heap-kernel traffic over the same
    /// window.
    pub fn stats(&self) -> QueryStats {
        let mut s = self.stats;
        s.absorb_counters(self.dist.heap_counters().since(self.dist_base));
        s
    }

    /// Clears the statistics counters.
    pub fn reset_stats(&mut self) {
        self.stats.clear();
        self.dist_base = self.dist.heap_counters();
    }

    /// Releases the engine, returning the distance oracle.
    pub fn into_distance(self) -> D {
        self.dist
    }
}
