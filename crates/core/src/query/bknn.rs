//! Boolean kNN query processing (§4.1).
//!
//! §4.1.1 (Algorithm 1), §4.1.2 and §2's mixed ∧/∨ remark are one
//! procedure, [`QueryEngine::bknn_driven`]: build inverted heaps for a
//! *driving* keyword set — every matching object contains at least one
//! of them — consume them in global lower-bound order, filter each
//! candidate *before* paying for a network distance, and stop when the
//! smallest heap lower bound reaches `D_k`, the distance of the current
//! k-th best. The query types differ only in planning:
//!
//! * Disjunctive (Algorithm 1): driven by every query keyword; any
//!   extracted object matches.
//! * Conjunctive (§4.1.2): driven by the least frequent keyword only;
//!   candidates lacking any other keyword are filtered.
//! * Mixed ∧/∨ (§2): see [`crate::query::boolean`].

use kspin_graph::{VertexId, Weight};
use kspin_text::{Corpus, ObjectId, TermId};

use crate::engine::QueryEngine;
use crate::heap::{HeapContext, InvertedHeap};
use crate::index::KspinIndex;
use crate::modules::NetworkDistance;
use crate::query::kbest::KBest;
use crate::query::Op;

impl<D: NetworkDistance> QueryEngine<'_, D> {
    /// Boolean kNN (§2): the `k` nearest objects to `q` containing all
    /// (`Op::And`) or any (`Op::Or`) of `terms`. Results are sorted by
    /// ascending network distance (ties by object id) and are exact.
    pub fn bknn(
        &mut self,
        q: VertexId,
        k: usize,
        terms: &[TermId],
        op: Op,
    ) -> Vec<(ObjectId, Weight)> {
        // One |ψ|-sized copy per query, so sort/dedup never mutates the
        // caller's slice.
        let mut uniq = terms.to_vec();
        uniq.sort_unstable();
        uniq.dedup();
        if k == 0 || uniq.is_empty() || q as usize >= self.graph.num_vertices() {
            return Vec::new();
        }
        let ctx = HeapContext::new(self.graph, self.corpus, self.lower_bound, q);
        match op {
            Op::Or => self.bknn_driven(&ctx, k, &uniq, |_| true),
            Op::And => {
                // §4.1.2: the least frequent keyword drives (first minimum
                // in term order). A keyword with no live object leaves the
                // conjunction unsatisfiable: nothing drives, no heap is built.
                let (index, corpus) = (self.index, self.corpus);
                let driver = uniq
                    .iter()
                    .map(|&t| (index.live_count(t), t))
                    .min_by_key(|&(live, _)| live)
                    .filter(|&(live, _)| live > 0)
                    .map(|(_, t)| t);
                self.bknn_driven(&ctx, k, driver.as_slice(), |o| {
                    satisfies_conjunction(index, corpus, o, &uniq)
                })
            }
        }
    }

    /// Algorithm 1, generalized over its candidate source and filter: one
    /// inverted heap per `driving` keyword, consumed in global lower-bound
    /// order; `accept` is the keyword criterion, checked before any
    /// distance is paid for — the whole point of keyword separation is
    /// that false keyword matches never cost a graph operation.
    ///
    /// The paper drives heap selection through a priority queue re-primed
    /// after each extraction; with at most a handful of query keywords a
    /// fresh linear scan over the heaps is the same selection with none of
    /// the staleness bookkeeping.
    pub(super) fn bknn_driven(
        &mut self,
        ctx: &HeapContext<'_>,
        k: usize,
        driving: &[TermId],
        accept: impl Fn(ObjectId) -> bool,
    ) -> Vec<(ObjectId, Weight)> {
        let mut heaps: Vec<InvertedHeap<'_>> = driving
            .iter()
            .filter_map(|&t| self.make_heap(t, ctx))
            // One |ψ|-bounded Vec per query; the extraction loop below
            // never grows it.
            .collect();
        // Engine-lifetime dedup set: the reset is O(1), an insert is an
        // array write; no hashing, no iteration order.
        self.scratch.evaluated.reset();
        let mut best = KBest::bounded(k, self.corpus.num_objects());

        // Heap with the globally smallest lower bound (line 6).
        while let Some((min_lb, heap)) = heaps
            .iter_mut()
            .filter_map(|h| h.min_key().map(|m| (m, h)))
            .min_by_key(|&(m, _)| m)
        {
            if min_lb >= best.bound().unwrap_or(Weight::MAX) {
                break; // line 5: no unseen object can beat the k-th best
            }
            let Some(c) = heap.extract(ctx) else {
                // Unreachable: the heap just reported a finite MINKEY.
                debug_assert!(false, "heap reported MINKEY but was empty");
                break;
            };
            // Duplicates across heaps (line 10), then the keyword filter.
            let repeat = self.scratch.evaluated.get(c.object);
            self.scratch.evaluated.set(c.object, true);
            if repeat || !accept(c.object) {
                self.stats.pruned_candidates = self.stats.pruned_candidates.wrapping_add(1);
                continue;
            }
            let d = self.dist.distance(ctx.q, self.corpus.vertex_of(c.object));
            self.stats.dist_computations = self.stats.dist_computations.wrapping_add(1);
            best.offer(d, c.object);
        }
        // `heap_extractions` is owned by [`InvertedHeap`] (incremented once
        // per `extract`, §5.1's κ) and only *merged* here, so the loop
        // cannot miscount it; the kernel traffic counters ride along.
        for h in &heaps {
            self.stats.absorb_heap(h);
        }
        let sorted = best.into_sorted();
        sorted.into_iter().map(|(d, o)| (o, d)).collect()
    }
}

/// Containment across all terms, honoring per-keyword index updates:
/// an object whose keyword was removed from the index no longer
/// satisfies conjunctions mentioning it.
fn satisfies_conjunction(
    index: &KspinIndex,
    corpus: &Corpus,
    o: ObjectId,
    terms: &[TermId],
) -> bool {
    terms
        .iter()
        .all(|&t| corpus.contains(o, t) && index_live(index, o, t))
}

/// Whether object `o` is live in keyword `t`'s index.
#[expect(
    clippy::indexing_slicing,
    reason = "a local id is < the table's length"
)]
fn index_live(index: &KspinIndex, o: ObjectId, t: TermId) -> bool {
    index
        .entry(t)
        .is_some_and(|e| e.local_id(o).is_some_and(|l| !e.rows[l].deleted))
}
