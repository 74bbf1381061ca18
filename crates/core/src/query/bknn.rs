//! Boolean kNN query processing (§4.1).
//!
//! * Disjunctive (Algorithm 1): one inverted heap per query keyword,
//!   consumed in global lower-bound order.
//! * Conjunctive (§4.1.2): drive from the least frequent keyword's heap
//!   only; filter candidates lacking any other keyword *before* paying for
//!   a network distance.
//!
//! Both terminate when the smallest heap lower bound reaches `D_k`, the
//! distance of the current k-th best.

use std::collections::BinaryHeap;

use kspin_graph::{VertexId, Weight};
use kspin_text::{ObjectId, TermId};

use crate::engine::QueryEngine;
use crate::heap::{HeapContext, InvertedHeap};
use crate::index::KeywordIndex;
use crate::modules::NetworkDistance;
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
        // ALLOC-OK: one |ψ|-sized copy per query (|ψ| ≤ a handful of
        // keywords) so sort/dedup never mutates the caller's slice.
        let mut uniq = terms.to_vec();
        uniq.sort_unstable();
        uniq.dedup();
        if k == 0 || uniq.is_empty() {
            // ALLOC-OK: an empty Vec::new never touches the allocator.
            return Vec::new();
        }
        let ctx = HeapContext::new(self.graph, self.corpus, self.lower_bound, q);
        let mut results = match op {
            Op::Or => self.bknn_disjunctive(&ctx, k, &uniq),
            Op::And => self.bknn_conjunctive(&ctx, k, &uniq),
        };
        results.sort_unstable_by_key(|&(o, d)| (d, o));
        results
    }

    /// Algorithm 1. The paper drives heap selection through a priority
    /// queue re-primed after each extraction; with at most a handful of
    /// query keywords a fresh linear scan over the heaps is the same
    /// selection with none of the staleness bookkeeping.
    fn bknn_disjunctive(
        &mut self,
        ctx: &HeapContext<'_>,
        k: usize,
        terms: &[TermId],
    ) -> Vec<(ObjectId, Weight)> {
        let mut heaps: Vec<InvertedHeap<'_>> = terms
            .iter()
            .copied()
            .filter_map(|t| self.make_heap(t, ctx))
            // ALLOC-OK: heap generation — one |ψ|-bounded Vec per query;
            // the extraction loop below never grows it.
            .collect();
        // Engine-lifetime epoch-stamped dedup set (lint H1 + determinism):
        // clear() bumps the epoch in O(1); no hashing, no iteration order.
        let mut evaluated = std::mem::take(&mut self.scratch.evaluated);
        evaluated.clear();
        // Max-heap of the best k so far; top = current D_k.
        // Bounded k-best result max-heap over ObjectIds; top-k eviction
        // wants a max-heap, not decrease-key.
        // ALLOC-OK: len ≤ k always (pop before push at capacity), so at
        // most ⌈log₂ k⌉ growth doublings per query.
        let mut best: BinaryHeap<(Weight, ObjectId)> = BinaryHeap::new();

        loop {
            let d_k = match best.peek() {
                Some(&(d, _)) if best.len() == k => d,
                _ => Weight::MAX,
            };
            // Heap with the globally smallest lower bound (line 6).
            let Some((i, min_lb)) = heaps
                .iter()
                .enumerate()
                .filter_map(|(i, h)| h.min_key().map(|m| (i, m)))
                .min_by_key(|&(_, m)| m)
            else {
                break;
            };
            if min_lb >= d_k {
                break; // line 5: no unseen object can beat the k-th best
            }
            // PANIC-OK: i came from enumerate() over this very vec.
            let Some(c) = heaps[i].extract(ctx) else {
                // Unreachable: heap `i` just reported a finite MINKEY.
                debug_assert!(false, "heap {i} reported MINKEY but was empty");
                break;
            };
            // Any object in this heap contains its keyword, so only
            // duplicates across heaps are filtered (line 10).
            // ALLOC-OK: epoch-stamped SeenSet insert — a plain array
            // write into storage sized once at engine construction.
            if !evaluated.insert(c.object) {
                self.stats.pruned_candidates += 1;
                continue;
            }
            let d = self.dist.distance(ctx.q, self.corpus.vertex_of(c.object));
            self.stats.dist_computations += 1;
            if best.len() < k {
                // ALLOC-OK: grows the k-best heap toward its ≤ k cap.
                best.push((d, c.object));
            } else if d < d_k {
                best.pop();
                // ALLOC-OK: pop above freed a slot; len stays ≤ k.
                best.push((d, c.object));
            }
        }
        self.finish_heap_stats(&heaps);
        self.scratch.evaluated = evaluated;
        // ALLOC-OK: the ≤ k-element result Vec the API contract returns.
        best.into_iter().map(|(d, o)| (o, d)).collect()
    }

    /// §4.1.2: drive from the least frequent keyword, filter on the cheap
    /// containment check before any distance computation.
    fn bknn_conjunctive(
        &mut self,
        ctx: &HeapContext<'_>,
        k: usize,
        terms: &[TermId],
    ) -> Vec<(ObjectId, Weight)> {
        // An empty keyword index means no object can satisfy the
        // conjunction at all.
        let driver = terms
            .iter()
            .copied()
            .min_by_key(|&t| self.index.live_count(t));
        let Some(driver) = driver else {
            // ALLOC-OK: an empty Vec::new never touches the allocator.
            return Vec::new();
        };
        if terms.iter().any(|&t| self.index.live_count(t) == 0) {
            // ALLOC-OK: an empty Vec::new never touches the allocator.
            return Vec::new();
        }
        let Some(mut heap) = self.make_heap(driver, ctx) else {
            // ALLOC-OK: an empty Vec::new never touches the allocator.
            return Vec::new();
        };
        // Bounded k-best result max-heap (conjunctive path); same shape as
        // the disjunctive one above.
        // ALLOC-OK: len ≤ k always (pop before push at capacity), so at
        // most ⌈log₂ k⌉ growth doublings per query.
        let mut best: BinaryHeap<(Weight, ObjectId)> = BinaryHeap::new();
        loop {
            let d_k = match best.peek() {
                Some(&(d, _)) if best.len() == k => d,
                _ => Weight::MAX,
            };
            let Some(min_lb) = heap.min_key() else { break };
            if min_lb >= d_k {
                break;
            }
            let Some(c) = heap.extract(ctx) else {
                // Unreachable: the heap just reported a finite MINKEY.
                debug_assert!(false, "driver heap reported MINKEY but was empty");
                break;
            };
            // Filter before distance: the whole point of keyword
            // separation — false keyword matches never cost a graph
            // operation.
            if !self.satisfies_conjunction(c.object, terms) {
                self.stats.pruned_candidates += 1;
                continue;
            }
            let d = self.dist.distance(ctx.q, self.corpus.vertex_of(c.object));
            self.stats.dist_computations += 1;
            if best.len() < k {
                // ALLOC-OK: grows the k-best heap toward its ≤ k cap.
                best.push((d, c.object));
            } else if d < d_k {
                best.pop();
                // ALLOC-OK: pop above freed a slot; len stays ≤ k.
                best.push((d, c.object));
            }
        }
        self.stats.absorb_heap(&heap);
        // ALLOC-OK: the ≤ k-element result Vec the API contract returns.
        best.into_iter().map(|(d, o)| (o, d)).collect()
    }

    /// Containment across all terms, honoring per-keyword index updates:
    /// an object whose keyword was removed from the index no longer
    /// satisfies conjunctions mentioning it.
    pub(crate) fn satisfies_conjunction(&self, o: ObjectId, terms: &[TermId]) -> bool {
        terms
            .iter()
            .all(|&t| self.corpus.contains(o, t) && self.index_live(o, t))
    }

    /// Whether object `o` is live in keyword `t`'s index.
    pub(crate) fn index_live(&self, o: ObjectId, t: TermId) -> bool {
        match self.index.entry(t) {
            None => false,
            Some(KeywordIndex::Small(s)) => s
                .objects
                .iter()
                .position(|&x| x == o)
                // PANIC-OK: i < objects.len() from position(); alive is parallel.
                .is_some_and(|i| s.alive[i]),
            Some(KeywordIndex::Nvd(n)) => n.local_of.get(&o).is_some_and(|&l| !n.apx.is_deleted(l)),
        }
    }

    /// Folds per-heap counters into the engine stats. `heap_extractions`
    /// is owned by [`InvertedHeap`] (incremented once per `extract`, §5.1's
    /// κ) and only *merged* here, so no query loop can miscount it; the
    /// kernel traffic counters ride along the same way.
    pub(crate) fn finish_heap_stats(&mut self, heaps: &[InvertedHeap<'_>]) {
        for h in heaps {
            self.stats.absorb_heap(h);
        }
    }
}
