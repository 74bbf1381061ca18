//! Top-k spatial keyword query processing (§4.2, Algorithms 2–3).
//!
//! The score is weighted distance (Eq. 1): `ST(q,o) = d(q,o) / TR(ψ,o)` —
//! smaller is better. The processor consumes inverted heaps in order of
//! their *pseudo lower-bound scores*: for heap `H_i`, unseen objects are
//! assumed to contain keyword `t_j` only if `MINKEY(H_i) ≥ MINKEY(H_j)`
//! (the §4.2 key insight — an unseen object with a smaller bound would
//! already have surfaced in `H_j`). Lemma 1 shows this bound is never looser
//! than the valid all-unseen bound; Lemma 2 shows termination is still
//! exact.

use kspin_graph::{OrderedWeight, VertexId, Weight};
use kspin_text::{score, ObjectId, QueryTerms, TermId};

use crate::engine::QueryEngine;
use crate::heap::{HeapContext, InvertedHeap};
use crate::modules::NetworkDistance;
use crate::query::kbest::KBest;

impl<D: NetworkDistance> QueryEngine<'_, D> {
    /// Top-k spatial keyword query (§2, Algorithms 2–3, §4.2): the `k`
    /// objects minimizing `d(q,o) / TR(ψ,o)` (Eq. 1) under cosine
    /// relevance. As in the paper, candidates share at least one keyword
    /// with the query. Results sorted by ascending score (ties by object
    /// id); exact.
    pub fn top_k(&mut self, q: VertexId, k: usize, terms: &[TermId]) -> Vec<(ObjectId, f64)> {
        let query = QueryTerms::new(self.corpus, terms);
        if k == 0 || query.is_empty() || q as usize >= self.graph.num_vertices() {
            return Vec::new();
        }
        let ctx = HeapContext::new(self.graph, self.corpus, self.lower_bound, q);
        // One heap per distinct query keyword, aligned with `query.terms()`.
        // Absent heaps stay as None (MINKEY = ∞ per the paper, as for
        // exhausted ones).
        let mut heaps: Vec<Option<InvertedHeap<'_>>> = query
            .terms()
            .iter()
            .map(|&t| self.make_heap(t, &ctx))
            // One |ψ|-bounded Vec per query; the extraction loop below
            // never grows it.
            .collect();
        // λ_{t_j,ψ} · λ_{t_j,max} per keyword — Algorithm 2's summands.
        let max_contrib: Vec<f64> = (0..query.len())
            .map(|j| query.max_term_contribution(j))
            .collect();

        // Engine-lifetime scratch (no hashed set, which the crate's
        // `disallowed_types` deny keeps out): the epoch-stamped
        // dedup set clears in O(1); the MINKEY snapshot reaches high-water
        // capacity on the first query and never reallocates after.
        let mut processed = std::mem::take(&mut self.scratch.evaluated);
        processed.clear();
        let mut min_keys = std::mem::take(&mut self.scratch.min_keys);
        let mut best = KBest::bounded(k, self.corpus.num_objects());

        loop {
            let d_k = best.bound().map_or(f64::INFINITY, OrderedWeight::get);
            // Algorithm 3 line 5/6 with Algorithm 2 inlined: select the heap
            // with the smallest pseudo lower-bound score. The paper caches
            // pseudo scores in a priority queue; recomputing them fresh each
            // round (O(|ψ|²), |ψ| ≤ 6) keeps the bound tight even when other
            // heaps' MINKEYs move, and performs the identical selection.
            min_keys.clear();
            // Engine-lifetime scratch refilled to |ψ| entries after the
            // clear above: at high-water capacity, no realloc.
            min_keys.extend(heaps.iter().map(|h| {
                h.as_ref()
                    .and_then(InvertedHeap::min_key)
                    .unwrap_or(Weight::MAX)
            }));
            let mut chosen: Option<(usize, f64)> = None;
            for (i, &mk) in min_keys.iter().enumerate() {
                if mk == Weight::MAX {
                    continue;
                }
                let plb = score(mk, pseudo_relevance(i, &min_keys, &max_contrib));
                if chosen.is_none_or(|(_, s)| plb < s) {
                    chosen = Some((i, plb));
                }
            }
            let Some((i, plb)) = chosen else { break };
            if plb >= d_k {
                break; // Lemma 2: nothing unseen can beat the k-th score.
            }

            let Some(c) = heaps
                .get_mut(i)
                .and_then(Option::as_mut)
                .and_then(|h| h.extract(&ctx))
            else {
                // Unreachable: heap `i` was chosen because MINKEY(H_i) < ∞,
                // which only live, non-empty heaps report.
                debug_assert!(false, "chosen heap {i} must exist and be non-empty");
                break;
            };
            if !processed.insert(c.object) {
                self.stats.pruned_candidates += 1;
                continue;
            }
            // Line 10: cheap lower-bound score from the object's *actual*
            // textual relevance before paying for a network distance.
            let tr = query.relevance(self.corpus, c.object);
            debug_assert!(tr > 0.0, "heap candidates share a keyword with the query");
            let lb_score = score(c.lower_bound, tr);
            if lb_score > d_k {
                self.stats.pruned_candidates += 1;
                continue;
            }
            let d = self.dist.distance(q, self.corpus.vertex_of(c.object));
            self.stats.dist_computations += 1;
            let st = score(d, tr);
            best.offer(OrderedWeight::new(st), c.object);
        }
        // `heap_extractions` lives in each heap (once per `extract`) and is
        // merged only here, exhausted heaps included.
        for h in heaps.iter().flatten() {
            self.stats.absorb_heap(h);
        }
        self.scratch.min_keys = min_keys;
        self.scratch.evaluated = processed;
        let sorted = best.into_sorted();
        sorted.into_iter().map(|(s, o)| (o, s.get())).collect()
    }
}

/// Algorithm 2's pseudo textual relevance for heap `i`:
/// `TR_p(ψ, H_i) = Σ_j [MINKEY(H_i) ≥ MINKEY(H_j)] · λ_{t_j,ψ} · λ_{t_j,max}`.
/// Exhausted heaps carry `MINKEY = ∞` and therefore contribute to nobody.
pub(crate) fn pseudo_relevance(i: usize, min_keys: &[Weight], max_contrib: &[f64]) -> f64 {
    #[expect(
        clippy::indexing_slicing,
        reason = "callers pass a heap index i < min_keys.len()"
    )]
    let mk = min_keys[i];
    let mut tr_p = 0.0;
    #[expect(
        clippy::indexing_slicing,
        reason = "max_contrib is built parallel to min_keys (one slot per query keyword), \
                  so j < len of both"
    )]
    for (j, &other) in min_keys.iter().enumerate() {
        if mk >= other {
            tr_p += max_contrib[j];
        }
    }
    tr_p
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Algorithm 2: `ST_pLB(H_i) = MINKEY(H_i) / TR_p(ψ, H_i)` — the
    /// query loop's `pseudo_relevance` + `score` pair.
    fn pseudo_lower_bound(i: usize, min_keys: &[Weight], max_contrib: &[f64]) -> f64 {
        score(min_keys[i], pseudo_relevance(i, min_keys, max_contrib))
    }

    #[test]
    fn pseudo_bound_matches_paper_example2() {
        // Fig. 3: MINKEYs 2.7, 2.4, 1.8 with unit impacts and
        // TR = number-of-keywords semantics. Scale to integers ×10.
        let min_keys = [27, 24, 18];
        let contrib = [1.0, 1.0, 1.0];
        // H_1 (index 0) counts all three keywords: 2.7 / 3 = 0.9 → 9.0.
        assert!((pseudo_lower_bound(0, &min_keys, &contrib) - 9.0).abs() < 1e-9);
        // H_2 counts itself and H_3: 2.4 / 2 = 1.2 → 12.0.
        assert!((pseudo_lower_bound(1, &min_keys, &contrib) - 12.0).abs() < 1e-9);
        // H_3 counts only itself: 1.8 / 1 = 1.8 → 18.0.
        assert!((pseudo_lower_bound(2, &min_keys, &contrib) - 18.0).abs() < 1e-9);
    }

    #[test]
    fn lemma1_pseudo_bound_dominates_valid_bound() {
        // The valid all-unseen bound divides by the full Σ contributions;
        // the pseudo bound divides by a subset — hence is ≥.
        let min_keys = [50, 10, 30];
        let contrib = [0.5, 0.7, 0.3];
        let total: f64 = contrib.iter().sum();
        for i in 0..3 {
            let valid = min_keys[i] as f64 / total;
            assert!(pseudo_lower_bound(i, &min_keys, &contrib) + 1e-12 >= valid);
        }
    }

    #[test]
    fn exhausted_heaps_are_excluded() {
        let min_keys = [20, Weight::MAX];
        let contrib = [1.0, 1.0];
        // Heap 0 must not count the exhausted heap 1's keyword.
        assert!((pseudo_lower_bound(0, &min_keys, &contrib) - 20.0).abs() < 1e-9);
    }
}
