//! Mixed ∧/∨ Boolean kNN queries.
//!
//! §2 remarks that the framework handles combinations of conjunctions and
//! disjunctions, e.g. *k closest POIs containing "Thai" and ("takeaway" or
//! "restaurant")*. The processor generates candidates from a *driving set*
//! of keywords — a set such that every matching object contains at least
//! one of them — and filters each candidate against the full expression
//! before computing its network distance.
//!
//! Driving-set choice mirrors §4.1.2's least-frequent-keyword idea:
//! a conjunction may be driven by any single operand (every match contains
//! it), so we pick the operand with the cheapest driving set; a disjunction
//! must be driven by the union of its operands' driving sets.

use std::collections::BinaryHeap;

use kspin_graph::{VertexId, Weight};
use kspin_text::{Corpus, ObjectId, TermId};

use crate::engine::QueryEngine;
use crate::heap::{HeapContext, InvertedHeap};
use crate::modules::NetworkDistance;

/// A boolean keyword criterion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoolExpr {
    /// The object must contain this keyword.
    Term(TermId),
    /// All sub-expressions must hold.
    And(Vec<BoolExpr>),
    /// At least one sub-expression must hold.
    Or(Vec<BoolExpr>),
}

impl BoolExpr {
    /// Convenience: conjunction of plain keywords (§2's conjunctive BkNN
    /// criterion as an expression tree).
    pub fn all(terms: &[TermId]) -> Self {
        // ALLOC-OK: |ψ|-bounded expression-tree construction, once per query.
        BoolExpr::And(terms.iter().map(|&t| BoolExpr::Term(t)).collect())
    }

    /// Convenience: disjunction of plain keywords (§2's disjunctive BkNN
    /// criterion as an expression tree).
    pub fn any(terms: &[TermId]) -> Self {
        // ALLOC-OK: |ψ|-bounded expression-tree construction, once per query.
        BoolExpr::Or(terms.iter().map(|&t| BoolExpr::Term(t)).collect())
    }

    /// Whether object `o` satisfies the criterion (the §2 Boolean filter
    /// applied to `o`'s document).
    ///
    /// Empty `And` is vacuously true; empty `Or` is unsatisfiable.
    pub fn matches(&self, corpus: &Corpus, o: ObjectId) -> bool {
        match self {
            BoolExpr::Term(t) => corpus.contains(o, *t),
            BoolExpr::And(children) => children.iter().all(|c| c.matches(corpus, o)),
            BoolExpr::Or(children) => children.iter().any(|c| c.matches(corpus, o)),
        }
    }

    /// All keywords mentioned anywhere in the expression — the query's
    /// keyword set ψ in §2's notation.
    pub fn terms(&self) -> Vec<TermId> {
        // ALLOC-OK: grows to the expression's keyword count |ψ|, once per
        // query — expression trees are a handful of terms by construction.
        let mut out = Vec::new();
        self.collect_terms(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_terms(&self, out: &mut Vec<TermId>) {
        match self {
            // ALLOC-OK: appends into the |ψ|-bounded buffer `terms` owns.
            BoolExpr::Term(t) => out.push(*t),
            BoolExpr::And(children) | BoolExpr::Or(children) => {
                for c in children {
                    c.collect_terms(out);
                }
            }
        }
    }

    /// A driving set: keywords such that every object satisfying `self`
    /// contains at least one of them. `None` when the expression is
    /// unsatisfiable (empty `Or`). Chooses greedily by total inverted-list
    /// length, generalizing §4.1.2's least-frequent-keyword choice.
    pub fn driving_set(&self, corpus: &Corpus) -> Option<Vec<TermId>> {
        match self {
            // ALLOC-OK: one-element driving set, once per query planning.
            BoolExpr::Term(t) => Some(vec![*t]),
            BoolExpr::Or(children) => {
                if children.is_empty() {
                    return None;
                }
                // ALLOC-OK: |ψ|-bounded union built once per query planning.
                let mut union = Vec::new();
                for c in children {
                    // ALLOC-OK: still the |ψ|-bounded planning union above.
                    union.extend(c.driving_set(corpus)?);
                }
                union.sort_unstable();
                union.dedup();
                Some(union)
            }
            BoolExpr::And(children) => {
                // Any child's driving set drives the conjunction; pick the
                // cheapest. An empty And matches everything and cannot be
                // driven by keywords; treat as unsupported (no sensible
                // spatial keyword query is keyword-free).
                children
                    .iter()
                    .filter_map(|c| c.driving_set(corpus))
                    .min_by_key(|set| set.iter().map(|&t| corpus.inv_len(t)).sum::<usize>())
            }
        }
    }
}

impl<D: NetworkDistance> QueryEngine<'_, D> {
    /// Boolean kNN with an arbitrary ∧/∨ criterion (the mixed-operator
    /// queries of §2's remark), built on Algorithm 1's candidate generation.
    /// Exact; sorted by ascending distance.
    ///
    /// # Panics
    /// If the expression has no driving set (an empty `And`).
    pub fn bknn_expr(&mut self, q: VertexId, k: usize, expr: &BoolExpr) -> Vec<(ObjectId, Weight)> {
        if k == 0 {
            // ALLOC-OK: an empty Vec::new never touches the allocator.
            return Vec::new();
        }
        let Some(driving) = expr.driving_set(self.corpus) else {
            // ALLOC-OK: an empty Vec::new never touches the allocator.
            return Vec::new(); // unsatisfiable
        };
        // PANIC-OK: documented API precondition (see `# Panics`): soundness
        // needs a driving keyword per conjunct, so a keyword-free query must
        // not fail silently in release serving either.
        assert!(
            !driving.is_empty(),
            "expression has an empty driving set (keyword-free query)"
        );
        let ctx = HeapContext::new(self.graph, self.corpus, self.lower_bound, q);
        let mut heaps: Vec<InvertedHeap<'_>> = driving
            .iter()
            .copied()
            .filter_map(|t| self.make_heap(t, &ctx))
            // ALLOC-OK: heap generation — one |ψ|-bounded Vec per query;
            // the extraction loop below never grows it.
            .collect();
        // Engine-lifetime epoch-stamped dedup set (lint H1 + determinism):
        // clear() bumps the epoch in O(1); no hashing, no iteration order.
        let mut evaluated = std::mem::take(&mut self.scratch.evaluated);
        evaluated.clear();
        // Bounded k-best result max-heap for boolean-expression answers;
        // not a search frontier.
        // ALLOC-OK: len ≤ k always (pop before push at capacity), so at
        // most ⌈log₂ k⌉ growth doublings per query.
        let mut best: BinaryHeap<(Weight, ObjectId)> = BinaryHeap::new();

        loop {
            let d_k = match best.peek() {
                Some(&(d, _)) if best.len() == k => d,
                _ => Weight::MAX,
            };
            let Some((i, min_lb)) = heaps
                .iter()
                .enumerate()
                .filter_map(|(i, h)| h.min_key().map(|m| (i, m)))
                .min_by_key(|&(_, m)| m)
            else {
                break;
            };
            if min_lb >= d_k {
                break;
            }
            // PANIC-OK: i came from enumerate() over this very vec.
            let Some(c) = heaps[i].extract(&ctx) else {
                // Unreachable: heap `i` just reported a finite MINKEY.
                debug_assert!(false, "heap {i} reported MINKEY but was empty");
                break;
            };
            // ALLOC-OK: epoch-stamped SeenSet insert — a plain array
            // write into storage sized once at engine construction.
            if !evaluated.insert(c.object) || !expr.matches(self.corpus, c.object) {
                self.stats.pruned_candidates += 1;
                continue;
            }
            let d = self.dist.distance(q, self.corpus.vertex_of(c.object));
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
        let mut out: Vec<(ObjectId, Weight)> = best.into_iter().map(|(d, o)| (o, d)).collect();
        out.sort_unstable_by_key(|&(o, d)| (d, o));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kspin_text::CorpusBuilder;

    fn corpus() -> Corpus {
        let mut b = CorpusBuilder::new();
        b.add_object(1, &[(0, 1), (1, 1)]); // thai restaurant
        b.add_object(2, &[(0, 1), (2, 1)]); // thai takeaway
        b.add_object(3, &[(1, 1)]); // restaurant
        b.build()
    }

    #[test]
    fn matches_mixed_expression() {
        let c = corpus();
        // thai AND (takeaway OR restaurant)
        let e = BoolExpr::And(vec![BoolExpr::Term(0), BoolExpr::any(&[2, 1])]);
        assert!(e.matches(&c, 0));
        assert!(e.matches(&c, 1));
        assert!(!e.matches(&c, 2));
    }

    #[test]
    fn empty_and_is_true_empty_or_is_false() {
        let c = corpus();
        assert!(BoolExpr::And(vec![]).matches(&c, 0));
        assert!(!BoolExpr::Or(vec![]).matches(&c, 0));
    }

    #[test]
    fn driving_set_prefers_cheapest_conjunct() {
        let c = corpus();
        // term 0 appears in 2 objects, term 2 in 1 — And picks {2}.
        let e = BoolExpr::all(&[0, 2]);
        assert_eq!(e.driving_set(&c), Some(vec![2]));
    }

    #[test]
    fn driving_set_unions_disjuncts() {
        let c = corpus();
        let e = BoolExpr::any(&[0, 1]);
        assert_eq!(e.driving_set(&c), Some(vec![0, 1]));
    }

    #[test]
    fn driving_set_of_nested_expression_is_sound() {
        let c = corpus();
        let e = BoolExpr::And(vec![BoolExpr::Term(0), BoolExpr::any(&[1, 2])]);
        let driving = e.driving_set(&c).unwrap();
        // Soundness: every matching object contains a driving term.
        for o in 0..c.num_objects() as ObjectId {
            if e.matches(&c, o) {
                assert!(driving.iter().any(|&t| c.contains(o, t)));
            }
        }
    }

    #[test]
    fn unsatisfiable_expression_has_no_driving_set() {
        let c = corpus();
        assert_eq!(BoolExpr::Or(vec![]).driving_set(&c), None);
        // And containing an unsatisfiable Or: still driven by the other leg.
        let e = BoolExpr::And(vec![BoolExpr::Term(0), BoolExpr::Or(vec![])]);
        assert_eq!(e.driving_set(&c), Some(vec![0]));
    }

    #[test]
    fn terms_are_collected_and_deduped() {
        let e = BoolExpr::And(vec![BoolExpr::Term(3), BoolExpr::any(&[1, 3])]);
        assert_eq!(e.terms(), vec![1, 3]);
    }
}
