//! Mixed ∧/∨ Boolean kNN queries.
//!
//! §2 remarks that the framework handles combinations of conjunctions and
//! disjunctions, e.g. *k closest POIs containing "Thai" and ("takeaway" or
//! "restaurant")*. Algorithm 1's candidate loop (`bknn_driven`, in
//! [`crate::query::bknn`]) generates candidates from a *driving set* of
//! keywords — a set such that every matching object contains at least one
//! of them — and filters each candidate against the full expression before
//! computing its network distance; this module plans that set.
//!
//! Driving-set choice mirrors §4.1.2's least-frequent-keyword idea:
//! a conjunction may be driven by any single operand (every match contains
//! it), so we pick the operand with the cheapest driving set; a disjunction
//! must be driven by the union of its operands' driving sets.

use kspin_graph::{VertexId, Weight};
use kspin_text::{Corpus, ObjectId, TermId};

use crate::engine::QueryEngine;
use crate::heap::HeapContext;
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
        BoolExpr::And(terms.iter().map(|&t| BoolExpr::Term(t)).collect())
    }

    /// Convenience: disjunction of plain keywords (§2's disjunctive BkNN
    /// criterion as an expression tree).
    pub fn any(terms: &[TermId]) -> Self {
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
        // Grows to the expression's keyword count |ψ|, once per query.
        let mut out = Vec::new();
        self.collect_terms(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_terms(&self, out: &mut Vec<TermId>) {
        match self {
            BoolExpr::Term(t) => out.push(*t),
            BoolExpr::And(children) | BoolExpr::Or(children) => {
                for c in children {
                    c.collect_terms(out);
                }
            }
        }
    }

    /// A driving set: keywords such that every object satisfying `self`
    /// contains at least one of them. An unsatisfiable expression (an
    /// empty `Or`) is driven by the empty set; `None` means *undrivable* —
    /// an empty `And` lets keyword-free objects match, which no inverted
    /// heap generates. Chooses greedily by total inverted-list length,
    /// generalizing §4.1.2's least-frequent-keyword choice.
    pub fn driving_set(&self, corpus: &Corpus) -> Option<Vec<TermId>> {
        match self {
            BoolExpr::Term(t) => Some(vec![*t]),
            BoolExpr::Or(children) => {
                // |ψ|-bounded, built once per query planning.
                let mut union = Vec::new();
                for c in children {
                    union.extend(c.driving_set(corpus)?);
                }
                union.sort_unstable();
                union.dedup();
                Some(union)
            }
            // Any drivable child's set drives the conjunction; pick the
            // cheapest. An unsatisfiable child costs nothing and wins, so
            // the query builds no heap at all.
            BoolExpr::And(children) => children
                .iter()
                .filter_map(|c| c.driving_set(corpus))
                .min_by_key(|set| set.iter().map(|&t| corpus.inv_len(t)).sum::<usize>()),
        }
    }
}

impl<D: NetworkDistance> QueryEngine<'_, D> {
    /// Boolean kNN with an arbitrary ∧/∨ criterion (the mixed-operator
    /// queries of §2's remark): Algorithm 1's candidate loop driven by
    /// [`BoolExpr::driving_set`] and filtered by [`BoolExpr::matches`].
    /// Exact; sorted by ascending distance (ties by object id). An
    /// undrivable expression answers empty: no sensible spatial keyword
    /// query is keyword-free.
    pub fn bknn_expr(&mut self, q: VertexId, k: usize, expr: &BoolExpr) -> Vec<(ObjectId, Weight)> {
        let driving = match expr.driving_set(self.corpus) {
            Some(driving) if k > 0 && (q as usize) < self.graph.num_vertices() => driving,
            _ => return Vec::new(),
        };
        let ctx = HeapContext::new(self.graph, self.corpus, self.lower_bound, q);
        let corpus = self.corpus;
        self.bknn_driven(&ctx, k, &driving, |o| expr.matches(corpus, o))
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
        let never = || BoolExpr::Or(vec![]);
        // Unsatisfiable is the empty set — no heap to build.
        assert_eq!(never().driving_set(&c), Some(vec![]));
        // It costs nothing, so it wins a conjunction...
        let e = BoolExpr::And(vec![BoolExpr::Term(0), never()]);
        assert_eq!(e.driving_set(&c), Some(vec![]));
        // ...and adds nothing to a disjunction.
        let e = BoolExpr::Or(vec![BoolExpr::Term(0), never()]);
        assert_eq!(e.driving_set(&c), Some(vec![0]));
        // `None` is reserved for undrivable: keyword-free objects match.
        let always = || BoolExpr::And(vec![]);
        assert_eq!(always().driving_set(&c), None);
        let e = BoolExpr::Or(vec![BoolExpr::Term(0), always()]);
        assert_eq!(e.driving_set(&c), None);
        let e = BoolExpr::And(vec![BoolExpr::Term(0), always()]);
        assert_eq!(e.driving_set(&c), Some(vec![0]));
    }

    #[test]
    fn terms_are_collected_and_deduped() {
        let e = BoolExpr::And(vec![BoolExpr::Term(3), BoolExpr::any(&[1, 3])]);
        assert_eq!(e.terms(), vec![1, 3]);
    }
}
