//! Textual relevance (Eqs. 2–3) and the weighted-distance spatio-textual
//! score (Eq. 1).
//!
//! Relevance is cosine TF×IDF: `TR(ψ,o) = Σ_t λ_{t,ψ} · λ_{t,o}` (Eq. 3),
//! one summand per query keyword — the decomposition Algorithm 2's pseudo
//! lower bound needs.

use kspin_graph::Weight;

use crate::corpus::{Corpus, ObjectId, TermId};

/// A query keyword set `ψ` with pre-computed per-term query weights and
/// per-term maximum object contributions.
///
/// Built once per query (the paper's implementation note: "query impacts
/// need only be computed once for the query").
#[derive(Debug, Clone)]
pub struct QueryTerms {
    terms: Vec<TermId>,
    impacts: Vec<f64>,
    /// `λ_{t,ψ} · λ_{t,max}` per term — the summands of Algorithm 2.
    max_contrib: Vec<f64>,
}

impl QueryTerms {
    /// Builds the query weights `λ_{t,ψ}` (IDF, normalized to unit
    /// length). Terms with empty inverted lists keep a well-defined weight
    /// (they can never match, but norms must stay finite); duplicates are
    /// collapsed.
    pub fn new(corpus: &Corpus, terms: &[TermId]) -> Self {
        let mut uniq = terms.to_vec();
        uniq.sort_unstable();
        uniq.dedup();
        let num_objects = corpus.num_objects() as f64;
        let weights: Vec<f64> = uniq
            .iter()
            .map(|&t| {
                let inv = corpus.inv_len(t) as f64;
                let ratio = if inv > 0.0 {
                    num_objects / inv
                } else {
                    num_objects
                };
                (1.0 + ratio).ln()
            })
            .collect();
        let norm = weights.iter().map(|w| w * w).sum::<f64>().sqrt();
        let impacts: Vec<f64> = if norm > 0.0 {
            weights.iter().map(|w| w / norm).collect()
        } else {
            vec![0.0; weights.len()]
        };
        let max_contrib: Vec<f64> = uniq
            .iter()
            .zip(&impacts)
            .map(|(&t, &impact)| impact * corpus.max_impact(t))
            .collect();
        QueryTerms {
            terms: uniq,
            impacts,
            max_contrib,
        }
    }

    /// The (deduplicated, sorted) query term ids.
    pub fn terms(&self) -> &[TermId] {
        &self.terms
    }

    /// Query weight `λ_{t_i,ψ}` of the i-th term of [`QueryTerms::terms`].
    #[expect(
        clippy::indexing_slicing,
        reason = "callers pass i < len(); impacts is parallel to terms"
    )]
    pub fn impact(&self, i: usize) -> f64 {
        self.impacts[i]
    }

    /// Maximum possible contribution of the i-th term to any object's
    /// relevance — Algorithm 2's `λ_{t_j,ψ} · λ_{t_j,max}`.
    #[expect(
        clippy::indexing_slicing,
        reason = "callers pass i < len(); max_contrib is parallel to terms"
    )]
    pub fn max_term_contribution(&self, i: usize) -> f64 {
        self.max_contrib[i]
    }

    /// Number of query terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the query has no terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Textual relevance `TR(ψ, o)` (Eq. 3). Zero when the object shares
    /// no keyword with the query.
    pub fn relevance(&self, corpus: &Corpus, o: ObjectId) -> f64 {
        let doc = corpus.doc(o);
        let mut tr = 0.0;
        // Both sides are sorted by term id: merge.
        let mut di = 0;
        #[expect(
            clippy::indexing_slicing,
            reason = "di is read only below doc.len(), and impacts is parallel to terms"
        )]
        for (qi, &t) in self.terms.iter().enumerate() {
            while di < doc.len() && doc[di].term < t {
                di += 1;
            }
            if di < doc.len() && doc[di].term == t {
                tr += self.impacts[qi] * doc[di].impact;
            }
        }
        tr
    }

    /// Upper bound on `TR(ψ, o)` over all objects — the bound behind the
    /// *valid* lower-bound score `ST_all` that the pseudo lower-bound
    /// improves upon (§4.2).
    pub fn max_relevance(&self) -> f64 {
        self.max_contrib.iter().sum()
    }
}

/// Weighted-distance spatio-textual score `ST(q,o) = d(q,o) / TR(ψ,o)`
/// (Eq. 1). Infinity when the relevance is zero (an object sharing no
/// keyword can never be a top-k result under weighted distance).
#[inline]
pub fn score(distance: Weight, relevance: f64) -> f64 {
    if relevance <= 0.0 {
        f64::INFINITY
    } else {
        distance as f64 / relevance
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusBuilder;

    fn sample() -> Corpus {
        let mut b = CorpusBuilder::new();
        b.add_object(10, &[(0, 1), (1, 1)]); // o0: thai restaurant
        b.add_object(20, &[(1, 2)]); // o1: restaurant restaurant
        b.add_object(30, &[(0, 1), (2, 3)]); // o2: thai takeaway^3
        b.build()
    }

    #[test]
    fn query_impacts_are_normalized() {
        let c = sample();
        let q = QueryTerms::new(&c, &[0, 1, 2]);
        let norm: f64 = (0..q.len()).map(|i| q.impact(i) * q.impact(i)).sum();
        assert!((norm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn duplicates_are_collapsed() {
        let c = sample();
        let q = QueryTerms::new(&c, &[1, 0, 1, 0]);
        assert_eq!(q.terms(), &[0, 1]);
    }

    #[test]
    fn rarer_terms_get_higher_impact() {
        let c = sample();
        // term 2 appears in 1 object, term 1 in 2 objects.
        let q = QueryTerms::new(&c, &[1, 2]);
        assert!(q.impact(1) > q.impact(0));
    }

    #[test]
    fn relevance_zero_without_shared_terms() {
        let c = sample();
        let q = QueryTerms::new(&c, &[2]);
        assert_eq!(q.relevance(&c, 1), 0.0); // o1 lacks takeaway
        assert!(q.relevance(&c, 2) > 0.0);
    }

    #[test]
    fn relevance_increases_with_coverage() {
        let c = sample();
        let q = QueryTerms::new(&c, &[0, 1]);
        // o0 contains both query terms; o1 only one of them.
        assert!(q.relevance(&c, 0) > q.relevance(&c, 1));
    }

    #[test]
    fn max_relevance_dominates_each_object() {
        let c = sample();
        let q = QueryTerms::new(&c, &[0, 1, 2]);
        let bound = q.max_relevance();
        for o in 0..c.num_objects() as ObjectId {
            assert!(bound + 1e-12 >= q.relevance(&c, o));
        }
    }

    #[test]
    fn per_term_contribution_bound_holds_per_object() {
        // The Algorithm-2 summand must dominate each single term's real
        // contribution.
        let c = sample();
        let q = QueryTerms::new(&c, &[0, 1, 2]);
        for (j, &t) in q.terms().iter().enumerate() {
            for o in 0..c.num_objects() as ObjectId {
                if let Some(p) = c.doc(o).iter().find(|p| p.term == t) {
                    assert!(
                        q.impact(j) * p.impact <= q.max_term_contribution(j) + 1e-12,
                        "term {t} object {o}"
                    );
                }
            }
        }
    }

    #[test]
    fn unseen_term_is_harmless() {
        let c = sample();
        let q = QueryTerms::new(&c, &[0, 11]); // term 11 unused
        assert!(q.relevance(&c, 0) > 0.0);
    }

    #[test]
    fn score_weighted_distance() {
        assert_eq!(score(100, 0.5), 200.0);
        assert_eq!(score(100, 0.0), f64::INFINITY);
        assert_eq!(score(0, 0.7), 0.0);
    }
}
