//! The bounded k-best result set every query loop of §4 maintains: `D_k`,
//! the k-th best score seen so far, is what Algorithm 1 (line 5) and
//! Algorithm 3 (Lemma 2) compare `MINKEY` bounds against to terminate.
//!
//! The paper keeps the result set in a priority queue re-primed with
//! decrease-key; eviction of the current worst only ever needs a max-heap.

use std::collections::BinaryHeap;

use kspin_text::ObjectId;

/// The `k` lowest-scored objects offered so far — network distances
/// ([`kspin_graph::Weight`]) for BkNN, [`kspin_graph::OrderedWeight`]
/// scores for top-k (`f64::total_cmp`, the workspace's single float order).
pub(crate) struct KBest<S: Ord + Copy> {
    k: usize,
    /// Max-heap on `(score, object)`; `len ≤ k` always.
    heap: BinaryHeap<(S, ObjectId)>,
}

impl<S: Ord + Copy> KBest<S> {
    /// An empty result set holding at most `k` of `num_objects` objects,
    /// sized once so no offer ever grows it.
    pub(crate) fn bounded(k: usize, num_objects: usize) -> Self {
        KBest {
            k,
            // The one per-query result buffer: ≤ min(k, |O|) slots.
            heap: BinaryHeap::with_capacity(k.min(num_objects)),
        }
    }

    /// `D_k`: the k-th best score, once `k` objects are held.
    pub(crate) fn bound(&self) -> Option<S> {
        self.heap
            .peek()
            .filter(|_| self.heap.len() == self.k)
            .map(|&(s, _)| s)
    }

    /// Admits `object` while fewer than `k` are held, or in place of the
    /// current worst when `score` is *strictly* better than `D_k` — an
    /// equal score never displaces an object seen earlier.
    pub(crate) fn offer(&mut self, score: S, object: ObjectId) {
        if self.heap.len() < self.k {
            // Within the capacity `bounded` reserved: len < k, and the
            // query loops offer each object at most once.
            self.heap.push((score, object));
        } else if let Some(mut worst) = self.heap.peek_mut() {
            if score < worst.0 {
                *worst = (score, object);
            }
        }
    }

    /// The held objects, ascending by `(score, object)`.
    pub(crate) fn into_sorted(self) -> Vec<(S, ObjectId)> {
        self.heap.into_sorted_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(k: usize, num_objects: usize, offers: &[(u32, ObjectId)]) -> KBest<u32> {
        let mut best = KBest::bounded(k, num_objects);
        for &(s, o) in offers {
            best.offer(s, o);
        }
        best
    }

    #[test]
    fn fewer_than_k_offers_keep_everything_and_no_bound() {
        let best = filled(3, 10, &[(7, 1), (5, 2)]);
        assert_eq!(best.bound(), None);
        assert_eq!(best.into_sorted(), vec![(5, 2), (7, 1)]);
    }

    #[test]
    fn a_better_offer_evicts_the_worst_at_capacity() {
        let mut best = filled(2, 10, &[(7, 1), (5, 2)]);
        assert_eq!(best.bound(), Some(7));
        best.offer(6, 3);
        assert_eq!(best.bound(), Some(6));
        best.offer(9, 4);
        assert_eq!(best.into_sorted(), vec![(5, 2), (6, 3)]);
    }

    #[test]
    fn an_equal_score_at_capacity_is_not_admitted() {
        // Object 0 would sort before object 9, yet the first seen stays.
        let mut best = filled(2, 10, &[(5, 9), (5, 8)]);
        best.offer(5, 0);
        assert_eq!(best.into_sorted(), vec![(5, 8), (5, 9)]);
    }

    #[test]
    fn k_beyond_the_object_count_never_fills() {
        let best = filled(usize::MAX, 3, &[(3, 0), (1, 1), (2, 2)]);
        assert_eq!(best.bound(), None);
        assert_eq!(best.into_sorted(), vec![(1, 1), (2, 2), (3, 0)]);
    }

    #[test]
    fn equal_scores_sort_by_object_id() {
        let best = filled(4, 10, &[(2, 7), (1, 5), (2, 3), (1, 6)]);
        assert_eq!(best.into_sorted(), vec![(1, 5), (1, 6), (2, 3), (2, 7)]);
    }

    #[test]
    fn k_zero_holds_nothing() {
        let best = filled(0, 10, &[(1, 1)]);
        assert_eq!(best.into_sorted(), vec![]);
    }
}
