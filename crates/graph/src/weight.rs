//! Totally ordered floating-point weights for candidate heaps.
//!
//! Network distances in this workspace are integer [`Weight`](crate::Weight)s,
//! but *scores* — weighted distance `d/TR` (Eq. 1), ROAD's
//! spatio-textual ranks — are `f64`. Raw `f64` only implements `PartialOrd`,
//! which forces heap code into `partial_cmp(..).unwrap()` patterns that
//! panic (or, with `unwrap_or`, silently mis-order) the moment a NaN slips
//! in. [`OrderedWeight`] closes that hole once, centrally: it carries the
//! IEEE-754 `totalOrder` relation (`f64::total_cmp`), so every comparison is
//! total and every heap containing it is well-ordered *even if* a NaN is
//! produced upstream — and debug builds additionally reject NaN at
//! construction, pinpointing the producer instead of the consumer.
//!
//! `partial_cmp` is on the `disallowed-methods` list of the root
//! `clippy.toml`, which every crate but the vendored stubs denies. This
//! module's `PartialOrd` impl defines it rather than calling it, which
//! makes this the single sanctioned float-ordering site in the workspace.

use std::cmp::Ordering;

use crate::types::Weight;

/// Sums two network weights without wrapping: the single sanctioned `+`
/// for weight-typed values (the query code denies
/// `clippy::arithmetic_side_effects`).
///
/// [`crate::INFINITY`] is `u32::MAX / 2`, so one relaxation past an
/// unreachable tentative distance stays finite-representable — but a
/// plain `+` on sums of large real distances (or repeated additions past
/// ∞) wraps in release builds and turns an unreachable vertex into the
/// closest one. Saturating at `u32::MAX` keeps every sum `≥ INFINITY`
/// once either operand passes it, which is exactly the algebra the
/// relaxation step's `nd < tentative` comparison needs.
#[inline]
pub fn weight_add(a: Weight, b: Weight) -> Weight {
    a.saturating_add(b)
}

/// An `f64` score with a total order (IEEE-754 `totalOrder`).
///
/// Ordering places `-NaN < -∞ < … < +∞ < +NaN`; equal payloads compare
/// equal. Debug builds assert the payload is not NaN at construction.
#[derive(Debug, Clone, Copy, Default)]
pub struct OrderedWeight(f64);

impl OrderedWeight {
    /// Positive infinity — the identity for minimization.
    pub const INFINITE: OrderedWeight = OrderedWeight(f64::INFINITY);

    /// Wraps a score. Debug builds reject NaN so the *producer* of a bad
    /// score fails, not some later heap operation.
    #[inline]
    pub fn new(value: f64) -> Self {
        debug_assert!(!value.is_nan(), "NaN score reached an ordered heap");
        OrderedWeight(value)
    }

    /// The wrapped score.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }
}

impl From<f64> for OrderedWeight {
    #[inline]
    fn from(value: f64) -> Self {
        OrderedWeight::new(value)
    }
}

impl From<OrderedWeight> for f64 {
    #[inline]
    fn from(w: OrderedWeight) -> f64 {
        w.0
    }
}

impl PartialEq for OrderedWeight {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for OrderedWeight {}

impl PartialOrd for OrderedWeight {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedWeight {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_add_never_wraps_below_infinity() {
        use crate::types::INFINITY;
        assert_eq!(weight_add(3, 4), 7);
        assert_eq!(weight_add(0, 0), 0);
        // Sums past ∞ stay ≥ ∞ — an unreachable vertex can never look near.
        assert!(weight_add(INFINITY, 1) >= INFINITY);
        assert!(weight_add(INFINITY, INFINITY) >= INFINITY);
        assert_eq!(weight_add(u32::MAX, 1), u32::MAX);
        assert_eq!(weight_add(u32::MAX, u32::MAX), u32::MAX);
    }

    #[test]
    fn orders_totally_including_infinities() {
        let mut v = [
            OrderedWeight::new(3.5),
            OrderedWeight::new(0.1),
            OrderedWeight::INFINITE,
            OrderedWeight::new(2.0),
            OrderedWeight::new(f64::NEG_INFINITY),
        ];
        v.sort();
        assert_eq!(v[0].get(), f64::NEG_INFINITY);
        assert_eq!(v[1].get(), 0.1);
        assert_eq!(v[4], OrderedWeight::INFINITE);
    }

    #[test]
    fn equality_is_payload_equality() {
        assert_eq!(OrderedWeight::new(1.25), OrderedWeight::new(1.25));
        assert_ne!(OrderedWeight::new(1.25), OrderedWeight::new(1.75));
    }

    #[test]
    fn max_heap_of_scores_pops_largest() {
        use std::collections::BinaryHeap;
        let mut h = BinaryHeap::new();
        for s in [1.5, 0.25, 9.75, 3.0] {
            h.push(OrderedWeight::new(s));
        }
        assert_eq!(h.pop().map(OrderedWeight::get), Some(9.75));
        assert_eq!(h.pop().map(OrderedWeight::get), Some(3.0));
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn nan_cannot_poison_release_heaps() {
        // Release builds admit NaN but still order it consistently (above
        // +inf), so heap invariants hold and extraction terminates.
        let mut v = [
            OrderedWeight(f64::NAN),
            OrderedWeight(1.0),
            OrderedWeight(f64::INFINITY),
        ];
        v.sort();
        assert_eq!(v[0].get(), 1.0);
        assert!(v[2].get().is_nan());
    }

    #[test]
    #[should_panic(expected = "NaN score")]
    #[cfg(debug_assertions)]
    fn nan_is_rejected_in_debug_builds() {
        let _ = OrderedWeight::new(f64::NAN);
    }
}
