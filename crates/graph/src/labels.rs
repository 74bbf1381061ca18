//! The epoch-stamped per-id store of every search that must forget its
//! state between calls.
//!
//! Dijkstra's distances and one-to-many target chains, the [`DaryHeap`]
//! position map, both searches of a CH query and the CH witness search, the
//! Query Processor's candidate dedup set, the NVD symmetry audit's marks
//! and the hub-label merge all keep their per-id state here, so the bounds
//! argument of the indexing (`id < n`, one array sized `n`) and the `u32`
//! epoch wrap are stated once.
//!
//! [`DaryHeap`]: crate::DaryHeap

use crate::types::Weight;

/// One value per id `0..n`, epoch-stamped so [`Labels::reset`] is O(1):
/// an id reads its value if it was set since the last reset, and the
/// store's `unset` value otherwise. A fresh or reset store holds nothing.
///
/// The default `Labels` is a search's distance labels, unset at
/// [`INFINITY`](crate::INFINITY).
#[derive(Debug, Clone)]
pub struct Labels<T: Copy = Weight> {
    /// `slots[id]` = (the epoch `id` was last set in, its value); each
    /// access reads one stamp and its value together.
    slots: Vec<(u32, T)>,
    /// The current epoch, never 0: stamp 0 means "never set".
    cur: u32,
    unset: T,
}

impl<T: Copy> Labels<T> {
    /// Creates an empty store for ids `0..n` that reads `unset` for every
    /// id not set since the last reset.
    pub fn new(n: usize, unset: T) -> Self {
        Labels {
            slots: vec![(0, unset); n],
            cur: 1,
            unset,
        }
    }

    /// Forgets every value.
    #[inline]
    pub fn reset(&mut self) {
        self.cur = self.cur.wrapping_add(1);
        if self.cur == 0 {
            // Extremely rare wrap: zero every stamp and restart at 1, the
            // one stamp value no later epoch takes before the next wrap.
            self.slots.iter_mut().for_each(|s| s.0 = 0);
            self.cur = 1;
        }
    }

    /// The number of ids the store covers (`n`).
    pub fn num_ids(&self) -> usize {
        self.slots.len()
    }
}

#[expect(
    clippy::indexing_slicing,
    reason = "slots are sized n at new(), and every caller passes an id < n of the graph, \
              heap, corpus or adjacency the store was sized for"
)]
impl<T: Copy> Labels<T> {
    /// The value of `id`, the store's unset value if not set since the
    /// last reset.
    #[inline]
    pub fn get(&self, id: u32) -> T {
        let (stamp, value) = self.slots[id as usize];
        if stamp == self.cur {
            value
        } else {
            self.unset
        }
    }

    /// Sets `id` to `value`.
    #[inline]
    pub fn set(&mut self, id: u32, value: T) {
        self.slots[id as usize] = (self.cur, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::INFINITY;

    #[test]
    fn a_fresh_store_holds_nothing() {
        let l = Labels::new(3, INFINITY);
        assert!((0..3).all(|v| l.get(v) == INFINITY));
        // Whatever the unset value: a membership set starts empty too.
        let seen = Labels::new(3, false);
        assert!((0..3).all(|o| !seen.get(o)));
    }

    #[test]
    fn unset_ids_read_the_unset_value() {
        let mut l = Labels::new(3, INFINITY);
        l.reset();
        l.set(1, 7);
        assert_eq!((l.get(0), l.get(1), l.get(2)), (INFINITY, 7, INFINITY));
    }

    #[test]
    fn reset_forgets_every_value_without_touching_the_array() {
        let mut l = Labels::new(4, u32::MAX);
        for v in 0..4 {
            l.set(v, v + 1);
        }
        let slots = l.slots.clone();
        l.reset();
        assert_eq!(l.slots, slots, "reset is an epoch bump, not a sweep");
        assert!((0..4).all(|v| l.get(v) == u32::MAX));
        l.set(2, 9);
        assert_eq!(l.get(2), 9);
    }

    #[test]
    fn epoch_wrap_leaves_nothing_stale_set() {
        let mut l = Labels::new(3, None);
        l.cur = u32::MAX - 1;
        l.set(0, Some(5)); // stamped u32::MAX - 1
        l.reset(); // u32::MAX
        assert_eq!(l.get(0), None);
        l.set(1, Some(6)); // stamped u32::MAX
        l.reset(); // wraps: every stamp zeroed, the epoch restarts at 1
        assert_eq!(l.cur, 1);
        assert!(l.slots.iter().all(|&(stamp, _)| stamp == 0));
        assert!((0..3).all(|v| l.get(v).is_none()));
        l.set(2, Some(7));
        assert_eq!(l.get(2), Some(7));
        // A stamp written by the wrap never equals a later epoch: replay the
        // last epoch before the *next* wrap over ids untouched since.
        l.cur = u32::MAX - 1;
        l.reset();
        assert_eq!((l.get(0), l.get(1), l.get(2)), (None, None, None));
    }
}
