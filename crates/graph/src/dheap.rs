//! The indexed d-ary heap kernel shared by every distance module.
//!
//! Every hot loop in this workspace — Dijkstra, bidirectional Dijkstra,
//! ALT A*, the NVD construction sweep, and the Heap Generator's inverted
//! heaps — is a monotone best-first search over a priority queue of
//! `(Weight, u32)` entries. The std `BinaryHeap` forces *lazy deletion*
//! there: a vertex relaxed-then-improved leaves its stale entry behind to
//! be percolated, popped, and discarded. [`DaryHeap`] replaces that with a
//! true `decrease-key`:
//!
//! * **Indexed** — a position map tracks where each item sits in the heap
//!   array, so an improved key is sifted in place instead of duplicated.
//!   Whether an item was inserted this epoch (buffered or popped) is
//!   visible through the same map ([`DaryHeap::was_inserted`]), which
//!   replaces the per-search `inserted: Vec<bool>` side tables.
//! * **4-ary, packed** — children of slot `i` are `4i+1 ..= 4i+4`; each
//!   entry packs `(key, !item)` into one `u64` so heap order is plain
//!   integer order (one compare) and a sift-down level's four children
//!   span 32 contiguous bytes. Road-network frontiers push far more than
//!   they pop deep, and a 4-ary layout halves the tree height the common
//!   `push`/`decrease` sift-up pays, at the price of at most four
//!   comparisons per sift-down level — the classic trade measured on road
//!   networks by Abeywickrama et al. (PAPERS.md).
//! * **Epoch-reset** — the position map is stamped with an epoch counter,
//!   so [`DaryHeap::clear`] is O(1) and a long-lived search struct never
//!   allocates after its arrays reach high-water capacity (the same trick
//!   the distance/parent arrays in [`crate::dijkstra`] already use).
//! * **Deterministic** — entries order by `(key asc, item desc)`, exactly
//!   the pop order of the `BinaryHeap<(Reverse<Weight>, u32)>` max-heap it
//!   replaces. Since each item appears at most once (at its best key), the
//!   pop *sequence* is bit-identical to the lazy-deletion kernel's
//!   non-stale pop sequence: every caller's results are unchanged.
//!
//! Instrumentation is structural: [`HeapCounters`] counts `pushes`,
//! `pops`, and `decrease_keys` at the only code paths that can perform
//! them.

use crate::types::Weight;

/// Branching factor of the heap: four children per node, one 32-byte group
/// of packed entries per sift-down level.
pub const ARITY: usize = 4;

/// Position-map sentinel: the item was inserted this epoch and has since
/// been popped.
const POPPED: u32 = u32::MAX;

/// Structural instrumentation of one heap (cumulative over its lifetime;
/// snapshot and subtract via [`HeapCounters::since`] for per-query deltas).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapCounters {
    /// Entries inserted (first insertion of an item per epoch).
    pub pushes: u64,
    /// Entries removed via [`DaryHeap::pop`].
    pub pops: u64,
    /// In-place key improvements — each one is a stale entry a lazy
    /// kernel would have pushed, percolated, popped, and skipped.
    pub decrease_keys: u64,
    /// Pushes that landed with the entry array already at capacity —
    /// i.e. pushes that made the allocator grow the heap. **Structurally
    /// zero** after [`DaryHeap::new`] pre-sizes `entries` to `n` (an item
    /// occupies at most one slot per epoch, so `len ≤ n` always); the
    /// counter makes that claim checkable per query.
    pub grows: u64,
}

impl HeapCounters {
    /// The counter delta since `base` was snapshotted (saturating, so a
    /// stale base never underflows).
    pub fn since(self, base: HeapCounters) -> HeapCounters {
        HeapCounters {
            pushes: self.pushes.saturating_sub(base.pushes),
            pops: self.pops.saturating_sub(base.pops),
            decrease_keys: self.decrease_keys.saturating_sub(base.decrease_keys),
            grows: self.grows.saturating_sub(base.grows),
        }
    }
}

impl std::ops::AddAssign for HeapCounters {
    fn add_assign(&mut self, rhs: HeapCounters) {
        self.pushes += rhs.pushes;
        self.pops += rhs.pops;
        self.decrease_keys += rhs.decrease_keys;
        self.grows += rhs.grows;
    }
}

/// An indexed 4-ary min-heap over items `0..n` with `Weight` keys.
///
/// Each item may be present at most once; [`DaryHeap::insert_or_decrease`]
/// is the single relaxation entry point. Ties order by descending item id
/// (matching the `(Reverse<Weight>, u32)` tuple order of the std kernel
/// this replaces). `clear` is O(1); the arrays grow to high-water capacity
/// once and are never reallocated afterwards.
#[derive(Debug, Clone)]
pub struct DaryHeap {
    /// Heap-ordered packed entries, `(key << 32) | !item`: plain `u64`
    /// order *is* `(key asc, item desc)`, so every heap comparison is one
    /// integer compare and a sift-down level's four children span 32
    /// contiguous bytes.
    entries: Vec<u64>,
    /// `pos[item]` = heap slot of `item`, or [`POPPED`]; only meaningful
    /// when `stamp[item] == epoch`.
    pos: Vec<u32>,
    stamp: Vec<u32>,
    epoch: u32,
    counters: HeapCounters,
}

/// Packs an entry so ascending `u64` order equals `(key asc, item desc)`;
/// the item is stored complemented so larger ids compare smaller.
#[inline]
fn pack(key: Weight, item: u32) -> u64 {
    (u64::from(key) << 32) | u64::from(!item)
}

#[inline]
fn key_of(entry: u64) -> Weight {
    (entry >> 32) as Weight
}

#[inline]
fn item_of(entry: u64) -> u32 {
    !(entry as u32)
}

impl DaryHeap {
    /// Creates a heap for items `0..n`.
    pub fn new(n: usize) -> Self {
        DaryHeap {
            // Pre-sized to the capacity invariant push relies on: each
            // item occupies at most one slot per epoch, so len ≤ n and
            // the entry array never reallocates after construction.
            entries: Vec::with_capacity(n),
            pos: vec![0; n],
            stamp: vec![0; n],
            epoch: 1,
            counters: HeapCounters::default(),
        }
    }

    /// Empties the heap and forgets every item's insertion state in O(1)
    /// (epoch bump). Counters are cumulative and survive.
    pub fn clear(&mut self) {
        #[cfg(any(debug_assertions, feature = "audit"))]
        self.audit_on_clear();
        self.entries.clear();
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Extremely rare wrap: force-refresh every stamp.
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
    }

    /// Number of buffered (not yet popped) entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries remain.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The minimum entry `(key, item)` without removing it.
    #[inline]
    pub fn peek(&self) -> Option<(Weight, u32)> {
        self.entries.first().map(|&e| (key_of(e), item_of(e)))
    }

    /// Whether `item` was inserted at any point this epoch (in the heap
    /// now, or already popped). Replaces the `inserted: Vec<bool>` side
    /// tables of the lazy kernels.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "stamp is sized n at new(); items are 0..n by the kernel contract"
    )]
    pub fn was_inserted(&self, item: u32) -> bool {
        self.stamp[item as usize] == self.epoch
    }

    /// Inserts `item` with `key`. `item` must not have been inserted this
    /// epoch (checked in debug builds); relaxation loops that may revisit
    /// items use [`DaryHeap::insert_or_decrease`].
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "stamp is sized n at new(); items are 0..n by the kernel contract"
    )]
    pub fn push(&mut self, key: Weight, item: u32) {
        debug_assert!(
            !self.was_inserted(item),
            "push of item {item} already inserted this epoch"
        );
        self.stamp[item as usize] = self.epoch;
        let slot = self.entries.len();
        if slot == self.entries.capacity() {
            // Only reachable by pushing an item ≥ n (a kernel-contract
            // violation the indexing above would have caught first).
            self.counters.grows += 1;
        }
        // new() pre-sizes entries to n and each item occupies at most one
        // slot per epoch, so len ≤ n and this never reallocates; the grows
        // counter above proves it dynamically per query.
        self.entries.push(pack(key, item));
        self.counters.pushes += 1;
        self.sift_up(slot);
    }

    /// The relaxation primitive: inserts `item` if unseen this epoch,
    /// decreases its key in place if `key` improves on the buffered one,
    /// and does nothing otherwise. Must not be called for an item already
    /// popped this epoch (a monotone search never improves a settled
    /// vertex; checked in debug builds).
    #[inline]
    pub fn insert_or_decrease(&mut self, key: Weight, item: u32) {
        let i = item as usize;
        #[expect(
            clippy::indexing_slicing,
            reason = "stamp is sized n at new(); items are 0..n by the kernel contract"
        )]
        if self.stamp[i] != self.epoch {
            self.push(key, item);
            return;
        }
        #[expect(clippy::indexing_slicing, reason = "pos is sized n; i < n as above")]
        let p = self.pos[i];
        debug_assert!(
            p != POPPED,
            "decrease-key on item {item} already popped this epoch"
        );
        let p = p as usize;
        #[expect(
            clippy::indexing_slicing,
            reason = "pos[i] is a live slot (< entries.len()) by the position-map invariant \
                      that `validate` audits after every op in the model tests"
        )]
        if key < key_of(self.entries[p]) {
            self.entries[p] = pack(key, item);
            self.counters.decrease_keys += 1;
            self.sift_up(p);
        }
    }

    /// Removes and returns the minimum entry. Never returns a stale entry:
    /// each item pops at most once per epoch, at its final key.
    #[inline]
    pub fn pop(&mut self) -> Option<(Weight, u32)> {
        let top = *self.entries.first()?;
        let item = item_of(top);
        #[expect(
            clippy::indexing_slicing,
            reason = "every buffered item is < n (push stamped it), pos is sized n"
        )]
        {
            self.pos[item as usize] = POPPED;
        }
        self.counters.pops += 1;
        let last = self.entries.pop().unwrap_or(top);
        #[expect(
            clippy::indexing_slicing,
            reason = "slot 0 exists once the heap is checked non-empty; a buffered item is < n"
        )]
        if !self.entries.is_empty() {
            self.entries[0] = last;
            self.pos[item_of(last) as usize] = 0;
            self.sift_down(0);
        }
        Some((key_of(top), item))
    }

    /// Lifetime-cumulative instrumentation counters.
    pub fn counters(&self) -> HeapCounters {
        self.counters
    }

    /// Hole-based sift-up: moves ancestors down until slot `i`'s entry is
    /// no longer before its parent. One packed compare per level.
    #[expect(
        clippy::indexing_slicing,
        reason = "callers pass a live slot (push: just appended; decrease: pos[i]), every \
                  parent of a live slot is live, and a buffered item is < n, the length of pos"
    )]
    fn sift_up(&mut self, mut i: usize) {
        let entry = self.entries[i];
        while i > 0 {
            #[expect(
                clippy::integer_division_remainder_used,
                reason = "ARITY is the const 4"
            )]
            let parent = (i - 1) / ARITY;
            let pe = self.entries[parent];
            if entry < pe {
                self.entries[i] = pe;
                self.pos[item_of(pe) as usize] = i as u32;
                i = parent;
            } else {
                break;
            }
        }
        self.entries[i] = entry;
        self.pos[item_of(entry) as usize] = i as u32;
    }

    /// Hole-based sift-down: moves the smallest child up until slot `i`'s
    /// entry is no larger than all of its (at most [`ARITY`]) children.
    #[expect(
        clippy::indexing_slicing,
        reason = "the only caller (pop) passes slot 0 of a non-empty heap, a child is read \
                  only below len, and a buffered item is < n, the length of pos"
    )]
    fn sift_down(&mut self, mut i: usize) {
        let entry = self.entries[i];
        let len = self.entries.len();
        loop {
            let first = i * ARITY + 1;
            if first >= len {
                break;
            }
            let last = (first + ARITY).min(len);
            let mut best = first;
            let mut be = self.entries[first];
            for c in first + 1..last {
                let ce = self.entries[c];
                if ce < be {
                    best = c;
                    be = ce;
                }
            }
            if be < entry {
                self.entries[i] = be;
                self.pos[item_of(be) as usize] = i as u32;
                i = best;
            } else {
                break;
            }
        }
        self.entries[i] = entry;
        self.pos[item_of(entry) as usize] = i as u32;
    }

    /// The structural auditor (exercised by the invariant test suite):
    /// checks the heap order against every parent/child pair and the
    /// position map against every slot.
    #[expect(
        clippy::indexing_slicing,
        clippy::integer_division_remainder_used,
        reason = "an auditor, never on a serving path: a slot index is below len, and an \
                  item out of range fails as loudly as the violation it reports"
    )]
    pub fn validate(&self) -> Result<(), String> {
        for i in 1..self.entries.len() {
            let parent = (i - 1) / ARITY;
            if self.entries[i] < self.entries[parent] {
                return Err(format!(
                    "heap order violated: slot {i} ({}, {}) before parent {parent} ({}, {})",
                    key_of(self.entries[i]),
                    item_of(self.entries[i]),
                    key_of(self.entries[parent]),
                    item_of(self.entries[parent])
                ));
            }
        }
        for (slot, &entry) in self.entries.iter().enumerate() {
            let item = item_of(entry);
            if self.stamp[item as usize] != self.epoch {
                return Err(format!("slot {slot}: item {item} has a stale stamp"));
            }
            if self.pos[item as usize] != slot as u32 {
                return Err(format!(
                    "position map desynced: item {item} at slot {slot} but pos says {}",
                    self.pos[item as usize]
                ));
            }
        }
        // Reverse direction: every item the position map claims is buffered
        // must actually occupy that slot. Catches a slot overwritten without
        // its evicted item being marked POPPED — invisible to the slot→pos
        // sweep above because the evicted item no longer appears in
        // `entries`.
        for (item, (&p, &s)) in self.pos.iter().zip(&self.stamp).enumerate() {
            if s != self.epoch || p == POPPED {
                continue;
            }
            let holds = self
                .entries
                .get(p as usize)
                .is_some_and(|&e| item_of(e) as usize == item);
            if !holds {
                return Err(format!(
                    "position map dangles: item {item} claims slot {p} but the slot holds another item"
                ));
            }
        }
        Ok(())
    }

    /// Audit hook: re-validates the full structure before the epoch bump
    /// discards it. Armed by the `audit` feature (and always in debug
    /// builds); compiled out of release serving binaries.
    #[cfg(any(debug_assertions, feature = "audit"))]
    #[expect(
        clippy::panic,
        reason = "the armed auditor's failure report; compiled out of release serving builds"
    )]
    fn audit_on_clear(&self) {
        if let Err(violation) = self.validate() {
            panic!("DaryHeap invariant violated at clear: {violation}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_key_order_with_binaryheap_tie_order() {
        let mut h = DaryHeap::new(8);
        for (key, item) in [(5, 0), (1, 1), (5, 2), (3, 3), (1, 4)] {
            h.push(key, item);
            h.validate().expect("valid after push");
        }
        // Ties pop by *descending* item id, matching the
        // BinaryHeap<(Reverse<Weight>, u32)> tuple order this replaces.
        let mut out = Vec::new();
        while let Some(e) = h.pop() {
            h.validate().expect("valid after pop");
            out.push(e);
        }
        assert_eq!(out, vec![(1, 4), (1, 1), (3, 3), (5, 2), (5, 0)]);
        let c = h.counters();
        assert_eq!((c.pushes, c.pops, c.decrease_keys), (5, 5, 0));
    }

    #[test]
    fn decrease_key_updates_in_place() {
        let mut h = DaryHeap::new(4);
        h.insert_or_decrease(10, 0);
        h.insert_or_decrease(20, 1);
        h.insert_or_decrease(5, 1); // improves item 1 in place
        h.insert_or_decrease(30, 1); // worse: ignored
        h.validate().expect("valid");
        assert_eq!(h.len(), 2);
        assert_eq!(h.pop(), Some((5, 1)));
        assert_eq!(h.pop(), Some((10, 0)));
        assert_eq!(h.pop(), None);
        let c = h.counters();
        assert_eq!((c.pushes, c.pops, c.decrease_keys), (2, 3 - 1, 1));
    }

    #[test]
    fn clear_is_an_epoch_bump() {
        let mut h = DaryHeap::new(4);
        h.push(7, 2);
        assert!(h.was_inserted(2));
        h.clear();
        assert!(h.is_empty());
        assert!(!h.was_inserted(2));
        // The item is insertable again in the fresh epoch.
        h.insert_or_decrease(3, 2);
        assert_eq!(h.peek(), Some((3, 2)));
    }

    #[test]
    fn popped_items_stay_visible_via_was_inserted() {
        let mut h = DaryHeap::new(4);
        h.push(1, 3);
        assert_eq!(h.pop(), Some((1, 3)));
        assert!(h.was_inserted(3));
        assert!(h.is_empty());
    }

    #[test]
    fn validate_catches_a_dangling_position_map() {
        // An item whose pos points at a slot another item occupies is
        // invisible to the slot→pos sweep (the item is gone from `entries`)
        // — only the reverse item→slot direction can see it.
        let mut h = DaryHeap::new(4);
        h.push(1, 0);
        h.push(2, 1);
        h.entries.truncate(1); // evict item 1 without marking it POPPED
        let err = h.validate().expect_err("dangling pos must fail the audit");
        assert!(err.contains("dangles"), "wrong violation: {err}");

        // The forward direction still fires on a desynced live slot.
        let mut h = DaryHeap::new(4);
        h.push(1, 0);
        h.push(2, 1);
        h.pos.swap(0, 1);
        assert!(h.validate().is_err(), "desynced map must fail the audit");
    }

    #[test]
    fn epoch_wrap_refreshes_all_stamps() {
        let mut h = DaryHeap::new(2);
        h.epoch = u32::MAX;
        h.push(1, 0);
        h.clear(); // wraps to 0 → refreshed to 1
        assert_eq!(h.epoch, 1);
        assert!(!h.was_inserted(0));
        h.push(2, 0);
        assert_eq!(h.pop(), Some((2, 0)));
    }

    #[test]
    fn counters_since_subtracts_a_snapshot() {
        let mut h = DaryHeap::new(4);
        h.push(1, 0);
        let base = h.counters();
        h.push(2, 1);
        h.insert_or_decrease(1, 1);
        let _ = h.pop();
        let d = h.counters().since(base);
        assert_eq!((d.pushes, d.pops, d.decrease_keys), (1, 1, 1));
    }
}
