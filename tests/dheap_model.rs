//! Differential model test for the indexed d-ary heap kernel.
//!
//! [`kspin_graph::DaryHeap`] is checked against the kernel it replaced: a
//! `BinaryHeap<(Reverse<Weight>, u32)>` with lazy deletion (stale entries
//! left behind on every key improvement and skipped at pop time). Over
//! random `insert_or_decrease`/`pop`/`clear` sequences, the two must
//! produce identical non-stale pop sequences — that equivalence is what
//! guarantees every ported search (Dijkstra, the CH searches, the inverted
//! heaps) settles vertices in exactly the order it did before the swap.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;

use kspin_graph::{DaryHeap, Weight};

/// The lazy-deletion reference model. `best[item]` is the current key of
/// an item still logically in the queue (`u32::MAX` = absent/popped).
struct LazyModel {
    heap: BinaryHeap<(Reverse<Weight>, u32)>,
    best: Vec<Weight>,
    popped: Vec<bool>,
    pushes: u64,
    improves: u64,
}

impl LazyModel {
    fn new(n: usize) -> Self {
        LazyModel {
            heap: BinaryHeap::new(),
            best: vec![Weight::MAX; n],
            popped: vec![false; n],
            pushes: 0,
            improves: 0,
        }
    }

    /// Mirrors `DaryHeap::insert_or_decrease` under lazy deletion: absent
    /// items push, improvements push a duplicate, everything else no-ops.
    fn insert_or_decrease(&mut self, key: Weight, item: u32) {
        if self.popped[item as usize] {
            return;
        }
        if self.best[item as usize] == Weight::MAX {
            self.pushes += 1;
        } else if key < self.best[item as usize] {
            self.improves += 1;
        } else {
            return;
        }
        self.best[item as usize] = key;
        self.heap.push((Reverse(key), item));
    }

    /// Pops the next non-stale entry, discarding the stale ones on the
    /// way — the traffic the indexed kernel eliminates structurally.
    fn pop(&mut self) -> Option<(Weight, u32)> {
        while let Some((Reverse(k), item)) = self.heap.pop() {
            if self.popped[item as usize] || k != self.best[item as usize] {
                continue;
            }
            self.popped[item as usize] = true;
            return Some((k, item));
        }
        None
    }

    /// Mirrors `DaryHeap::clear`; also zeroes the traffic counters so
    /// post-clear comparisons line up with an epoch-base snapshot.
    fn clear(&mut self) {
        self.heap.clear();
        self.best.iter_mut().for_each(|b| *b = Weight::MAX);
        self.popped.iter_mut().for_each(|p| *p = false);
        self.pushes = 0;
        self.improves = 0;
    }

    fn live_len(&self) -> usize {
        self.best
            .iter()
            .zip(&self.popped)
            .filter(|&(&b, &p)| b != Weight::MAX && !p)
            .count()
    }
}

/// One scripted operation. Items/keys are drawn small so collisions (ties,
/// repeat relaxations of one item) are frequent rather than exceptional.
#[derive(Debug, Clone)]
enum Op {
    Insert(Weight, u32),
    Pop,
    Clear,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (0u32..3, 0u32..20, 0u32..16).prop_map(|(kind, key, item)| match kind {
            0 | 1 => Op::Insert(key, item),
            _ => Op::Pop,
        }),
        1..120,
    )
    .prop_map(|mut ops| {
        // Splice a Clear mid-sequence occasionally (keyed off the script
        // itself so the generator stays deterministic).
        if ops.len() > 40 {
            ops[20] = Op::Clear;
        }
        ops
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn dary_heap_matches_lazy_deletion_model(ops in arb_ops()) {
        const N: usize = 16;
        let mut dary = DaryHeap::new(N);
        let mut model = LazyModel::new(N);
        let mut epoch_base = dary.counters();
        for op in &ops {
            match *op {
                Op::Insert(key, item) => {
                    // The ported searches never relax a settled vertex;
                    // mirror that precondition here.
                    if model.popped[item as usize] {
                        continue;
                    }
                    dary.insert_or_decrease(key, item);
                    model.insert_or_decrease(key, item);
                }
                Op::Pop => {
                    prop_assert_eq!(dary.pop(), model.pop(), "pop order diverged");
                }
                Op::Clear => {
                    dary.clear();
                    model.clear();
                    epoch_base = dary.counters();
                }
            }
            let audit = dary.validate();
            prop_assert!(audit.is_ok(), "structural audit failed: {:?}", audit);
            prop_assert_eq!(dary.len(), model.live_len());
            prop_assert_eq!(dary.peek().is_none(), model.live_len() == 0);
            // The position map agrees with the model item by item, not just
            // in aggregate. `was_inserted` is live-or-popped (the lazy
            // model's `inserted` side table), checked here. Which of those
            // items are still buffered needs no check of its own: the audit
            // above places every stamped, un-popped item in its slot and
            // every slot's item back, so the buffered set is exactly the
            // heap's entries; `len` matches the model's live count; and
            // `pop` agrees with the model at every step, which a kernel
            // holding a popped item, or missing a live one, could not do.
            for item in 0..N as u32 {
                let seen = model.best[item as usize] != Weight::MAX;
                prop_assert_eq!(dary.was_inserted(item), seen, "was_inserted({}) diverged", item);
            }
        }
        // Drain both to the end: the full pop sequences must agree.
        loop {
            let (a, b) = (dary.pop(), model.pop());
            prop_assert_eq!(a, b, "drain diverged");
            if a.is_none() {
                break;
            }
        }
        let c = dary.counters().since(epoch_base);
        // Same logical traffic: each lazy duplicate-push is an indexed
        // decrease-key, and the indexed kernel never re-pops.
        prop_assert_eq!(c.pushes, model.pushes);
        prop_assert_eq!(c.decrease_keys, model.improves);
        prop_assert_eq!(c.pops, model.pushes);
    }
}

/// Ties must break exactly like `BinaryHeap<(Reverse<Weight>, u32)>`:
/// equal keys pop in *descending* item order.
#[test]
fn tie_order_matches_std_kernel() {
    let mut dary = DaryHeap::new(8);
    let mut std_heap = BinaryHeap::new();
    for item in [3u32, 0, 6, 1, 5] {
        dary.push(7, item);
        std_heap.push((Reverse(7 as Weight), item));
    }
    while let Some((Reverse(k), item)) = std_heap.pop() {
        assert_eq!(dary.pop(), Some((k, item)));
    }
    assert_eq!(dary.pop(), None);
}
