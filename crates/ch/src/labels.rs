//! Epoch-stamped distance labels and the exhaustive upward search that
//! fills them — the label store of [`crate::ChQuery`]'s two searches.

use kspin_graph::{weight_add, DaryHeap, VertexId, Weight, INFINITY};

use crate::construction::ContractionHierarchy;

/// One search's distance labels, epoch-stamped so [`Labels::reset`] is O(1).
pub(crate) struct Labels {
    dist: Vec<Weight>,
    epoch: Vec<u32>,
    cur: u32,
}

impl Labels {
    pub(crate) fn new(n: usize) -> Self {
        Labels {
            dist: vec![INFINITY; n],
            epoch: vec![0; n],
            cur: 0,
        }
    }

    /// Forgets every label.
    pub(crate) fn reset(&mut self) {
        self.cur = self.cur.wrapping_add(1);
        if self.cur == 0 {
            // Extremely rare wrap: force-refresh every slot.
            self.epoch.iter_mut().for_each(|e| *e = u32::MAX);
            self.cur = 1;
        }
    }

    /// Replaces the labels with the upward search space of `source`: a
    /// Dijkstra over upward arcs run to exhaustion on `heap`.
    pub(crate) fn fill_upward(
        &mut self,
        ch: &ContractionHierarchy,
        heap: &mut DaryHeap,
        source: VertexId,
    ) {
        self.reset();
        heap.clear();
        self.set(source, 0);
        heap.insert_or_decrease(0, source);
        while let Some((d, v)) = heap.pop() {
            for (u, w) in ch.upward(v) {
                let nd = weight_add(d, w);
                if nd < self.get(u) {
                    self.set(u, nd);
                    heap.insert_or_decrease(nd, u);
                }
            }
        }
    }

    /// The label of `v`, [`INFINITY`] if unset since the last reset.
    #[inline]
    pub(crate) fn get(&self, v: VertexId) -> Weight {
        // PANIC-OK: dist/epoch are sized num_vertices at new(); v is a
        // graph vertex < n.
        if self.epoch[v as usize] == self.cur {
            self.dist[v as usize] // PANIC-OK: bounds as above.
        } else {
            INFINITY
        }
    }

    #[inline]
    pub(crate) fn set(&mut self, v: VertexId, d: Weight) {
        // PANIC-OK: dist/epoch are sized num_vertices at new(); v is a
        // graph vertex < n.
        self.epoch[v as usize] = self.cur;
        self.dist[v as usize] = d; // PANIC-OK: bounds as above.
    }
}
