//! The epoch-stamped label store of the point-to-point kernels.
//!
//! Every search that labels vertices with tentative distances and must
//! forget them all before the next call — both sides of [`BiDijkstra`],
//! ALT A*, both searches of a CH query, the CH witness search — keeps them
//! here, so the bounds argument of the indexing (`v < n`, arrays sized
//! `n`) and the `u32` epoch wrap are stated once. [`Dijkstra`] keeps its
//! own arrays: its stamp also resets `settled` and `parent`, a different
//! record.
//!
//! [`BiDijkstra`]: crate::BiDijkstra
//! [`Dijkstra`]: crate::Dijkstra

use crate::types::{VertexId, Weight, INFINITY};

/// One search's distance labels over vertices `0..n`, epoch-stamped so
/// [`Labels::reset`] is O(1).
#[derive(Debug, Clone)]
pub struct Labels {
    dist: Vec<Weight>,
    epoch: Vec<u32>,
    cur: u32,
}

impl Labels {
    /// Creates an all-unset store for vertices `0..n`.
    pub fn new(n: usize) -> Self {
        Labels {
            dist: vec![INFINITY; n],
            epoch: vec![0; n],
            cur: 0,
        }
    }

    /// Forgets every label.
    #[inline]
    pub fn reset(&mut self) {
        self.cur = self.cur.wrapping_add(1);
        if self.cur == 0 {
            // Extremely rare wrap: zero every stamp and restart at 1, the
            // one stamp value no later epoch takes before the next wrap.
            self.epoch.fill(0);
            self.cur = 1;
        }
    }

    /// The label of `v`, [`INFINITY`] if unset since the last reset.
    #[inline]
    pub fn get(&self, v: VertexId) -> Weight {
        #[expect(
            clippy::indexing_slicing,
            reason = "dist/epoch are sized n at new(); v is a vertex id < n of the graph \
                      the store was sized for"
        )]
        if self.epoch[v as usize] == self.cur {
            self.dist[v as usize]
        } else {
            INFINITY
        }
    }

    /// Labels `v` with `d`.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "dist/epoch are sized n at new(); v is a vertex id < n of the graph \
                  the store was sized for"
    )]
    pub fn set(&mut self, v: VertexId, d: Weight) {
        self.epoch[v as usize] = self.cur;
        self.dist[v as usize] = d;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_vertices_read_infinity() {
        let mut l = Labels::new(3);
        assert_eq!(l.get(0), INFINITY);
        l.reset();
        l.set(1, 7);
        assert_eq!((l.get(0), l.get(1), l.get(2)), (INFINITY, 7, INFINITY));
    }

    #[test]
    fn reset_forgets_every_label_without_touching_the_arrays() {
        let mut l = Labels::new(4);
        l.reset();
        for v in 0..4 {
            l.set(v, v + 1);
        }
        let stamps = l.epoch.clone();
        l.reset();
        assert_eq!(l.epoch, stamps, "reset is an epoch bump, not a sweep");
        assert!((0..4).all(|v| l.get(v) == INFINITY));
        l.set(2, 9);
        assert_eq!(l.get(2), 9);
    }

    #[test]
    fn epoch_wrap_refreshes_stale_stamps() {
        let mut l = Labels::new(3);
        l.cur = u32::MAX - 1;
        l.set(0, 5); // stamped u32::MAX - 1
        l.reset(); // u32::MAX
        assert_eq!(l.get(0), INFINITY);
        l.set(1, 6); // stamped u32::MAX
        l.reset(); // wraps: every stamp refreshed, epoch restarts at 1
        assert_eq!(l.cur, 1);
        assert!((0..3).all(|v| l.get(v) == INFINITY));
        l.set(2, 7);
        assert_eq!(l.get(2), 7);
        // A stamp written by the refresh never equals a later epoch: replay
        // the last epoch before the *next* wrap over labels untouched since.
        l.cur = u32::MAX - 1;
        l.reset();
        assert_eq!((l.get(0), l.get(1)), (INFINITY, INFINITY));
    }
}
