//! Source-pinned point-to-point distances over a built hierarchy.

use kspin_graph::{weight_add, DaryHeap, HeapCounters, Labels, VertexId, Weight, INFINITY};

use crate::construction::ContractionHierarchy;
use crate::labels::fill_upward;

/// Reusable point-to-point query state.
///
/// Every caller in this workspace asks for many distances from one source
/// in a row (a query vertex against its candidates, §3 module 2), so the
/// source's half of the search is computed once and kept: the first call
/// from a source `s` runs an unpruned upward Dijkstra from `s` into the
/// *forward space* and pins it; every call then runs only the backward
/// upward search from `t`, combining each settled vertex with the pinned
/// forward distance. A call from another source re-pins.
///
/// The query processors also ask for one target again from the same
/// source (a stream runs its query types back to back at one query
/// vertex), so every finite distance returned since the last re-pin is
/// kept, and a repeated `(s, t)` is answered from it without a search.
/// Re-pinning forgets them all. A disconnected pair is searched again:
/// [`INFINITY`] is also what an unset slot reads.
///
/// Exactness is the usual CH argument: the top vertex of a shortest up–down
/// path is settled with its true distance by both upward searches, so the
/// minimum over vertices both searches reach is `d(s, t)`; the backward
/// cut-off fires only once no unsettled vertex can improve on `best`. The
/// result never depends on what was pinned or answered before the call:
/// a kept answer is the value the same search returned.
///
/// All arrays and the heap are sized to the vertex count at construction
/// and epoch-stamped, so a `ChQuery` performs no allocation afterwards.
/// The kept answers cost one more `n`-entry [`Labels`]: 8 B per vertex.
pub struct ChQuery<'a> {
    ch: &'a ContractionHierarchy,
    /// Upward distances from `pinned` — the forward space.
    fwd: Labels,
    pinned: Option<VertexId>,
    /// Distances already returned from `pinned`, by target.
    answered: Labels,
    /// Tentative backward distances of the current call.
    bwd: Labels,
    /// Shared by the two searches: they never run interleaved.
    heap: DaryHeap,
}

impl<'a> ChQuery<'a> {
    /// Creates query state for `ch`.
    pub fn new(ch: &'a ContractionHierarchy) -> Self {
        let n = ch.num_vertices();
        ChQuery {
            ch,
            fwd: Labels::new(n, INFINITY),
            pinned: None,
            answered: Labels::new(n, INFINITY),
            bwd: Labels::new(n, INFINITY),
            heap: DaryHeap::new(n),
        }
    }

    /// Exact network distance between `s` and `t` ([`INFINITY`] when
    /// disconnected).
    pub fn distance(&mut self, s: VertexId, t: VertexId) -> Weight {
        if s == t {
            return 0;
        }
        if self.pinned != Some(s) {
            // Unpruned: the targets this space will serve are not known yet.
            fill_upward(&mut self.fwd, self.ch, &mut self.heap, s);
            self.pinned = Some(s);
            self.answered.reset();
        }
        let known = self.answered.get(t);
        if known < INFINITY {
            return known;
        }
        self.bwd.reset();
        self.heap.clear();
        self.bwd.set(t, 0);
        self.heap.insert_or_decrease(0, t);
        let mut best = INFINITY;
        while let Some((d, v)) = self.heap.pop() {
            if d >= best {
                break; // Every unsettled vertex is at least this far from t.
            }
            let fd = self.fwd.get(v);
            if fd < INFINITY {
                best = best.min(weight_add(d, fd));
            }
            for (u, w) in self.ch.upward(v) {
                let nd = weight_add(d, w);
                if nd < best && nd < self.bwd.get(u) {
                    self.bwd.set(u, nd);
                    self.heap.insert_or_decrease(nd, u);
                }
            }
        }
        self.answered.set(t, best);
        best
    }

    /// Cumulative counters of the heap both searches run on.
    pub fn heap_counters(&self) -> HeapCounters {
        self.heap.counters()
    }
}
