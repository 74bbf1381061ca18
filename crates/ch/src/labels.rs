//! The exhaustive upward search that fills a [`Labels`] store — the
//! forward half of [`crate::ChQuery`].

use kspin_graph::{weight_add, DaryHeap, Labels, VertexId};

use crate::construction::ContractionHierarchy;

/// Replaces `labels` with the upward search space of `source`: a Dijkstra
/// over upward arcs run to exhaustion on `heap`.
pub(crate) fn fill_upward(
    labels: &mut Labels,
    ch: &ContractionHierarchy,
    heap: &mut DaryHeap,
    source: VertexId,
) {
    labels.reset();
    heap.clear();
    labels.set(source, 0);
    heap.insert_or_decrease(0, source);
    while let Some((d, v)) = heap.pop() {
        for (u, w) in ch.upward(v) {
            let nd = weight_add(d, w);
            if nd < labels.get(u) {
                labels.set(u, nd);
                heap.insert_or_decrease(nd, u);
            }
        }
    }
}
