//! Connected-component analysis.
//!
//! NVDs partition *all* vertices among objects, which only makes sense on a
//! connected graph (§2 assumes one). The synthetic generator and the DIMACS
//! loader both funnel through [`largest_component`] to guarantee this.

use crate::csr::{Graph, GraphBuilder};
use crate::types::VertexId;

/// Labels each vertex with a component id in `0..k` and returns
/// `(labels, component_sizes)`.
pub fn components(graph: &Graph) -> (Vec<u32>, Vec<usize>) {
    let n = graph.num_vertices();
    let mut label = vec![u32::MAX; n];
    let mut sizes = Vec::new();
    let mut stack = Vec::new();
    for start in 0..n as VertexId {
        if label[start as usize] != u32::MAX {
            continue;
        }
        let id = sizes.len() as u32;
        let mut size = 0usize;
        stack.push(start);
        label[start as usize] = id;
        while let Some(v) = stack.pop() {
            size += 1;
            for (u, _) in graph.neighbors(v) {
                if label[u as usize] == u32::MAX {
                    label[u as usize] = id;
                    stack.push(u);
                }
            }
        }
        sizes.push(size);
    }
    (label, sizes)
}

/// Extracts the largest connected component as a new graph with dense
/// renumbered vertex ids, returning `(subgraph, old_id_of_new)` where
/// `old_id_of_new[new] = old`.
pub fn largest_component(graph: &Graph) -> (Graph, Vec<VertexId>) {
    let (labels, sizes) = components(graph);
    if sizes.len() <= 1 {
        let ids = (0..graph.num_vertices() as VertexId).collect();
        return (graph.clone(), ids);
    }
    let best = sizes
        .iter()
        .enumerate()
        .max_by_key(|&(_, s)| *s)
        .map(|(i, _)| i as u32)
        .expect("non-empty component list");
    let mut new_of_old = vec![VertexId::MAX; graph.num_vertices()];
    let mut old_of_new = Vec::new();
    for v in 0..graph.num_vertices() {
        if labels[v] == best {
            new_of_old[v] = old_of_new.len() as VertexId;
            old_of_new.push(v as VertexId);
        }
    }
    let mut b = GraphBuilder::new(old_of_new.len());
    for (new, &old) in old_of_new.iter().enumerate() {
        b.set_coord(new as VertexId, graph.coord(old));
    }
    for e in graph.edges() {
        let (nu, nv) = (new_of_old[e.u as usize], new_of_old[e.v as usize]);
        if nu != VertexId::MAX && nv != VertexId::MAX {
            b.add_edge(nu, nv, e.weight);
        }
    }
    (b.build(), old_of_new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Point;

    /// Two components: {0,1,2} (a path) and {3,4}; vertex 5 isolated.
    fn disconnected() -> Graph {
        let mut b = GraphBuilder::new(6);
        for v in 0..6 {
            b.set_coord(v, Point::new(v as i32, 0));
        }
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 1);
        b.add_edge(3, 4, 1);
        b.build()
    }

    #[test]
    fn counts_components_and_sizes() {
        let g = disconnected();
        let (labels, sizes) = components(&g);
        assert_eq!(sizes.len(), 3);
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2, 3]);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_ne!(labels[0], labels[3]);
        assert_ne!(labels[3], labels[5]);
    }

    #[test]
    fn connected_graphs_have_at_most_one_component() {
        assert_eq!(components(&disconnected()).1.len(), 3);
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 1);
        assert_eq!(components(&b.build()).1.len(), 1);
        assert!(components(&GraphBuilder::new(0).build()).1.is_empty());
    }

    #[test]
    fn largest_component_extracts_and_renumbers() {
        let g = disconnected();
        let (sub, old_ids) = largest_component(&g);
        assert_eq!(sub.num_vertices(), 3);
        assert_eq!(sub.num_edges(), 2);
        assert_eq!(components(&sub).1.len(), 1);
        assert_eq!(old_ids, vec![0, 1, 2]);
        // Coordinates follow the renumbering.
        assert_eq!(sub.coord(2), Point::new(2, 0));
    }

    #[test]
    fn connected_graph_passes_through_unchanged() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 1);
        let g = b.build();
        let (sub, ids) = largest_component(&g);
        assert_eq!(sub.num_vertices(), 3);
        assert_eq!(ids, vec![0, 1, 2]);
    }
}
