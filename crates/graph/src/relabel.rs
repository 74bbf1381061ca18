//! Cache-conscious vertex renumbering.
//!
//! At road-network scale the distance kernels are memory-bound: the CSR
//! arrays no longer fit in cache and every relaxation risks a miss. The
//! single cheapest fix is to *renumber* vertices so that ids that are close
//! in the network (and therefore touched together by a search frontier) are
//! close in memory ("Simpler is More" — well-engineered layouts beat clever
//! structures at this scale). A [`Relabeling`] is a bijection between the
//! **external** numbering (whatever the dataset shipped) and a **local**,
//! cache-friendly numbering; [`Relabeling::apply`] produces the permuted CSR
//! graph and every index structure translates its stored ids once at build
//! time, so hot loops only ever see the local numbering.
//!
//! One order is provided: [`Relabeling::hilbert`] — Hilbert
//! space-filling-curve order over vertex coordinates (via
//! [`crate::morton`]): spatially adjacent vertices get adjacent ids without
//! needing connectivity, and the curve has no long jumps (unlike raw
//! Z-order).
//!
//! Renumbering is a pure relabeling: distances, degrees and coordinates are
//! carried along unchanged, so query *results* are bit-identical once
//! translated back through [`Relabeling::to_external`].

use crate::csr::{Graph, GraphBuilder};
use crate::morton::MortonSpace;
use crate::types::VertexId;

/// A bijection between external vertex ids and a cache-friendly local
/// numbering, with both directions materialized as dense `u32` vectors.
#[derive(Debug, Clone)]
pub struct Relabeling {
    /// `forward[external] = local`.
    forward: Vec<VertexId>,
    /// `inverse[local] = external`.
    inverse: Vec<VertexId>,
}

impl Relabeling {
    /// The identity relabeling on `n` vertices (the "original" layout axis).
    pub fn identity(n: usize) -> Self {
        let forward: Vec<VertexId> = (0..n as VertexId).collect();
        Relabeling {
            inverse: forward.clone(),
            forward,
        }
    }

    /// Builds a relabeling from a visit order: `order[local] = external`.
    ///
    /// # Panics
    /// If `order` is not a permutation of `0..n`.
    pub fn from_order(order: Vec<VertexId>) -> Self {
        match Relabeling::try_from_order(order) {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible twin of [`Relabeling::from_order`] for persisted orders:
    /// returns `Err` instead of panicking when `order` is not a
    /// permutation of `0..n` (the snapshot loader's entry point).
    ///
    /// # Errors
    /// A description of the first out-of-range or repeated external id.
    pub fn try_from_order(order: Vec<VertexId>) -> Result<Self, String> {
        let n = order.len();
        let mut forward = vec![VertexId::MAX; n];
        for (local, &ext) in order.iter().enumerate() {
            let slot = forward.get_mut(ext as usize).ok_or_else(|| {
                format!("order is not a permutation: external id {ext} out of range {n}")
            })?;
            if *slot != VertexId::MAX {
                return Err(format!(
                    "order is not a permutation: external id {ext} repeated"
                ));
            }
            *slot = local as VertexId;
        }
        Ok(Relabeling {
            forward,
            inverse: order,
        })
    }

    /// Hilbert-curve order over vertex coordinates. Ties (identical grid
    /// cells) break by ascending external id, so the order is deterministic.
    pub fn hilbert(graph: &Graph) -> Self {
        let n = graph.num_vertices();
        let (min, max) = graph.bounding_box();
        let space = MortonSpace::new(min, max);
        let mut order: Vec<VertexId> = (0..n as VertexId).collect();
        order.sort_by_key(|&v| (space.hilbert_code(graph.coord(v)), v));
        Relabeling::from_order(order)
    }

    /// Number of vertices covered by the bijection.
    pub fn len(&self) -> usize {
        self.forward.len()
    }

    /// True when the relabeling covers zero vertices.
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }

    /// Translates an external id to the local numbering.
    #[inline]
    pub fn to_local(&self, external: VertexId) -> VertexId {
        // PANIC-OK: forward is sized n and callers pass built vertex ids < n.
        self.forward[external as usize]
    }

    /// Translates a local id back to the external numbering.
    #[inline]
    pub fn to_external(&self, local: VertexId) -> VertexId {
        // PANIC-OK: inverse is sized n and callers pass built vertex ids < n.
        self.inverse[local as usize]
    }

    /// The full external→local vector (`forward[external] = local`).
    pub fn forward(&self) -> &[VertexId] {
        &self.forward
    }

    /// The full local→external vector (`inverse[local] = external`).
    pub fn inverse(&self) -> &[VertexId] {
        &self.inverse
    }

    /// Translates a slice of external ids to local ids in place. The
    /// boundary translation used by index structures when they relabel.
    pub fn map_in_place(&self, ids: &mut [VertexId]) {
        for v in ids {
            *v = self.to_local(*v);
        }
    }

    /// Permutes a per-vertex table from external to local indexing:
    /// `out[local] = table[external]`. Used for the G-tree leaf map and any
    /// other dense vertex-indexed array.
    pub fn permute_table<T: Copy>(&self, table: &[T]) -> Vec<T> {
        assert_eq!(table.len(), self.len(), "table is not vertex-indexed");
        self.inverse
            .iter()
            .map(|&ext| table[ext as usize])
            .collect()
    }

    /// Applies the relabeling to a built graph, producing the permuted CSR.
    ///
    /// Goes through [`GraphBuilder`] so the result is a canonically valid
    /// CSR (sorted adjacency, deduplicated) regardless of the permutation.
    /// This is a build-time operation, not a hot path.
    pub fn apply(&self, graph: &Graph) -> Graph {
        let n = graph.num_vertices();
        assert_eq!(n, self.len(), "relabeling size mismatch");
        let mut b = GraphBuilder::new(n);
        for v in 0..n as VertexId {
            b.set_coord(self.to_local(v), graph.coord(v));
        }
        for e in graph.edges() {
            b.add_edge(self.to_local(e.u), self.to_local(e.v), e.weight);
        }
        b.build()
    }

    /// Audit-mode validation: both composition directions must be the
    /// identity and both vectors must be in range.
    ///
    /// # Errors
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.len();
        if self.inverse.len() != n {
            return Err(format!(
                "forward/inverse length mismatch: {n} vs {}",
                self.inverse.len()
            ));
        }
        for (ext, &local) in self.forward.iter().enumerate() {
            if local as usize >= n {
                return Err(format!("forward[{ext}] = {local} out of range {n}"));
            }
            if self.inverse[local as usize] as usize != ext {
                return Err(format!(
                    "inverse(forward({ext})) = {} != {ext}",
                    self.inverse[local as usize]
                ));
            }
        }
        for (local, &ext) in self.inverse.iter().enumerate() {
            if ext as usize >= n {
                return Err(format!("inverse[{local}] = {ext} out of range {n}"));
            }
            if self.forward[ext as usize] as usize != local {
                return Err(format!(
                    "forward(inverse({local})) = {} != {local}",
                    self.forward[ext as usize]
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{road_network, RoadNetworkConfig};
    use crate::types::Point;

    fn network(n: usize) -> Graph {
        road_network(&RoadNetworkConfig::new(n, 11))
    }

    #[test]
    fn identity_is_valid_and_trivial() {
        let r = Relabeling::identity(10);
        r.validate().unwrap();
        assert_eq!(r.to_local(7), 7);
        assert_eq!(r.to_external(7), 7);
    }

    #[test]
    fn hilbert_is_a_permutation() {
        let g = network(400);
        let r = Relabeling::hilbert(&g);
        r.validate().unwrap();
        assert_eq!(r.len(), g.num_vertices());
    }

    #[test]
    fn apply_preserves_structure() {
        let g = network(300);
        let r = Relabeling::hilbert(&g);
        let h = r.apply(&g);
        assert_eq!(h.num_vertices(), g.num_vertices());
        assert_eq!(h.num_edges(), g.num_edges());
        for v in 0..g.num_vertices() as VertexId {
            assert_eq!(h.coord(r.to_local(v)), g.coord(v));
            assert_eq!(h.degree(r.to_local(v)), g.degree(v));
        }
        for e in g.edges() {
            assert_eq!(
                h.edge_weight(r.to_local(e.u), r.to_local(e.v)),
                Some(e.weight)
            );
        }
    }

    #[test]
    fn hilbert_recovers_locality_from_a_scrambled_numbering() {
        // The whole point: on a graph whose numbering carries no locality
        // (a deterministic scramble of the generator's near-local order),
        // Hilbert renumbering must sharply shrink the mean |u − v| id gap
        // across edges.
        let g = network(2000);
        let n = g.num_vertices();
        // Deterministic scramble: multiply by an odd constant mod n via
        // a Fisher–Yates with an xorshift stream.
        let mut perm: Vec<VertexId> = (0..n as VertexId).collect();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..n).rev() {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let j = (state.wrapping_mul(0x2545_f491_4f6c_dd1d) % (i as u64 + 1)) as usize;
            perm.swap(i, j);
        }
        let scrambled = Relabeling::from_order(perm).apply(&g);
        let gap = |g: &Graph| -> u64 {
            g.edges().map(|e| u64::from(e.u.abs_diff(e.v))).sum::<u64>() / g.num_edges() as u64
        };
        let before = gap(&scrambled);
        let after = gap(&Relabeling::hilbert(&scrambled).apply(&scrambled));
        assert!(
            after * 4 < before,
            "hilbert layout left id gaps wide: {after} vs scrambled {before}"
        );
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn from_order_rejects_duplicates() {
        let _ = Relabeling::from_order(vec![0, 1, 1]);
    }

    #[test]
    fn validate_catches_corruption() {
        let mut r = Relabeling::identity(4);
        r.forward[0] = 2; // now 0 and 2 both map to 2
        assert!(r.validate().is_err());
    }

    #[test]
    fn permute_table_relocates_rows() {
        let mut b = GraphBuilder::new(3);
        b.set_coord(0, Point::new(9, 9));
        b.set_coord(1, Point::new(0, 0));
        b.set_coord(2, Point::new(5, 5));
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 1);
        let g = b.build();
        let r = Relabeling::hilbert(&g);
        let table = vec![10u32, 11, 12]; // table[external]
        let permuted = r.permute_table(&table);
        for ext in 0..3u32 {
            assert_eq!(permuted[r.to_local(ext) as usize], table[ext as usize]);
        }
    }
}
