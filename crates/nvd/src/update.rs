//! §6.2 lazy updates on a [`ApproxNvd`].
//!
//! * **Deletion** — mark-only, in the owning keyword's object table; the
//!   NVD is untouched. The Heap Generator skips deleted objects but still
//!   expands their adjacency.
//! * **Insertion** — compute the *affected set* `A(o)` via a BFS over the
//!   adjacency graph from the 1NN of the new object, pruned by Theorem 2
//!   (`p ∉ A(o)` if `d(o,p) ≥ 2·MaxRadius(p)`), then link the new object to
//!   every affected generator in the adjacency graph. The quadtree itself
//!   is untouched — that is the "lazy" part; a rebuild of the keyword
//!   (`KspinIndex::rebuild_term`) folds everything back in.
//!
//! The paper notes that the earlier claim in [18] — that only the 1NN and
//! its adjacent objects are affected — is *incorrect* (Fig. 7); the
//! Theorem-2 BFS is the fix, and `affected_set` reproduces it.

use kspin_graph::{Point, Weight};

use crate::approx::ApproxNvd;

impl ApproxNvd {
    /// Computes the Theorem-2 affected set of a new object at `coord`.
    ///
    /// `dist(c)` must return the exact network distance from the new
    /// object to generator `c` (the framework wires in its Network
    /// Distance Module and the keyword's vertex of `c` here). `coord` is
    /// the new object's coordinate, used for quadtree point location.
    #[expect(
        clippy::indexing_slicing,
        reason = "update path: leaf candidates are original generators, and a is read only \
                  below originals, visited's length"
    )]
    pub fn affected_set<F>(&self, coord: Point, dist: &mut F) -> Vec<u32>
    where
        F: FnMut(u32) -> Weight,
    {
        // 1NN among the original generators: guaranteed to be among the leaf
        // candidates by Definition 1 (deleted originals keep their stale
        // cells until rebuild, so they stay eligible here).
        let cands = self.leaf_candidates(coord);
        #[expect(
            clippy::expect_used,
            reason = "every quadtree leaf is seeded with at least one generator candidate at \
                      build time (Definition 1), so `leaf_candidates` can never return an \
                      empty set"
        )]
        let p = cands
            .iter()
            .copied()
            .min_by_key(|&c| dist(c))
            .expect("leaf candidates are never empty");

        let originals = self.num_original() as u32;
        let mut affected = vec![p];
        let mut visited = vec![false; originals as usize];
        visited[p as usize] = true;
        let mut frontier = vec![p];
        while let Some(e) = frontier.pop() {
            for &a in self.adjacent(e) {
                if a >= originals || visited[a as usize] {
                    continue; // inserted objects have no cells to affect
                }
                visited[a as usize] = true;
                let d = dist(a);
                // Theorem 2: beyond twice the cell radius the cell cannot
                // gain the new object as 1NN; prune the BFS there.
                if d >= 2 * self.max_radius(a).max(1) {
                    continue;
                }
                affected.push(a);
                frontier.push(a);
            }
        }
        affected
    }

    /// Lazily inserts a new object at `coord`, returning its object id,
    /// the next after every id so far.
    ///
    /// The object is linked, in the adjacency graph, to every generator of
    /// its affected set: heap initialization reads the inserted neighbours
    /// of the leaf's generators ([`ApproxNvd::init_candidates`]) and
    /// LazyReheap the neighbours of each extraction, so that one edge
    /// serves both.
    pub fn insert_object<F>(&mut self, coord: Point, dist: &mut F) -> u32
    where
        F: FnMut(u32) -> Weight,
    {
        let affected = self.affected_set(coord, dist);
        self.adjacency.push_node(&affected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{ExactNvd, SweepScratch};
    use kspin_graph::generate::{road_network, RoadNetworkConfig};
    use kspin_graph::{Dijkstra, Graph, VertexId};

    fn setup(n: usize, gens: usize, seed: u64) -> (Graph, Vec<VertexId>, ApproxNvd) {
        let g = road_network(&RoadNetworkConfig::new(n, seed));
        let step = (g.num_vertices() / gens).max(1);
        let generators: Vec<VertexId> = (0..gens).map(|i| (i * step) as VertexId).collect();
        let apx = ApproxNvd::build(&g, &generators, 4, &mut SweepScratch::default());
        (g, generators, apx)
    }

    /// True affected set by brute force: owners whose cell contains a
    /// vertex for which the new object becomes strictly nearer.
    fn brute_affected(
        g: &Graph,
        gens: &[VertexId],
        new_vertex: VertexId,
    ) -> std::collections::BTreeSet<u32> {
        let mut dij = Dijkstra::new(g.num_vertices());
        let exact = ExactNvd::build(g, gens, &mut SweepScratch::default());
        dij.sssp(g, new_vertex);
        let space = dij.space();
        let mut affected = std::collections::BTreeSet::new();
        for v in 0..g.num_vertices() as VertexId {
            let dn = space.distance(v).unwrap();
            if dn < exact.dist_to_owner(v) {
                affected.insert(exact.owner(v).unwrap());
            }
        }
        affected
    }

    #[test]
    fn affected_set_is_a_superset_of_the_truth() {
        let (g, gens, apx) = setup(600, 15, 41);
        let mut dij = Dijkstra::new(g.num_vertices());
        for &new_vertex in &[3u32, 77, 301, 555] {
            let new_vertex = new_vertex.min(g.num_vertices() as u32 - 1);
            if gens.contains(&new_vertex) {
                continue;
            }
            let mut dist = |c: u32| dij.one_to_one(&g, new_vertex, gens[c as usize]);
            let ours: std::collections::BTreeSet<u32> = apx
                .affected_set(g.coord(new_vertex), &mut dist)
                .into_iter()
                .collect();
            let truth = brute_affected(&g, &gens, new_vertex);
            for t in &truth {
                assert!(
                    ours.contains(t),
                    "vertex {new_vertex}: missing affected generator {t} (ours: {ours:?})"
                );
            }
        }
    }

    #[test]
    fn inserted_object_appears_in_init_candidates_where_it_wins() {
        let (g, gens, mut apx) = setup(600, 15, 42);
        let mut dij = Dijkstra::new(g.num_vertices());
        let new_vertex = 123u32.min(g.num_vertices() as u32 - 1);
        assert!(!gens.contains(&new_vertex));
        let mut dist = |c: u32| dij.one_to_one(&g, new_vertex, gens[c as usize]);
        let new_id = apx.insert_object(g.coord(new_vertex), &mut dist);

        // Every vertex whose new 1NN is the inserted object must see it in
        // its heap-initialization candidates.
        let truth = brute_affected(&g, &gens, new_vertex);
        assert!(
            !truth.is_empty(),
            "test vertex affects nothing; pick another"
        );
        let mut dij2 = Dijkstra::new(g.num_vertices());
        dij2.sssp(&g, new_vertex);
        let space = dij2.space();
        let exact = ExactNvd::build(&g, &gens, &mut SweepScratch::default());
        for v in 0..g.num_vertices() as VertexId {
            if space.distance(v).unwrap() < exact.dist_to_owner(v) {
                assert!(
                    apx.init_candidates(g.coord(v)).any(|c| c == new_id),
                    "vertex {v}: new 1NN {new_id} missing from init candidates"
                );
            }
        }
    }

    #[test]
    fn inserted_object_is_linked_into_adjacency() {
        let (g, gens, mut apx) = setup(400, 10, 43);
        let mut dij = Dijkstra::new(g.num_vertices());
        let v = 200u32.min(g.num_vertices() as u32 - 1);
        let mut dist = |c: u32| dij.one_to_one(&g, v, gens[c as usize]);
        let id = apx.insert_object(g.coord(v), &mut dist);
        assert!(!apx.adjacent(id).is_empty());
        for &a in apx.adjacent(id) {
            assert!(apx.adjacent(a).contains(&id));
        }
        assert_eq!(id, 10);
        assert_eq!(apx.num_total(), 11);
    }

    /// The adjacency graph is the only record of a lazy insert: after a
    /// long insert stream the heap seeds are exactly the leaf's generators
    /// plus their inserted neighbours, and every inserted object that is
    /// now nearer to a vertex than all build-time generators (its 1NN
    /// among them) is seeded there.
    #[test]
    fn seeds_are_the_leaf_generators_and_their_inserted_neighbours() {
        use std::collections::BTreeSet;
        let (g, gens, mut apx) = setup(700, 20, 46);
        let mut dij = Dijkstra::new(g.num_vertices());
        // Local id → vertex, generators first: the keyword's record.
        let mut vertices = gens.clone();
        let fresh = (0..g.num_vertices() as VertexId).filter(|v| !gens.contains(v));
        for v in fresh.step_by(6) {
            let mut dist = |c: u32| dij.one_to_one(&g, v, vertices[c as usize]);
            let id = apx.insert_object(g.coord(v), &mut dist);
            assert_eq!(id as usize, vertices.len());
            vertices.push(v);
        }
        let inserted = vertices.len() - gens.len();
        assert!(inserted >= 100, "only {inserted} inserts applied");
        apx.validate().expect("updated NVD audits clean");

        let originals = apx.num_original() as u32;
        let mut sssp = Dijkstra::new(g.num_vertices());
        for v in (0..g.num_vertices() as VertexId).step_by(7) {
            let seeds: BTreeSet<u32> = apx.init_candidates(g.coord(v)).collect();
            let leaf = apx.leaf_candidates(g.coord(v));
            let mut want: BTreeSet<u32> = leaf.iter().copied().collect();
            for &c in leaf {
                want.extend(apx.adjacent(c).iter().filter(|&&a| a >= originals));
            }
            assert_eq!(seeds, want, "vertex {v}");

            sssp.sssp(&g, v);
            let d = |id: u32| sssp.space().distance(vertices[id as usize]).unwrap();
            let nearest_original = (0..originals).map(d).min().unwrap();
            for id in originals..apx.num_total() as u32 {
                assert!(
                    d(id) >= nearest_original || seeds.contains(&id),
                    "vertex {v}: inserted {id} beats every generator but is not seeded"
                );
            }
        }
    }
}
