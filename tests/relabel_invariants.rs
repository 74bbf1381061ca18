//! Property tests for vertex-numbering invariance.
//!
//! A dataset's vertex ids are arbitrary: the same road network may ship
//! under any numbering. Every distance module built on a renumbered copy
//! of a graph must answer the renumbered queries bit-identically to the
//! original — Dijkstra directly, CH and a ρ-approximate NVD keyword index
//! each built from scratch on the renumbered graph.
//! proptest drives the topology and the numbering; failures shrink to a
//! minimal counterexample.

use proptest::prelude::*;

use kspin_ch::{ChConfig, ChQuery, ContractionHierarchy};
use kspin_core::{DijkstraDistance, ExactLowerBound, KspinConfig, KspinIndex, Op, QueryEngine};
use kspin_graph::{Dijkstra, Graph, GraphBuilder, VertexId, Weight};
use kspin_text::CorpusBuilder;

/// A connected random graph: a spanning path plus random extra edges.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (
        5usize..40,
        proptest::collection::vec((0u32..40, 0u32..40, 1u32..100), 0..60),
    )
        .prop_map(|(n, extras)| {
            let mut b = GraphBuilder::new(n);
            for v in 0..n as u32 {
                b.set_coord(
                    v,
                    kspin_graph::Point::new((v as i32 * 37) % 100, (v as i32 * 61) % 100),
                );
            }
            // Spanning path guarantees connectivity.
            for v in 0..n as u32 - 1 {
                b.add_edge(v, v + 1, 1 + (v % 7));
            }
            for (u, v, w) in extras {
                let (u, v) = (u % n as u32, v % n as u32);
                if u != v {
                    b.add_edge(u, v, w);
                }
            }
            b.build()
        })
}

/// A deterministic permutation of `0..n`: Fisher–Yates driven by an
/// xorshift64 stream seeded from `seed`.
fn scrambled_order(n: usize, seed: u64) -> Vec<VertexId> {
    let mut order: Vec<VertexId> = (0..n as VertexId).collect();
    let mut s = seed | 1;
    for i in (1..n).rev() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        order.swap(i, (s % (i as u64 + 1)) as usize);
    }
    order
}

/// `g` under the new numbering `id[old]`: same coordinates, same edges.
fn renumber(g: &Graph, id: &[VertexId]) -> Graph {
    let mut b = GraphBuilder::new(g.num_vertices());
    for v in 0..g.num_vertices() as VertexId {
        b.set_coord(id[v as usize], g.coord(v));
    }
    for e in g.edges() {
        b.add_edge(id[e.u as usize], id[e.v as usize], e.weight);
    }
    b.build()
}

/// Every numbering under test (`id[old] = new`) with `g` renumbered by it.
fn numberings(g: &Graph, seed: u64) -> Vec<(&'static str, Vec<VertexId>, Graph)> {
    let n = g.num_vertices() as VertexId;
    [
        ("identity", (0..n).collect()),
        ("reversed", (0..n).rev().collect()),
        ("scrambled", scrambled_order(n as usize, seed)),
    ]
    .into_iter()
    .map(|(name, id): (&'static str, Vec<VertexId>)| {
        let pg = renumber(g, &id);
        (name, id, pg)
    })
    .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn relabeled_graphs_answer_dijkstra_bit_identically(
        g in arb_graph(),
        seed in 0u64..u64::MAX,
        s in 0u32..40,
        t in 0u32..40,
    ) {
        let n = g.num_vertices() as u32;
        let (s, t) = (s % n, t % n);
        let mut dij = Dijkstra::new(g.num_vertices());
        let want_one = dij.one_to_one(&g, s, t);
        let targets: Vec<VertexId> = (0..n).step_by(3).collect();
        let want_many = dij.one_to_many(&g, s, &targets);
        for (name, id, pg) in numberings(&g, seed) {
            let (ps, pt) = (id[s as usize], id[t as usize]);
            let mut pdij = Dijkstra::new(pg.num_vertices());
            prop_assert_eq!(pdij.one_to_one(&pg, ps, pt), want_one, "{}", name);
            let ptargets: Vec<VertexId> = targets.iter().map(|&v| id[v as usize]).collect();
            let got_many = pdij.one_to_many(&pg, ps, &ptargets);
            prop_assert_eq!(&got_many, &want_many, "{}", name);
        }
    }

    #[test]
    fn relabeled_ch_answers_bit_identically(
        g in arb_graph(),
        seed in 0u64..u64::MAX,
        s in 0u32..40,
    ) {
        let n = g.num_vertices() as u32;
        let s = s % n;
        let mut dij = Dijkstra::new(g.num_vertices());
        let want: Vec<Weight> = (0..n).map(|t| dij.one_to_one(&g, s, t)).collect();
        for (name, id, pg) in numberings(&g, seed) {
            // Contraction order breaks ties by id, so each numbering builds
            // its own hierarchy; every shortcut is still a real path.
            let pch = ContractionHierarchy::build(&pg, &ChConfig::default());
            let mut pq = ChQuery::new(&pch);
            for t in 0..n {
                prop_assert_eq!(
                    pq.distance(id[s as usize], id[t as usize]),
                    want[t as usize],
                    "{} ({}, {})", name, s, t
                );
            }
        }
    }

    #[test]
    fn relabeled_nvd_answers_knn_bit_identically(
        g in arb_graph(),
        seed in 0u64..u64::MAX,
        gens_raw in proptest::collection::btree_set(0u32..40, 1..8),
        rho in 1usize..5,
        q in 0u32..40,
        k in 0usize..6,
    ) {
        let n = g.num_vertices() as u32;
        let q = q % n;
        let gens: Vec<VertexId> = gens_raw.into_iter().map(|v| v % n)
            .collect::<std::collections::BTreeSet<_>>().into_iter().collect();
        // More objects than ρ, so the keyword gets an NVD (Observation 1)
        // whenever there are two generators or more.
        let rho = rho.clamp(1, gens.len().max(2) - 1);
        // BkNN over one keyword that every generator, and nothing else,
        // carries: Algorithm 1 over that keyword's ρ-approximate NVD. k
        // runs from 0 to past the generator count.
        let knn = |g: &Graph, gens: &[VertexId], q: VertexId| -> Vec<Weight> {
            let mut b = CorpusBuilder::new();
            for &v in gens {
                b.add_object(v, &[(0, 1)]);
            }
            let corpus = b.build();
            let config = KspinConfig { rho, list_max: rho, num_threads: 1 };
            let index = KspinIndex::build(g, &corpus, &config);
            let bound = ExactLowerBound::new(g);
            let mut engine = QueryEngine::new(g, &corpus, &index, &bound, DijkstraDistance::new(g));
            engine.bknn(q, k, &[0], Op::Or).into_iter().map(|(_, d)| d).collect()
        };
        let want = knn(&g, &gens, q);
        let mut oracle = Dijkstra::new(g.num_vertices()).one_to_many(&g, q, &gens);
        oracle.sort_unstable();
        oracle.truncate(k);
        prop_assert_eq!(&want, &oracle);
        for (name, id, pg) in numberings(&g, seed) {
            // Generators keep their list order, hence their object ids. A
            // Voronoi boundary tie may fall to another generator under
            // another numbering, so equal-distance objects may swap
            // places; the k distances may not.
            let pgens: Vec<VertexId> = gens.iter().map(|&v| id[v as usize]).collect();
            let got = knn(&pg, &pgens, id[q as usize]);
            prop_assert_eq!(&got, &want, "{}", name);
        }
    }
}
