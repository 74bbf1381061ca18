//! Property tests for cache-conscious vertex renumbering.
//!
//! A `Relabeling` must be invisible at the query level: every distance
//! kernel run on the permuted graph (with permuted endpoints) answers
//! bit-identically to the identity labeling, and the forward/inverse
//! permutation vectors compose to the identity both ways. proptest
//! drives the topology and the permutation; failures shrink to a
//! minimal counterexample.

use proptest::prelude::*;

use kspin_alt::{AltAstar, AltIndex, LandmarkStrategy};
use kspin_ch::{ChConfig, ChQuery, ContractionHierarchy};
use kspin_graph::{BiDijkstra, Dijkstra, Graph, GraphBuilder, Relabeling, VertexId, Weight};
use kspin_nvd::ApproxNvd;

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

/// Every relabeling family under test, derived from one graph + seed.
fn relabelings(g: &Graph, seed: u64) -> Vec<(&'static str, Relabeling)> {
    vec![
        ("identity", Relabeling::identity(g.num_vertices())),
        ("hilbert", Relabeling::hilbert(g)),
        (
            "scrambled",
            Relabeling::from_order(scrambled_order(g.num_vertices(), seed)),
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn forward_and_inverse_compose_to_the_identity(g in arb_graph(), seed in 0u64..u64::MAX) {
        for (name, r) in relabelings(&g, seed) {
            prop_assert!(r.validate().is_ok(), "{name}: {:?}", r.validate().err());
            prop_assert_eq!(r.len(), g.num_vertices(), "{}", name);
            for v in 0..g.num_vertices() as VertexId {
                prop_assert_eq!(r.to_local(r.to_external(v)), v, "{}", name);
                prop_assert_eq!(r.to_external(r.to_local(v)), v, "{}", name);
            }
            // map_in_place agrees with to_local element-wise.
            let mut ids: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();
            r.map_in_place(&mut ids);
            for (v, &mapped) in ids.iter().enumerate() {
                prop_assert_eq!(mapped, r.to_local(v as VertexId), "{}", name);
            }
        }
    }

    #[test]
    fn non_permutation_orders_are_rejected(n in 2usize..20) {
        // from_order panics on duplicates; validate() is the audit-mode
        // complement used on deserialized permutations.
        let mut dup: Vec<VertexId> = (0..n as VertexId).collect();
        dup[0] = dup[1];
        let caught = std::panic::catch_unwind(|| Relabeling::from_order(dup));
        prop_assert!(caught.is_err(), "duplicate order must be rejected");
    }

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
        let mut bi = BiDijkstra::new(g.num_vertices());
        let want_one = dij.one_to_one(&g, s, t);
        let want_bi = bi.distance(&g, s, t);
        prop_assert_eq!(want_one, want_bi);
        let targets: Vec<VertexId> = (0..n).step_by(3).collect();
        let want_many = dij.one_to_many(&g, s, &targets);
        for (name, r) in relabelings(&g, seed) {
            let pg = r.apply(&g);
            let mut pdij = Dijkstra::new(pg.num_vertices());
            let mut pbi = BiDijkstra::new(pg.num_vertices());
            prop_assert_eq!(
                pdij.one_to_one(&pg, r.to_local(s), r.to_local(t)),
                want_one,
                "{}", name
            );
            prop_assert_eq!(pbi.distance(&pg, r.to_local(s), r.to_local(t)), want_bi, "{}", name);
            let ptargets: Vec<VertexId> = targets.iter().map(|&v| r.to_local(v)).collect();
            let got_many = pdij.one_to_many(&pg, r.to_local(s), &ptargets);
            prop_assert_eq!(&got_many, &want_many, "{}", name);
        }
    }

    #[test]
    fn relabeled_alt_answers_bit_identically(
        g in arb_graph(),
        seed in 0u64..u64::MAX,
        s in 0u32..40,
        t in 0u32..40,
    ) {
        let n = g.num_vertices() as u32;
        let (s, t) = (s % n, t % n);
        let alt = AltIndex::build(&g, 4, LandmarkStrategy::Farthest, 1);
        let mut astar = AltAstar::new(g.num_vertices());
        let want = astar.distance(&g, &alt, s, t);
        for (name, r) in relabelings(&g, seed) {
            let pg = r.apply(&g);
            // The production path: translate the landmark tables in place
            // rather than re-selecting landmarks on the permuted graph.
            let palt = alt.relabel(&r);
            let mut pastar = AltAstar::new(pg.num_vertices());
            prop_assert_eq!(
                pastar.distance(&pg, &palt, r.to_local(s), r.to_local(t)),
                want,
                "{}", name
            );
            // Lower bounds themselves are bit-identical, not just the
            // exact distances they steer.
            for v in 0..n {
                prop_assert_eq!(
                    palt.lower_bound(r.to_local(s), r.to_local(v)),
                    alt.lower_bound(s, v),
                    "{}", name
                );
            }
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
        let ch = ContractionHierarchy::build(&g, &ChConfig::default());
        let mut dij = Dijkstra::new(g.num_vertices());
        let mut q = ChQuery::new(&ch);
        let want: Vec<Weight> = (0..n).map(|t| dij.one_to_one(&g, s, t)).collect();
        for t in 0..n {
            prop_assert_eq!(q.distance(s, t), want[t as usize], "unpermuted ({}, {})", s, t);
        }
        for (name, r) in relabelings(&g, seed) {
            // The production path: translate the built hierarchy's vertex
            // ids, each vertex keeping its contraction rank.
            let pch = ch.relabel(&r);
            let mut pq = ChQuery::new(&pch);
            for t in 0..n {
                prop_assert_eq!(
                    pq.distance(r.to_local(s), r.to_local(t)),
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
        k in 1usize..6,
    ) {
        let n = g.num_vertices() as u32;
        let q = q % n;
        let gens: Vec<VertexId> = gens_raw.into_iter().map(|v| v % n)
            .collect::<std::collections::BTreeSet<_>>().into_iter().collect();
        let apx = ApproxNvd::build(&g, &gens, rho);
        let mut dij = Dijkstra::new(g.num_vertices());
        let want: Vec<(u32, Weight)> = apx.knn(g.coord(q), k, |v| dij.one_to_one(&g, q, v));
        for (name, r) in relabelings(&g, seed) {
            let pg = r.apply(&g);
            // The production path: translate the built NVD's vertex ids
            // instead of rebuilding on the permuted graph (a rebuild may
            // break boundary ties differently; a relabel cannot).
            let mut papx = apx.clone();
            papx.relabel(&r);
            let pq = r.to_local(q);
            let mut pdij = Dijkstra::new(pg.num_vertices());
            let got = papx.knn(pg.coord(pq), k, |v| pdij.one_to_one(&pg, pq, v));
            // Object-local ids and distances both bit-identical.
            prop_assert_eq!(&got, &want, "{}", name);
        }
    }
}
