//! Property-based invariants over randomly generated graphs and corpora.
//!
//! These go beyond the seeded fixtures: proptest drives graph topology,
//! weights, object placement and query parameters, shrinking any failure
//! to a minimal counterexample.

use proptest::prelude::*;

use kspin::prelude::*;
use kspin_alt::{AltIndex, LandmarkStrategy};
use kspin_ch::{ChConfig, ContractionHierarchy};
use kspin_core::heap::{HeapContext, InvertedHeap};
use kspin_core::query::baseline::brute_bknn;
use kspin_core::{ExactLowerBound, LowerBound};
use kspin_graph::{Dijkstra, GraphBuilder, INFINITY};
use kspin_hl::HubLabels;
use kspin_nvd::{ApproxNvd, ExactNvd, SweepScratch};
use kspin_text::CorpusBuilder;

/// A spanning path over `0..n` plus the extra edges. With `cut = Some(c)`
/// the path misses the link `c – c+1` and no extra edge crosses it, leaving
/// the components `0..=c` and `c+1..n`.
fn path_graph(n: usize, extras: Vec<(u32, u32, u32)>, cut: Option<u32>) -> Graph {
    path_graph_from(n, 1, extras, cut)
}

/// [`path_graph`] whose path arcs weigh `lightest + v % 7`.
fn path_graph_from(
    n: usize,
    lightest: u32,
    extras: Vec<(u32, u32, u32)>,
    cut: Option<u32>,
) -> Graph {
    let crosses = |u: u32, v: u32| cut.is_some_and(|c| u.min(v) <= c && c < u.max(v));
    let mut b = GraphBuilder::new(n);
    for v in 0..n as u32 {
        b.set_coord(
            v,
            kspin_graph::Point::new((v as i32 * 37) % 100, (v as i32 * 61) % 100),
        );
    }
    for v in 0..n as u32 - 1 {
        if !crosses(v, v + 1) {
            b.add_edge(v, v + 1, lightest + (v % 7));
        }
    }
    for (u, v, w) in extras {
        let (u, v) = (u % n as u32, v % n as u32);
        if u != v && !crosses(u, v) {
            b.add_edge(u, v, w);
        }
    }
    b.build()
}

/// A connected random graph: a spanning path plus random extra edges.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (
        5usize..40,
        proptest::collection::vec((0u32..40, 0u32..40, 1u32..100), 0..60),
    )
        .prop_map(|(n, extras)| path_graph(n, extras, None))
}

/// Like [`arb_graph`], but half the graphs fall into two components.
fn arb_maybe_split_graph() -> impl Strategy<Value = Graph> {
    (
        5usize..40,
        proptest::collection::vec((0u32..40, 0u32..40, 1u32..100), 0..60),
        0u32..80,
    )
        .prop_map(|(n, extras, cut)| {
            let cut = (cut < 40).then_some(cut % (n as u32 - 1));
            path_graph(n, extras, cut)
        })
}

/// 1–16 `(s, t)` pairs shaped like a distance module's traffic: runs of
/// calls from one source, switches to another source and back to the one
/// before, and `s == t` in the middle of a run. Vertices are raw draws; the
/// caller reduces them modulo its vertex count.
fn arb_distance_calls() -> impl Strategy<Value = Vec<(u32, u32)>> {
    (
        0u32..40,
        proptest::collection::vec((0u8..6, 0u32..40, 0u32..40), 1..17),
    )
        .prop_map(|(first, steps)| {
            let (mut s, mut before) = (first, first);
            steps
                .into_iter()
                .map(|(kind, v, t)| {
                    match kind {
                        0..=2 => {} // stay on the source
                        3 => return (s, s),
                        4 => before = std::mem::replace(&mut s, v), // a new source
                        _ => std::mem::swap(&mut s, &mut before),   // back to the last one
                    }
                    (s, t)
                })
                .collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn ch_and_hl_agree_with_dijkstra(g in arb_maybe_split_graph(), calls in arb_distance_calls()) {
        let n = g.num_vertices() as u32;
        let ch = ContractionHierarchy::build(&g, &ChConfig::default());
        let hl = HubLabels::build(&ch);
        // One query object per kernel for the whole sequence: whatever an
        // earlier call left pinned must not show in a later answer.
        let mut chq = kspin_ch::ChQuery::new(&ch);
        let mut hlq = kspin_hl::HlQuery::new(&hl);
        let mut dij = Dijkstra::new(g.num_vertices());
        for (s, t) in calls {
            let (s, t) = (s % n, t % n);
            let want = dij.one_to_one(&g, s, t);
            prop_assert_eq!(chq.distance(s, t), want, "CH ({}, {})", s, t);
            prop_assert_eq!(hlq.distance(s, t), want, "HL pinned ({}, {})", s, t);
            prop_assert_eq!(hl.distance(s, t), want, "HL merge ({}, {})", s, t);
        }
    }

    #[test]
    fn alt_bounds_are_admissible(g in arb_graph(), s in 0u32..40, t in 0u32..40) {
        let n = g.num_vertices() as u32;
        let (s, t) = (s % n, t % n);
        let alt = AltIndex::build(&g, 4, LandmarkStrategy::Farthest, 1);
        let mut dij = Dijkstra::new(g.num_vertices());
        let want = dij.one_to_one(&g, s, t);
        prop_assert!(alt.lower_bound(s, t) <= want);
    }

    #[test]
    fn approx_nvd_keeps_the_one_nn(
        g in arb_graph(),
        gens_raw in proptest::collection::btree_set(0u32..40, 1..8),
        rho in 1usize..5,
        q in 0u32..40,
    ) {
        let n = g.num_vertices() as u32;
        let q = q % n;
        let gens: Vec<VertexId> = gens_raw.into_iter().map(|v| v % n)
            .collect::<std::collections::BTreeSet<_>>().into_iter().collect();
        let apx = ApproxNvd::build(&g, &gens, rho, &mut SweepScratch::default());
        let mut dij = Dijkstra::new(g.num_vertices());
        let dists = dij.one_to_many(&g, q, &gens);
        let best = *dists.iter().min().unwrap();
        let cands = apx.leaf_candidates(g.coord(q));
        prop_assert!(
            cands.iter().any(|&c| dists[c as usize] == best),
            "1NN missing: dists {:?}, candidates {:?}", dists, cands
        );
    }

    #[test]
    fn exact_nvd_labels_every_vertex_with_the_least_distance_and_id(
        n in 5usize..40,
        extras in proptest::collection::vec((0u32..40, 0u32..40, 0u8..3, 0u32..(1 << 20)), 0..60),
        cut in 0u32..80,
        gens_raw in proptest::collection::btree_set(0u32..40, 1..8),
    ) {
        // Short path arcs next to arcs wide enough to widen the buckets, some
        // of them too heavy to relax at all, and half the graphs split.
        let extras = extras.into_iter().map(|(u, v, kind, raw)| {
            let w = match kind {
                0 => 1 + raw % 7,
                1 => (1 << 20) + raw,
                _ => INFINITY / 2 + raw * 2048,
            };
            (u, v, w)
        });
        let g = path_graph(n, extras.collect(), (cut < 40).then_some(cut % (n as u32 - 1)));
        let gens: Vec<VertexId> = gens_raw.into_iter().map(|v| v % n as u32)
            .collect::<std::collections::BTreeSet<_>>().into_iter().collect();
        let nvd = ExactNvd::build(&g, &gens, &mut SweepScratch::default());
        let mut dij = Dijkstra::new(n);
        let mut best = vec![(INFINITY, u32::MAX); n];
        for (i, &s) in gens.iter().enumerate() {
            dij.sssp(&g, s);
            for (v, slot) in best.iter_mut().enumerate() {
                if let Some(d) = dij.space().distance(v as VertexId) {
                    *slot = (*slot).min((d, i as u32));
                }
            }
        }
        let mut radius = vec![0; gens.len()];
        for (v, &(d, o)) in best.iter().enumerate() {
            let v = v as VertexId;
            prop_assert_eq!(nvd.owner(v), (o != u32::MAX).then_some(o), "owner of {}", v);
            prop_assert_eq!(nvd.dist_to_owner(v), d, "distance of {}", v);
            if o != u32::MAX {
                radius[o as usize] = d.max(radius[o as usize]);
            }
        }
        for (p, &r) in radius.iter().enumerate() {
            prop_assert_eq!(nvd.max_radius(p as u32), r, "MaxRadius({})", p);
        }
        for e in g.edges() {
            let (a, b) = (best[e.u as usize].1, best[e.v as usize].1);
            if a != b && a != u32::MAX && b != u32::MAX {
                prop_assert!(nvd.adjacency().adjacent(a).contains(&b), "cells {} and {}", a, b);
            }
        }
    }

    #[test]
    fn exact_nvd_is_exact_in_buckets_as_wide_as_the_lightest_arc(
        n in 5usize..40,
        lightest in 2u32..5000,
        extras in proptest::collection::vec((0u32..40, 0u32..40, 0u8..4, 0u32..20_000), 0..60),
        unrelaxable in any::<bool>(),
        cut in 0u32..80,
        gens_raw in proptest::collection::btree_set(0u32..40, 1..8),
    ) {
        // No arc below `lightest`, so the buckets are wider than 1. A
        // quarter of the extra arcs are heavy: either from INFINITY / 2 up,
        // which widens the buckets past `lightest` and drains them
        // label-correcting, or from INFINITY up, which never relaxes and
        // leaves the sweep label-setting. Half the graphs split. Every
        // adjacency row is held to the boundary edges in edge order, each
        // neighbour at its first edge.
        let heavy = if unrelaxable { INFINITY } else { INFINITY / 2 };
        let extras = extras.into_iter().map(|(u, v, kind, raw)| {
            let w = if kind == 0 { heavy + raw * 2048 } else { lightest + raw };
            (u, v, w)
        });
        let cut = (cut < 40).then_some(cut % (n as u32 - 1));
        let g = path_graph_from(n, lightest, extras.collect(), cut);
        let gens: Vec<VertexId> = gens_raw.into_iter().map(|v| v % n as u32)
            .collect::<std::collections::BTreeSet<_>>().into_iter().collect();
        let nvd = ExactNvd::build(&g, &gens, &mut SweepScratch::default());
        let mut dij = Dijkstra::new(n);
        let mut best = vec![(INFINITY, u32::MAX); n];
        for (i, &s) in gens.iter().enumerate() {
            dij.sssp(&g, s);
            for (v, slot) in best.iter_mut().enumerate() {
                if let Some(d) = dij.space().distance(v as VertexId) {
                    *slot = (*slot).min((d, i as u32));
                }
            }
        }
        let mut radius = vec![0; gens.len()];
        for (v, &(d, o)) in best.iter().enumerate() {
            let v = v as VertexId;
            prop_assert_eq!(nvd.owner(v), (o != u32::MAX).then_some(o), "owner of {}", v);
            prop_assert_eq!(nvd.dist_to_owner(v), d, "distance of {}", v);
            if o != u32::MAX {
                radius[o as usize] = d.max(radius[o as usize]);
            }
        }
        let mut rows = vec![Vec::new(); gens.len()];
        for e in g.edges() {
            let (a, b) = (best[e.u as usize].1, best[e.v as usize].1);
            if a != b && a != u32::MAX && b != u32::MAX {
                for (x, y) in [(a, b), (b, a)] {
                    if !rows[x as usize].contains(&y) {
                        rows[x as usize].push(y);
                    }
                }
            }
        }
        for (p, row) in rows.iter().enumerate() {
            prop_assert_eq!(nvd.max_radius(p as u32), radius[p], "MaxRadius({})", p);
            prop_assert_eq!(nvd.adjacency().adjacent(p as u32), row.as_slice(), "row {}", p);
        }
    }

    #[test]
    fn kspin_bknn_is_exact_on_random_corpora(
        g in arb_graph(),
        placements in proptest::collection::btree_map(0u32..40, proptest::collection::vec(0u32..6, 1..4), 1..12),
        q in 0u32..40,
        k in 1usize..6,
        conjunctive in any::<bool>(),
    ) {
        let n = g.num_vertices() as u32;
        let q = q % n;
        let mut cb = CorpusBuilder::new();
        let mut used = std::collections::HashSet::new();
        for (v, terms) in placements {
            let v = v % n;
            if !used.insert(v) {
                continue;
            }
            let doc: Vec<(TermId, u32)> = terms.iter().map(|&t| (t, 1)).collect();
            cb.add_object(v, &doc);
        }
        let corpus = cb.build();
        let alt = AltIndex::build(&g, 4, LandmarkStrategy::Farthest, 2);
        let index = KspinIndex::build(&g, &corpus, &KspinConfig { rho: 2, list_max: 2, num_threads: 1 });
        let mut engine = QueryEngine::new(&g, &corpus, &index, &alt, DijkstraDistance::new(&g));
        let op = if conjunctive { Op::And } else { Op::Or };
        let got = engine.bknn(q, k, &[0, 1], op);
        let want = brute_bknn(&g, &corpus, q, k, &[0, 1], op);
        let gd: Vec<Weight> = got.iter().map(|&(_, d)| d).collect();
        let wd: Vec<Weight> = want.iter().map(|&(_, d)| d).collect();
        prop_assert_eq!(gd, wd);
    }

    #[test]
    fn kspin_topk_is_exact_on_random_corpora(
        g in arb_graph(),
        placements in proptest::collection::btree_map(0u32..40, proptest::collection::vec(0u32..6, 1..4), 1..12),
        q in 0u32..40,
        k in 1usize..6,
    ) {
        let n = g.num_vertices() as u32;
        let q = q % n;
        let mut cb = CorpusBuilder::new();
        let mut used = std::collections::HashSet::new();
        for (v, terms) in placements {
            let v = v % n;
            if !used.insert(v) {
                continue;
            }
            let doc: Vec<(TermId, u32)> = terms.iter().map(|&t| (t, 1)).collect();
            cb.add_object(v, &doc);
        }
        let corpus = cb.build();
        let alt = AltIndex::build(&g, 4, LandmarkStrategy::Farthest, 3);
        let index = KspinIndex::build(&g, &corpus, &KspinConfig { rho: 2, list_max: 2, num_threads: 1 });
        let mut engine = QueryEngine::new(&g, &corpus, &index, &alt, DijkstraDistance::new(&g));
        let got = engine.top_k(q, k, &[0, 1]);
        let want = kspin_core::query::baseline::brute_topk(&g, &corpus, q, k, &[0, 1]);
        prop_assert_eq!(got.len(), want.len());
        for ((_, gs), (_, ws)) in got.iter().zip(&want) {
            prop_assert!((gs - ws).abs() < 1e-9);
        }
    }

    #[test]
    fn index_auditor_accepts_fresh_and_rebuilt_indexes(
        g in arb_graph(),
        placements in proptest::collection::btree_map(0u32..40, proptest::collection::vec(0u32..6, 1..4), 1..12),
        rho in 1usize..4,
    ) {
        let n = g.num_vertices() as u32;
        let mut cb = CorpusBuilder::new();
        let mut used = std::collections::HashSet::new();
        for (v, terms) in placements {
            let v = v % n;
            if !used.insert(v) {
                continue;
            }
            let doc: Vec<(TermId, u32)> = terms.iter().map(|&t| (t, 1)).collect();
            cb.add_object(v, &doc);
        }
        let corpus = cb.build();
        let mut index = KspinIndex::build(&g, &corpus, &KspinConfig { rho, list_max: rho, num_threads: 1 });
        prop_assert!(
            index.validate(&corpus).is_ok(),
            "fresh index failed audit: {:?}", index.validate(&corpus).err()
        );
        // Delete an object, fold the lazy updates in, and re-audit: the
        // rebuilt index must re-satisfy the ρ-split and all NVD invariants.
        index.delete_object(&corpus, 0);
        for t in 0..corpus.num_terms() as TermId {
            index.rebuild_term(&g, &corpus, t);
        }
        prop_assert!(
            index.validate(&corpus).is_ok(),
            "rebuilt index failed audit: {:?}", index.validate(&corpus).err()
        );
    }

    #[test]
    fn property1_extraction_order_is_nondecreasing_under_exact_bounds(
        g in arb_graph(),
        placements in proptest::collection::btree_map(0u32..40, proptest::collection::vec(0u32..6, 1..4), 1..12),
        q in 0u32..40,
        rho in 1usize..4,
    ) {
        let n = g.num_vertices() as u32;
        let q = q % n;
        let mut cb = CorpusBuilder::new();
        let mut used = std::collections::HashSet::new();
        for (v, terms) in placements {
            let v = v % n;
            if !used.insert(v) {
                continue;
            }
            let doc: Vec<(TermId, u32)> = terms.iter().map(|&t| (t, 1)).collect();
            cb.add_object(v, &doc);
        }
        let corpus = cb.build();
        let index = KspinIndex::build(&g, &corpus, &KspinConfig { rho, list_max: rho, num_threads: 1 });
        // An exact lower bound arms the heap's internal Property-1 audit;
        // the loop below re-checks the same monotonicity externally and
        // drains each heap to prove LazyReheap reaches every object.
        let exact = ExactLowerBound::new(&g);
        let ctx = HeapContext::new(&g, &corpus, &exact, q);
        for t in 0..corpus.num_terms() as TermId {
            let Some(mut heap) = InvertedHeap::create(&index, t, &ctx) else {
                continue;
            };
            let mut extracted = Vec::new();
            let mut prev = 0;
            while let Some(c) = heap.extract(&ctx) {
                prop_assert!(
                    c.lower_bound >= prev,
                    "term {}: extracted key {} after {}", t, c.lower_bound, prev
                );
                prev = c.lower_bound;
                extracted.push(c.object);
            }
            extracted.sort_unstable();
            let mut expect: Vec<ObjectId> =
                corpus.inverted(t).iter().map(|p| p.object).collect();
            expect.sort_unstable();
            prop_assert_eq!(
                extracted, expect,
                "term {}: lazy reheap must eventually surface every object exactly once", t
            );
        }
    }

    #[test]
    fn queries_stay_exact_under_the_armed_audit(
        g in arb_graph(),
        placements in proptest::collection::btree_map(0u32..40, proptest::collection::vec(0u32..6, 1..4), 1..12),
        q in 0u32..40,
        k in 1usize..6,
    ) {
        let n = g.num_vertices() as u32;
        let q = q % n;
        let mut cb = CorpusBuilder::new();
        let mut used = std::collections::HashSet::new();
        for (v, terms) in placements {
            let v = v % n;
            if !used.insert(v) {
                continue;
            }
            let doc: Vec<(TermId, u32)> = terms.iter().map(|&t| (t, 1)).collect();
            cb.add_object(v, &doc);
        }
        let corpus = cb.build();
        let index = KspinIndex::build(&g, &corpus, &KspinConfig { rho: 2, list_max: 2, num_threads: 1 });
        // Exact bounds keep the Property-1 extraction-order audit armed
        // through the full BkNN and top-k paths.
        let exact = ExactLowerBound::new(&g);
        let mut engine = QueryEngine::new(&g, &corpus, &index, &exact, DijkstraDistance::new(&g));
        let got = engine.bknn(q, k, &[0, 1], Op::Or);
        let want = brute_bknn(&g, &corpus, q, k, &[0, 1], Op::Or);
        let gd: Vec<Weight> = got.iter().map(|&(_, d)| d).collect();
        let wd: Vec<Weight> = want.iter().map(|&(_, d)| d).collect();
        prop_assert_eq!(gd, wd);
        let got = engine.top_k(q, k, &[0, 1]);
        let want = kspin_core::query::baseline::brute_topk(&g, &corpus, q, k, &[0, 1]);
        prop_assert_eq!(got.len(), want.len());
        for ((_, gs), (_, ws)) in got.iter().zip(&want) {
            prop_assert!((gs - ws).abs() < 1e-9);
        }
    }

    #[test]
    fn lower_bound_trait_object_is_consistent(g in arb_graph()) {
        let alt = AltIndex::build(&g, 4, LandmarkStrategy::Farthest, 4);
        let dynamic: &dyn LowerBound = &alt;
        for s in 0..g.num_vertices() as u32 {
            prop_assert_eq!(dynamic.lower_bound(s, s), 0);
        }
    }
}
