//! Cross-crate integration: every method in the workspace — the three
//! K-SPIN variants (KS-CH, KS-HL, KS-GT), the Dijkstra engine, and the
//! three baselines (G-tree, ROAD, FS-FBS) — must produce identical exact
//! results on the same workload.

use kspin::adapters::{ChDistance, GtreeNetworkDistance, HlDistance};
use kspin::prelude::*;
use kspin_ch::{ChConfig, ContractionHierarchy};
use kspin_core::query::baseline::{brute_bknn, brute_topk, ine_bknn, ine_topk};
use kspin_fsfbs::FsFbs;
use kspin_gtree::tree::GtreeConfig;
use kspin_gtree::{GTree, GtreeSpatialKeyword, OccurrenceMode};
use kspin_hl::HubLabels;
use kspin_road::RoadIndex;
use kspin_text::generate::{corpus as gen_corpus, CorpusConfig};
use kspin_text::workload::{query_vectors, WorkloadConfig};

struct World {
    system: KspinSystem,
    ch: ContractionHierarchy,
    hl: HubLabels,
    gt: GTree,
}

fn build_world(n: usize, seed: u64) -> World {
    let graph = kspin_graph::generate::road_network(
        &kspin_graph::generate::RoadNetworkConfig::new(n, seed),
    );
    let mut cc = CorpusConfig::new(graph.num_vertices(), seed ^ 77);
    cc.object_fraction = 0.07;
    let (corpus, vocab) = gen_corpus(&cc);
    let ch = ContractionHierarchy::build(&graph, &ChConfig::default());
    let hl = HubLabels::build(&ch);
    let gt = GTree::build(&graph, &GtreeConfig::default());
    // The paper's index (`list_max = ρ`), so the queried keywords reach
    // NVDs as well as plain lists.
    let default = KspinConfig::default();
    let config = KspinConfig {
        list_max: default.rho,
        ..default
    };
    let system = KspinSystem::build(graph, corpus, vocab, &config);
    let list_max = system.index.list_max();
    assert!(
        SEED_TERMS
            .iter()
            .any(|&t| system.corpus.inverted(t).len() > list_max),
        "no queried keyword has an NVD"
    );
    World { system, ch, hl, gt }
}

/// The keywords every query vector is drawn from.
const SEED_TERMS: [TermId; 5] = [0, 1, 2, 3, 4];

fn workload(w: &World, len: usize) -> Vec<Vec<TermId>> {
    let cfg = WorkloadConfig {
        seed_terms: SEED_TERMS.to_vec(),
        objects_per_term: 2,
        vertices_per_vector: 1,
        seed: 99,
    };
    query_vectors(&w.system.corpus, &cfg, len)
}

#[test]
fn all_kspin_variants_agree_on_bknn() {
    let w = build_world(900, 1001);
    let s = &w.system;
    type BknnFn<'a> =
        Box<dyn FnMut(VertexId, usize, &[TermId], Op) -> Vec<(ObjectId, Weight)> + 'a>;
    let mut engines: Vec<(&str, BknnFn<'_>)> = Vec::new();
    let mut e_dij = s.engine_dijkstra();
    let mut e_ch = s.engine(ChDistance::new(&w.ch));
    let mut e_hl = s.engine(HlDistance::new(&w.hl));
    let mut e_gt = s.engine(GtreeNetworkDistance::new(&w.gt, &s.graph));
    engines.push((
        "dijkstra",
        Box::new(move |q, k, t, op| e_dij.bknn(q, k, t, op)),
    ));
    engines.push(("ks-ch", Box::new(move |q, k, t, op| e_ch.bknn(q, k, t, op))));
    engines.push(("ks-hl", Box::new(move |q, k, t, op| e_hl.bknn(q, k, t, op))));
    engines.push(("ks-gt", Box::new(move |q, k, t, op| e_gt.bknn(q, k, t, op))));

    for terms in workload(&w, 2).into_iter().take(3) {
        for q in [4u32, 404, 808] {
            for op in [Op::And, Op::Or] {
                let want = brute_bknn(&s.graph, &s.corpus, q, 5, &terms, op);
                let wd: Vec<Weight> = want.iter().map(|&(_, d)| d).collect();
                for (name, engine) in engines.iter_mut() {
                    let got = engine(q, 5, &terms, op);
                    let gd: Vec<Weight> = got.iter().map(|&(_, d)| d).collect();
                    assert_eq!(gd, wd, "{name} q={q} op={op:?} terms={terms:?}");
                }
            }
        }
    }
}

#[test]
fn all_kspin_variants_agree_on_topk() {
    let w = build_world(900, 1003);
    let s = &w.system;
    for terms in workload(&w, 2).into_iter().take(3) {
        for q in [11u32, 600] {
            let want = brute_topk(&s.graph, &s.corpus, q, 5, &terms);
            let ws: Vec<f64> = want.iter().map(|&(_, x)| x).collect();
            let check = |got: Vec<(ObjectId, f64)>, name: &str| {
                let gs: Vec<f64> = got.iter().map(|&(_, x)| x).collect();
                assert_eq!(gs.len(), ws.len(), "{name}");
                for (g, v) in gs.iter().zip(&ws) {
                    assert!((g - v).abs() < 1e-9, "{name} q={q}: {gs:?} vs {ws:?}");
                }
            };
            check(s.engine_dijkstra().top_k(q, 5, &terms), "dijkstra");
            check(
                s.engine(ChDistance::new(&w.ch)).top_k(q, 5, &terms),
                "ks-ch",
            );
            check(
                s.engine(HlDistance::new(&w.hl)).top_k(q, 5, &terms),
                "ks-hl",
            );
            check(
                s.engine(GtreeNetworkDistance::new(&w.gt, &s.graph))
                    .top_k(q, 5, &terms),
                "ks-gt",
            );
        }
    }
}

/// The BkNN and top-k workloads through a 2-worker executor whose workers
/// each own one `make()` oracle, against a sequential engine over one more
/// and against brute force. The source-pinning adapters keep per-instance
/// state: which worker claimed which chunk, and what its oracle had pinned
/// when it did, must not show in any result.
fn executor_matches_sequential_and_brute_force<D, F>(w: &World, make: F)
where
    D: NetworkDistance,
    F: Fn() -> D + Sync,
{
    let s = &w.system;
    let mut queries = Vec::new();
    for terms in workload(w, 2).into_iter().take(3) {
        for vertex in [4u32, 404, 808, 11, 600] {
            for op in [Op::And, Op::Or] {
                queries.push(ServingQuery::Bknn {
                    vertex,
                    k: 5,
                    terms: terms.clone(),
                    op,
                });
            }
            queries.push(ServingQuery::TopK {
                vertex,
                k: 5,
                terms: terms.clone(),
            });
        }
    }

    let exec = BatchExecutor::new(&s.graph, &s.corpus, &s.index, &s.alt, 2);
    let parallel = exec.execute(&queries, &make).results;
    let mut engine = s.engine(make());
    let name = make().name();
    let sequential: Vec<ServingResult> = queries.iter().map(|q| q.run(&mut engine)).collect();
    assert_eq!(
        parallel, sequential,
        "2-worker KS-{name} diverged from sequential"
    );

    for (query, got) in queries.iter().zip(&sequential) {
        match (query, got) {
            (
                ServingQuery::Bknn {
                    vertex,
                    k,
                    terms,
                    op,
                },
                ServingResult::Distances(got),
            ) => {
                let want = brute_bknn(&s.graph, &s.corpus, *vertex, *k, terms, *op);
                let gd: Vec<Weight> = got.iter().map(|&(_, d)| d).collect();
                let wd: Vec<Weight> = want.iter().map(|&(_, d)| d).collect();
                assert_eq!(gd, wd, "{query:?}");
            }
            (ServingQuery::TopK { vertex, k, terms }, ServingResult::Scores(got)) => {
                let want = brute_topk(&s.graph, &s.corpus, *vertex, *k, terms);
                assert_eq!(got.len(), want.len(), "{query:?}");
                for (&(_, g), &(_, v)) in got.iter().zip(&want) {
                    assert!((g - v).abs() < 1e-9, "{query:?}: {got:?} vs {want:?}");
                }
            }
            _ => panic!("result shape does not match {query:?}"),
        }
    }
}

#[test]
fn ks_ch_through_the_executor_matches_sequential_and_brute_force() {
    let w = build_world(900, 1009);
    executor_matches_sequential_and_brute_force(&w, || ChDistance::new(&w.ch));
}

#[test]
fn ks_hl_through_the_executor_matches_sequential_and_brute_force() {
    let w = build_world(900, 1009);
    executor_matches_sequential_and_brute_force(&w, || HlDistance::new(&w.hl));
}

#[test]
fn baselines_agree_with_kspin() {
    let w = build_world(900, 1005);
    let s = &w.system;
    let sk = GtreeSpatialKeyword::build(&w.gt, &s.graph, &s.corpus);
    let road = RoadIndex::build(&w.gt, &s.graph, &s.corpus);
    let fsfbs = FsFbs::build(&s.graph, &s.corpus, &w.hl);
    let mut kspin = s.engine(HlDistance::new(&w.hl));

    for terms in workload(&w, 2).into_iter().take(3) {
        for q in [21u32, 505] {
            // Top-k: K-SPIN vs G-tree (both modes) vs ROAD vs INE.
            let want: Vec<f64> = kspin.top_k(q, 5, &terms).iter().map(|&(_, x)| x).collect();
            for (name, got) in [
                (
                    "gtree",
                    sk.top_k(q, 5, &terms, OccurrenceMode::Aggregated).0,
                ),
                (
                    "gtree-opt",
                    sk.top_k(q, 5, &terms, OccurrenceMode::PerKeyword).0,
                ),
                ("road", road.top_k(q, 5, &terms)),
                ("ine", ine_topk(&s.graph, &s.corpus, q, 5, &terms)),
            ] {
                let gs: Vec<f64> = got.iter().map(|&(_, x)| x).collect();
                assert_eq!(gs.len(), want.len(), "{name} q={q}");
                for (g, v) in gs.iter().zip(&want) {
                    assert!((g - v).abs() < 1e-9, "{name} q={q}");
                }
            }
            // BkNN: K-SPIN vs G-tree vs FS-FBS vs INE.
            for (conj, op) in [(false, Op::Or), (true, Op::And)] {
                let want: Vec<Weight> = kspin
                    .bknn(q, 5, &terms, op)
                    .iter()
                    .map(|&(_, d)| d)
                    .collect();
                for (name, got) in [
                    (
                        "gtree",
                        sk.bknn(q, 5, &terms, conj, OccurrenceMode::Aggregated).0,
                    ),
                    ("fsfbs", fsfbs.bknn(q, 5, &terms, conj)),
                    ("ine", ine_bknn(&s.graph, &s.corpus, q, 5, &terms, op)),
                ] {
                    let gd: Vec<Weight> = got.iter().map(|&(_, d)| d).collect();
                    assert_eq!(gd, want, "{name} q={q} conj={conj}");
                }
            }
        }
    }
}

#[test]
fn kspin_does_fewer_matrix_ops_than_gtree() {
    // The §7.4.2 deep-dive, in miniature: KS-GT consumes the same G-tree
    // index with fewer matrix operations than G-tree's own top-k.
    let w = build_world(1500, 1007);
    let s = &w.system;
    let sk = GtreeSpatialKeyword::build(&w.gt, &s.graph, &s.corpus);
    let mut total_gtree = 0u64;
    let mut total_ksgt = 0u64;
    for terms in workload(&w, 2).into_iter().take(5) {
        for q in [13u32, 777, 1300] {
            let q = q.min(s.graph.num_vertices() as u32 - 1);
            let (_, ops) = sk.top_k(q, 10, &terms, OccurrenceMode::Aggregated);
            total_gtree += ops;
            let mut dist = GtreeNetworkDistance::new(&w.gt, &s.graph);
            let mut e = s.engine(dist);
            let _ = e.top_k(q, 10, &terms);
            dist = e.into_distance();
            total_ksgt += dist.total_ops();
        }
    }
    assert!(
        total_ksgt < total_gtree,
        "KS-GT ({total_ksgt} ops) should beat G-tree ({total_gtree} ops)"
    );
}
