//! The list threshold splits keywords into plain lists and NVD keywords
//! (Observation 1): a keyword built over at most `max(list_max, ρ)`
//! objects seeds its heap with its whole list, a larger one gets a
//! ρ-approximate NVD. The split moves work, never an answer:
//!
//! 1. **Exact on both sides** — on a world whose keywords straddle the
//!    threshold, every query kind under Dijkstra, CH and hub labels
//!    answers as brute force does, at the default threshold (20) and at
//!    the paper's (`list_max = ρ`).
//! 2. **Exact across §6.2** — a list keyword that inserts grow past the
//!    threshold stays a list and stays exact until `rebuild_term` makes it
//!    an NVD keyword; an NVD keyword that deletes shrink under it becomes
//!    a list on its rebuild.
//! 3. **Saved with its threshold** — a snapshot keeps the threshold and
//!    every keyword's kind, and the loader refuses an NVD keyword built
//!    over no more generators than the threshold, naming the kinds table.

use kspin::prelude::*;
use kspin::snapshot::SectionLabel;
use kspin_ch::{ChConfig, ContractionHierarchy};
use kspin_core::snapshot::format::{self, section};
use kspin_core::snapshot::SnapshotWriter;
use kspin_hl::HubLabels;
use kspin_text::generate::{corpus as gen_corpus, CorpusConfig};

const RHO: usize = 5;
/// `KspinConfig::default().list_max`.
const DEFAULT_LIST_MAX: usize = 20;

/// 1,500 vertices and ~150 objects: five keywords above 20 objects, about
/// twenty between 6 and 20 and the rest at most 5.
struct World {
    system: KspinSystem,
    ch: ContractionHierarchy,
    hl: HubLabels,
}

fn world(list_max: usize) -> World {
    let graph = kspin_graph::generate::road_network(
        &kspin_graph::generate::RoadNetworkConfig::new(1500, 51),
    );
    let mut cc = CorpusConfig::new(graph.num_vertices(), 51 ^ 5);
    cc.object_fraction = 0.1;
    let (corpus, vocab) = gen_corpus(&cc);
    let ch = ContractionHierarchy::build(&graph, &ChConfig::default());
    let hl = HubLabels::build(&ch);
    let system = KspinSystem::build(graph, corpus, vocab, &config(list_max));
    World { system, ch, hl }
}

fn config(list_max: usize) -> KspinConfig {
    KspinConfig {
        rho: RHO,
        list_max,
        num_threads: 1,
    }
}

/// Every term slot's kind byte as the snapshot of `s` records it: 0
/// empty, 1 list, 2 NVD.
fn kinds(s: &KspinSystem) -> Vec<u8> {
    let bytes = s.save_snapshot(&SnapshotExtras::default());
    let f = SnapshotFile::validate(&bytes).expect("fresh snapshot validates");
    f.bytes(section::INDEX_TERM_KINDS).unwrap().to_vec()
}

/// The list threshold the snapshot `bytes` stores.
fn stored_threshold(bytes: &[u8]) -> u64 {
    let f = SnapshotFile::validate(bytes).expect("fresh snapshot validates");
    f.u64s(section::INDEX_META).unwrap()[4]
}

/// Keywords by object count, most frequent first: `(above 20, 6..=20,
/// at most 5)`.
fn keyword_classes(c: &Corpus) -> (Vec<TermId>, Vec<TermId>, Vec<TermId>) {
    let mut terms: Vec<TermId> = (0..c.num_terms() as TermId)
        .filter(|&t| c.inv_len(t) > 0)
        .collect();
    terms.sort_by_key(|&t| (std::cmp::Reverse(c.inv_len(t)), t));
    let class = |lo: usize, hi: usize| -> Vec<TermId> {
        terms
            .iter()
            .copied()
            .filter(|&t| (lo..=hi).contains(&c.inv_len(t)))
            .collect()
    };
    (
        class(DEFAULT_LIST_MAX + 1, usize::MAX),
        class(RHO + 1, DEFAULT_LIST_MAX),
        class(1, RHO),
    )
}

/// Query vectors that mix the three classes.
fn vectors(c: &Corpus) -> Vec<Vec<TermId>> {
    let (big, mid, small) = keyword_classes(c);
    assert!(big.len() >= 2 && mid.len() >= 2 && !small.is_empty());
    vec![
        vec![big[0], mid[0]],
        vec![mid[0], small[0]],
        vec![mid[0], mid[1]],
        vec![big[1], small[0]],
        vec![big[0], big[1], mid[1]],
    ]
}

/// Distances must match exactly; object identity may differ only on ties.
fn assert_same_distances(got: &[(ObjectId, Weight)], want: &[(ObjectId, Weight)], label: &str) {
    let gd: Vec<Weight> = got.iter().map(|&(_, d)| d).collect();
    let wd: Vec<Weight> = want.iter().map(|&(_, d)| d).collect();
    assert_eq!(
        gd, wd,
        "{label}: distances differ\ngot  {got:?}\nwant {want:?}"
    );
}

fn assert_same_scores(got: &[(ObjectId, f64)], want: &[(ObjectId, f64)], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: result counts differ");
    for (i, ((_, gs), (_, ws))) in got.iter().zip(want).enumerate() {
        assert!(
            (gs - ws).abs() < 1e-9,
            "{label}: score {i} differs: {gs} vs {ws}\ngot  {got:?}\nwant {want:?}"
        );
    }
}

/// Brute force over the `live` objects: BkNN of those matching `expr`,
/// and top-k by Eq. 1 over those sharing a keyword with `terms`.
struct Oracle<'a> {
    s: &'a KspinSystem,
    live: &'a [bool],
}

impl Oracle<'_> {
    fn distances(&self, q: VertexId) -> Vec<Option<Weight>> {
        let mut dij = kspin_graph::Dijkstra::new(self.s.graph.num_vertices());
        dij.sssp(&self.s.graph, q);
        let space = dij.space();
        (0..self.s.corpus.num_objects() as ObjectId)
            .map(|o| space.distance(self.s.corpus.vertex_of(o)))
            .collect()
    }

    fn bknn(&self, q: VertexId, k: usize, expr: &BoolExpr) -> Vec<(ObjectId, Weight)> {
        let dist = self.distances(q);
        let mut want: Vec<(ObjectId, Weight)> = (0..dist.len() as ObjectId)
            .filter(|&o| self.live[o as usize] && expr.matches(&self.s.corpus, o))
            .filter_map(|o| dist[o as usize].map(|d| (o, d)))
            .collect();
        want.sort_by_key(|&(o, d)| (d, o));
        want.truncate(k);
        want
    }

    fn top_k(&self, q: VertexId, k: usize, terms: &[TermId]) -> Vec<(ObjectId, f64)> {
        let c = &self.s.corpus;
        let query = kspin_text::QueryTerms::new(c, terms);
        let dist = self.distances(q);
        let mut want: Vec<(ObjectId, f64)> = (0..dist.len() as ObjectId)
            .filter(|&o| self.live[o as usize])
            .filter_map(|o| {
                let tr = query.relevance(c, o);
                let d = dist[o as usize]?;
                (tr > 0.0).then(|| (o, kspin_text::score(d, tr)))
            })
            .collect();
        want.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        want.truncate(k);
        want
    }
}

/// BkNN-∨, BkNN-∧, top-k and the Boolean `t0 ∧ (t1 ∨ t2)` through one
/// engine, against the oracle, for every vector at a spread of sources.
fn check_engine<D: NetworkDistance>(
    mut e: QueryEngine<'_, D>,
    oracle: &Oracle<'_>,
    vectors: &[Vec<TermId>],
    label: &str,
) {
    let n = oracle.s.graph.num_vertices() as VertexId;
    for ts in vectors {
        for q in [0, 389, 778, 1167].map(|v| v % n) {
            for k in [3, 10] {
                let at = format!("{label} q={q} k={k} terms={ts:?}");
                for (op, expr) in [(Op::Or, BoolExpr::any(ts)), (Op::And, BoolExpr::all(ts))] {
                    let want = oracle.bknn(q, k, &expr);
                    assert_same_distances(&e.bknn(q, k, ts, op), &want, &format!("{at} {op:?}"));
                }
                let boolean = BoolExpr::And(vec![BoolExpr::Term(ts[0]), BoolExpr::any(&ts[1..])]);
                assert_same_distances(
                    &e.bknn_expr(q, k, &boolean),
                    &oracle.bknn(q, k, &boolean),
                    &format!("{at} boolean"),
                );
                assert_same_scores(
                    &e.top_k(q, k, ts),
                    &oracle.top_k(q, k, ts),
                    &format!("{at} top-k"),
                );
            }
        }
    }
}

/// Every query kind under Dijkstra, CH and HL against brute force over the
/// `live` objects.
fn assert_exact(w: &World, live: &[bool], label: &str) {
    let s = &w.system;
    let oracle = Oracle { s, live };
    let vectors = vectors(&s.corpus);
    check_engine(
        s.engine_dijkstra(),
        &oracle,
        &vectors,
        &format!("{label} dijkstra"),
    );
    check_engine(
        s.engine(ChDistance::new(&w.ch)),
        &oracle,
        &vectors,
        &format!("{label} ch"),
    );
    check_engine(
        s.engine(HlDistance::new(&w.hl)),
        &oracle,
        &vectors,
        &format!("{label} hl"),
    );
}

#[test]
fn queries_are_exact_on_both_sides_of_the_threshold() {
    assert_eq!(KspinConfig::default().list_max, DEFAULT_LIST_MAX);
    for list_max in [DEFAULT_LIST_MAX, RHO] {
        let w = world(list_max);
        let c = &w.system.corpus;
        let (big, mid, small) = keyword_classes(c);
        let k = kinds(&w.system);
        // The default keeps the 6..=20 class as lists, the paper's
        // configuration gives each an NVD; both give the largest one.
        let mid_kind = if list_max == RHO { 2 } else { 1 };
        assert!(
            big.iter().all(|&t| k[t as usize] == 2),
            "list_max {list_max}"
        );
        assert!(
            mid.iter().all(|&t| k[t as usize] == mid_kind),
            "list_max {list_max}"
        );
        assert!(
            small.iter().all(|&t| k[t as usize] == 1),
            "list_max {list_max}"
        );
        w.system
            .index
            .validate(c)
            .expect("fresh index audits clean");
        assert_exact(
            &w,
            &vec![true; c.num_objects()],
            &format!("list_max {list_max}"),
        );
    }
}

/// The smallest keyword with more than `list_max` objects, and its
/// objects beyond the first `list_max`.
fn keyword_just_past(c: &Corpus, list_max: usize) -> (TermId, Vec<ObjectId>) {
    let (big, ..) = keyword_classes(c);
    let t = *big.last().expect("a keyword past the threshold");
    let late = c.inverted(t).iter().skip(list_max).map(|p| p.object);
    (t, late.collect())
}

#[test]
fn a_keyword_crosses_the_threshold_by_updates_and_rebuilds() {
    let mut w = world(DEFAULT_LIST_MAX);
    let n = w.system.corpus.num_objects();
    let mut live = vec![true; n];

    // Build without the grown keyword's objects past the first 20: it is
    // a list of exactly 20.
    let (grown, late) = keyword_just_past(&w.system.corpus, DEFAULT_LIST_MAX);
    let s = &mut w.system;
    s.index = KspinIndex::build_filtered(
        &s.graph,
        &s.corpus,
        |o| !late.contains(&o),
        &config(DEFAULT_LIST_MAX),
    );
    assert_eq!(s.index.live_count(grown), DEFAULT_LIST_MAX);
    assert_eq!(kinds(s)[grown as usize], 1);

    // Inserts grow it past the threshold: still a list, still exact, and
    // a snapshot of it loads.
    let mut dist = DijkstraDistance::new(&s.graph);
    for &o in &late {
        s.index.insert_object(&s.graph, &s.corpus, o, &mut dist);
    }
    assert!(s.index.live_count(grown) > DEFAULT_LIST_MAX);
    assert_eq!(kinds(s)[grown as usize], 1);
    let bytes = s.save_snapshot(&SnapshotExtras::default());
    KspinSystem::load_snapshot(&bytes).expect("a list grown by inserts loads");
    assert_exact(&w, &live, "list grown past 20");

    // Its rebuild makes it an NVD keyword.
    let s = &mut w.system;
    s.index.rebuild_term(&s.graph, &s.corpus, grown);
    assert_eq!(kinds(s)[grown as usize], 2);
    assert_exact(&w, &live, "grown list rebuilt");

    // Deletes shrink an NVD keyword to 20 live objects: still an NVD,
    // still exact, and its rebuild makes it a list.
    let s = &mut w.system;
    let (big, ..) = keyword_classes(&s.corpus);
    let shrunk = big[1];
    let objects: Vec<ObjectId> = s.corpus.inverted(shrunk).iter().map(|p| p.object).collect();
    for &o in &objects[DEFAULT_LIST_MAX..] {
        s.index.delete_object(&s.corpus, o);
        live[o as usize] = false;
    }
    assert_eq!(s.index.live_count(shrunk), DEFAULT_LIST_MAX);
    assert_eq!(kinds(s)[shrunk as usize], 2);
    assert_exact(&w, &live, "NVD shrunk to 20");
    let s = &mut w.system;
    s.index.rebuild_term(&s.graph, &s.corpus, shrunk);
    assert_eq!(kinds(s)[shrunk as usize], 1);
    s.index
        .validate(&s.corpus)
        .expect("rebuilt index audits clean");
    assert_exact(&w, &live, "shrunk NVD rebuilt");
}

/// `good` with its every section copied and `INDEX_META`'s list threshold
/// set to `threshold`, under fresh checksums.
fn with_threshold(good: &[u8], threshold: u64) -> Vec<u8> {
    let f = SnapshotFile::validate(good).expect("fresh snapshot validates");
    let mut w = SnapshotWriter::new();
    for s in f.sections() {
        match s.kind {
            format::KIND_U32 => w.put_u32s(s.id, &f.u32s(s.id).unwrap()),
            format::KIND_U64 => {
                let mut words = f.u64s(s.id).unwrap();
                if s.id == section::INDEX_META {
                    words[4] = threshold;
                }
                w.put_u64s(s.id, &words);
            }
            format::KIND_F64 => w.put_f64s(s.id, &f.f64s(s.id).unwrap()),
            _ => w.put_bytes(s.id, f.bytes(s.id).unwrap()),
        }
    }
    w.finish()
}

#[test]
fn a_snapshot_keeps_the_threshold_and_refuses_an_nvd_under_it() {
    for list_max in [DEFAULT_LIST_MAX, RHO] {
        let s = world(list_max).system;
        let bytes = s.save_snapshot(&SnapshotExtras::default());
        assert_eq!(stored_threshold(&bytes), list_max as u64);
        let (loaded, extras) = KspinSystem::load_snapshot(&bytes).expect("load");
        assert_eq!(kinds(&loaded), kinds(&s), "list_max {list_max}");
        assert!(
            loaded.save_snapshot(&extras) == bytes,
            "list_max {list_max}: save -> load -> save differs"
        );
    }

    // The paper's index has NVD keywords of 6..=20 objects. Stored
    // under a threshold of one less than the smallest, the file loads;
    // at the smallest or above, that keyword would never have had an NVD.
    let s = world(RHO).system;
    let good = s.save_snapshot(&SnapshotExtras::default());
    let k = kinds(&s);
    let smallest = (0..k.len())
        .filter(|&t| k[t] == 2)
        .map(|t| s.index.live_count(t as TermId))
        .min()
        .expect("an NVD keyword") as u64;
    assert!(smallest <= DEFAULT_LIST_MAX as u64);
    KspinSystem::load_snapshot(&with_threshold(&good, smallest - 1)).expect("below the smallest");
    for threshold in [smallest, DEFAULT_LIST_MAX as u64] {
        let err = KspinSystem::load_snapshot(&with_threshold(&good, threshold))
            .err()
            .unwrap_or_else(|| panic!("threshold {threshold} accepted"));
        assert!(matches!(err, SnapshotError::Decode { .. }), "{err}");
        assert_eq!(
            err.at(),
            SectionLabel::Section(section::INDEX_TERM_KINDS),
            "{err}"
        );
    }
    // A threshold below ρ is no split at all.
    let err = KspinSystem::load_snapshot(&with_threshold(&good, RHO as u64 - 1))
        .err()
        .expect("a threshold below rho accepted");
    assert_eq!(
        err.at(),
        SectionLabel::Section(section::INDEX_META),
        "{err}"
    );
}
