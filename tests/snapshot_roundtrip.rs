//! Snapshot round-trip guarantees, test-enforced at the system level:
//!
//! 1. **Canonical serialization** — save → load → save is byte-identical,
//!    and so are the snapshots of two independent builds of one input.
//! 2. **Bit-identical serving** — a loaded system answers every query
//!    with exactly the bytes the cold-built system produces, including
//!    after §6.2 updates applied before the save.
//! 3. **Fail-closed loading** — flipping any single byte or truncating
//!    at any length yields a structured [`SnapshotError`] (naming the
//!    failing section for payload corruption); the loader never panics
//!    and never hands back a partially-initialized system.

use kspin::prelude::*;
use kspin::snapshot::SnapshotExtras;
use kspin_ch::{ChConfig, ContractionHierarchy};
use kspin_gtree::partition::{partition, PartitionConfig};
use kspin_text::generate::{corpus as gen_corpus, CorpusConfig};
use kspin_text::workload::{query_vectors, WorkloadConfig};
use proptest::prelude::*;

fn build_system(n: usize, seed: u64) -> KspinSystem {
    let graph = kspin_graph::generate::road_network(
        &kspin_graph::generate::RoadNetworkConfig::new(n, seed),
    );
    let mut cc = CorpusConfig::new(graph.num_vertices(), seed ^ 77);
    cc.object_fraction = 0.08;
    let (corpus, vocab) = gen_corpus(&cc);
    let config = KspinConfig {
        rho: 4,
        list_max: 4,
        ..KspinConfig::default()
    };
    KspinSystem::build(graph, corpus, vocab, &config)
}

fn full_extras(s: &KspinSystem) -> SnapshotExtras {
    SnapshotExtras {
        ch: Some(ContractionHierarchy::build(&s.graph, &ChConfig::default())),
    }
}

fn serve(s: &KspinSystem, queries: usize) -> Vec<Vec<(ObjectId, u64)>> {
    let cfg = WorkloadConfig {
        seed_terms: vec![0, 1, 2, 3, 4],
        objects_per_term: 2,
        vertices_per_vector: 1,
        seed: 4242,
    };
    let vectors = query_vectors(&s.corpus, &cfg, queries);
    let mut engine = s.engine_dijkstra();
    let mut out = Vec::with_capacity(vectors.len() * 3);
    for (i, ts) in vectors.iter().enumerate() {
        let v = (i * 37 % s.graph.num_vertices()) as VertexId;
        let widen =
            |r: Vec<(ObjectId, Weight)>| r.into_iter().map(|(o, w)| (o, u64::from(w))).collect();
        out.push(widen(engine.bknn(v, 6, ts, Op::Or)));
        out.push(widen(engine.bknn(v, 6, ts, Op::And)));
        out.push(
            engine
                .top_k(v, 6, ts)
                .into_iter()
                .map(|(o, score)| (o, score.to_bits()))
                .collect(),
        );
    }
    out
}

#[test]
fn save_load_save_is_byte_identical() {
    let system = build_system(900, 11);
    let extras = full_extras(&system);
    let bytes = system.save_snapshot(&extras);
    let (loaded, loaded_extras) = KspinSystem::load_snapshot(&bytes).expect("load");
    let bytes2 = loaded.save_snapshot(&loaded_extras);
    assert_eq!(bytes, bytes2, "save -> load -> save must be the identity");
}

/// No section holds a clock reading: building the same input twice gives
/// the same file, not merely the same answers.
#[test]
fn independent_builds_save_to_identical_bytes() {
    let extras = SnapshotExtras::default();
    assert_eq!(
        build_system(900, 11).save_snapshot(&extras),
        build_system(900, 11).save_snapshot(&extras)
    );
}

#[test]
fn loaded_system_serves_bit_identically() {
    let system = build_system(900, 12);
    let bytes = system.save_snapshot(&SnapshotExtras::default());
    let (loaded, extras) = KspinSystem::load_snapshot(&bytes).expect("load");
    assert!(extras.ch.is_none());
    assert_eq!(serve(&system, 40), serve(&loaded, 40));
    loaded
        .index
        .validate(&loaded.corpus)
        .expect("loaded index audits clean");
}

#[test]
fn extras_round_trip_exactly() {
    let system = build_system(600, 13);
    let extras = full_extras(&system);
    let bytes = system.save_snapshot(&extras);
    let (_, e2) = KspinSystem::load_snapshot(&bytes).expect("load");
    let (ch, ch2) = (extras.ch.unwrap(), e2.ch.expect("ch survives"));
    assert_eq!(ch.flat_parts(), ch2.flat_parts());
}

#[test]
fn updates_applied_before_save_survive_the_round_trip() {
    let mut system = build_system(900, 14);
    // §6.2 epoch: delete a batch of objects, then serve from a reload.
    let victims: Vec<ObjectId> = (0..system.corpus.num_objects() as ObjectId)
        .filter(|o| o % 7 == 0)
        .collect();
    for &o in &victims {
        system.index.delete_object(&system.corpus, o);
    }
    let bytes = system.save_snapshot(&SnapshotExtras::default());
    let (loaded, _) = KspinSystem::load_snapshot(&bytes).expect("load");
    assert_eq!(serve(&system, 30), serve(&loaded, 30));
    // Canonical even with a live update overlay.
    let bytes2 = loaded.save_snapshot(&SnapshotExtras::default());
    assert_eq!(bytes, bytes2);
}

/// `rebuild_term` can turn an NVD keyword into a list, a list keyword
/// into an NVD one, or empty a keyword. After each, the index must save a
/// snapshot its own loader takes (the meta section's per-kind counts agree
/// with the kinds table) and that re-saves to the same bytes.
#[test]
fn rebuilt_keywords_round_trip_through_a_snapshot() {
    let mut system = build_system(900, 11);
    let rho = system.index.rho();
    // A third of the objects held out, so that a list keyword can grow
    // past ρ by inserts.
    let held = |o: ObjectId| o.is_multiple_of(3);
    let config = KspinConfig {
        rho,
        list_max: rho,
        ..KspinConfig::default()
    };
    system.index = KspinIndex::build_filtered(&system.graph, &system.corpus, |o| !held(o), &config);
    let mut live: Vec<bool> = (0..system.corpus.num_objects() as ObjectId)
        .map(|o| !held(o))
        .collect();
    let postings = |s: &KspinSystem, t: TermId| -> Vec<ObjectId> {
        s.corpus.inverted(t).iter().map(|p| p.object).collect()
    };
    // `t`'s objects whose liveness is `want`.
    let objects = |s: &KspinSystem, t: TermId, live: &[bool], want: bool| -> Vec<ObjectId> {
        let mut os = postings(s, t);
        os.retain(|&o| live[o as usize] == want);
        os
    };
    let kinds = |s: &KspinSystem| term_kinds(&s.save_snapshot(&SnapshotExtras::default()));
    let terms = 0..system.corpus.num_terms() as TermId;

    // NVD → list: delete all but two of an NVD keyword's objects.
    let k = kinds(&system);
    let shrunk = terms
        .clone()
        .find(|&t| k[t as usize] == "nvd")
        .expect("an NVD keyword");
    for o in objects(&system, shrunk, &live, true).into_iter().skip(2) {
        system.index.delete_object(&system.corpus, o);
        live[o as usize] = false;
    }
    system
        .index
        .rebuild_term(&system.graph, &system.corpus, shrunk);
    assert_eq!(kinds(&system)[shrunk as usize], "small");
    let mut steps = vec![(
        "nvd -> small",
        system.save_snapshot(&SnapshotExtras::default()),
    )];

    // List → NVD: insert a list keyword's held-out objects.
    let k = kinds(&system);
    let t = terms
        .clone()
        .find(|&t| t != shrunk && k[t as usize] == "small" && postings(&system, t).len() > rho)
        .expect("a list keyword with held-out objects past ρ");
    let mut dist = DijkstraDistance::new(&system.graph);
    for o in objects(&system, t, &live, false) {
        system
            .index
            .insert_object(&system.graph, &system.corpus, o, &mut dist);
        live[o as usize] = true;
    }
    system.index.rebuild_term(&system.graph, &system.corpus, t);
    assert_eq!(kinds(&system)[t as usize], "nvd");
    steps.push((
        "small -> nvd",
        system.save_snapshot(&SnapshotExtras::default()),
    ));

    // Keyword → empty: delete every live object of a keyword.
    let k = kinds(&system);
    let t = terms
        .clone()
        .find(|&t| k[t as usize] != "empty")
        .expect("a keyword");
    for o in objects(&system, t, &live, true) {
        system.index.delete_object(&system.corpus, o);
        live[o as usize] = false;
    }
    system.index.rebuild_term(&system.graph, &system.corpus, t);
    assert_eq!(kinds(&system)[t as usize], "empty");
    steps.push((
        "keyword -> empty",
        system.save_snapshot(&SnapshotExtras::default()),
    ));

    for (step, bytes) in steps {
        let (loaded, extras) =
            KspinSystem::load_snapshot(&bytes).unwrap_or_else(|e| panic!("{step}: {e}"));
        assert!(
            loaded.save_snapshot(&extras) == bytes,
            "{step}: save -> load -> save differs"
        );
    }
}

/// The graph's vertex order is computed by whichever NVD build asks for it
/// first, and is not part of a snapshot. Neither who computes it nor when
/// reaches the index: one worker, four racing workers and a graph decoded
/// from a snapshot (order not yet computed) encode to the same bytes.
#[test]
fn lazily_computed_vertex_order_changes_no_index_byte() {
    use kspin_core::snapshot::{encode_index, SnapshotWriter};
    let system = build_system(900, 11);
    let (loaded, _) = KspinSystem::load_snapshot(&system.save_snapshot(&SnapshotExtras::default()))
        .expect("load");
    let encode = |graph: &Graph, num_threads: usize| {
        let config = KspinConfig {
            rho: system.index.rho(),
            list_max: system.index.rho(),
            num_threads,
        };
        let mut w = SnapshotWriter::new();
        encode_index(&mut w, &KspinIndex::build(graph, &system.corpus, &config));
        w.finish()
    };
    let fresh = || {
        kspin_graph::generate::road_network(&kspin_graph::generate::RoadNetworkConfig::new(900, 11))
    };
    let one = encode(&fresh(), 1);
    assert!(one == encode(&fresh(), 4), "four workers differ from one");
    assert!(one == encode(&loaded.graph, 4), "a decoded graph differs");
}

fn small_snapshot() -> Vec<u8> {
    let system = build_system(300, 15);
    system.save_snapshot(&SnapshotExtras::default())
}

/// A retired format is refused by its version byte alone, at the header,
/// before any section is looked at. Format v2 held the ALT table
/// landmark-major in the same `m · n` words: decoded today it would pass
/// every shape check and serve inadmissible bounds. Formats v3 and v4,
/// which the missing or mis-sized index sections would catch anyway, are
/// two more inputs, and so is v5, whose ρ was the list threshold too.
#[test]
fn version_2_snapshot_is_refused_at_the_header() {
    use kspin::snapshot::{FormatError, SectionLabel};
    for version in [2u8, 3, 4, 5] {
        let mut bytes = small_snapshot();
        bytes[8] = version;
        let Err(e) = SnapshotFile::validate(&bytes) else {
            panic!("version {version} header accepted");
        };
        assert_eq!(e.at(), SectionLabel::Header);
        assert!(matches!(
            e,
            SnapshotError::Format {
                kind: FormatError::BadVersion(v),
                ..
            } if v == u32::from(version)
        ));
        assert!(KspinSystem::load_snapshot(&bytes).is_err());
    }
}

/// `good` with every section copied and the `u32` words of section `id`
/// passed through `edit`, under fresh checksums.
fn rewritten(good: &[u8], id: u32, edit: impl Fn(&mut Vec<u32>)) -> Vec<u8> {
    use kspin_core::snapshot::format;
    use kspin_core::snapshot::SnapshotWriter;
    let f = SnapshotFile::validate(good).expect("fresh snapshot validates");
    let mut w = SnapshotWriter::new();
    for s in f.sections() {
        match s.kind {
            format::KIND_U32 => {
                let mut words = f.u32s(s.id).unwrap();
                if s.id == id {
                    edit(&mut words);
                }
                w.put_u32s(s.id, &words);
            }
            format::KIND_U64 => w.put_u64s(s.id, &f.u64s(s.id).unwrap()),
            format::KIND_F64 => w.put_f64s(s.id, &f.f64s(s.id).unwrap()),
            _ => w.put_bytes(s.id, f.bytes(s.id).unwrap()),
        }
    }
    w.finish()
}

/// Where keyword `t`'s objects sit in the pooled object section of `good`.
fn keyword_objects(good: &[u8], t: TermId) -> std::ops::Range<usize> {
    use kspin_core::snapshot::format::section;
    let f = SnapshotFile::validate(good).expect("fresh snapshot validates");
    let kinds = f.bytes(section::INDEX_TERM_KINDS).unwrap();
    let lens = f.u32s(section::KEYWORD_LENS).unwrap();
    let before = kinds[..t as usize].iter().filter(|&&k| k != 0).count();
    let start: usize = lens[..before].iter().map(|&l| l as usize).sum();
    start..start + lens[before] as usize
}

/// Every term slot's kind in the snapshot `bytes`, as its kinds table
/// records it.
fn term_kinds(bytes: &[u8]) -> Vec<&'static str> {
    use kspin_core::snapshot::format::section;
    let f = SnapshotFile::validate(bytes).expect("fresh snapshot validates");
    let kinds = f.bytes(section::INDEX_TERM_KINDS).unwrap();
    kinds
        .iter()
        .map(|&k| ["empty", "small", "nvd"][k as usize])
        .collect()
}

/// The first list keyword and the first NVD keyword of `s` with at least
/// two objects each.
fn one_keyword_of_each_kind(s: &KspinSystem) -> [TermId; 2] {
    let kinds = term_kinds(&s.save_snapshot(&SnapshotExtras::default()));
    let first = |kind: &str| {
        (0..kinds.len() as TermId)
            .find(|&t| kinds[t as usize] == kind && s.index.live_count(t) >= 2)
            .expect("a keyword of each kind")
    };
    [first("small"), first("nvd")]
}

/// Loads `bytes`, which must be refused with a decode error naming `id`.
fn assert_refused_at(bytes: &[u8], id: u32, what: &str) {
    use kspin::snapshot::SectionLabel;
    let err = KspinSystem::load_snapshot(bytes)
        .err()
        .unwrap_or_else(|| panic!("{what} accepted"));
    assert!(matches!(err, SnapshotError::Decode { .. }), "{what}: {err}");
    assert_eq!(err.at(), SectionLabel::Section(id), "{what}: {err}");
}

/// Corpus and index are decoded from different sections, so a file can be
/// checksum-valid and each half well-formed while the index names objects
/// the corpus does not hold (the query loops size their seen-set to the
/// corpus and would index past it) or the corpus places its objects off
/// the graph. The loader must name the lying section. No index section
/// holds a vertex, so an index cannot place an object anywhere else.
#[test]
fn index_that_disagrees_with_its_corpus_is_refused() {
    use kspin_core::snapshot::format::section;
    let system = build_system(300, 15);
    let good = system.save_snapshot(&SnapshotExtras::default());
    for t in one_keyword_of_each_kind(&system) {
        let at = keyword_objects(&good, t).start;
        let bad = rewritten(&good, section::KEYWORD_OBJECTS, |w| w[at] = 1_000_000);
        assert_refused_at(&bad, section::KEYWORD_OBJECTS, "an object off the corpus");
    }
    let bad = rewritten(&good, section::CORPUS_VERTEX_OF, |w| w[0] = u32::MAX);
    assert_refused_at(&bad, section::CORPUS_VERTEX_OF, "an object off the graph");
}

/// A keyword that holds one object twice would return it twice, or keep
/// returning it after `delete_object` marked one of its rows. The loader
/// refuses the repeat for either keyword kind.
#[test]
fn keyword_that_holds_an_object_twice_is_refused() {
    use kspin_core::snapshot::format::section;
    let system = build_system(900, 12);
    let good = system.save_snapshot(&SnapshotExtras::default());
    for t in one_keyword_of_each_kind(&system) {
        let r = keyword_objects(&good, t);
        let bad = rewritten(&good, section::KEYWORD_OBJECTS, |w| {
            w[r.start + 1] = w[r.start];
        });
        assert_refused_at(&bad, section::KEYWORD_OBJECTS, "a repeated object");
    }
}

/// A keyword whose table names an object without the keyword in its
/// document would return that object for it. The loader refuses it for
/// either keyword kind.
#[test]
fn keyword_that_holds_an_object_without_it_is_refused() {
    use kspin_core::snapshot::format::section;
    let system = build_system(900, 12);
    let good = system.save_snapshot(&SnapshotExtras::default());
    for t in one_keyword_of_each_kind(&system) {
        let stranger = (0..system.corpus.num_objects() as ObjectId)
            .find(|&o| !system.corpus.contains(o, t))
            .expect("an object without the keyword");
        let at = keyword_objects(&good, t).start;
        let bad = rewritten(&good, section::KEYWORD_OBJECTS, |w| w[at] = stranger);
        assert_refused_at(
            &bad,
            section::KEYWORD_OBJECTS,
            "an object without the keyword",
        );
    }
}

/// Retired section ids: 80–86 held a G-tree partition hierarchy and 90 a
/// vertex renumbering, until both were removed. A file that still
/// carries them loads with those sections ignored: it serves as the
/// file without them does, and re-saves without them.
#[test]
fn retired_renumbering_section_is_ignored_on_load() {
    use kspin_core::snapshot::format;
    use kspin_core::snapshot::SnapshotWriter;
    let system = build_system(300, 15);
    let good = system.save_snapshot(&SnapshotExtras::default());
    let f = SnapshotFile::validate(&good).expect("fresh snapshot validates");
    let n = system.graph.num_vertices() as u32;

    // Section 90: the visit order of a renumbering.
    let renumbering: Vec<(u32, Vec<u32>)> = vec![(90, (0..n).rev().collect())];
    // Sections 80–86: a real hierarchy's CSR arrays, in the order and
    // layout the G-tree encoder wrote them.
    let h = partition(&system.graph, &PartitionConfig { leaf_size: 64 });
    let (mut parent, mut depth) = (Vec::new(), Vec::new());
    let (mut child_offsets, mut child_data) = (vec![0u32], Vec::new());
    let (mut vert_offsets, mut vert_data) = (vec![0u32], Vec::new());
    for node in 0..h.num_nodes() as u32 {
        parent.push(h.parent(node));
        // Parents precede children, so the parent's depth is known.
        depth.push(match h.parent(node) {
            u32::MAX => 0,
            p => depth[p as usize] + 1,
        });
        child_data.extend_from_slice(h.children(node));
        child_offsets.push(child_data.len() as u32);
        vert_data.extend_from_slice(h.leaf_vertices(node));
        vert_offsets.push(vert_data.len() as u32);
    }
    let hierarchy: Vec<(u32, Vec<u32>)> = vec![
        (80, parent),
        (81, child_offsets),
        (82, child_data),
        (83, depth),
        (84, vert_offsets),
        (85, vert_data),
        (86, (0..n).map(|v| h.leaf_of(v)).collect()),
    ];

    for retired in [renumbering, hierarchy] {
        let ids: Vec<u32> = retired.iter().map(|(id, _)| *id).collect();
        let mut w = SnapshotWriter::new();
        for s in f.sections() {
            match s.kind {
                format::KIND_U32 => w.put_u32s(s.id, &f.u32s(s.id).unwrap()),
                format::KIND_U64 => w.put_u64s(s.id, &f.u64s(s.id).unwrap()),
                format::KIND_F64 => w.put_f64s(s.id, &f.f64s(s.id).unwrap()),
                _ => w.put_bytes(s.id, f.bytes(s.id).unwrap()),
            }
        }
        for (id, words) in &retired {
            w.put_u32s(*id, words);
        }
        let (loaded, extras) =
            KspinSystem::load_snapshot(&w.finish()).expect("a file with retired ids");
        assert!(extras.ch.is_none(), "ids {ids:?}");
        assert_eq!(serve(&system, 20), serve(&loaded, 20), "ids {ids:?}");
        assert!(
            loaded.save_snapshot(&extras) == good,
            "the re-save differs from the file without sections {ids:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

    // Any single flipped byte is rejected with a structured error.
    #[test]
    fn any_single_byte_flip_is_rejected(pos in 0usize..usize::MAX, flip in 1u8..=255) {
        let mut bytes = small_snapshot();
        let pos = pos % bytes.len();
        bytes[pos] ^= flip;
        match KspinSystem::load_snapshot(&bytes) {
            Err(e) => {
                // The error names a location and renders.
                let _ = e.at();
                prop_assert!(!e.to_string().is_empty());
            }
            Ok(_) => prop_assert!(false, "corrupt byte {pos} (^{flip:#04x}) accepted"),
        }
    }

    // Truncation at any length is rejected with a structured error.
    #[test]
    fn any_truncation_is_rejected(keep in 0usize..usize::MAX) {
        let bytes = small_snapshot();
        let keep = keep % bytes.len();
        let e = KspinSystem::load_snapshot(&bytes[..keep])
            .map(|_| ())
            .expect_err("truncated snapshot accepted");
        prop_assert!(!e.to_string().is_empty());
    }
}

/// Exhaustive (not sampled) corruption sweep on a tiny snapshot: every
/// byte position, two flip patterns, plus every truncation length.
#[test]
fn exhaustive_corruption_sweep_on_tiny_snapshot() {
    let graph = kspin_graph::generate::road_network(
        &kspin_graph::generate::RoadNetworkConfig::new(120, 16),
    );
    let (corpus, vocab) = gen_corpus(&CorpusConfig::new(graph.num_vertices(), 17));
    let system = KspinSystem::build(graph, corpus, vocab, &KspinConfig::default());
    let bytes = system.save_snapshot(&SnapshotExtras::default());
    for i in 0..bytes.len() {
        for flip in [0x01u8, 0x80] {
            let mut b = bytes.clone();
            b[i] ^= flip;
            assert!(
                KspinSystem::load_snapshot(&b).is_err(),
                "flip {flip:#04x} at byte {i} went unnoticed"
            );
        }
    }
    for len in 0..bytes.len() {
        assert!(
            KspinSystem::load_snapshot(&bytes[..len]).is_err(),
            "truncation to {len} bytes went unnoticed"
        );
    }
}

/// A world that went through §6.2: built without every tenth object,
/// which are then inserted lazily, and with two objects in forty
/// mark-deleted (one build-time, one inserted), as the `lifecycle`
/// benchmark world is made. Its NVD adjacency rows end in inserted
/// neighbours and its inserted objects have rows of their own.
fn lazily_updated_system(n: usize, seed: u64) -> KspinSystem {
    let mut system = build_system(n, seed);
    let config = KspinConfig {
        rho: system.index.rho(),
        list_max: system.index.rho(),
        ..KspinConfig::default()
    };
    let held = |o: ObjectId| o.is_multiple_of(10);
    system.index = KspinIndex::build_filtered(&system.graph, &system.corpus, |o| !held(o), &config);
    let mut dist = DijkstraDistance::new(&system.graph);
    for o in (0..system.corpus.num_objects() as ObjectId).filter(|&o| held(o)) {
        system
            .index
            .insert_object(&system.graph, &system.corpus, o, &mut dist);
    }
    for o in (0..system.corpus.num_objects() as ObjectId).filter(|o| o % 20 == 5 || o % 20 == 10) {
        system.index.delete_object(&system.corpus, o);
    }
    system
}

/// FNV-1a over `bytes`.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// The bytes of a lazily updated world's snapshot, pinned. How the index
/// holds its adjacency in memory (and where a §6.2 insert's edges go) is
/// not part of the format: every layout must write these bytes.
#[test]
fn lazily_updated_world_saves_the_pinned_bytes() {
    // Captured at cb7e3f3, while every adjacency row was its own `Vec`,
    // re-captured when a Voronoi tie went to the smallest generator id (the
    // length did not move), and again for format v6, whose index meta
    // holds the list threshold as a fifth word (8 bytes more; every other
    // section's content is unchanged).
    const EXPECTED: (usize, u64) = (193_296, 0x2bf1_c257_4460_c1d4);
    let system = lazily_updated_system(1500, 21);
    let bytes = system.save_snapshot(&SnapshotExtras::default());
    assert_eq!(
        (bytes.len(), fnv64(&bytes)),
        EXPECTED,
        "{:#018x}",
        fnv64(&bytes)
    );
    let (loaded, extras) = KspinSystem::load_snapshot(&bytes).expect("load");
    assert!(
        loaded.save_snapshot(&extras) == bytes,
        "save -> load -> save differs"
    );
}

/// A road graph with isolated vertices: an empty first row, three empty
/// rows in a row and an empty last row, with objects on some of them.
fn graph_with_isolated_vertices() -> Graph {
    use kspin_graph::{GraphBuilder, Point};
    // Isolated: 0, 17, 18, 19 and 43. Two 4 × 4 grids on 1..=16 and
    // 20..=35, and a path on 36..=42.
    let mut b = GraphBuilder::new(44);
    for v in 0..44u32 {
        b.set_coord(v, Point::new((v % 7) as i32 * 90, (v / 7) as i32 * 80));
    }
    for first in [1u32, 20] {
        for y in 0..4 {
            for x in 0..4 {
                let v = first + y * 4 + x;
                if x + 1 < 4 {
                    b.add_edge(v, v + 1, 3 + (v % 5));
                }
                if y + 1 < 4 {
                    b.add_edge(v, v + 4, 2 + (v % 3));
                }
            }
        }
    }
    for v in 36..42 {
        b.add_edge(v, v + 1, 4);
    }
    b.build()
}

#[test]
fn graph_with_isolated_vertices_round_trips() {
    use kspin_text::CorpusBuilder;
    let graph = graph_with_isolated_vertices();
    let (offsets, ..) = graph.csr_parts();
    assert_eq!(offsets[..2], [0, 0], "the first row is empty");
    assert_eq!(offsets[17..21], [offsets[17]; 4], "rows 17..=19 are empty");
    assert_eq!(offsets[43], offsets[44], "the last row is empty");
    let mut vocab = Vocabulary::new();
    let (even, third) = (vocab.intern("even"), vocab.intern("third"));
    let mut cb = CorpusBuilder::new();
    for v in (0..44u32).filter(|v| v % 2 == 0 || v % 3 == 0 || *v == 43) {
        let mut doc = vec![(if v % 2 == 0 { even } else { third }, 1)];
        if v % 6 == 0 {
            doc.push((third, 2));
        }
        cb.add_object(v, &doc);
    }
    let config = KspinConfig {
        rho: 3,
        list_max: 3,
        ..KspinConfig::default()
    };
    let system = KspinSystem::build(graph, cb.build(), vocab, &config);
    let bytes = system.save_snapshot(&SnapshotExtras::default());
    let (loaded, extras) = KspinSystem::load_snapshot(&bytes).expect("load");
    assert_eq!(loaded.graph.csr_parts(), system.graph.csr_parts());
    assert!(
        loaded.save_snapshot(&extras) == bytes,
        "save -> load -> save differs"
    );
    loaded
        .index
        .validate(&loaded.corpus)
        .expect("loaded index audits clean");
    assert_eq!(loaded.vocab.get("third"), Some(third));
}

/// A checksum-valid snapshot whose road graph breaks a CSR rule — a
/// target off the graph, a target repeated in one row, a row out of
/// ascending order — is refused, naming the graph's offsets.
#[test]
fn graph_that_breaks_a_csr_rule_is_refused() {
    use kspin_core::snapshot::format::section;
    let system = build_system(300, 15);
    let good = system.save_snapshot(&SnapshotExtras::default());
    let (offsets, ..) = system.graph.csr_parts();
    let n = system.graph.num_vertices() as u32;
    // The last row of two or more targets: a violation there is not
    // caught by an earlier row's check.
    let v = (0..n as usize)
        .rev()
        .find(|&v| offsets[v + 1] - offsets[v] >= 2)
        .expect("a vertex of degree two");
    let lo = offsets[v] as usize;
    for what in [
        "a target off the graph",
        "a repeated target",
        "a descending row",
    ] {
        let bad = rewritten(&good, section::GRAPH_TARGETS, |w| match what {
            "a target off the graph" => w[lo + 1] = n,
            "a repeated target" => w[lo + 1] = w[lo],
            _ => w.swap(lo, lo + 1),
        });
        assert_refused_at(&bad, section::GRAPH_OFFSETS, what);
    }
}

/// Where one NVD keyword's adjacency sits in a snapshot's pooled sections.
struct PooledAdjacency {
    /// The keyword's object count: its adjacency node count.
    nodes: u32,
    /// Its build-time generator count.
    originals: u32,
    /// Its `nodes + 1` offsets, relative to `data_at`.
    offsets: Vec<u32>,
    /// Where its rows start in the pooled `nvd.adj_data`.
    data_at: usize,
}

/// The first NVD keyword of `good` that holds a lazily inserted object.
fn inserted_nvd_adjacency(good: &[u8]) -> PooledAdjacency {
    use kspin_core::snapshot::format::section;
    let f = SnapshotFile::validate(good).expect("fresh snapshot validates");
    let kinds = f.bytes(section::INDEX_TERM_KINDS).unwrap();
    let lens = f.u32s(section::KEYWORD_LENS).unwrap();
    let nvd_lens = f.u32s(section::NVD_LENS).unwrap();
    let adj_offsets = f.u32s(section::NVD_ADJ_OFFSETS).unwrap();
    let nvd_objects = kinds
        .iter()
        .filter(|&&k| k != 0)
        .zip(&lens)
        .filter(|&(&k, _)| k == 2)
        .map(|(_, &l)| l);
    let (mut offsets_at, mut data_at) = (0usize, 0usize);
    for (j, nodes) in nvd_objects.enumerate() {
        let fields = &nvd_lens[5 * j..5 * j + 5];
        let (originals, edges) = (fields[3], fields[4]);
        if nodes > originals {
            return PooledAdjacency {
                nodes,
                originals,
                offsets: adj_offsets[offsets_at..=offsets_at + nodes as usize].to_vec(),
                data_at,
            };
        }
        offsets_at += nodes as usize + 1;
        data_at += edges as usize;
    }
    panic!("no NVD keyword holds an inserted object");
}

/// Every adjacency violation the loader's audit names — an out-of-range
/// neighbour, a self-loop, a repeat and an edge without its reverse — is
/// refused wherever it sits: in a build-time row, in the inserted tail of
/// a build-time row, and in an inserted object's own row.
#[test]
fn adjacency_violation_is_refused_in_a_built_and_an_inserted_row() {
    use kspin_core::snapshot::format::section;
    let good = lazily_updated_system(900, 12).save_snapshot(&SnapshotExtras::default());
    let adj = inserted_nvd_adjacency(&good);
    let row = |a: u32| adj.offsets[a as usize] as usize..adj.offsets[a as usize + 1] as usize;
    let f = SnapshotFile::validate(&good).unwrap();
    let data = f.u32s(section::NVD_ADJ_DATA).unwrap();
    let entries = |a: u32| &data[adj.data_at..][row(a)];
    // (what, node, position in its row): each row holds two entries or more.
    let built = (0..adj.originals)
        .find(|&a| entries(a).len() >= 2 && entries(a).iter().all(|&b| b < adj.originals))
        .expect("a build-time row without inserts");
    let (host, tail_at) = (0..adj.originals)
        .find_map(|a| {
            let r = entries(a);
            let i = r.iter().position(|&b| b >= adj.originals)?;
            (i >= 1).then_some((a, i))
        })
        .expect("a build-time row with an inserted tail");
    let inserted = (adj.originals..adj.nodes)
        .find(|&a| entries(a).len() >= 2)
        .expect("an inserted row of two entries");
    let places = [
        ("a build-time row", built, 1),
        ("the inserted tail of a build-time row", host, tail_at),
        ("an inserted object's row", inserted, 1),
    ];
    for (place, a, i) in places {
        let r = entries(a);
        let stranger = (0..adj.nodes)
            .find(|&b| b != a && !r.contains(&b))
            .expect("a node that is not adjacent to a");
        let at = adj.data_at + row(a).start + i;
        for (what, value) in [
            ("an out-of-range neighbour", adj.nodes),
            ("a self-loop", a),
            ("a repeat", r[i - 1]),
            ("an edge without its reverse", stranger),
        ] {
            let bad = rewritten(&good, section::NVD_ADJ_DATA, |w| w[at] = value);
            assert_refused_at(&bad, section::NVD_SCALARS, &format!("{what} in {place}"));
        }
    }
}
