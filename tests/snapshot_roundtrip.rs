//! Snapshot round-trip guarantees, test-enforced at the system level:
//!
//! 1. **Canonical serialization** — save → load → save is byte-identical.
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
use kspin_graph::Relabeling;
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
        ..KspinConfig::default()
    };
    KspinSystem::build(graph, corpus, vocab, &config)
}

fn full_extras(s: &KspinSystem) -> SnapshotExtras {
    SnapshotExtras {
        ch: Some(ContractionHierarchy::build(&s.graph, &ChConfig::default())),
        hierarchy: Some(partition(&s.graph, &PartitionConfig { leaf_size: 64 })),
        relabeling: Some(Relabeling::hilbert(&s.graph)),
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

#[test]
fn loaded_system_serves_bit_identically() {
    let system = build_system(900, 12);
    let bytes = system.save_snapshot(&SnapshotExtras::default());
    let (loaded, extras) = KspinSystem::load_snapshot(&bytes).expect("load");
    assert!(extras.ch.is_none() && extras.hierarchy.is_none() && extras.relabeling.is_none());
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
    let (h, h2) = (
        extras.hierarchy.unwrap(),
        e2.hierarchy.expect("hierarchy survives"),
    );
    assert_eq!(h.flat_parts(), h2.flat_parts());
    let (r, r2) = (
        extras.relabeling.unwrap(),
        e2.relabeling.expect("relabeling survives"),
    );
    assert_eq!(r.forward(), r2.forward());
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

fn small_snapshot() -> Vec<u8> {
    let system = build_system(300, 15);
    system.save_snapshot(&SnapshotExtras::default())
}

/// Format v2 held the ALT table landmark-major in the same `m · n` words:
/// decoded as v3 it would pass every shape check and serve inadmissible
/// bounds. The version byte alone refuses it, at the header, before any
/// section is looked at.
#[test]
fn version_2_snapshot_is_refused_at_the_header() {
    use kspin::snapshot::{FormatError, SectionLabel};
    let mut bytes = small_snapshot();
    bytes[8] = 2;
    let Err(e) = SnapshotFile::validate(&bytes) else {
        panic!("version 2 header accepted");
    };
    assert_eq!(e.at(), SectionLabel::Header);
    assert!(matches!(
        e,
        SnapshotError::Format {
            kind: FormatError::BadVersion(2),
            ..
        }
    ));
    assert!(KspinSystem::load_snapshot(&bytes).is_err());
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
