//! `KspinSystem::load_snapshot` allocates per section, per keyword and
//! per NVD — never per generator or per vocabulary term — and requests at
//! most a fixed multiple of the file's length in bytes, whatever counts
//! the file claims; `SnapshotFile::validate`, which every load runs first
//! on the untrusted bytes, allocates nothing. A counting global allocator
//! measures one load of a lazily updated world, validation of that file
//! and of a corrupted copy, and loads of checksum-valid files whose first
//! count of a section is `u32::MAX`.
//!
//! The counters are per thread, so the tests of this binary may run side
//! by side: a load starts no thread of its own.

// The workspace denies `unsafe_code`; a `#[global_allocator]` impl is the
// one place this test binary genuinely needs it (GlobalAlloc is an unsafe
// trait — the impl below only delegates to `System` and counts).
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use kspin::prelude::*;
use kspin_core::snapshot::format::{self, section};
use kspin_core::snapshot::SnapshotWriter;

/// Counts every heap acquisition (`alloc` and `realloc`) and the bytes it
/// hands out (a `realloc` counts its whole new block), then delegates to
/// the system allocator. A request above [`REFUSED_ABOVE`] is refused, so
/// a capacity taken from a crafted count aborts the binary with "memory
/// allocation of … failed" instead of reserving gigabytes.
struct CountingAlloc;

/// Far above any load these tests make (the largest requests ~0.6 MB).
const REFUSED_ABOVE: usize = 1 << 30;

thread_local! {
    /// This thread's `(allocations, bytes requested)`.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    COUNTS.with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes as u64));
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        if layout.size() > REFUSED_ABOVE {
            return std::ptr::null_mut();
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        if new_size > REFUSED_ABOVE {
            return std::ptr::null_mut();
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the allocations and bytes it
/// requested on this thread.
fn measured<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (n0, b0) = COUNTS.with(Cell::get);
    let out = f();
    let (n1, b1) = COUNTS.with(Cell::get);
    (out, n1 - n0, b1 - b0)
}

/// Per section: the copy out of the file and the structure built from it.
const PER_SECTION: u64 = 2;
/// Per keyword: its object table.
const PER_KEYWORD: u64 = 1;
/// Per NVD: its box, four quadtree arrays, two adjacency arrays and the
/// object → local id column.
const PER_NVD: u64 = 8;
/// Bytes one load may request per byte of the file.
const BYTES_PER_FILE_BYTE: u64 = 2;

/// The `lifecycle` shape: `n` vertices, built without every tenth object,
/// which are inserted lazily, then a twentieth mark-deleted.
fn lazily_updated_system(n: usize) -> KspinSystem {
    let graph = kspin::graph::generate::road_network(
        &kspin::graph::generate::RoadNetworkConfig::new(n, 40),
    );
    let mut cc = kspin::text::generate::CorpusConfig::new(graph.num_vertices(), 41);
    cc.object_fraction = 0.1;
    let (corpus, vocab) = kspin::text::generate::corpus(&cc);
    let config = KspinConfig {
        rho: 4,
        num_threads: 1,
    };
    let mut system = KspinSystem::build(graph, corpus, vocab, &config);
    let held = |o: ObjectId| o.is_multiple_of(10);
    system.index = KspinIndex::build_filtered(&system.graph, &system.corpus, |o| !held(o), &config);
    let mut dist = DijkstraDistance::new(&system.graph);
    let objects = system.corpus.num_objects() as ObjectId;
    for o in (0..objects).filter(|&o| held(o)) {
        system
            .index
            .insert_object(&system.graph, &system.corpus, o, &mut dist);
    }
    for o in (0..objects).filter(|o| o % 20 == 7) {
        system.index.delete_object(&system.corpus, o);
    }
    system
}

/// The byte bound of one load of `bytes`.
fn byte_bound(bytes: &[u8]) -> u64 {
    BYTES_PER_FILE_BYTE * bytes.len() as u64
}

#[test]
fn snapshot_load_allocates_per_keyword_and_nvd_not_per_generator_or_term() {
    let system = lazily_updated_system(3000);
    let bytes = system.save_snapshot(&SnapshotExtras::default());

    let f = SnapshotFile::validate(&bytes).expect("a fresh snapshot validates");
    let sections = u64::from(f.num_sections());
    let kinds = f.bytes(section::INDEX_TERM_KINDS).unwrap();
    let keywords = kinds.iter().filter(|&&k| k != 0).count() as u64;
    let nvds = kinds.iter().filter(|&&k| k == 2).count() as u64;
    let generators: u64 = f
        .u32s(section::KEYWORD_LENS)
        .unwrap()
        .iter()
        .map(|&l| u64::from(l))
        .sum();
    let terms = system.vocab.len() as u64;
    let bound = PER_SECTION * sections + PER_KEYWORD * keywords + PER_NVD * nvds;
    // The world is big enough that one allocation per generator and term
    // would break the bound on its own.
    assert!(
        generators + terms > bound,
        "{generators} generators, {terms} terms"
    );

    let (loaded, used, requested) = measured(|| KspinSystem::load_snapshot(&bytes).expect("load"));
    drop(loaded);

    assert!(
        used <= bound,
        "load made {used} allocations; the bound for {sections} sections, {keywords} \
         keywords and {nvds} NVDs is {bound} ({generators} generators, {terms} terms)"
    );
    assert!(
        requested <= byte_bound(&bytes),
        "load requested {requested} B for a {} B file (bound {} B)",
        bytes.len(),
        byte_bound(&bytes)
    );
}

#[test]
fn snapshot_validate_allocates_nothing_on_a_fresh_or_a_corrupt_file() {
    let bytes = lazily_updated_system(600).save_snapshot(&SnapshotExtras::default());
    let (fresh, used, requested) = measured(|| SnapshotFile::validate(&bytes).map(drop));
    assert!(fresh.is_ok(), "a fresh snapshot validates");
    assert_eq!(
        (used, requested),
        (0, 0),
        "validating a fresh file allocated"
    );

    let mut corrupt = bytes.clone();
    corrupt[200] ^= 0x40;
    let (refused, used, requested) = measured(|| SnapshotFile::validate(&corrupt).map(drop));
    assert!(refused.is_err(), "a flipped byte is refused");
    assert_eq!(
        (used, requested),
        (0, 0),
        "refusing a corrupt file allocated"
    );
}

/// Every section that holds a count or an offset table, with the index of
/// its first count: a length section's first word, an offset table's
/// first row end, the index meta's term slot count, and `CH_META`'s
/// shortcut count, which sizes nothing but must equal the upward arcs'.
const COUNTS_AT: [(u32, usize); 14] = [
    (section::GRAPH_OFFSETS, 1),
    (section::CORPUS_DOC_OFFSETS, 1),
    (section::VOCAB_OFFSETS, 1),
    (section::INDEX_META, 1),
    (section::NVD_LENS, 0),
    (section::NVD_LENS, 1),
    (section::NVD_LENS, 2),
    (section::NVD_LENS, 3),
    (section::NVD_LENS, 4),
    (section::NVD_CAND_OFFSETS, 1),
    (section::NVD_ADJ_OFFSETS, 1),
    (section::KEYWORD_LENS, 0),
    (section::CH_UP_OFFSETS, 1),
    (section::CH_META, 0),
];

/// `good` with every section copied and word `at` of section `id` (a
/// `u32` or `u64` section) set to `u32::MAX`, under fresh checksums.
fn with_max_count(good: &[u8], id: u32, at: usize) -> Vec<u8> {
    let f = SnapshotFile::validate(good).expect("fresh snapshot validates");
    let mut w = SnapshotWriter::new();
    for s in f.sections() {
        match s.kind {
            format::KIND_U32 => {
                let mut words = f.u32s(s.id).unwrap();
                if s.id == id {
                    words[at] = u32::MAX;
                }
                w.put_u32s(s.id, &words);
            }
            format::KIND_U64 => {
                let mut words = f.u64s(s.id).unwrap();
                if s.id == id {
                    words[at] = u64::from(u32::MAX);
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
fn a_count_of_u32_max_is_refused_within_the_byte_bound() {
    let system = lazily_updated_system(600);
    let ch = kspin::ch::ContractionHierarchy::build(&system.graph, &kspin::ch::ChConfig::default());
    let good = system.save_snapshot(&SnapshotExtras { ch: Some(ch) });
    let f = SnapshotFile::validate(&good).expect("a fresh snapshot validates");
    for (id, at) in COUNTS_AT {
        let s = f
            .section(id)
            .expect("the world saves every counted section");
        assert!(
            s.count > at as u64,
            "section {id} holds {} words, none at {at}",
            s.count
        );
        let bad = with_max_count(&good, id, at);
        let (outcome, _, requested) = measured(|| KspinSystem::load_snapshot(&bad).map(drop));
        let err = outcome.expect_err("a count of u32::MAX was accepted");
        assert!(
            matches!(err, SnapshotError::Decode { .. }),
            "section {id} word {at}: {err}"
        );
        assert!(
            requested <= byte_bound(&bad),
            "section {id} word {at}: the refused load requested {requested} B for a {} B \
             file (bound {} B)",
            bad.len(),
            byte_bound(&bad)
        );
    }
}
