//! `KspinSystem::load_snapshot` allocates per section, per keyword and
//! per NVD — never per generator or per vocabulary term. A counting
//! global allocator counts one load of a lazily updated world and holds
//! the count to a bound linear in the keyword and NVD counts alone.
//!
//! One test per binary: the allocation counter is process-global, so a
//! concurrently running sibling test would pollute the measurement.

// The workspace denies `unsafe_code`; a `#[global_allocator]` impl is the
// one place this test binary genuinely needs it (GlobalAlloc is an unsafe
// trait — the impl below only delegates to `System` and counts).
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use kspin::prelude::*;
use kspin_core::snapshot::format::section;

/// Counts every heap acquisition (`alloc` and `realloc`) and delegates to
/// the system allocator.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Per section: the copy out of the file and the structure built from it.
const PER_SECTION: u64 = 2;
/// Per keyword: its object table.
const PER_KEYWORD: u64 = 1;
/// Per NVD: its box, four quadtree arrays, two adjacency arrays and the
/// object → local id column.
const PER_NVD: u64 = 8;

#[test]
fn snapshot_load_allocates_per_keyword_and_nvd_not_per_generator_or_term() {
    // The `lifecycle` shape: built without every tenth object, which are
    // inserted lazily, then a twentieth mark-deleted.
    let graph = kspin::graph::generate::road_network(
        &kspin::graph::generate::RoadNetworkConfig::new(3000, 40),
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

    let before = allocations();
    let loaded = KspinSystem::load_snapshot(&bytes).expect("load");
    let used = allocations() - before;
    drop(loaded);

    assert!(
        used <= bound,
        "load made {used} allocations; the bound for {sections} sections, {keywords} \
         keywords and {nvds} NVDs is {bound} ({generators} generators, {terms} terms)"
    );
}
