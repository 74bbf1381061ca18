//! Startup table: cold index construction vs flat-binary snapshot load
//! at three scales, reporting wall clock, snapshot size, bytes/vertex
//! and per-section byte breakdown.
//!
//! The cold path is what every process start pays without persistence:
//! ALT landmark sweeps plus the full Keyword Separated Index build
//! (per-keyword NVD sweeps). The snapshot path validates checksums and
//! copies flat arrays into pre-sized `Vec`s — no rebuild, and the
//! reloaded system serves bit-identically (enforced by
//! `tests/snapshot_roundtrip.rs`; this bench re-asserts canonical
//! re-serialization as a cheap proxy).
//!
//! Results go to `BENCH_startup.json` at the workspace root. CI
//! validates the ratchet: snapshot load must be ≥ 20× faster than cold
//! build at every size. `KSPIN_BENCH_SCALE=small` runs the 10k size
//! only (smoke runs).

use std::fmt::Write as _;
use std::time::Instant;

use kspin::prelude::*;
use kspin::snapshot::SnapshotExtras;
use kspin_bench::{build_dataset, header, row};
use kspin_core::snapshot::{format, SnapshotFile};

/// Timed loads per size, the best of which is reported. Each follows a
/// timed re-validation of the same bytes, as a process start would run
/// one, so every load meets the file in the cache state the one before it
/// met.
const LOADS: usize = 25;

fn sizes() -> &'static [usize] {
    if std::env::var("KSPIN_BENCH_SCALE").as_deref() == Ok("small") {
        &[10_000]
    } else {
        &[10_000, 30_000, 100_000]
    }
}

fn main() {
    header(
        "Startup: cold build vs snapshot load",
        &[
            "vertices", "build s", "load ms", "speedup", "MiB", "B/vertex",
        ],
    );
    let mut json_rows = String::new();
    for &n in sizes() {
        let ds = build_dataset(n);
        let vertices = ds.graph.num_vertices();
        let config = KspinConfig::default();

        // Cold path: everything a process start pays without persistence.
        let t0 = Instant::now();
        let system = KspinSystem::build(ds.graph, ds.corpus, ds.vocab, &config);
        let build_s = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let bytes = system.save_snapshot(&SnapshotExtras::default());
        let save_s = t0.elapsed().as_secs_f64();

        // Warm path: validate-then-copy, best of `LOADS` passes.
        let (mut load_s, mut validate_s) = (f64::INFINITY, f64::INFINITY);
        let mut reloaded = None;
        for _rep in 0..LOADS {
            let t0 = Instant::now();
            SnapshotFile::validate(&bytes).expect("fresh snapshot validates");
            validate_s = validate_s.min(t0.elapsed().as_secs_f64());
            let t0 = Instant::now();
            let loaded = KspinSystem::load_snapshot(&bytes).expect("snapshot loads");
            load_s = load_s.min(t0.elapsed().as_secs_f64());
            reloaded = Some(loaded);
        }
        let (reloaded, extras) = reloaded.expect("at least one load pass ran");
        assert_eq!(
            reloaded.save_snapshot(&extras),
            bytes,
            "save -> load -> save must be byte-identical"
        );

        let speedup = build_s / load_s;
        let bytes_per_vertex = bytes.len() as f64 / vertices as f64;
        row(
            format!("{vertices}"),
            &[
                build_s,
                load_s * 1e3,
                speedup,
                bytes.len() as f64 / (1024.0 * 1024.0),
                bytes_per_vertex,
            ],
        );

        let f = SnapshotFile::validate(&bytes).expect("fresh snapshot validates");
        let mut sections = String::new();
        for i in 0..f.num_sections() {
            let s = f.section_at(i).expect("table index in range");
            let comma = if sections.is_empty() { "" } else { ", " };
            write!(
                sections,
                "{comma}{{\"id\": {}, \"name\": \"{}\", \"elems\": {}, \"bytes\": {}}}",
                s.id,
                format::section_name(s.id),
                s.count,
                s.payload.len()
            )
            .expect("write to String cannot fail");
        }
        let comma = if json_rows.is_empty() { "" } else { ",\n" };
        write!(
            json_rows,
            "{comma}    {{\"vertices\": {vertices}, \"objects\": {}, \
             \"build_s\": {build_s:.4}, \"save_s\": {save_s:.4}, \
             \"validate_s\": {validate_s:.6}, \"load_s\": {load_s:.6}, \
             \"speedup\": {speedup:.1}, \
             \"snapshot_bytes\": {}, \"bytes_per_vertex\": {bytes_per_vertex:.1}, \
             \"sections\": [{sections}]}}",
            reloaded.corpus.num_objects(),
            bytes.len(),
        )
        .expect("write to String cannot fail");
    }

    let json = format!(
        "{{\n  \"bench\": \"table_startup\",\n  \"ratchet_min_speedup\": 20.0,\n  \
         \"hardware_threads\": {},\n  \"rows\": [\n{json_rows}\n  ]\n}}\n",
        std::thread::available_parallelism().map_or(1, |p| p.get()),
    );
    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_startup.json");
    std::fs::write(out_path, &json).expect("failed to write BENCH_startup.json");
    println!("\nwrote {out_path}");
}
