//! Figure 6: ρ-Approximate NVD performance.
//!
//! * (a) index size (bars) and construction time (line) vs ρ on the
//!   FL-scale network — expect ~an order of magnitude size reduction from
//!   ρ = 1 (exact region quadtree) to ρ = 5+, and falling build time as
//!   Observation 1 skips ever more keywords.
//! * (b) BkNN / top-k query time vs ρ (k = 10, 2 terms) — expect a flat
//!   line: the ≤ ρ−1 extra heap-init candidates are cheap lower bounds.
//! * (c) index size, quadtree vs R-tree storage, across dataset scales —
//!   both ≈ linear in keyword occurrences.
//! * (d) parallel NVD construction speedup over 1–16 threads
//!   (Observation 3) — efficiency should stay high.

use std::time::Instant;

use kspin::adapters::ChDistance;
use kspin_alt::{AltIndex, LandmarkStrategy};
use kspin_bench::{
    build_dataset, default_scale, header, mib, row, std_queries, time_per_query, SCALES,
};
use kspin_ch::{ChConfig, ContractionHierarchy};
use kspin_core::{KspinConfig, KspinIndex, Op, QueryEngine};
use kspin_nvd::{ApproxNvd, ExactNvd, SweepScratch};
use kspin_text::TermId;

/// Bytes of an STR-bulk-loaded R-tree (fan-out 16) holding one MBR per
/// Voronoi cell of `m ≥ 1` generators — the linear-space alternative §6.1
/// sets against the quadtree. STR's slab and pack counts depend on `m`
/// alone, so the Fig. 6(c) column needs no tree: `m` MBRs of four `i32`,
/// plus per node one MBR, an 8-byte header and 4 bytes per child.
fn str_rtree_bytes(m: usize) -> usize {
    const FANOUT: usize = 16;
    const MBR_BYTES: usize = 16;
    // Leaf level: ⌈√(m/16)⌉ vertical slabs, each packed in runs of 16.
    let slices = (m as f64 / FANOUT as f64).sqrt().ceil() as usize;
    let slab = m.div_ceil(slices);
    let mut level = (m / slab) * slab.div_ceil(FANOUT) + (m % slab).div_ceil(FANOUT);
    let (mut nodes, mut children) = (level, m);
    // Upper levels pack runs of 16 nodes until a single root remains.
    while level > 1 {
        children += level;
        level = level.div_ceil(FANOUT);
        nodes += level;
    }
    m * MBR_BYTES + nodes * (MBR_BYTES + 8) + children * 4
}

fn main() {
    let (name, vertices) = default_scale();
    println!("dataset: {name}-scale ({vertices} vertices)");
    let ds = build_dataset(name, vertices);
    let threads = std::thread::available_parallelism().map_or(4, |p| p.get());

    // ---- (a) size + build time vs rho --------------------------------
    header(
        "Fig 6(a): APX-NVD index size and construction time vs rho",
        &["rho", "size (MiB)", "build (s)", "NVD kws", "small kws"],
    );
    let mut indexes = Vec::new();
    for rho in [1usize, 3, 5, 7, 9, 11] {
        let cfg = KspinConfig {
            rho,
            num_threads: threads,
        };
        let index = KspinIndex::build(&ds.graph, &ds.corpus, &cfg);
        row(
            rho,
            &[
                mib(index.size_bytes()),
                index.stats().build_seconds,
                index.stats().nvd_terms as f64,
                index.stats().small_terms as f64,
            ],
        );
        indexes.push((rho, index));
    }

    // ---- (b) query time vs rho ----------------------------------------
    header(
        "Fig 6(b): query time vs rho (k=10, 2 terms, microseconds)",
        &["rho", "BkNN-dis (us)", "BkNN-con (us)", "top-k (us)"],
    );
    let alt = AltIndex::build(&ds.graph, 16, LandmarkStrategy::Farthest, 0);
    let ch = ContractionHierarchy::build(&ds.graph, &ChConfig::default());
    let qs = std_queries(&ds, 2);
    for (rho, index) in &indexes {
        let mut e = QueryEngine::new(&ds.graph, &ds.corpus, index, &alt, ChDistance::new(&ch));
        let dis = time_per_query(&qs, |q| {
            e.bknn(q.vertex, 10, &q.terms, Op::Or);
        });
        let con = time_per_query(&qs, |q| {
            e.bknn(q.vertex, 10, &q.terms, Op::And);
        });
        let topk = time_per_query(&qs, |q| {
            e.top_k(q.vertex, 10, &q.terms);
        });
        row(rho, &[dis, con, topk]);
    }
    drop(indexes);

    // ---- (c) quadtree vs R-tree size across datasets -------------------
    header(
        "Fig 6(c): index size by storage, across datasets (MiB)",
        &["dataset", "occurrences", "quadtree", "R-tree"],
    );
    for (sname, sv) in SCALES {
        if sv > vertices {
            continue; // stay within the chosen budget
        }
        let sds = build_dataset(sname, sv);
        let rho = 5;
        let mut quad = 0usize;
        let mut rtree = 0usize;
        let mut scratch = SweepScratch::default();
        for t in 0..sds.corpus.num_terms() as TermId {
            let postings = sds.corpus.inverted(t);
            if postings.len() <= rho {
                quad += postings.len() * 9;
                rtree += postings.len() * 9;
                continue;
            }
            let gens: Vec<u32> = postings
                .iter()
                .map(|p| sds.corpus.vertex_of(p.object))
                .collect();
            let exact = ExactNvd::build(&sds.graph, &gens, &mut scratch);
            rtree += str_rtree_bytes(gens.len());
            quad += ApproxNvd::from_exact(&sds.graph, exact, rho).size_bytes();
        }
        row(
            sname,
            &[sds.corpus.total_occurrences() as f64, mib(quad), mib(rtree)],
        );
    }

    // ---- (d) parallel construction speedup -----------------------------
    header(
        "Fig 6(d): parallel NVD construction (rho=5)",
        &["threads", "build (s)", "speedup", "efficiency"],
    );
    let mut t1 = 0.0f64;
    for p in [1usize, 2, 4, 8, 16] {
        if p > threads * 2 {
            break;
        }
        let cfg = KspinConfig {
            rho: 5,
            num_threads: p,
        };
        let t0 = Instant::now();
        let index = KspinIndex::build(&ds.graph, &ds.corpus, &cfg);
        let dt = t0.elapsed().as_secs_f64();
        if p == 1 {
            t1 = dt;
        }
        row(p, &[dt, t1 / dt, t1 / (p as f64 * dt)]);
        drop(index);
    }
}
