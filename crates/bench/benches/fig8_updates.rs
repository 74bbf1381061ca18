//! Figure 8: handling updates (§6.2) on the FL-scale network.
//!
//! Three keywords are drawn from the lower / middle / upper thirds of the
//! frequency distribution ("small", "medium", "large" NVDs). For each we:
//!
//! * (a) build the keyword's index over (100−x)% of its objects, lazily
//!   insert the remaining x% ∈ {1, 2, 5}%, and measure single-keyword
//!   BkNN query time — expect a modest rise with x;
//! * (b) measure the average lazy-insertion time and the full rebuild
//!   time — lazy insertion must be orders of magnitude cheaper.

use std::time::Instant;

use kspin::adapters::HlDistance;
use kspin_alt::{AltIndex, LandmarkStrategy};
use kspin_bench::{build_dataset, default_scale, header, row};
use kspin_ch::{ChConfig, ContractionHierarchy};
use kspin_core::{KspinConfig, KspinIndex, NetworkDistance, Op, QueryEngine};
use kspin_hl::HubLabels;
use kspin_text::workload::query_vertices;
use kspin_text::{ObjectId, TermId};

/// Picks a keyword whose inverted list size is closest to `target`.
fn pick_term(ds: &kspin_bench::Dataset, target: usize) -> TermId {
    (0..ds.corpus.num_terms() as TermId)
        .filter(|&t| ds.corpus.inv_len(t) > 8)
        .min_by_key(|&t| ds.corpus.inv_len(t).abs_diff(target))
        .expect("no indexable keyword")
}

fn main() {
    let (name, vertices) = default_scale();
    println!("dataset: {name}-scale ({vertices} vertices)");
    let ds = build_dataset(name, vertices);
    let alt = AltIndex::build(&ds.graph, 16, LandmarkStrategy::Farthest, 0);
    // Updates consult the framework's Network Distance Module (§6.2: d(o,p)
    // "can be conveniently computed using the Network Distance Module
    // already available"); use the fast label oracle as a real deployment
    // would.
    let ch = ContractionHierarchy::build(&ds.graph, &ChConfig::default());
    let hl = HubLabels::build(&ch);
    let threads = std::thread::available_parallelism().map_or(4, |p| p.get());

    // Frequency thirds (by the largest inverted list).
    let max_inv = (0..ds.corpus.num_terms() as TermId)
        .map(|t| ds.corpus.inv_len(t))
        .max()
        .unwrap();
    let picks = [
        ("small", pick_term(&ds, max_inv / 20)),
        ("medium", pick_term(&ds, max_inv / 4)),
        ("large", pick_term(&ds, max_inv)),
    ];
    for (label, t) in picks {
        println!("  {label} NVD keyword: |inv| = {}", ds.corpus.inv_len(t));
    }

    let qvs = query_vertices(ds.graph.num_vertices(), 200, 0xfeed);

    header(
        "Fig 8(a): single-keyword BkNN query time after x% lazy insertions (us)",
        &["x%", "small", "medium", "large"],
    );
    let mut rows: Vec<(usize, Vec<f64>)> =
        [0usize, 1, 2, 5].iter().map(|&x| (x, Vec::new())).collect();
    let mut insert_times: Vec<(String, f64, f64)> = Vec::new();

    for (label, t) in picks {
        let inv: Vec<ObjectId> = ds.corpus.inverted(t).iter().map(|p| p.object).collect();
        for (x, series) in rows.iter_mut() {
            let cut = inv.len() * *x / 100;
            let late: std::collections::HashSet<ObjectId> =
                inv[inv.len() - cut..].iter().copied().collect();
            let mut index = KspinIndex::build_filtered(
                &ds.graph,
                &ds.corpus,
                |o| !late.contains(&o),
                &KspinConfig {
                    rho: 5,
                    num_threads: threads,
                },
            );
            let mut dist = HlDistance::new(&hl);
            let t0 = Instant::now();
            for &o in &late {
                index.insert_object(
                    &ds.graph,
                    &ds.corpus,
                    o,
                    &mut dist as &mut dyn NetworkDistance,
                );
            }
            let insert_total = t0.elapsed().as_secs_f64();
            if *x == 5 {
                // (b): per-insert cost and rebuild cost at the largest x.
                let t0 = Instant::now();
                index.rebuild_term(&ds.graph, &ds.corpus, t);
                let rebuild = t0.elapsed().as_secs_f64();
                insert_times.push((
                    label.to_string(),
                    insert_total / late.len().max(1) as f64 * 1e3,
                    rebuild * 1e3,
                ));
                // Re-apply lazy state for the query measurement: rebuild is
                // exact too, so measuring post-rebuild would hide the lazy
                // overhead — rebuild again from scratch with lazy inserts.
                index = KspinIndex::build_filtered(
                    &ds.graph,
                    &ds.corpus,
                    |o| !late.contains(&o),
                    &KspinConfig {
                        rho: 5,
                        num_threads: threads,
                    },
                );
                let mut dist = HlDistance::new(&hl);
                for &o in &late {
                    index.insert_object(
                        &ds.graph,
                        &ds.corpus,
                        o,
                        &mut dist as &mut dyn NetworkDistance,
                    );
                }
            }
            let mut e = QueryEngine::new(&ds.graph, &ds.corpus, &index, &alt, HlDistance::new(&hl));
            let t0 = Instant::now();
            for &q in &qvs {
                e.bknn(q, 10, &[t], Op::Or);
            }
            series.push(t0.elapsed().as_secs_f64() / qvs.len() as f64 * 1e6);
        }
    }
    for (x, series) in rows {
        row(format!("{x}%"), &series);
    }

    header(
        "Fig 8(b): lazy insertion vs rebuild cost (ms, at x = 5%)",
        &["NVD", "per-insert", "rebuild"],
    );
    for (label, per_insert, rebuild) in insert_times {
        row(label, &[per_insert, rebuild]);
    }
}
