//! Serving-layer sweep: `BatchExecutor` at 1 worker and at the host's
//! `available_parallelism` on a Zipf-skewed hot-keyword workload (§6
//! Obs. 1's traffic shape), reporting q/s and heap-kernel traffic per leg.
//! Worker counts between or beyond those two measure the scheduler, not
//! the engine; on a 1-thread host the sweep is the single 1-worker row.
//!
//! Besides the printed table, the sweep is emitted as machine-readable
//! JSON to `BENCH_serving.json` at the workspace root (CI uploads it as
//! an artifact).
//!
//! Each leg runs one unmeasured warmup pass followed by five measured
//! passes; the best pass is reported to suppress host noise.

use std::fmt::Write as _;
use std::time::Instant;

use kspin::adapters::HlDistance;
use kspin_bench::{build_dataset, default_scale, header, row};
use kspin_core::{BatchExecutor, KspinConfig, KspinIndex, Op, ServingQuery};
use kspin_text::workload::{zipf_queries, ZipfWorkloadConfig};

fn main() {
    let (name, vertices) = default_scale();
    let num_queries = if vertices <= 30_000 { 4_000 } else { 8_000 };
    println!(
        "dataset: {name}-scale ({vertices} vertices); Zipf serving workload: \
         {num_queries} queries, k=10, 2 terms, exponent 1.2"
    );
    let ds = build_dataset(name, vertices);
    let t0 = Instant::now();
    let alt = kspin_alt::AltIndex::build(&ds.graph, 16, kspin_alt::LandmarkStrategy::Farthest, 0);
    eprintln!("  ALT built in {:.1}s", t0.elapsed().as_secs_f64());
    // Serving wants the fastest distance module (the paper's point is that
    // it's pluggable): KS-HL, the Table 1 throughput winner.
    let t0 = Instant::now();
    let ch = kspin_ch::ContractionHierarchy::build(&ds.graph, &kspin_ch::ChConfig::default());
    let hl = kspin_hl::HubLabels::build(&ch);
    eprintln!("  CH+HL built in {:.1}s", t0.elapsed().as_secs_f64());
    let index = KspinIndex::build(&ds.graph, &ds.corpus, &KspinConfig::default());
    eprintln!(
        "  K-SPIN index built in {:.1}s",
        index.stats().build_seconds
    );

    let zipf = zipf_queries(
        &ds.corpus,
        &ZipfWorkloadConfig {
            num_queries,
            terms_per_query: 2,
            zipf_exponent: 1.2,
            hot_vertex_pool: 48,
            seed: 0xbead,
        },
        ds.graph.num_vertices(),
    );
    let queries: Vec<ServingQuery> = zipf
        .iter()
        .enumerate()
        .map(|(i, q)| match i % 2 {
            0 => ServingQuery::Bknn {
                vertex: q.vertex,
                k: 10,
                terms: q.terms.clone(),
                op: Op::Or,
            },
            _ => ServingQuery::TopK {
                vertex: q.vertex,
                k: 10,
                terms: q.terms.clone(),
            },
        })
        .collect();

    header("Serving: threads", &["threads", "q/s", "speedup"]);
    let hardware_threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut json_rows = String::new();
    let mut baseline_qps = 0.0f64;
    let mut thread_axis = vec![1, hardware_threads];
    thread_axis.dedup(); // 1-thread host: one leg.
    for threads in thread_axis {
        let exec = BatchExecutor::new(&ds.graph, &ds.corpus, &index, &alt, threads);
        let _ = exec.execute(&queries, || HlDistance::new(&hl));
        let mut qps = 0.0f64;
        let mut out = None;
        for _rep in 0..5 {
            let t0 = Instant::now();
            let rep_out = exec.execute(&queries, || HlDistance::new(&hl));
            let rep_qps = queries.len() as f64 / t0.elapsed().as_secs_f64();
            if rep_qps > qps {
                qps = rep_qps;
                out = Some(rep_out);
            }
        }
        let out = out.expect("at least one measured pass ran");
        if threads == 1 {
            baseline_qps = qps;
        }
        row(threads, &[qps, qps / baseline_qps]);
        eprintln!("    stats: {}", out.stats);
        let _comma = if json_rows.is_empty() { "" } else { ",\n" };
        write!(
            json_rows,
            "{_comma}    {{\"threads\": {threads}, \"qps\": {qps:.1}, \
             \"heap_pushes\": {}, \"heap_pops\": {}, \
             \"heap_decrease_keys\": {}, \
             \"heap_grows\": {}, \"grows_per_query\": {:.4}, \
             \"speedup_vs_1t\": {:.3}}}",
            out.stats.heap_pushes,
            out.stats.heap_pops,
            out.stats.heap_decrease_keys,
            out.stats.heap_grows,
            out.stats.heap_grows as f64 / queries.len() as f64,
            qps / baseline_qps,
        )
        .expect("write to String cannot fail");
    }

    let json = format!(
        "{{\n  \"bench\": \"table_serving\",\n  \"dataset\": \"{name}\",\n  \
         \"vertices\": {vertices},\n  \"num_queries\": {},\n  \
         \"hardware_threads\": {},\n  \"rows\": [\n{json_rows}\n  ]\n}}\n",
        queries.len(),
        hardware_threads,
    );
    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serving.json");
    std::fs::write(out_path, &json).expect("failed to write BENCH_serving.json");
    println!("\nwrote {out_path}");
}
