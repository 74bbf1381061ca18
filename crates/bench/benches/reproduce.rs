//! Regenerates the paper's evaluation (§7): Tables 1–2, Figs. 6 and 8–16
//! and the ablation, each printed with the paper's rows and series, and
//! the two committed tables `BENCH_distance.json` and `BENCH_startup.json`.
//!
//! ```text
//! cargo bench -p kspin-bench --bench reproduce                 # every table and figure
//! cargo bench -p kspin-bench --bench reproduce -- fig9 fig16   # the named ones
//! cargo bench -p kspin-bench --bench reproduce -- distance startup
//! ```
//!
//! A *world* is one synthetic dataset (a Table 2 stand-in, DESIGN.md §3)
//! with every structure a method needs: ALT-16 and the K-SPIN index, CH,
//! HL, G-tree, the spatial-keyword G-tree, ROAD and FS-FBS, each built and
//! timed once. Worlds climb the scale ladder one at a time, smallest
//! first, and each is dropped before the next, so memory peaks at one
//! world. The ladder ends at DE, ME under `KSPIN_BENCH_SCALE=small`, at FL
//! by default and at E under `KSPIN_BENCH_SCALE=full`. The figures over
//! one dataset run on the top world; a run that selects only such figures
//! builds no other, and a run of `distance` or `startup` alone builds none.
//!
//! Absolute numbers differ from the paper's testbed. Each figure's doc
//! states the shape the paper reports and, where a run here contradicts
//! it, what the run shows.
//!
//! Every K-SPIN index here is the paper's: ρ is both the quadtree's colour
//! limit and the list threshold (`list_max = ρ`, [`paper`]). The library's
//! default list threshold (20) shows in one extension row per dataset of
//! Fig. 14, and `startup` builds at the default configuration.

// Float ordering goes through `OrderedWeight`: `partial_cmp` is on the
// clippy.toml method list, with the clock and thread calls.
#![deny(clippy::disallowed_methods)]

use std::time::Instant;

use kspin::adapters::{ChDistance, GtreeNetworkDistance, HlDistance};
use kspin::snapshot::SnapshotExtras;
use kspin::KspinSystem;
use kspin_alt::{AltIndex, LandmarkStrategy};
use kspin_ch::{ChConfig, ChQuery, ContractionHierarchy};
use kspin_core::modules::ZeroLowerBound;
use kspin_core::snapshot::format::{section, section_name};
use kspin_core::snapshot::SnapshotFile;
use kspin_core::{KspinConfig, KspinIndex, LowerBound, NetworkDistance, Op, QueryEngine};
use kspin_fsfbs::FsFbs;
use kspin_graph::generate::{road_network, RoadNetworkConfig};
use kspin_graph::{Dijkstra, Graph, HeapCounters, VertexId};
use kspin_gtree::tree::GtreeConfig;
use kspin_gtree::{GTree, GtreeSpatialKeyword, OccurrenceMode};
use kspin_hl::HubLabels;
use kspin_nvd::{ExactNvd, SweepScratch};
use kspin_road::RoadIndex;
use kspin_text::generate::{corpus, CorpusConfig};
use kspin_text::workload::{queries, query_vertices, Query, WorkloadConfig};
use kspin_text::{Corpus, ObjectId, TermId, Vocabulary};

/// The paper's index configuration at `rho`: a keyword with at most ρ
/// objects is a plain list (Observation 1), and NVD leaves stop at ρ
/// colours.
fn paper(rho: usize) -> KspinConfig {
    KspinConfig {
        rho,
        list_max: rho,
        ..KspinConfig::default()
    }
}

/// The paper's default ρ (§7.1).
const PAPER_RHO: usize = 5;

/// Every name a run can select, in the order a full run prints them.
const NAMES: [&str; 15] = [
    "table1", "table2", "fig6", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
    "fig15", "fig16", "ablation", "distance", "startup",
];

/// The names with one row per world of the ladder; the figures of
/// `TOP_WORLD_FIGURES` run on the top world only, and `distance` and
/// `startup` build their own datasets.
const LADDER_NAMES: [&str; 4] = ["table2", "fig6", "fig12", "fig14"];

/// A table or figure over one world.
type Figure = fn(&World);

/// What runs on the top world, in print order. Fig. 6's (c) panel and the
/// `LADDER_NAMES` tables are collected from every world.
const TOP_WORLD_FIGURES: [(&str, Figure); 10] = [
    ("table1", table1),
    ("fig6", fig6),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig13", fig13),
    ("fig15", fig15),
    ("fig16", fig16),
    ("ablation", ablation),
];

/// The scale ladder standing in for DE / ME / FL / E (Table 2). The US
/// scale (24M vertices) is out of wall-clock scope — see DESIGN.md §3.
const SCALES: [(&str, usize); 4] = [
    ("DE", 10_000),
    ("ME", 30_000),
    ("FL", 80_000),
    ("E", 160_000),
];

/// The sizes of the `distance` and `startup` tables: those of their
/// committed rows, so that a run's exact cells compare with them.
const TABLE_SIZES: [usize; 3] = [10_000, 30_000, 100_000];

/// How large a run is, from `KSPIN_BENCH_SCALE`: `small` (smoke runs),
/// `full`, or the default when unset or anything else.
#[derive(Clone, Copy)]
enum Scale {
    Small,
    Default,
    Full,
}

impl Scale {
    /// The one reading of `KSPIN_BENCH_SCALE`.
    fn from_env() -> Self {
        match std::env::var("KSPIN_BENCH_SCALE").as_deref() {
            Ok("small") => Scale::Small,
            Ok("full") => Scale::Full,
            _ => Scale::Default,
        }
    }

    /// The scales a run builds worlds at: up to ME when small, FL by
    /// default ("the largest dataset" stand-in that keeps `cargo bench`
    /// under control), E when full.
    fn ladder(self) -> &'static [(&'static str, usize)] {
        match self {
            Scale::Small => &SCALES[..2],
            Scale::Default => &SCALES[..3],
            Scale::Full => &SCALES,
        }
    }

    /// The `distance` and `startup` sizes: all three, less 100k when small.
    fn table_sizes(self) -> &'static [usize] {
        match self {
            Scale::Small => &TABLE_SIZES[..2],
            Scale::Default | Scale::Full => &TABLE_SIZES,
        }
    }
}

/// The names given after `--`, or all of them. Cargo adds `--bench`. An
/// unknown name ends the run with exit code 1.
fn selection() -> Vec<&'static str> {
    let args: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a != "--bench")
        .collect();
    if args.is_empty() {
        return NAMES.to_vec();
    }
    args.iter()
        .map(|a| {
            NAMES.into_iter().find(|n| n == a).unwrap_or_else(|| {
                eprintln!("unknown name {a:?}; valid names: {}", NAMES.join(" "));
                std::process::exit(1)
            })
        })
        .collect()
}

/// A synthetic dataset standing in for a Table 2 road network at
/// `vertices` scale, with Table 2-like keyword ratios.
fn build_dataset(vertices: usize) -> (Graph, Corpus, Vocabulary) {
    let graph = road_network(&RoadNetworkConfig::new(vertices, 0x5eed ^ vertices as u64));
    let seed = 0xc0de ^ vertices as u64;
    let (corpus, vocab) = corpus(&CorpusConfig::new(graph.num_vertices(), seed));
    (graph, corpus, vocab)
}

/// Prints a figure/table header in a uniform style.
fn header(title: &str, cols: &[&str]) {
    println!("\n=== {title} ===");
    print!("{:<14}", cols[0]);
    for c in &cols[1..] {
        print!(" {c:>14}");
    }
    println!();
}

/// Prints one row: a label and a series of values.
fn row(label: impl std::fmt::Display, values: &[f64]) {
    print!("{label:<14}");
    for v in values {
        if *v < 0.0 {
            print!(" {:>14}", "x"); // "not supported / not built"
        } else if *v >= 1000.0 {
            print!(" {v:>14.0}");
        } else {
            print!(" {v:>14.2}");
        }
    }
    println!();
}

/// The harness's one clock read: timing is what it reports, and the
/// method list denies `Instant::now` everywhere else in this file.
#[expect(clippy::disallowed_methods, reason = "a bench times what it runs")]
fn now() -> Instant {
    Instant::now()
}

/// Builds one structure of a world, printing its build time to stderr.
fn timed<T>(what: &str, build: impl FnOnce() -> T) -> (T, f64) {
    let t0 = now();
    let built = build();
    let secs = t0.elapsed().as_secs_f64();
    eprintln!("  {what} built in {secs:.1}s");
    (built, secs)
}

/// Times `f` over all queries; returns average microseconds per query.
fn time_per_query<F: FnMut(&Query)>(qs: &[Query], mut f: F) -> f64 {
    let t0 = now();
    for q in qs {
        f(q);
    }
    t0.elapsed().as_secs_f64() / qs.len() as f64 * 1e6
}

/// The least of `runs` timed calls of `pass`, in seconds, after one
/// untimed warm-up call, with the last call's output. The least, because
/// the host is shared: any one call can eat a scheduler stall, and the
/// minimum discards those.
fn best_of<T>(runs: usize, mut pass: impl FnMut() -> T) -> (f64, T) {
    let mut last = pass();
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        let t0 = now();
        let out = std::hint::black_box(pass());
        best = best.min(t0.elapsed().as_secs_f64());
        last = out;
    }
    (best, last)
}

/// Formats bytes as MiB.
fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// A query kind of §2: top-k, or Boolean kNN under ∨ or ∧.
#[derive(Clone, Copy)]
enum Kind {
    TopK,
    Bknn(Op),
}

/// The methods of §7.1.
#[derive(Clone, Copy)]
enum Method {
    /// K-SPIN over hub labels, standing in for the paper's KS-PHL.
    KsHl,
    KsCh,
    /// K-SPIN over G-tree's index as its distance module (§7.4).
    KsGt,
    /// The spatial-keyword G-tree with aggregated occurrence lists.
    Gtree,
    /// The same tree with per-keyword occurrence lists (§7.4).
    GtreeOpt,
    Road,
    FsFbs,
}

impl Method {
    fn label(self) -> &'static str {
        match self {
            Method::KsHl => "KS-HL",
            Method::KsCh => "KS-CH",
            Method::KsGt => "KS-GT",
            Method::Gtree => "G-tree",
            Method::GtreeOpt => "Gtree-Opt",
            Method::Road => "ROAD",
            Method::FsFbs => "FS-FBS",
        }
    }
}

/// Mean microseconds per query of a K-SPIN engine answering `kind` at `k`.
fn time_engine<D: NetworkDistance>(
    e: &mut QueryEngine<'_, D>,
    kind: Kind,
    k: usize,
    qs: &[Query],
) -> f64 {
    time_per_query(qs, |q| match kind {
        Kind::TopK => {
            e.top_k(q.vertex, k, &q.terms);
        }
        Kind::Bknn(op) => {
            e.bknn(q.vertex, k, &q.terms, op);
        }
    })
}

/// Timed passes per Fig. 8(a) cell, after one untimed warm-up pass.
const FIG8_PASSES: usize = 7;

/// The median and the interquartile distance of [`FIG8_PASSES`] passes of
/// [`time_engine`], after one warm-up pass. One pass of a few hundred
/// microsecond-scale queries is too short to tell Fig. 8(a)'s rows apart.
fn median_and_iqr<D: NetworkDistance>(
    e: &mut QueryEngine<'_, D>,
    kind: Kind,
    k: usize,
    qs: &[Query],
) -> (f64, f64) {
    time_engine(e, kind, k, qs);
    let mut passes: Vec<f64> = (0..FIG8_PASSES)
        .map(|_| time_engine(e, kind, k, qs))
        .collect();
    passes.sort_unstable_by(f64::total_cmp);
    // Linear interpolation between the two closest ranks.
    let quantile = |q: f64| {
        let at = q * (passes.len() - 1) as f64;
        let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
        passes[lo] + (passes[hi] - passes[lo]) * (at - lo as f64)
    };
    (quantile(0.5), quantile(0.75) - quantile(0.25))
}

/// One dataset and every structure built over it.
struct World<'a> {
    name: &'static str,
    sys: &'a KspinSystem,
    ch: &'a ContractionHierarchy,
    hl: &'a HubLabels,
    gt: &'a GTree,
    sk: GtreeSpatialKeyword<'a>,
    road: RoadIndex<'a>,
    fsfbs: FsFbs<'a>,
    /// Fig. 14(b)'s build seconds, each with what it needs: K-SPIN + ALT,
    /// CH, HL (+ CH), G-tree (+ its keyword layer), ROAD (+ G-tree),
    /// FS-FBS (+ CH + HL).
    build_seconds: [f64; 6],
}

impl World<'_> {
    fn graph(&self) -> &Graph {
        &self.sys.graph
    }

    fn corpus(&self) -> &Corpus {
        &self.sys.corpus
    }

    /// Fig. 14(a)'s bytes, each with what it needs: the input, K-SPIN +
    /// ALT, CH, HL, G-tree (+ its keyword layer), ROAD (+ G-tree), FS-FBS
    /// (+ HL).
    fn sizes(&self) -> [usize; 7] {
        let (gt, hl) = (self.gt.size_bytes(), self.hl.size_bytes());
        [
            self.graph().size_bytes() + self.corpus().size_bytes(),
            self.sys.index.size_bytes() + self.sys.alt.size_bytes(),
            self.ch.size_bytes(),
            hl,
            gt + self.sk.size_bytes(),
            gt + self.road.size_bytes(),
            hl + self.fsfbs.size_bytes(),
        ]
    }

    /// The §7.1 workload: correlated keyword vectors of `num_terms` terms
    /// from the five seed terms, crossed with uniform query vertices.
    /// Scaled-down counts keep each figure in seconds; the structure
    /// matches the paper exactly.
    fn queries(&self, num_terms: usize) -> Vec<Query> {
        let cfg = WorkloadConfig {
            seed_terms: vec![0, 1, 2, 3, 4],
            objects_per_term: 4,
            vertices_per_vector: 5,
            seed: 0xbead,
        };
        queries(self.corpus(), &cfg, self.graph().num_vertices(), num_terms)
    }

    /// Mean microseconds per query of `m` answering `kind` at `k` over
    /// `qs`; `None` where the paper marks the method unsupported (Table 1:
    /// ROAD answers no BkNN, FS-FBS no top-k).
    fn time(&self, m: Method, kind: Kind, k: usize, qs: &[Query]) -> Option<f64> {
        let sys = self.sys;
        let mode = match m {
            Method::GtreeOpt => OccurrenceMode::PerKeyword,
            _ => OccurrenceMode::Aggregated,
        };
        Some(match (m, kind) {
            (Method::KsHl, _) => {
                time_engine(&mut sys.engine(HlDistance::new(self.hl)), kind, k, qs)
            }
            (Method::KsCh, _) => {
                time_engine(&mut sys.engine(ChDistance::new(self.ch)), kind, k, qs)
            }
            (Method::KsGt, _) => {
                let dist = GtreeNetworkDistance::new(self.gt, self.graph());
                time_engine(&mut sys.engine(dist), kind, k, qs)
            }
            (Method::Gtree | Method::GtreeOpt, Kind::TopK) => time_per_query(qs, |q| {
                self.sk.top_k(q.vertex, k, &q.terms, mode);
            }),
            (Method::Gtree | Method::GtreeOpt, Kind::Bknn(op)) => time_per_query(qs, |q| {
                self.sk.bknn(q.vertex, k, &q.terms, op == Op::And, mode);
            }),
            (Method::Road, Kind::TopK) => time_per_query(qs, |q| {
                self.road.top_k(q.vertex, k, &q.terms);
            }),
            (Method::FsFbs, Kind::Bknn(op)) => time_per_query(qs, |q| {
                self.fsfbs.bknn(q.vertex, k, &q.terms, op == Op::And);
            }),
            (Method::Road, Kind::Bknn(_)) | (Method::FsFbs, Kind::TopK) => return None,
        })
    }

    /// One row of a figure: each method's time, `x` where unsupported.
    fn times(&self, methods: &[Method], kind: Kind, k: usize, qs: &[Query]) -> Vec<f64> {
        methods
            .iter()
            .map(|&m| self.time(m, kind, k, qs).unwrap_or(-1.0))
            .collect()
    }
}

/// Prints a header whose columns after the first are `methods`.
fn method_header(title: &str, first: &str, methods: &[Method]) {
    let cols: Vec<&str> = std::iter::once(first)
        .chain(methods.iter().map(|m| m.label()))
        .collect();
    header(title, &cols);
}

/// A row of a table that spans the ladder: the world's name and its cells.
type Row = (&'static str, Vec<f64>);

/// The tables that span the ladder, one row per world, printed after the
/// last world.
#[derive(Default)]
struct LadderRows {
    table2: Vec<String>,
    fig6c: Vec<Row>,
    fig12a: Vec<Row>,
    fig12b: Vec<Row>,
    fig14a: Vec<Row>,
    fig14b: Vec<Row>,
}

fn main() {
    let scale = Scale::from_env();
    let selected = selection();
    let on = |name: &str| selected.contains(&name);
    let ladder = scale.ladder();
    let spans = LADDER_NAMES.into_iter().any(on);
    let tops = TOP_WORLD_FIGURES.iter().any(|&(fig, _)| on(fig));
    let mut rows = LadderRows::default();

    for (i, &(name, vertices)) in ladder.iter().enumerate() {
        let top = i + 1 == ladder.len();
        if !(spans || top && tops) {
            continue;
        }
        eprintln!("building the {name} world ({vertices} vertices)…");
        let (graph, corpus, vocab) = build_dataset(vertices);
        let (sys, t_kspin) = timed("ALT-16 + K-SPIN index", || {
            KspinSystem::build(graph, corpus, vocab, &paper(PAPER_RHO))
        });
        let (g, c) = (&sys.graph, &sys.corpus);
        let (ch, t_ch) = timed("CH", || {
            ContractionHierarchy::build(g, &ChConfig::default())
        });
        let (hl, t_hl) = timed("HL", || HubLabels::build(&ch));
        let (gt, t_gt) = timed("G-tree", || GTree::build(g, &GtreeConfig::default()));
        let (sk, t_sk) = timed("spatial-keyword G-tree", || {
            GtreeSpatialKeyword::build(&gt, g, c)
        });
        let (road, t_road) = timed("ROAD", || RoadIndex::build(&gt, g, c));
        let (fsfbs, t_fs) = timed("FS-FBS", || FsFbs::build(g, c, &hl));
        let w = World {
            name,
            sys: &sys,
            ch: &ch,
            hl: &hl,
            gt: &gt,
            sk,
            road,
            fsfbs,
            build_seconds: [
                t_kspin,
                t_ch,
                t_ch + t_hl,
                t_gt + t_sk,
                t_road + t_gt + t_sk,
                t_fs + t_ch + t_hl,
            ],
        };

        if on("table2") {
            rows.table2.push(table2_line(name, g, c));
        }
        if on("fig6") {
            rows.fig6c.push(fig6c_row(&w));
        }
        if on("fig12") {
            let [a, b] = fig12_rows(&w);
            rows.fig12a.push(a);
            rows.fig12b.push(b);
        }
        if on("fig14") {
            rows.fig14a.push((name, w.sizes().map(mib).to_vec()));
            rows.fig14b.push((name, w.build_seconds.to_vec()));
            let [a, b] = fig14_extension_rows(&w);
            rows.fig14a.push(a);
            rows.fig14b.push(b);
        }
        if top {
            println!(
                "single-dataset figures: {name}-scale ({vertices} vertices); \
                 query times in microseconds"
            );
            for (fig, run) in TOP_WORLD_FIGURES {
                if on(fig) {
                    run(&w);
                }
            }
        }
    }

    if on("table2") {
        // Table 2 lists every scale: those above the ladder build their
        // dataset alone.
        for &(name, vertices) in &SCALES[ladder.len()..] {
            let (graph, corpus, _) = build_dataset(vertices);
            rows.table2.push(table2_line(name, &graph, &corpus));
        }
        table2(&rows.table2);
    }
    if on("fig6") {
        print_rows(
            "Fig 6(c): index size by storage, across datasets (KiB)",
            &["dataset", "occurrences", "quadtree", "R-tree"],
            &rows.fig6c,
        );
    }
    if on("fig12") {
        print_rows(
            "Fig 12(a): top-k query time vs network size (us; k=10, 2 terms)",
            &["dataset", "KS-HL", "KS-CH", "G-tree", "ROAD"],
            &rows.fig12a,
        );
        print_rows(
            "Fig 12(b): disjunctive BkNN query time vs network size (us)",
            &["dataset", "KS-HL", "KS-CH", "G-tree"],
            &rows.fig12b,
        );
    }
    if on("fig14") {
        print_rows(
            "Fig 14(a): index sizes (MiB; S=20: list threshold 20, an extension)",
            &[
                "dataset",
                "Input",
                "K-SPIN+ALT",
                "CH",
                "HL",
                "G-tree",
                "ROAD",
                "FS-FBS",
            ],
            &rows.fig14a,
        );
        print_rows(
            "Fig 14(b): construction time (s; S=20: list threshold 20, an extension)",
            &[
                "dataset",
                "K-SPIN+ALT",
                "CH",
                "HL",
                "G-tree",
                "ROAD",
                "FS-FBS",
            ],
            &rows.fig14b,
        );
    }
    if on("distance") {
        distance(scale);
    }
    if on("startup") {
        startup(scale);
    }
}

/// Fig. 14's extension rows for one world, printed under its paper row
/// and labelled `S=20`: the K-SPIN+ALT column of (a) and (b) with the
/// index at the library's default list threshold, which keeps keywords of
/// up to 20 objects as plain lists. The other methods do not change, so
/// their cells read `x`.
fn fig14_extension_rows(w: &World) -> [Row; 2] {
    let index = KspinIndex::build(w.graph(), w.corpus(), &KspinConfig::default());
    let name = "  S=20";
    let alt_s = w.build_seconds[0] - w.sys.index.stats().build_seconds;
    let mut size = vec![-1.0; 7];
    size[1] = mib(index.size_bytes() + w.sys.alt.size_bytes());
    let mut build = vec![-1.0; 6];
    build[0] = alt_s + index.stats().build_seconds;
    [(name, size), (name, build)]
}

fn print_rows(title: &str, cols: &[&str], rows: &[Row]) {
    header(title, cols);
    for (name, values) in rows {
        row(name, values);
    }
}

/// Table 1: index size and query throughput (queries/second), k = 10,
/// 2 terms.
///
/// Expected shape (the paper's Table 1): KS-HL (the PHL stand-in) has the
/// highest throughput at the largest K-SPIN footprint; KS-CH is several
/// times faster than G-tree at a smaller footprint; ROAD trails on top-k
/// and does not support BkNN; FS-FBS's label-based index is the largest,
/// and the paper could not build it at the US scale at all.
fn table1(w: &World) {
    let qs = w.queries(2);
    let [_, kspin, ch, hl, gtree, road, fsfbs] = w.sizes();
    println!(
        "\n=== Table 1: index size and throughput ===\n{:<24} {:>16} {:>12} {:>12}",
        "Technique", "Index size (MiB)", "Top-k q/s", "BkNN q/s"
    );
    for (label, method, bytes) in [
        ("K-SPIN + CH", Method::KsCh, kspin + ch),
        ("K-SPIN + HL (for PHL)", Method::KsHl, kspin + hl),
        ("Spatial Keyword G-tree", Method::Gtree, gtree),
        ("ROAD", Method::Road, road),
        ("FS-FBS", Method::FsFbs, fsfbs),
    ] {
        let qps = |kind| {
            w.time(method, kind, 10, &qs)
                .map_or("x".to_string(), |us| format!("{:.0}", 1e6 / us))
        };
        println!(
            "{label:<24} {:>16.1} {:>12} {:>12}",
            mib(bytes),
            qps(Kind::TopK),
            qps(Kind::Bknn(Op::Or))
        );
    }
    println!("\n(x = query type not supported by the technique, as in the paper's Table 1;");
    println!(" the paper additionally reports FS-FBS as unbuildable at US scale — its");
    println!(" label-based index is already the largest here and scales superlinearly.)");
}

/// Table 2's line for one dataset: |V|, |E|, |O|, |doc(V)|, |W|, plus the
/// Observation-1 diagnostics (the 80th-percentile keyword frequency and
/// the share of keywords at most ρ = 5) that justify the ρ threshold.
fn table2_line(name: &str, graph: &Graph, corpus: &Corpus) -> String {
    let mut sizes: Vec<usize> = (0..corpus.num_terms() as TermId)
        .map(|t| corpus.inv_len(t))
        .filter(|&s| s > 0)
        .collect();
    sizes.sort_unstable();
    let p80 = sizes[(sizes.len() as f64 * 0.8) as usize];
    let small = sizes.iter().filter(|&&s| s <= 5).count() as f64 / sizes.len() as f64;
    format!(
        "{:<8} {:>12} {:>12} {:>10} {:>10} {:>9} {:>16} {:>13.1}%",
        name,
        graph.num_vertices(),
        graph.num_edges(),
        corpus.num_objects(),
        corpus.total_occurrences(),
        sizes.len(),
        p80,
        small * 100.0
    )
}

/// Table 2: road network graphs and keyword dataset statistics, one line
/// per scale.
fn table2(lines: &[String]) {
    println!("\n=== Table 2: Road Network Graphs and Keyword Datasets (synthetic stand-ins) ===");
    println!(
        "{:<8} {:>12} {:>12} {:>10} {:>10} {:>9} {:>16} {:>14}",
        "Region", "|V|", "|E|", "|O|", "|doc(V)|", "|W|", "80th-pct |inv|", "frac |inv|<=5"
    );
    for line in lines {
        println!("{line}");
    }
    println!("\nZipf check (Observation 1): the 80th-percentile inverted list stays tiny and");
    println!("the overwhelming majority of keywords have |inv(t)| <= rho = 5 — exactly the");
    println!("long tail K-SPIN exploits to skip NVD construction.");
}

/// Figure 6: ρ-Approximate NVD performance on the top world; (c) spans
/// the ladder (`fig6c_row`).
///
/// * (a) index size and construction time vs ρ: about an order of
///   magnitude smaller from ρ = 1 (exact region quadtree) to ρ = 5+, and a
///   falling build time as Observation 1 skips ever more keywords.
/// * (b) BkNN / top-k query time vs ρ (k = 10, 2 terms): a flat line, as
///   the ≤ ρ−1 extra heap-init candidates are cheap lower bounds.
/// * (d) parallel NVD construction speedup over 1–16 threads (Observation
///   3): efficiency should stay high.
fn fig6(w: &World) {
    let (g, c) = (w.graph(), w.corpus());
    header(
        "Fig 6(a): APX-NVD index size and construction time vs rho",
        &["rho", "size (MiB)", "build (s)", "NVD kws", "small kws"],
    );
    let mut indexes = Vec::new();
    for rho in [1usize, 3, 5, 7, 9, 11] {
        let index = KspinIndex::build(g, c, &paper(rho));
        let stats = index.stats();
        row(
            rho,
            &[
                mib(index.size_bytes()),
                stats.build_seconds,
                stats.nvd_terms as f64,
                stats.small_terms as f64,
            ],
        );
        indexes.push((rho, index));
    }

    header(
        "Fig 6(b): query time vs rho (k=10, 2 terms, microseconds)",
        &["rho", "BkNN-dis (us)", "BkNN-con (us)", "top-k (us)"],
    );
    let qs = w.queries(2);
    for (rho, index) in &indexes {
        let mut e = QueryEngine::new(g, c, index, &w.sys.alt, ChDistance::new(w.ch));
        let times = [Kind::Bknn(Op::Or), Kind::Bknn(Op::And), Kind::TopK]
            .map(|kind| time_engine(&mut e, kind, 10, &qs));
        row(rho, &times);
    }
    drop(indexes);

    header(
        "Fig 6(d): parallel NVD construction (rho=5)",
        &["threads", "build (s)", "speedup", "efficiency"],
    );
    let threads = KspinConfig::default().num_threads;
    let mut t1 = 0.0f64;
    for p in [1usize, 2, 4, 8, 16] {
        if p > threads * 2 {
            break;
        }
        let config = KspinConfig {
            num_threads: p,
            ..paper(PAPER_RHO)
        };
        let dt = KspinIndex::build(g, c, &config).stats().build_seconds;
        if p == 1 {
            t1 = dt;
        }
        row(p, &[dt, t1 / dt, t1 / (p as f64 * dt)]);
    }
}

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

/// Fig. 6(c)'s row for one world: index size, quadtree vs R-tree storage
/// (ρ = 5). Both grow about linearly in keyword occurrences.
///
/// The quadtree column is the world's own index, every keyword's table and
/// every NVD whole. The R-tree column is the same index with each NVD's
/// point location swapped: its quadtree arrays (`starts`, `cand_offsets`,
/// `cands`, summed from the snapshot sections they are saved to) out, one
/// STR R-tree over its `m` cells in. Both keep the adjacency graph and
/// `MaxRadius`, which an R-tree NVD needs as much as a quadtree one.
fn fig6c_row(w: &World) -> Row {
    let (c, index) = (w.corpus(), &w.sys.index);
    let bytes = w.sys.save_snapshot(&SnapshotExtras::default());
    let file = SnapshotFile::validate(&bytes).expect("a fresh snapshot validates");
    let quadtrees: usize = [
        section::NVD_STARTS,
        section::NVD_CAND_OFFSETS,
        section::NVD_CANDS,
    ]
    .into_iter()
    .map(|id| file.section(id).map_or(0, |s| s.payload.len()))
    .sum();
    let nvd_sizes: Vec<usize> = (0..c.num_terms() as TermId)
        .map(|t| c.inv_len(t))
        .filter(|&m| m > index.list_max())
        .collect();
    assert_eq!(
        nvd_sizes.len(),
        index.stats().nvd_terms,
        "one R-tree per NVD"
    );
    let rtrees: usize = nvd_sizes.into_iter().map(str_rtree_bytes).sum();
    let quad = index.size_bytes();
    (
        w.name,
        vec![
            c.total_occurrences() as f64,
            quad as f64 / 1024.0,
            (quad - quadtrees + rtrees) as f64 / 1024.0,
        ],
    )
}

/// Figure 8: handling updates (§6.2). Three keywords come from the lower,
/// middle and upper end of the frequency distribution ("small", "medium",
/// "large" NVDs). For each:
///
/// * (a) the index is built over (100−x)% of its objects, the remaining
///   x% ∈ {1, 2, 5}% are lazily inserted, and single-keyword BkNN is
///   timed: expect a modest rise with x;
/// * (b) the mean lazy insertion and the full rebuild are timed: lazy
///   insertion must be orders of magnitude cheaper.
///
/// Each (a) cell is the median of seven passes over 200 queries after a
/// warm-up pass, printed with its interquartile distance (`iqr`): a rise
/// with x counts only where medians differ by more than that distance.
///
/// Small runs (ME scale, 2-vCPU host): in (a), the 5 % row exceeds the
/// 0 % row by more than both iqrs in 6 of 9 cells over three runs, and
/// the 1–2 % rows mostly sit within it; in (b) one insertion (0.06–0.30
/// ms) costs a tenth to a fiftieth of a keyword's rebuild (2–4.3 ms), one
/// order of magnitude rather than several.
///
/// Updates consult the framework's Network Distance Module (§6.2: d(o,p)
/// "can be conveniently computed using the Network Distance Module
/// already available"); the label oracle serves them, as a deployment
/// would.
fn fig8(w: &World) {
    let (g, c) = (w.graph(), w.corpus());
    let pick_term = |target: usize| -> TermId {
        (0..c.num_terms() as TermId)
            .filter(|&t| c.inv_len(t) > 8)
            .min_by_key(|&t| c.inv_len(t).abs_diff(target))
            .expect("no indexable keyword")
    };
    let max_inv = (0..c.num_terms() as TermId)
        .map(|t| c.inv_len(t))
        .max()
        .expect("a corpus has keywords");
    let picks = [
        ("small", pick_term(max_inv / 20)),
        ("medium", pick_term(max_inv / 4)),
        ("large", pick_term(max_inv)),
    ];
    for (label, t) in picks {
        println!("  {label} NVD keyword: |inv| = {}", c.inv_len(t));
    }
    let qvs = query_vertices(g.num_vertices(), 200, 0xfeed);

    // The index without `late`, then `late` lazily inserted; returns the
    // index and the seconds the insertions took.
    let lazily_updated = |late: &[ObjectId]| -> (KspinIndex, f64) {
        let mut index = KspinIndex::build_filtered(g, c, |o| !late.contains(&o), &paper(PAPER_RHO));
        let mut dist = HlDistance::new(w.hl);
        let t0 = now();
        for &o in late {
            index.insert_object(g, c, o, &mut dist as &mut dyn NetworkDistance);
        }
        (index, t0.elapsed().as_secs_f64())
    };

    header(
        "Fig 8(a): single-keyword BkNN query time after x% lazy insertions (us, median of 7 passes)",
        &["x%", "small", "iqr", "medium", "iqr", "large", "iqr"],
    );
    let mut rows: Vec<(usize, Vec<f64>)> =
        [0usize, 1, 2, 5].iter().map(|&x| (x, Vec::new())).collect();
    let mut insert_times: Vec<(&str, f64, f64)> = Vec::new();
    for (label, t) in picks {
        let inv: Vec<ObjectId> = c.inverted(t).iter().map(|p| p.object).collect();
        let qs: Vec<Query> = qvs
            .iter()
            .map(|&vertex| Query {
                vertex,
                terms: vec![t],
            })
            .collect();
        for (x, series) in rows.iter_mut() {
            let late = &inv[inv.len() - inv.len() * *x / 100..];
            let (mut index, insert_total) = lazily_updated(late);
            if *x == 5 {
                // (b) at the largest x. A rebuilt keyword is exact with no
                // lazy state, so (a) times a second lazily updated index.
                let t0 = now();
                index.rebuild_term(g, c, t);
                let rebuild = t0.elapsed().as_secs_f64();
                insert_times.push((
                    label,
                    insert_total / late.len().max(1) as f64 * 1e3,
                    rebuild * 1e3,
                ));
                index = lazily_updated(late).0;
            }
            let mut e = QueryEngine::new(g, c, &index, &w.sys.alt, HlDistance::new(w.hl));
            let (median, iqr) = median_and_iqr(&mut e, Kind::Bknn(Op::Or), 10, &qs);
            series.extend([median, iqr]);
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

/// Figs. 9–11's two panels: `kind`'s time vs k with 2 terms (a), then vs
/// the number of query terms at k = 10 (b).
fn vs_k_and_terms(w: &World, fig: u32, what: &str, kind: Kind, methods: &[Method]) {
    method_header(
        &format!("Fig {fig}(a): {what} query time vs k (2 terms)"),
        "k",
        methods,
    );
    let qs = w.queries(2);
    for k in [1usize, 5, 10, 25, 50] {
        row(k, &w.times(methods, kind, k, &qs));
    }
    method_header(
        &format!("Fig {fig}(b): {what} query time vs #terms (k=10)"),
        "#terms",
        methods,
    );
    for terms in 1..=6usize {
        row(terms, &w.times(methods, kind, 10, &w.queries(terms)));
    }
}

/// Figure 9: top-k query time vs k and vs the number of query keywords.
///
/// The paper's shape: KS-HL ≪ KS-CH < KS-GT ≤ G-tree < ROAD, the gap to
/// the aggregated methods growing as k shrinks the relevance of far
/// groups. Small runs (ME scale, 2-vCPU host) keep the K-SPIN order and
/// KS-GT ahead of G-tree, but ROAD is not slowest everywhere: at k = 1
/// (1,109 µs against G-tree's 2,375) and with one term it is about twice
/// as fast as G-tree, and from k = 5 up the two are within about 40 % of
/// each other, either one the slower.
fn fig9(w: &World) {
    use Method::*;
    vs_k_and_terms(w, 9, "top-k", Kind::TopK, &[KsHl, KsCh, KsGt, Gtree, Road]);
}

/// Figure 10: disjunctive Boolean kNN query time vs k and vs the number of
/// query keywords; G-tree adapted to BkNN as in §7.1.
///
/// The paper's shape: KS-HL fastest; KS-CH ≈ G-tree on the easy settings
/// (disjunction matches near objects and G-tree reuses distances) but
/// ahead as keyword counts grow; FS-FBS trails. Small runs (ME scale,
/// 2-vCPU host) keep KS-HL fastest, but KS-CH is one to two orders of
/// magnitude ahead of G-tree at every setting (48 µs against 3,118 at
/// k = 10), not level with it. FS-FBS trails KS-HL everywhere and KS-CH
/// from k = 5 up, and stays far ahead of G-tree.
fn fig10(w: &World) {
    use Method::*;
    vs_k_and_terms(
        w,
        10,
        "disjunctive BkNN",
        Kind::Bknn(Op::Or),
        &[KsHl, KsCh, Gtree, FsFbs],
    );
}

/// Figure 11: conjunctive Boolean kNN query time vs k and vs the number of
/// query keywords.
///
/// Expected shape (§7.2): K-SPIN's advantage is *larger* than in the
/// disjunctive case — aggregation produces pseudo-documents that appear to
/// contain all keywords while no single object does, so G-tree descends
/// deep before discovering the false positive. And K-SPIN *improves* with
/// more keywords: the least frequent keyword gets rarer, shrinking the
/// candidate stream.
fn fig11(w: &World) {
    use Method::*;
    vs_k_and_terms(
        w,
        11,
        "conjunctive BkNN",
        Kind::Bknn(Op::And),
        &[KsHl, KsCh, Gtree, FsFbs],
    );
}

/// Figure 12's rows for one world: top-k (a) and disjunctive BkNN (b) at
/// k = 10, 2 terms.
///
/// Expected shape: every method slows with |V|, but the aggregated methods
/// degrade faster (higher hierarchy levels aggregate more keywords, losing
/// pruning power), so K-SPIN's relative advantage *grows* with scale.
fn fig12_rows(w: &World) -> [Row; 2] {
    use Method::*;
    let qs = w.queries(2);
    [
        (
            w.name,
            w.times(&[KsHl, KsCh, Gtree, Road], Kind::TopK, 10, &qs),
        ),
        (
            w.name,
            w.times(&[KsHl, KsCh, Gtree], Kind::Bknn(Op::Or), 10, &qs),
        ),
    ]
}

/// Figure 13: single-keyword BkNN query time vs keyword object density
/// `|inv(t)| / |V|` (k = 10).
///
/// Keywords are bucketed by density decade; single-keyword queries isolate
/// frequency effects from multi-keyword interactions. Expected shape:
/// K-SPIN stays ahead of G-tree across every bucket, with the smallest gap
/// here (single keywords are aggregation's best case, §7.2).
fn fig13(w: &World) {
    let methods = [Method::KsHl, Method::KsCh, Method::Gtree];
    // Density buckets: [lo, hi) over |inv(t)| / |V|. The last bucket is
    // open-ended, as in the paper.
    let buckets: [(f64, f64); 4] = [
        (1e-5, 1e-4),
        (1e-4, 1e-3),
        (1e-3, 1e-2),
        (1e-2, f64::INFINITY),
    ];
    let c = w.corpus();
    let nv = w.graph().num_vertices() as f64;
    let qvs = query_vertices(w.graph().num_vertices(), 40, 0x1357);
    header(
        "Fig 13: single-keyword BkNN query time vs keyword density (k=10)",
        &["density>=", "#keywords", "KS-HL", "KS-CH", "G-tree"],
    );
    for (lo, hi) in buckets {
        let terms: Vec<TermId> = (0..c.num_terms() as TermId)
            .filter(|&t| {
                let d = c.inv_len(t) as f64 / nv;
                d >= lo && d < hi
            })
            .take(10)
            .collect();
        if terms.is_empty() {
            row(format!("{lo:.0e}"), &[0.0, -1.0, -1.0, -1.0]);
            continue;
        }
        let qs: Vec<Query> = terms
            .iter()
            .flat_map(|&t| {
                qvs.iter().map(move |&vertex| Query {
                    vertex,
                    terms: vec![t],
                })
            })
            .collect();
        let mut cells = vec![terms.len() as f64];
        cells.extend(w.times(&methods, Kind::Bknn(Op::Or), 10, &qs));
        row(format!("{lo:.0e}"), &cells);
    }
}

/// Figure 15: the §7.4 apples-to-apples deep dive — top-k query time of
/// KS-GT, Gtree-Opt and the original G-tree algorithm, all on the *same*
/// G-tree index, vs k (2 terms).
///
/// Expected shape: Gtree-Opt improves marginally over G-tree (it only
/// saves pseudo-document lookups); KS-GT wins by a wide margin despite
/// paying for lower bounds and heap maintenance on top. Small runs (ME
/// scale, 2-vCPU host) keep KS-GT ahead at every k, but Gtree-Opt and
/// G-tree are level within run-to-run noise, Gtree-Opt sometimes the
/// slower: it saves 4–9 % of the pseudo-document lookups (Fig. 16) and
/// none of the matrix operations.
fn fig15(w: &World) {
    let methods = [Method::KsGt, Method::GtreeOpt, Method::Gtree];
    method_header(
        "Fig 15: top-k query time on the shared G-tree index",
        "k",
        &methods,
    );
    let qs = w.queries(2);
    for k in [1usize, 5, 10, 25, 50] {
        row(k, &w.times(&methods, Kind::TopK, k, &qs));
    }
}

/// Figure 16: matrix operations (lookup + add during distance assembly)
/// per top-k query for KS-GT vs Gtree-Opt vs G-tree (2 terms) — the
/// machine-independent false-positive measurement of §7.4.2.
///
/// Expected shape: G-tree and Gtree-Opt perform **identical** matrix
/// operations (occurrence-list separation cannot undo the aggregation's
/// information loss), while KS-GT does far fewer — direct evidence that
/// keyword separation eliminates false positives rather than just shaving
/// constant factors.
fn fig16(w: &World) {
    header(
        "Fig 16: matrix operations per top-k query on the shared G-tree index",
        &[
            "k",
            "KS-GT",
            "Gtree-Opt",
            "G-tree",
            "pseudo-doc lookups: Opt",
            "G-tree",
        ],
    );
    let qs = w.queries(2);
    for k in [1usize, 5, 10, 25, 50] {
        let mut ops_ksgt = 0u64;
        for q in &qs {
            let mut e = w.sys.engine(GtreeNetworkDistance::new(w.gt, w.graph()));
            let _ = e.top_k(q.vertex, k, &q.terms);
            ops_ksgt += e.into_distance().total_ops();
        }
        // (matrix ops, pseudo-document lookups) of the G-tree search.
        let sk_ops = |mode| {
            qs.iter().fold((0u64, 0u64), |(ops, lookups), q| {
                let (_, o) = w.sk.top_k(q.vertex, k, &q.terms, mode);
                (ops + o, lookups + w.sk.last_pseudo_lookups())
            })
        };
        let (ops_opt, lookups_opt) = sk_ops(OccurrenceMode::PerKeyword);
        let (ops_agg, lookups_agg) = sk_ops(OccurrenceMode::Aggregated);
        let n = qs.len() as f64;
        row(
            k,
            &[
                ops_ksgt as f64 / n,
                ops_opt as f64 / n,
                ops_agg as f64 / n,
                lookups_opt as f64 / n,
                lookups_agg as f64 / n,
            ],
        );
    }
}

/// Ablation of K-SPIN's design choices (DESIGN.md §1), k = 10, 2 terms:
///
/// 1. **Lower-bound oracle** — ALT with 16 farthest landmarks (the paper's
///    choice) vs 4 landmarks vs random landmarks vs the trivial zero
///    bound. Looser bounds keep results exact but cost extra network
///    distances.
/// 2. **Lazy NVD-backed heaps vs eager full-list heaps** — `ρ = ∞` makes
///    every keyword a plain list, i.e. the "simple approach" §5 dismisses
///    (populate the whole inverted heap per query). Expect eager to pay
///    with keyword frequency.
fn ablation(w: &World) {
    let (g, c) = (w.graph(), w.corpus());
    let qs = w.queries(2);
    let per = (2 * qs.len()) as f64;
    // Top-k and BkNN-∨ times, then (distances, bounds) per query.
    let measure = |index: &KspinIndex, lb: &dyn LowerBound| {
        let mut e = QueryEngine::new(g, c, index, lb, ChDistance::new(w.ch));
        let t_topk = time_engine(&mut e, Kind::TopK, 10, &qs);
        let t_bknn = time_engine(&mut e, Kind::Bknn(Op::Or), 10, &qs);
        let s = e.stats();
        (
            [t_topk, t_bknn],
            s.dist_computations as f64 / per,
            s.lb_computations as f64 / per,
        )
    };

    header(
        "Ablation 1: lower-bound oracle (k=10, 2 terms)",
        &[
            "oracle",
            "top-k (us)",
            "BkNN (us)",
            "dists/query",
            "LBs/query",
        ],
    );
    let alt4 = AltIndex::build(g, 4, LandmarkStrategy::Farthest, 0);
    let rand16 = AltIndex::build(g, 16, LandmarkStrategy::Random, 0);
    let oracles: [(&str, &dyn LowerBound); 4] = [
        ("ALT-16 farthest", &w.sys.alt),
        ("ALT-4 farthest", &alt4),
        ("ALT-16 random", &rand16),
        ("zero bound", &ZeroLowerBound),
    ];
    for (label, lb) in oracles {
        let ([t_topk, t_bknn], dists, lbs) = measure(&w.sys.index, lb);
        row(label, &[t_topk, t_bknn, dists, lbs]);
    }

    header(
        "Ablation 2: lazy NVD heaps (rho=5) vs eager full-list heaps (rho=inf)",
        &["variant", "top-k (us)", "BkNN (us)", "LBs/query"],
    );
    let eager = KspinIndex::build(g, c, &paper(usize::MAX));
    for (label, index) in [("lazy (NVD)", &w.sys.index), ("eager (lists)", &eager)] {
        let ([t_topk, t_bknn], _, lbs) = measure(index, &w.sys.alt);
        row(label, &[t_topk, t_bknn, lbs]);
    }
}

/// Deterministic point-to-point query pairs, spread across the network.
fn query_pairs(n: usize) -> Vec<(VertexId, VertexId)> {
    let pairs = match n {
        0..=15_000 => 48,
        15_001..=50_000 => 24,
        _ => 10,
    };
    (0..pairs)
        .map(|i| {
            (
                ((i * 7919) % n) as VertexId,
                ((i * 104_729 + n / 2) % n) as VertexId,
            )
        })
        .collect()
}

/// Timed passes per `distance` cell, after one warm-up pass.
const DISTANCE_PASSES: usize = 5;

/// Writes `json` to the committed table `file` at the workspace root.
fn write_table(file: &str, json: &str) {
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("failed to write {path}: {e}"));
    println!("\nwrote {path}");
}

/// The `distance` table (`BENCH_distance.json`): the three queue-driven
/// searches on generated road networks of 10k, 30k and 100k vertices.
///
/// * `dijkstra`: `Dijkstra::one_to_one` over the query pairs;
/// * `ch`: the CH query over the same pairs, each of another source, so
///   every call re-pins the forward search;
/// * `nvd_build`: one exact-NVD sweep with every 64th vertex a generator
///   (road-network POI density), reusing one bucket queue the way an
///   index-build worker does; one build is one work item.
///
/// Every leg runs the production code path: the two searches on the
/// shared indexed 4-ary decrease-key kernel (`kspin_graph::dheap`), the
/// sweep on its bucket queue, whose counters take the same shape (entries
/// queued, entries taken out, in-queue improvements). The counters
/// (`pushes`, `pops`, `decrease_keys`) are exact: they compare across
/// sessions and with the committed rows. `qps` is the best of five passes
/// and compares only with a parent run from the same session.
fn distance(scale: Scale) {
    header(
        "Distance kernels: module × |V|",
        &["leg", "q/s", "pushes", "pops", "dec-keys"],
    );
    let sizes = scale.table_sizes();
    let mut rows = Vec::new();
    for &n in sizes {
        let (g, _, _) = build_dataset(n);
        let pairs = query_pairs(g.num_vertices());
        let gens: Vec<VertexId> = (0..g.num_vertices() as VertexId).step_by(64).collect();
        let (ch, _) = timed("CH", || {
            ContractionHierarchy::build(&g, &ChConfig::default())
        });
        eprintln!(
            "|V|={n}: {} query pairs, {} NVD generators",
            pairs.len(),
            gens.len()
        );
        let mut emit = |module: &str, qps: f64, c: HeapCounters| {
            row(
                format!("{module}/{n}"),
                &[qps, c.pushes as f64, c.pops as f64, c.decrease_keys as f64],
            );
            rows.push(format!(
                "    {{\"module\": \"{module}\", \"vertices\": {n}, \"qps\": {qps:.2}, \
                 \"pushes\": {}, \"pops\": {}, \"decrease_keys\": {}}}",
                c.pushes, c.pops, c.decrease_keys,
            ));
        };
        let per_pair = pairs.len() as f64;
        let mut d = Dijkstra::new(g.num_vertices());
        let (secs, counters) = best_of(DISTANCE_PASSES, || {
            let base = d.heap_counters();
            for &(s, t) in &pairs {
                std::hint::black_box(d.one_to_one(&g, s, t));
            }
            d.heap_counters().since(base)
        });
        emit("dijkstra", per_pair / secs, counters);
        let mut q = ChQuery::new(&ch);
        let (secs, counters) = best_of(DISTANCE_PASSES, || {
            let base = q.heap_counters();
            for &(s, t) in &pairs {
                std::hint::black_box(q.distance(s, t));
            }
            q.heap_counters().since(base)
        });
        emit("ch", per_pair / secs, counters);
        let mut scratch = SweepScratch::default();
        let (secs, counters) = best_of(DISTANCE_PASSES, || {
            ExactNvd::build(&g, &gens, &mut scratch).build_counters()
        });
        emit("nvd_build", 1.0 / secs, counters);
    }
    write_table(
        "BENCH_distance.json",
        &format!(
            "{{\n  \"bench\": \"distance\",\n  \"sizes\": {sizes:?},\n  \
             \"hardware_threads\": {},\n  \"rows\": [\n{}\n  ]\n}}\n",
            KspinConfig::default().num_threads,
            rows.join(",\n"),
        ),
    );
}

/// Timed snapshot loads (and validations) per `startup` size.
const LOADS: usize = 25;

/// The `startup` table (`BENCH_startup.json`): a cold `KspinSystem::build`
/// at `KspinConfig::default()` (ALT landmark sweeps plus the whole
/// Keyword Separated Index) against a snapshot load, which validates
/// checksums and copies flat arrays with no rebuild, at 10k, 30k and 100k
/// vertices. It asserts save → load → save byte identity, a cheap proxy
/// for the bit-identical serving `tests/snapshot_roundtrip.rs` enforces.
///
/// The exact cells compare across sessions and with the committed rows:
/// `objects`, `snapshot_bytes`, `bytes_per_vertex` and every section's
/// `elems` and `bytes`. The wall-clock cells (`build_s`, `save_s`,
/// `validate_s`, `load_s`, `speedup`) compare only with a parent run
/// from the same session; CI holds the committed rows to a load at least
/// 20× faster than the cold build at every size.
fn startup(scale: Scale) {
    header(
        "Startup: cold build vs snapshot load",
        &[
            "vertices", "build s", "load ms", "speedup", "MiB", "B/vertex",
        ],
    );
    let mut rows = Vec::new();
    for &n in scale.table_sizes() {
        let (graph, corpus, vocab) = build_dataset(n);
        let vertices = graph.num_vertices();
        let (system, build_s) = timed("cold system", || {
            KspinSystem::build(graph, corpus, vocab, &KspinConfig::default())
        });
        let (bytes, save_s) = timed("snapshot", || {
            system.save_snapshot(&SnapshotExtras::default())
        });
        let (validate_s, file) = best_of(LOADS, || {
            SnapshotFile::validate(&bytes).expect("a fresh snapshot validates")
        });
        let (load_s, (reloaded, extras)) = best_of(LOADS, || {
            KspinSystem::load_snapshot(&bytes).expect("a fresh snapshot loads")
        });
        assert_eq!(
            reloaded.save_snapshot(&extras),
            bytes,
            "save -> load -> save must be byte-identical"
        );

        let speedup = build_s / load_s;
        let bytes_per_vertex = bytes.len() as f64 / vertices as f64;
        row(
            vertices,
            &[
                build_s,
                load_s * 1e3,
                speedup,
                mib(bytes.len()),
                bytes_per_vertex,
            ],
        );
        let sections: Vec<String> = (0..file.num_sections())
            .map(|i| {
                let s = file.section_at(i).expect("table index in range");
                format!(
                    "{{\"id\": {}, \"name\": \"{}\", \"elems\": {}, \"bytes\": {}}}",
                    s.id,
                    section_name(s.id),
                    s.count,
                    s.payload.len()
                )
            })
            .collect();
        rows.push(format!(
            "    {{\"vertices\": {vertices}, \"objects\": {}, \
             \"build_s\": {build_s:.4}, \"save_s\": {save_s:.4}, \
             \"validate_s\": {validate_s:.6}, \"load_s\": {load_s:.6}, \
             \"speedup\": {speedup:.1}, \
             \"snapshot_bytes\": {}, \"bytes_per_vertex\": {bytes_per_vertex:.1}, \
             \"sections\": [{}]}}",
            reloaded.corpus.num_objects(),
            bytes.len(),
            sections.join(", "),
        ));
    }
    write_table(
        "BENCH_startup.json",
        &format!(
            "{{\n  \"bench\": \"startup\",\n  \"ratchet_min_speedup\": 20.0,\n  \
             \"hardware_threads\": {},\n  \"rows\": [\n{}\n  ]\n}}\n",
            KspinConfig::default().num_threads,
            rows.join(",\n"),
        ),
    );
}
