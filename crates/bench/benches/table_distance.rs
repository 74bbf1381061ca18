//! Distance-kernel sweep over three axes: module × memory layout × heap
//! kernel, on generated road networks at |V| ∈ {10k, 30k, 100k}.
//!
//! **Modules** — the four heap-driven searches: Dijkstra, BiDijkstra,
//! ALT-A* and the exact-NVD construction sweep.
//!
//! **Layouts** — each network is renumbered with [`Relabeling`] before
//! measuring: `original` (generator order), `bfs` (frontier locality) and
//! `hilbert` (space-filling-curve locality). Queries are translated
//! through the permutation, so every layout answers the *same* external
//! queries and returns bit-identical distances (the relabel property
//! tests prove it). Heap counters may drift by a hair across layouts —
//! equal-key ties expand in vertex-id order, and ids are permuted — so
//! the counter invariants below are checked per layout, never across.
//!
//! **Kernels** —
//! * `dary`   — the shared indexed 4-ary decrease-key kernel
//!   (`kspin_graph::dheap`), i.e. the production code paths;
//! * `binary` — bench-local lazy-deletion reference implementations that
//!   mirror the pre-port code exactly (std `BinaryHeap` + epoch arrays +
//!   stale-entry skipping), instrumented on the same counter schema.
//!
//! The host's wall clock is single-core and noisy, so the heap counters
//! are the primary signal (the EXPERIMENTS.md convention): the d-ary legs
//! must report `stale_skipped == 0` structurally and strictly fewer pops
//! than their lazy twins — every lazy stale pop is a d-ary decrease-key.
//! QPS rides along as best-of-5. Results go to `BENCH_distance.json` at
//! the workspace root (CI uploads it as an artifact).
//!
//! `KSPIN_BENCH_SCALE=small` drops the 100k size and halves the query
//! pairs for CI smoke runs.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt::Write as _;
use std::time::Instant;

use kspin_alt::{AltAstar, AltIndex, LandmarkStrategy};
use kspin_bench::{header, row};
use kspin_graph::generate::{road_network, RoadNetworkConfig};
use kspin_graph::{
    BiDijkstra, Dijkstra, Graph, HeapCounters, Relabeling, VertexId, Weight, INFINITY,
};
use kspin_nvd::{AdjacencyGraph, ExactNvd};

/// One (module, kernel) leg's measurement.
struct Leg {
    qps: f64,
    counters: HeapCounters,
}

fn sizes() -> Vec<usize> {
    if std::env::var("KSPIN_BENCH_SCALE").as_deref() == Ok("small") {
        vec![10_000, 30_000]
    } else {
        vec![10_000, 30_000, 100_000]
    }
}

/// Deterministic point-to-point query pairs, spread across the network.
fn query_pairs(n: usize) -> Vec<(VertexId, VertexId)> {
    let mut pairs = match n {
        0..=15_000 => 48,
        15_001..=50_000 => 24,
        _ => 10,
    };
    if std::env::var("KSPIN_BENCH_SCALE").as_deref() == Ok("small") {
        pairs /= 2;
    }
    (0..pairs)
        .map(|i| {
            (
                ((i * 7919) % n) as VertexId,
                ((i * 104_729 + n / 2) % n) as VertexId,
            )
        })
        .collect()
}

/// Every 64th vertex generates a Voronoi cell (road-network POI density).
fn generators(n: usize) -> Vec<VertexId> {
    (0..n as VertexId).step_by(64).collect()
}

/// Best-of-5 wall clock around `pass`, counters from a final counted run
/// via the `snapshot`/`delta` pair (cumulative-counter structs diff; the
/// lazy kernels below reset per pass and report directly). Five passes
/// because the host is a shared single hardware thread: any one pass can
/// eat a multi-hundred-ms scheduler stall, and min-of-N is the estimator
/// that discards those.
fn measure<F: FnMut()>(work_items: usize, mut pass: F) -> f64 {
    let mut best = f64::INFINITY;
    pass(); // warmup (first-touch page faults, branch history)
    for _ in 0..5 {
        let t0 = Instant::now();
        pass();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    work_items as f64 / best
}

// ---------------------------------------------------------------------------
// Lazy-deletion reference kernels: the pre-port implementations, verbatim in
// structure, counting pushes/pops/stales on the shared HeapCounters schema.
// ---------------------------------------------------------------------------

/// Pre-port `Dijkstra::one_to_one`: epoch arrays + duplicate pushes.
struct LazyDijkstra {
    dist: Vec<Weight>,
    epoch: Vec<u32>,
    settled: Vec<bool>,
    cur: u32,
    heap: BinaryHeap<(Reverse<Weight>, VertexId)>,
    c: HeapCounters,
}

impl LazyDijkstra {
    fn new(n: usize) -> Self {
        LazyDijkstra {
            dist: vec![INFINITY; n],
            epoch: vec![0; n],
            settled: vec![false; n],
            cur: 0,
            heap: BinaryHeap::new(),
            c: HeapCounters::default(),
        }
    }

    fn one_to_one(&mut self, g: &Graph, s: VertexId, t: VertexId) -> Weight {
        self.cur += 1;
        self.heap.clear();
        self.relax(s, 0);
        while let Some((Reverse(d), v)) = self.heap.pop() {
            self.c.pops += 1;
            if self.settled[v as usize] || d > self.dist[v as usize] {
                self.c.stale_skipped += 1;
                continue;
            }
            self.settled[v as usize] = true;
            if v == t {
                return d;
            }
            for (u, w) in g.neighbors(v) {
                let nd = d + w;
                if nd < self.tentative(u) {
                    self.relax(u, nd);
                }
            }
        }
        INFINITY
    }

    fn tentative(&self, v: VertexId) -> Weight {
        if self.epoch[v as usize] == self.cur {
            self.dist[v as usize]
        } else {
            INFINITY
        }
    }

    fn relax(&mut self, v: VertexId, d: Weight) {
        let i = v as usize;
        if self.epoch[i] != self.cur {
            self.epoch[i] = self.cur;
            self.settled[i] = false;
        }
        self.dist[i] = d;
        self.c.pushes += 1;
        self.heap.push((Reverse(d), v));
    }
}

/// Pre-port `BiDijkstra::distance`.
struct LazyBiDijkstra {
    dist: [Vec<Weight>; 2],
    epoch: [Vec<u32>; 2],
    cur: u32,
    heaps: [BinaryHeap<(Reverse<Weight>, VertexId)>; 2],
    c: HeapCounters,
}

impl LazyBiDijkstra {
    fn new(n: usize) -> Self {
        LazyBiDijkstra {
            dist: [vec![INFINITY; n], vec![INFINITY; n]],
            epoch: [vec![0; n], vec![0; n]],
            cur: 0,
            heaps: [BinaryHeap::new(), BinaryHeap::new()],
            c: HeapCounters::default(),
        }
    }

    fn distance(&mut self, g: &Graph, s: VertexId, t: VertexId) -> Weight {
        if s == t {
            return 0;
        }
        self.cur += 1;
        for h in &mut self.heaps {
            h.clear();
        }
        self.relax(0, s, 0);
        self.relax(1, t, 0);
        let mut best = INFINITY;
        loop {
            let top = |h: &BinaryHeap<(Reverse<Weight>, VertexId)>| {
                h.peek().map(|&(Reverse(d), _)| d).unwrap_or(INFINITY)
            };
            let (f, b) = (top(&self.heaps[0]), top(&self.heaps[1]));
            if f.saturating_add(b) >= best || (f == INFINITY && b == INFINITY) {
                break;
            }
            let side = if f <= b { 0 } else { 1 };
            let Some((Reverse(d), v)) = self.heaps[side].pop() else {
                break;
            };
            self.c.pops += 1;
            if d > self.get(side, v) {
                self.c.stale_skipped += 1;
                continue;
            }
            let other = self.get(1 - side, v);
            if other < INFINITY && d + other < best {
                best = d + other;
            }
            for (u, w) in g.neighbors(v) {
                let nd = d + w;
                if nd < self.get(side, u) {
                    self.relax(side, u, nd);
                }
            }
        }
        best
    }

    fn get(&self, side: usize, v: VertexId) -> Weight {
        if self.epoch[side][v as usize] == self.cur {
            self.dist[side][v as usize]
        } else {
            INFINITY
        }
    }

    fn relax(&mut self, side: usize, v: VertexId, d: Weight) {
        self.epoch[side][v as usize] = self.cur;
        self.dist[side][v as usize] = d;
        self.c.pushes += 1;
        self.heaps[side].push((Reverse(d), v));
    }
}

/// Pre-port `AltAstar::distance` (closed-set skip = lazy stale pop).
struct LazyAstar {
    dist: Vec<Weight>,
    epoch: Vec<u32>,
    closed: Vec<u32>,
    cur: u32,
    heap: BinaryHeap<(Reverse<Weight>, VertexId)>,
    c: HeapCounters,
}

impl LazyAstar {
    fn new(n: usize) -> Self {
        LazyAstar {
            dist: vec![INFINITY; n],
            epoch: vec![0; n],
            closed: vec![0; n],
            cur: 0,
            heap: BinaryHeap::new(),
            c: HeapCounters::default(),
        }
    }

    fn distance(&mut self, g: &Graph, alt: &AltIndex, s: VertexId, t: VertexId) -> Weight {
        if s == t {
            return 0;
        }
        self.cur += 1;
        self.heap.clear();
        self.set(s, 0);
        self.c.pushes += 1;
        self.heap.push((Reverse(alt.lower_bound(s, t)), s));
        while let Some((Reverse(_), v)) = self.heap.pop() {
            self.c.pops += 1;
            if self.closed[v as usize] == self.cur {
                self.c.stale_skipped += 1;
                continue;
            }
            self.closed[v as usize] = self.cur;
            let gv = self.get(v);
            if v == t {
                return gv;
            }
            for (u, w) in g.neighbors(v) {
                let ng = gv + w;
                if ng < self.get(u) {
                    self.set(u, ng);
                    self.c.pushes += 1;
                    self.heap.push((Reverse(ng + alt.lower_bound(u, t)), u));
                }
            }
        }
        INFINITY
    }

    fn get(&self, v: VertexId) -> Weight {
        if self.epoch[v as usize] == self.cur {
            self.dist[v as usize]
        } else {
            INFINITY
        }
    }

    fn set(&mut self, v: VertexId, d: Weight) {
        self.epoch[v as usize] = self.cur;
        self.dist[v as usize] = d;
    }
}

/// Pre-port `ExactNvd::build` sweep (ownership + max radius + adjacency),
/// returning its counters.
fn lazy_nvd_build(g: &Graph, gens: &[VertexId]) -> HeapCounters {
    let n = g.num_vertices();
    let mut owner = vec![u32::MAX; n];
    let mut dist = vec![INFINITY; n];
    let mut settled = vec![false; n];
    let mut heap: BinaryHeap<(Reverse<Weight>, VertexId)> = BinaryHeap::new();
    let mut c = HeapCounters::default();
    for (i, &gv) in gens.iter().enumerate() {
        owner[gv as usize] = i as u32;
        dist[gv as usize] = 0;
        c.pushes += 1;
        heap.push((Reverse(0), gv));
    }
    let mut max_radius = vec![0 as Weight; gens.len()];
    while let Some((Reverse(d), v)) = heap.pop() {
        c.pops += 1;
        if settled[v as usize] || d > dist[v as usize] {
            c.stale_skipped += 1;
            continue;
        }
        settled[v as usize] = true;
        let o = owner[v as usize];
        if d > max_radius[o as usize] {
            max_radius[o as usize] = d;
        }
        for (u, w) in g.neighbors(v) {
            let nd = d + w;
            if nd < dist[u as usize] {
                dist[u as usize] = nd;
                owner[u as usize] = o;
                c.pushes += 1;
                heap.push((Reverse(nd), u));
            }
        }
    }
    let mut adjacency = AdjacencyGraph::new(gens.len());
    for e in g.edges() {
        let (ou, ov) = (owner[e.u as usize], owner[e.v as usize]);
        if ou != ov && ou != u32::MAX && ov != u32::MAX {
            adjacency.add(ou, ov);
        }
    }
    std::hint::black_box(&adjacency);
    std::hint::black_box(&max_radius);
    c
}

// ---------------------------------------------------------------------------

fn main() {
    let sizes = sizes();
    header(
        "Distance kernels: module × |V| × layout × heap kernel",
        &["leg", "q/s", "pushes", "pops", "dec-keys", "stale"],
    );
    let mut json_rows = String::new();
    for &n in &sizes {
        let g0 = road_network(&RoadNetworkConfig::new(n, 0x5eed ^ n as u64));
        let pairs0 = query_pairs(g0.num_vertices());
        let gens0 = generators(g0.num_vertices());
        let nv = g0.num_vertices();
        let t0 = Instant::now();
        let alt0 = AltIndex::build(&g0, 8, LandmarkStrategy::Farthest, 0);
        eprintln!(
            "|V|={n}: ALT (8 landmarks) {:.1}s; {} query pairs, {} NVD generators",
            t0.elapsed().as_secs_f64(),
            pairs0.len(),
            gens0.len(),
        );

        // The layout axis: one permutation per memory layout, applied to
        // the graph and every id-holding index; queries translate through
        // the same permutation so all layouts answer identical workloads.
        let layouts = [
            ("original", Relabeling::identity(nv)),
            ("bfs", Relabeling::bfs(&g0)),
            ("hilbert", Relabeling::hilbert(&g0)),
        ];
        for (layout, r) in &layouts {
            let g = r.apply(&g0);
            let alt = alt0.relabel(r);
            let pairs: Vec<(VertexId, VertexId)> = pairs0
                .iter()
                .map(|&(s, t)| (r.to_local(s), r.to_local(t)))
                .collect();
            let gens: Vec<VertexId> = gens0.iter().map(|&v| r.to_local(v)).collect();

            let mut emit = |module: &str, kernel: &str, leg: Leg| {
                let c = leg.counters;
                row(
                    format!("{module}/{n}/{layout}/{kernel}"),
                    &[
                        leg.qps,
                        c.pushes as f64,
                        c.pops as f64,
                        c.decrease_keys as f64,
                        c.stale_skipped as f64,
                    ],
                );
                let comma = if json_rows.is_empty() { "" } else { ",\n" };
                write!(
                    json_rows,
                    "{comma}    {{\"module\": \"{module}\", \"vertices\": {n}, \
                     \"layout\": \"{layout}\", \"kernel\": \"{kernel}\", \
                     \"qps\": {:.2}, \"pushes\": {}, \"pops\": {}, \
                     \"decrease_keys\": {}, \"stale_skipped\": {}}}",
                    leg.qps, c.pushes, c.pops, c.decrease_keys, c.stale_skipped,
                )
                .expect("write to String cannot fail");
            };

            // Dijkstra
            {
                let mut d = Dijkstra::new(g.num_vertices());
                let qps = measure(pairs.len(), || {
                    for &(s, t) in &pairs {
                        std::hint::black_box(d.one_to_one(&g, s, t));
                    }
                });
                let base = d.heap_counters();
                for &(s, t) in &pairs {
                    std::hint::black_box(d.one_to_one(&g, s, t));
                }
                let counters = d.heap_counters().since(base);
                emit("dijkstra", "dary", Leg { qps, counters });

                let mut l = LazyDijkstra::new(g.num_vertices());
                let qps = measure(pairs.len(), || {
                    for &(s, t) in &pairs {
                        std::hint::black_box(l.one_to_one(&g, s, t));
                    }
                });
                l.c = HeapCounters::default();
                for &(s, t) in &pairs {
                    std::hint::black_box(l.one_to_one(&g, s, t));
                }
                emit("dijkstra", "binary", Leg { qps, counters: l.c });
            }

            // BiDijkstra
            {
                let mut d = BiDijkstra::new(g.num_vertices());
                let qps = measure(pairs.len(), || {
                    for &(s, t) in &pairs {
                        std::hint::black_box(d.distance(&g, s, t));
                    }
                });
                let base = d.heap_counters();
                for &(s, t) in &pairs {
                    std::hint::black_box(d.distance(&g, s, t));
                }
                let counters = d.heap_counters().since(base);
                emit("bidijkstra", "dary", Leg { qps, counters });

                let mut l = LazyBiDijkstra::new(g.num_vertices());
                let qps = measure(pairs.len(), || {
                    for &(s, t) in &pairs {
                        std::hint::black_box(l.distance(&g, s, t));
                    }
                });
                l.c = HeapCounters::default();
                for &(s, t) in &pairs {
                    std::hint::black_box(l.distance(&g, s, t));
                }
                emit("bidijkstra", "binary", Leg { qps, counters: l.c });
            }

            // ALT-A*
            {
                let mut d = AltAstar::new(g.num_vertices());
                let qps = measure(pairs.len(), || {
                    for &(s, t) in &pairs {
                        std::hint::black_box(d.distance(&g, &alt, s, t));
                    }
                });
                let base = d.heap_counters();
                for &(s, t) in &pairs {
                    std::hint::black_box(d.distance(&g, &alt, s, t));
                }
                let counters = d.heap_counters().since(base);
                emit("alt_astar", "dary", Leg { qps, counters });

                let mut l = LazyAstar::new(g.num_vertices());
                let qps = measure(pairs.len(), || {
                    for &(s, t) in &pairs {
                        std::hint::black_box(l.distance(&g, &alt, s, t));
                    }
                });
                l.c = HeapCounters::default();
                for &(s, t) in &pairs {
                    std::hint::black_box(l.distance(&g, &alt, s, t));
                }
                emit("alt_astar", "binary", Leg { qps, counters: l.c });
            }

            // Exact-NVD construction (one build = one work item)
            {
                let qps = measure(1, || {
                    std::hint::black_box(ExactNvd::build(&g, &gens));
                });
                let counters = ExactNvd::build(&g, &gens).build_counters();
                emit("nvd_build", "dary", Leg { qps, counters });

                let qps = measure(1, || {
                    std::hint::black_box(lazy_nvd_build(&g, &gens));
                });
                let counters = lazy_nvd_build(&g, &gens);
                emit("nvd_build", "binary", Leg { qps, counters });
            }
        }
    }

    let json = format!(
        "{{\n  \"bench\": \"table_distance\",\n  \"sizes\": {sizes:?},\n  \
         \"layouts\": [\"original\", \"bfs\", \"hilbert\"],\n  \
         \"hardware_threads\": {},\n  \"rows\": [\n{json_rows}\n  ]\n}}\n",
        std::thread::available_parallelism().map_or(1, |p| p.get()),
    );
    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_distance.json");
    std::fs::write(out_path, &json).expect("failed to write BENCH_distance.json");
    println!("\nwrote {out_path}");
}
