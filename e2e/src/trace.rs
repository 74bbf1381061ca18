//! The traced run: per-layer attribution from the benchmark's own files.
//!
//! The two pluggable seams of the framework are wrapped — [`Recording`]
//! around the Network Distance Module, [`RecordingLb`] around the Lower
//! Bounding Module — and the query pass is repeated with one root span per
//! query and `QueryEngine::stats` deltas for the exact per-query counts.
//! A call long enough to time in place (a CH distance, ~13 µs) gets a child
//! span. A call shorter than ~20 clock reads (an ALT bound, a hub-label
//! distance, a relevance score) is only logged, and timed afterwards by
//! replaying the logged arguments in order through the layer's public
//! function. A layer's time is its summed child spans, or its call count ×
//! the replayed time per call; `core.self` is what is left of the root
//! span, so the layers sum to it by construction.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

use kspin::core::heap::{HeapContext, InvertedHeap};
use kspin::prelude::*;
use kspin::text::QueryTerms;

use crate::phases::Run;
use crate::report::Report;
use crate::scenario::{Kind, KINDS};
use crate::verify::{digest, DIGEST_SEED};

/// One logged distance call; the times are 0 unless calls are timed.
#[derive(Debug, Clone, Copy)]
pub struct DistCall {
    pub s: VertexId,
    pub t: VertexId,
    pub d: Weight,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Logs every call into the wrapped Network Distance Module and, given an
/// epoch, times each in place.
pub struct Recording<D> {
    inner: D,
    epoch: Option<Instant>,
    pub calls: Vec<DistCall>,
}

impl<D> Recording<D> {
    pub fn new(inner: D, epoch: Option<Instant>) -> Self {
        Recording {
            inner,
            epoch,
            calls: Vec::new(),
        }
    }
}

impl<D: NetworkDistance> NetworkDistance for Recording<D> {
    fn distance(&mut self, s: VertexId, t: VertexId) -> Weight {
        let clock = |epoch: &Instant| epoch.elapsed().as_nanos() as u64;
        let start_ns = self.epoch.as_ref().map_or(0, clock);
        let d = self.inner.distance(s, t);
        let end_ns = self.epoch.as_ref().map_or(0, clock);
        self.calls.push(DistCall {
            s,
            t,
            d,
            start_ns,
            end_ns,
        });
        d
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Logs the arguments of every call into the wrapped Lower Bounding Module.
struct RecordingLb<'a> {
    inner: &'a dyn LowerBound,
    calls: RefCell<Vec<(VertexId, VertexId)>>,
}

impl LowerBound for RecordingLb<'_> {
    fn lower_bound(&self, s: VertexId, t: VertexId) -> Weight {
        self.calls.borrow_mut().push((s, t));
        self.inner.lower_bound(s, t)
    }

    fn is_exact(&self) -> bool {
        self.inner.is_exact()
    }
}

/// The root span of one query and its exact counts.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Root {
    start_ns: u64,
    end_ns: u64,
    stats: QueryStats,
    /// Lower-bound calls logged during the query. `stats.lb_computations`
    /// can be smaller: a heap whose seeds are all deleted is discarded at
    /// creation together with its count.
    lb_calls: usize,
    results: usize,
}

struct TracedPass {
    roots: Vec<Root>,
    dist: Vec<DistCall>,
    lb: Vec<(VertexId, VertexId)>,
    wall_s: f64,
    digest: u64,
}

impl TracedPass {
    /// Everything that must repeat exactly for equal seeds.
    fn exact(&self) -> impl Iterator<Item = (QueryStats, usize, usize)> + '_ {
        self.roots.iter().map(|r| (r.stats, r.lb_calls, r.results))
    }
}

/// Best-of-three time per call of `f` over `args`, replayed in order.
fn replay_ns_per_call<A: Copy>(args: &[A], mut f: impl FnMut(A) -> u64) -> f64 {
    if args.is_empty() {
        return 0.0;
    }
    let rep = |f: &mut dyn FnMut(A) -> u64| {
        let t0 = Instant::now();
        let mut acc = 0u64;
        for &a in args {
            acc = acc.wrapping_add(f(a));
        }
        black_box(acc);
        t0.elapsed().as_nanos() as f64 / args.len() as f64
    };
    (0..3).map(|_| rep(&mut f)).fold(f64::INFINITY, f64::min)
}

impl<'a, D, F> Run<'a, F>
where
    D: NetworkDistance,
    F: Fn() -> D + Sync,
{
    /// One pass over the query stream with both seams recorded. Distance
    /// calls are timed in place when `time_calls`.
    fn traced_pass(&self, time_calls: bool, sized_like: Option<&TracedPass>) -> TracedPass {
        let sys = &self.world.system;
        let pass = &self.world.streams.pass;
        let epoch = Instant::now();
        let now = || epoch.elapsed().as_nanos() as u64;
        // Buffers sized before the pass, so recording never reallocates
        // inside it (the first repetition grows them, and is discarded
        // from the overhead figure in favour of the faster one).
        let (lb_cap, dist_cap) = sized_like.map_or((0, 0), |p| (p.lb.len(), p.dist.len()));
        let lb = RecordingLb {
            inner: &sys.alt,
            calls: RefCell::new(Vec::with_capacity(lb_cap)),
        };
        let mut dist = Recording::new((self.make_dist)(), time_calls.then_some(epoch));
        dist.calls.reserve(dist_cap);
        let mut engine = QueryEngine::new(&sys.graph, &sys.corpus, &sys.index, &lb, dist);
        let mut roots = Vec::with_capacity(pass.len());
        let mut result_digest = DIGEST_SEED;
        let start = Instant::now();
        for q in pass {
            engine.reset_stats();
            let lb_before = lb.calls.borrow().len();
            let start_ns = now();
            let answer = q.run(&mut engine);
            let end_ns = now();
            result_digest = digest(result_digest, &answer);
            roots.push(Root {
                start_ns,
                end_ns,
                stats: engine.stats(),
                lb_calls: lb.calls.borrow().len() - lb_before,
                results: match &answer {
                    ServingResult::Distances(v) => v.len(),
                    ServingResult::Scores(v) => v.len(),
                },
            });
        }
        let wall_s = start.elapsed().as_secs_f64();
        TracedPass {
            roots,
            dist: engine.into_distance().calls,
            lb: lb.calls.into_inner(),
            wall_s,
            digest: result_digest,
        }
    }

    /// Heap Generator alone: µs per query of `InvertedHeap::create` over the
    /// query's keywords (its ALT calls included), best of three.
    fn heap_create_us(&self) -> f64 {
        let sys = &self.world.system;
        let pass = &self.world.streams.pass;
        let create_us = (0..3).map(|_| {
            let t0 = Instant::now();
            for q in pass {
                let (vertex, terms) = match q {
                    ServingQuery::Bknn { vertex, terms, .. }
                    | ServingQuery::TopK { vertex, terms, .. } => (*vertex, terms.clone()),
                    ServingQuery::Boolean { vertex, expr, .. } => (*vertex, expr.terms()),
                };
                let ctx = HeapContext::new(&sys.graph, &sys.corpus, &sys.alt, vertex);
                for t in terms {
                    black_box(InvertedHeap::create(&sys.index, t, &ctx).is_some());
                }
            }
            t0.elapsed().as_nanos() as f64 / 1e3 / pass.len() as f64
        });
        create_us.fold(f64::INFINITY, f64::min)
    }

    /// Runs the traced passes and reports every query-path layer metric.
    /// `untraced` is the digest and the fastest pass of the plain engine;
    /// `trace_out` receives the spans as JSON lines.
    pub fn trace_phase(
        &self,
        rep: &mut Report,
        untraced: (u64, f64),
        time_calls: bool,
        trace_out: Option<&str>,
    ) {
        let (untraced_digest, untraced_pass_s) = untraced;
        let sys = &self.world.system;
        let pass = &self.world.streams.pass;
        let first = self.traced_pass(time_calls, None);
        let second = self.traced_pass(time_calls, Some(&first));

        // Equal seeds must give equal counters, twice in one process, and
        // the recorders must not change an answer.
        rep.checks.check(first.exact().eq(second.exact()), || {
            "exact counters differ between two traced passes".into()
        });
        rep.checks.check(
            first.digest == untraced_digest && second.digest == untraced_digest,
            || "traced answers differ from untraced answers".into(),
        );
        let total = |f: fn(&Root) -> usize| first.roots.iter().map(f).sum::<usize>();
        let (dist_total, lb_total) = (first.dist.len(), first.lb.len());
        let lb_counted = total(|r| r.stats.lb_computations);
        let logs_match = total(|r| r.stats.dist_computations) == dist_total
            && total(|r| r.lb_calls) == lb_total
            && lb_counted <= lb_total;
        rep.checks.check(logs_match, || {
            "logged calls do not match the engine's own counts".into()
        });
        if !logs_match {
            return;
        }
        rep.info(
            "trace.lb_calls_missing_from_stats",
            (lb_total - lb_counted) as f64,
            "count",
        );
        rep.per_layer(
            "trace.record_overhead_ratio",
            first.wall_s.min(second.wall_s) / untraced_pass_s,
            "ratio",
        );
        let trace = second;

        // Split the two logs by query type, in call order.
        let mut dist_by: [Vec<DistCall>; 4] = Default::default();
        let mut lb_by: [Vec<(VertexId, VertexId)>; 4] = Default::default();
        // (index into `topk_terms`, object) of every distance call of a
        // top-k query: the relevance calls that were followed by one.
        let mut relevance_args: Vec<(usize, ObjectId)> = Vec::new();
        let mut topk_terms: Vec<QueryTerms> = Vec::new();
        let (mut d_at, mut lb_at) = (0, 0);
        for (i, (root, q)) in trace.roots.iter().zip(pass).enumerate() {
            let k = i % KINDS.len();
            let calls = &trace.dist[d_at..d_at + root.stats.dist_computations];
            dist_by[k].extend_from_slice(calls);
            lb_by[k].extend_from_slice(&trace.lb[lb_at..lb_at + root.lb_calls]);
            d_at += root.stats.dist_computations;
            lb_at += root.lb_calls;
            if let ServingQuery::TopK { terms, .. } = q {
                topk_terms.push(QueryTerms::new(&sys.corpus, terms));
                relevance_args.extend(
                    calls.iter().filter_map(|c| {
                        sys.corpus.object_at(c.t).map(|o| (topk_terms.len() - 1, o))
                    }),
                );
            }
        }

        let mut plain_dist = (self.make_dist)();
        let relevance_ns = replay_ns_per_call(&relevance_args, |(q, o)| {
            topk_terms[q].relevance(&sys.corpus, o).to_bits()
        });
        let per_kind = (pass.len() / KINDS.len()) as f64;
        let mut sum = [0.0f64; 5]; // root, lb, dist, text, self — in ns
        let (mut tight_sum, mut tight_n) = (0.0, 0usize);
        for (k, kind) in KINDS.iter().enumerate() {
            let name = kind.name();
            let roots = || trace.roots.iter().skip(k).step_by(KINDS.len());
            let count = |f: fn(&Root) -> usize| roots().map(f).sum::<usize>() as f64;
            let root_ns = roots().map(|r| r.end_ns - r.start_ns).sum::<u64>() as f64;
            let lb_ns = lb_by[k].len() as f64
                * replay_ns_per_call(&lb_by[k], |(s, t)| u64::from(sys.alt.lower_bound(s, t)));
            let dist_ns = if time_calls {
                dist_by[k]
                    .iter()
                    .map(|c| c.end_ns - c.start_ns)
                    .sum::<u64>() as f64
            } else {
                dist_by[k].len() as f64
                    * replay_ns_per_call(&dist_by[k], |c| u64::from(plain_dist.distance(c.s, c.t)))
            };
            let text_ns = if *kind == Kind::TopK {
                relevance_args.len() as f64 * relevance_ns
            } else {
                0.0
            };
            let self_ns = root_ns - lb_ns - dist_ns - text_ns;
            for (total, part) in sum
                .iter_mut()
                .zip([root_ns, lb_ns, dist_ns, text_ns, self_ns])
            {
                *total += part;
            }
            for c in dist_by[k]
                .iter()
                .filter(|c| c.d > 0 && c.d < kspin::graph::INFINITY)
            {
                tight_sum += f64::from(sys.alt.lower_bound(c.s, c.t)) / f64::from(c.d);
                tight_n += 1;
            }

            let dist_calls = count(|r| r.stats.dist_computations);
            rep.per_layer(
                format!("{name}.alt.lb_calls_per_query"),
                count(|r| r.lb_calls) / per_kind,
                "count",
            );
            rep.per_layer(format!("{name}.alt.lb_share"), lb_ns / root_ns, "ratio");
            rep.per_layer(
                format!("{name}.dist.calls_per_query"),
                dist_calls / per_kind,
                "count",
            );
            rep.per_layer(format!("{name}.dist.share"), dist_ns / root_ns, "ratio");
            rep.per_layer(
                format!("{name}.dist.useful_ratio"),
                count(|r| r.results) / dist_calls.max(1.0),
                "ratio",
            );
            rep.per_layer(
                format!("{name}.heap.extractions_per_query"),
                count(|r| r.stats.heap_extractions) / per_kind,
                "count",
            );
            rep.per_layer(
                format!("{name}.heap.pushes_per_query"),
                count(|r| r.stats.heap_pushes) / per_kind,
                "count",
            );
            rep.per_layer(
                format!("{name}.heap.pruned_per_query"),
                count(|r| r.stats.pruned_candidates) / per_kind,
                "count",
            );
            rep.per_layer(
                format!("{name}.core.self_share"),
                self_ns / root_ns,
                "ratio",
            );
            if *kind == Kind::TopK {
                rep.per_layer("topk.text.share", text_ns / root_ns, "ratio");
            }
        }
        let [root_ns, lb_ns, dist_ns, _, self_ns] = sum;
        rep.per_layer("alt.lb_ns_per_call", lb_ns / lb_total.max(1) as f64, "ns");
        rep.per_layer("alt.tightness", tight_sum / tight_n.max(1) as f64, "ratio");
        rep.per_layer("dist.ns_per_call", dist_ns / dist_total.max(1) as f64, "ns");
        rep.per_layer("text.relevance_ns_per_call", relevance_ns, "ns");
        rep.per_layer(
            "core.self_us_per_query",
            self_ns / pass.len() as f64 / 1e3,
            "us",
        );
        rep.info(
            "trace.root_us_per_query",
            root_ns / pass.len() as f64 / 1e3,
            "us",
        );
        rep.info("trace.dist_calls", dist_total as f64, "count");
        rep.info("trace.lb_calls", lb_total as f64, "count");

        rep.per_layer("heap.create_us_per_query", self.heap_create_us(), "us");

        if let Some(path) = trace_out {
            let written = std::fs::write(path, spans_jsonl(&trace));
            rep.checks.check(written.is_ok(), || {
                format!("cannot write {path}: {written:?}")
            });
        }
    }
}

/// `name,id,parent,query,start_ns,end_ns` per span: one root per query,
/// one child per distance call that was timed in place.
fn spans_jsonl(trace: &TracedPass) -> String {
    let mut out = String::new();
    let mut next_id = trace.roots.len();
    let mut d_at = 0;
    for (i, root) in trace.roots.iter().enumerate() {
        out.push_str(&format!(
            "{{\"name\": \"{}\", \"id\": {i}, \"parent\": null, \"query\": {i}, \"start_ns\": {}, \"end_ns\": {}}}\n",
            KINDS[i % KINDS.len()].name(),
            root.start_ns,
            root.end_ns
        ));
        for c in &trace.dist[d_at..d_at + root.stats.dist_computations] {
            if c.end_ns > 0 {
                out.push_str(&format!(
                    "{{\"name\": \"dist\", \"id\": {next_id}, \"parent\": {i}, \"query\": {i}, \"start_ns\": {}, \"end_ns\": {}}}\n",
                    c.start_ns, c.end_ns
                ));
                next_id += 1;
            }
        }
        d_at += root.stats.dist_computations;
    }
    out
}
