//! Workloads and their inputs. A workload is a *scenario*: a dataset size,
//! a Network Distance Module, a keyword distribution and whether the index
//! under test carries lazy §6.2 updates. Every scenario runs the same
//! phases and reports the same metrics; everything below is a function of
//! `--seed` alone, and the engine only ever sees the generated inputs.

use kspin::ch::{ChConfig, ContractionHierarchy};
use kspin::graph::generate::{road_network, RoadNetworkConfig};
use kspin::hl::HubLabels;
use kspin::prelude::*;
use kspin::text::generate::{corpus, CorpusConfig};
use kspin::text::workload::{
    query_vectors, query_vertices, zipf_queries, Query, WorkloadConfig, ZipfWorkloadConfig,
};

use crate::measure::timed;

/// Result size: the paper's §7.1 default.
pub const K: usize = 10;
/// Queries of each type in one pass of the single-client stream.
pub const PER_KIND: usize = 1024;
/// Queries per `BatchExecutor::execute` call.
pub const BATCH: usize = 256;
/// Most frequent keywords whose index `rebuild_term` is timed on.
pub const REBUILD_TERMS: usize = 32;

/// The four query types of §2, in the order a pass interleaves them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    TopK,
    Or,
    And,
    Boolean,
}

pub const KINDS: [Kind; 4] = [Kind::TopK, Kind::Or, Kind::And, Kind::Boolean];

impl Kind {
    /// The `<T>` of the metric names.
    pub fn name(self) -> &'static str {
        match self {
            Kind::TopK => "topk",
            Kind::Or => "bknn_or",
            Kind::And => "bknn_and",
            Kind::Boolean => "boolean",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Module {
    /// Hub labels (KS-HL): < 1 µs per distance.
    Hl,
    /// Contraction Hierarchies (KS-CH): ~13 µs per distance.
    Ch,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// §7.1: keyword vectors taken from real objects × uniform vertices.
    Correlated,
    /// Keywords Zipf-distributed over popularity, vertices from a hot pool.
    Zipf,
}

#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    pub name: &'static str,
    pub vertices: usize,
    pub module: Module,
    pub stream: Stream,
    /// Queries run on an index built without a tenth of the objects, which
    /// were then inserted lazily, and with a twentieth mark-deleted.
    pub lazy: bool,
}

/// Why each exists is recorded in `BENCHMARK.json` and the README.
pub const SCENARIOS: [Scenario; 4] = [
    Scenario {
        name: "query_hl",
        vertices: 30_000,
        module: Module::Hl,
        stream: Stream::Correlated,
        lazy: false,
    },
    Scenario {
        name: "query_ch",
        vertices: 30_000,
        module: Module::Ch,
        stream: Stream::Correlated,
        lazy: false,
    },
    Scenario {
        name: "serve_zipf",
        vertices: 40_000,
        module: Module::Hl,
        stream: Stream::Zipf,
        lazy: false,
    },
    Scenario {
        name: "lifecycle",
        vertices: 30_000,
        module: Module::Hl,
        stream: Stream::Correlated,
        lazy: true,
    },
];

/// The index configuration of every build: the defaults (ρ = 5, no seed
/// cache) with one build thread. `KspinConfig::default()` takes the host's
/// core count, and on a shared 2-vCPU guest a 2-thread build takes anything
/// between 1× and 2× its best time depending on who else runs.
pub fn index_config() -> KspinConfig {
    KspinConfig {
        num_threads: 1,
        ..KspinConfig::default()
    }
}

/// splitmix64: the one generator the benchmark owns. Graph, corpus and
/// query streams come from the repository's own seeded generators, fed
/// from this sequence.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// One pass of the single-client stream and one of the serving stream.
pub struct Streams {
    /// `PER_KIND` rounds of the four types, interleaved round-robin:
    /// query `i` is of type `KINDS[i % 4]`.
    pub pass: Vec<ServingQuery>,
    /// The same top-k and BkNN-∨ queries, alternating, for the executor.
    pub serving: Vec<ServingQuery>,
}

fn streams(system: &KspinSystem, stream: Stream, seed: u64) -> Streams {
    let n = system.graph.num_vertices();
    let (q2, q3) = match stream {
        Stream::Correlated => {
            // One keyword vector per query (§7.1 takes 10 objects per seed
            // term): a type's median then rests on a thousand vectors, not
            // on which few the seed happened to draw.
            let cfg = WorkloadConfig {
                seed_terms: vec![0, 1, 2, 3, 4],
                objects_per_term: PER_KIND.div_ceil(5),
                vertices_per_vector: 0,
                seed,
            };
            let vertices = query_vertices(n, PER_KIND, seed ^ 0xdead_beef);
            let pair = |len| {
                let vectors = query_vectors(&system.corpus, &cfg, len);
                assert!(!vectors.is_empty(), "no {len}-keyword vectors");
                (0..PER_KIND)
                    .map(|i| Query {
                        vertex: vertices[i],
                        terms: vectors[i % vectors.len()].clone(),
                    })
                    .collect::<Vec<_>>()
            };
            (pair(2), pair(3))
        }
        Stream::Zipf => {
            let zipf = |terms_per_query, seed| {
                let cfg = ZipfWorkloadConfig {
                    num_queries: PER_KIND,
                    terms_per_query,
                    zipf_exponent: 1.0,
                    hot_vertex_pool: 2000,
                    seed,
                };
                zipf_queries(&system.corpus, &cfg, n)
            };
            (zipf(2, seed), zipf(3, seed ^ 0xdead_beef))
        }
    };
    let mut pass = Vec::with_capacity(PER_KIND * KINDS.len());
    let mut serving = Vec::with_capacity(PER_KIND * 2);
    for (two, three) in q2.iter().zip(&q3) {
        let topk = ServingQuery::TopK {
            vertex: two.vertex,
            k: K,
            terms: two.terms.clone(),
        };
        let bknn = |op| ServingQuery::Bknn {
            vertex: two.vertex,
            k: K,
            terms: two.terms.clone(),
            op,
        };
        // t0 ∧ (t1 ∨ t2)
        let expr = BoolExpr::And(vec![
            BoolExpr::Term(three.terms[0]),
            BoolExpr::any(&three.terms[1..]),
        ]);
        serving.extend([topk.clone(), bknn(Op::Or)]);
        pass.extend([
            topk,
            bknn(Op::Or),
            bknn(Op::And),
            ServingQuery::Boolean {
                vertex: three.vertex,
                k: K,
                expr,
            },
        ]);
    }
    Streams { pass, serving }
}

/// Where set-up time went; `total_s` is everything before the first
/// timed operation.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub total_s: f64,
    /// `KspinSystem::build`: ALT-16 + the Keyword Separated Index.
    pub system_build_s: f64,
    /// `BuildStats::build_seconds` of that build (the index alone).
    pub index_build_s: f64,
    /// CH contraction, plus hub labelling when the module is HL.
    pub dist_build_s: f64,
}

/// Everything a workload measures against.
pub struct World {
    pub system: KspinSystem,
    pub ch: ContractionHierarchy,
    /// Built only when the scenario's module is [`Module::Hl`].
    pub hl: Option<HubLabels>,
    pub streams: Streams,
    /// Objects mark-deleted from `system.index` (all false unless lazy).
    pub deleted: Vec<bool>,
    pub times: SetupTimes,
    /// Sub-seed for the update rounds' delete selections.
    pub update_seed: u64,
}

impl World {
    /// Generates the inputs and builds every structure queries need.
    pub fn build(sc: &Scenario, vertices: usize, seed: u64) -> World {
        let (total_s, mut world) = timed(|| {
            let mut seeds = SplitMix(seed);
            let graph = road_network(&RoadNetworkConfig::new(vertices, seeds.next()));
            let (corpus, vocab) = corpus(&CorpusConfig::new(graph.num_vertices(), seeds.next()));
            let (system_build_s, system) =
                timed(|| KspinSystem::build(graph, corpus, vocab, &index_config()));
            let (dist_build_s, (ch, hl)) = timed(|| {
                let ch = ContractionHierarchy::build(&system.graph, &ChConfig::default());
                let hl = (sc.module == Module::Hl).then(|| HubLabels::build(&ch));
                (ch, hl)
            });
            let streams = streams(&system, sc.stream, seeds.next());
            let times = SetupTimes {
                total_s: 0.0,
                system_build_s,
                index_build_s: system.index.stats().build_seconds,
                dist_build_s,
            };
            let mut world = World {
                deleted: vec![false; system.corpus.num_objects()],
                system,
                ch,
                hl,
                streams,
                times,
                update_seed: seeds.next(),
            };
            if sc.lazy {
                world.make_lazy(seeds.next());
            }
            world
        });
        world.times.total_s = total_s;
        world
    }

    /// Replaces the index by one that went through §6.2: built without
    /// every tenth object, those inserted lazily, a twentieth mark-deleted.
    fn make_lazy(&mut self, seed: u64) {
        let sys = &self.system;
        let mut index =
            KspinIndex::build_filtered(&sys.graph, &sys.corpus, |o| o % 10 != 0, &index_config());
        let objects = sys.corpus.num_objects() as ObjectId;
        self.with_dist(|dist| {
            for o in (0..objects).step_by(10) {
                index.insert_object(&sys.graph, &sys.corpus, o, dist);
            }
        });
        self.deleted = delete_share(&mut index, &sys.corpus, 20, seed);
        self.system.index = index;
    }

    /// Hands `f` the scenario's distance module as the trait object the
    /// §6.2 update API takes.
    pub fn with_dist<R>(&self, f: impl FnOnce(&mut dyn NetworkDistance) -> R) -> R {
        match &self.hl {
            Some(hl) => f(&mut HlDistance::new(hl)),
            None => f(&mut ChDistance::new(&self.ch)),
        }
    }
}

/// Mark-deletes one object in `one_in`, chosen by `seed`; returns the
/// deleted set.
pub fn delete_share(index: &mut KspinIndex, corpus: &Corpus, one_in: u64, seed: u64) -> Vec<bool> {
    let mut rng = SplitMix(seed);
    let deleted: Vec<bool> = (0..corpus.num_objects())
        .map(|_| rng.next().is_multiple_of(one_in))
        .collect();
    for (o, _) in deleted.iter().enumerate().filter(|(_, &d)| d) {
        index.delete_object(corpus, o as ObjectId);
    }
    deleted
}

/// The `REBUILD_TERMS` most frequent keywords, most frequent first.
pub fn frequent_terms(corpus: &Corpus) -> Vec<TermId> {
    let mut terms: Vec<TermId> = (0..corpus.num_terms() as TermId).collect();
    terms.sort_by_key(|&t| (std::cmp::Reverse(corpus.inv_len(t)), t));
    terms.truncate(REBUILD_TERMS);
    terms
}
