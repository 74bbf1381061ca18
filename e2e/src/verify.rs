//! Answer verification, always outside the timed regions.
//!
//! The oracle is brute force: one full Dijkstra from the query vertex,
//! then every live object is filtered (`BoolExpr::matches`) or scored
//! (`QueryTerms::relevance`, Eq. 1) and the best `k` kept — the semantics
//! of `kspin_core::query::baseline::{brute_bknn, brute_topk}` with a
//! live-object filter, which the lazily updated indexes need. Answers are
//! compared on their distance / score *sequence*, so ties between objects
//! cannot flake.

use std::panic::{catch_unwind, AssertUnwindSafe};

use kspin::graph::Dijkstra;
use kspin::prelude::*;
use kspin::text::{score, QueryTerms};

use crate::scenario::K;

/// Checks attempted and failed; a run is correct when none failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("CHECK FAILED: {}", what());
            }
        }
    }
}

/// Runs `q`, turning a panic inside the engine into `None`: a failed
/// operation, not a lost run. The engine must be rebuilt afterwards.
pub fn run_caught<D: NetworkDistance>(
    engine: &mut QueryEngine<'_, D>,
    q: &ServingQuery,
) -> Option<ServingResult> {
    catch_unwind(AssertUnwindSafe(|| q.run(engine))).ok()
}

pub struct Oracle<'a> {
    graph: &'a Graph,
    corpus: &'a Corpus,
    deleted: &'a [bool],
    search: Dijkstra,
}

impl<'a> Oracle<'a> {
    pub fn new(graph: &'a Graph, corpus: &'a Corpus, deleted: &'a [bool]) -> Self {
        Oracle {
            graph,
            corpus,
            deleted,
            search: Dijkstra::new(graph.num_vertices()),
        }
    }

    pub fn answer(&mut self, q: &ServingQuery) -> ServingResult {
        let (corpus, deleted) = (self.corpus, self.deleted);
        let vertex = match q {
            ServingQuery::Bknn { vertex, .. }
            | ServingQuery::TopK { vertex, .. }
            | ServingQuery::Boolean { vertex, .. } => *vertex,
        };
        self.search.sssp(self.graph, vertex);
        let space = self.search.space();
        let live = (0..corpus.num_objects() as ObjectId).filter(|&o| !deleted[o as usize]);
        let bknn = |expr: &BoolExpr| {
            let mut found: Vec<(ObjectId, Weight)> = live
                .clone()
                .filter(|&o| expr.matches(corpus, o))
                .filter_map(|o| space.distance(corpus.vertex_of(o)).map(|d| (o, d)))
                .collect();
            found.sort_unstable_by_key(|&(o, d)| (d, o));
            found.truncate(K);
            ServingResult::Distances(found)
        };
        match q {
            ServingQuery::Bknn { terms, op, .. } => bknn(&match op {
                Op::And => BoolExpr::all(terms),
                Op::Or => BoolExpr::any(terms),
            }),
            ServingQuery::Boolean { expr, .. } => bknn(expr),
            ServingQuery::TopK { terms, .. } => {
                let query = QueryTerms::new(corpus, terms);
                let mut scored: Vec<(ObjectId, f64)> = live
                    .clone()
                    .filter_map(|o| {
                        let tr = query.relevance(corpus, o);
                        let d = space.distance(corpus.vertex_of(o))?;
                        (tr > 0.0).then(|| (o, score(d, tr)))
                    })
                    .collect();
                scored.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                scored.truncate(K);
                ServingResult::Scores(scored)
            }
        }
    }

    /// Whether `got` is the oracle's answer to `q` and names no deleted
    /// object.
    pub fn confirms(&mut self, q: &ServingQuery, got: &ServingResult) -> bool {
        let want = self.answer(q);
        let live = |o: &ObjectId| !self.deleted[*o as usize];
        match (got, &want) {
            (ServingResult::Distances(g), ServingResult::Distances(w)) => {
                g.iter().map(|(o, _)| o).all(live)
                    && g.iter().map(|&(_, d)| d).eq(w.iter().map(|&(_, d)| d))
            }
            (ServingResult::Scores(g), ServingResult::Scores(w)) => {
                g.iter().map(|(o, _)| o).all(live)
                    && g.len() == w.len()
                    && g.iter()
                        .zip(w)
                        .all(|(&(_, a), &(_, b))| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()))
            }
            _ => false,
        }
    }
}

/// Folds the distances / score bits of `r` into an FNV-1a digest.
pub fn digest(mut acc: u64, r: &ServingResult) -> u64 {
    let mut fold = |word: u64| {
        for byte in word.to_le_bytes() {
            acc = (acc ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    match r {
        ServingResult::Distances(v) => {
            fold(v.len() as u64);
            v.iter().for_each(|&(_, d)| fold(u64::from(d)));
        }
        ServingResult::Scores(v) => {
            fold(v.len() as u64);
            v.iter().for_each(|&(_, s)| fold(s.to_bits()));
        }
    }
    acc
}

/// Seed of [`digest`].
pub const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;
