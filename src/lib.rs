//! # K-SPIN — Keyword Separated Indexing for spatial keyword queries on road networks
//!
//! A from-scratch Rust implementation of
//! *K-SPIN: Efficiently Processing Spatial Keyword Queries on Road Networks*
//! (Abeywickrama, Cheema, Khan — ICDE 2020 / TKDE), including every
//! substrate and baseline its evaluation depends on.
//!
//! ## Quick start
//!
//! ```
//! use kspin::prelude::*;
//!
//! // 1. A road network + POI corpus (here: synthetic; DIMACS loaders in
//! //    kspin_graph::dimacs).
//! let graph = kspin::graph::generate::road_network(
//!     &kspin::graph::generate::RoadNetworkConfig::new(2_000, 42));
//! let (corpus, vocab) = kspin::text::generate::corpus(
//!     &kspin::text::generate::CorpusConfig::new(graph.num_vertices(), 42));
//!
//! // 2. Build the K-SPIN system: ALT lower bounds + per-keyword indexes.
//! let system = KspinSystem::build(graph, corpus, vocab, &KspinConfig::default());
//!
//! // 3. Query with any network distance module — plain Dijkstra here.
//! let mut engine = system.engine_dijkstra();
//! let hotel = system.vocab.get("hotel").unwrap();
//! let results = engine.bknn(0, 5, &[hotel], Op::Or);
//! assert!(results.len() <= 5);
//! ```
//!
//! ## Crate map
//!
//! | Module | Contents |
//! |---|---|
//! | [`core`] | the K-SPIN framework: index, heaps, query processors |
//! | [`graph`] | CSR road networks, Dijkstra, DIMACS I/O, generators |
//! | [`text`] | corpora, inverted lists, impacts, relevance scoring |
//! | [`nvd`] | exact + ρ-approximate Network Voronoi Diagrams |
//! | [`alt`] | ALT landmark lower bounds |
//! | [`ch`] | Contraction Hierarchies |
//! | [`hl`] | hub labels (2-hop labels; the PHL stand-in) |
//! | [`gtree`] | G-tree baseline + KS-GT distance module |
//! | [`road`] | ROAD baseline |
//! | [`fsfbs`] | FS-FBS baseline |
//! | [`adapters`] | [`NetworkDistance`] impls wiring CH/HL/G-tree into the framework |

// Panic sources: a site that may panic is fixed or carries
// `#[expect(<lint>, reason = "…")]`. Tests may index and panic (clippy.toml);
// the division lint has no such switch, so it is denied outside tests only.
#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![cfg_attr(not(test), deny(clippy::integer_division_remainder_used))]
// Float ordering goes through `OrderedWeight`: `partial_cmp` is on the
// clippy.toml method list, with the clock and thread calls.
#![deny(clippy::disallowed_methods)]

pub use kspin_alt as alt;
pub use kspin_ch as ch;
pub use kspin_core as core;
pub use kspin_fsfbs as fsfbs;
pub use kspin_graph as graph;
pub use kspin_gtree as gtree;
pub use kspin_hl as hl;
pub use kspin_nvd as nvd;
pub use kspin_road as road;
pub use kspin_text as text;

pub mod adapters;
pub mod snapshot;

use kspin_alt::{AltIndex, LandmarkStrategy};
use kspin_core::{DijkstraDistance, KspinConfig, KspinIndex, NetworkDistance, QueryEngine};
use kspin_graph::Graph;
use kspin_text::{Corpus, Vocabulary};

/// Common imports for applications.
pub mod prelude {
    pub use crate::adapters::{ChDistance, GtreeNetworkDistance, HlDistance};
    pub use crate::snapshot::SnapshotExtras;
    pub use crate::KspinSystem;
    pub use kspin_core::snapshot::{SnapshotError, SnapshotFile};
    pub use kspin_core::{
        BatchExecutor, BoolExpr, DijkstraDistance, KspinConfig, KspinIndex, LowerBound,
        NetworkDistance, Op, QueryEngine, QueryStats, ServingQuery, ServingResult,
    };
    pub use kspin_graph::{Graph, VertexId, Weight};
    pub use kspin_text::{Corpus, ObjectId, TermId, Vocabulary};
}

/// A fully assembled K-SPIN deployment: road network, corpus, ALT lower
/// bounds and the Keyword Separated Index, with engines for any distance
/// module.
///
/// This is the convenience entry point; applications with bespoke needs can
/// assemble [`QueryEngine`] from the parts directly.
pub struct KspinSystem {
    pub graph: Graph,
    pub corpus: Corpus,
    pub vocab: Vocabulary,
    pub alt: AltIndex,
    pub index: KspinIndex,
}

impl KspinSystem {
    /// Number of ALT landmarks used by [`KspinSystem::build`] (the paper's
    /// m = 16, §5.1).
    pub const NUM_LANDMARKS: usize = 16;

    /// Builds ALT + the Keyword Separated Index over the inputs.
    pub fn build(graph: Graph, corpus: Corpus, vocab: Vocabulary, config: &KspinConfig) -> Self {
        let alt = AltIndex::build(&graph, Self::NUM_LANDMARKS, LandmarkStrategy::Farthest, 0);
        let index = KspinIndex::build(&graph, &corpus, config);
        KspinSystem {
            graph,
            corpus,
            vocab,
            alt,
            index,
        }
    }

    /// An engine over the index-free Dijkstra distance module.
    pub fn engine_dijkstra(&self) -> QueryEngine<'_, DijkstraDistance<'_>> {
        self.engine(DijkstraDistance::new(&self.graph))
    }

    /// An engine over any [`NetworkDistance`] module — the paper's
    /// "Flexibility" contribution in one method.
    pub fn engine<D: NetworkDistance>(&self, dist: D) -> QueryEngine<'_, D> {
        QueryEngine::new(&self.graph, &self.corpus, &self.index, &self.alt, dist)
    }

    /// Resolves keyword strings to term ids, skipping unknown words.
    pub fn terms(&self, words: &[&str]) -> Vec<kspin_text::TermId> {
        words.iter().filter_map(|w| self.vocab.get(w)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kspin_core::Op;

    #[test]
    fn system_builds_and_answers() {
        let graph = kspin_graph::generate::road_network(
            &kspin_graph::generate::RoadNetworkConfig::new(800, 1),
        );
        let (corpus, vocab) = kspin_text::generate::corpus(
            &kspin_text::generate::CorpusConfig::new(graph.num_vertices(), 1),
        );
        let system = KspinSystem::build(graph, corpus, vocab, &KspinConfig::default());
        let mut engine = system.engine_dijkstra();
        let ts = system.terms(&["hotel", "restaurant"]);
        assert_eq!(ts.len(), 2);
        let r = engine.bknn(0, 3, &ts, Op::Or);
        assert!(!r.is_empty());
        let t = engine.top_k(0, 3, &ts);
        assert!(!t.is_empty());
    }
}
