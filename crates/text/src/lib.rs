//! Spatio-textual scoring substrate for the K-SPIN reproduction.
//!
//! Implements the paper's §2 preliminaries:
//!
//! * [`Vocabulary`] — string interning for keywords.
//! * [`Corpus`] — objects (POIs placed on road-network vertices), their
//!   documents, per-keyword inverted lists, and the pre-computed *impact*
//!   values `λ_{t,o}` of Eq. (3).
//! * [`QueryTerms`] — query-side impacts `λ_{t,ψ}` and the cosine textual
//!   relevance `TR(ψ, o)` (Eq. 2 rewritten as Eq. 3).
//! * [`score`] — the weighted-distance spatio-textual score of Eq. (1).
//! * [`generate`] — Zipfian corpus generator (Observation 1 depends on
//!   Zipf-distributed inverted-list sizes) standing in for OSM POI data.
//! * [`workload`] — the correlated query-keyword-vector construction of
//!   §7.1.

#![deny(clippy::disallowed_types, clippy::disallowed_methods)]
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

pub mod corpus;
pub mod generate;
pub mod io;
pub mod relevance;
pub mod vocab;
pub mod workload;

pub use corpus::{Corpus, CorpusBuilder, DocPosting, InvPosting, ObjectId, TermId};
pub use relevance::{score, QueryTerms};
pub use vocab::{VocabError, Vocabulary};
