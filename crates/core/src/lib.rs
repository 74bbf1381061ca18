//! K-SPIN: the Keyword Separated Indexing framework (the paper's primary
//! contribution).
//!
//! The framework (§3, Fig. 2) is four cooperating modules:
//!
//! 1. **Lower Bounding Module** — any [`LowerBound`] oracle; ALT by default.
//! 2. **Network Distance Module** — any [`NetworkDistance`] oracle; the
//!    paper's point is that this is pluggable (CH, PHL/HL, G-tree, …).
//! 3. **Heap Generator** — [`heap::InvertedHeap`]: *on-demand inverted
//!    heaps* satisfying Property 1, lazily populated from the Keyword
//!    Separated Index via `LazyReheap` (Algorithm 4).
//! 4. **Query Processor** — [`engine::QueryEngine`]: disjunctive/conjunctive
//!    Boolean kNN (Algorithm 1, §4.1), top-k with pseudo lower-bound scores
//!    (Algorithms 2–3, §4.2), and mixed ∧/∨ boolean trees (§2 remark).
//!
//! The Keyword Separated Index itself is [`index::KspinIndex`]: one
//! ρ-Approximate NVD per frequent keyword, plain object lists for the
//! Zipf-tail keywords with `|inv(t)| ≤ ρ` (Observation 1), built in
//! parallel over keywords (Observation 3), updatable in place (§6.2).

#![deny(missing_docs)]
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
// Panic sources: a site that may panic is fixed or carries
// `#[expect(<lint>, reason = "…")]`. Tests may index and panic (clippy.toml);
// the division lint has no such switch, so it is denied outside tests only.
#![deny(
    clippy::indexing_slicing,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![cfg_attr(not(test), deny(clippy::integer_division_remainder_used))]

pub mod engine;
pub mod heap;
pub mod index;
pub mod modules;
pub mod query;
pub mod serving;
pub mod snapshot;

pub use engine::{QueryEngine, QueryStats};
pub use index::{KspinConfig, KspinIndex};
pub use modules::{DijkstraDistance, ExactLowerBound, LowerBound, NetworkDistance};
pub use query::boolean::BoolExpr;
pub use query::Op;
pub use serving::{BatchExecutor, BatchOutput, ServingQuery, ServingResult};
