//! Network Voronoi Diagrams for the Keyword Separated Index (§5–§6).
//!
//! * [`exact`] — exact NVD construction by one multi-source sweep
//!   (Erwig–Hagen [19]) on a bucket queue (Dial): per-vertex nearest
//!   generator, the smallest id among equidistant ones, then `MaxRadius`
//!   per cell (needed by Theorem 2 updates) from one pass over the labels
//!   and the generator adjacency from one `O(|E|)` pass over the road
//!   edges. The labels are the unique least `(distance, generator id)`
//!   fixpoint, so the diagram depends on the graph and the generators
//!   alone, not on the queue: the heap Dijkstra the tests keep as an
//!   oracle writes the same bytes. One [`SweepScratch`] per build thread
//!   keeps the queue's memory from one keyword to the next.
//! * [`adjacency`] — the generator adjacency graph (Observation 2a: its
//!   size is `O(|inv(t)|)`, independent of `|V|`).
//! * [`approx`] — the ρ-Approximate NVD (§6.1): a Morton-list quadtree that
//!   subdivides until each cell holds at most ρ distinct Voronoi colors.
//! * [`update`] — §6.2 lazy insertion with the Theorem-2 affected set
//!   (deletion marks and rebuilds live in the keyword's object table, in
//!   `kspin-core`).
//!
//! The per-keyword index the K-SPIN core actually stores is
//! [`ApproxNvd`]: quadtree leaves + adjacency graph + `MaxRadius` — the
//! exact NVD's `O(|V|)` owner array is discarded after construction, which
//! is where the order-of-magnitude space saving comes from.

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

pub mod adjacency;
pub mod approx;
pub mod exact;
pub mod update;

pub use adjacency::{AdjacencyGraph, SymmetryAudit};
pub use approx::{ApproxNvd, ApproxNvdParts};
pub use exact::{ExactNvd, SweepScratch};
