//! Road-network graph substrate for the K-SPIN reproduction.
//!
//! This crate provides everything the upper layers need from a road network:
//!
//! * [`Graph`] — a compact CSR (compressed sparse row) representation of an
//!   undirected, positively-weighted road network with per-vertex coordinates.
//! * [`GraphBuilder`] — incremental construction with duplicate-edge handling.
//! * [`dijkstra`] — single-source, point-to-point, one-to-many and k-nearest
//!   searches used both directly (network-expansion baseline) and by every
//!   index builder in the workspace.
//! * [`dheap`] — the indexed 4-ary decrease-key heap kernel under every
//!   best-first search in the workspace (zero stale pops, O(1) reset,
//!   structural instrumentation counters).
//! * [`labels`] — the one epoch-stamped per-id store ([`Labels`]) under
//!   every search that forgets its state between calls: Dijkstra, the heap
//!   kernel, the CH searches, the query dedup set, the NVD audit and the
//!   hub-label merge. O(1) reset, the bounds argument and the epoch wrap
//!   written once.
//! * [`morton`] — Morton (Z-order) codes, the key of the ρ-approximate
//!   NVD's quadtree leaves.
//! * [`connectivity`] — connected-component analysis and largest-component
//!   extraction (road networks must be connected for Voronoi diagrams to
//!   cover every vertex).
//! * [`dimacs`] — reader/writer for the 9th-DIMACS-Challenge `.gr`/`.co`
//!   text formats used by the paper's datasets.
//! * [`generate`] — synthetic road-network generator standing in for the
//!   DIMACS datasets (see DESIGN.md §3 for the substitution rationale).
//!
//! Distances are `u32` travel-time-like units; [`INFINITY`] marks
//! unreachable. All vertex identifiers are dense `u32` indices.

#![deny(missing_docs)]
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

pub mod connectivity;
pub mod csr;
pub mod dheap;
pub mod dijkstra;
pub mod dimacs;
pub mod generate;
pub mod labels;
pub mod morton;
pub mod types;
pub mod weight;

pub use csr::{Graph, GraphBuilder};
pub use dheap::{DaryHeap, HeapCounters};
pub use dijkstra::{Dijkstra, SearchSpace};
pub use labels::Labels;
pub use types::{Edge, Point, VertexId, Weight, INFINITY};
pub use weight::{weight_add, OrderedWeight};
