//! G-tree (Zhong et al. [4], [17]) — the state-of-the-art keyword-aggregated
//! baseline, and the KS-GT network distance module of §7.4.
//!
//! A G-tree is a hierarchical partitioning of the road network. Each node
//! owns a subgraph; *borders* are the node's vertices with edges leaving the
//! subgraph; distance matrices let queries assemble exact network distances
//! by min-plus composition along the hierarchy instead of graph traversal.
//!
//! This implementation:
//!
//! * partitions geometrically (alternating-axis median bisection — the
//!   METIS substitution of DESIGN.md §3),
//! * stores **globally exact** border matrices (each entry is the true
//!   network distance, computed by bounded one-to-many Dijkstra during the
//!   build), so assembly is exact by construction,
//! * counts *matrix operations* (one lookup+add in a composition) exactly
//!   as §7.4.2 defines them,
//! * implements the keyword-aggregated spatial keyword algorithms
//!   (pseudo-documents + occurrence lists), the per-keyword occurrence-list
//!   variant **Gtree-Opt** (§7.4.1), and the materialized point-to-point
//!   distance API that KS-GT plugs into K-SPIN.

// Float ordering goes through `OrderedWeight`: `partial_cmp` is on the
// clippy.toml method list, with the clock and thread calls.
#![deny(clippy::disallowed_methods)]

pub mod dist;
pub mod partition;
pub mod sk;
pub mod tree;

pub use dist::GtreeDistance;
pub use partition::PartitionConfig;
pub use sk::{GtreeSpatialKeyword, OccurrenceMode};
pub use tree::GTree;
