//! Versioned flat binary snapshot format for K-SPIN indexes.
//!
//! A snapshot is a single contiguous byte buffer holding every index
//! structure of a deployment — CSR graph, corpus postings, per-keyword
//! ρ-approximate NVDs, ALT landmark tables, CH upward graph and G-tree
//! hierarchy — as *sections* of flat
//! little-endian `u32`/`u64`/`f64` arrays. Loading is validate-then-copy
//! into pre-sized `Vec`s: no per-element parsing, no pointer fix-ups, no
//! graph traversal (fixed header, 8-aligned sections, explicit offsets).
//!
//! Three guarantees define the format:
//!
//! * **Canonical serialization** — the writer enforces ascending section
//!   ids, contiguous 8-aligned offsets and zero padding, so save → load →
//!   save is byte-identical (test-enforced at the workspace level).
//! * **Fail-closed validation** — [`SnapshotFile::validate`] checks magic,
//!   version, endianness, length, the header/table checksum and one
//!   xxhash-style checksum per padded section range. Every byte of the
//!   file is covered by exactly one checksum, so any single-byte flip or
//!   truncation yields a structured [`SnapshotError`] naming the failing
//!   section.
//! * **Panic-free loading** — validation and section access never index,
//!   never divide, never assert: untrusted bytes cannot panic the loader.
//!   `SnapshotFile::validate` is certified by `cargo xtask certify`.
//!
//! This crate is the format layer only: it knows bytes, sections and
//! checksums. The codecs that map index structures onto sections live in
//! `kspin-core` (engine) and the root `kspin` crate (full system), which
//! re-export this crate.

#![deny(clippy::disallowed_types, clippy::disallowed_methods)]
// Untrusted bytes reach no unchecked arithmetic or index: every module
// decodes them but `writer`, which opts out.
#![deny(clippy::arithmetic_side_effects, clippy::indexing_slicing)]

pub mod error;
pub mod format;
pub mod hash;
pub mod owned;
pub mod reader;
pub mod writer;

pub use error::{FormatError, SectionLabel, SnapshotError};
pub use reader::{SectionView, SnapshotFile};
pub use writer::SnapshotWriter;
