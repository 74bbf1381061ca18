//! On-disk layout constants and the section-id registry.
//!
//! # File layout (all integers little-endian)
//!
//! | bytes          | field                                             |
//! |----------------|---------------------------------------------------|
//! | `0..8`         | magic `b"KSPINSNP"`                               |
//! | `8..12`        | format version (`u32`, currently 5)               |
//! | `12..16`       | endianness tag (`u32`, `0x0A0B0C0D`)              |
//! | `16..20`       | section count `k` (`u32`)                         |
//! | `20..24`       | reserved, must be 0                               |
//! | `24..32`       | total file length (`u64`)                         |
//! | `32..40`       | header+table checksum (`u64` xxHash64)            |
//! | `40..40+32k`   | section table, one 32-byte entry per section      |
//! | `40+32k..`     | section payloads, contiguous, 8-aligned           |
//!
//! Each table entry is `{ id: u32, kind: u32, offset: u64, count: u64,
//! checksum: u64 }`. `offset` is absolute from the start of the file;
//! `count` is in *elements* of the section's kind. Payloads are padded
//! with zero bytes to the next multiple of 8 and each section checksum
//! covers its whole padded range `[offset, next_offset)`, so together
//! with the header checksum (which covers bytes `0..32` plus the table)
//! **every byte of the file is covered by exactly one checksum**.
//!
//! # Versioning and compatibility
//!
//! The format version is bumped on any change to the header, table-entry
//! shape or the meaning of an existing section id; readers reject files
//! with an unknown version or endianness tag outright. New *section ids*
//! may be added without a version bump — sections are self-describing and
//! loaders ignore ids they do not request — which is how the optional CH
//! sections already work. Retiring an optional id needs no bump either:
//! no loader requests ids 80–86 (a G-tree partition hierarchy, retired)
//! or 90 (a vertex renumbering, retired), so a file that still carries
//! them loads with those sections ignored.
//!
//! Version 2 narrowed [`section::INDEX_META`] from 8 words to 5 when the
//! heap-seed cache was removed from the engine (it measured slower than
//! the cold Heap Generator path it shadowed); version 1 files are
//! rejected with [`crate::FormatError::BadVersion`], no v1 reader is kept.
//!
//! Version 3 transposed [`section::ALT_DIST`] from `[landmark][vertex]` to
//! `[vertex][landmark]`, the order `AltIndex` now holds it in (a lower
//! bound reads two contiguous rows instead of `2m` scattered words). The
//! section is written and read verbatim, and a version 2 table has the
//! same `m · n` words — it would pass every shape check and yield
//! inadmissible bounds, i.e. silently wrong answers — so version 2 files
//! are rejected with `BadVersion` too: no v2 reader, no transpose on load.
//!
//! Version 4 stores a §6.2 insert once, as its edges in the adjacency
//! sections: the per-generator "attached" lists (ids 46 and 47, retired
//! and left as holes) are gone and [`section::NVD_LENS`] is 7 wide, not 8.
//! [`section::NVD_SCALARS`] lost the per-term ρ and the pending-update
//! counter (6 → 4) and [`section::INDEX_META`] lost `build_seconds`, a
//! clock reading that made two builds of one input differ (5 → 4).
//! Version 3 files are refused at the header with `BadVersion`; no v3
//! reader is kept.
//!
//! Version 5 stores one object table per keyword, whatever its kind:
//! [`section::KEYWORD_LENS`], [`section::KEYWORD_OBJECTS`] and
//! [`section::KEYWORD_DELETED`] replace the list keywords' ids 32–35 and
//! the NVD keywords' object, deletion, insert and corpus-id sections (41,
//! 45, 48, 49), all retired and left as holes. No section stores a vertex
//! any more: the loader reads each object's from
//! [`section::CORPUS_VERTEX_OF`]. [`section::NVD_LENS`] is 5 wide, not 7,
//! since an NVD's adjacency node count is its keyword's object count and
//! its insert count follows. Version 4 files are refused at the header
//! with `BadVersion`; no v4 reader is kept.
//!
//! Version 6 splits the index's two thresholds: [`section::INDEX_META`]
//! gains a fifth word, the list threshold `max(list_max, ρ)` up to which a
//! keyword is a plain list (4 → 5), and the loader refuses an NVD keyword
//! built over that many generators or fewer. A version 5 meta holds ρ
//! alone, which was both thresholds; version 5 files are refused at the
//! header with `BadVersion`, and no v5 reader is kept.
//!
//! # Canonical serialization
//!
//! A conforming writer emits sections in strictly ascending id order at
//! the smallest conforming offsets with zero padding. Two snapshots of
//! equal logical content are therefore byte-identical — two independent
//! builds of one input included, no section holds a clock reading — and
//! save → load → save is the identity on bytes (both test-enforced).

#![deny(clippy::as_conversions)]

/// File magic, bytes `0..8`.
pub const MAGIC: [u8; 8] = *b"KSPINSNP";

/// Current format version, bytes `8..12`.
pub const FORMAT_VERSION: u32 = 6;

/// Endianness tag, bytes `12..16`: read back as this value only when the
/// file and host agree on little-endian layout of `u32`s.
pub const ENDIAN_TAG: u32 = 0x0A0B_0C0D;

/// Fixed header length in bytes (the section table starts here).
pub const HEADER_LEN: usize = 40;

/// Length of one section-table entry in bytes.
pub const TABLE_ENTRY_LEN: usize = 32;

/// Seed for the header+table checksum.
pub const HEADER_SEED: u64 = 0x4B53_5049_4E53_4E50; // "KSPINSNP"

/// Element kind: `u32` little-endian, 4 bytes per element.
pub const KIND_U32: u32 = 0;
/// Element kind: `u64` little-endian, 8 bytes per element.
pub const KIND_U64: u32 = 1;
/// Element kind: `f64` stored as its IEEE-754 bit pattern in a
/// little-endian `u64`, 8 bytes per element.
pub const KIND_F64: u32 = 2;
/// Element kind: raw bytes, 1 byte per element.
pub const KIND_BYTES: u32 = 3;

/// Bytes per element of `kind`, or `None` for an unknown kind.
#[inline]
pub fn elem_size(kind: u32) -> Option<u64> {
    match kind {
        KIND_U32 => Some(4),
        KIND_U64 | KIND_F64 => Some(8),
        KIND_BYTES => Some(1),
        _ => None,
    }
}

/// Section ids. The registry is append-only: ids are never reused or
/// renumbered (see the module docs on compatibility).
pub mod section {
    /// CSR adjacency offsets, `u32`, length `n + 1`.
    pub const GRAPH_OFFSETS: u32 = 1;
    /// CSR edge targets, `u32`.
    pub const GRAPH_TARGETS: u32 = 2;
    /// CSR edge weights, `u32`.
    pub const GRAPH_WEIGHTS: u32 = 3;
    /// Vertex coordinates interleaved `[x0, y0, x1, y1, ..]`, `i32` stored
    /// as `u32` bit patterns.
    pub const GRAPH_COORDS: u32 = 4;

    /// Corpus: vertex of each object, `u32`, length = number of objects.
    pub const CORPUS_VERTEX_OF: u32 = 10;
    /// Corpus: per-object document offsets into the posting columns,
    /// `u32`, length = objects + 1.
    pub const CORPUS_DOC_OFFSETS: u32 = 11;
    /// Corpus: posting term ids, `u32` (column of the flattened docs).
    pub const CORPUS_DOC_TERMS: u32 = 12;
    /// Corpus: posting frequencies, `u32`.
    pub const CORPUS_DOC_FREQS: u32 = 13;
    /// Corpus: posting impacts (Eq. 2/3), `f64` bit patterns.
    pub const CORPUS_DOC_IMPACTS: u32 = 14;

    /// Vocabulary: byte offsets of each term string, `u32`, length
    /// = terms + 1.
    pub const VOCAB_OFFSETS: u32 = 20;
    /// Vocabulary: concatenated UTF-8 term bytes.
    pub const VOCAB_BYTES: u32 = 21;

    /// Index scalars, `u64`: `[rho, term_slots, nvd_terms, small_terms,
    /// list_max]`, where `list_max` is the effective list threshold.
    pub const INDEX_META: u32 = 30;
    /// Per-term-slot kind byte: 0 = absent, 1 = object list only, 2 =
    /// object list and NVD.
    pub const INDEX_TERM_KINDS: u32 = 31;
    // 32–35 held the list keywords' lengths, objects, vertices and
    // liveness flags up to version 4: retired, never reused.

    /// NVD scalars, `u64`, 4 per NVD term — its Morton space: `[min_x
    /// (i32 bits), min_y (i32 bits), scale_x_bits, scale_y_bits]`.
    pub const NVD_SCALARS: u32 = 36;
    /// NVD pooled-array lengths, `u32`, 5 per NVD term: `[starts,
    /// cand_offsets, cands, generators, adjacency_edges]`.
    pub const NVD_LENS: u32 = 37;
    /// NVD pooled Morton-list leaf starts, `u32`.
    pub const NVD_STARTS: u32 = 38;
    /// NVD pooled per-leaf candidate offsets, `u32`.
    pub const NVD_CAND_OFFSETS: u32 = 39;
    /// NVD pooled leaf candidate generator indices, `u32`.
    pub const NVD_CANDS: u32 = 40;
    // 41 held the NVD generators' vertices up to version 4: retired,
    // never reused.
    /// NVD pooled per-generator max cell radii, `u32`.
    pub const NVD_MAX_RADIUS: u32 = 42;
    /// NVD pooled adjacency CSR offsets (per term, rebased to 0, one node
    /// per keyword object), `u32`.
    pub const NVD_ADJ_OFFSETS: u32 = 43;
    /// NVD pooled adjacency CSR neighbor lists, `u32`.
    pub const NVD_ADJ_DATA: u32 = 44;
    // 45 held the NVD deletion flags up to version 4, 46 and 47 the
    // attached-overlay lists up to version 3, 48 the inserted objects'
    // vertices and 49 the corpus object ids up to version 4: retired,
    // never reused.
    /// Per present keyword (kind 1 or 2) its object count, `u32`.
    pub const KEYWORD_LENS: u32 = 50;
    /// Pooled keyword object tables: corpus object ids by local id, `u32`.
    pub const KEYWORD_OBJECTS: u32 = 51;
    /// Pooled keyword deletion flags (§6.2), bytes 0/1, one per object.
    pub const KEYWORD_DELETED: u32 = 52;

    /// ALT landmark vertex ids, `u32`.
    pub const ALT_LANDMARKS: u32 = 60;
    /// ALT distance table, vertex-major `[vertex][landmark]`, `u32`.
    pub const ALT_DIST: u32 = 61;

    /// CH scalars, `u64`: `[num_shortcuts]`.
    pub const CH_META: u32 = 70;
    /// CH contraction ranks, `u32`, one per vertex.
    pub const CH_RANK: u32 = 71;
    /// CH upward-graph CSR offsets, `u32`, length `n + 1`.
    pub const CH_UP_OFFSETS: u32 = 72;
    /// CH upward-graph edge targets, `u32`.
    pub const CH_UP_TARGETS: u32 = 73;
    /// CH upward-graph edge weights, `u32`.
    pub const CH_UP_WEIGHTS: u32 = 74;

    // 80–86 held a G-tree partition hierarchy (parent, child offsets,
    // child data, depth, leaf-vertex offsets, leaf-vertex data, leaf of
    // each vertex): retired, never reused.
    // 90 held a vertex renumbering's visit order: retired, never reused.
}

/// Human-readable name of a section id (for error messages and the CLI
/// metadata listing). Unknown ids render as `"unknown"`.
pub fn section_name(id: u32) -> &'static str {
    use section::*;
    match id {
        GRAPH_OFFSETS => "graph.offsets",
        GRAPH_TARGETS => "graph.targets",
        GRAPH_WEIGHTS => "graph.weights",
        GRAPH_COORDS => "graph.coords",
        CORPUS_VERTEX_OF => "corpus.vertex_of",
        CORPUS_DOC_OFFSETS => "corpus.doc_offsets",
        CORPUS_DOC_TERMS => "corpus.doc_terms",
        CORPUS_DOC_FREQS => "corpus.doc_freqs",
        CORPUS_DOC_IMPACTS => "corpus.doc_impacts",
        VOCAB_OFFSETS => "vocab.offsets",
        VOCAB_BYTES => "vocab.bytes",
        INDEX_META => "index.meta",
        INDEX_TERM_KINDS => "index.term_kinds",
        NVD_SCALARS => "nvd.scalars",
        NVD_LENS => "nvd.lens",
        NVD_STARTS => "nvd.starts",
        NVD_CAND_OFFSETS => "nvd.cand_offsets",
        NVD_CANDS => "nvd.cands",
        NVD_MAX_RADIUS => "nvd.max_radius",
        NVD_ADJ_OFFSETS => "nvd.adj_offsets",
        NVD_ADJ_DATA => "nvd.adj_data",
        KEYWORD_LENS => "keyword.lens",
        KEYWORD_OBJECTS => "keyword.objects",
        KEYWORD_DELETED => "keyword.deleted",
        ALT_LANDMARKS => "alt.landmarks",
        ALT_DIST => "alt.dist",
        CH_META => "ch.meta",
        CH_RANK => "ch.rank",
        CH_UP_OFFSETS => "ch.up_offsets",
        CH_UP_TARGETS => "ch.up_targets",
        CH_UP_WEIGHTS => "ch.up_weights",
        _ => "unknown",
    }
}
