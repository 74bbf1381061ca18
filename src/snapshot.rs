//! Full-system snapshots: one flat binary file holding an entire K-SPIN
//! deployment, loadable in milliseconds.
//!
//! [`KspinSystem::save_snapshot`] serializes the graph, corpus,
//! vocabulary, Keyword Separated Index and ALT tables — plus the
//! optional CH upward graph handed over in [`SnapshotExtras`] — into
//! the canonical section layout of [`kspin_core::snapshot`].
//! [`KspinSystem::load_snapshot`] validates the bytes fail-closed
//! (checksums first, then every structural invariant through the
//! crates' own `from_*_parts` constructors) and reassembles a system
//! that serves *bit-identically* to the one that was saved — no
//! rebuild, no re-derivation of impact scores, no NVD sweeps.
//!
//! Serialization is canonical: save → load → save is byte-identical,
//! and a logically equal system always produces the same bytes. Both
//! properties are test-enforced (`tests/snapshot_roundtrip.rs`).

#![deny(
    clippy::as_conversions,
    clippy::arithmetic_side_effects,
    clippy::indexing_slicing
)]

use crate::KspinSystem;
use kspin_ch::ContractionHierarchy;
use kspin_core::snapshot::format::section;
use kspin_core::snapshot::{
    decode_alt, decode_ch, decode_corpus, decode_graph, decode_index, encode_alt, encode_ch,
    encode_corpus, encode_graph, encode_index, format, SnapshotError, SnapshotFile, SnapshotWriter,
};
use kspin_text::{VocabError, Vocabulary};

pub use kspin_core::snapshot::{FormatError, SectionLabel, SectionView};

/// Optional acceleration structures that ride along in a snapshot.
///
/// The core system (graph, corpus, vocabulary, index, ALT) is always
/// present; the CH is saved only when provided and decodes to `None`
/// when its sections are absent.
#[derive(Default)]
pub struct SnapshotExtras {
    /// Contraction hierarchy: node order + upward adjacency.
    pub ch: Option<ContractionHierarchy>,
}

impl std::fmt::Debug for SnapshotExtras {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotExtras")
            .field("ch", &self.ch.is_some())
            .finish()
    }
}

/// Appends the vocabulary: its offset table and its pooled UTF-8 bytes.
pub fn encode_vocab(w: &mut SnapshotWriter, v: &Vocabulary) {
    let (offsets, text) = v.flat_parts();
    w.put_u32s(section::VOCAB_OFFSETS, offsets);
    w.put_bytes(section::VOCAB_BYTES, text.as_bytes());
}

/// Reassembles the vocabulary through [`Vocabulary::from_parts`].
///
/// # Errors
/// Missing/mistyped sections, malformed offsets, non-UTF-8 term bytes,
/// or duplicate terms.
pub fn decode_vocab(f: &SnapshotFile<'_>) -> Result<Vocabulary, SnapshotError> {
    let offsets = f.u32s(section::VOCAB_OFFSETS)?;
    let bytes = f.bytes(section::VOCAB_BYTES)?;
    Vocabulary::from_parts(offsets, bytes).map_err(|e| match e {
        VocabError::Offsets(e) => SnapshotError::decode(section::VOCAB_OFFSETS, e),
        VocabError::Text(e) => SnapshotError::decode(section::VOCAB_BYTES, e),
    })
}

impl KspinSystem {
    /// Serializes the whole deployment (plus `extras`) into the canonical
    /// snapshot byte layout. The result validates, round-trips through
    /// [`KspinSystem::load_snapshot`] bit-identically, and re-saves to the
    /// same bytes.
    pub fn save_snapshot(&self, extras: &SnapshotExtras) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        encode_graph(&mut w, &self.graph);
        encode_corpus(&mut w, &self.corpus);
        encode_vocab(&mut w, &self.vocab);
        encode_index(&mut w, &self.index);
        encode_alt(&mut w, &self.alt);
        if let Some(ch) = &extras.ch {
            encode_ch(&mut w, ch);
        }
        w.finish()
    }

    /// Validates `bytes` fail-closed and reassembles the deployment.
    ///
    /// Checksums are verified before any decoding, then every structure
    /// passes through its crate's validating constructor, so corrupt or
    /// adversarial input yields a structured [`SnapshotError`] naming the
    /// failing section — never a panic, never a partially-initialized
    /// system. The reloaded system serves bit-identically to the saved
    /// one (test-enforced).
    ///
    /// # Errors
    /// [`SnapshotError::Format`] for framing/checksum violations;
    /// [`SnapshotError::Decode`] for structural ones.
    pub fn load_snapshot(bytes: &[u8]) -> Result<(KspinSystem, SnapshotExtras), SnapshotError> {
        Self::decode_snapshot(&SnapshotFile::validate(bytes)?)
    }

    /// Reassembles the deployment from a file whose checksums
    /// [`SnapshotFile::validate`] has verified: the decoding half of
    /// [`KspinSystem::load_snapshot`], for a caller that also reads the
    /// file's header and section table.
    ///
    /// # Errors
    /// [`SnapshotError::Decode`] for structural violations, or a
    /// [`SnapshotError::Format`] for a required section that is missing or
    /// mistyped.
    pub fn decode_snapshot(
        f: &SnapshotFile<'_>,
    ) -> Result<(KspinSystem, SnapshotExtras), SnapshotError> {
        let graph = decode_graph(f)?;
        let corpus = decode_corpus(f, graph.num_vertices())?;
        let vocab = decode_vocab(f)?;
        let index = decode_index(f, &corpus)?;
        let alt = decode_alt(f, graph.num_vertices())?;
        let extras = SnapshotExtras {
            ch: decode_ch(f, &graph)?,
        };
        Ok((
            KspinSystem {
                graph,
                corpus,
                vocab,
                alt,
                index,
            },
            extras,
        ))
    }
}

/// One formatted line per section: id, name, kind, element count and
/// payload bytes — the CLI's `snapshot load` metadata listing.
pub fn describe_sections(f: &SnapshotFile<'_>) -> Vec<String> {
    (0..f.num_sections())
        .filter_map(|i| f.section_at(i))
        .map(|s| {
            let kind = match s.kind {
                format::KIND_U32 => "u32",
                format::KIND_U64 => "u64",
                format::KIND_F64 => "f64",
                format::KIND_BYTES => "bytes",
                _ => "?",
            };
            format!(
                "  [{:>2}] {:<20} {:<5} {:>12} elems {:>14} bytes",
                s.id,
                format::section_name(s.id),
                kind,
                s.count,
                s.payload.len()
            )
        })
        .collect()
}
