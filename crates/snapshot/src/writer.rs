//! The canonical snapshot writer.
//!
//! [`SnapshotWriter`] accumulates typed sections and emits the one
//! conforming byte layout for them: header, strictly-ascending section
//! table, contiguous 8-aligned payloads with zero padding, checksums over
//! exactly the ranges the validator re-hashes. There are no layout
//! degrees of freedom, which is what makes save → load → save
//! byte-identical.
//!
//! The writer is build/persist-time code, not a serving path: misuse
//! (non-ascending ids) is a programmer error and panics.

#![expect(
    clippy::arithmetic_side_effects,
    clippy::indexing_slicing,
    reason = "encode half: offsets and lengths of trusted in-memory sections"
)]

use crate::format::{
    ENDIAN_TAG, FORMAT_VERSION, HEADER_LEN, HEADER_SEED, KIND_BYTES, KIND_F64, KIND_U32, KIND_U64,
    MAGIC, TABLE_ENTRY_LEN,
};
use crate::hash::xxh64;

struct PendingSection {
    id: u32,
    kind: u32,
    count: u64,
    payload: Vec<u8>,
}

/// Accumulates sections and serializes them canonically.
#[derive(Default)]
pub struct SnapshotWriter {
    sections: Vec<PendingSection>,
}

impl std::fmt::Debug for SnapshotWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SnapshotWriter({} sections)", self.sections.len())
    }
}

impl SnapshotWriter {
    /// An empty writer.
    pub fn new() -> Self {
        SnapshotWriter::default()
    }

    fn append_section(&mut self, id: u32, kind: u32, count: u64, payload: Vec<u8>) {
        if let Some(last) = self.sections.last() {
            // A write-time programmer-error guard: the writer is
            // build/persist code, never on the untrusted-input load path.
            assert!(
                id > last.id,
                "sections must be written in strictly ascending id order ({id} after {})",
                last.id
            );
        }
        self.sections.push(PendingSection {
            id,
            kind,
            count,
            payload,
        });
    }

    /// Appends a `u32` array section.
    pub fn put_u32s(&mut self, id: u32, values: &[u32]) {
        let mut payload = Vec::with_capacity(values.len() * 4);
        for v in values {
            payload.extend_from_slice(&v.to_le_bytes());
        }
        self.append_section(id, KIND_U32, values.len() as u64, payload);
    }

    /// Appends a `u64` array section.
    pub fn put_u64s(&mut self, id: u32, values: &[u64]) {
        let mut payload = Vec::with_capacity(values.len() * 8);
        for v in values {
            payload.extend_from_slice(&v.to_le_bytes());
        }
        self.append_section(id, KIND_U64, values.len() as u64, payload);
    }

    /// Appends an `f64` array section (IEEE-754 bit patterns).
    pub fn put_f64s(&mut self, id: u32, values: &[f64]) {
        let mut payload = Vec::with_capacity(values.len() * 8);
        for v in values {
            payload.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        self.append_section(id, KIND_F64, values.len() as u64, payload);
    }

    /// Appends a raw byte section.
    pub fn put_bytes(&mut self, id: u32, values: &[u8]) {
        self.append_section(id, KIND_BYTES, values.len() as u64, values.to_vec());
    }

    /// Serializes all sections into the canonical snapshot byte layout.
    pub fn finish(self) -> Vec<u8> {
        let table_end = HEADER_LEN + self.sections.len() * TABLE_ENTRY_LEN;
        let mut out = Vec::new();

        // Header (checksum patched below).
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&ENDIAN_TAG.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        out.extend_from_slice(&0u64.to_le_bytes()); // file length, patched
        out.extend_from_slice(&0u64.to_le_bytes()); // header checksum, patched

        // Table placeholder, then payloads with zero padding.
        out.resize(table_end, 0);
        let mut entries = Vec::with_capacity(self.sections.len());
        for s in &self.sections {
            let offset = out.len() as u64;
            out.extend_from_slice(&s.payload);
            let padded = out.len().next_multiple_of(8);
            out.resize(padded, 0);
            let checksum = xxh64(&out[offset as usize..], u64::from(s.id));
            entries.push((s.id, s.kind, offset, s.count, checksum));
        }

        // Patch the table and the file length, then the header checksum
        // over bytes 0..32 plus the table (the ranges the validator hashes).
        let file_len = out.len() as u64;
        out[24..32].copy_from_slice(&file_len.to_le_bytes());
        for (i, (id, kind, offset, count, checksum)) in entries.iter().enumerate() {
            let base = HEADER_LEN + i * TABLE_ENTRY_LEN;
            out[base..base + 4].copy_from_slice(&id.to_le_bytes());
            out[base + 4..base + 8].copy_from_slice(&kind.to_le_bytes());
            out[base + 8..base + 16].copy_from_slice(&offset.to_le_bytes());
            out[base + 16..base + 24].copy_from_slice(&count.to_le_bytes());
            out[base + 24..base + 32].copy_from_slice(&checksum.to_le_bytes());
        }
        let head_sum = xxh64(&out[40..table_end], xxh64(&out[..32], HEADER_SEED));
        out[32..40].copy_from_slice(&head_sum.to_le_bytes());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::{FormatError, SectionLabel, SnapshotError};
    use crate::format::section;
    use crate::reader::SnapshotFile;

    fn sample() -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.put_u32s(section::GRAPH_OFFSETS, &[0, 2, 5, 9]);
        w.put_u32s(section::GRAPH_TARGETS, &[1, 2, 3]);
        w.put_f64s(section::CORPUS_DOC_IMPACTS, &[0.5, 1.25, -3.0]);
        w.put_u64s(section::INDEX_META, &[7, 42]);
        w.put_bytes(section::INDEX_TERM_KINDS, &[0, 1, 2, 1, 0]);
        w.finish()
    }

    #[test]
    fn writer_output_validates_and_reads_back() {
        let bytes = sample();
        let f = SnapshotFile::validate(&bytes).expect("writer output must validate");
        assert_eq!(f.num_sections(), 5);
        let s = f.section(section::GRAPH_OFFSETS).unwrap();
        assert_eq!(s.count, 4);
        assert!(f.has(section::INDEX_META));
        assert!(!f.has(section::ALT_DIST));
    }

    #[test]
    fn empty_snapshot_is_valid() {
        let bytes = SnapshotWriter::new().finish();
        let f = SnapshotFile::validate(&bytes).expect("empty snapshot");
        assert_eq!(f.num_sections(), 0);
        assert_eq!(f.len_bytes(), HEADER_LEN);
    }

    #[test]
    fn serialization_is_deterministic() {
        assert_eq!(sample(), sample());
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn non_ascending_ids_are_rejected_at_write_time() {
        let mut w = SnapshotWriter::new();
        w.put_u32s(section::GRAPH_TARGETS, &[1]);
        w.put_u32s(section::GRAPH_OFFSETS, &[0]);
    }

    #[test]
    fn truncation_is_detected_everywhere() {
        let bytes = sample();
        for len in 0..bytes.len() {
            let e = SnapshotFile::validate(&bytes[..len]).expect_err("truncated file accepted");
            assert!(matches!(e, SnapshotError::Format { .. }));
        }
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let bytes = sample();
        for i in 0..bytes.len() {
            for flip in [0x01u8, 0x80] {
                let mut b = bytes.clone();
                b[i] ^= flip;
                assert!(
                    SnapshotFile::validate(&b).is_err(),
                    "flip {flip:#04x} at byte {i} went unnoticed"
                );
            }
        }
    }

    #[test]
    fn payload_corruption_names_the_section() {
        let bytes = sample();
        let f = SnapshotFile::validate(&bytes).unwrap();
        let s = f.section(section::GRAPH_TARGETS).unwrap();
        let off = s.payload.as_ptr() as usize - bytes.as_ptr() as usize;
        let mut b = bytes.clone();
        b[off] ^= 0xFF;
        let e = SnapshotFile::validate(&b).expect_err("corrupt payload accepted");
        assert_eq!(e.at(), SectionLabel::Section(section::GRAPH_TARGETS));
        assert!(matches!(
            e,
            SnapshotError::Format {
                kind: FormatError::SectionChecksum,
                ..
            }
        ));
    }

    #[test]
    fn bad_magic_version_and_endian_are_rejected() {
        let good = sample();
        let mut b = good.clone();
        b[0] = b'X';
        assert!(SnapshotFile::validate(&b).is_err());
        // An unknown future version and the retired v1 to v4.
        for version in [99u8, 1, 2, 3, 4] {
            let mut b = good.clone();
            b[8] = version;
            assert!(matches!(
                SnapshotFile::validate(&b).unwrap_err(),
                SnapshotError::Format {
                    kind: FormatError::BadVersion(v),
                    ..
                } if v == u32::from(version)
            ));
        }
        let mut b = good;
        b[12] ^= 0xFF; // endian tag
        assert!(matches!(
            SnapshotFile::validate(&b).unwrap_err(),
            SnapshotError::Format {
                kind: FormatError::BadEndian(_),
                ..
            }
        ));
    }
}
