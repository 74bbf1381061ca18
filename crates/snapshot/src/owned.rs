//! Typed copy-out.
//!
//! After [`SnapshotFile::validate`] succeeds, loading is a sequence of
//! typed copies: each accessor checks the section's element kind and
//! copies the payload into a pre-sized `Vec`.
//!
//! These methods allocate (they produce owned `Vec`s), so they live
//! outside the alloc-free validation path in `reader.rs`.

#![deny(clippy::as_conversions)]

use crate::error::{FormatError, SectionLabel, SnapshotError};
use crate::format::{KIND_BYTES, KIND_F64, KIND_U32, KIND_U64};
use crate::reader::{SectionView, SnapshotFile};

fn le_u32(b: &[u8]) -> u32 {
    b.iter()
        .rev()
        .fold(0u32, |acc, &x| (acc << 8) | u32::from(x))
}

fn le_u64(b: &[u8]) -> u64 {
    b.iter()
        .rev()
        .fold(0u64, |acc, &x| (acc << 8) | u64::from(x))
}

impl<'a> SnapshotFile<'a> {
    fn typed(&self, id: u32, kind: u32) -> Result<SectionView<'a>, SnapshotError> {
        let s = self.section(id).ok_or(SnapshotError::format(
            SectionLabel::Section(id),
            FormatError::Missing,
        ))?;
        if s.kind != kind {
            return Err(SnapshotError::format(
                SectionLabel::Section(id),
                FormatError::WrongKind,
            ));
        }
        Ok(s)
    }

    /// Copies a `u32` section out into an owned, pre-sized `Vec`.
    ///
    /// # Errors
    /// [`FormatError::Missing`] / [`FormatError::WrongKind`] for `id`.
    pub fn u32s(&self, id: u32) -> Result<Vec<u32>, SnapshotError> {
        let s = self.typed(id, KIND_U32)?;
        Ok(s.payload.chunks_exact(4).map(le_u32).collect())
    }

    /// Copies a `u64` section out into an owned, pre-sized `Vec`.
    ///
    /// # Errors
    /// [`FormatError::Missing`] / [`FormatError::WrongKind`] for `id`.
    pub fn u64s(&self, id: u32) -> Result<Vec<u64>, SnapshotError> {
        let s = self.typed(id, KIND_U64)?;
        Ok(s.payload.chunks_exact(8).map(le_u64).collect())
    }

    /// Copies an `f64` section out into an owned, pre-sized `Vec`. Bit
    /// patterns are preserved exactly (no parsing, no rounding).
    ///
    /// # Errors
    /// [`FormatError::Missing`] / [`FormatError::WrongKind`] for `id`.
    pub fn f64s(&self, id: u32) -> Result<Vec<f64>, SnapshotError> {
        let s = self.typed(id, KIND_F64)?;
        Ok(s.payload
            .chunks_exact(8)
            .map(|b| f64::from_bits(le_u64(b)))
            .collect())
    }

    /// Borrows a byte section's payload.
    ///
    /// # Errors
    /// [`FormatError::Missing`] / [`FormatError::WrongKind`] for `id`.
    pub fn bytes(&self, id: u32) -> Result<&'a [u8], SnapshotError> {
        Ok(self.typed(id, KIND_BYTES)?.payload)
    }
}

#[cfg(test)]
#[allow(clippy::indexing_slicing, reason = "test fixtures")]
mod tests {
    use super::*;
    use crate::format::section;
    use crate::writer::SnapshotWriter;

    #[test]
    fn typed_copy_out_roundtrips_values() {
        let mut w = SnapshotWriter::new();
        w.put_u32s(section::GRAPH_OFFSETS, &[0, 3, 2_000_000_000]);
        w.put_f64s(section::CORPUS_DOC_IMPACTS, &[0.1, -0.0, f64::MAX]);
        w.put_u64s(section::INDEX_META, &[u64::MAX, 0]);
        w.put_bytes(section::INDEX_TERM_KINDS, &[2, 0, 1]);
        let bytes = w.finish();
        let f = SnapshotFile::validate(&bytes).unwrap();
        assert_eq!(
            f.u32s(section::GRAPH_OFFSETS).unwrap(),
            vec![0, 3, 2_000_000_000]
        );
        let impacts = f.f64s(section::CORPUS_DOC_IMPACTS).unwrap();
        assert_eq!(impacts[0], 0.1);
        assert!(impacts[1] == 0.0 && impacts[1].is_sign_negative());
        assert_eq!(impacts[2], f64::MAX);
        assert_eq!(f.u64s(section::INDEX_META).unwrap(), vec![u64::MAX, 0]);
        assert_eq!(f.bytes(section::INDEX_TERM_KINDS).unwrap(), &[2, 0, 1]);
    }

    #[test]
    fn missing_and_wrong_kind_are_structured_errors() {
        let mut w = SnapshotWriter::new();
        w.put_u32s(section::GRAPH_OFFSETS, &[0]);
        let bytes = w.finish();
        let f = SnapshotFile::validate(&bytes).unwrap();
        let missing = f.u32s(section::ALT_DIST).unwrap_err();
        assert!(missing.to_string().contains("alt.dist"), "{missing}");
        let wrong = f.u64s(section::GRAPH_OFFSETS).unwrap_err();
        assert!(wrong.to_string().contains("wrong element kind"), "{wrong}");
    }
}
