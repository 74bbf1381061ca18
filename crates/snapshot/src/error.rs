//! Structured snapshot errors that name the failing section.
//!
//! Two layers map onto the two loading phases:
//!
//! * [`SnapshotError::Format`] — the byte-level validator rejected the
//!   file (bad magic, checksum mismatch, truncation, …). Carries only
//!   `Copy` data so the panic-free validator constructs it without
//!   allocating.
//! * [`SnapshotError::Decode`] — the bytes were well-formed but a decoded
//!   structure violated a semantic invariant (non-monotone offsets, an id
//!   out of range, a failed permutation check). Constructed outside
//!   `SnapshotFile::validate`, which allocates nothing, so it may carry a
//!   detail string.

#![deny(clippy::as_conversions)]

use crate::format::section_name;
use std::fmt;

/// Where in the file a failure was detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionLabel {
    /// The fixed 40-byte header.
    Header,
    /// The section table.
    Table,
    /// A specific section, by registry id.
    Section(u32),
}

impl fmt::Display for SectionLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SectionLabel::Header => f.write_str("header"),
            SectionLabel::Table => f.write_str("section table"),
            SectionLabel::Section(id) => {
                write!(f, "section {} ({})", id, section_name(id))
            }
        }
    }
}

/// Byte-level reasons the validator rejects a file. `Copy`, so the
/// alloc-free validator can construct one on any exit path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FormatError {
    /// The file ends before the addressed range does.
    Truncated,
    /// The first 8 bytes are not the snapshot magic.
    BadMagic,
    /// Unknown format version.
    BadVersion(u32),
    /// Endianness tag mismatch (file written on an incompatible layout).
    BadEndian(u32),
    /// The reserved header field is non-zero.
    BadReserved,
    /// The stored file length disagrees with the buffer length
    /// (truncation or trailing bytes).
    LengthMismatch,
    /// The header/table checksum did not match.
    HeaderChecksum,
    /// A table entry carries an unknown element kind.
    BadKind,
    /// Section ids are not strictly ascending.
    UnsortedSections,
    /// A section does not start where the previous one ended (the
    /// canonical layout admits no gaps or overlaps).
    BadOffset,
    /// `count × elem_size` overflows.
    CountOverflow,
    /// Padding bytes between sections are not zero.
    NonZeroPadding,
    /// A section checksum did not match.
    SectionChecksum,
    /// A section the decoder requires is absent.
    Missing,
    /// A section is present but with the wrong element kind.
    WrongKind,
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FormatError::Truncated => f.write_str("truncated"),
            FormatError::BadMagic => f.write_str("bad magic"),
            FormatError::BadVersion(v) => write!(f, "unknown format version {v}"),
            FormatError::BadEndian(v) => write!(f, "endianness tag mismatch ({v:#010x})"),
            FormatError::BadReserved => f.write_str("reserved header field non-zero"),
            FormatError::LengthMismatch => f.write_str("stored length disagrees with file size"),
            FormatError::HeaderChecksum => f.write_str("header/table checksum mismatch"),
            FormatError::BadKind => f.write_str("unknown element kind"),
            FormatError::UnsortedSections => f.write_str("section ids not strictly ascending"),
            FormatError::BadOffset => f.write_str("section offset breaks the canonical layout"),
            FormatError::CountOverflow => f.write_str("element count overflows"),
            FormatError::NonZeroPadding => f.write_str("non-zero padding bytes"),
            FormatError::SectionChecksum => f.write_str("section checksum mismatch"),
            FormatError::Missing => f.write_str("required section missing"),
            FormatError::WrongKind => f.write_str("section has the wrong element kind"),
        }
    }
}

/// A structured snapshot-loading error naming the failing section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte-level validator rejected the file.
    Format {
        /// Where the failure was detected.
        at: SectionLabel,
        /// Why the bytes were rejected.
        kind: FormatError,
    },
    /// A decoded structure violated a semantic invariant.
    Decode {
        /// Where the failure was detected.
        at: SectionLabel,
        /// The violated invariant.
        detail: String,
    },
}

impl SnapshotError {
    /// A format-layer error at `at`.
    #[inline]
    pub fn format(at: SectionLabel, kind: FormatError) -> Self {
        SnapshotError::Format { at, kind }
    }

    /// A decode-layer error for section `id`.
    pub fn decode(id: u32, detail: impl Into<String>) -> Self {
        SnapshotError::Decode {
            at: SectionLabel::Section(id),
            detail: detail.into(),
        }
    }

    /// The location this error names.
    pub fn at(&self) -> SectionLabel {
        match *self {
            SnapshotError::Format { at, .. } => at,
            SnapshotError::Decode { at, .. } => at,
        }
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Format { at, kind } => write!(f, "snapshot {at}: {kind}"),
            SnapshotError::Decode { at, detail } => write!(f, "snapshot {at}: {detail}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::section;

    #[test]
    fn errors_name_the_failing_section() {
        let e = SnapshotError::format(
            SectionLabel::Section(section::ALT_DIST),
            FormatError::SectionChecksum,
        );
        let msg = e.to_string();
        assert!(msg.contains("alt.dist"), "{msg}");
        assert!(msg.contains("checksum"), "{msg}");
    }

    #[test]
    fn decode_errors_carry_detail() {
        let e = SnapshotError::decode(section::GRAPH_OFFSETS, "offsets not monotone");
        let msg = e.to_string();
        assert!(msg.contains("graph.offsets"), "{msg}");
        assert!(msg.contains("monotone"), "{msg}");
        assert_eq!(e.at(), SectionLabel::Section(section::GRAPH_OFFSETS));
    }
}
