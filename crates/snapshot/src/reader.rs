//! Fail-closed snapshot validation and section access.
//!
//! [`SnapshotFile::validate`] is the single entry point through which
//! untrusted bytes become a readable snapshot. It is written to be
//! **panic-free and allocation-free** — only `get`-based slicing, checked
//! arithmetic and iterator folds; no indexing, no asserts, no unchecked
//! division (the crate root denies the lints for each) — because a corrupt
//! or adversarial file must yield a structured [`SnapshotError`], never a
//! panic, before any copying begins. `tests/load_allocations.rs` counts
//! its allocations: none, on a fresh file and on a corrupt one.

#![deny(clippy::as_conversions)]

use crate::error::{FormatError, SectionLabel, SnapshotError};
use crate::format::{
    elem_size, ENDIAN_TAG, FORMAT_VERSION, HEADER_LEN, HEADER_SEED, MAGIC, TABLE_ENTRY_LEN,
};
use crate::hash::xxh64;

/// Little-endian `u32` at byte offset `off`, if in bounds.
#[inline]
fn read_u32(data: &[u8], off: usize) -> Option<u32> {
    let bytes = data.get(off..off.checked_add(4)?)?;
    Some(
        bytes
            .iter()
            .rev()
            .fold(0u32, |acc, &b| (acc << 8) | u32::from(b)),
    )
}

/// Little-endian `u64` at byte offset `off`, if in bounds.
#[inline]
fn read_u64(data: &[u8], off: usize) -> Option<u64> {
    let bytes = data.get(off..off.checked_add(8)?)?;
    Some(
        bytes
            .iter()
            .rev()
            .fold(0u64, |acc, &b| (acc << 8) | u64::from(b)),
    )
}

/// One parsed 32-byte section-table entry.
#[derive(Debug, Clone, Copy)]
struct RawEntry {
    id: u32,
    kind: u32,
    offset: u64,
    count: u64,
    checksum: u64,
}

fn entry(data: &[u8], i: u32) -> Option<RawEntry> {
    #[expect(clippy::as_conversions, reason = "lossless u32 → usize widening")]
    let base = HEADER_LEN.checked_add((i as usize).checked_mul(TABLE_ENTRY_LEN)?)?;
    Some(RawEntry {
        id: read_u32(data, base)?,
        kind: read_u32(data, base.checked_add(4)?)?,
        offset: read_u64(data, base.checked_add(8)?)?,
        count: read_u64(data, base.checked_add(16)?)?,
        checksum: read_u64(data, base.checked_add(24)?)?,
    })
}

/// A borrowed view of one validated section.
#[derive(Debug, Clone, Copy)]
pub struct SectionView<'a> {
    /// Section id from the registry in [`crate::format::section`].
    pub id: u32,
    /// Element kind (`KIND_U32` / `KIND_U64` / `KIND_F64` / `KIND_BYTES`).
    pub kind: u32,
    /// Element count.
    pub count: u64,
    /// The raw payload bytes (padding excluded).
    pub payload: &'a [u8],
}

/// A fully validated snapshot buffer: every checksum verified, every
/// offset in bounds, the canonical layout confirmed. Section lookups
/// after validation cannot fail structurally.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotFile<'a> {
    data: &'a [u8],
    num_sections: u32,
}

impl<'a> SnapshotFile<'a> {
    /// Validates `data` as a snapshot: magic, version, endianness tag,
    /// stated length, header/table checksum, then — in file order — each
    /// section's id ordering, element kind, canonical offset, zero
    /// padding and payload checksum. Every byte of the file is covered by
    /// exactly one of these checks, so any single-byte corruption or
    /// truncation is rejected with the failing section named.
    ///
    /// # Errors
    /// A [`SnapshotError::Format`] naming the header, the table or the
    /// first failing section. Never panics, never allocates.
    pub fn validate(data: &'a [u8]) -> Result<SnapshotFile<'a>, SnapshotError> {
        const HDR: SectionLabel = SectionLabel::Header;
        const TBL: SectionLabel = SectionLabel::Table;
        if data.len() < HEADER_LEN {
            return Err(SnapshotError::format(HDR, FormatError::Truncated));
        }
        if data.get(..8) != Some(MAGIC.as_slice()) {
            return Err(SnapshotError::format(HDR, FormatError::BadMagic));
        }
        let truncated = || SnapshotError::format(HDR, FormatError::Truncated);
        let version = read_u32(data, 8).ok_or_else(truncated)?;
        if version != FORMAT_VERSION {
            return Err(SnapshotError::format(HDR, FormatError::BadVersion(version)));
        }
        let endian = read_u32(data, 12).ok_or_else(truncated)?;
        if endian != ENDIAN_TAG {
            return Err(SnapshotError::format(HDR, FormatError::BadEndian(endian)));
        }
        let num_sections = read_u32(data, 16).ok_or_else(truncated)?;
        if read_u32(data, 20).ok_or_else(truncated)? != 0 {
            return Err(SnapshotError::format(HDR, FormatError::BadReserved));
        }
        let file_len = read_u64(data, 24).ok_or_else(truncated)?;
        #[expect(clippy::as_conversions, reason = "lossless usize → u64 widening")]
        if file_len != data.len() as u64 {
            return Err(SnapshotError::format(HDR, FormatError::LengthMismatch));
        }
        let stored_sum = read_u64(data, 32).ok_or_else(truncated)?;

        let overflow = || SnapshotError::format(TBL, FormatError::CountOverflow);
        #[expect(
            clippy::as_conversions,
            reason = "lossless widening of a small layout constant"
        )]
        let table_len = u64::from(num_sections)
            .checked_mul(TABLE_ENTRY_LEN as u64)
            .ok_or_else(overflow)?;
        #[expect(
            clippy::as_conversions,
            reason = "lossless widening of a small layout constant"
        )]
        let table_end = (HEADER_LEN as u64)
            .checked_add(table_len)
            .ok_or_else(overflow)?;
        if table_end > file_len {
            return Err(SnapshotError::format(TBL, FormatError::Truncated));
        }
        let head = data.get(..32).ok_or_else(truncated)?;
        #[expect(
            clippy::as_conversions,
            reason = "table_end ≤ file_len == data.len(), which fits usize by construction"
        )]
        let table = data
            .get(HEADER_LEN..table_end as usize)
            .ok_or_else(|| SnapshotError::format(TBL, FormatError::Truncated))?;
        if xxh64(table, xxh64(head, HEADER_SEED)) != stored_sum {
            return Err(SnapshotError::format(HDR, FormatError::HeaderChecksum));
        }

        let mut prev_id: Option<u32> = None;
        let mut cursor = table_end;
        let mut i = 0u32;
        while i < num_sections {
            let e =
                entry(data, i).ok_or_else(|| SnapshotError::format(TBL, FormatError::Truncated))?;
            let at = SectionLabel::Section(e.id);
            if prev_id.is_some_and(|p| e.id <= p) {
                return Err(SnapshotError::format(TBL, FormatError::UnsortedSections));
            }
            prev_id = Some(e.id);
            let elem =
                elem_size(e.kind).ok_or_else(|| SnapshotError::format(at, FormatError::BadKind))?;
            if e.offset != cursor {
                return Err(SnapshotError::format(at, FormatError::BadOffset));
            }
            let sec_overflow = || SnapshotError::format(at, FormatError::CountOverflow);
            let payload_len = e.count.checked_mul(elem).ok_or_else(sec_overflow)?;
            let padded = payload_len
                .checked_add(7)
                .map(|x| x & !7u64)
                .ok_or_else(sec_overflow)?;
            let end = e.offset.checked_add(padded).ok_or_else(sec_overflow)?;
            if end > file_len {
                return Err(SnapshotError::format(at, FormatError::Truncated));
            }
            let sec_truncated = || SnapshotError::format(at, FormatError::Truncated);
            #[expect(
                clippy::as_conversions,
                reason = "offset == cursor and end ≤ file_len == data.len() (checked above), \
                          both fit usize"
            )]
            let range = data
                .get(e.offset as usize..end as usize)
                .ok_or_else(sec_truncated)?;
            #[expect(
                clippy::as_conversions,
                reason = "payload_len ≤ padded == range length, which fits usize"
            )]
            let pad = range
                .get(payload_len as usize..)
                .ok_or_else(sec_truncated)?;
            if pad.iter().any(|&b| b != 0) {
                return Err(SnapshotError::format(at, FormatError::NonZeroPadding));
            }
            if xxh64(range, u64::from(e.id)) != e.checksum {
                return Err(SnapshotError::format(at, FormatError::SectionChecksum));
            }
            cursor = end;
            i = i.wrapping_add(1);
        }
        if cursor != file_len {
            return Err(SnapshotError::format(HDR, FormatError::LengthMismatch));
        }
        Ok(SnapshotFile { data, num_sections })
    }

    /// Format version of the validated file.
    pub fn version(&self) -> u32 {
        read_u32(self.data, 8).unwrap_or(0)
    }

    /// Number of sections in the validated file.
    pub fn num_sections(&self) -> u32 {
        self.num_sections
    }

    /// Total file length in bytes.
    pub fn len_bytes(&self) -> usize {
        self.data.len()
    }

    /// The section at table position `i`, if any.
    #[expect(
        clippy::as_conversions,
        reason = "validation proved every section's offset..end ⊆ 0..data.len(), which fits \
                  usize; an out-of-range cast would have failed validate()"
    )]
    pub fn section_at(&self, i: u32) -> Option<SectionView<'a>> {
        if i >= self.num_sections {
            return None;
        }
        let e = entry(self.data, i)?;
        let payload_len = e.count.checked_mul(elem_size(e.kind)?)?;
        let end = e.offset.checked_add(payload_len)?;
        Some(SectionView {
            id: e.id,
            kind: e.kind,
            count: e.count,
            payload: self.data.get(e.offset as usize..end as usize)?,
        })
    }

    /// The section with registry id `id`, if present.
    pub fn section(&self, id: u32) -> Option<SectionView<'a>> {
        let mut i = 0u32;
        while i < self.num_sections {
            if let Some(e) = entry(self.data, i) {
                if e.id == id {
                    return self.section_at(i);
                }
            }
            i = i.wrapping_add(1);
        }
        None
    }

    /// Whether a section with registry id `id` is present.
    pub fn has(&self, id: u32) -> bool {
        self.section(id).is_some()
    }

    /// Iterates all sections in file order.
    pub fn sections(&self) -> impl Iterator<Item = SectionView<'a>> + '_ {
        (0..self.num_sections).filter_map(move |i| self.section_at(i))
    }
}
