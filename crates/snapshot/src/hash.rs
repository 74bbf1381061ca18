//! Hand-rolled xxHash64: the per-section checksum function.
//!
//! The workspace is offline/vendored, so the snapshot format carries its
//! own hasher: the classic xxHash64 one-shot over a byte slice. The
//! implementation is pure wrapping integer arithmetic over iterator
//! chunks — no indexing, no slicing by computed ranges, no allocation —
//! because it runs inside the panic-free, alloc-free
//! [`crate::reader::SnapshotFile::validate`] perimeter.

#![deny(clippy::as_conversions)]

const PRIME_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME_5: u64 = 0x27D4_EB2F_1656_67C5;

/// Little-endian load of at most 8 bytes (shorter slices zero-extend).
#[inline]
fn le_bytes(b: &[u8]) -> u64 {
    b.iter()
        .rev()
        .fold(0u64, |acc, &x| (acc << 8) | u64::from(x))
}

#[inline]
fn round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(PRIME_2))
        .rotate_left(31)
        .wrapping_mul(PRIME_1)
}

#[inline]
fn merge_round(h: u64, acc: u64) -> u64 {
    (h ^ round(0, acc))
        .wrapping_mul(PRIME_1)
        .wrapping_add(PRIME_4)
}

/// One-shot xxHash64 of `data` under `seed`.
///
/// Deterministic, endian-independent (inputs are read little-endian on
/// every platform) and panic-free for every input length.
pub fn xxh64(data: &[u8], seed: u64) -> u64 {
    #[expect(clippy::as_conversions, reason = "lossless usize → u64 widening")]
    let len = data.len() as u64;
    let mut h: u64;
    let mut tail = data;
    if data.len() >= 32 {
        let mut v1 = seed.wrapping_add(PRIME_1).wrapping_add(PRIME_2);
        let mut v2 = seed.wrapping_add(PRIME_2);
        let mut v3 = seed;
        let mut v4 = seed.wrapping_sub(PRIME_1);
        let mut stripes = data.chunks_exact(32);
        for stripe in stripes.by_ref() {
            let mut lanes = stripe.chunks_exact(8).map(le_bytes);
            // A 32-byte stripe always yields exactly four 8-byte lanes.
            if let (Some(a), Some(b), Some(c), Some(d)) =
                (lanes.next(), lanes.next(), lanes.next(), lanes.next())
            {
                v1 = round(v1, a);
                v2 = round(v2, b);
                v3 = round(v3, c);
                v4 = round(v4, d);
            }
        }
        tail = stripes.remainder();
        h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        h = merge_round(h, v1);
        h = merge_round(h, v2);
        h = merge_round(h, v3);
        h = merge_round(h, v4);
    } else {
        h = seed.wrapping_add(PRIME_5);
    }
    h = h.wrapping_add(len);

    let mut words = tail.chunks_exact(8);
    for w in words.by_ref() {
        h ^= round(0, le_bytes(w));
        h = h
            .rotate_left(27)
            .wrapping_mul(PRIME_1)
            .wrapping_add(PRIME_4);
    }
    let mut halves = words.remainder().chunks_exact(4);
    for w in halves.by_ref() {
        h ^= le_bytes(w).wrapping_mul(PRIME_1);
        h = h
            .rotate_left(23)
            .wrapping_mul(PRIME_2)
            .wrapping_add(PRIME_3);
    }
    for &b in halves.remainder() {
        h ^= u64::from(b).wrapping_mul(PRIME_5);
        h = h.rotate_left(11).wrapping_mul(PRIME_1);
    }

    h ^= h >> 33;
    h = h.wrapping_mul(PRIME_2);
    h ^= h >> 29;
    h = h.wrapping_mul(PRIME_3);
    h ^= h >> 32;
    h
}

#[cfg(test)]
#[allow(
    clippy::as_conversions,
    clippy::indexing_slicing,
    reason = "test fixtures: trusted in-memory values"
)]
mod tests {
    use super::*;

    /// The reference xxHash64 value for the empty input under seed 0 —
    /// pins the implementation to the published algorithm.
    #[test]
    fn empty_input_matches_reference() {
        assert_eq!(xxh64(&[], 0), 0xEF46_DB37_51D8_E999);
    }

    #[test]
    fn every_single_byte_flip_changes_the_hash() {
        // The property the corruption tests lean on: a one-byte change
        // anywhere in a buffer changes its checksum.
        let base: Vec<u8> = (0..97u32)
            .map(|i| (i.wrapping_mul(37) % 251) as u8)
            .collect();
        let h0 = xxh64(&base, 7);
        for i in 0..base.len() {
            for flip in [1u8, 0x80] {
                let mut b = base.clone();
                b[i] ^= flip;
                assert_ne!(xxh64(&b, 7), h0, "flip at byte {i} went unnoticed");
            }
        }
    }

    #[test]
    fn seed_separates_identical_inputs() {
        let data = b"identical payload bytes";
        assert_ne!(xxh64(data, 1), xxh64(data, 2));
    }

    #[test]
    fn all_input_lengths_are_panic_free_and_distinct_from_prefixes() {
        let buf: Vec<u8> = (0..200u32).map(|i| (i * 13 % 256) as u8).collect();
        let mut prev = None;
        for len in 0..buf.len() {
            let h = xxh64(&buf[..len], 0);
            assert_ne!(Some(h), prev, "length {len} collided with its prefix");
            prev = Some(h);
        }
    }
}
