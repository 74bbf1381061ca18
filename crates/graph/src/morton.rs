//! Morton (Z-order) codes over normalized coordinates.
//!
//! A code interleaves 16 bits per axis of a 65536 × 65536 grid normalized
//! from a graph's bounding box. The ρ-Approximate NVD stores its quadtree
//! as a *Morton list* (§6.1, after Samet [22]): leaves sorted by the
//! Z-order code of their lower corner, located by binary search.

use crate::types::Point;

/// Bits per axis; quadtree depth is at most this.
pub const BITS: u32 = 16;

/// Maps points in a fixed bounding box onto Morton codes.
#[derive(Debug, Clone, Copy)]
pub struct MortonSpace {
    min: Point,
    scale_x: f64,
    scale_y: f64,
}

impl MortonSpace {
    /// Creates a space covering `min..=max` (degenerate boxes allowed).
    pub fn new(min: Point, max: Point) -> Self {
        let grid = ((1u64 << BITS) - 1) as f64;
        let scale = |lo: i32, hi: i32| -> f64 {
            let extent = (hi as i64 - lo as i64) as f64;
            grid / if extent <= 0.0 { 1.0 } else { extent }
        };
        MortonSpace {
            min,
            scale_x: scale(min.x, max.x),
            scale_y: scale(min.y, max.y),
        }
    }

    /// The raw fields — `(min, scale_x, scale_y)` — the flat-serialization
    /// boundary for snapshots.
    pub fn to_parts(&self) -> (Point, f64, f64) {
        (self.min, self.scale_x, self.scale_y)
    }

    /// Reassembles a space from stored parts.
    ///
    /// # Errors
    /// When either scale is non-finite or non-positive (every space built
    /// by [`MortonSpace::new`] has strictly positive finite scales).
    pub fn from_parts(min: Point, scale_x: f64, scale_y: f64) -> Result<Self, String> {
        if !(scale_x.is_finite() && scale_x > 0.0 && scale_y.is_finite() && scale_y > 0.0) {
            return Err(format!(
                "morton scales must be finite and positive, got ({scale_x}, {scale_y})"
            ));
        }
        Ok(MortonSpace {
            min,
            scale_x,
            scale_y,
        })
    }

    /// Grid cell of `p` on the normalized `2^BITS × 2^BITS` lattice. Points
    /// outside the box clamp to its border.
    #[inline]
    fn grid(&self, p: Point) -> (u32, u32) {
        let gx = (((p.x as i64 - self.min.x as i64) as f64 * self.scale_x) as i64)
            .clamp(0, (1 << BITS) - 1) as u32;
        let gy = (((p.y as i64 - self.min.y as i64) as f64 * self.scale_y) as i64)
            .clamp(0, (1 << BITS) - 1) as u32;
        (gx, gy)
    }

    /// The Morton code of `p`. Points outside the box clamp to its border.
    pub fn code(&self, p: Point) -> u32 {
        let (gx, gy) = self.grid(p);
        interleave(gx) | (interleave(gy) << 1)
    }
}

/// Spreads the low 16 bits of `x` into the even bit positions.
#[inline]
fn interleave(x: u32) -> u32 {
    let mut x = x & 0xFFFF;
    x = (x | (x << 8)) & 0x00FF_00FF;
    x = (x | (x << 4)) & 0x0F0F_0F0F;
    x = (x | (x << 2)) & 0x3333_3333;
    x = (x | (x << 1)) & 0x5555_5555;
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleave_spreads_bits_to_even_positions() {
        assert_eq!(interleave(0), 0);
        assert_eq!(interleave(0b1011), 0b100_0101);
        assert_eq!(interleave(0xFFFF), 0x5555_5555);
        // Bits above the 16th are masked off.
        assert_eq!(interleave(0x1_0001), 1);
    }

    #[test]
    fn codes_preserve_quadrant_order() {
        let s = MortonSpace::new(Point::new(0, 0), Point::new(100, 100));
        // The four quadrant corners must map to the four Morton quadrants in
        // Z order: (lo,lo) < (hi,lo) < (lo,hi) < (hi,hi) by top 2 bits.
        let c00 = s.code(Point::new(10, 10)) >> 30;
        let c10 = s.code(Point::new(90, 10)) >> 30;
        let c01 = s.code(Point::new(10, 90)) >> 30;
        let c11 = s.code(Point::new(90, 90)) >> 30;
        assert_eq!((c00, c10, c01, c11), (0, 1, 2, 3));
    }

    #[test]
    fn out_of_box_points_clamp() {
        let s = MortonSpace::new(Point::new(0, 0), Point::new(10, 10));
        assert_eq!(s.code(Point::new(-5, -5)), s.code(Point::new(0, 0)));
        assert_eq!(s.code(Point::new(50, 50)), s.code(Point::new(10, 10)));
    }

    #[test]
    fn degenerate_box_is_safe() {
        let s = MortonSpace::new(Point::new(5, 5), Point::new(5, 5));
        // No panic, and the box's own corner maps to the origin code.
        assert_eq!(s.code(Point::new(5, 5)), 0);
        // Points beyond the degenerate box clamp without overflow.
        let _ = s.code(Point::new(i32::MAX, i32::MIN));
    }

    #[test]
    fn nearby_points_share_prefixes() {
        let s = MortonSpace::new(Point::new(0, 0), Point::new(1 << 20, 1 << 20));
        let a = s.code(Point::new(1000, 1000));
        let b = s.code(Point::new(1010, 1010));
        let far = s.code(Point::new(1_000_000, 1_000_000));
        let shared_ab = (a ^ b).leading_zeros();
        let shared_af = (a ^ far).leading_zeros();
        assert!(shared_ab > shared_af);
    }
}
