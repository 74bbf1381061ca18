//! Fundamental identifier, weight and coordinate types shared by the whole
//! workspace.

/// Dense vertex identifier. Road networks in this workspace always use
/// vertex ids `0..n` so indices can double as array offsets.
pub type VertexId = u32;

/// Edge weight / network distance in integer travel-time-like units.
///
/// The DIMACS travel-time graphs the paper evaluates on use integer weights;
/// integer arithmetic keeps distance computations exact and branch-cheap.
pub type Weight = u32;

/// Sentinel for "unreachable" / "not yet settled".
///
/// Kept below `u32::MAX` so `INFINITY + small_weight` cannot wrap in the
/// relaxation step even without a saturating add.
#[expect(clippy::integer_division_remainder_used, reason = "a constant halving")]
pub const INFINITY: Weight = u32::MAX / 2;

/// Planar vertex coordinate.
///
/// DIMACS `.co` files store integer micro-degrees; the synthetic generator
/// produces integer grid coordinates. Euclidean geometry over these feeds the
/// quadtrees, R-trees and geometric partitioner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Point {
    /// Horizontal coordinate (longitude in micro-degrees, or grid x).
    pub x: i32,
    /// Vertical coordinate (latitude in micro-degrees, or grid y).
    pub y: i32,
}

impl Point {
    /// Creates a point.
    pub const fn new(x: i32, y: i32) -> Self {
        Point { x, y }
    }

    /// Squared Euclidean distance to `other`. Computed in 128 bits so the
    /// full `i32` coordinate range cannot overflow.
    pub fn dist_sq(&self, other: &Point) -> u128 {
        let dx = (self.x as i64 - other.x as i64).unsigned_abs() as u128;
        let dy = (self.y as i64 - other.y as i64).unsigned_abs() as u128;
        dx * dx + dy * dy
    }

    /// Euclidean distance to `other`.
    pub fn dist(&self, other: &Point) -> f64 {
        (self.dist_sq(other) as f64).sqrt()
    }
}

/// An undirected edge as fed to [`crate::GraphBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// One endpoint.
    pub u: VertexId,
    /// The other endpoint.
    pub v: VertexId,
    /// Positive travel cost.
    pub weight: Weight,
}

impl Edge {
    /// Creates an edge; callers must supply a strictly positive weight.
    pub const fn new(u: VertexId, v: VertexId, weight: Weight) -> Self {
        Edge { u, v, weight }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infinity_headroom_survives_relaxation() {
        // A relaxation may compute INFINITY + w for a real edge weight
        // without wrapping.
        let w: Weight = 1_000_000;
        assert!(INFINITY.checked_add(w).is_some());
        assert!(INFINITY + w > INFINITY);
    }

    #[test]
    fn point_distance_is_symmetric_and_zero_on_self() {
        let a = Point::new(3, -4);
        let b = Point::new(0, 0);
        assert_eq!(a.dist_sq(&b), 25);
        assert_eq!(b.dist_sq(&a), 25);
        assert_eq!(a.dist_sq(&a), 0);
        assert!((a.dist(&b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn point_distance_handles_extreme_coordinates() {
        let a = Point::new(i32::MIN, i32::MIN);
        let b = Point::new(i32::MAX, i32::MAX);
        // Must not panic or overflow.
        let d = a.dist_sq(&b);
        assert!(d > 0);
    }
}
