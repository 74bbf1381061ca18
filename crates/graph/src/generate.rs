//! Synthetic road-network generator.
//!
//! Stands in for the DIMACS datasets (DESIGN.md §3, substitution 1). The
//! model is grid perturbation: vertices on a jittered grid, lattice edges
//! with random deletions, sparse diagonals, and travel-time weights
//! proportional to Euclidean length with a random congestion factor. The
//! result is planar-like, has road-network-like average degree (≈ 2.4–3.2),
//! and — critically for the paper's data structures — exhibits the spatial
//! coherence that makes Voronoi cells contiguous and quadtrees effective.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::connectivity::largest_component;
use crate::csr::{Graph, GraphBuilder};
use crate::types::{Point, VertexId, Weight};

/// Parameters of the grid-perturbation model.
#[derive(Debug, Clone)]
pub struct RoadNetworkConfig {
    /// Target number of vertices before largest-component extraction
    /// (the output is usually within a few percent of this).
    pub vertices: usize,
    /// RNG seed; identical configs generate identical networks.
    pub seed: u64,
    /// Probability that a lattice edge is removed (models missing road
    /// segments, rivers, parks). Default 0.15.
    pub deletion_rate: f64,
    /// Probability of adding a diagonal edge per grid cell. Default 0.08.
    pub diagonal_rate: f64,
    /// Grid spacing in coordinate units. Default 1000.
    pub spacing: i32,
    /// Coordinate jitter as a fraction of spacing. Default 0.3.
    pub jitter: f64,
    /// Maximum congestion factor: weights are Euclidean length scaled by a
    /// uniform factor in `[1.0, max_congestion]`. Default 1.5.
    pub max_congestion: f64,
    /// Every `highway_period`-th grid row/column is an arterial road whose
    /// edges are `highway_speedup`× faster. Real road networks owe their
    /// small highway dimension — the property CH and hub labels exploit —
    /// to exactly this structure; without it, label sizes degenerate to the
    /// grid's Θ(√n) treewidth. 0 disables highways.
    pub highway_period: usize,
    /// Travel-time divisor on highway edges. Default 4.0.
    pub highway_speedup: f64,
}

impl RoadNetworkConfig {
    /// A config with sensible defaults for `vertices` vertices.
    pub fn new(vertices: usize, seed: u64) -> Self {
        RoadNetworkConfig {
            vertices,
            seed,
            deletion_rate: 0.15,
            diagonal_rate: 0.08,
            spacing: 1000,
            jitter: 0.3,
            max_congestion: 1.5,
            highway_period: 12,
            highway_speedup: 4.0,
        }
    }
}

/// Generates a connected synthetic road network.
///
/// The returned graph is the largest connected component of the perturbed
/// grid, with dense vertex ids and coordinates attached.
pub fn road_network(config: &RoadNetworkConfig) -> Graph {
    assert!(config.vertices >= 1, "need at least one vertex");
    assert!(
        (0.0..1.0).contains(&config.deletion_rate),
        "deletion_rate must be in [0, 1)"
    );
    assert!(
        config.max_congestion >= 1.0,
        "congestion factor below 1 would undercut Euclidean length"
    );
    let mut rng = StdRng::seed_from_u64(config.seed);

    let w = (config.vertices as f64).sqrt().ceil() as usize;
    let h = config.vertices.div_ceil(w);
    let n = w * h;
    let mut b = GraphBuilder::new(n);

    let jitter_amp = (config.spacing as f64 * config.jitter) as i32;
    let coord = |rng: &mut StdRng, base: i32, amp: i32| -> i32 {
        if amp == 0 {
            base
        } else {
            base + rng.gen_range(-amp..=amp)
        }
    };
    let mut pts = vec![Point::default(); n];
    for gy in 0..h {
        for gx in 0..w {
            let v = gy * w + gx;
            let p = Point::new(
                coord(&mut rng, (gx as i32) * config.spacing, jitter_amp),
                coord(&mut rng, (gy as i32) * config.spacing, jitter_amp),
            );
            pts[v] = p;
            b.set_coord(v as VertexId, p);
        }
    }

    let on_highway_line =
        |i: usize| config.highway_period > 0 && i.is_multiple_of(config.highway_period);
    let add = |b: &mut GraphBuilder, rng: &mut StdRng, u: usize, v: usize, highway: bool| {
        let len = pts[u].dist(&pts[v]);
        let factor = rng.gen_range(1.0..=config.max_congestion);
        let mut weight = len * factor;
        if highway {
            weight /= config.highway_speedup.max(1.0);
        }
        b.add_edge(
            u as VertexId,
            v as VertexId,
            weight.round().max(1.0) as Weight,
        );
    };

    for gy in 0..h {
        for gx in 0..w {
            let v = gy * w + gx;
            // Lattice edges right and down. Arterial (highway) edges are
            // never deleted — highways are contiguous in real networks.
            let row_hw = on_highway_line(gy);
            let col_hw = on_highway_line(gx);
            if gx + 1 < w && (row_hw || rng.gen::<f64>() >= config.deletion_rate) {
                add(&mut b, &mut rng, v, v + 1, row_hw);
            }
            if gy + 1 < h && (col_hw || rng.gen::<f64>() >= config.deletion_rate) {
                add(&mut b, &mut rng, v, v + w, col_hw);
            }
            // Occasional diagonal, alternating direction at random.
            if gx + 1 < w && gy + 1 < h && rng.gen::<f64>() < config.diagonal_rate {
                if rng.gen::<bool>() {
                    add(&mut b, &mut rng, v, v + w + 1, false);
                } else {
                    add(&mut b, &mut rng, v + 1, v + w, false);
                }
            }
        }
    }

    let (graph, _) = largest_component(&b.build());
    graph
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::components;
    use crate::dijkstra::Dijkstra;

    #[test]
    fn generates_connected_network_near_target_size() {
        let g = road_network(&RoadNetworkConfig::new(2000, 42));
        assert_eq!(components(&g).1.len(), 1);
        let n = g.num_vertices();
        assert!(n > 1700 && n <= 2100, "unexpected size {n}");
    }

    #[test]
    fn is_deterministic_per_seed() {
        let cfg = RoadNetworkConfig::new(500, 7);
        let g1 = road_network(&cfg);
        let g2 = road_network(&cfg);
        assert_eq!(g1.num_vertices(), g2.num_vertices());
        assert_eq!(g1.num_edges(), g2.num_edges());
        let e1: Vec<_> = g1.edges().collect();
        let e2: Vec<_> = g2.edges().collect();
        assert_eq!(e1, e2);
    }

    #[test]
    fn different_seeds_differ() {
        let g1 = road_network(&RoadNetworkConfig::new(500, 1));
        let g2 = road_network(&RoadNetworkConfig::new(500, 2));
        let e1: Vec<_> = g1.edges().collect();
        let e2: Vec<_> = g2.edges().collect();
        assert_ne!(e1, e2);
    }

    #[test]
    fn average_degree_is_road_network_like() {
        let g = road_network(&RoadNetworkConfig::new(5000, 3));
        let avg = 2.0 * g.num_edges() as f64 / g.num_vertices() as f64;
        assert!((2.2..3.6).contains(&avg), "average degree {avg}");
    }

    #[test]
    fn weights_track_euclidean_length_within_speed_bounds() {
        // Travel times lie between the highway free-flow bound and the
        // congested local-road bound.
        let cfg = RoadNetworkConfig::new(400, 11);
        let g = road_network(&cfg);
        for e in g.edges() {
            let d = g.coord(e.u).dist(&g.coord(e.v));
            let lo = d / cfg.highway_speedup - 1.0;
            let hi = d * cfg.max_congestion + 1.0;
            assert!(
                (e.weight as f64) >= lo && (e.weight as f64) <= hi,
                "weight {} outside [{lo}, {hi}] for length {d}",
                e.weight
            );
        }
    }

    #[test]
    fn highways_make_long_trips_faster() {
        // With highways, corner-to-corner travel time beats the no-highway
        // network's substantially.
        let mut with = RoadNetworkConfig::new(2500, 19);
        let mut without = with.clone();
        without.highway_period = 0;
        let gw = road_network(&with);
        let go = road_network(&without);
        let mut dw = Dijkstra::new(gw.num_vertices());
        let mut do_ = Dijkstra::new(go.num_vertices());
        let dhw = dw.one_to_one(&gw, 0, gw.num_vertices() as VertexId - 1);
        let dno = do_.one_to_one(&go, 0, go.num_vertices() as VertexId - 1);
        assert!(
            (dhw as f64) < dno as f64 * 0.7,
            "highway trip {dhw} not much faster than {dno}"
        );
        with.highway_speedup = 1.0;
        let _ = with; // config stays usable after the comparison
    }

    #[test]
    fn distances_are_finite_within_component() {
        let g = road_network(&RoadNetworkConfig::new(300, 5));
        let mut d = Dijkstra::new(g.num_vertices());
        d.sssp(&g, 0);
        let s = d.space();
        for v in 0..g.num_vertices() as VertexId {
            assert!(s.distance(v).is_some(), "vertex {v} unreachable");
        }
    }

    #[test]
    fn tiny_network_works() {
        let g = road_network(&RoadNetworkConfig::new(1, 0));
        assert_eq!(g.num_vertices(), 1);
        assert_eq!(g.num_edges(), 0);
    }
}
