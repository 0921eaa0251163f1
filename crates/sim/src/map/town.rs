//! Procedural town generation.
//!
//! CARLA ships a library of urban layouts ("Town01", "Town02", …). This
//! module generates equivalent grid towns: Manhattan-style road networks
//! with signalized intersections, connector lanes, sidewalks and buildings.

use crate::map::{
    Intersection, IntersectionId, Lane, LaneId, LaneKind, Map, MapParts, RoadAxis, SignalTiming,
    TurnKind,
};
use crate::math::{Aabb, Segment, Vec2};
use crate::rng::stream_rng;
use rand::RngExt;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Configuration for the grid-town generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TownConfig {
    /// Number of intersection columns (≥ 2 for a drivable town).
    pub cols: usize,
    /// Number of intersection rows (≥ 2 for a drivable town).
    pub rows: usize,
    /// Distance between adjacent intersections, meters.
    pub block: f64,
    /// Width of one driving lane, meters.
    pub lane_width: f64,
    /// Sidewalk width beyond the pavement, meters.
    pub sidewalk: f64,
    /// Half-extent of the square intersection area, meters.
    pub intersection_half: f64,
    /// Speed limit on straight road lanes, m/s.
    pub speed_limit: f64,
    /// Speed limit on turning connectors, m/s.
    pub turn_speed_limit: f64,
    /// Whether intersections get traffic lights.
    pub signalized: bool,
    /// Signal timing plan.
    pub timing: SignalTiming,
    /// Seed for building placement.
    pub seed: u64,
}

impl TownConfig {
    /// A `cols × rows` grid town with CARLA-like defaults: 80 m blocks,
    /// 3.5 m lanes, 2 m sidewalks, 30 km/h speed limit, signalized.
    pub fn grid(cols: usize, rows: usize) -> Self {
        TownConfig {
            cols,
            rows,
            block: 80.0,
            lane_width: 3.5,
            sidewalk: 2.0,
            intersection_half: 6.0,
            speed_limit: 8.33,
            turn_speed_limit: 4.5,
            signalized: true,
            timing: SignalTiming::default(),
            seed: 0x5EED,
        }
    }

    /// Total paved half-width of a road corridor (both lanes).
    pub fn half_road(&self) -> f64 {
        self.lane_width
    }
}

impl Default for TownConfig {
    fn default() -> Self {
        TownConfig::grid(4, 4)
    }
}

/// Grid-town generator; see [`TownConfig`].
#[derive(Debug, Clone)]
pub struct TownGenerator {
    config: TownConfig,
}

/// Records which drive lanes enter and leave each grid node.
#[derive(Default, Debug)]
struct NodePort {
    /// (lane, incoming heading) for lanes ending at the node boundary.
    incoming: Vec<(LaneId, f64)>,
    /// (lane, outgoing heading) for lanes starting at the node boundary.
    outgoing: Vec<(LaneId, f64)>,
}

impl TownGenerator {
    /// Creates a generator.
    ///
    /// # Panics
    ///
    /// Panics if the grid is smaller than 2×1 or the block is not larger
    /// than twice the intersection half-extent.
    pub fn new(config: TownConfig) -> Self {
        assert!(
            config.cols * config.rows >= 2,
            "town needs at least two intersections"
        );
        assert!(
            config.block > 2.0 * config.intersection_half + 10.0,
            "blocks must be larger than intersections"
        );
        TownGenerator { config }
    }

    /// Generates the town map.
    pub fn generate(&self) -> Map {
        let cfg = &self.config;
        let mut lanes: Vec<Lane> = Vec::new();
        let mut successors: Vec<Vec<LaneId>> = Vec::new();
        let mut road_axes: Vec<RoadAxis> = Vec::new();
        let mut ports: HashMap<(usize, usize), NodePort> = HashMap::new();
        let mut lane_to_intersection: HashMap<LaneId, IntersectionId> = HashMap::new();

        let node_pos = |i: usize, j: usize| Vec2::new(i as f64 * cfg.block, j as f64 * cfg.block);

        let alloc_lane = |lanes: &mut Vec<Lane>,
                          successors: &mut Vec<Vec<LaneId>>,
                          kind: LaneKind,
                          pts: Vec<Vec2>,
                          limit: f64,
                          turn: Option<TurnKind>|
         -> LaneId {
            let id = LaneId(lanes.len() as u32);
            lanes.push(Lane::new(id, kind, pts, cfg.lane_width, limit, turn));
            successors.push(Vec::new());
            id
        };

        // 1. Roads between adjacent grid nodes (one lane each direction,
        //    right-hand traffic).
        let mut edges: Vec<((usize, usize), (usize, usize))> = Vec::new();
        for j in 0..cfg.rows {
            for i in 0..cfg.cols {
                if i + 1 < cfg.cols {
                    edges.push(((i, j), (i + 1, j)));
                }
                if j + 1 < cfg.rows {
                    edges.push(((i, j), (i, j + 1)));
                }
            }
        }
        for (a, b) in edges {
            let pa = node_pos(a.0, a.1);
            let pb = node_pos(b.0, b.1);
            let dir = (pb - pa).normalized();
            let start = pa + dir * cfg.intersection_half;
            let end = pb - dir * cfg.intersection_half;
            road_axes.push(RoadAxis {
                axis: Segment::new(start, end),
                half_road: cfg.half_road(),
                sidewalk: cfg.sidewalk,
            });
            // Right-hand side offset for each travel direction.
            let right = -dir.perp() * (cfg.lane_width * 0.5);
            let ab = alloc_lane(
                &mut lanes,
                &mut successors,
                LaneKind::Drive,
                vec![start + right, end + right],
                cfg.speed_limit,
                None,
            );
            let left = dir.perp() * (cfg.lane_width * 0.5);
            let ba = alloc_lane(
                &mut lanes,
                &mut successors,
                LaneKind::Drive,
                vec![end + left, start + left],
                cfg.speed_limit,
                None,
            );
            let h_ab = dir.angle();
            let h_ba = (-dir).angle();
            ports.entry(a).or_default().outgoing.push((ab, h_ab));
            ports.entry(b).or_default().incoming.push((ab, h_ab));
            ports.entry(b).or_default().outgoing.push((ba, h_ba));
            ports.entry(a).or_default().incoming.push((ba, h_ba));
        }

        // 2. Intersections and connector lanes.
        let mut intersections: Vec<Intersection> = Vec::new();
        for j in 0..cfg.rows {
            for i in 0..cfg.cols {
                let port = match ports.get(&(i, j)) {
                    Some(p) => p,
                    None => continue,
                };
                let id = IntersectionId(intersections.len() as u32);
                let center = node_pos(i, j);
                let degree = port.incoming.len();
                let phase_offset = ((i * 31 + j * 17) % 4) as f64 * 2.75;
                let mut isect = Intersection::new(
                    id,
                    Aabb::from_center(center, cfg.intersection_half, cfg.intersection_half),
                    cfg.signalized && degree >= 3,
                    cfg.timing,
                    phase_offset,
                );
                for (in_lane, h_in) in &port.incoming {
                    isect.add_incoming(*in_lane);
                    lane_to_intersection.insert(*in_lane, id);
                    let p0 = lanes[in_lane.0 as usize].end();
                    let dir_in = Vec2::from_angle(*h_in);
                    for (out_lane, h_out) in &port.outgoing {
                        let dir_out = Vec2::from_angle(*h_out);
                        // Skip U-turns except at dead ends (degree 1).
                        if dir_in.dot(dir_out) < -0.9 && degree > 1 {
                            continue;
                        }
                        let p1 = lanes[out_lane.0 as usize].start();
                        let cross = dir_in.cross(dir_out);
                        let turn = if cross.abs() < 0.1 && dir_in.dot(dir_out) > 0.0 {
                            TurnKind::Straight
                        } else if cross > 0.0 {
                            TurnKind::Left
                        } else {
                            TurnKind::Right
                        };
                        let pts = connector_path(p0, dir_in, p1, dir_out);
                        let limit = if turn == TurnKind::Straight {
                            cfg.speed_limit
                        } else {
                            cfg.turn_speed_limit
                        };
                        let conn = alloc_lane(
                            &mut lanes,
                            &mut successors,
                            LaneKind::Connector,
                            pts,
                            limit,
                            Some(turn),
                        );
                        successors[in_lane.0 as usize].push(conn);
                        successors[conn.0 as usize].push(*out_lane);
                    }
                }
                intersections.push(isect);
            }
        }

        // 3. Buildings inside blocks.
        let buildings = self.place_buildings();

        Map::from_parts(MapParts {
            lanes,
            successors,
            intersections,
            lane_to_intersection,
            road_axes,
            buildings,
        })
    }

    fn place_buildings(&self) -> Vec<Aabb> {
        let cfg = &self.config;
        let mut rng = stream_rng(cfg.seed, 0xB1D);
        let setback = cfg.half_road() + cfg.sidewalk + 3.0;
        let mut out = Vec::new();
        if cfg.cols < 2 || cfg.rows < 2 {
            return out;
        }
        for j in 0..cfg.rows - 1 {
            for i in 0..cfg.cols - 1 {
                let lo = Vec2::new(
                    i as f64 * cfg.block + setback,
                    j as f64 * cfg.block + setback,
                );
                let hi = Vec2::new(
                    (i + 1) as f64 * cfg.block - setback,
                    (j + 1) as f64 * cfg.block - setback,
                );
                if hi.x - lo.x < 10.0 || hi.y - lo.y < 10.0 {
                    continue;
                }
                // Split the block interior into 1, 2 or 4 buildings with a
                // gap between them.
                let split: u8 = rng.random_range(0..3);
                let gap = 6.0;
                match split {
                    0 => out.push(Aabb::new(lo, hi)),
                    1 => {
                        let mid = (lo.x + hi.x) * 0.5;
                        out.push(Aabb::new(lo, Vec2::new(mid - gap * 0.5, hi.y)));
                        out.push(Aabb::new(Vec2::new(mid + gap * 0.5, lo.y), hi));
                    }
                    _ => {
                        let mx = (lo.x + hi.x) * 0.5;
                        let my = (lo.y + hi.y) * 0.5;
                        out.push(Aabb::new(lo, Vec2::new(mx - gap * 0.5, my - gap * 0.5)));
                        out.push(Aabb::new(
                            Vec2::new(mx + gap * 0.5, lo.y),
                            Vec2::new(hi.x, my - gap * 0.5),
                        ));
                        out.push(Aabb::new(
                            Vec2::new(lo.x, my + gap * 0.5),
                            Vec2::new(mx - gap * 0.5, hi.y),
                        ));
                        out.push(Aabb::new(Vec2::new(mx + gap * 0.5, my + gap * 0.5), hi));
                    }
                }
            }
        }
        out
    }
}

/// Builds the centerline of a connector from the end of one lane to the
/// start of the next: a straight segment when the headings agree, otherwise
/// a quadratic Bézier through the corner point.
fn connector_path(p0: Vec2, dir_in: Vec2, p1: Vec2, dir_out: Vec2) -> Vec<Vec2> {
    if dir_in.dot(dir_out) > 0.99 {
        return vec![p0, p1];
    }
    // Corner control point: intersection of the entry tangent and the exit
    // tangent (traced backwards). Falls back to the midpoint for
    // near-parallel (U-turn) geometry.
    let denom = dir_in.cross(dir_out);
    let control = if denom.abs() > 1e-6 {
        let t = (p1 - p0).cross(dir_out) / denom;
        p0 + dir_in * t
    } else {
        // U-turn: bulge sideways to make an arc instead of a point turn.
        (p0 + p1) * 0.5 + dir_in * 4.0
    };
    const SAMPLES: usize = 8;
    (0..=SAMPLES)
        .map(|k| {
            let t = k as f64 / SAMPLES as f64;
            let a = p0.lerp(control, t);
            let b = control.lerp(p1, t);
            a.lerp(b, t)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::LaneKind;

    #[test]
    fn connector_straight_is_two_points() {
        let pts = connector_path(
            Vec2::new(0.0, 0.0),
            Vec2::new(1.0, 0.0),
            Vec2::new(12.0, 0.0),
            Vec2::new(1.0, 0.0),
        );
        assert_eq!(pts.len(), 2);
    }

    #[test]
    fn connector_turn_is_smooth() {
        // Right turn at a corner: east in, south out.
        let pts = connector_path(
            Vec2::new(-6.0, -1.75),
            Vec2::new(1.0, 0.0),
            Vec2::new(-1.75, -6.0),
            Vec2::new(0.0, -1.0),
        );
        assert!(pts.len() > 4);
        assert_eq!(pts[0], Vec2::new(-6.0, -1.75));
        assert_eq!(*pts.last().unwrap(), Vec2::new(-1.75, -6.0));
        // The curve stays within the corner region.
        for p in &pts {
            assert!(p.x >= -6.01 && p.y >= -6.01, "point {p} escaped corner");
        }
    }

    #[test]
    fn town_2x2_connects_everything() {
        let map = TownGenerator::new(TownConfig::grid(2, 2)).generate();
        // Every drive lane must have at least one successor connector and
        // every connector exactly one drive successor.
        for lane in map.lanes() {
            match lane.kind() {
                LaneKind::Drive => {
                    assert!(
                        !map.successors(lane.id()).is_empty(),
                        "drive {} has no successors",
                        lane.id()
                    );
                }
                LaneKind::Connector => {
                    assert_eq!(map.successors(lane.id()).len(), 1);
                    assert!(lane.turn().is_some());
                }
            }
        }
    }

    #[test]
    fn corner_nodes_are_unsignalized() {
        // Degree-2 corners need no lights; interior 4-way nodes do.
        let map = TownGenerator::new(TownConfig::grid(3, 3)).generate();
        let n_signalized = map
            .intersections()
            .iter()
            .filter(|i| i.is_signalized())
            .count();
        // 3x3 grid: 4 corners (degree 2) unsignalized, 4 edges (deg 3) + 1
        // center (deg 4) signalized.
        assert_eq!(n_signalized, 5);
    }

    #[test]
    fn deterministic_generation() {
        let a = TownGenerator::new(TownConfig::grid(3, 3)).generate();
        let b = TownGenerator::new(TownConfig::grid(3, 3)).generate();
        assert_eq!(a.lanes().len(), b.lanes().len());
        assert_eq!(a.buildings().len(), b.buildings().len());
        for (x, y) in a.buildings().iter().zip(b.buildings()) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn turns_classified() {
        let map = TownGenerator::new(TownConfig::grid(2, 2)).generate();
        let mut kinds = std::collections::HashSet::new();
        for lane in map.lanes() {
            if let Some(t) = lane.turn() {
                kinds.insert(t);
            }
        }
        assert!(kinds.contains(&TurnKind::Left));
        assert!(kinds.contains(&TurnKind::Right));
    }
}
