//! Deterministic actor spawning for scenarios.

use super::{NpcVehicle, Pedestrian};
use crate::map::{LaneKind, Map};
use crate::math::Segment;
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::RngExt;

/// Spawns `count` NPC vehicles on random drive lanes, spaced so they do not
/// start overlapping each other or the position `avoid` (the ego spawn).
pub fn spawn_npc_vehicles(
    map: &Map,
    count: usize,
    avoid: crate::math::Vec2,
    rng: &mut StdRng,
) -> Vec<NpcVehicle> {
    let drive: Vec<_> = map
        .lanes()
        .iter()
        .filter(|l| l.kind() == LaneKind::Drive && l.length() > 20.0)
        .map(|l| l.id())
        .collect();
    let mut out: Vec<NpcVehicle> = Vec::with_capacity(count);
    let mut attempts = 0;
    while out.len() < count && attempts < count.saturating_mul(50) {
        attempts += 1;
        let Some(&lane) = drive.choose(rng) else {
            break;
        };
        let len = map.lane(lane).length();
        let s = rng.random_range(5.0..len - 5.0);
        let pos = map.lane(lane).point_at(s);
        if pos.distance(avoid) < 20.0 {
            continue;
        }
        let clear = out.iter().all(|v| {
            let other = map.lane(v.lane()).point_at(v.s());
            other.distance(pos) > 12.0
        });
        if clear {
            out.push(NpcVehicle::new(lane, s));
        }
    }
    out
}

/// Spawns `count` pedestrians on random road-side sidewalks.
///
/// Each pedestrian walks the sidewalk on one side of a road corridor and
/// can cross to the opposite side with rate `cross_rate` (per second).
pub fn spawn_pedestrians(
    map: &Map,
    count: usize,
    cross_rate: f64,
    rng: &mut StdRng,
) -> Vec<Pedestrian> {
    let axes = map.road_axes();
    let mut out = Vec::with_capacity(count);
    if axes.is_empty() {
        return out;
    }
    for _ in 0..count {
        let axis = &axes[rng.random_range(0..axes.len())];
        let dir = axis.axis.direction();
        let side = if rng.random_range(0.0..1.0) < 0.5 {
            1.0
        } else {
            -1.0
        };
        let offset = dir.perp() * side * (axis.half_road + axis.sidewalk * 0.5);
        let home = Segment::new(axis.axis.a + offset, axis.axis.b + offset);
        let cross_dir = -dir.perp() * side;
        let cross_dist = 2.0 * (axis.half_road + axis.sidewalk * 0.5);
        let start_t = rng.random_range(0.0..1.0);
        let speed = rng.random_range(1.1..1.8);
        out.push(Pedestrian::new(
            home, cross_dir, cross_dist, start_t, speed, cross_rate,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::town::{TownConfig, TownGenerator};
    use crate::math::Vec2;
    use crate::rng::stream_rng;

    fn town() -> Map {
        TownGenerator::new(TownConfig::grid(3, 3)).generate()
    }

    #[test]
    fn npcs_spawn_spread_out() {
        let map = town();
        let mut rng = stream_rng(11, 0);
        let npcs = spawn_npc_vehicles(&map, 8, Vec2::ZERO, &mut rng);
        assert_eq!(npcs.len(), 8);
        for (i, a) in npcs.iter().enumerate() {
            let pa = map.lane(a.lane()).point_at(a.s());
            assert!(pa.distance(Vec2::ZERO) >= 20.0, "npc {i} too close to ego");
            for b in &npcs[i + 1..] {
                let pb = map.lane(b.lane()).point_at(b.s());
                assert!(pa.distance(pb) > 12.0, "npcs overlap");
            }
        }
    }

    #[test]
    fn npc_spawn_deterministic() {
        let map = town();
        let a = spawn_npc_vehicles(&map, 5, Vec2::ZERO, &mut stream_rng(3, 1));
        let b = spawn_npc_vehicles(&map, 5, Vec2::ZERO, &mut stream_rng(3, 1));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.lane(), y.lane());
            assert_eq!(x.s(), y.s());
        }
    }

    #[test]
    fn pedestrians_start_on_sidewalk() {
        let map = town();
        let mut rng = stream_rng(12, 0);
        let peds = spawn_pedestrians(&map, 10, 0.02, &mut rng);
        assert_eq!(peds.len(), 10);
        let on_sidewalk = peds
            .iter()
            .filter(|p| map.ground_at(p.position()).sidewalk)
            .count();
        // Sidewalk midlines can graze intersection corners; allow slack.
        assert!(on_sidewalk >= 8, "only {on_sidewalk}/10 on sidewalk");
    }
}
