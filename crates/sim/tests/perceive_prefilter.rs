//! Differential oracle for the lane-box prefilter in
//! [`NpcVehicle::perceive`]: perceive projects a candidate onto a lane only
//! when it lies in that lane's reach box (`Lane::reach_box`). On random
//! candidate clouds around random lanes of generated towns, on points
//! exactly on every reach-box edge and one ulp either side of it, and on
//! points on the `0.7 × width` acceptance boundary, the prefiltered
//! perceive must return bit for bit what an unfiltered scan returns — for
//! the whole cloud and for every candidate alone.

use avfi_sim::actors::{NpcVehicle, SCAN_AHEAD};
use avfi_sim::map::town::{TownConfig, TownGenerator};
use avfi_sim::map::{Lane, LaneId, LightState, Map, SignalGroup};
use avfi_sim::math::Vec2;
use proptest::prelude::*;

type Candidate = (Vec2, f64, f64);

/// `NpcVehicle::perceive` without the lane-box prefilter: every candidate
/// inside the scan horizon is projected onto the NPC's lane and, failing
/// that, onto each successor lane.
fn perceive_unfiltered(
    npc: &NpcVehicle,
    map: &Map,
    others: &[Candidate],
    time: f64,
) -> Option<(f64, f64)> {
    let lane = map.lane(npc.lane());
    let my_pos = lane.point_at(npc.s());
    let remaining = lane.length() - npc.s();
    let mut best: Option<(f64, f64)> = None;
    let mut consider = |gap: f64, v: f64| {
        if gap < SCAN_AHEAD {
            match best {
                Some((g, _)) if g <= gap => {}
                _ => best = Some((gap, v)),
            }
        }
    };
    for &(pos, v, half_len) in others {
        if pos.distance_sq(my_pos) > SCAN_AHEAD * SCAN_AHEAD {
            continue;
        }
        let proj = lane.project(pos);
        if proj.distance < lane.width() * 0.7 && proj.s > npc.s() + 0.5 {
            let gap = proj.s - npc.s() - half_len - npc.params().length * 0.5;
            consider(gap.max(0.0), v);
            continue;
        }
        for succ in map.successors(npc.lane()) {
            let sl = map.lane(*succ);
            let p2 = sl.project(pos);
            if p2.distance < sl.width() * 0.7 && p2.s < SCAN_AHEAD {
                let gap = remaining + p2.s - half_len - npc.params().length * 0.5;
                consider(gap.max(0.0), v);
            }
        }
    }
    if let Some(iid) = map.intersection_after(npc.lane()) {
        let group = SignalGroup::from_heading(lane.end_heading());
        match map.intersection(iid).light_state(group, time) {
            LightState::Red | LightState::Yellow => consider((remaining - 1.0).max(0.0), 0.0),
            LightState::Green => {}
        }
    }
    best
}

/// A town config from raw draws: 2–4 × 2–4 blocks of 60–120 m, lanes
/// 2.8–4.2 m wide, signalized or not.
fn town(cols: usize, rows: usize, block: f64, width: f64, signalized: bool) -> Map {
    TownGenerator::new(TownConfig {
        block,
        lane_width: width,
        signalized,
        ..TownConfig::grid(cols, rows)
    })
    .generate()
}

/// The point `offset` meters to the left of `lane`'s centerline at arc
/// length `s`.
fn beside(lane: &Lane, s: f64, offset: f64) -> Vec2 {
    lane.point_at(s) + Vec2::from_angle(lane.heading_at(s) + std::f64::consts::FRAC_PI_2) * offset
}

/// `v` and its two neighbouring doubles.
fn with_ulps(v: f64) -> [f64; 3] {
    [v.next_down(), v, v.next_up()]
}

/// Points on every edge of `lane`'s reach box and one ulp either side of
/// it, at each centerline vertex's coordinate along the edge and at the
/// box corners.
fn box_edge_points(lane: &Lane, out: &mut Vec<Vec2>) {
    let b = lane.reach_box(lane.width() * 0.7);
    let mut along_x: Vec<f64> = lane.points().iter().map(|p| p.x).collect();
    let mut along_y: Vec<f64> = lane.points().iter().map(|p| p.y).collect();
    along_x.extend([b.min.x, b.max.x]);
    along_y.extend([b.min.y, b.max.y]);
    for edge in [b.min.x, b.max.x] {
        for x in with_ulps(edge) {
            out.extend(along_y.iter().map(|&y| Vec2::new(x, y)));
        }
    }
    for edge in [b.min.y, b.max.y] {
        for y in with_ulps(edge) {
            out.extend(along_x.iter().map(|&x| Vec2::new(x, y)));
        }
    }
}

/// Compares the prefiltered and the unfiltered perceive on the whole
/// cloud and on every candidate alone, and checks the reach-box claim
/// itself: no point the box rejects projects nearer than `0.7 × width`.
fn assert_same_leader(
    npc: &NpcVehicle,
    map: &Map,
    cloud: &[Candidate],
    time: f64,
) -> Result<(), String> {
    let fast = npc.perceive(map, cloud.iter().copied(), time);
    let slow = perceive_unfiltered(npc, map, cloud, time);
    prop_assert!(
        fast.map(bits) == slow.map(bits),
        "cloud of {}: prefiltered {:?} != unfiltered {:?}",
        cloud.len(),
        fast,
        slow
    );
    let lanes: Vec<LaneId> = std::iter::once(npc.lane())
        .chain(map.successors(npc.lane()).iter().copied())
        .collect();
    for &c in cloud {
        let fast = npc.perceive(map, std::iter::once(c), time);
        let slow = perceive_unfiltered(npc, map, &[c], time);
        prop_assert!(
            fast.map(bits) == slow.map(bits),
            "candidate {:?}: prefiltered {:?} != unfiltered {:?}",
            c,
            fast,
            slow
        );
        for &id in &lanes {
            let lane = map.lane(id);
            let reach = lane.width() * 0.7;
            let near = lane.project(c.0).distance < reach;
            prop_assert!(
                !near || lane.reach_box(reach).contains(c.0),
                "{} projects {:?} within {} but its reach box rejects it",
                id,
                c.0,
                reach
            );
        }
    }
    Ok(())
}

fn bits((gap, v): (f64, f64)) -> (u64, u64) {
    (gap.to_bits(), v.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random clouds around the NPC's lane, its successors and random
    /// other lanes, with lateral offsets up to 1.5 lane widths (so many
    /// candidates sit near the `0.7 × width` acceptance boundary and the
    /// reach-box edges), plus the box-edge points, the acceptance-boundary
    /// points and a NaN candidate.
    #[test]
    fn prefiltered_perceive_matches_unfiltered(
        shape in (2usize..5, 2usize..5, 60.0f64..120.0, 2.8f64..4.2, prop::bool::ANY),
        lane_draw in 0usize..10_000,
        s_frac in 0.0f64..1.0,
        time in 0.0f64..90.0,
        cloud in prop::collection::vec(
            (0usize..10_000, 0.0f64..1.0, -1.5f64..1.5, 0.0f64..12.0, 1.5f64..3.0),
            0..32,
        ),
    ) {
        let (cols, rows, block, width, signalized) = shape;
        let map = town(cols, rows, block, width, signalized);
        let lane = &map.lanes()[lane_draw % map.lanes().len()];
        let npc = NpcVehicle::new(lane.id(), s_frac * lane.length());
        let near: Vec<LaneId> = std::iter::once(lane.id())
            .chain(map.successors(lane.id()).iter().copied())
            .collect();

        let mut candidates: Vec<Candidate> = Vec::new();
        for &(draw, frac, lateral, v, half_len) in &cloud {
            // Three in four candidates ride the NPC's lane or a
            // successor; the rest any lane of the town.
            let id = if draw % 4 == 0 {
                map.lanes()[draw / 4 % map.lanes().len()].id()
            } else {
                near[draw % near.len()]
            };
            let l = map.lane(id);
            let p = beside(l, frac * l.length(), lateral * l.width());
            candidates.push((p, v, half_len));
        }
        let mut edge_points = Vec::new();
        for &id in &near {
            let l = map.lane(id);
            box_edge_points(l, &mut edge_points);
            // The acceptance boundary itself, and one ulp either side.
            for k in 0..=8 {
                let s = l.length() * k as f64 / 8.0;
                for side in [-1.0, 1.0] {
                    for offset in with_ulps(l.width() * 0.7) {
                        edge_points.push(beside(l, s, side * offset));
                    }
                }
            }
        }
        candidates.extend(edge_points.iter().map(|&p| (p, 4.0, 2.25)));
        candidates.push((Vec2::new(f64::NAN, lane.start().y), 4.0, 2.25));

        assert_same_leader(&npc, &map, &candidates, time)?;
    }
}

/// A hand-built case where the prefilter must let a candidate through:
/// a vehicle just inside `0.7 × width` of a straight lane is a leader for
/// both paths, and the same vehicle just beyond it is a leader for
/// neither.
#[test]
fn lateral_acceptance_boundary_agrees() {
    let map = town(2, 2, 80.0, 3.5, false);
    let lane = map
        .lanes()
        .iter()
        .find(|l| l.points().len() == 2 && l.length() > 40.0)
        .expect("a straight lane");
    let npc = NpcVehicle::new(lane.id(), 0.0);
    let reach = lane.width() * 0.7;
    for (offset, leads) in [(reach - 1e-3, true), (reach + 1e-3, false)] {
        let c = (beside(lane, 20.0, offset), 3.0, 2.25);
        let fast = npc.perceive(&map, std::iter::once(c), 0.0);
        let slow = perceive_unfiltered(&npc, &map, &[c], 0.0);
        assert_eq!(fast, slow, "offset {offset}");
        assert_eq!(fast.is_some(), leads, "offset {offset}: {fast:?}");
    }
}
