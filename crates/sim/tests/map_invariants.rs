//! Property-based invariants of the town generator and route planner:
//! for any reasonable grid configuration, the road network must be
//! strongly connected, routable, and geometrically consistent.

use avfi_sim::map::route::plan_route;
use avfi_sim::map::town::{TownConfig, TownGenerator};
use avfi_sim::map::{Ground, LaneId, LaneKind, LaneProjection, Map, Material};
use avfi_sim::math::Vec2;
use proptest::prelude::*;

fn arb_town() -> impl Strategy<Value = TownConfig> {
    (2usize..5, 2usize..5, 60.0f64..120.0, prop::bool::ANY).prop_map(
        |(cols, rows, block, signalized)| TownConfig {
            cols,
            rows,
            block,
            signalized,
            ..TownConfig::grid(cols, rows)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every drive lane can reach every other drive lane (the lane graph of
    /// a grid town is strongly connected), so mission sampling can never
    /// dead-end.
    #[test]
    fn all_drive_lane_pairs_are_routable(cfg in arb_town()) {
        let map = TownGenerator::new(cfg).generate();
        let drive: Vec<_> = map
            .lanes()
            .iter()
            .filter(|l| l.kind() == LaneKind::Drive)
            .map(|l| l.id())
            .collect();
        prop_assert!(drive.len() >= 4);
        // Exhaustive is O(n²) with n ≤ ~50; sample a diagonal stripe.
        for (i, &a) in drive.iter().enumerate() {
            let b = drive[(i * 7 + 3) % drive.len()];
            if a == b {
                continue;
            }
            let route = plan_route(&map, a, 0.0, b);
            prop_assert!(route.is_some(), "no route {a} -> {b}");
            let route = route.unwrap();
            prop_assert!(route.length() > 0.0);
            // Route lanes alternate validity: consecutive lanes are
            // connected in the successor graph.
            for w in route.lanes().windows(2) {
                prop_assert!(
                    map.successors(w[0]).contains(&w[1]),
                    "route uses non-successor edge {} -> {}",
                    w[0],
                    w[1]
                );
            }
        }
    }

    /// Walking any lane centerline samples road-like material the whole
    /// way (lane centers are never off-pavement), and every lane start
    /// heading matches its first segment.
    #[test]
    fn lane_centerlines_are_paved(cfg in arb_town()) {
        let map = TownGenerator::new(cfg).generate();
        for lane in map.lanes() {
            let n = (lane.length() / 5.0).ceil() as usize;
            for k in 0..=n {
                let s = lane.length() * k as f64 / n.max(1) as f64;
                let p = lane.point_at(s);
                let m = map.material_at(p);
                prop_assert!(
                    !matches!(m, Material::Grass | Material::Building),
                    "{} off-pavement at s={s}: {m:?}",
                    lane.id()
                );
            }
        }
    }

    /// Projections are consistent: projecting a point on the centerline
    /// returns (approximately) its own arc length with near-zero lateral.
    #[test]
    fn lane_projection_roundtrip(cfg in arb_town(), frac in 0.0f64..1.0) {
        let map = TownGenerator::new(cfg).generate();
        for lane in map.lanes().iter().step_by(5) {
            let s = lane.length() * frac;
            let p = lane.point_at(s);
            let proj = lane.project(p);
            prop_assert!((proj.s - s).abs() < 1.5, "{}: s {s} -> {}", lane.id(), proj.s);
            prop_assert!(proj.distance < 1e-6);
        }
    }

    /// The spatial index agrees with brute force for nearest-lane queries.
    #[test]
    fn nearest_lane_matches_brute_force(cfg in arb_town(), fx in 0.05f64..0.95, fy in 0.05f64..0.95) {
        let map = TownGenerator::new(cfg).generate();
        let b = *map.bounds();
        let p = avfi_sim::math::Vec2::new(
            b.min.x + b.width() * fx,
            b.min.y + b.height() * fy,
        );
        let fast = map.lane_at(p, None, 6.0);
        let brute = map
            .lanes()
            .iter()
            .map(|l| (l.id(), l.project(p)))
            .filter(|(_, pr)| pr.distance <= 6.0)
            .min_by(|a, b| a.1.distance.partial_cmp(&b.1.distance).unwrap());
        match (fast, brute) {
            (Some((_, pf)), Some((_, pb))) => {
                prop_assert!((pf.distance - pb.distance).abs() < 1e-9);
            }
            (None, None) => {}
            (f, b) => prop_assert!(false, "index {f:?} vs brute {b:?}"),
        }
    }

    /// The map grid's queries equal full scans bit for bit: `ground_at`
    /// against every road axis and intersection, `lane_at` (with and
    /// without a heading) against every lane. Points are drawn over the
    /// bounds and beyond, beside random lanes, and at every 16 m cell
    /// corner and 1e-9 either side, where `locate` changes cell.
    #[test]
    fn grid_queries_match_full_scans(
        cfg in arb_town(),
        heading in -3.2f64..3.2,
        spread in prop::collection::vec((-0.1f64..1.1, -0.1f64..1.1), 48),
        beside in prop::collection::vec((0usize..1 << 16, 0.0f64..1.0, -9.0f64..9.0), 48),
    ) {
        let map = TownGenerator::new(cfg).generate();
        let b = *map.bounds();
        let lanes = map.lanes();
        let points = spread
            .iter()
            .map(|&(fx, fy)| Vec2::new(b.min.x + b.width() * fx, b.min.y + b.height() * fy))
            .chain(beside.iter().map(|&(k, f, off)| {
                let lane = &lanes[k % lanes.len()];
                let s = lane.length() * f;
                lane.point_at(s) + Vec2::from_angle(lane.heading_at(s)).perp() * off
            }))
            .chain(cell_corners(&map));
        for p in points {
            let (grid, scan) = (map.ground_at(p), ground_scan(&map, p));
            prop_assert!(grid == scan, "ground at {p:?}: grid {grid:?}, scan {scan:?}");
            for h in [None, Some(heading)] {
                let grid = bits(map.lane_at(p, h, 8.0));
                let scan = bits(lane_scan(&map, p, h, 8.0));
                prop_assert!(grid == scan, "lane at {p:?}, heading {h:?}: grid {grid:?}, scan {scan:?}");
            }
        }
    }
}

/// Every 16 m map-grid cell corner (the grid is anchored at the bounds'
/// origin) and the points 1e-9 either side of it on each axis.
fn cell_corners(map: &Map) -> Vec<Vec2> {
    let b = map.bounds();
    let lines = |lo: f64, hi: f64| {
        (0..)
            .map(move |k| lo + 16.0 * k as f64)
            .take_while(move |v| *v <= hi)
    };
    let mut corners = Vec::new();
    for x in lines(b.min.x, b.max.x) {
        for y in lines(b.min.y, b.max.y) {
            for jx in [-1e-9, 0.0, 1e-9] {
                for jy in [-1e-9, 0.0, 1e-9] {
                    corners.push(Vec2::new(x + jx, y + jy));
                }
            }
        }
    }
    corners
}

/// `Map::ground_at` by full scan: pavement within `half_road` of any axis
/// or inside any intersection, sidewalk within `half_road + sidewalk` but
/// off pavement, and the first containing intersection in id order.
/// (`arb_town`'s intersection areas lie inside the bounds, so the grid's
/// rule for a point off it, where an area is neither, never applies.)
fn ground_scan(map: &Map, p: Vec2) -> Ground {
    let intersection = map
        .intersections()
        .iter()
        .find(|i| i.area().contains(p))
        .map(|i| i.id());
    let within = |width: &dyn Fn(f64, f64) -> f64| {
        map.road_axes()
            .iter()
            .any(|a| a.axis.distance_to(p) <= width(a.half_road, a.sidewalk))
    };
    let drivable = intersection.is_some() || within(&|road, _| road);
    Ground {
        drivable,
        sidewalk: !drivable && within(&|road, walk| road + walk),
        intersection,
    }
}

/// `Map::lane_at` by full scan: the first nearest lane in id order among
/// those that agree with `heading`, else among all.
fn lane_scan(
    map: &Map,
    p: Vec2,
    heading: Option<f64>,
    max_dist: f64,
) -> Option<(LaneId, LaneProjection)> {
    let nearest = |agrees: &dyn Fn(f64) -> bool| {
        let mut best: Option<(LaneId, LaneProjection)> = None;
        for lane in map.lanes() {
            let proj = lane.project(p);
            if proj.distance <= max_dist
                && agrees(lane.heading_at(proj.s))
                && best.is_none_or(|(_, b)| proj.distance < b.distance)
            {
                best = Some((lane.id(), proj));
            }
        }
        best
    };
    heading
        .and_then(|h| {
            nearest(&|lane_heading| Vec2::from_angle(h).dot(Vec2::from_angle(lane_heading)) > 0.0)
        })
        .or_else(|| nearest(&|_| true))
}

/// A lane answer with its projection as raw bits, so `-0.0` and `0.0`
/// differ.
fn bits(found: Option<(LaneId, LaneProjection)>) -> Option<(LaneId, [u64; 3])> {
    found.map(|(id, pr)| {
        (
            id,
            [pr.s.to_bits(), pr.lateral.to_bits(), pr.distance.to_bits()],
        )
    })
}
