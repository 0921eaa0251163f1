//! Differential oracle for the uniform-grid spatial index: on randomized
//! agent clouds and adversarial hand-picked cases, the grid-walk query
//! must return exactly the same key set as the full-scan reference —
//! including after arbitrary interleavings of `update` (moves) and
//! `remove` (despawns), and for points and queries outside the grid's
//! bounds, which the index clamps into its border cells.
//!
//! The world routes every neighbor query (lead-vehicle search, collision
//! checks, LIDAR culling) through [`SpatialIndex::query_circle`]; any
//! divergence from the O(n) scan would silently change campaign goldens,
//! so the oracle is exercised both in bulk and per-mutation.

use avfi_sim::math::{Aabb, Vec2};
use avfi_sim::spatial::SpatialIndex;
use proptest::prelude::*;

/// Grid bounds that cover every test point.
fn wide() -> Aabb {
    Aabb::new(Vec2::new(-500.0, -500.0), Vec2::new(500.0, 500.0))
}

/// Random grid bounds inside the ±130 m the clouds span, from a point
/// (one clamped cell for everything) to most of the cloud, so many
/// points and query ranges fall outside and clamp to border cells.
fn arb_bounds() -> impl Strategy<Value = Aabb> {
    (-90.0f64..40.0, -90.0f64..40.0, 0.0f64..120.0, 0.0f64..120.0)
        .prop_map(|(x, y, w, h)| Aabb::new(Vec2::new(x, y), Vec2::new(x + w, y + h)))
}

/// One scripted mutation of the index under test.
#[derive(Debug, Clone)]
enum Op {
    /// Insert-or-move `key` to `(x, y)`.
    Update(u32, f64, f64),
    /// Despawn `key` (may be absent; `remove` must be a no-op then).
    Remove(u32),
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0u32..48, -130.0f64..130.0, -130.0f64..130.0, 0u8..4).prop_map(|(key, x, y, kind)| {
        if kind == 0 {
            Op::Remove(key)
        } else {
            Op::Update(key, x, y)
        }
    })
}

/// Snaps about half of the coordinates onto exact cell-boundary
/// multiples so the half-open ownership convention is stressed, not just
/// generic interior points.
fn snap_to_boundary(v: f64, cell: f64) -> f64 {
    if (v * 16.0).rem_euclid(2.0) < 1.0 {
        (v / cell).round() * cell
    } else {
        v
    }
}

fn assert_query_matches(idx: &SpatialIndex, center: Vec2, radius: f64) -> Result<(), String> {
    let mut fast = Vec::new();
    let mut slow = Vec::new();
    idx.query_circle(center, radius, &mut fast);
    idx.query_circle_reference(center, radius, &mut slow);
    prop_assert!(
        fast == slow,
        "grid walk {:?} != full scan {:?} at center {:?} radius {}",
        fast,
        slow,
        center,
        radius
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Static clouds: for any set of points (some snapped onto exact cell
    /// boundaries) and any query circle, the grid walk and the full scan
    /// agree exactly.
    #[test]
    fn random_cloud_matches_full_scan(
        cell in 2.0f64..25.0,
        points in prop::collection::vec((-120.0f64..120.0, -120.0f64..120.0), 0..64),
        qx in -140.0f64..140.0,
        qy in -140.0f64..140.0,
        radius in 0.0f64..80.0,
    ) {
        let mut idx = SpatialIndex::new(cell, &wide());
        for (key, &(x, y)) in points.iter().enumerate() {
            let p = Vec2::new(snap_to_boundary(x, cell), snap_to_boundary(y, cell));
            idx.update(key as u32, p);
        }
        let center = Vec2::new(snap_to_boundary(qx, cell), snap_to_boundary(qy, cell));
        assert_query_matches(&idx, center, radius)?;
        // A radius that lands exactly on a cell-boundary multiple is the
        // worst case for the candidate-cell range computation.
        assert_query_matches(&idx, center, cell)?;
        assert_query_matches(&idx, center, 2.0 * cell)?;
    }

    /// Dynamic clouds: after every single update/remove in a random
    /// script, queries through several circles still agree with the full
    /// scan, and the stored position reflects the latest update.
    #[test]
    fn interleaved_updates_and_removes_stay_consistent(
        cell in 2.0f64..20.0,
        ops in prop::collection::vec(arb_op(), 1..80),
        radius in 0.0f64..60.0,
        bounds in arb_bounds(),
    ) {
        let mut idx = SpatialIndex::new(cell, &bounds);
        for op in &ops {
            let probe = match *op {
                Op::Update(key, x, y) => {
                    let p = Vec2::new(snap_to_boundary(x, cell), snap_to_boundary(y, cell));
                    idx.update(key, p);
                    prop_assert_eq!(idx.stored(key), Some(p));
                    p
                }
                Op::Remove(key) => {
                    idx.remove(key);
                    prop_assert_eq!(idx.stored(key), None);
                    Vec2::new(0.0, 0.0)
                }
            };
            assert_query_matches(&idx, probe, radius)?;
        }
        // Sweep a grid of query centers over the final state, including
        // far outside the populated area (all-empty cell ranges).
        for gx in -2..=2 {
            for gy in -2..=2 {
                let c = Vec2::new(gx as f64 * 70.0, gy as f64 * 70.0);
                assert_query_matches(&idx, c, radius)?;
            }
        }
    }

    /// Coincident stacks: many keys on the same point (a spawn-burst
    /// pathology) are all reported, sorted, from any cell size.
    #[test]
    fn coincident_stacks_report_every_key(
        cell in 1.0f64..15.0,
        x in -50.0f64..50.0,
        y in -50.0f64..50.0,
        n in 1usize..24,
    ) {
        let mut idx = SpatialIndex::new(cell, &wide());
        let p = Vec2::new(snap_to_boundary(x, cell), snap_to_boundary(y, cell));
        // Insert in reverse order so sortedness is not an accident of
        // insertion.
        for i in (0..n).rev() {
            idx.update(i as u32, p);
        }
        let mut out = Vec::new();
        idx.query_circle(p, 0.0, &mut out);
        let expect: Vec<u32> = (0..n as u32).collect();
        prop_assert_eq!(out, expect);
    }

    /// Clamped cells: with grid bounds smaller than the cloud, points
    /// outside the bounds share border cells with points inside them, and
    /// every query (inside, straddling or wholly outside the bounds, some
    /// centered on a bounds edge) still agrees with the full scan.
    #[test]
    fn points_outside_the_bounds_clamp_and_match_full_scan(
        cell in 2.0f64..25.0,
        bounds in arb_bounds(),
        points in prop::collection::vec((-130.0f64..130.0, -130.0f64..130.0), 0..64),
        queries in prop::collection::vec((-160.0f64..160.0, -160.0f64..160.0, 0.0f64..90.0), 1..12),
    ) {
        let mut idx = SpatialIndex::new(cell, &bounds);
        for (key, &(x, y)) in points.iter().enumerate() {
            let p = Vec2::new(snap_to_boundary(x, cell), snap_to_boundary(y, cell));
            idx.update(key as u32, p);
        }
        for &(qx, qy, radius) in &queries {
            assert_query_matches(&idx, Vec2::new(qx, qy), radius)?;
        }
        let edges = [bounds.min, bounds.max, Vec2::new(bounds.min.x, bounds.max.y)];
        for c in edges {
            assert_query_matches(&idx, c, queries[0].2)?;
            assert_query_matches(&idx, c, cell)?;
        }
    }
}

/// A point sitting exactly on a cell corner belongs to the upper-right
/// cell but must be visible to queries approaching from all four
/// quadrants.
#[test]
fn corner_point_visible_from_all_quadrants() {
    let cell = 10.0;
    let mut idx = SpatialIndex::new(cell, &wide());
    idx.update(0, Vec2::new(30.0, -20.0)); // exact corner of four cells
    let mut out = Vec::new();
    for (dx, dy) in [(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)] {
        let c = Vec2::new(30.0 + 2.0 * dx, -20.0 + 2.0 * dy);
        idx.query_circle(c, 3.0, &mut out);
        assert_eq!(
            out,
            vec![0],
            "missed corner point from quadrant ({dx},{dy})"
        );
    }
}

/// Queries over entirely empty regions — empty index, cleared index, and
/// populated index probed far away — return nothing and never panic.
#[test]
fn empty_cells_and_empty_index_yield_nothing() {
    let mut idx = SpatialIndex::new(8.0, &wide());
    let mut out = vec![99]; // stale content must be cleared
    idx.query_circle(Vec2::new(0.0, 0.0), 50.0, &mut out);
    assert!(out.is_empty());

    idx.update(5, Vec2::new(1.0, 1.0));
    idx.query_circle(Vec2::new(400.0, 400.0), 30.0, &mut out);
    assert!(out.is_empty(), "distant probe crossed only empty cells");

    idx.remove(5);
    idx.remove(5); // double-remove is a no-op
    assert!(idx.is_empty());
    idx.query_circle(Vec2::new(1.0, 1.0), 10.0, &mut out);
    assert!(out.is_empty());
}

/// A negative radius matches nothing (guard against NaN-ish callers),
/// and a zero radius matches only exact hits.
#[test]
fn degenerate_radii() {
    let mut idx = SpatialIndex::new(5.0, &wide());
    idx.update(0, Vec2::new(2.0, 2.0));
    let mut out = Vec::new();
    idx.query_circle(Vec2::new(2.0, 2.0), -1.0, &mut out);
    assert!(out.is_empty());
    idx.query_circle(Vec2::new(2.0, 2.0), 0.0, &mut out);
    assert_eq!(out, vec![0]);
    idx.query_circle(Vec2::new(2.0, 2.0 + 1e-9), 0.0, &mut out);
    assert!(out.is_empty());
}

/// A grid over a single cell holds everything in that cell: far-away
/// points, points beyond every edge and non-finite queries all clamp into
/// it, and the exact distance filter still picks the answer.
#[test]
fn single_cell_grid_clamps_everything() {
    let bounds = Aabb::new(Vec2::new(1.0, 1.0), Vec2::new(2.0, 2.0));
    let mut idx = SpatialIndex::new(10.0, &bounds);
    let far = [(-1e6, 3.0), (3.0, 1e6), (1e6, -1e6), (1.5, 1.5)];
    for (key, &(x, y)) in far.iter().enumerate() {
        idx.update(key as u32, Vec2::new(x, y));
        assert_eq!(idx.cell_of(Vec2::new(x, y)), (0, 0));
    }
    let mut out = Vec::new();
    idx.query_circle(Vec2::new(-1e6, 0.0), 5.0, &mut out);
    assert_eq!(out, vec![0]);
    idx.query_circle(Vec2::new(0.0, 0.0), f64::INFINITY, &mut out);
    assert_eq!(out, vec![0, 1, 2, 3]);
    idx.query_circle(Vec2::new(f64::NAN, 0.0), 1e9, &mut out);
    assert!(out.is_empty());
}
