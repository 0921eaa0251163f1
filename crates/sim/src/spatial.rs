//! Uniform-grid spatial index for dynamic actors.
//!
//! The world keeps every NPC vehicle and pedestrian in a [`SpatialIndex`]
//! so neighbor queries (lead-vehicle search, collision checks, LIDAR
//! obstacle culling) cost O(nearby) instead of O(population). The grid is
//! updated incrementally as agents move: an agent's entry is rewritten only
//! when its decision step runs, so dormant agents cost nothing per frame.
//!
//! ## Boundary convention
//!
//! Cells are half-open squares: cell `(i, j)` covers
//! `[i·cell, (i+1)·cell) × [j·cell, (j+1)·cell)` (coordinates are mapped
//! with `floor(p / cell)`). A point exactly on a cell boundary therefore
//! belongs to the cell on its upper side, and a query radius that touches a
//! boundary exactly still visits both cells because the candidate cell
//! range is computed from the floor of `center ± radius`.
//!
//! ## Dense grid and clamping
//!
//! The cells form one dense array over a bounding box fixed at
//! construction (the world passes [`crate::map::Map::bounds`]). A point
//! outside the box is stored in the nearest border cell, and a query's
//! cell range is clamped the same way. Clamping is monotone, so every cell
//! an unbounded walk over `floor(center ± radius)` would visit maps into
//! the clamped range: the walk sees a superset of the unbounded walk's
//! keys, and the exact distance filter then decides the answer. Inside the
//! box the two walks are the same walk.
//!
//! ## Determinism
//!
//! Query results are sorted by key before they are returned, so the answer
//! never depends on insertion history or on bucket order — a requirement
//! for the bit-reproducible campaign goldens.

use crate::math::{Aabb, Vec2};

/// A uniform-grid point index over small integer keys.
///
/// Keys are dense `u32` handles (the world uses stable actor spawn ids).
/// Each key holds at most one position; [`SpatialIndex::update`] moves it
/// between cells only when the containing cell actually changes.
#[derive(Debug, Clone)]
pub struct SpatialIndex {
    cell: f64,
    /// Cell coordinates of the grid's lowest and highest cell.
    lo: (i32, i32),
    hi: (i32, i32),
    /// Row-major cell buckets, `hi.0 - lo.0 + 1` per row.
    cells: Vec<Vec<u32>>,
    /// Per-key stored position and bucket index (`None` = absent).
    entries: Vec<Option<(Vec2, usize)>>,
}

impl SpatialIndex {
    /// Creates an empty index with the given cell edge length (meters)
    /// whose grid covers `bounds`.
    ///
    /// The cell size should be on the order of the dominant interaction
    /// radius; queries pay for `O((r / cell)²)` cell visits (at most the
    /// whole grid) plus the candidates they contain.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is not strictly positive and finite.
    pub fn new(cell: f64, bounds: &Aabb) -> Self {
        assert!(cell.is_finite() && cell > 0.0, "cell size must be positive");
        let floor = |v: f64| (v / cell).floor() as i32;
        let lo = (floor(bounds.min.x), floor(bounds.min.y));
        let hi = (floor(bounds.max.x).max(lo.0), floor(bounds.max.y).max(lo.1));
        let span = |a: i32, b: i32| b.abs_diff(a) as usize + 1;
        SpatialIndex {
            cell,
            lo,
            hi,
            cells: vec![Vec::new(); span(lo.0, hi.0) * span(lo.1, hi.1)],
            entries: Vec::new(),
        }
    }

    /// Number of indexed keys.
    pub fn len(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    /// `true` when no key is indexed.
    pub fn is_empty(&self) -> bool {
        self.entries.iter().all(|e| e.is_none())
    }

    /// The grid cell holding `p`: `floor(p / cell)` on each axis (half-open
    /// convention, see module docs), clamped to the grid.
    pub fn cell_of(&self, p: Vec2) -> (i32, i32) {
        (
            ((p.x / self.cell).floor() as i32).clamp(self.lo.0, self.hi.0),
            ((p.y / self.cell).floor() as i32).clamp(self.lo.1, self.hi.1),
        )
    }

    /// Index into `cells` of a cell inside the grid.
    fn bucket(&self, (cx, cy): (i32, i32)) -> usize {
        let row = self.hi.0.abs_diff(self.lo.0) as usize + 1;
        cy.abs_diff(self.lo.1) as usize * row + cx.abs_diff(self.lo.0) as usize
    }

    /// The stored position for `key`, if indexed.
    pub fn stored(&self, key: u32) -> Option<Vec2> {
        self.entries
            .get(key as usize)
            .and_then(|e| e.map(|(p, _)| p))
    }

    /// Inserts `key` at `pos`, or moves it there if already present.
    ///
    /// The cell bucket is rewritten only when the containing cell changes,
    /// so updating a slow-moving agent every decision step is cheap.
    pub fn update(&mut self, key: u32, pos: Vec2) {
        let idx = key as usize;
        if idx >= self.entries.len() {
            self.entries.resize(idx + 1, None);
        }
        let bucket = self.bucket(self.cell_of(pos));
        match self.entries[idx] {
            Some((_, old)) if old == bucket => {}
            Some((_, old)) => {
                remove_from_bucket(&mut self.cells[old], key);
                self.cells[bucket].push(key);
            }
            None => self.cells[bucket].push(key),
        }
        self.entries[idx] = Some((pos, bucket));
    }

    /// Removes `key` from the index (no-op when absent).
    pub fn remove(&mut self, key: u32) {
        let idx = key as usize;
        if let Some(Some((_, bucket))) = self.entries.get(idx).copied() {
            remove_from_bucket(&mut self.cells[bucket], key);
            self.entries[idx] = None;
        }
    }

    /// Collects every key whose *stored* position lies within `radius` of
    /// `center` (inclusive), sorted ascending by key.
    ///
    /// Stored positions are where the agents last updated themselves;
    /// callers querying for agents that drift between updates must inflate
    /// `radius` by the maximum drift and re-filter with their exact
    /// predicate.
    pub fn query_circle(&self, center: Vec2, radius: f64, out: &mut Vec<u32>) {
        out.clear();
        if radius < 0.0 {
            return;
        }
        let r_sq = radius * radius;
        let min = self.cell_of(Vec2::new(center.x - radius, center.y - radius));
        let max = self.cell_of(Vec2::new(center.x + radius, center.y + radius));
        let cols = max.0.abs_diff(min.0) as usize;
        for cy in min.1..=max.1 {
            let first = self.bucket((min.0, cy));
            for bucket in &self.cells[first..=first + cols] {
                for &key in bucket {
                    let (pos, _) =
                        self.entries[key as usize].expect("bucket entries are always indexed");
                    if pos.distance_sq(center) <= r_sq {
                        out.push(key);
                    }
                }
            }
        }
        out.sort_unstable();
    }

    /// Full-scan reference for [`SpatialIndex::query_circle`]: identical
    /// contract, O(total keys). Retained as the differential oracle for the
    /// grid walk (see `tests/spatial_index.rs`); production code must use
    /// `query_circle`.
    pub fn query_circle_reference(&self, center: Vec2, radius: f64, out: &mut Vec<u32>) {
        out.clear();
        if radius < 0.0 {
            return;
        }
        let r_sq = radius * radius;
        for (key, entry) in self.entries.iter().enumerate() {
            if let Some((pos, _)) = entry {
                if pos.distance_sq(center) <= r_sq {
                    out.push(key as u32);
                }
            }
        }
    }
}

fn remove_from_bucket(bucket: &mut Vec<u32>, key: u32) {
    let at = bucket
        .iter()
        .position(|&k| k == key)
        .expect("key present in its recorded cell");
    bucket.swap_remove(at);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An index whose grid spans ±200 m, wider than every test point.
    fn index(cell: f64) -> SpatialIndex {
        SpatialIndex::new(
            cell,
            &Aabb::new(Vec2::new(-200.0, -200.0), Vec2::new(200.0, 200.0)),
        )
    }

    #[test]
    fn insert_query_remove_roundtrip() {
        let mut idx = index(10.0);
        idx.update(0, Vec2::new(1.0, 1.0));
        idx.update(1, Vec2::new(4.0, 1.0));
        idx.update(2, Vec2::new(100.0, 100.0));
        let mut out = Vec::new();
        idx.query_circle(Vec2::new(0.0, 0.0), 6.0, &mut out);
        assert_eq!(out, vec![0, 1]);
        idx.remove(0);
        idx.query_circle(Vec2::new(0.0, 0.0), 6.0, &mut out);
        assert_eq!(out, vec![1]);
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn update_moves_between_cells() {
        let mut idx = index(5.0);
        idx.update(7, Vec2::new(1.0, 1.0));
        idx.update(7, Vec2::new(26.0, 1.0));
        let mut out = Vec::new();
        idx.query_circle(Vec2::new(1.0, 1.0), 3.0, &mut out);
        assert!(out.is_empty());
        idx.query_circle(Vec2::new(26.0, 1.0), 3.0, &mut out);
        assert_eq!(out, vec![7]);
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn boundary_points_and_radius_are_inclusive() {
        let mut idx = index(10.0);
        // Exactly on the cell boundary: belongs to the upper cell but must
        // still be found from either side.
        idx.update(0, Vec2::new(10.0, 0.0));
        let mut out = Vec::new();
        idx.query_circle(Vec2::new(9.0, 0.0), 1.0, &mut out);
        assert_eq!(out, vec![0], "boundary point missed from lower cell");
        idx.query_circle(Vec2::new(11.0, 0.0), 1.0, &mut out);
        assert_eq!(out, vec![0], "boundary point missed from upper cell");
        // Distance exactly equal to the radius is included.
        idx.query_circle(Vec2::new(13.0, 0.0), 3.0, &mut out);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn coincident_keys_all_reported_sorted() {
        let mut idx = index(4.0);
        for key in [3, 0, 2, 1] {
            idx.update(key, Vec2::new(-7.5, 2.5));
        }
        let mut out = Vec::new();
        idx.query_circle(Vec2::new(-7.5, 2.5), 0.0, &mut out);
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    /// Inside the grid a cell is the floor of `p / cell`, also below zero;
    /// outside it (and for NaN, which `as i32` maps to 0) the floor is
    /// clamped to the border cell.
    #[test]
    fn negative_coordinates_floor_correctly() {
        let idx = SpatialIndex::new(
            10.0,
            &Aabb::new(Vec2::new(-30.0, -30.0), Vec2::new(25.0, 30.0)),
        );
        assert_eq!(idx.cell_of(Vec2::new(-0.5, -10.0)), (-1, -1));
        assert_eq!(idx.cell_of(Vec2::new(0.0, -10.1)), (0, -2));
        assert_eq!(idx.cell_of(Vec2::new(-30.0, 29.9)), (-3, 2));
        assert_eq!(idx.cell_of(Vec2::new(-30.1, 30.0)), (-3, 3));
        assert_eq!(idx.cell_of(Vec2::new(-1e9, 1e300)), (-3, 3));
        assert_eq!(idx.cell_of(Vec2::new(f64::INFINITY, -45.0)), (2, -3));
        assert_eq!(idx.cell_of(Vec2::new(f64::NAN, 1e-300)), (0, 0));
    }

    #[test]
    fn matches_reference_on_a_small_cloud() {
        let mut idx = index(7.0);
        for k in 0..40u32 {
            let a = k as f64 * 0.7;
            idx.update(k, Vec2::new(a.sin() * 30.0, a.cos() * 30.0));
        }
        let mut fast = Vec::new();
        let mut slow = Vec::new();
        for q in 0..20 {
            let c = Vec2::new((q as f64).sin() * 25.0, (q as f64 * 1.3).cos() * 25.0);
            idx.query_circle(c, 12.0, &mut fast);
            idx.query_circle_reference(c, 12.0, &mut slow);
            assert_eq!(fast, slow);
        }
    }
}
