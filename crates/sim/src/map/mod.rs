//! Urban road-network map: lanes, intersections, buildings, and spatial
//! queries (nearest lane, drivable-area tests, ground materials for the
//! camera rasterizer).

mod intersection;
mod lane;
pub mod route;
pub mod town;

pub use intersection::{Intersection, IntersectionId, LightState, SignalGroup, SignalTiming};
pub use lane::{Lane, LaneId, LaneKind, LaneProjection, TurnKind};

use crate::math::{Aabb, Segment, Vec2};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Ground material at a world point, sampled by the camera rasterizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Material {
    /// Off-road terrain.
    Grass,
    /// Pedestrian sidewalk bordering a road.
    Sidewalk,
    /// Asphalt driving surface.
    Road,
    /// Yellow center line separating opposing lanes.
    MarkCenter,
    /// White edge line at the road boundary.
    MarkEdge,
    /// Building footprint.
    Building,
}

/// One road corridor: the straight axis between two intersections, carrying
/// one lane in each direction plus sidewalks.
#[derive(Debug, Clone)]
pub struct RoadAxis {
    /// Axis segment from one intersection boundary to the other.
    pub axis: Segment,
    /// Half-width of the paved road (covers both lanes).
    pub half_road: f64,
    /// Additional sidewalk width beyond the pavement on each side.
    pub sidewalk: f64,
}

impl RoadAxis {
    /// Loose bounding box including the sidewalks.
    pub fn bounds(&self) -> Aabb {
        Aabb::new(self.axis.a, self.axis.b).inflated(self.half_road + self.sidewalk)
    }
}

/// Raw components a map builder assembles; see [`Map::from_parts`].
#[derive(Debug, Clone, Default)]
pub struct MapParts {
    /// All lanes, indexed by `LaneId`.
    pub lanes: Vec<Lane>,
    /// Successor adjacency (same indexing as `lanes`).
    pub successors: Vec<Vec<LaneId>>,
    /// All intersections, indexed by `IntersectionId`.
    pub intersections: Vec<Intersection>,
    /// Maps an incoming drive lane to the intersection it feeds.
    pub lane_to_intersection: HashMap<LaneId, IntersectionId>,
    /// Road corridors (for rendering and drivable-area tests).
    pub road_axes: Vec<RoadAxis>,
    /// Building footprints.
    pub buildings: Vec<Aabb>,
}

/// An immutable road-network map with spatial indexes.
#[derive(Debug, Clone)]
pub struct Map {
    lanes: Vec<Lane>,
    successors: Vec<Vec<LaneId>>,
    intersections: Vec<Intersection>,
    lane_to_intersection: HashMap<LaneId, IntersectionId>,
    road_axes: Vec<RoadAxis>,
    buildings: Vec<Aabb>,
    bounds: Aabb,
    grid: MapGrid,
}

impl Map {
    /// Assembles a map from builder output, computing bounds and spatial
    /// indexes.
    ///
    /// # Panics
    ///
    /// Panics if `successors` length differs from `lanes` or references an
    /// unknown lane.
    pub fn from_parts(parts: MapParts) -> Self {
        let MapParts {
            lanes,
            successors,
            intersections,
            lane_to_intersection,
            road_axes,
            buildings,
        } = parts;
        assert_eq!(
            lanes.len(),
            successors.len(),
            "successor table must match lane count"
        );
        for s in successors.iter().flatten() {
            assert!((s.0 as usize) < lanes.len(), "successor {s} out of range");
        }
        let mut bounds: Option<Aabb> = None;
        for axis in &road_axes {
            let b = axis.bounds();
            bounds = Some(match bounds {
                Some(acc) => acc.union(&b),
                None => b,
            });
        }
        for b in &buildings {
            bounds = Some(match bounds {
                Some(acc) => acc.union(b),
                None => *b,
            });
        }
        for l in &lanes {
            for p in l.points() {
                let b = Aabb::new(*p, *p);
                bounds = Some(match bounds {
                    Some(acc) => acc.union(&b),
                    None => b,
                });
            }
        }
        let bounds = bounds
            .unwrap_or(Aabb::new(Vec2::ZERO, Vec2::new(1.0, 1.0)))
            .inflated(20.0);
        let grid = MapGrid::build(&bounds, &lanes, &road_axes, &buildings, &intersections);
        Map {
            lanes,
            successors,
            intersections,
            lane_to_intersection,
            road_axes,
            buildings,
            bounds,
            grid,
        }
    }

    /// All lanes.
    #[inline]
    pub fn lanes(&self) -> &[Lane] {
        &self.lanes
    }

    /// Looks up a lane by id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this map.
    #[inline]
    pub fn lane(&self, id: LaneId) -> &Lane {
        &self.lanes[id.0 as usize]
    }

    /// Successor lanes of `id`.
    #[inline]
    pub fn successors(&self, id: LaneId) -> &[LaneId] {
        &self.successors[id.0 as usize]
    }

    /// All intersections.
    #[inline]
    pub fn intersections(&self) -> &[Intersection] {
        &self.intersections
    }

    /// Looks up an intersection by id.
    #[inline]
    pub fn intersection(&self, id: IntersectionId) -> &Intersection {
        &self.intersections[id.0 as usize]
    }

    /// The intersection an incoming drive lane feeds, if any.
    #[inline]
    pub fn intersection_after(&self, lane: LaneId) -> Option<IntersectionId> {
        self.lane_to_intersection.get(&lane).copied()
    }

    /// Road corridors.
    #[inline]
    pub fn road_axes(&self) -> &[RoadAxis] {
        &self.road_axes
    }

    /// Building footprints.
    #[inline]
    pub fn buildings(&self) -> &[Aabb] {
        &self.buildings
    }

    /// World bounds (all content plus margin).
    #[inline]
    pub fn bounds(&self) -> &Aabb {
        &self.bounds
    }

    /// The lane under `p`: the nearest lane within `max_dist` of its
    /// centerline whose direction agrees with `heading` (within 90°), else
    /// the nearest of any direction; a tie goes to the first in id order.
    ///
    /// Matching the direction first finds the lane a vehicle is legally
    /// *in*: a car that crossed the center line is still matched against
    /// its own-direction lane, so the violation monitor sees the departure
    /// instead of silently re-associating with the opposing lane.
    pub fn lane_at(
        &self,
        p: Vec2,
        heading: Option<f64>,
        max_dist: f64,
    ) -> Option<(LaneId, LaneProjection)> {
        let g = &self.grid;
        let c = g.index(g.locate(p)?);
        let fwd = heading.map(Vec2::from_angle);
        let (mut along, mut any) = (None, None);
        for &id in &g.lanes[g.lane_start[c] as usize..g.lane_start[c + 1] as usize] {
            let lane = self.lane(id);
            let proj = lane.project(p);
            if proj.distance > max_dist {
                continue;
            }
            if fwd.is_some_and(|f| f.dot(Vec2::from_angle(lane.heading_at(proj.s))) > 0.0) {
                keep_nearer(&mut along, id, proj);
            }
            keep_nearer(&mut any, id, proj);
        }
        along.or(any)
    }

    /// What lies under `p`, from one cell lookup: pavement is within
    /// `half_road` of a road axis ([`Segment::distance_to`]) or inside an
    /// intersection area, and sidewalk is within `half_road + sidewalk`
    /// of an axis but not on pavement. Off the grid, which spans
    /// [`Map::bounds`], nothing is pavement or sidewalk, but an
    /// intersection area wide enough to overhang the bounds still counts.
    pub fn ground_at(&self, p: Vec2) -> Ground {
        let g = &self.grid;
        let Some(c) = g.locate(p).map(|cell| g.cells[g.index(cell)]) else {
            let area = self.intersections.iter().find(|i| i.area().contains(p));
            let intersection = area.map(Intersection::id);
            return Ground {
                intersection,
                ..Ground::default()
            };
        };
        let intersection = (c.i0 as usize..c.i1 as usize)
            .find(|&k| g.isect_areas[k].contains(p))
            .map(|k| g.isect_ids[k]);
        let (mut road, mut walk) = (intersection.is_some(), false);
        for &k in &g.axis_ids[c.a0 as usize..c.a1 as usize] {
            let axis = &self.road_axes[k as usize];
            let d = axis.axis.distance_to(p);
            road |= d <= axis.half_road;
            walk |= d <= axis.half_road + axis.sidewalk;
        }
        Ground {
            drivable: road,
            sidewalk: walk && !road,
            intersection,
        }
    }

    /// Ground material at a world point.
    ///
    /// The camera's per-pixel reference pass calls this once per ground
    /// pixel, and [`Map::classify_ground_row`] verifies each of its probes
    /// with the same cell lookup and classification, so both passes take
    /// every ground decision from one function.
    #[inline]
    pub fn material_at(&self, p: Vec2) -> Material {
        self.grid.material_at(p)
    }

    /// Classifies the ground materials of one camera image row
    /// analytically and emits maximal constant-material spans.
    ///
    /// Within one row, ground hits march along a straight world-space line
    /// `p(x) = base + x · step` (`x` = pixel index). Material boundaries
    /// along that line are roots of per-geometry quadratics (axis band
    /// thresholds, nearest-axis ties, rectangle edges, grid-cell
    /// crossings); this solves them once per row and verifies each
    /// candidate with the exact per-pixel classifier, so the emitted spans
    /// are bit-identical to querying [`Map::material_at`] per pixel.
    ///
    /// `exact(x)` must return the *exact* world point the per-pixel path
    /// would query for pixel `x` (the camera computes it from its ray
    /// table); the line's `base`/`step` only steer the analytic root
    /// search and may differ from `exact` by floating-point rounding.
    /// `emit(start, end, material)` is called for maximal spans
    /// `[start, end)` covering the line's `[x0, x1)` in order.
    pub fn classify_ground_row(
        &self,
        scratch: &mut SpanScratch,
        line: RowLine,
        exact: impl Fn(u32) -> Vec2,
        emit: impl FnMut(u32, u32, Material),
    ) {
        self.grid.classify_ground_row(scratch, line, exact, emit)
    }
}

/// The world-space line one camera image row marches along: pixel `x`
/// maps to `p(x) = base + x · step`, over the pixel range `[x0, x1)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowLine {
    /// World point of pixel 0 under the linear model.
    pub base: Vec2,
    /// World-space step per pixel.
    pub step: Vec2,
    /// First pixel of the run (inclusive).
    pub x0: u32,
    /// One past the last pixel of the run.
    pub x1: u32,
}

/// What lies under a point; see [`Map::ground_at`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ground {
    /// On pavement: a road corridor or an intersection area.
    pub drivable: bool,
    /// On a sidewalk: beside pavement, not on it.
    pub sidewalk: bool,
    /// The first intersection, in id order, whose area contains the point.
    pub intersection: Option<IntersectionId>,
}

/// Keeps `best` unless `proj` is strictly nearer, so a tie goes to the
/// lane seen first.
fn keep_nearer(best: &mut Option<(LaneId, LaneProjection)>, id: LaneId, proj: LaneProjection) {
    match best {
        Some((_, b)) if b.distance <= proj.distance => {}
        _ => *best = Some((id, proj)),
    }
}

/// Side of a [`MapGrid`] cell, meters. A power of two, so multiplying by
/// [`INV_CELL`] is exact division.
const CELL: f64 = 16.0;
const INV_CELL: f64 = 1.0 / CELL;

/// The map's one index over its static geometry: uniform cells over
/// [`Map::bounds`], each listing, in id order, the buildings, intersection
/// areas, road axes and lanes whose boxes reach it, packed cell by cell
/// into one array per kind. The camera's classifier reads the geometry
/// copied inline; [`Map::ground_at`] and [`Map::lane_at`] read the
/// parallel id arrays and measure with the map's own geometry.
#[derive(Debug, Clone)]
struct MapGrid {
    origin: Vec2,
    nx: usize,
    ny: usize,
    cells: Vec<MatCell>,
    buildings: Vec<Aabb>,
    isect_areas: Vec<Aabb>,
    /// The intersection of each `isect_areas` record.
    isect_ids: Vec<IntersectionId>,
    axes: Vec<MatAxis>,
    /// The [`Map::road_axes`] index of each `axes` record.
    axis_ids: Vec<u32>,
    /// Cell `c` lists `lanes[lane_start[c]..lane_start[c + 1]]`.
    lane_start: Vec<u32>,
    lanes: Vec<LaneId>,
}

/// Per-cell `[start, end)` ranges into the [`MapGrid`] record arrays.
#[derive(Debug, Clone, Copy)]
struct MatCell {
    b0: u32,
    b1: u32,
    i0: u32,
    i1: u32,
    a0: u32,
    a1: u32,
}

/// One road axis, pre-digested for point classification: the segment is
/// stored as origin + direction with the inverse squared length baked in,
/// so the per-pixel closest-point query needs no division and no
/// degenerate-segment branch.
#[derive(Debug, Clone, Copy)]
struct MatAxis {
    a: Vec2,
    /// `b - a`.
    d: Vec2,
    /// `1 / |d|²`, or 0 for degenerate segments (forces `t = 0`).
    inv_len2: f64,
    /// `half_road²`: inside the pavement.
    road_sq: f64,
    /// `max(half_road - 2·MARK_HALF, 0)²`: at or beyond the edge marking.
    edge_lo_sq: f64,
    /// `(half_road + sidewalk)²`: inside the sidewalk band.
    walk_sq: f64,
}

/// Half-width of a painted lane marking, meters.
const MARK_HALF: f64 = 0.15;

impl MatAxis {
    fn new(axis: &RoadAxis) -> Self {
        let d = axis.axis.b - axis.axis.a;
        let len2 = d.norm_sq();
        let edge_lo = (axis.half_road - 2.0 * MARK_HALF).max(0.0);
        MatAxis {
            a: axis.axis.a,
            d,
            inv_len2: if len2 < 1e-24 { 0.0 } else { 1.0 / len2 },
            road_sq: axis.half_road * axis.half_road,
            edge_lo_sq: edge_lo * edge_lo,
            walk_sq: (axis.half_road + axis.sidewalk) * (axis.half_road + axis.sidewalk),
        }
    }

    /// Squared distance from `p` to the axis segment.
    #[inline]
    fn distance_sq(&self, p: Vec2) -> f64 {
        let t = ((p - self.a).dot(self.d) * self.inv_len2).clamp(0.0, 1.0);
        (p - (self.a + self.d * t)).norm_sq()
    }
}

impl MapGrid {
    /// Lists each geometry in every cell its box reaches: a building's bare
    /// footprint, an intersection area grown by 2 m, a road axis's sidewalk
    /// box grown by 2 m, and a lane's box grown by its width + 8 m (so a
    /// lane search of up to 8 m finds it).
    fn build(
        bounds: &Aabb,
        lanes: &[Lane],
        road_axes: &[RoadAxis],
        buildings: &[Aabb],
        intersections: &[Intersection],
    ) -> Self {
        let origin = bounds.min;
        let nx = ((bounds.width() / CELL).ceil() as usize).max(1);
        let ny = ((bounds.height() / CELL).ceil() as usize).max(1);
        let pack = |boxes: &[Aabb]| pack_cells(origin, nx, ny, boxes);
        let grown = |boxes: &mut dyn Iterator<Item = Aabb>| pack(&boxes.collect::<Vec<_>>());
        let (b_at, b) = pack(buildings);
        let (i_at, i) = grown(&mut intersections.iter().map(|x| x.area().inflated(2.0)));
        let (a_at, a) = grown(&mut road_axes.iter().map(|x| x.bounds().inflated(2.0)));
        let (lane_start, l) =
            grown(&mut lanes.iter().map(|x| x.bounds().inflated(x.width() + 8.0)));
        MapGrid {
            origin,
            nx,
            ny,
            cells: (0..nx * ny)
                .map(|c| MatCell {
                    b0: b_at[c],
                    b1: b_at[c + 1],
                    i0: i_at[c],
                    i1: i_at[c + 1],
                    a0: a_at[c],
                    a1: a_at[c + 1],
                })
                .collect(),
            buildings: b.iter().map(|&k| buildings[k as usize]).collect(),
            isect_areas: i
                .iter()
                .map(|&k| *intersections[k as usize].area())
                .collect(),
            isect_ids: i.iter().map(|&k| intersections[k as usize].id()).collect(),
            axes: a
                .iter()
                .map(|&k| MatAxis::new(&road_axes[k as usize]))
                .collect(),
            axis_ids: a,
            lane_start,
            lanes: l.iter().map(|&k| lanes[k as usize].id()).collect(),
        }
    }

    /// Grid cell containing `p`, or `None` outside the grid.
    ///
    /// This is the map's *only* cell-resolution routine: the camera's
    /// per-pixel and span paths and the rule monitor's queries all call
    /// it, so a point lands in the same cell no matter which path asks.
    #[inline]
    fn locate(&self, p: Vec2) -> Option<(u32, u32)> {
        let fx = (p.x - self.origin.x) * INV_CELL;
        let fy = (p.y - self.origin.y) * INV_CELL;
        if fx < 0.0 || fy < 0.0 {
            return None;
        }
        let (ix, iy) = (fx as usize, fy as usize);
        if ix >= self.nx || iy >= self.ny {
            return None;
        }
        Some((ix as u32, iy as u32))
    }

    /// Index into `cells` of a cell [`MapGrid::locate`] resolved.
    #[inline]
    fn index(&self, (ix, iy): (u32, u32)) -> usize {
        iy as usize * self.nx + ix as usize
    }

    #[inline]
    fn material_at(&self, p: Vec2) -> Material {
        self.classify_in(self.locate(p), p)
    }
}

/// Lists the indices of `boxes` cell by cell, each cell in index order:
/// cell `c` lists `idx[at[c]..at[c + 1]]`. A box reaches the cells between
/// its corners' floored cell coordinates, clipped to the grid.
fn pack_cells(origin: Vec2, nx: usize, ny: usize, boxes: &[Aabb]) -> (Vec<u32>, Vec<u32>) {
    let coord = |v: f64, o: f64| ((v - o) * INV_CELL).floor().max(0.0) as usize;
    let cells = |b: &Aabb| {
        let xs = coord(b.min.x, origin.x)..=coord(b.max.x, origin.x).min(nx - 1);
        (coord(b.min.y, origin.y)..=coord(b.max.y, origin.y).min(ny - 1))
            .flat_map(move |y| xs.clone().map(move |x| y * nx + x))
    };
    let mut at = vec![0u32; nx * ny + 1];
    for c in boxes.iter().flat_map(cells) {
        at[c + 1] += 1;
    }
    for c in 0..nx * ny {
        at[c + 1] += at[c];
    }
    let mut next = at.clone();
    let mut idx = vec![0; at[nx * ny] as usize];
    for (k, b) in boxes.iter().enumerate() {
        for c in cells(b) {
            idx[next[c] as usize] = k as u32;
            next[c] += 1;
        }
    }
    (at, idx)
}

/// Classifies a point against one cell's candidate geometry; every ground
/// material the map reports is decided here. Buildings win, then
/// intersection pavement; otherwise the nearest road axis decides lane
/// markings. All bands compare against precomputed squared widths, so the
/// classification is square-root-free.
#[inline]
fn classify(buildings: &[Aabb], isect_areas: &[Aabb], axes: &[MatAxis], p: Vec2) -> Material {
    for b in buildings {
        if b.contains(p) {
            return Material::Building;
        }
    }
    for a in isect_areas {
        if a.contains(p) {
            return Material::Road;
        }
    }
    let mut nearest: Option<(f64, &MatAxis)> = None;
    for axis in axes {
        let d_sq = axis.distance_sq(p);
        match nearest {
            Some((bd, _)) if bd <= d_sq => {}
            _ => nearest = Some((d_sq, axis)),
        }
    }
    if let Some((d_sq, axis)) = nearest {
        if d_sq <= axis.road_sq {
            if d_sq <= MARK_HALF * MARK_HALF {
                return Material::MarkCenter;
            }
            if d_sq >= axis.edge_lo_sq {
                return Material::MarkEdge;
            }
            return Material::Road;
        }
        if d_sq <= axis.walk_sq {
            return Material::Sidewalk;
        }
    }
    Material::Grass
}

/// Reusable buffers for [`Map::classify_ground_row`], so steady-state span
/// rendering allocates nothing per frame.
#[derive(Debug, Clone, Default)]
pub struct SpanScratch {
    /// Candidate boundary roots (pixel-index units) for the current cell
    /// segment.
    roots: Vec<f64>,
    /// Probe pixels derived from the roots, sorted and deduplicated.
    probes: Vec<u32>,
    /// Clamp-regime knot positions for the axis piecewise quadratics.
    knots: Vec<f64>,
}

impl SpanScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Clamp regime of the closest-point parameter `t` along one piece of the
/// row line: `d_sq(u)` is a plain quadratic within one regime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Regime {
    /// `t` clamps to 0: distance to endpoint `a`.
    ClampA,
    /// `0 < t < 1`: perpendicular distance to the infinite axis line.
    Free,
    /// `t` clamps to 1: distance to endpoint `b`.
    ClampB,
}

/// Pushes `u` if it is a usable root strictly inside `(lo, hi]`.
#[inline]
fn push_root(u: f64, lo: f64, hi: f64, out: &mut Vec<f64>) {
    if u.is_finite() && u > lo && u <= hi {
        out.push(u);
    }
}

/// Real roots of `a·u² + b·u + c = 0` inside `(lo, hi]`, using the
/// cancellation-stable split (`q = -(b + sign(b)·√disc)/2`, roots `q/a` and
/// `c/q`). A tiny `a` yields one huge root (range-filtered out) and one
/// accurate root, so no degeneracy epsilon is needed.
fn quad_roots(a: f64, b: f64, c: f64, lo: f64, hi: f64, out: &mut Vec<f64>) {
    if a == 0.0 {
        if b != 0.0 {
            push_root(-c / b, lo, hi, out);
        }
        return;
    }
    let disc = b * b - 4.0 * a * c;
    if disc < 0.0 {
        return;
    }
    let q = -0.5 * (b + disc.sqrt().copysign(if b == 0.0 { 1.0 } else { b }));
    push_root(q / a, lo, hi, out);
    if q != 0.0 {
        push_root(c / q, lo, hi, out);
    }
}

/// Crossings of the row line with a rectangle's four edge lines.
fn rect_roots(b: &Aabb, base: Vec2, step: Vec2, lo: f64, hi: f64, out: &mut Vec<f64>) {
    if step.x != 0.0 {
        push_root((b.min.x - base.x) / step.x, lo, hi, out);
        push_root((b.max.x - base.x) / step.x, lo, hi, out);
    }
    if step.y != 0.0 {
        push_root((b.min.y - base.y) / step.y, lo, hi, out);
        push_root((b.max.y - base.y) / step.y, lo, hi, out);
    }
}

/// Clamp regime of `axis` at row-line position `u`.
fn axis_regime(axis: &MatAxis, base: Vec2, step: Vec2, u: f64) -> Regime {
    if axis.inv_len2 == 0.0 {
        return Regime::ClampA;
    }
    let p = base + step * u;
    let t = (p - axis.a).dot(axis.d) * axis.inv_len2;
    if t <= 0.0 {
        Regime::ClampA
    } else if t >= 1.0 {
        Regime::ClampB
    } else {
        Regime::Free
    }
}

/// Coefficients `(A, B, C)` of `d_sq(u) = A·u² + B·u + C`, the squared
/// distance from the row-line point `base + u·step` to `axis`, valid while
/// the closest-point parameter stays in `regime`.
fn axis_coeffs(axis: &MatAxis, base: Vec2, step: Vec2, regime: Regime) -> (f64, f64, f64) {
    match regime {
        Regime::ClampA => {
            let w = base - axis.a;
            (step.norm_sq(), 2.0 * w.dot(step), w.norm_sq())
        }
        Regime::ClampB => {
            let w = base - (axis.a + axis.d);
            (step.norm_sq(), 2.0 * w.dot(step), w.norm_sq())
        }
        Regime::Free => {
            // d_sq = |q0 + u·step|² − (t0 + u·td)²/len2,
            // with q0 = base − a, t0 = q0·d, td = step·d.
            let q0 = base - axis.a;
            let t0 = q0.dot(axis.d);
            let td = step.dot(axis.d);
            let il = axis.inv_len2;
            (
                step.norm_sq() - td * td * il,
                2.0 * (q0.dot(step) - t0 * td * il),
                q0.norm_sq() - t0 * t0 * il,
            )
        }
    }
}

/// Regime-change knots of `axis` along the row line (where `t` crosses 0 or
/// 1), restricted to `(lo, hi]`.
fn axis_knots(axis: &MatAxis, base: Vec2, step: Vec2, lo: f64, hi: f64, out: &mut Vec<f64>) {
    if axis.inv_len2 == 0.0 {
        return;
    }
    let td = step.dot(axis.d);
    if td == 0.0 {
        return;
    }
    let t0 = (base - axis.a).dot(axis.d);
    let len2 = axis.d.norm_sq();
    push_root(-t0 / td, lo, hi, out);
    push_root((len2 - t0) / td, lo, hi, out);
}

impl MapGrid {
    /// Collects every candidate boundary root in `(lo, hi]` for one cell's
    /// geometry into `scratch.roots`.
    fn gather_cell_roots(
        &self,
        c: MatCell,
        base: Vec2,
        step: Vec2,
        lo: f64,
        hi: f64,
        scratch: &mut SpanScratch,
    ) {
        for b in &self.buildings[c.b0 as usize..c.b1 as usize] {
            rect_roots(b, base, step, lo, hi, &mut scratch.roots);
        }
        for a in &self.isect_areas[c.i0 as usize..c.i1 as usize] {
            rect_roots(a, base, step, lo, hi, &mut scratch.roots);
        }
        let axes = &self.axes[c.a0 as usize..c.a1 as usize];
        // Band-threshold crossings of each axis, piecewise by clamp regime.
        for axis in axes {
            scratch.knots.clear();
            axis_knots(axis, base, step, lo, hi, &mut scratch.knots);
            // A regime change can itself move the point across a band.
            scratch.roots.extend_from_slice(&scratch.knots);
            scratch.knots.push(hi);
            scratch.knots.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut pl = lo;
            for i in 0..scratch.knots.len() {
                let ph = scratch.knots[i];
                if ph <= pl {
                    continue;
                }
                let regime = axis_regime(axis, base, step, 0.5 * (pl + ph));
                let (a2, a1, a0) = axis_coeffs(axis, base, step, regime);
                for thr in [
                    MARK_HALF * MARK_HALF,
                    axis.edge_lo_sq,
                    axis.road_sq,
                    axis.walk_sq,
                ] {
                    quad_roots(a2, a1, a0 - thr, pl, ph, &mut scratch.roots);
                }
                pl = ph;
            }
        }
        // Nearest-axis handover: where two axes are equidistant the winner
        // (and with it the band thresholds) can change.
        for i in 0..axes.len() {
            for j in (i + 1)..axes.len() {
                scratch.knots.clear();
                axis_knots(&axes[i], base, step, lo, hi, &mut scratch.knots);
                axis_knots(&axes[j], base, step, lo, hi, &mut scratch.knots);
                scratch.knots.push(hi);
                scratch.knots.sort_by(|a, b| a.partial_cmp(b).unwrap());
                let mut pl = lo;
                for k in 0..scratch.knots.len() {
                    let ph = scratch.knots[k];
                    if ph <= pl {
                        continue;
                    }
                    let um = 0.5 * (pl + ph);
                    let (p2, p1, p0) =
                        axis_coeffs(&axes[i], base, step, axis_regime(&axes[i], base, step, um));
                    let (q2, q1, q0) =
                        axis_coeffs(&axes[j], base, step, axis_regime(&axes[j], base, step, um));
                    quad_roots(p2 - q2, p1 - q1, p0 - q0, pl, ph, &mut scratch.roots);
                    pl = ph;
                }
            }
        }
    }

    /// Material at `p`, given the cell [`MapGrid::locate`] resolved
    /// for it (a span probe reuses its segment's cell).
    #[inline]
    fn classify_in(&self, cell: Option<(u32, u32)>, p: Vec2) -> Material {
        match cell {
            None => Material::Grass,
            Some(cell) => {
                let c = self.cells[self.index(cell)];
                classify(
                    &self.buildings[c.b0 as usize..c.b1 as usize],
                    &self.isect_areas[c.i0 as usize..c.i1 as usize],
                    &self.axes[c.a0 as usize..c.a1 as usize],
                    p,
                )
            }
        }
    }

    /// First `u > after` where the row line leaves the axis-aligned box, or
    /// `+inf` when it never does (parallel and inside).
    fn exit_u(bx0: f64, bx1: f64, by0: f64, by1: f64, base: Vec2, step: Vec2) -> f64 {
        let mut t = f64::INFINITY;
        if step.x > 0.0 {
            t = t.min((bx1 - base.x) / step.x);
        } else if step.x < 0.0 {
            t = t.min((bx0 - base.x) / step.x);
        }
        if step.y > 0.0 {
            t = t.min((by1 - base.y) / step.y);
        } else if step.y < 0.0 {
            t = t.min((by0 - base.y) / step.y);
        }
        t
    }

    /// First `u > after` where the row line enters the box `[bx0,bx1) ×
    /// [by0,by1)`, or `+inf` when it never does. When the linear model says
    /// the point is already inside (the caller's exact point disagreed by a
    /// rounding margin), returns `after + 0.5` to force verification at the
    /// very next pixel.
    fn enter_u(bx0: f64, bx1: f64, by0: f64, by1: f64, base: Vec2, step: Vec2, after: f64) -> f64 {
        let mut t_in = f64::NEG_INFINITY;
        let mut t_out = f64::INFINITY;
        for (b0, b1, o, s) in [(bx0, bx1, base.x, step.x), (by0, by1, base.y, step.y)] {
            if s == 0.0 {
                if o < b0 || o >= b1 {
                    return f64::INFINITY;
                }
            } else {
                let (a, b) = ((b0 - o) / s, (b1 - o) / s);
                let (a, b) = if a <= b { (a, b) } else { (b, a) };
                t_in = t_in.max(a);
                t_out = t_out.min(b);
            }
        }
        if t_in > t_out || t_out <= after {
            f64::INFINITY
        } else if t_in > after {
            t_in
        } else {
            after + 0.5
        }
    }

    /// See [`Map::classify_ground_row`].
    fn classify_ground_row(
        &self,
        scratch: &mut SpanScratch,
        line: RowLine,
        exact: impl Fn(u32) -> Vec2,
        mut emit: impl FnMut(u32, u32, Material),
    ) {
        let RowLine { base, step, x0, x1 } = line;
        if x0 >= x1 {
            return;
        }
        let mut span_start = x0;
        let mut cur: Option<Material> = None;
        let mut x = x0;
        'segments: while x < x1 {
            // Resolve the segment's cell from the exact pixel point, then
            // bound the segment by the analytic cell-crossing root.
            let p = exact(x);
            let cell = self.locate(p);
            let after = x as f64;
            let limit = match cell {
                Some((ix, iy)) => {
                    let bx0 = self.origin.x + ix as f64 * CELL;
                    let by0 = self.origin.y + iy as f64 * CELL;
                    Self::exit_u(bx0, bx0 + CELL, by0, by0 + CELL, base, step)
                }
                None => {
                    let gx1 = self.origin.x + self.nx as f64 * CELL;
                    let gy1 = self.origin.y + self.ny as f64 * CELL;
                    Self::enter_u(self.origin.x, gx1, self.origin.y, gy1, base, step, after)
                }
            };
            // Guard against the exact point sitting a rounding margin past
            // the boundary the linear model predicts: always look at least
            // half a pixel ahead so the next probe makes progress.
            let limit = limit.max(after + 0.5);
            // If the predicted crossing lands inside the row, the segment
            // provisionally ends one past its bracket; probes confirm.
            let seg_end: u32 = if limit >= x1 as f64 {
                x1
            } else {
                (limit.floor() as u32 + 2).min(x1)
            };

            scratch.roots.clear();
            if let Some(cell) = cell {
                let c = self.cells[self.index(cell)];
                let (lo, hi) = (after - 0.5, limit.min(seg_end as f64));
                self.gather_cell_roots(c, base, step, lo, hi, scratch);
            }
            if limit < seg_end as f64 {
                scratch.roots.push(limit);
            }

            // A boundary at r flips the material at the first pixel past
            // it, or at r + 1 when pixel r lies on the boundary itself.
            // The exact table differs from the linear model by rounding,
            // so probe round(r) and round(r) + 1: they hold the flip for
            // any root error under half a pixel. For the same reason the
            // roots above are gathered from after - 0.5.
            scratch.probes.clear();
            for i in 0..scratch.roots.len() {
                let f = scratch.roots[i].round();
                for q in [f, f + 1.0] {
                    if q > after && q < seg_end as f64 {
                        scratch.probes.push(q as u32);
                    }
                }
            }
            scratch.probes.sort_unstable();
            scratch.probes.dedup();

            // Classify the segment's first pixel exactly.
            let m0 = self.classify_in(cell, p);
            match cur {
                None => cur = Some(m0),
                Some(m) if m != m0 => {
                    emit(span_start, x, m);
                    span_start = x;
                    cur = Some(m0);
                }
                _ => {}
            }

            // Walk the probes: between consecutive probes the material is
            // constant (all candidate roots are bracketed by probes).
            let mut prev_known = x;
            for pi in 0..scratch.probes.len() {
                let q = scratch.probes[pi];
                let pq = exact(q);
                if self.locate(pq) != cell {
                    // Crossed into another cell: restart segment there.
                    x = q;
                    continue 'segments;
                }
                let mq = self.classify_in(cell, pq);
                let m = cur.expect("initialized above");
                if mq != m {
                    // Localize the flip pixel by scanning back toward the
                    // last pixel known to hold the current material.
                    let mut b = q;
                    while b > prev_known + 1 && self.classify_in(cell, exact(b - 1)) == mq {
                        b -= 1;
                    }
                    emit(span_start, b, m);
                    span_start = b;
                    cur = Some(mq);
                }
                prev_known = q;
            }
            x = seg_end;
        }
        if let Some(m) = cur {
            emit(span_start, x1, m);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::town::{TownConfig, TownGenerator};
    use super::*;

    fn town() -> Map {
        TownGenerator::new(TownConfig::grid(3, 3)).generate()
    }

    #[test]
    fn grid_town_has_content() {
        let m = town();
        assert!(!m.lanes().is_empty());
        assert!(!m.intersections().is_empty());
        assert!(!m.road_axes().is_empty());
        assert!(!m.buildings().is_empty());
    }

    #[test]
    fn lane_endpoints_connect_to_successors() {
        let m = town();
        for lane in m.lanes() {
            for s in m.successors(lane.id()) {
                let gap = lane.end().distance(m.lane(*s).start());
                assert!(gap < 1.0, "{} -> {s} gap {gap}", lane.id());
            }
        }
    }

    #[test]
    fn material_on_lane_center_is_road_like() {
        let m = town();
        let mut road_like = 0;
        let mut total = 0;
        for lane in m.lanes().iter().filter(|l| l.kind() == LaneKind::Drive) {
            let p = lane.point_at(lane.length() / 2.0);
            total += 1;
            if matches!(
                m.material_at(p),
                Material::Road | Material::MarkCenter | Material::MarkEdge
            ) {
                road_like += 1;
            }
        }
        assert_eq!(road_like, total, "every drive-lane midpoint is paved");
    }

    #[test]
    fn drivable_and_sidewalk_are_disjoint() {
        let m = town();
        let b = *m.bounds();
        let mut n_both = 0;
        let steps = 40;
        for i in 0..steps {
            for j in 0..steps {
                let p = Vec2::new(
                    b.min.x + b.width() * (i as f64 + 0.5) / steps as f64,
                    b.min.y + b.height() * (j as f64 + 0.5) / steps as f64,
                );
                let g = m.ground_at(p);
                if g.drivable && g.sidewalk {
                    n_both += 1;
                }
            }
        }
        assert_eq!(n_both, 0);
    }

    #[test]
    fn nearest_lane_finds_lane_under_vehicle() {
        let m = town();
        let lane = &m.lanes()[0];
        let p = lane.point_at(lane.length() * 0.3);
        let (_, proj) = m.lane_at(p, None, 5.0).expect("lane under point");
        assert!(proj.distance < 0.5);
    }

    /// The grid spans the bounds, which a wide intersection area can
    /// overhang; a point there still reports the area, as a full scan does.
    #[test]
    fn ground_at_finds_an_intersection_area_beyond_the_grid() {
        let m = TownGenerator::new(TownConfig {
            block: 100.0,
            intersection_half: 30.0,
            ..TownConfig::grid(2, 2)
        })
        .generate();
        let p = Vec2::new(0.0, m.bounds().min.y - 1.0);
        let isect = m.intersection(IntersectionId(0));
        assert!(isect.area().contains(p) && m.grid.locate(p).is_none());
        let g = m.ground_at(p);
        assert_eq!(g.intersection, Some(isect.id()));
        assert!(!g.drivable && !g.sidewalk);
    }

    #[test]
    fn buildings_do_not_overlap_roads() {
        let m = town();
        for b in m.buildings() {
            let c = b.center();
            assert!(!m.ground_at(c).drivable, "building center {c} on road");
        }
    }
}
