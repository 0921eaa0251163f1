//! Urban road-network map: lanes, intersections, buildings, and spatial
//! queries (nearest lane, drivable-area tests, ground materials for the
//! camera rasterizer).

mod intersection;
mod lane;
pub mod presets;
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
#[derive(Debug, Clone, Serialize, Deserialize)]
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
    predecessors: Vec<Vec<LaneId>>,
    intersections: Vec<Intersection>,
    lane_to_intersection: HashMap<LaneId, IntersectionId>,
    connector_to_intersection: HashMap<LaneId, IntersectionId>,
    road_axes: Vec<RoadAxis>,
    buildings: Vec<Aabb>,
    bounds: Aabb,
    grid: SpatialGrid,
    materials: MaterialGrid,
}

impl Map {
    /// Assembles a map from builder output, computing predecessor links,
    /// bounds and spatial indexes.
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
        let mut predecessors = vec![Vec::new(); lanes.len()];
        for (i, succs) in successors.iter().enumerate() {
            for s in succs {
                assert!((s.0 as usize) < lanes.len(), "successor {s} out of range");
                predecessors[s.0 as usize].push(LaneId(i as u32));
            }
        }
        let mut connector_to_intersection = HashMap::new();
        for isect in &intersections {
            for c in isect.connectors() {
                connector_to_intersection.insert(*c, isect.id());
            }
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
        let grid = SpatialGrid::build(&bounds, &lanes, &road_axes, &buildings, &intersections);
        let materials = MaterialGrid::build(&grid, &road_axes, &buildings, &intersections);
        Map {
            lanes,
            successors,
            predecessors,
            intersections,
            lane_to_intersection,
            connector_to_intersection,
            road_axes,
            buildings,
            bounds,
            grid,
            materials,
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

    /// Predecessor lanes of `id`.
    #[inline]
    pub fn predecessors(&self, id: LaneId) -> &[LaneId] {
        &self.predecessors[id.0 as usize]
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

    /// The intersection a connector lane crosses, if it is a connector.
    #[inline]
    pub fn intersection_of_connector(&self, lane: LaneId) -> Option<IntersectionId> {
        self.connector_to_intersection.get(&lane).copied()
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

    /// Nearest drive or connector lane to a point, within `max_dist` of its
    /// centerline. Returns the lane and projection.
    pub fn nearest_lane(&self, p: Vec2, max_dist: f64) -> Option<(LaneId, LaneProjection)> {
        let mut best: Option<(LaneId, LaneProjection)> = None;
        for id in self.grid.lanes_near(p, max_dist) {
            let proj = self.lanes[id.0 as usize].project(p);
            if proj.distance <= max_dist {
                match &best {
                    Some((_, b)) if b.distance <= proj.distance => {}
                    _ => best = Some((id, proj)),
                }
            }
        }
        best
    }

    /// Nearest lane whose travel direction agrees with `heading` (within
    /// 90°). This is the lane a vehicle is legally *in*: a car that crossed
    /// the center line is still matched against its own-direction lane, so
    /// the violation monitor sees the departure instead of silently
    /// re-associating with the opposing lane.
    pub fn nearest_lane_directional(
        &self,
        p: Vec2,
        heading: f64,
        max_dist: f64,
    ) -> Option<(LaneId, LaneProjection)> {
        let fwd = Vec2::from_angle(heading);
        let mut best: Option<(LaneId, LaneProjection)> = None;
        for id in self.grid.lanes_near(p, max_dist) {
            let lane = &self.lanes[id.0 as usize];
            let proj = lane.project(p);
            if proj.distance > max_dist {
                continue;
            }
            let lane_dir = Vec2::from_angle(lane.heading_at(proj.s));
            if fwd.dot(lane_dir) <= 0.0 {
                continue;
            }
            match &best {
                Some((_, b)) if b.distance <= proj.distance => {}
                _ => best = Some((id, proj)),
            }
        }
        best
    }

    /// Nearest *drive* lane (ignoring connectors); used for spawning.
    pub fn nearest_drive_lane(&self, p: Vec2, max_dist: f64) -> Option<(LaneId, LaneProjection)> {
        let mut best: Option<(LaneId, LaneProjection)> = None;
        for id in self.grid.lanes_near(p, max_dist) {
            let lane = &self.lanes[id.0 as usize];
            if lane.kind() != LaneKind::Drive {
                continue;
            }
            let proj = lane.project(p);
            if proj.distance <= max_dist {
                match &best {
                    Some((_, b)) if b.distance <= proj.distance => {}
                    _ => best = Some((id, proj)),
                }
            }
        }
        best
    }

    /// `true` when the point is on pavement (road corridor or intersection).
    pub fn on_drivable(&self, p: Vec2) -> bool {
        if self
            .grid
            .intersections_near(p)
            .any(|i| self.intersections[i.0 as usize].area().contains(p))
        {
            return true;
        }
        self.grid.axes_near(p).any(|i| {
            let axis = &self.road_axes[i];
            axis.axis.distance_to(p) <= axis.half_road
        })
    }

    /// `true` when the point is on a sidewalk (bordering pavement but not on
    /// it).
    pub fn on_sidewalk(&self, p: Vec2) -> bool {
        if self.on_drivable(p) {
            return false;
        }
        self.grid.axes_near(p).any(|i| {
            let axis = &self.road_axes[i];
            axis.axis.distance_to(p) <= axis.half_road + axis.sidewalk
        })
    }

    /// `true` when the point is inside a building footprint.
    pub fn in_building(&self, p: Vec2) -> bool {
        self.grid
            .buildings_near(p)
            .any(|i| self.buildings[i].contains(p))
    }

    /// Ground material at a world point.
    ///
    /// The camera's per-pixel reference pass calls this once per ground
    /// pixel, and [`Map::classify_ground_row`] verifies each of its probes
    /// with the same cell lookup and classification, so both passes take
    /// every ground decision from one function.
    #[inline]
    pub fn material_at(&self, p: Vec2) -> Material {
        self.materials.material_at(p)
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
        self.materials
            .classify_ground_row(scratch, line, exact, emit)
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

/// Flattened per-cell index for [`Map::material_at`].
///
/// The general [`SpatialGrid`] stores per-cell `Vec`s of indices into the
/// map's geometry arrays, which costs two dependent loads per candidate.
/// Every camera frame makes many ground-material decisions, so this index
/// re-packs the same per-cell candidate lists (same order, same
/// membership) into contiguous record arrays with the geometry copied
/// inline, and compares squared distances so only the nearest axis pays a
/// square root.
#[derive(Debug, Clone)]
struct MaterialGrid {
    origin: Vec2,
    cell: f64,
    inv_cell: f64,
    nx: usize,
    ny: usize,
    cells: Vec<MatCell>,
    buildings: Vec<Aabb>,
    isect_areas: Vec<Aabb>,
    axes: Vec<MatAxis>,
}

/// Per-cell `[start, end)` ranges into the [`MaterialGrid`] record arrays.
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

impl MaterialGrid {
    fn build(
        grid: &SpatialGrid,
        road_axes: &[RoadAxis],
        buildings: &[Aabb],
        intersections: &[Intersection],
    ) -> Self {
        let n = grid.nx * grid.ny;
        let mut mg = MaterialGrid {
            origin: grid.origin,
            cell: grid.cell,
            inv_cell: 1.0 / grid.cell,
            nx: grid.nx,
            ny: grid.ny,
            cells: Vec::with_capacity(n),
            buildings: Vec::new(),
            isect_areas: Vec::new(),
            axes: Vec::new(),
        };
        for c in 0..n {
            let b0 = mg.buildings.len() as u32;
            mg.buildings
                .extend(grid.buildings[c].iter().map(|&i| buildings[i]));
            let i0 = mg.isect_areas.len() as u32;
            mg.isect_areas.extend(
                grid.intersections[c]
                    .iter()
                    .map(|&i| *intersections[i.0 as usize].area()),
            );
            let a0 = mg.axes.len() as u32;
            mg.axes
                .extend(grid.axes[c].iter().map(|&i| MatAxis::new(&road_axes[i])));
            mg.cells.push(MatCell {
                b0,
                b1: mg.buildings.len() as u32,
                i0,
                i1: mg.isect_areas.len() as u32,
                a0,
                a1: mg.axes.len() as u32,
            });
        }
        mg
    }

    /// Grid cell containing `p`, or `None` outside the grid.
    ///
    /// This is the *only* cell-resolution routine: [`Map::material_at`]
    /// and the span classifier both call it, so a point lands in the same
    /// cell no matter which path asks.
    #[inline]
    fn locate(&self, p: Vec2) -> Option<(u32, u32)> {
        let fx = (p.x - self.origin.x) * self.inv_cell;
        let fy = (p.y - self.origin.y) * self.inv_cell;
        if fx < 0.0 || fy < 0.0 {
            return None;
        }
        let (ix, iy) = (fx as usize, fy as usize);
        if ix >= self.nx || iy >= self.ny {
            return None;
        }
        Some((ix as u32, iy as u32))
    }

    #[inline]
    fn material_at(&self, p: Vec2) -> Material {
        self.classify_in(self.locate(p), p)
    }
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

impl MaterialGrid {
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

    /// Material at `p`, given the cell [`MaterialGrid::locate`] resolved
    /// for it (a span probe reuses its segment's cell).
    #[inline]
    fn classify_in(&self, cell: Option<(u32, u32)>, p: Vec2) -> Material {
        match cell {
            None => Material::Grass,
            Some((ix, iy)) => {
                let c = self.cells[iy as usize * self.nx + ix as usize];
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
                    let bx0 = self.origin.x + ix as f64 * self.cell;
                    let by0 = self.origin.y + iy as f64 * self.cell;
                    Self::exit_u(bx0, bx0 + self.cell, by0, by0 + self.cell, base, step)
                }
                None => {
                    let gx1 = self.origin.x + self.nx as f64 * self.cell;
                    let gy1 = self.origin.y + self.ny as f64 * self.cell;
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
            if let Some((ix, iy)) = cell {
                let c = self.cells[iy as usize * self.nx + ix as usize];
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

/// Uniform spatial hash over the map bounds.
#[derive(Debug, Clone)]
struct SpatialGrid {
    origin: Vec2,
    cell: f64,
    nx: usize,
    ny: usize,
    lanes: Vec<Vec<LaneId>>,
    axes: Vec<Vec<usize>>,
    buildings: Vec<Vec<usize>>,
    intersections: Vec<Vec<IntersectionId>>,
}

impl SpatialGrid {
    const CELL: f64 = 16.0;

    fn build(
        bounds: &Aabb,
        lanes: &[Lane],
        axes: &[RoadAxis],
        buildings: &[Aabb],
        intersections: &[Intersection],
    ) -> Self {
        let cell = Self::CELL;
        let nx = ((bounds.width() / cell).ceil() as usize).max(1);
        let ny = ((bounds.height() / cell).ceil() as usize).max(1);
        let n = nx * ny;
        let mut grid = SpatialGrid {
            origin: bounds.min,
            cell,
            nx,
            ny,
            lanes: vec![Vec::new(); n],
            axes: vec![Vec::new(); n],
            buildings: vec![Vec::new(); n],
            intersections: vec![Vec::new(); n],
        };
        for lane in lanes {
            let mut b: Option<Aabb> = None;
            for p in lane.points() {
                let pb = Aabb::new(*p, *p);
                b = Some(match b {
                    Some(acc) => acc.union(&pb),
                    None => pb,
                });
            }
            // Inflate by lane width plus a search margin so `lanes_near`
            // with a modest max_dist finds it.
            let b = b.expect("lane has points").inflated(lane.width() + 8.0);
            grid.insert_box(&b, |g, c| g.lanes[c].push(lane.id()));
        }
        for (i, axis) in axes.iter().enumerate() {
            let b = axis.bounds().inflated(2.0);
            grid.insert_box(&b, |g, c| g.axes[c].push(i));
        }
        for (i, bld) in buildings.iter().enumerate() {
            grid.insert_box(bld, |g, c| g.buildings[c].push(i));
        }
        for isect in intersections {
            let b = isect.area().inflated(2.0);
            let id = isect.id();
            grid.insert_box(&b, |g, c| g.intersections[c].push(id));
        }
        grid
    }

    fn cell_of(&self, p: Vec2) -> Option<usize> {
        let ix = ((p.x - self.origin.x) / self.cell).floor();
        let iy = ((p.y - self.origin.y) / self.cell).floor();
        if ix < 0.0 || iy < 0.0 {
            return None;
        }
        let (ix, iy) = (ix as usize, iy as usize);
        if ix >= self.nx || iy >= self.ny {
            return None;
        }
        Some(iy * self.nx + ix)
    }

    fn insert_box(&mut self, b: &Aabb, mut push: impl FnMut(&mut Self, usize)) {
        let x0 = (((b.min.x - self.origin.x) / self.cell).floor().max(0.0)) as usize;
        let y0 = (((b.min.y - self.origin.y) / self.cell).floor().max(0.0)) as usize;
        let x1 = (((b.max.x - self.origin.x) / self.cell).floor().max(0.0)) as usize;
        let y1 = (((b.max.y - self.origin.y) / self.cell).floor().max(0.0)) as usize;
        for y in y0..=y1.min(self.ny - 1) {
            for x in x0..=x1.min(self.nx - 1) {
                push(self, y * self.nx + x);
            }
        }
    }

    fn lanes_near(&self, p: Vec2, _max_dist: f64) -> impl Iterator<Item = LaneId> + '_ {
        self.cell_of(p)
            .into_iter()
            .flat_map(move |c| self.lanes[c].iter().copied())
    }

    fn axes_near(&self, p: Vec2) -> impl Iterator<Item = usize> + '_ {
        self.cell_of(p)
            .into_iter()
            .flat_map(move |c| self.axes[c].iter().copied())
    }

    fn buildings_near(&self, p: Vec2) -> impl Iterator<Item = usize> + '_ {
        self.cell_of(p)
            .into_iter()
            .flat_map(move |c| self.buildings[c].iter().copied())
    }

    fn intersections_near(&self, p: Vec2) -> impl Iterator<Item = IntersectionId> + '_ {
        self.cell_of(p)
            .into_iter()
            .flat_map(move |c| self.intersections[c].iter().copied())
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
    fn successors_and_predecessors_agree() {
        let m = town();
        for lane in m.lanes() {
            for s in m.successors(lane.id()) {
                assert!(
                    m.predecessors(*s).contains(&lane.id()),
                    "{} -> {s} missing back-link",
                    lane.id()
                );
            }
        }
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
                if m.on_drivable(p) && m.on_sidewalk(p) {
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
        let (_, proj) = m.nearest_lane(p, 5.0).expect("lane under point");
        assert!(proj.distance < 0.5);
    }

    #[test]
    fn buildings_do_not_overlap_roads() {
        let m = town();
        for b in m.buildings() {
            let c = b.center();
            assert!(!m.on_drivable(c), "building center {c} on road");
        }
    }
}
