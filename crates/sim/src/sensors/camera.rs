//! Software-rasterized forward RGB camera.
//!
//! The camera renders the driver's view by inverse-perspective mapping of
//! the ground plane plus billboard sprites for vehicles, pedestrians and
//! traffic lights. The result is a small image with exactly the visual
//! structure an imitation-learning lane-keeping network needs: lane
//! markings, road edges, obstacles, and weather-dependent lighting and fog.
//!
//! Two ground passes produce bit-identical pixels:
//!
//! - [`Camera::render_into`] (the default) classifies each image row in
//!   *spans*: within one row the ground hits march along a straight
//!   world-space line, so material boundaries are solved analytically via
//!   [`Map::classify_ground_row`] and whole constant-material runs are
//!   filled at once.
//! - [`Camera::render_into_reference`] calls [`Map::material_at`] once per
//!   ground pixel. It is kept as the differential oracle for the span
//!   path — golden-image and property tests assert the two agree bit for
//!   bit.

use crate::map::{Map, Material, RowLine, SpanScratch};
use crate::math::{Pose, Vec2};
use crate::sensors::{Image, Rgb};
use crate::weather::Weather;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// A vertical sprite rendered by the camera (vehicle, pedestrian, traffic
/// light head).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Billboard {
    /// Ground position of the sprite base.
    pub position: Vec2,
    /// Half-width of the sprite, meters.
    pub radius: f64,
    /// Sprite base height above ground, meters (0 for actors; >0 for
    /// traffic-light heads).
    pub base: f64,
    /// Sprite top height above ground, meters.
    pub top: f64,
    /// Sprite color.
    pub color: Rgb,
}

/// Everything the camera needs to draw one frame.
#[derive(Debug)]
pub struct RenderScene<'a> {
    /// The road map (ground materials).
    pub map: &'a Map,
    /// Current weather (ambient light, fog).
    pub weather: Weather,
    /// Sprites to draw, any order (painter-sorted internally).
    pub billboards: &'a [Billboard],
}

/// Camera intrinsics and mounting.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CameraConfig {
    /// Image width, pixels.
    pub width: usize,
    /// Image height, pixels.
    pub height: usize,
    /// Horizontal field of view, degrees.
    pub fov_deg: f64,
    /// Mount height above ground, meters.
    pub mount_height: f64,
    /// Forward offset from the vehicle center (hood mount), meters.
    pub hood_offset: f64,
    /// Downward pitch, degrees.
    pub pitch_deg: f64,
    /// Far clip for ground sampling, meters.
    pub max_range: f64,
}

impl Default for CameraConfig {
    fn default() -> Self {
        CameraConfig {
            width: 64,
            height: 48,
            fov_deg: 100.0,
            mount_height: 1.4,
            hood_offset: 1.0,
            pitch_deg: 10.0,
            max_range: 80.0,
        }
    }
}

/// The forward RGB camera sensor.
///
/// Construction precomputes a per-pixel ray table: because the camera's
/// heading rotation is purely about the vertical axis, each pixel's ray
/// elevation — and therefore its sky/ground classification, ground-hit
/// offsets in the camera frame, and hit distance — depends only on the
/// intrinsics and pitch, never on the ego pose. On top of the table sit
/// per-row summaries (sky rows, the contiguous in-range ground run, the
/// row's forward offset and lateral half-spread) that let the span
/// renderer skip per-pixel work, and per-weather fog-blend tables that
/// replace the per-pixel `exp` with a lookup.
#[derive(Debug, Clone)]
pub struct Camera {
    config: CameraConfig,
    /// `tan(fov_h / 2)`.
    tan_h: f64,
    /// `tan(fov_v / 2)`.
    tan_v: f64,
    /// `sin(pitch)`, `cos(pitch)`.
    sin_pitch: f64,
    cos_pitch: f64,
    /// Row-major per-pixel ray classification.
    rays: Vec<PixelRay>,
    /// Per-row summary of `rays`.
    rows: Vec<RowMeta>,
    /// Per-weather fog blend factors, `(fog_density bits, per-pixel
    /// `1 − e^(−fog·dist)` table)`; 0 for non-ground pixels.
    fog_tables: Vec<(u64, Vec<f32>)>,
}

thread_local! {
    /// Reusable span-classifier buffers, one set per rendering thread, so
    /// the steady-state frame loop stays allocation-free without making
    /// [`Camera`] carry interior mutability.
    static SPAN_SCRATCH: RefCell<SpanScratch> = RefCell::new(SpanScratch::new());
}

/// Pose-independent classification of one pixel's view ray.
#[derive(Debug, Clone, Copy)]
enum PixelRay {
    /// Ray points at or above the horizon.
    Sky,
    /// Ray hits the ground beyond the far clip.
    Haze,
    /// Ray hits the ground within range.
    Ground {
        /// Hit offset along the heading direction, meters.
        fwd: f64,
        /// Hit offset along the right direction, meters.
        right: f64,
        /// Slant ground distance from the camera, meters.
        dist: f64,
    },
}

/// Pose-independent summary of one image row.
#[derive(Debug, Clone, Copy)]
enum RowMeta {
    /// Every pixel of the row is sky (`dz` is row-constant).
    Sky,
    /// Below-horizon row: pixels in `[g0, g1)` hit the ground in range
    /// (the run is contiguous because the hit distance is symmetric in the
    /// pixel column and increases toward the edges); the rest are haze.
    Ground {
        /// First in-range ground pixel.
        g0: u32,
        /// One past the last in-range ground pixel.
        g1: u32,
        /// Ground-hit offset along the heading direction (row-constant),
        /// meters.
        fwd: f64,
        /// Lateral spread factor `t · tan(fov_h/2)`: the rightward hit
        /// offset of pixel `x` is `k · (2(x+0.5)/w − 1)`, meters.
        k: f64,
    },
}

/// Per-frame derived state shared by both ground passes and the billboard
/// pass: palette, fog, and the camera basis.
struct FrameCtx {
    ambient: f32,
    fog: f64,
    sky: Rgb,
    haze: Rgb,
    /// Ambient-shaded color per [`Material`] (indexed by discriminant).
    shaded: [Rgb; 6],
    /// Ego forward direction (unit).
    f2: Vec2,
    /// Camera ground position (hood mount).
    cam_xy: Vec2,
    /// Ego right direction (unit).
    right2: Vec2,
    fwd3: Vec3,
    right3: Vec3,
    up3: Vec3,
}

#[derive(Debug, Clone, Copy)]
struct Vec3 {
    x: f64,
    y: f64,
    z: f64,
}

impl Vec3 {
    fn dot(self, o: Vec3) -> f64 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }
}

impl Camera {
    /// Creates a camera.
    ///
    /// # Panics
    ///
    /// Panics if the resolution is zero or the FOV is not in `(0°, 180°)`.
    pub fn new(config: CameraConfig) -> Self {
        assert!(
            config.width > 0 && config.height > 0,
            "resolution must be non-zero"
        );
        assert!(
            config.fov_deg > 0.0 && config.fov_deg < 180.0,
            "fov must be in (0, 180)"
        );
        let (w, h) = (config.width, config.height);
        let (sp, cp) = config.pitch_deg.to_radians().sin_cos();
        let tan_h = (config.fov_deg.to_radians() * 0.5).tan();
        let tan_v = tan_h * h as f64 / w as f64;

        // For a view direction d = a·heading + b·right + (vertical), the
        // coefficients a = cos(pitch) + sin(pitch)·v·tan_v and b = u·tan_h
        // and the elevation d.z = -sin(pitch) + cos(pitch)·v·tan_v are all
        // independent of the ego pose, as is the ground-hit parameter
        // t = mount_height / -d.z and the slant distance t·√(a² + b²).
        let mut rays = Vec::with_capacity(w * h);
        let mut rows = Vec::with_capacity(h);
        for y in 0..h {
            let v_n = 1.0 - 2.0 * (y as f64 + 0.5) / h as f64;
            let a = cp + sp * v_n * tan_v;
            let dz = -sp + cp * v_n * tan_v;
            for x in 0..w {
                let u_n = 2.0 * (x as f64 + 0.5) / w as f64 - 1.0;
                let b = u_n * tan_h;
                rays.push(if dz >= -1e-6 {
                    PixelRay::Sky
                } else {
                    let t = config.mount_height / -dz;
                    let dist = (a * a + b * b).sqrt() * t;
                    if dist > config.max_range {
                        PixelRay::Haze
                    } else {
                        PixelRay::Ground {
                            fwd: a * t,
                            right: b * t,
                            dist,
                        }
                    }
                });
            }
            if dz >= -1e-6 {
                rows.push(RowMeta::Sky);
            } else {
                let t = config.mount_height / -dz;
                let row_rays = &rays[y * w..(y + 1) * w];
                let is_ground = |r: &PixelRay| matches!(r, PixelRay::Ground { .. });
                let g0 = row_rays.iter().position(is_ground).unwrap_or(0);
                let g1 = row_rays.iter().rposition(is_ground).map_or(0, |i| i + 1);
                debug_assert!(
                    row_rays[g0..g1].iter().all(is_ground),
                    "in-range ground run must be contiguous (row {y})"
                );
                rows.push(RowMeta::Ground {
                    g0: g0 as u32,
                    g1: g1 as u32,
                    fwd: a * t,
                    k: t * tan_h,
                });
            }
        }

        let mut fog_tables: Vec<(u64, Vec<f32>)> = Vec::new();
        for weather in Weather::ALL {
            let fog = weather.fog_density();
            let key = fog.to_bits();
            if fog <= 0.0 || fog_tables.iter().any(|(k, _)| *k == key) {
                continue;
            }
            let table = rays
                .iter()
                .map(|r| match *r {
                    PixelRay::Ground { dist, .. } => (1.0 - (-fog * dist).exp()) as f32,
                    _ => 0.0,
                })
                .collect();
            fog_tables.push((key, table));
        }

        Camera {
            config,
            tan_h,
            tan_v,
            sin_pitch: sp,
            cos_pitch: cp,
            rays,
            rows,
            fog_tables,
        }
    }

    /// Camera configuration.
    pub fn config(&self) -> &CameraConfig {
        &self.config
    }

    /// Palette and camera basis for one frame.
    fn frame_ctx(&self, scene: &RenderScene<'_>, ego: Pose) -> FrameCtx {
        let ambient = scene.weather.ambient_light() as f32;
        let (sp, cp) = (self.sin_pitch, self.cos_pitch);
        let f2 = ego.forward();
        let cam_xy = ego.position + f2 * self.config.hood_offset;
        let right2 = Vec2::new(f2.y, -f2.x);
        let mut shaded = [[0.0f32; 3]; 6];
        for m in [
            Material::Grass,
            Material::Sidewalk,
            Material::Road,
            Material::MarkCenter,
            Material::MarkEdge,
            Material::Building,
        ] {
            shaded[m as usize] = scale(material_color(m), ambient);
        }
        FrameCtx {
            ambient,
            fog: scene.weather.fog_density(),
            sky: scale([0.55, 0.70, 0.95], ambient),
            haze: scale([0.72, 0.74, 0.78], ambient),
            shaded,
            f2,
            cam_xy,
            right2,
            fwd3: Vec3 {
                x: f2.x * cp,
                y: f2.y * cp,
                z: -sp,
            },
            right3: Vec3 {
                x: right2.x,
                y: right2.y,
                z: 0.0,
            },
            up3: Vec3 {
                x: f2.x * sp,
                y: f2.y * sp,
                z: cp,
            },
        }
    }

    /// Renders the scene from the ego pose into a fresh image.
    ///
    /// Allocating convenience wrapper around [`Camera::render_into`].
    pub fn render(&self, scene: &RenderScene<'_>, ego: Pose) -> Image {
        let mut img = Image::new(self.config.width, self.config.height);
        self.render_into(scene, ego, &mut img);
        img
    }

    /// Renders the scene from the ego pose, reusing `img`'s allocation.
    ///
    /// This is the span-based ground pass: each row's material boundaries
    /// are solved analytically once and constant-material runs are filled
    /// whole, with fog blended from a precomputed per-weather table. The
    /// output is bit-identical to [`Camera::render_into_reference`].
    pub fn render_into(&self, scene: &RenderScene<'_>, ego: Pose, img: &mut Image) {
        let w = self.config.width;
        let h = self.config.height;
        img.reshape(w, h);
        let ctx = self.frame_ctx(scene, ego);
        let fog_table = self
            .fog_tables
            .iter()
            .find(|(k, _)| *k == ctx.fog.to_bits())
            .map(|(_, t)| t.as_slice());
        SPAN_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            let data = img.data_mut();
            for y in 0..h {
                let row = &mut data[y * w * 3..(y + 1) * w * 3];
                match self.rows[y] {
                    RowMeta::Sky => fill_span(row, 0, w as u32, ctx.sky),
                    RowMeta::Ground { g0, g1, fwd, k } => {
                        fill_span(row, 0, g0, ctx.haze);
                        fill_span(row, g1, w as u32, ctx.haze);
                        if g0 >= g1 {
                            continue;
                        }
                        let rays_row = &self.rays[y * w..(y + 1) * w];
                        // Linear world-space model of the row: pixel x hits
                        // base + x·step (the exact table values differ only by
                        // rounding; the classifier probe-verifies with them).
                        let r0 = k * (1.0 / w as f64 - 1.0);
                        let step_r = 2.0 * k / w as f64;
                        let base = Vec2::new(
                            ctx.cam_xy.x + ctx.f2.x * fwd + ctx.right2.x * r0,
                            ctx.cam_xy.y + ctx.f2.y * fwd + ctx.right2.y * r0,
                        );
                        let step = Vec2::new(ctx.right2.x * step_r, ctx.right2.y * step_r);
                        let exact = |x: u32| -> Vec2 {
                            match rays_row[x as usize] {
                                PixelRay::Ground {
                                    fwd: a, right: b, ..
                                } => Vec2::new(
                                    ctx.cam_xy.x + ctx.f2.x * a + ctx.right2.x * b,
                                    ctx.cam_xy.y + ctx.f2.y * a + ctx.right2.y * b,
                                ),
                                _ => unreachable!("pixels in [g0, g1) are ground"),
                            }
                        };
                        let fog_row = fog_table.map(|t| &t[y * w..(y + 1) * w]);
                        let line = RowLine {
                            base,
                            step,
                            x0: g0,
                            x1: g1,
                        };
                        scene
                            .map
                            .classify_ground_row(&mut *scratch, line, exact, |s, e, mat| {
                                let base_c = ctx.shaded[mat as usize];
                                match fog_row {
                                    Some(fogs) if ctx.fog > 0.0 => {
                                        // 4-wide fog-mix blocks; the
                                        // per-pixel arithmetic is unchanged.
                                        let (s, e) = (s as usize, e as usize);
                                        let mut x = s;
                                        while x + 4 <= e {
                                            let mut block = [0.0f32; 12];
                                            for l in 0..4 {
                                                let c = mix(base_c, ctx.haze, fogs[x + l]);
                                                block[l * 3..l * 3 + 3].copy_from_slice(&c);
                                            }
                                            row[x * 3..x * 3 + 12].copy_from_slice(&block);
                                            x += 4;
                                        }
                                        for x in x..e {
                                            let c = mix(base_c, ctx.haze, fogs[x]);
                                            row[x * 3..x * 3 + 3].copy_from_slice(&c);
                                        }
                                    }
                                    None if ctx.fog > 0.0 => {
                                        for x in s..e {
                                            let dist = match rays_row[x as usize] {
                                                PixelRay::Ground { dist, .. } => dist,
                                                _ => unreachable!(),
                                            };
                                            let fb = 1.0 - (-ctx.fog * dist).exp();
                                            let c = mix(base_c, ctx.haze, fb as f32);
                                            row[x as usize * 3..x as usize * 3 + 3]
                                                .copy_from_slice(&c);
                                        }
                                    }
                                    _ => fill_span(row, s, e, base_c),
                                }
                            });
                    }
                }
            }
        });
        self.billboard_pass(scene, &ctx, img);
    }

    /// Renders via the per-pixel reference path into a fresh image.
    ///
    /// Allocating convenience wrapper around
    /// [`Camera::render_into_reference`].
    pub fn render_reference(&self, scene: &RenderScene<'_>, ego: Pose) -> Image {
        let mut img = Image::new(self.config.width, self.config.height);
        self.render_into_reference(scene, ego, &mut img);
        img
    }

    /// Renders the scene with the per-pixel reference ground pass.
    ///
    /// One table lookup plus one [`Map::material_at`] call per ground
    /// pixel. This is the differential oracle for the span renderer:
    /// slower, but with no analytic machinery to get wrong.
    /// [`Camera::render_into`] must match it bit for bit.
    pub fn render_into_reference(&self, scene: &RenderScene<'_>, ego: Pose, img: &mut Image) {
        img.reshape(self.config.width, self.config.height);
        let ctx = self.frame_ctx(scene, ego);
        for (ray, px) in self.rays.iter().zip(img.data_mut().chunks_exact_mut(3)) {
            let color = match *ray {
                PixelRay::Sky => ctx.sky,
                PixelRay::Haze => ctx.haze,
                PixelRay::Ground {
                    fwd: a,
                    right: b,
                    dist,
                } => {
                    let p = Vec2::new(
                        ctx.cam_xy.x + ctx.f2.x * a + ctx.right2.x * b,
                        ctx.cam_xy.y + ctx.f2.y * a + ctx.right2.y * b,
                    );
                    let base = ctx.shaded[scene.map.material_at(p) as usize];
                    if ctx.fog > 0.0 {
                        let fb = 1.0 - (-ctx.fog * dist).exp();
                        mix(base, ctx.haze, fb as f32)
                    } else {
                        base
                    }
                }
            };
            px.copy_from_slice(&color);
        }
        self.billboard_pass(scene, &ctx, img);
    }

    /// Billboard pass, far to near. Scenes carry a handful of sprites, so
    /// the depth sort runs in a stack buffer (heap fallback for oversized
    /// scenes) to keep the steady-state frame allocation-free.
    fn billboard_pass(&self, scene: &RenderScene<'_>, ctx: &FrameCtx, img: &mut Image) {
        let cfg = &self.config;
        let (w, h) = (cfg.width, cfg.height);
        let (tan_h, tan_v) = (self.tan_h, self.tan_v);
        const STACK_BOARDS: usize = 64;
        let mut stack = [(0.0f64, 0u32); STACK_BOARDS];
        let mut heap: Vec<(f64, u32)> = Vec::new();
        let use_heap = scene.billboards.len() > STACK_BOARDS;
        let mut n = 0usize;
        for (i, b) in scene.billboards.iter().enumerate() {
            let rel = Vec3 {
                x: b.position.x - ctx.cam_xy.x,
                y: b.position.y - ctx.cam_xy.y,
                z: -cfg.mount_height,
            };
            let depth = rel.dot(ctx.fwd3);
            if depth > 0.5 && depth < cfg.max_range {
                if use_heap {
                    heap.push((depth, i as u32));
                } else {
                    stack[n] = (depth, i as u32);
                }
                n += 1;
            }
        }
        let boards = if use_heap {
            &mut heap[..]
        } else {
            &mut stack[..n]
        };
        // Unstable sort with an index tiebreak: same far-to-near order a
        // stable sort would give, without its scratch allocation.
        boards.sort_unstable_by(|x, y| {
            y.0.partial_cmp(&x.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(x.1.cmp(&y.1))
        });

        for &mut (_, i) in boards {
            let b = &scene.billboards[i as usize];
            let project = |z_world: f64| -> Option<(f64, f64, f64)> {
                let rel = Vec3 {
                    x: b.position.x - ctx.cam_xy.x,
                    y: b.position.y - ctx.cam_xy.y,
                    z: z_world - cfg.mount_height,
                };
                let xc = rel.dot(ctx.fwd3);
                if xc < 0.3 {
                    return None;
                }
                let yc = rel.dot(ctx.right3);
                let zc = rel.dot(ctx.up3);
                let u_n = yc / (xc * tan_h);
                let v_n = zc / (xc * tan_v);
                let px = (u_n + 1.0) * 0.5 * w as f64;
                let py = (1.0 - v_n) * 0.5 * h as f64;
                Some((px, py, xc))
            };
            let (Some((x_b, y_b, depth)), Some((_, y_t, _))) = (project(b.base), project(b.top))
            else {
                continue;
            };
            let half_w_px = (b.radius / (depth * tan_h)) * w as f64 * 0.5;
            let fb = (1.0 - (-ctx.fog * depth).exp()) as f32;
            let color = mix(scale(b.color, ctx.ambient), ctx.haze, fb);
            img.fill_rect(
                (x_b - half_w_px).round() as i64,
                y_t.round() as i64,
                (x_b + half_w_px).round() as i64,
                y_b.round() as i64,
                color,
            );
        }
    }
}

/// Fills pixels `[s, e)` of one row slice with a constant color.
#[inline]
fn fill_span(row: &mut [f32], s: u32, e: u32, c: Rgb) {
    for px in row[s as usize * 3..e as usize * 3].chunks_exact_mut(3) {
        px.copy_from_slice(&c);
    }
}

fn material_color(m: Material) -> Rgb {
    match m {
        Material::Grass => [0.16, 0.42, 0.16],
        Material::Sidewalk => [0.55, 0.55, 0.55],
        Material::Road => [0.24, 0.24, 0.26],
        Material::MarkCenter => [0.85, 0.72, 0.12],
        Material::MarkEdge => [0.88, 0.88, 0.88],
        Material::Building => [0.38, 0.32, 0.30],
    }
}

fn scale(c: Rgb, k: f32) -> Rgb {
    [c[0] * k, c[1] * k, c[2] * k]
}

fn mix(a: Rgb, b: Rgb, t: f32) -> Rgb {
    [
        a[0] + (b[0] - a[0]) * t,
        a[1] + (b[1] - a[1]) * t,
        a[2] + (b[2] - a[2]) * t,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::town::{TownConfig, TownGenerator};
    use crate::map::LaneKind;

    fn town() -> Map {
        TownGenerator::new(TownConfig::grid(2, 2)).generate()
    }

    fn ego_on_lane(map: &Map) -> Pose {
        let lane = map
            .lanes()
            .iter()
            .find(|l| l.kind() == LaneKind::Drive)
            .unwrap();
        Pose::new(lane.point_at(10.0), lane.heading_at(10.0))
    }

    fn render(map: &Map, weather: Weather, boards: Vec<Billboard>) -> Image {
        let cam = Camera::new(CameraConfig::default());
        let scene = RenderScene {
            map,
            weather,
            billboards: &boards,
        };
        cam.render(&scene, ego_on_lane(map))
    }

    #[test]
    fn render_into_reuses_buffer_and_matches_render() {
        let map = town();
        let cam = Camera::new(CameraConfig::default());
        let scene = RenderScene {
            map: &map,
            weather: Weather::Fog,
            billboards: &[],
        };
        let ego = ego_on_lane(&map);
        let fresh = cam.render(&scene, ego);
        // Start from a differently-shaped dirty buffer: render_into must
        // reshape it and overwrite every pixel.
        let mut reused = Image::filled(3, 5, [0.9, 0.1, 0.9]);
        cam.render_into(&scene, ego, &mut reused);
        assert_eq!(fresh, reused);
    }

    #[test]
    fn span_path_matches_reference_path() {
        let map = town();
        let cam = Camera::new(CameraConfig::default());
        let base_ego = ego_on_lane(&map);
        for weather in Weather::ALL {
            for (dx, dh) in [(0.0, 0.0), (1.3, 0.4), (-2.1, 2.7), (17.0, -1.1)] {
                let ego = Pose::new(
                    base_ego.position + Vec2::new(dx, -dx * 0.6),
                    base_ego.heading + dh,
                );
                let scene = RenderScene {
                    map: &map,
                    weather,
                    billboards: &[],
                };
                let span = cam.render(&scene, ego);
                let reference = cam.render_reference(&scene, ego);
                assert_eq!(
                    span.data(),
                    reference.data(),
                    "span/reference mismatch: weather {weather:?}, dx {dx}, dh {dh}"
                );
            }
        }
    }

    #[test]
    fn sky_on_top_ground_on_bottom() {
        let map = town();
        let img = render(&map, Weather::ClearNoon, vec![]);
        // Top-left pixel is sky (blueish: B > R).
        let top = img.pixel(0, 0);
        assert!(top[2] > top[0], "top row should be sky: {top:?}");
        // Bottom-center pixel is road (dark, low saturation).
        let bot = img.pixel(img.width() / 2, img.height() - 1);
        assert!(bot[2] < 0.5, "bottom should be road-dark: {bot:?}");
    }

    #[test]
    fn road_structure_visible() {
        // Somewhere in the lower half there must be bright lane-marking
        // pixels and dark road pixels.
        let map = town();
        let img = render(&map, Weather::ClearNoon, vec![]);
        let g = img.to_grayscale();
        let w = img.width();
        let lower = &g[(img.height() / 2) * w..];
        let max = lower.iter().cloned().fold(0.0f32, f32::max);
        let min = lower.iter().cloned().fold(1.0f32, f32::min);
        assert!(max > 0.6, "no bright markings, max={max}");
        assert!(min < 0.35, "no dark road, min={min}");
    }

    #[test]
    fn billboard_renders_in_front() {
        let map = town();
        let ego = ego_on_lane(&map);
        let ahead = ego.position + ego.forward() * 10.0;
        let clean = render(&map, Weather::ClearNoon, vec![]);
        let with = render(
            &map,
            Weather::ClearNoon,
            vec![Billboard {
                position: ahead,
                radius: 1.0,
                base: 0.0,
                top: 1.6,
                color: [1.0, 0.0, 0.0],
            }],
        );
        assert_ne!(clean, with, "billboard changed nothing");
        // A strongly red pixel exists in the second render.
        let reddest = with
            .data()
            .chunks_exact(3)
            .map(|p| p[0] - (p[1] + p[2]) * 0.5)
            .fold(f32::MIN, f32::max);
        assert!(reddest > 0.3, "no red pixels found ({reddest})");
    }

    #[test]
    fn fog_flattens_contrast() {
        let map = town();
        let clear = render(&map, Weather::ClearNoon, vec![]);
        let foggy = render(&map, Weather::Fog, vec![]);
        let contrast = |img: &Image| {
            let g = img.to_grayscale();
            let mean = g.iter().sum::<f32>() / g.len() as f32;
            g.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / g.len() as f32
        };
        assert!(
            contrast(&foggy) < contrast(&clear),
            "fog should reduce variance"
        );
    }

    #[test]
    fn dusk_is_darker_than_noon() {
        let map = town();
        let noon = render(&map, Weather::ClearNoon, vec![]);
        let dusk = render(&map, Weather::Dusk, vec![]);
        assert!(dusk.mean_luma() < noon.mean_luma());
    }

    #[test]
    fn render_is_deterministic() {
        let map = town();
        let a = render(&map, Weather::Rain, vec![]);
        let b = render(&map, Weather::Rain, vec![]);
        assert_eq!(a, b);
    }

    #[test]
    fn billboard_behind_is_invisible() {
        let map = town();
        let ego = ego_on_lane(&map);
        let behind = ego.position - ego.forward() * 10.0;
        let clean = render(&map, Weather::ClearNoon, vec![]);
        let with = render(
            &map,
            Weather::ClearNoon,
            vec![Billboard {
                position: behind,
                radius: 1.0,
                base: 0.0,
                top: 1.6,
                color: [1.0, 0.0, 1.0],
            }],
        );
        assert_eq!(clean, with);
    }
}
