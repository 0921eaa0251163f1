//! Differential oracle for the span-based camera ground pass.
//!
//! The default renderer ([`Camera::render_into`]) classifies each image
//! row analytically and fills constant-material spans; the reference
//! renderer ([`Camera::render_into_reference`]) queries the map per pixel.
//! These tests drive thousands of randomized and adversarially chosen
//! (town, camera, weather, pose) combinations through both paths and
//! require bit-identical output — any divergence is a bug in the span
//! math's root finding, probe bracketing, or tie-breaking. The last test
//! drives the span classifier itself across material-grid cell
//! boundaries.

use avfi_sim::map::town::{TownConfig, TownGenerator};
use avfi_sim::map::{Map, Material, RowLine, SpanScratch};
use avfi_sim::math::{Pose, Vec2};
use avfi_sim::sensors::{Camera, CameraConfig, RenderScene};
use avfi_sim::weather::Weather;
use proptest::prelude::*;
use std::sync::OnceLock;

/// Towns with distinct band geometry: defaults, unsignalized 3×3, and
/// non-default lane/sidewalk widths (moves every material threshold).
fn maps() -> &'static [Map] {
    static MAPS: OnceLock<Vec<Map>> = OnceLock::new();
    MAPS.get_or_init(|| {
        let mut unsignalized = TownConfig::grid(3, 3);
        unsignalized.signalized = false;
        let mut wide_roads = TownConfig::grid(2, 3);
        wide_roads.lane_width = 4.25;
        wide_roads.sidewalk = 2.75;
        vec![
            TownGenerator::new(TownConfig::grid(2, 2)).generate(),
            TownGenerator::new(unsignalized).generate(),
            TownGenerator::new(wide_roads).generate(),
        ]
    })
}

/// Camera variants: defaults, wide high-FOV, and a shallow pitch whose
/// bottom rows graze the far clip (long span lines, haze boundaries).
fn cameras() -> &'static [Camera] {
    static CAMS: OnceLock<Vec<Camera>> = OnceLock::new();
    CAMS.get_or_init(|| {
        vec![
            Camera::new(CameraConfig::default()),
            Camera::new(CameraConfig {
                width: 96,
                height: 64,
                fov_deg: 120.0,
                ..CameraConfig::default()
            }),
            Camera::new(CameraConfig {
                pitch_deg: 2.0,
                ..CameraConfig::default()
            }),
        ]
    })
}

/// First differing pixel between the two renders, if any.
fn first_diff(map: &Map, cam: &Camera, weather: Weather, pose: Pose) -> Option<String> {
    let scene = RenderScene {
        map,
        weather,
        billboards: &[],
    };
    let span = cam.render(&scene, pose);
    let reference = cam.render_reference(&scene, pose);
    let w = span.width();
    span.data()
        .chunks_exact(3)
        .zip(reference.data().chunks_exact(3))
        .position(|(a, b)| a != b)
        .map(|i| {
            format!(
                "pixel ({}, {}): span {:?} != reference {:?} at pose {:?}",
                i % w,
                i / w,
                &span.data()[i * 3..i * 3 + 3],
                &reference.data()[i * 3..i * 3 + 3],
                pose,
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1200))]

    /// Fully random poses (including far off the map), all towns, all
    /// camera variants, all weathers.
    #[test]
    fn span_matches_reference_for_random_poses(
        map_i in 0usize..3,
        cam_i in 0usize..3,
        weather_i in 0usize..5,
        x in -60.0f64..260.0,
        y in -60.0f64..260.0,
        heading in -3.2f64..3.2,
    ) {
        let map = &maps()[map_i];
        let cam = &cameras()[cam_i];
        let weather = Weather::ALL[weather_i];
        let pose = Pose::new(Vec2::new(x, y), heading);
        let diff = first_diff(map, cam, weather, pose);
        prop_assert!(diff.is_none(), "{}", diff.unwrap());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    /// Adversarial lateral offsets: the ego sits exactly on (or a hair
    /// away from) a material band threshold of a real road axis, with the
    /// heading aligned with the axis (near-degenerate quadratics: the
    /// row line runs almost parallel to the band boundaries).
    #[test]
    fn span_matches_reference_at_band_boundaries(
        map_i in 0usize..3,
        axis_pick in 0usize..64,
        t in 0.0f64..1.0,
        offset_i in 0usize..5,
        jitter_i in 0usize..5,
        heading_i in 0usize..4,
        weather_i in 0usize..5,
    ) {
        let map = &maps()[map_i];
        let axes = map.road_axes();
        let axis = &axes[axis_pick % axes.len()];
        let half_road = axis.half_road;
        let walk = half_road + axis.sidewalk;
        // Exact band thresholds of the material classifier.
        let offset = [0.0, 0.15, half_road - 0.3, half_road, walk][offset_i];
        let jitter = [0.0, 1e-9, -1e-9, 1e-6, -1e-6][jitter_i];
        let along = axis.axis.point_at(t);
        let dir = axis.axis.direction();
        let normal = Vec2::new(-dir.y, dir.x);
        let pos = along + normal * (offset + jitter);
        let axis_heading = dir.y.atan2(dir.x);
        let heading = [
            axis_heading,
            axis_heading + std::f64::consts::FRAC_PI_2,
            axis_heading + 1e-7,
            axis_heading + 0.3,
        ][heading_i];
        let diff = first_diff(map, &cameras()[0], Weather::ALL[weather_i], Pose::new(pos, heading));
        prop_assert!(diff.is_none(), "{}", diff.unwrap());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Horizon-row adversary: random shallow pitches put rows right at the
    /// sky/ground and ground/far-clip transitions, where per-row ground
    /// runs are empty or clipped.
    #[test]
    fn span_matches_reference_near_horizon(
        pitch in 0.0f64..4.0,
        fov in 40.0f64..150.0,
        x in -20.0f64..180.0,
        y in -20.0f64..180.0,
        heading in -3.2f64..3.2,
        weather_i in 0usize..5,
    ) {
        let cam = Camera::new(CameraConfig {
            pitch_deg: pitch,
            fov_deg: fov,
            ..CameraConfig::default()
        });
        let map = &maps()[0];
        let pose = Pose::new(Vec2::new(x, y), heading);
        let diff = first_diff(map, &cam, Weather::ALL[weather_i], pose);
        prop_assert!(diff.is_none(), "{}", diff.unwrap());
    }
}

/// Extreme pitches (horizontal camera through nearly straight-down): the
/// per-row metadata must stay consistent with the ray table at both ends.
#[test]
fn extreme_pitches_match() {
    let map = &maps()[0];
    for pitch in [0.0, 0.05, 1.0, 10.0, 45.0, 80.0] {
        let cam = Camera::new(CameraConfig {
            pitch_deg: pitch,
            ..CameraConfig::default()
        });
        for (x, y, h) in [(40.0, 6.0, 0.0), (80.0, 80.0, 2.2), (-30.0, -30.0, -1.0)] {
            let diff = first_diff(map, &cam, Weather::ClearNoon, Pose::new(Vec2::new(x, y), h));
            assert!(diff.is_none(), "pitch {pitch}: {}", diff.unwrap());
        }
    }
}

/// Headings exactly aligned with the world axes make the row line exactly
/// parallel to half the band boundaries (zero leading quadratic
/// coefficient) and exactly perpendicular to the rest.
#[test]
fn axis_aligned_headings_match() {
    use std::f64::consts::{FRAC_PI_2, PI};
    let cam = &cameras()[0];
    for map in maps() {
        for heading in [0.0, FRAC_PI_2, PI, -FRAC_PI_2, PI / 4.0] {
            for (x, y) in [(40.0, 3.5), (40.0, 0.0), (42.0, 40.0), (6.0, 40.0)] {
                for weather in [Weather::ClearNoon, Weather::Fog] {
                    let diff = first_diff(map, cam, weather, Pose::new(Vec2::new(x, y), heading));
                    assert!(diff.is_none(), "heading {heading}: {}", diff.unwrap());
                }
            }
        }
    }
}

/// Every material-cell corner of `map` (the grid uses 16 m cells anchored
/// at the map bounds' origin), and the points 1e-9 either side of it on
/// each axis.
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

/// Row steps along x, diagonally and along y. At 1 m per pixel, pixels
/// land exactly on band and building edges (the towns use round
/// coordinates); at 2.5 m a row reaches far enough into the next cell
/// that a missed crossing meets geometry the old cell does not list.
const STEPS: [Vec2; 6] = [
    Vec2::new(1.0, 0.0),
    Vec2::new(1.0, 1.0),
    Vec2::new(0.0, 1.0),
    Vec2::new(2.5, 0.0),
    Vec2::new(2.5, 2.5),
    Vec2::new(0.0, 2.5),
];

/// Cell resolution at material-grid boundaries: the span classifier
/// resolves one cell per row segment and must restart wherever an exact
/// pixel point lands in another cell. Rows of 32 pixels start at every
/// cell corner of every test map and take each of [`STEPS`], so they run
/// along boundaries and cross them mid-row. The spans must tile the row,
/// change material from one span to the next, and equal
/// `Map::material_at` at every pixel.
#[test]
fn span_rows_match_material_at_across_cell_boundaries() {
    const PIXELS: u32 = 32;
    let mut scratch = SpanScratch::new();
    for map in maps() {
        for base in cell_corners(map) {
            for step in STEPS {
                let exact = |x: u32| base + step * x as f64;
                let line = RowLine {
                    base,
                    step,
                    x0: 0,
                    x1: PIXELS,
                };
                let mut spans = Vec::new();
                map.classify_ground_row(&mut scratch, line, exact, |s, e, m| spans.push((s, e, m)));
                let mut got = Vec::new();
                for &(s, e, m) in &spans {
                    assert!(
                        s as usize == got.len() && s < e,
                        "spans {spans:?} from {base:?} by {step:?} do not tile the row"
                    );
                    got.extend((s..e).map(|_| m));
                }
                assert!(
                    spans.windows(2).all(|w| w[0].2 != w[1].2),
                    "spans {spans:?} from {base:?} by {step:?} repeat a material"
                );
                let want: Vec<Material> = (0..PIXELS).map(|x| map.material_at(exact(x))).collect();
                assert_eq!(got, want, "spans {spans:?} from {base:?} by {step:?}");
            }
        }
    }
}
