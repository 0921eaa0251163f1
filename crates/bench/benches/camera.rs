//! Camera ground-pass benchmark: the analytic span rasterizer (default)
//! against the per-pixel reference renderer it is proven bit-identical to
//! (see `crates/sim/tests/camera_differential.rs` and the golden corpus).
//! The `reference` numbers are the plain per-pixel oracle (one
//! `Map::material_at` call per ground pixel); the `span` numbers are what
//! campaigns actually pay. `BENCH_pr4.json` and the README table measured
//! the oracle when it still ran a caching cursor over the material index.

use avfi_sim::map::town::{TownConfig, TownGenerator};
use avfi_sim::map::LaneKind;
use avfi_sim::math::{Pose, Vec2};
use avfi_sim::sensors::{Billboard, Camera, CameraConfig, Image, RenderScene, Rgb};
use avfi_sim::weather::Weather;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// A mid-block driving pose on the first drive lane of a 3×3 town: roads,
/// sidewalks, lane marks, an intersection and buildings are all in frame.
fn driving_pose(map: &avfi_sim::map::Map) -> Pose {
    let lane = map
        .lanes()
        .iter()
        .find(|l| l.kind() == LaneKind::Drive)
        .unwrap();
    Pose::new(lane.point_at(10.0), lane.heading_at(10.0))
}

/// A plausible actor layout: a few vehicles/pedestrians ahead plus an
/// elevated traffic-light head, matching what `World` hands the camera.
fn billboards(around: Vec2) -> Vec<Billboard> {
    let sprite = |dx: f64, dy: f64, radius: f64, base: f64, top: f64, color: Rgb| Billboard {
        position: Vec2::new(around.x + dx, around.y + dy),
        radius,
        base,
        top,
        color,
    };
    vec![
        sprite(12.0, 0.5, 0.9, 0.0, 1.5, [0.8, 0.1, 0.1]),
        sprite(25.0, -1.5, 0.9, 0.0, 1.5, [0.1, 0.1, 0.8]),
        sprite(18.0, 4.0, 0.3, 0.0, 1.8, [0.9, 0.7, 0.2]),
        sprite(8.0, -4.0, 0.3, 0.0, 1.8, [0.2, 0.7, 0.3]),
        sprite(30.0, 6.0, 0.4, 4.5, 5.5, [0.1, 0.9, 0.1]),
    ]
}

fn bench_camera_render(c: &mut Criterion) {
    let map = TownGenerator::new(TownConfig::grid(3, 3)).generate();
    let pose = driving_pose(&map);
    let sprites = billboards(pose.position);
    let camera = Camera::new(CameraConfig::default());

    let mut group = c.benchmark_group("camera_render");
    let cases: Vec<(&str, Weather, &[Billboard])> = vec![
        ("clear_bare", Weather::ClearNoon, &[]),
        ("clear_billboards", Weather::ClearNoon, &sprites),
        ("fog_bare", Weather::Fog, &[]),
        ("fog_billboards", Weather::Fog, &sprites),
    ];
    for (name, weather, bbs) in cases {
        let scene = RenderScene {
            map: &map,
            weather,
            billboards: bbs,
        };
        let mut img = Image::new(camera.config().width, camera.config().height);
        group.bench_function(format!("span/{name}"), |b| {
            b.iter(|| camera.render_into(&scene, black_box(pose), &mut img))
        });
        group.bench_function(format!("reference/{name}"), |b| {
            b.iter(|| camera.render_into_reference(&scene, black_box(pose), &mut img))
        });
    }
    group.finish();
}

criterion_group! {
    name = camera;
    config = Criterion::default().sample_size(200);
    targets = bench_camera_render
}
criterion_main!(camera);
