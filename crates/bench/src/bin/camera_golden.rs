//! Golden-image corpus tool for the camera regression tier.
//!
//! Renders a deterministic matrix of (town, ego pose, weather, NPC layout,
//! camera intrinsics) scenes and either checks them bit-for-bit against the
//! checked-in `.avimg` corpus or regenerates it. Every scene is rendered
//! through *both* camera ground passes — the default span rasterizer and
//! the per-pixel reference — and the tool fails if they disagree anywhere,
//! so the corpus doubles as a differential test of the span math on real
//! scene geometry.
//!
//! Usage:
//!   camera_golden --check [DIR]   # default; diff against DIR
//!   camera_golden --bless [DIR]   # (re)generate the corpus in DIR
//!
//! DIR defaults to `results/golden/camera`. Exit status is non-zero on any
//! drift, missing file, or span/reference divergence. Goldens are
//! reference-platform artifacts (pure f64 arithmetic: deterministic per
//! platform/toolchain, not guaranteed identical across architectures).

use avfi_server::cli::Args;
use avfi_sim::physics::VehicleControl;
use avfi_sim::scenario::{Scenario, TownSpec};
use avfi_sim::sensors::{avimg_checksum, read_avimg, write_avimg, CameraConfig};
use avfi_sim::weather::Weather;
use avfi_sim::world::World;
use std::path::PathBuf;

/// One corpus entry: a deterministic scene plus the frame to render.
struct SceneSpec {
    /// Stable artifact name (also the `.avimg` file stem).
    name: String,
    scenario: Scenario,
    /// Frames to advance with coasting controls before the shot (moves
    /// NPCs, pedestrians and signal phases deterministically without an
    /// agent in the loop).
    coast_frames: u32,
}

fn scenes() -> Vec<SceneSpec> {
    let mut out = Vec::new();

    // Weather sweep on the small town: same pose, five palettes/fogs.
    for weather in Weather::ALL {
        out.push(SceneSpec {
            name: format!("t22_{}_f0", weather_slug(weather)),
            scenario: Scenario::builder(TownSpec::grid(2, 2))
                .seed(11)
                .npc_vehicles(3)
                .pedestrians(2)
                .weather(weather)
                .build(),
            coast_frames: 0,
        });
    }

    // Larger town, advanced simulation time (signal phases change, actors
    // have moved), two fog extremes.
    for weather in [Weather::ClearNoon, Weather::Fog] {
        out.push(SceneSpec {
            name: format!("t33_{}_f40", weather_slug(weather)),
            scenario: Scenario::builder(TownSpec::grid(3, 3))
                .seed(29)
                .npc_vehicles(6)
                .pedestrians(4)
                .weather(weather)
                .build(),
            coast_frames: 40,
        });
    }

    // Unsignalized town: no traffic-light billboards.
    let mut unsignalized = TownSpec::grid(3, 3);
    unsignalized.signalized = false;
    out.push(SceneSpec {
        name: "t33nosig_clearnoon_f25".into(),
        scenario: Scenario::builder(unsignalized)
            .seed(7)
            .npc_vehicles(4)
            .pedestrians(0)
            .weather(Weather::ClearNoon)
            .build(),
        coast_frames: 25,
    });

    // Non-default intrinsics: wider image, wider FOV.
    let wide = CameraConfig {
        width: 96,
        height: 64,
        fov_deg: 120.0,
        ..CameraConfig::default()
    };
    out.push(SceneSpec {
        name: "t22_dusk_wide_f0".into(),
        scenario: Scenario::builder(TownSpec::grid(2, 2))
            .seed(3)
            .npc_vehicles(0)
            .pedestrians(0)
            .weather(Weather::Dusk)
            .camera(wide)
            .build(),
        coast_frames: 0,
    });

    // Near-horizon pitch: ground rows graze the far clip, exercising the
    // haze/ground run boundaries and long span lines.
    let shallow = CameraConfig {
        pitch_deg: 2.0,
        ..CameraConfig::default()
    };
    out.push(SceneSpec {
        name: "t33_rain_shallow_f10".into(),
        scenario: Scenario::builder(TownSpec::grid(3, 3))
            .seed(13)
            .npc_vehicles(2)
            .pedestrians(2)
            .weather(Weather::Rain)
            .camera(shallow)
            .build(),
        coast_frames: 10,
    });

    // Non-default road geometry: wider lanes and sidewalks move every
    // material band boundary.
    let mut wide_roads = TownSpec::grid(2, 3);
    wide_roads.lane_width = 4.25;
    wide_roads.sidewalk = 2.75;
    out.push(SceneSpec {
        name: "t23wide_overcast_f15".into(),
        scenario: Scenario::builder(wide_roads)
            .seed(41)
            .npc_vehicles(3)
            .pedestrians(3)
            .weather(Weather::Overcast)
            .build(),
        coast_frames: 15,
    });

    out
}

fn weather_slug(w: Weather) -> &'static str {
    match w {
        Weather::ClearNoon => "clearnoon",
        Weather::Overcast => "overcast",
        Weather::Rain => "rain",
        Weather::Fog => "fog",
        Weather::Dusk => "dusk",
    }
}

fn main() {
    let mut args = Args::from_env();
    let bless = args.flag("--bless");
    if args.flag("--check") && bless {
        args.refuse("--check and --bless are exclusive");
    }
    let dir = args
        .positional("DIR")
        .unwrap_or_else(|| PathBuf::from("results/golden/camera"));
    args.finish();

    let mut fail = 0usize;
    for spec in scenes() {
        let mut world = World::from_scenario(&spec.scenario);
        for _ in 0..spec.coast_frames {
            world.step(VehicleControl::coast());
        }
        let span = world.render_camera();
        let reference = world.render_camera_reference();
        if span != reference {
            println!("{:<28} DIVERGED (span != reference)", spec.name);
            fail += 1;
            continue;
        }
        let sum = avimg_checksum(&span);
        let path: PathBuf = dir.join(format!("{}.avimg", spec.name));
        if bless {
            write_avimg(&path, &span).expect("write golden");
            println!("{:<28} {sum:016x}  BLESSED", spec.name);
        } else {
            match read_avimg(&path) {
                Ok(golden) if golden == span => {
                    println!("{:<28} {sum:016x}  OK", spec.name);
                }
                Ok(golden) => {
                    println!(
                        "{:<28} {sum:016x}  DRIFT (golden {:016x}, {} px differ)",
                        spec.name,
                        avimg_checksum(&golden),
                        count_diff(&golden, &span),
                    );
                    fail += 1;
                }
                Err(e) => {
                    println!("{:<28} {sum:016x}  MISSING/UNREADABLE ({e})", spec.name);
                    fail += 1;
                }
            }
        }
    }
    if fail > 0 {
        eprintln!(
            "camera_golden: {fail} scene(s) failed in {} (re-bless with --bless if intentional)",
            dir.display()
        );
        std::process::exit(1);
    }
}

/// Number of differing pixels between two same-shape images (0 when shapes
/// differ is never reported: shape mismatch counts every pixel).
fn count_diff(a: &avfi_sim::sensors::Image, b: &avfi_sim::sensors::Image) -> usize {
    if a.width() != b.width() || a.height() != b.height() {
        return a.pixel_count().max(b.pixel_count());
    }
    a.data()
        .chunks_exact(3)
        .zip(b.data().chunks_exact(3))
        .filter(|(x, y)| x != y)
        .count()
}
