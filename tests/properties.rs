//! Property-based tests (proptest) on core invariants across the
//! workspace: physics stability, fault-model bounds, codec roundtrips,
//! statistics, and determinism.

use avfi::fi::fault::hardware::flip_bit;
use avfi::fi::fault::input::{ImageFault, ImageFaultLayout};
use avfi::fi::fault::timing::{TimingChannel, TimingFault};
use avfi::fi::stats::{percentile_sorted, Summary};
use avfi::nn::Tensor;
use avfi::sim::math::{normalize_angle, Pose, Segment, Vec2};
use avfi::sim::physics::{BicycleModel, VehicleControl, VehicleParams, VehicleState};
use avfi::sim::rng::{split_seed, stream_rng};
use avfi::sim::sensors::{Image, PixelFootprint};
use avfi::sim::FRAME_DT;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // --- Physics -----------------------------------------------------

    /// The bicycle model never produces NaN/infinite state, never
    /// reverses, and never exceeds the top speed — for *any* control
    /// input, including garbage.
    #[test]
    fn bicycle_state_always_sane(
        steer in -10.0f64..10.0,
        throttle in -10.0f64..10.0,
        brake in -10.0f64..10.0,
        friction in 0.0f64..1.5,
        steps in 1usize..200,
    ) {
        let model = BicycleModel::new(VehicleParams::default());
        let mut s = VehicleState::at_rest(Pose::origin());
        let control = VehicleControl { steer, throttle, brake };
        for _ in 0..steps {
            s = model.step(s, control, friction, FRAME_DT);
            prop_assert!(s.pose.position.is_finite());
            prop_assert!(s.speed.is_finite());
            prop_assert!(s.speed >= 0.0);
            prop_assert!(s.speed <= model.params().max_speed + 1e-9);
            prop_assert!(s.steer_angle.abs() <= model.params().max_steer + 1e-9);
        }
    }

    /// Distance covered in one step never exceeds speed × dt.
    #[test]
    fn bicycle_step_distance_bounded(speed in 0.0f64..30.0, steer in -1.0f64..1.0) {
        let model = BicycleModel::new(VehicleParams::default());
        let s = VehicleState { pose: Pose::origin(), speed, steer_angle: 0.0 };
        let s2 = model.step(s, VehicleControl::new(steer, 1.0, 0.0), 1.0, FRAME_DT);
        let moved = s.pose.position.distance(s2.pose.position);
        let v_max = (speed + model.params().max_accel * FRAME_DT).min(model.params().max_speed);
        prop_assert!(moved <= v_max * FRAME_DT + 1e-9, "moved {moved}");
    }

    // --- Math --------------------------------------------------------

    /// Angle normalization is idempotent and lands in (-π, π].
    #[test]
    fn angle_normalization(theta in -100.0f64..100.0) {
        let a = normalize_angle(theta);
        prop_assert!(a > -std::f64::consts::PI - 1e-12);
        prop_assert!(a <= std::f64::consts::PI + 1e-12);
        prop_assert!((normalize_angle(a) - a).abs() < 1e-12);
        // Same direction as the original.
        prop_assert!(((theta - a) / (2.0 * std::f64::consts::PI)).round()
            * 2.0 * std::f64::consts::PI + a - theta < 1e-9);
    }

    /// Pose world/local transforms are inverse of each other.
    #[test]
    fn pose_roundtrip(px in -100.0f64..100.0, py in -100.0f64..100.0,
                      h in -4.0f64..4.0, qx in -50.0f64..50.0, qy in -50.0f64..50.0) {
        let pose = Pose::new(Vec2::new(px, py), h);
        let q = Vec2::new(qx, qy);
        prop_assert!(pose.to_local(pose.to_world(q)).distance(q) < 1e-9);
        prop_assert!(pose.to_world(pose.to_local(q)).distance(q) < 1e-9);
    }

    /// The closest point on a segment is never farther than either
    /// endpoint.
    #[test]
    fn segment_closest_point_optimal(ax in -10.0f64..10.0, ay in -10.0f64..10.0,
                                     bx in -10.0f64..10.0, by in -10.0f64..10.0,
                                     px in -20.0f64..20.0, py in -20.0f64..20.0) {
        let seg = Segment::new(Vec2::new(ax, ay), Vec2::new(bx, by));
        let p = Vec2::new(px, py);
        let d = seg.distance_to(p);
        prop_assert!(d <= p.distance(seg.a) + 1e-9);
        prop_assert!(d <= p.distance(seg.b) + 1e-9);
    }

    // --- RNG ---------------------------------------------------------

    /// Seed splitting is deterministic and stream-sensitive.
    #[test]
    fn seed_splitting(master in any::<u64>(), s1 in any::<u64>(), s2 in any::<u64>()) {
        prop_assert_eq!(split_seed(master, s1), split_seed(master, s1));
        if s1 != s2 {
            prop_assert_ne!(split_seed(master, s1), split_seed(master, s2));
        }
    }

    // --- Fault models --------------------------------------------------

    /// Bit flips are involutions on every finite payload and bit.
    #[test]
    fn bit_flip_involution(v in -1e12f64..1e12, bit in 0u8..64) {
        prop_assert_eq!(flip_bit(flip_bit(v, bit), bit), v);
    }

    /// Every camera fault model keeps pixel channels within [0, 1] when
    /// applied to a valid image (real camera pipelines saturate).
    #[test]
    fn image_faults_preserve_range(seed in any::<u64>(), model_idx in 0usize..5) {
        let model = ImageFault::paper_suite()[model_idx];
        let mut rng = stream_rng(seed, 1);
        let mut img = Image::filled(32, 24, [0.4, 0.5, 0.6]);
        let layout = ImageFaultLayout::sample(&model, 32, 24, &mut rng);
        model.apply(&mut img, &layout, &PixelFootprint::whole(32, 24), &mut rng);
        for v in img.data() {
            prop_assert!((0.0..=1.0).contains(v), "channel {v} out of range");
        }
    }

    /// The timing channel never invents commands: every delivered command
    /// was previously pushed or is the initial coast.
    #[test]
    fn timing_channel_conserves_commands(frames in 1usize..20, n in 1usize..60, seed in any::<u64>()) {
        let mut ch = TimingChannel::new(TimingFault::OutputDelay { frames });
        let mut rng = stream_rng(seed, 2);
        let mut sent: Vec<VehicleControl> = vec![VehicleControl::coast()];
        for i in 0..n {
            let c = VehicleControl::new((i as f64 / n as f64) - 0.5, 0.5, 0.0);
            sent.push(c);
            let out = ch.transfer(c, &mut rng);
            prop_assert!(sent.contains(&out), "unknown command delivered");
        }
    }

    /// Control clamping is idempotent and always lands in the legal box.
    #[test]
    fn control_clamping(steer in -100.0f64..100.0, thr in -100.0f64..100.0, brk in -100.0f64..100.0) {
        let c = VehicleControl { steer, throttle: thr, brake: brk }.clamped();
        prop_assert!((-1.0..=1.0).contains(&c.steer));
        prop_assert!((0.0..=1.0).contains(&c.throttle));
        prop_assert!((0.0..=1.0).contains(&c.brake));
        prop_assert_eq!(c.clamped(), c);
    }

    // --- Statistics ----------------------------------------------------

    /// Summary quantiles are ordered and bracket the data.
    #[test]
    fn summary_ordering(data in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
        let s = Summary::of(&data);
        prop_assert!(s.min <= s.q1 + 1e-9);
        prop_assert!(s.q1 <= s.median + 1e-9);
        prop_assert!(s.median <= s.q3 + 1e-9);
        prop_assert!(s.q3 <= s.max + 1e-9);
        prop_assert!(s.mean >= s.min - 1e-9 && s.mean <= s.max + 1e-9);
        prop_assert!(s.std >= 0.0);
    }

    /// Percentiles are monotone in p.
    #[test]
    fn percentile_monotone(data in proptest::collection::vec(-1e3f64..1e3, 2..50),
                           p1 in 0.0f64..100.0, p2 in 0.0f64..100.0) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let mut sorted = data.clone();
        sorted.sort_by(f64::total_cmp);
        prop_assert!(percentile_sorted(&sorted, lo) <= percentile_sorted(&sorted, hi) + 1e-9);
    }

    // --- NN ------------------------------------------------------------

    /// Tensor reshape preserves contents.
    #[test]
    fn tensor_algebra(data in proptest::collection::vec(-10.0f32..10.0, 1..64)) {
        let n = data.len();
        let t = Tensor::from_vec(data.clone(), vec![n]);
        let u = t.clone().reshaped(vec![1, n]).reshaped(vec![n]);
        prop_assert_eq!(t.data(), u.data());
    }
}

// --- Determinism (not proptest: heavier, specific) ----------------------

#[test]
fn world_evolution_bit_identical_across_runs() {
    use avfi::sim::scenario::{Scenario, TownSpec};
    use avfi::sim::world::World;
    let scenario = Scenario::builder(TownSpec::grid(3, 3))
        .seed(77)
        .npc_vehicles(5)
        .pedestrians(5)
        .build();
    let run = || {
        let mut w = World::from_scenario(&scenario);
        let mut hash = 0u64;
        for i in 0..200 {
            let c = VehicleControl::new((i as f64 * 0.05).sin() * 0.3, 0.6, 0.0);
            w.step(c);
            let p = w.ego().pose.position;
            hash = hash
                .wrapping_mul(31)
                .wrapping_add(p.x.to_bits())
                .wrapping_add(p.y.to_bits());
        }
        (hash, w.monitor().count(), w.odometer().to_bits())
    };
    assert_eq!(run(), run());
}

#[test]
fn sensor_frames_bit_identical_across_runs() {
    use avfi::sim::scenario::{Scenario, TownSpec};
    use avfi::sim::world::World;
    let scenario = Scenario::builder(TownSpec::grid(2, 2))
        .seed(78)
        .npc_vehicles(3)
        .pedestrians(3)
        .build();
    let observe = || {
        let mut w = World::from_scenario(&scenario);
        for _ in 0..30 {
            w.step(VehicleControl::new(0.1, 0.5, 0.0));
        }
        w.observe()
    };
    assert_eq!(observe(), observe());
}
