//! IL-CNN forward wall-clock: blocked lane-batched kernels vs the retained
//! scalar `forward_reference` oracles, per layer and whole-net. Bitwise
//! equality of every compared output is asserted *before* timing — a
//! speedup over non-identical results would be meaningless. Emits one
//! JSON object on stdout (the record stored in
//! `BENCH_pr9.json` at the repo root).
//!
//! The layers are the exact production shapes of the driving agent
//! (`IlNetwork`): conv 1→8 k5 s2 p2 on 24×32, conv 8→16 k3 s2 p1, dense
//! 768→64, and one command head (65→32→3). Weights are seeded, not
//! trained — the arithmetic cost is identical.
//!
//! Usage: `cargo run --release -p avfi-bench --bin nn_forward [--quick]
//! [--frames N]`

use avfi_nn::layers::{Conv2d, Dense, Flatten, Layer, Relu};
use avfi_nn::Tensor;
use avfi_server::cli::Args;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

const NET_H: usize = 24;
const NET_W: usize = 32;

struct IlLayers {
    conv1: Conv2d,
    relu1: Relu,
    conv2: Conv2d,
    relu2: Relu,
    flatten: Flatten,
    dense: Dense,
    relu3: Relu,
    head_a: Dense,
    relu4: Relu,
    head_b: Dense,
}

impl IlLayers {
    fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        IlLayers {
            conv1: Conv2d::new(1, 8, 5, 2, 2, &mut rng),
            relu1: Relu::new(),
            conv2: Conv2d::new(8, 16, 3, 2, 1, &mut rng),
            relu2: Relu::new(),
            flatten: Flatten::new(),
            dense: Dense::new(16 * (NET_H / 4) * (NET_W / 4), 64, &mut rng),
            relu3: Relu::new(),
            head_a: Dense::new(65, 32, &mut rng),
            relu4: Relu::new(),
            head_b: Dense::new(32, 3, &mut rng),
        }
    }

    /// Whole-net inference through the blocked kernels.
    fn forward_blocked(&mut self, img: &Tensor, speed: f32) -> Tensor {
        let x = self.conv1.forward(img, false);
        let x = self.relu1.forward(&x, false);
        let x = self.conv2.forward(&x, false);
        let x = self.relu2.forward(&x, false);
        let x = self.flatten.forward(&x, false);
        let x = self.dense.forward(&x, false);
        let x = self.relu3.forward(&x, false);
        let mut head_in = Vec::with_capacity(x.len() + 1);
        head_in.extend_from_slice(x.data());
        head_in.push(speed);
        let n = head_in.len();
        let x = Tensor::from_vec(head_in, vec![n]);
        let x = self.head_a.forward(&x, false);
        let x = self.relu4.forward(&x, false);
        self.head_b.forward(&x, false)
    }

    /// Whole-net inference through the scalar reference kernels
    /// (activations/reshape are shared and already bit-identical).
    fn forward_reference(&mut self, img: &Tensor, speed: f32) -> Tensor {
        let x = self.conv1.forward_reference(img);
        let x = self.relu1.forward(&x, false);
        let x = self.conv2.forward_reference(&x);
        let x = self.relu2.forward(&x, false);
        let x = self.flatten.forward(&x, false);
        let x = self.dense.forward_reference(&x);
        let x = self.relu3.forward(&x, false);
        let mut head_in = Vec::with_capacity(x.len() + 1);
        head_in.extend_from_slice(x.data());
        head_in.push(speed);
        let n = head_in.len();
        let x = Tensor::from_vec(head_in, vec![n]);
        let x = self.head_a.forward_reference(&x);
        let x = self.relu4.forward(&x, false);
        self.head_b.forward_reference(&x)
    }
}

fn images(count: usize) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(7);
    (0..count)
        .map(|_| {
            Tensor::from_vec(
                (0..NET_H * NET_W)
                    .map(|_| rng.random_range(-1.0f32..1.0))
                    .collect(),
                vec![1, NET_H, NET_W],
            )
        })
        .collect()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Mean µs per call of `f` over `frames` calls.
fn time_us(frames: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..frames {
        f(i);
    }
    t.elapsed().as_secs_f64() * 1e6 / frames as f64
}

fn main() {
    let mut args = Args::from_env();
    let quick = args.flag("--quick");
    let frames = args
        .value("--frames")
        .unwrap_or(if quick { 400 } else { 4000 });
    args.finish();

    let mut net = IlLayers::new(42);
    let imgs = images(8);

    // Gate: every compared path must be bit-identical before timing.
    for (i, img) in imgs.iter().enumerate() {
        let speed = i as f32 * 0.1;
        let blocked = net.forward_blocked(img, speed);
        let reference = net.forward_reference(img, speed);
        assert_eq!(
            bits(&blocked),
            bits(&reference),
            "blocked whole-net logits must be bit-identical to the scalar reference"
        );
        let c1 = net.conv1.forward(img, false);
        assert_eq!(bits(&c1), bits(&net.conv1.forward_reference(img)));
        let c2_in = net.relu1.forward(&c1, false);
        let c2 = net.conv2.forward(&c2_in, false);
        assert_eq!(bits(&c2), bits(&net.conv2.forward_reference(&c2_in)));
        let d_in = net.flatten.forward(&net.relu2.forward(&c2, false), false);
        assert_eq!(
            bits(&net.dense.forward(&d_in, false)),
            bits(&net.dense.forward_reference(&d_in))
        );
    }
    eprintln!(
        "[nn_forward] bit-identity verified on {} inputs; timing {frames} frames",
        imgs.len()
    );

    // Fixed per-layer inputs (representative activations from image 0).
    let c1_out = net.conv1.forward(&imgs[0], false);
    let c2_in = net.relu1.forward(&c1_out, false);
    let c2_out = net.conv2.forward(&c2_in, false);
    let d_in = net
        .flatten
        .forward(&net.relu2.forward(&c2_out, false), false);

    let conv1_ref_us = time_us(frames, |i| {
        black_box(net.conv1.forward_reference(&imgs[i % 8]));
    });
    let conv1_blk_us = time_us(frames, |i| {
        black_box(net.conv1.forward(&imgs[i % 8], false));
    });
    let conv2_ref_us = time_us(frames, |_| {
        black_box(net.conv2.forward_reference(&c2_in));
    });
    let conv2_blk_us = time_us(frames, |_| {
        black_box(net.conv2.forward(&c2_in, false));
    });
    let dense_ref_us = time_us(frames, |_| {
        black_box(net.dense.forward_reference(&d_in));
    });
    let dense_blk_us = time_us(frames, |_| {
        black_box(net.dense.forward(&d_in, false));
    });
    let net_ref_us = time_us(frames, |i| {
        black_box(net.forward_reference(&imgs[i % 8], (i % 8) as f32 * 0.1));
    });
    let net_blk_us = time_us(frames, |i| {
        black_box(net.forward_blocked(&imgs[i % 8], (i % 8) as f32 * 0.1));
    });

    println!(
        "{{\"bench\": \"nn_forward\", \"frames\": {frames}, \
         \"conv1_reference_us\": {conv1_ref_us:.2}, \"conv1_blocked_us\": {conv1_blk_us:.2}, \
         \"conv2_reference_us\": {conv2_ref_us:.2}, \"conv2_blocked_us\": {conv2_blk_us:.2}, \
         \"dense_reference_us\": {dense_ref_us:.2}, \"dense_blocked_us\": {dense_blk_us:.2}, \
         \"net_reference_us\": {net_ref_us:.2}, \"net_blocked_us\": {net_blk_us:.2}, \
         \"net_speedup\": {:.3}}}",
        net_ref_us / net_blk_us
    );
}
