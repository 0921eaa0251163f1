//! Differential oracle for the blocked, lane-batched conv/dense kernels.
//!
//! The blocked `forward` paths claim bit-identity with the retained scalar
//! `forward_reference` oracles (each lane is an independent output whose
//! accumulation order is untouched). This suite enforces that claim with
//! `f32::to_bits` comparison — not approximate equality — over randomized
//! shapes, strides, and paddings, plus deterministic adversarial shapes
//! (output counts that leave 16- and 8-lane tails, odd runs of interior
//! pixels for the 2-pixel passes, 1×1 images, fewer outputs than lanes)
//! and the exact IL-CNN layer shapes, alone and chained into the whole
//! net. The kernels read a packed copy of the weights, so the suite also
//! rewrites weights through `params()` between forward passes, on a layer
//! and on its clone.

use avfi_nn::layers::{Conv2d, Dense, Flatten, Layer, ParamSlice, Relu};
use avfi_nn::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn random_input(rng: &mut StdRng, shape: Vec<usize>) -> Tensor {
    let n: usize = shape.iter().product();
    Tensor::from_vec(
        (0..n).map(|_| rng.random_range(-1.5f32..1.5)).collect(),
        shape,
    )
}

fn check_conv(
    (in_ch, out_ch): (usize, usize),
    (h, w): (usize, usize),
    k: usize,
    stride: usize,
    pad: usize,
    seed: u64,
) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut conv = Conv2d::new(in_ch, out_ch, k, stride, pad, &mut rng);
    let x = random_input(&mut rng, vec![in_ch, h, w]);
    let reference = conv.forward_reference(&x);
    for train in [false, true] {
        let blocked = conv.forward(&x, train);
        prop_assert_eq!(blocked.shape(), reference.shape());
        prop_assert_eq!(bits(&blocked), bits(&reference));
    }
    Ok(())
}

fn check_dense(in_dim: usize, out_dim: usize, seed: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut dense = Dense::new(in_dim, out_dim, &mut rng);
    let x = random_input(&mut rng, vec![in_dim]);
    let reference = dense.forward_reference(&x);
    for train in [false, true] {
        let blocked = dense.forward(&x, train);
        prop_assert_eq!(blocked.shape(), reference.shape());
        prop_assert_eq!(bits(&blocked), bits(&reference));
    }
    Ok(())
}

/// Overwrites a random third of every parameter (weights and biases)
/// through `params()`, the path loading, optimizers and ML faults take.
fn mutate(params: Vec<ParamSlice<'_>>, rng: &mut StdRng) {
    for p in params {
        for v in p.values.iter_mut() {
            if rng.random_range(0..3) == 0 {
                *v = rng.random_range(-1.5f32..1.5);
            }
        }
    }
}

/// Forward, then rewrite the weights, then forward again, on the layer
/// and independently on a clone taken after the first pass: every pass
/// must match the oracle of the weights it ran with. A packed panel that
/// `params()` failed to mark stale would still hold the first weights.
fn check_after_mutation<L: Layer + Clone>(
    mut layer: L,
    x: &Tensor,
    reference: impl Fn(&L, &Tensor) -> Tensor,
    rng: &mut StdRng,
) -> Result<(), String> {
    prop_assert_eq!(bits(&layer.forward(x, false)), bits(&reference(&layer, x)));
    let mut clone = layer.clone();
    prop_assert_eq!(bits(&clone.forward(x, false)), bits(&reference(&layer, x)));
    for l in [&mut layer, &mut clone] {
        mutate(l.params(), rng);
        prop_assert_eq!(bits(&l.forward(x, false)), bits(&reference(l, x)));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn conv_blocked_matches_reference_bitwise(
        in_ch in 1usize..=4,
        out_ch in 1usize..=9,
        h in 1usize..=12,
        w in 1usize..=12,
        ki in 0usize..3,
        stride in 1usize..=2,
        pad_raw in 0usize..=5,
        seed in any::<u64>(),
    ) {
        let k = [1usize, 3, 5][ki];
        let pad = pad_raw.min(k);
        // Degenerate shapes (kernel larger than padded image) have no
        // output; skip them rather than constrain the generators.
        if h + 2 * pad >= k && w + 2 * pad >= k {
            check_conv((in_ch, out_ch), (h, w), k, stride, pad, seed)?;
        }
    }

    #[test]
    fn dense_blocked_matches_reference_bitwise(
        in_dim in 1usize..=70,
        out_dim in 1usize..=70,
        seed in any::<u64>(),
    ) {
        check_dense(in_dim, out_dim, seed)?;
    }

    #[test]
    fn conv_repacks_after_params_rewrite(
        in_ch in 1usize..=3,
        out_ch in 1usize..=26,
        h in 3usize..=9,
        w in 3usize..=11,
        stride in 1usize..=2,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let conv = Conv2d::new(in_ch, out_ch, 3, stride, 1, &mut rng);
        let x = random_input(&mut rng, vec![in_ch, h, w]);
        check_after_mutation(conv, &x, Conv2d::forward_reference, &mut rng)?;
    }

    #[test]
    fn dense_repacks_after_params_rewrite(
        in_dim in 1usize..=40,
        out_dim in 1usize..=50,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dense = Dense::new(in_dim, out_dim, &mut rng);
        let x = random_input(&mut rng, vec![in_dim]);
        check_after_mutation(dense, &x, Dense::forward_reference, &mut rng)?;
    }
}

#[test]
fn il_cnn_layers_repack_after_params_rewrite() {
    let mut rng = StdRng::seed_from_u64(47);
    let conv1 = Conv2d::new(1, 8, 5, 2, 2, &mut rng);
    let conv2 = Conv2d::new(8, 16, 3, 2, 1, &mut rng);
    let dense = Dense::new(768, 64, &mut rng);
    let x1 = random_input(&mut rng, vec![1, 24, 32]);
    let x2 = random_input(&mut rng, vec![8, 12, 16]);
    let x3 = random_input(&mut rng, vec![768]);
    check_after_mutation(conv1, &x1, Conv2d::forward_reference, &mut rng).unwrap();
    check_after_mutation(conv2, &x2, Conv2d::forward_reference, &mut rng).unwrap();
    check_after_mutation(dense, &x3, Dense::forward_reference, &mut rng).unwrap();
}

#[test]
fn conv_adversarial_shapes() {
    // (in_ch, out_ch, h, w, k, stride, pad): 1×1 images, widths around the
    // 4-lane block boundary, stride-2 with full padding, single-pixel
    // interiors, and kernels larger than the image.
    let cases: &[(usize, usize, usize, usize, usize, usize, usize)] = &[
        (1, 1, 1, 1, 1, 1, 0),
        (1, 1, 1, 1, 3, 1, 1),
        (2, 3, 1, 1, 5, 2, 5),
        (1, 2, 3, 3, 3, 1, 1),
        (1, 2, 4, 5, 3, 1, 1),
        (1, 2, 5, 6, 3, 1, 1),
        (1, 2, 7, 7, 3, 1, 0),
        (3, 5, 9, 13, 3, 2, 1),
        (2, 4, 8, 11, 5, 2, 2),
        (1, 1, 2, 2, 5, 1, 2),
        (2, 2, 6, 4, 1, 2, 1),
        (1, 3, 10, 3, 3, 1, 3),
        // 16- and 8-lane blocks and their tails: 17 = 16 + 1,
        // 25 = 16 + 8 + 1, 31 = 16 + 8 + 7 singles, 40 = 16 + 16 + 8.
        (2, 17, 5, 6, 3, 1, 1),
        (1, 25, 4, 7, 3, 2, 1),
        (3, 31, 6, 5, 3, 1, 1),
        (2, 40, 5, 5, 3, 2, 1),
        // conv1's shape (k5, stride 2, pad 2) on widths whose interior
        // runs are odd (the last interior pixel goes alone) and even.
        (1, 8, 24, 31, 5, 2, 2),
        (1, 8, 24, 33, 5, 2, 2),
        (1, 8, 7, 9, 5, 2, 2),
        (1, 8, 5, 7, 5, 2, 2),
        (1, 8, 6, 8, 5, 2, 2),
    ];
    for &(in_ch, out_ch, h, w, k, stride, pad) in cases {
        let seed = (in_ch * 31 + h * 7 + w * 3 + k) as u64;
        check_conv((in_ch, out_ch), (h, w), k, stride, pad, seed).unwrap_or_else(|e| {
            panic!("conv case {in_ch}x{out_ch} {h}x{w} k{k} s{stride} p{pad}: {e}")
        });
    }
}

#[test]
fn dense_adversarial_shapes() {
    // Output counts below, at, and just past the 8- and 16-lane block
    // widths, and ones that leave an 8-lane block and single outputs after
    // the 16-lane blocks.
    for &(in_dim, out_dim) in &[
        (1usize, 1usize),
        (5, 3),
        (7, 7),
        (8, 8),
        (9, 9),
        (16, 15),
        (17, 17),
        (16, 16),
        (3, 23),
        (12, 24),
        (12, 25),
        (7, 31),
        (33, 33),
        (20, 47),
        (64, 1),
        (1, 64),
    ] {
        check_dense(in_dim, out_dim, (in_dim * 100 + out_dim) as u64)
            .unwrap_or_else(|e| panic!("dense case {in_dim}->{out_dim}: {e}"));
    }
}

#[test]
fn il_cnn_layer_shapes_match_bitwise() {
    // The exact layer shapes of the IL-CNN driving agent (24×32 input).
    check_conv((1, 8), (24, 32), 5, 2, 2, 42).unwrap();
    check_conv((8, 16), (12, 16), 3, 2, 1, 43).unwrap();
    check_dense(768, 64, 44).unwrap();
    check_dense(65, 32, 45).unwrap();
    check_dense(32, 3, 46).unwrap();

    // The same shapes chained into the whole net (conv → relu → conv →
    // relu → flatten → dense → relu, then the command head on features ⊕
    // speed): blocked kernels vs scalar oracles on 8 inputs.
    let mut rng = StdRng::seed_from_u64(42);
    let mut conv1 = Conv2d::new(1, 8, 5, 2, 2, &mut rng);
    let mut conv2 = Conv2d::new(8, 16, 3, 2, 1, &mut rng);
    let mut dense = Dense::new(768, 64, &mut rng);
    let mut head_a = Dense::new(65, 32, &mut rng);
    let mut head_b = Dense::new(32, 3, &mut rng);
    let relu = |x: Tensor| Relu::new().forward(&x, false);
    let flat = |x: Tensor| Flatten::new().forward(&x, false);
    let with_speed =
        |x: Tensor, speed: f32| Tensor::from_vec([x.data(), &[speed]].concat(), vec![65]);
    let mut rng = StdRng::seed_from_u64(7);
    for i in 0..8 {
        let img = random_input(&mut rng, vec![1, 24, 32]);
        let speed = i as f32 * 0.1;
        let x = relu(conv1.forward(&img, false));
        let x = relu(conv2.forward(&x, false));
        let x = relu(dense.forward(&flat(x), false));
        let x = relu(head_a.forward(&with_speed(x, speed), false));
        let blocked = head_b.forward(&x, false);
        let x = relu(conv1.forward_reference(&img));
        let x = relu(conv2.forward_reference(&x));
        let x = relu(dense.forward_reference(&flat(x)));
        let x = relu(head_a.forward_reference(&with_speed(x, speed)));
        let reference = head_b.forward_reference(&x);
        assert_eq!(bits(&blocked), bits(&reference), "whole-net input {i}");
    }
}
