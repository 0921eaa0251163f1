//! End-to-end gradient verification and learning-capacity tests for the
//! full network stack (strided conv → dense), built from the layer kinds
//! the IL-CNN uses, beyond the per-layer unit checks.

use avfi_nn::layers::{Conv2d, Dense, Flatten, Relu};
use avfi_nn::loss::mse;
use avfi_nn::optim::Adam;
use avfi_nn::{Sequential, Tensor};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn small_cnn(seed: u64) -> Sequential {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = Sequential::new();
    net.push(Conv2d::new(1, 4, 3, 2, 1, &mut rng));
    net.push(Relu::new());
    net.push(Flatten::new());
    net.push(Dense::new(4 * 4 * 4, 8, &mut rng));
    net.push(Relu::new());
    net.push(Dense::new(8, 1, &mut rng));
    net
}

/// Finite-difference check of dL/dinput through the whole stack.
#[test]
fn full_network_input_gradient_matches_finite_difference() {
    let mut net = small_cnn(1);
    let mut rng = StdRng::seed_from_u64(2);
    let x = Tensor::from_vec(
        (0..64).map(|_| rng.random_range(-1.0f32..1.0)).collect(),
        vec![1, 8, 8],
    );
    let target = Tensor::from_vec(vec![0.5], vec![1]);
    let out = net.forward(&x, true);
    let (l0, grad_l) = mse(&out, &target);
    let grad_in = net.backward(&grad_l);

    let eps = 1e-2f32;
    let mut checked = 0;
    for i in (0..64).step_by(7) {
        let mut xp = x.clone();
        xp.data_mut()[i] += eps;
        let (l1, _) = mse(&net.forward(&xp, false), &target);
        let numeric = (l1 - l0) / eps;
        let analytic = grad_in.data()[i];
        assert!(
            (numeric - analytic).abs() < 2e-2 * (1.0 + numeric.abs().max(analytic.abs())),
            "at {i}: numeric {numeric} vs analytic {analytic}"
        );
        checked += 1;
    }
    assert!(checked >= 9);
}

/// Finite-difference check of dL/dW for a sampled set of parameters across
/// every parameterized layer.
#[test]
fn full_network_weight_gradients_match_finite_difference() {
    let mut net = small_cnn(3);
    let x = Tensor::from_vec(
        (0..64).map(|i| ((i % 9) as f32 - 4.0) * 0.1).collect(),
        vec![1, 8, 8],
    );
    let target = Tensor::from_vec(vec![-0.3], vec![1]);

    // Analytic gradients (train = true so layers cache for backward).
    let out = net.forward(&x, true);
    let (l0, grad_l) = mse(&out, &target);
    net.backward(&grad_l);
    let analytic: Vec<(String, usize, f32)> = {
        let params = net.params();
        params
            .iter()
            .map(|p| {
                (
                    p.name.clone(),
                    p.values.len() / 2,
                    p.grads[p.values.len() / 2],
                )
            })
            .collect()
    };
    // Zero the grads again (optimizer would) by stepping a no-op clone of
    // grads manually.
    for p in net.params() {
        for g in p.grads.iter_mut() {
            *g = 0.0;
        }
    }

    let eps = 1e-2f32;
    for (name, idx, analytic_g) in analytic {
        // Perturb that parameter.
        {
            let mut params = net.params();
            let p = params.iter_mut().find(|p| p.name == name).unwrap();
            p.values[idx] += eps;
        }
        let (l1, _) = mse(&net.forward(&x, false), &target);
        {
            let mut params = net.params();
            let p = params.iter_mut().find(|p| p.name == name).unwrap();
            p.values[idx] -= eps;
        }
        let numeric = (l1 - l0) / eps;
        assert!(
            (numeric - analytic_g).abs() < 2e-2 * (1.0 + numeric.abs().max(analytic_g.abs())),
            "{name}[{idx}]: numeric {numeric} vs analytic {analytic_g}"
        );
    }
}

/// The stack can learn a real vision task: regress the horizontal position
/// of a bright vertical bar in the image — a miniature of the lane-keeping
/// problem the IL agent faces.
#[test]
fn cnn_learns_bar_position_regression() {
    let mut net = small_cnn(4);
    let mut opt = Adam::new(5e-3);
    let mut rng = StdRng::seed_from_u64(5);
    let make_sample = |col: usize| {
        let mut img = vec![0.0f32; 64];
        for row in 0..8 {
            img[row * 8 + col] = 1.0;
        }
        let target = (col as f32 / 7.0) * 2.0 - 1.0;
        (Tensor::from_vec(img, vec![1, 8, 8]), target)
    };
    for _ in 0..400 {
        let col = rng.random_range(0..8);
        let (x, t) = make_sample(col);
        let out = net.forward(&x, true);
        let (_, g) = mse(&out, &Tensor::from_vec(vec![t], vec![1]));
        net.backward(&g);
        opt.step(&mut net.params());
    }
    let mut worst = 0.0f32;
    for col in 0..8 {
        let (x, t) = make_sample(col);
        let pred = net.forward(&x, false).data()[0];
        worst = worst.max((pred - t).abs());
    }
    assert!(worst < 0.35, "worst abs error {worst}");
}
