//! # avfi-nn — a from-scratch neural-network library for the AVFI agent
//!
//! The AVFI paper's driving agent is an imitation-learning CNN (Codevilla
//! et al.'s conditional imitation network). Reproducing the paper in pure
//! Rust therefore needs a small but real deep-learning substrate:
//!
//! * [`Tensor`] — dense `f32` tensors with shape tracking,
//! * [`layers`] — `Conv2d`, `Dense`, `ReLU` and `Flatten`, each with
//!   hand-written forward and backward passes,
//! * [`Sequential`] — the layer container; the agent crate's
//!   `IlNetwork` builds the command-conditional architecture (shared
//!   trunk, one head per high-level command) from it,
//! * [`optim`] — Adam,
//! * [`loss`] — mean-squared-error with gradient,
//! * named parameter access ([`ParamSlice`]) and activation-override hooks
//!   — the injection surface for AVFI's *machine-learning fault* class
//!   ("choosing specific neurons and layers in the IL-CNN" and "adding
//!   noise into the parameters of the machine learning model").
//!
//! ## Example: tiny regression
//!
//! ```
//! use avfi_nn::layers::{Dense, Relu};
//! use avfi_nn::loss::mse;
//! use avfi_nn::optim::Adam;
//! use avfi_nn::{Sequential, Tensor};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let mut net = Sequential::new();
//! net.push(Dense::new(1, 8, &mut rng));
//! net.push(Relu::new());
//! net.push(Dense::new(8, 1, &mut rng));
//! let mut opt = Adam::new(0.02);
//! for _ in 0..200 {
//!     for x in [-1.0f32, -0.5, 0.0, 0.5, 1.0] {
//!         let input = Tensor::from_vec(vec![x], vec![1]);
//!         let target = Tensor::from_vec(vec![x * 0.5], vec![1]);
//!         let out = net.forward(&input, true);
//!         let (_, grad) = mse(&out, &target);
//!         net.backward(&grad);
//!         opt.step(&mut net.params());
//!     }
//! }
//! let out = net.forward(&Tensor::from_vec(vec![0.8], vec![1]), false);
//! assert!((out.data()[0] - 0.4).abs() < 0.1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod init;
pub mod layers;
pub mod loss;
pub mod network;
pub mod optim;
pub mod serialize;
pub mod tensor;

pub use layers::{Layer, ParamSlice};
pub use network::Sequential;
pub use tensor::Tensor;
