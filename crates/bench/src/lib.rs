//! # avfi-bench — experiment harness for every figure of the AVFI paper
//!
//! The paper's evaluation is Figures 2–4 (Figure 1 is the architecture):
//!
//! * **Fig. 2** — mission success rate under the six input fault injectors
//!   {NoInject, Gaussian, S&P, SolidOcc, TranspOcc, WaterDrop},
//! * **Fig. 3** — traffic violations per km under the same injectors,
//! * **Fig. 4** — violations per km vs output delay {0, 5, 10, 20, 30}
//!   frames between the ADA and actuation (15 FPS).
//!
//! [`experiments`] provides the shared machinery (scenario suite, cached
//! agent training, campaign studies); each study binary runs its
//! campaigns once and prints every table drawn from them:
//! `fig2_mission_success` prints Figures 2 and 3 and the §II
//! accidents-per-km table, `fig4_output_delay` prints Figure 4. Timing
//! lives in `perfbench/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
