//! Deterministic random-number utilities.
//!
//! Every stochastic component of the simulator and of AVFI campaigns draws
//! from an [`rand::rngs::StdRng`] seeded through [`split_seed`], so a single
//! campaign master seed reproduces every trajectory bit-for-bit.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Derives a stream-specific 64-bit seed from a master seed using the
/// splitmix64 finalizer. Different `stream` values yield statistically
/// independent seeds for the same master.
///
/// ```
/// use avfi_sim::rng::split_seed;
/// assert_ne!(split_seed(42, 0), split_seed(42, 1));
/// assert_eq!(split_seed(42, 3), split_seed(42, 3));
/// ```
#[inline]
pub fn split_seed(master: u64, stream: u64) -> u64 {
    let mut z = master
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the seed of one campaign run from its scenario template's seed
/// and its `(scenario, run)` coordinates — the determinism contract every
/// execution path and trace replay shares. The stream index mixes in
/// `scenario_index` so two scenarios that happen to share a template seed
/// still get distinct traffic (mixing only `run_index` would replay
/// identical runs across them).
#[inline]
pub fn run_seed(template_seed: u64, scenario_index: usize, run_index: usize) -> u64 {
    split_seed(
        template_seed,
        ((scenario_index as u64) << 32) | (run_index as u64 + 1),
    )
}

/// Creates a seeded [`StdRng`] for a named stream of a master seed.
#[inline]
pub fn stream_rng(master: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(split_seed(master, stream))
}

/// Samples a standard normal via the Box–Muller transform.
///
/// The `rand_distr` crate is not in the dependency whitelist; Box–Muller is
/// exact and two calls cheap at simulator scale.
#[inline]
pub fn standard_normal<R: RngExt + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.random_range(1e-12..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Advances `rng` past one [`standard_normal`] sample without computing
/// it: the same two uniform draws in the same order, and no `ln`, `sqrt`
/// or `cos`. A stream that skips the samples nobody reads stays in step
/// with one that computes them all.
#[inline]
pub fn skip_standard_normal<R: RngExt + ?Sized>(rng: &mut R) {
    let _: f64 = rng.random_range(1e-12..1.0);
    let _: f64 = rng.random_range(0.0..1.0);
}

/// Samples `N(mean, sigma²)`.
#[inline]
pub fn normal<R: RngExt + ?Sized>(rng: &mut R, mean: f64, sigma: f64) -> f64 {
    mean + sigma * standard_normal(rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_seed_puts_scenario_high_and_run_low() {
        assert_eq!(run_seed(42, 0, 0), split_seed(42, 1));
        assert_eq!(run_seed(42, 0, 6), split_seed(42, 7));
        assert_eq!(run_seed(42, 3, 6), split_seed(42, (3 << 32) | 7));
        assert_ne!(run_seed(42, 1, 0), run_seed(42, 0, 1));
    }

    #[test]
    fn split_seed_is_deterministic_and_spread() {
        let a = split_seed(1, 0);
        let b = split_seed(1, 1);
        let c = split_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, split_seed(1, 0));
    }

    #[test]
    fn stream_rng_reproducible() {
        let mut r1 = stream_rng(99, 7);
        let mut r2 = stream_rng(99, 7);
        for _ in 0..16 {
            let a: u64 = r1.random();
            let b: u64 = r2.random();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn skip_standard_normal_leaves_the_stream_where_a_sample_does() {
        for seed in 0..8 {
            let mut sampled = stream_rng(seed, 3);
            let mut skipped = stream_rng(seed, 3);
            for i in 0..64 {
                // Interleave, so a skip that consumed a different number
                // of draws would shift every later sample.
                if i % 3 == 0 {
                    assert_eq!(
                        standard_normal(&mut sampled).to_bits(),
                        standard_normal(&mut skipped).to_bits()
                    );
                } else {
                    let _ = standard_normal(&mut sampled);
                    skip_standard_normal(&mut skipped);
                }
            }
            assert_eq!(sampled.random::<u64>(), skipped.random::<u64>());
        }
    }

    #[test]
    fn normal_moments() {
        let mut rng = stream_rng(123, 0);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut rng, 2.0, 3.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean={mean}");
        assert!((var.sqrt() - 3.0).abs() < 0.1, "sd={}", var.sqrt());
    }
}
