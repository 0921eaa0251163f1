//! Weight initialization schemes.

use rand::{Rng, RngExt};

/// He/Kaiming uniform initialization. Appropriate before `ReLU` activations.
pub fn he_uniform<R: Rng + ?Sized>(rng: &mut R, fan_in: usize, out: &mut [f32]) {
    let limit = (6.0 / fan_in as f32).sqrt();
    for w in out {
        *w = rng.random_range(-limit..=limit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn he_within_limit() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut w = vec![0.0; 1000];
        he_uniform(&mut rng, 50, &mut w);
        let limit = (6.0f32 / 50.0).sqrt();
        assert!(w.iter().all(|v| v.abs() <= limit));
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = vec![0.0; 16];
        let mut b = vec![0.0; 16];
        he_uniform(&mut StdRng::seed_from_u64(7), 4, &mut a);
        he_uniform(&mut StdRng::seed_from_u64(7), 4, &mut b);
        assert_eq!(a, b);
    }
}
