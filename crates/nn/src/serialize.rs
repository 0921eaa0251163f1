//! Weight serialization: a compact binary format for trained models.
//!
//! Layout: magic `AVNN`, version byte, `u32` parameter count, then per
//! parameter a `u32` length and that many little-endian `f32`s. The format
//! stores only values (not architecture); loading requires a freshly built
//! network of the same shape, which is how the agent crate ships its
//! trained policy.

use crate::layers::ParamSlice;
use std::fmt;

/// Errors from weight (de)serialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadWeightsError {
    /// Input does not start with the `AVNN` magic.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u8),
    /// Input ended prematurely.
    Truncated,
    /// Parameter count or a parameter length does not match the target
    /// network.
    ShapeMismatch {
        /// What the file contains.
        found: usize,
        /// What the network expects.
        expected: usize,
    },
}

impl fmt::Display for LoadWeightsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadWeightsError::BadMagic => write!(f, "missing AVNN magic"),
            LoadWeightsError::BadVersion(v) => write!(f, "unsupported version {v}"),
            LoadWeightsError::Truncated => write!(f, "unexpected end of input"),
            LoadWeightsError::ShapeMismatch { found, expected } => {
                write!(f, "shape mismatch: found {found}, expected {expected}")
            }
        }
    }
}

impl std::error::Error for LoadWeightsError {}

const MAGIC: &[u8; 4] = b"AVNN";
const VERSION: u8 = 1;

/// Serializes parameters to the binary weight format.
pub fn save_weights(params: &[ParamSlice<'_>]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    out.extend_from_slice(&(params.len() as u32).to_le_bytes());
    for p in params {
        out.extend_from_slice(&(p.values.len() as u32).to_le_bytes());
        for v in p.values.iter() {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    out
}

/// Loads weights into the parameters of an existing network.
///
/// # Errors
///
/// Returns an error if the input is malformed or its shapes do not match
/// the network's parameters.
pub fn load_weights(bytes: &[u8], params: &mut [ParamSlice<'_>]) -> Result<(), LoadWeightsError> {
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Result<&[u8], LoadWeightsError> {
        if *pos + n > bytes.len() {
            return Err(LoadWeightsError::Truncated);
        }
        let s = &bytes[*pos..*pos + n];
        *pos += n;
        Ok(s)
    };
    if take(&mut pos, 4)? != MAGIC {
        return Err(LoadWeightsError::BadMagic);
    }
    let version = take(&mut pos, 1)?[0];
    if version != VERSION {
        return Err(LoadWeightsError::BadVersion(version));
    }
    let count = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")) as usize;
    if count != params.len() {
        return Err(LoadWeightsError::ShapeMismatch {
            found: count,
            expected: params.len(),
        });
    }
    // Two-phase: validate everything before mutating, so a bad file cannot
    // leave the network half-loaded.
    let mut loaded: Vec<Vec<f32>> = Vec::with_capacity(count);
    for p in params.iter() {
        let len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")) as usize;
        if len != p.values.len() {
            return Err(LoadWeightsError::ShapeMismatch {
                found: len,
                expected: p.values.len(),
            });
        }
        let raw = take(&mut pos, len * 4)?;
        loaded.push(
            raw.chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
                .collect(),
        );
    }
    for (p, vals) in params.iter_mut().zip(loaded) {
        p.values.copy_from_slice(&vals);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};
    use crate::network::Sequential;
    use crate::tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut n = Sequential::new();
        n.push(Dense::new(3, 4, &mut rng));
        n.push(Relu::new());
        n.push(Dense::new(4, 2, &mut rng));
        n
    }

    #[test]
    fn roundtrip_restores_behavior() {
        let mut a = net(30);
        let bytes = save_weights(&a.params());
        let mut b = net(31); // different init
        let x = Tensor::from_vec(vec![0.2, -0.4, 0.9], vec![3]);
        let ya = a.forward(&x, false);
        let yb_before = b.forward(&x, false);
        assert_ne!(ya.data(), yb_before.data());
        load_weights(&bytes, &mut b.params()).unwrap();
        let yb = b.forward(&x, false);
        assert_eq!(ya.data(), yb.data());
    }

    #[test]
    fn rejects_bad_magic() {
        let mut n = net(32);
        let err = load_weights(b"NOPE....", &mut n.params()).unwrap_err();
        assert_eq!(err, LoadWeightsError::BadMagic);
    }

    #[test]
    fn rejects_truncated() {
        let mut a = net(33);
        let mut bytes = save_weights(&a.params());
        bytes.truncate(bytes.len() - 5);
        let err = load_weights(&bytes, &mut a.params()).unwrap_err();
        assert_eq!(err, LoadWeightsError::Truncated);
    }

    #[test]
    fn rejects_shape_mismatch_without_mutation() {
        let mut a = net(34);
        let bytes = save_weights(&a.params());
        let mut rng = StdRng::seed_from_u64(35);
        let mut other = Sequential::new();
        other.push(Dense::new(3, 5, &mut rng)); // different shape
        other.push(Dense::new(5, 2, &mut rng));
        let before: Vec<f32> = other.params()[0].values.to_vec();
        let err = load_weights(&bytes, &mut other.params());
        assert!(matches!(err, Err(LoadWeightsError::ShapeMismatch { .. })));
        assert_eq!(other.params()[0].values.to_vec(), before);
    }
}
