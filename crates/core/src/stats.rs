//! Statistical analysis of campaign results: summary statistics and
//! percentiles.

use serde::{Deserialize, Serialize};

/// Five-number summary plus mean/std of a sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator).
    pub std: f64,
    /// Minimum.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Computes the summary of a sample. Returns a zeroed summary for an
    /// empty sample.
    pub fn of(data: &[f64]) -> Summary {
        if data.is_empty() {
            return Summary {
                n: 0,
                mean: 0.0,
                std: 0.0,
                min: 0.0,
                q1: 0.0,
                median: 0.0,
                q3: 0.0,
                max: 0.0,
            };
        }
        let n = data.len();
        let mean = data.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            data.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let mut sorted = data.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        Summary {
            n,
            mean,
            std: var.sqrt(),
            min: sorted[0],
            q1: percentile_sorted(&sorted, 25.0),
            median: percentile_sorted(&sorted, 50.0),
            q3: percentile_sorted(&sorted, 75.0),
            max: sorted[n - 1],
        }
    }

    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// Linear-interpolated percentile of an already sorted sample.
///
/// # Panics
///
/// Panics if `sorted` is empty or `p` is outside `[0, 100]`.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "empty sample");
    assert!((0.0..=100.0).contains(&p), "percentile out of range");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.n, 5);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 4.0);
        assert!((s.std - (2.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn summary_empty_and_single() {
        let e = Summary::of(&[]);
        assert_eq!(e.n, 0);
        let s = Summary::of(&[7.0]);
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.median, 7.0);
    }

    #[test]
    fn percentile_interpolates() {
        let data = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile_sorted(&data, 0.0), 10.0);
        assert_eq!(percentile_sorted(&data, 100.0), 40.0);
        assert_eq!(percentile_sorted(&data, 50.0), 25.0);
    }
}
