//! Order statistics and bookkeeping shared by every workload.

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Quartiles `[q1, q2, q3]` by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`: the `p`-quantile sits at rank
/// `p·(n+1)`, linearly interpolated and clamped to the sample range.
/// `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let sorted = sorted(values);
    if sorted.len() < 2 {
        return None;
    }
    let at = |p: f64| exclusive_quantile(&sorted, p);
    Some([at(0.25), at(0.5), at(0.75)])
}

/// Median absolute deviation from the median.
pub fn mad(values: &[f64]) -> Option<f64> {
    let m = median(values)?;
    let deviations: Vec<f64> = values.iter().map(|v| (v - m).abs()).collect();
    median(&deviations)
}

/// The highest whole percentile that still has at least `beyond`
/// samples strictly above its rank among `n` samples, i.e. the largest
/// `p` with `n·(1 − p/100) ≥ beyond`. `None` when even the median lacks
/// that many samples beyond it.
pub fn tail_percentile(n: usize, beyond: usize) -> Option<u32> {
    (50..=99)
        .rev()
        .find(|&p| n as f64 * (100 - p) as f64 / 100.0 >= beyond as f64)
}

/// The `p`-th percentile (0–100) by nearest rank; `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let sorted = sorted(values);
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Share of attempts that failed; 0 when nothing was attempted.
pub fn failed_frac(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Whether `name` is a valid metric name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn exclusive_quantile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    let rank = (p * (n + 1) as f64).clamp(1.0, n as f64);
    let lo = rank.floor() as usize;
    let frac = rank - lo as f64;
    let hi = (lo + 1).min(n);
    sorted[lo - 1] + frac * (sorted[hi - 1] - sorted[lo - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), Some([1.25, 2.5, 3.75]));
        // Two values: ranks clamp to the sample range.
        assert_eq!(quartiles(&[1.0, 2.0]), Some([1.0, 1.5, 2.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_absolute_deviation() {
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), Some(1.0));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(200, 10), Some(95));
        assert_eq!(tail_percentile(1000, 10), Some(99));
        assert_eq!(tail_percentile(100, 10), Some(90));
        assert_eq!(tail_percentile(199, 10), Some(94));
        assert_eq!(tail_percentile(20, 10), Some(50));
        assert_eq!(tail_percentile(19, 10), None);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), Some(190.0));
        assert_eq!(percentile(&v, 50.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn failed_frac_counts_failures_against_attempts() {
        assert_eq!(failed_frac(0, 0), 0.0);
        assert_eq!(failed_frac(0, 12), 0.0);
        assert_eq!(failed_frac(3, 12), 0.25);
        assert_eq!(failed_frac(12, 12), 1.0);
    }

    #[test]
    fn metric_names_follow_the_contract() {
        for ok in ["setup_s", "sim.step_us", "nn.conv1_us", "a", "9-lives"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "ms²", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
