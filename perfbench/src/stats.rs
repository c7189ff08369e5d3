//! Order statistics over measured samples.

/// The nearest-rank `q`-quantile of `samples` (`q` in `[0, 1]`): the
/// smallest sample with at least `ceil(q * n)` samples at or below it.
/// `NaN` for no samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), q) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// 1-based nearest rank of the `q`-quantile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The tail quantiles a result may report, highest first.
const TAILS: [f64; 5] = [0.999, 0.99, 0.95, 0.9, 0.75];

/// The highest quantile in the ladder with at least ten of `n` samples
/// beyond it — the tail a sample count can support. Falls back to the
/// median for fewer than 40 samples.
pub fn tail_quantile(n: usize) -> f64 {
    TAILS
        .into_iter()
        .find(|&q| n >= 10 && n - rank(n, q) >= 10)
        .unwrap_or(0.5)
}

/// `q` as a percentile label: `p90`, `p99.9`.
pub fn label(q: f64) -> String {
    format!("p{}", (q * 1000.0).round() / 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tails_leave_ten_samples_beyond() {
        assert_eq!(tail_quantile(128), 0.9);
        assert_eq!(tail_quantile(100), 0.9);
        assert_eq!(tail_quantile(16_000), 0.999);
        assert_eq!(tail_quantile(12), 0.5);
        assert_eq!(label(0.999), "p99.9");
        assert_eq!(label(0.9), "p90");
    }

    #[test]
    fn nearest_rank_matches_the_definition() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert!(percentile(&[], 0.5).is_nan());
    }
}
