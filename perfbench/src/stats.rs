//! Order statistics over timing samples.

/// Nearest-rank quantile of `sorted` (ascending) at `q` in `0.0..=1.0`.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Geometric mean of positive values.
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// A tail percentile: the highest of 99.9, 99, 95, 90 and 50 that still
/// has at least ten samples beyond it, with the samples it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `99.0`.
    pub percentile: f64,
    /// The sample value at that percentile.
    pub value: f64,
    /// Number of samples.
    pub samples: usize,
}

/// The [`Tail`] of unsorted samples (`None` when there are fewer than 20).
#[must_use]
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    [99.9, 99.0, 95.0, 90.0, 50.0]
        .into_iter()
        .find(|p| (n as f64 * (1.0 - p / 100.0)).floor() >= 10.0)
        .map(|p| Tail { percentile: p, value: quantile(&v, p / 100.0), samples: n })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = tail(&v).expect("enough samples");
        assert_eq!((t.percentile, t.value, t.samples), (99.0, 1980.0, 2000));
        let small: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&small).expect("enough").percentile, 95.0);
        assert!(tail(&small[..19]).is_none());
    }
}
