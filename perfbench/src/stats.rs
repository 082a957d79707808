//! Order statistics for latency samples.

/// The median of `samples` (mean of the two middle values for an even
/// count). `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// A tail latency: the highest percentile of a sample set that still has
/// at least [`MIN_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile chosen, in `[0, 100]`.
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// How many samples lie beyond it.
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

/// Samples a tail must leave above it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Picks the tail of `samples`: sorted ascending, the sample at index
/// `n - 1 - MIN_BEYOND` is the highest with `MIN_BEYOND` samples beyond
/// it; its percentile is its rank scaled to `[0, 100]` (`rank / (n - 1)`).
/// `None` when fewer than `MIN_BEYOND + 1` samples exist.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = n - 1 - MIN_BEYOND;
    Some(Tail {
        percentile: 100.0 * rank as f64 / (n - 1) as f64,
        value: sorted[rank],
        beyond: MIN_BEYOND,
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let samples: Vec<f64> = (0..100).map(f64::from).collect();
        let t = tail(&samples).unwrap();
        assert_eq!(t.value, 89.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 100);
        let above = samples.iter().filter(|&&v| v > t.value).count();
        assert_eq!(above, 10);
        assert!((t.percentile - 100.0 * 89.0 / 99.0).abs() < 1e-12);
    }

    #[test]
    fn tail_of_larger_sets_reaches_higher_percentiles() {
        let small: Vec<f64> = (0..60).map(f64::from).collect();
        let large: Vec<f64> = (0..1000).map(f64::from).collect();
        let (s, l) = (tail(&small).unwrap(), tail(&large).unwrap());
        assert!(s.percentile < l.percentile);
        assert_eq!(s.value, 49.0);
        assert_eq!(l.value, 989.0);
    }

    #[test]
    fn tail_is_order_independent_and_needs_eleven_samples() {
        assert_eq!(tail(&[1.0; 10]), None);
        let mut samples: Vec<f64> = (0..11).map(f64::from).collect();
        assert_eq!(tail(&samples).unwrap().value, 0.0);
        assert_eq!(tail(&samples).unwrap().percentile, 0.0);
        samples.reverse();
        assert_eq!(tail(&samples).unwrap().value, 0.0);
    }
}
