//! Small statistics helpers shared by the experiment harness.
//!
//! The paper reports probability distributions (Fig. 5b, temperature
//! distributions), percentiles (95th-percentile latency), and time-fraction
//! metrics. This module provides the few primitives those need, with exact,
//! easily testable semantics.

/// A fixed-range histogram over `f64` samples.
///
/// # Examples
///
/// ```
/// use hbm_sidechannel::stats::Histogram;
///
/// let mut h = Histogram::new(-1.0, 1.0, 4);
/// for x in [-0.9, -0.1, 0.1, 0.2, 0.9, 2.0] {
///     h.add(x);
/// }
/// assert_eq!(h.total(), 6);
/// assert_eq!(h.overflow(), 1);
/// assert!((h.fraction_within(-0.5, 0.5) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `bins` equal-width bins.
    ///
    /// # Panics
    ///
    /// Panics if `bins` is zero or the range is empty/non-finite.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(lo.is_finite() && hi.is_finite() && hi > lo, "bad range");
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Adds one sample.
    pub fn add(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let idx = ((x - self.lo) / self.width()) as usize;
            let idx = idx.min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Adds every sample from an iterator.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.add(x);
        }
    }

    /// Bin width.
    pub fn width(&self) -> f64 {
        (self.hi - self.lo) / self.bins.len() as f64
    }

    /// Overwrites the counts wholesale (range and bin count are unchanged),
    /// e.g. when restoring a checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if `counts` has a different number of bins.
    pub fn set_counts(&mut self, counts: &[u64], underflow: u64, overflow: u64) {
        assert_eq!(counts.len(), self.bins.len(), "bin count mismatch");
        self.bins.copy_from_slice(counts);
        self.underflow = underflow;
        self.overflow = overflow;
    }

    /// Raw bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.bins
    }

    /// Samples below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above the range end.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total samples, including under/overflow.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Midpoint of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn bin_center(&self, i: usize) -> f64 {
        assert!(i < self.bins.len(), "bin index out of range");
        self.lo + (i as f64 + 0.5) * self.width()
    }

    /// Probability mass per bin (empty histogram yields all zeros).
    pub fn pdf(&self) -> Vec<f64> {
        let n = self.total();
        if n == 0 {
            return vec![0.0; self.bins.len()];
        }
        self.bins.iter().map(|&c| c as f64 / n as f64).collect()
    }

    /// Fraction of samples falling in `[a, b)`, counted by bin midpoint.
    pub fn fraction_within(&self, a: f64, b: f64) -> f64 {
        let n = self.total();
        if n == 0 {
            return 0.0;
        }
        let mut hits = 0u64;
        for (i, &c) in self.bins.iter().enumerate() {
            let mid = self.bin_center(i);
            if mid >= a && mid < b {
                hits += c;
            }
        }
        hits as f64 / n as f64
    }
}

/// Summary statistics of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
    /// Minimum sample.
    pub min: f64,
    /// Maximum sample.
    pub max: f64,
    /// Median (50th percentile).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Summary {
    /// Computes summary statistics of `samples`.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or contains non-finite values.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "summary of empty sample set");
        assert!(
            samples.iter().all(|x| x.is_finite()),
            "summary requires finite samples"
        );
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        Summary {
            mean,
            std: var.sqrt(),
            min: sorted[0],
            max: *sorted.last().expect("non-empty"),
            p50: percentile_sorted(&sorted, 50.0),
            p95: percentile_sorted(&sorted, 95.0),
            p99: percentile_sorted(&sorted, 99.0),
        }
    }
}

/// Percentile (nearest-rank with linear interpolation) of pre-sorted data.
///
/// # Panics
///
/// Panics if `sorted` is empty or `p` is outside `[0, 100]`.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Convenience: percentile of unsorted data.
///
/// # Panics
///
/// Panics if `samples` is empty, contains non-finite values, or `p` is
/// outside `[0, 100]`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    percentile_sorted(&sorted, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_binning() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.extend([0.5, 1.5, 1.6, 9.99]);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[1], 2);
        assert_eq!(h.counts()[9], 1);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn histogram_under_overflow() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.extend([-1.0, 0.2, 1.0, 5.0]);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
    }

    #[test]
    fn histogram_pdf_sums_to_at_most_one() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.extend([0.1, 0.2, 0.3, 0.9, 2.0]);
        let sum: f64 = h.pdf().iter().sum();
        assert!((sum - 0.8).abs() < 1e-12); // one overflow of five samples
    }

    #[test]
    fn percentile_interpolates() {
        let data = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&data, 0.0), 1.0);
        assert_eq!(percentile(&data, 100.0), 4.0);
        assert_eq!(percentile(&data, 50.0), 2.5);
        assert!((percentile(&data, 95.0) - 3.85).abs() < 1e-12);
    }

    #[test]
    fn summary_of_constant() {
        let s = Summary::of(&[5.0; 20]);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.p95, 5.0);
        assert_eq!((s.min, s.max), (5.0, 5.0));
    }

    #[test]
    fn summary_basic() {
        let s = Summary::of(&[1.0, 2.0, 3.0]);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.std - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.p50, 2.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn summary_rejects_empty() {
        let _ = Summary::of(&[]);
    }
}
