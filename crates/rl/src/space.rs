//! State-space discretization.

/// A uniform grid over a closed interval, mapping continuous observations to
/// bin indices and back.
///
/// Out-of-range observations clamp to the edge bins — appropriate for
/// physical quantities (battery energy, power) whose tails carry no extra
/// decision-relevant information.
///
/// # Examples
///
/// ```
/// use hbm_rl::UniformGrid;
///
/// // Battery state-of-charge in ten 10 % bins.
/// let grid = UniformGrid::new(0.0, 1.0, 10);
/// assert_eq!(grid.index(0.45), 4);
/// assert_eq!(grid.index(1.5), 9);   // clamped
/// assert!((grid.center(4) - 0.45).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniformGrid {
    lo: f64,
    hi: f64,
    bins: usize,
}

impl UniformGrid {
    /// Creates a grid of `bins` equal cells over `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `bins` is zero or the interval is empty/non-finite.
    pub const fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "grid needs at least one bin");
        assert!(lo.is_finite() && hi.is_finite() && hi > lo, "bad interval");
        UniformGrid { lo, hi, bins }
    }

    /// Number of bins.
    pub fn len(&self) -> usize {
        self.bins
    }

    /// Whether the grid has zero bins (never true for constructed grids).
    pub fn is_empty(&self) -> bool {
        self.bins == 0
    }

    /// Lower bound of the interval.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound of the interval.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Width of one bin.
    pub fn width(&self) -> f64 {
        (self.hi - self.lo) / self.bins as f64
    }

    /// Bin index of an observation, clamping out-of-range values.
    pub fn index(&self, x: f64) -> usize {
        if !x.is_finite() || x <= self.lo {
            return 0;
        }
        let i = ((x - self.lo) / self.width()) as usize;
        i.min(self.bins - 1)
    }

    /// Center value of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn center(&self, i: usize) -> f64 {
        assert!(i < self.bins, "bin index out of range");
        self.lo + (i as f64 + 0.5) * self.width()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_and_center_round_trip() {
        let g = UniformGrid::new(0.0, 8.0, 16);
        for i in 0..16 {
            assert_eq!(g.index(g.center(i)), i);
        }
    }

    #[test]
    fn clamping() {
        let g = UniformGrid::new(0.0, 1.0, 4);
        assert_eq!(g.index(-3.0), 0);
        assert_eq!(g.index(0.0), 0);
        assert_eq!(g.index(1.0), 3);
        assert_eq!(g.index(99.0), 3);
        assert_eq!(g.index(f64::NAN), 0);
    }

    #[test]
    fn boundaries_fall_in_upper_bin() {
        let g = UniformGrid::new(0.0, 1.0, 4);
        assert_eq!(g.index(0.25), 1);
        assert_eq!(g.index(0.5), 2);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_rejected() {
        let _ = UniformGrid::new(0.0, 1.0, 0);
    }
}
