//! Streaming statistics.
//!
//! The paper's harness reports, per test configuration, the mean,
//! standard deviation, minimum and maximum over ≥10 repetitions
//! (Tables I–III; the "thin line at the top of each result" in the bar
//! plots is one standard deviation). [`RunningStats`] accumulates those
//! with Welford's online algorithm; [`Summary`] is the frozen result.

use std::fmt;

/// Welford online accumulator for mean/variance/min/max.
#[derive(Debug, Clone, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation. A non-finite observation (NaN, ±inf) would
    /// corrupt the mean/min/max permanently, so it is skipped.
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Add many observations.
    pub fn extend(&mut self, xs: impl IntoIterator<Item = f64>) {
        for x in xs {
            self.push(x);
        }
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean of observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 { 0.0 } else { self.mean }
    }

    /// Sample standard deviation (n-1 denominator; 0 for n < 2).
    pub fn stdev(&self) -> f64 {
        if self.n < 2 { 0.0 } else { (self.m2 / (self.n - 1) as f64).sqrt() }
    }

    /// Minimum observation (0 when empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 { 0.0 } else { self.min }
    }

    /// Maximum observation (0 when empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 { 0.0 } else { self.max }
    }

    /// Freeze into a [`Summary`].
    pub fn summary(&self) -> Summary {
        Summary {
            n: self.n,
            mean: self.mean(),
            stdev: self.stdev(),
            min: self.min(),
            max: self.max(),
        }
    }
}

/// Frozen summary statistics for one test configuration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Number of observations.
    pub n: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub stdev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarise a slice in one call.
    pub fn of(xs: &[f64]) -> Summary {
        let mut s = RunningStats::new();
        s.extend(xs.iter().copied());
        s.summary()
    }

}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mean={:.2} stdev={:.2} min={:.2} max={:.2} (n={})",
            self.mean, self.stdev, self.min, self.max, self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_values() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Sample stdev of this classic set is ~2.138.
        assert!((s.stdev - 2.138089935).abs() < 1e-6);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.n, 8);
    }

    #[test]
    fn empty_and_single() {
        let s = Summary::of(&[]);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.stdev, 0.0);
        let s1 = Summary::of(&[3.5]);
        assert_eq!(s1.mean, 3.5);
        assert_eq!(s1.stdev, 0.0);
        assert_eq!(s1.min, 3.5);
        assert_eq!(s1.max, 3.5);
    }

    #[test]
    fn non_finite_observations_are_skipped() {
        let mut s = RunningStats::new();
        s.push(1.0);
        s.push(3.0);
        let before = s.summary();
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            s.push(x);
            assert_eq!(s.summary(), before, "{x} must leave the stats untouched");
        }
        assert_eq!(s.count(), 2);
        assert!((s.mean() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 3.0);
    }

    #[test]
    fn welford_matches_two_pass() {
        // Property-ish check against the naive two-pass formula.
        let xs: Vec<f64> = (0..500).map(|i| ((i * 37) % 113) as f64 * 0.25).collect();
        let s = Summary::of(&xs);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((s.mean - mean).abs() < 1e-9);
        assert!((s.stdev - var.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn display_is_compact() {
        let s = Summary::of(&[1.0, 3.0]);
        let out = format!("{s}");
        assert!(out.contains("mean=2.00"));
        assert!(out.contains("n=2"));
    }
}
