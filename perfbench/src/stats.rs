//! Order statistics over small sample sets.

/// Median of `xs` (mean of the middle pair for even counts); 0 for an
/// empty set.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `xs`; 0 for an empty
/// set.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The highest of the percentiles 50, 90, 99 and 99.9 that still has
/// at least ten samples beyond it, for `n` samples (50 when none has).
pub fn tail_percentile(n: usize) -> f64 {
    // Per mille, so the "ten beyond" test stays in exact integers.
    [999u64, 990, 900]
        .into_iter()
        .find(|pm| n as u64 * (1000 - pm) >= 10 * 1000)
        .map_or(50.0, |pm| pm as f64 / 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_beyond() {
        assert_eq!(tail_percentile(12), 50.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(999), 90.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
    }
}
