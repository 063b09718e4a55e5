//! Log-linear HDR histogram over `u64` values.
//!
//! Bucket scheme (`SUB_BITS = 7`):
//!
//! * values `< 128` get one exact unit-width bucket each (error 0);
//! * larger values are grouped by magnitude: for a value whose most
//!   significant bit is `msb ≥ 7`, the shift is `s = msb − 6` and the
//!   bucket index is `128 + (s−1)·64 + ((v >> s) − 64)` — 64 buckets
//!   of width `2^s` per binary order of magnitude.
//!
//! A bucket's representative value is its midpoint, so the relative
//! quantile error is at most `(2^s / 2) / (64 · 2^s) = 1/128 ≈ 0.78%`,
//! under the 1% budget. The full `u64` range needs `128 + 57·64 =
//! 3776` buckets (≈ 30 KiB); storage grows lazily so an empty or
//! small-valued histogram stays tiny.

/// Number of low-order exact buckets (and sub-buckets per octave × 2).
const SUB: u64 = 128;
/// Sub-buckets per binary order of magnitude above `SUB`.
const HALF: u64 = SUB / 2;
/// Total bucket count covering the whole `u64` range.
const NUM_BUCKETS: usize = (SUB + 57 * HALF) as usize;

/// A mergeable log-linear histogram with ≤ 1/128 relative quantile
/// error, exact `min`/`max`/`count`/`sum`, and saturating counts.
///
/// Merging is *lossless* with respect to the bucket scheme: because
/// each sample's bucket depends only on its value, merging per-shard
/// histograms yields bit-for-bit the same state as recording every
/// sample into a single histogram, in any merge order or grouping.
#[derive(Debug, Clone, Default)]
pub struct HdrHistogram {
    /// Bucket counts, lazily grown; indices past `counts.len()` are 0.
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

/// Bucket index for a value.
fn index_of(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let msb = 63 - u64::from(v.leading_zeros());
        let s = msb - 6;
        (SUB + (s - 1) * HALF + ((v >> s) - HALF)) as usize
    }
}

/// Lowest value mapping to bucket `idx`.
fn bucket_lower(idx: usize) -> u64 {
    if (idx as u64) < SUB {
        idx as u64
    } else {
        let b = idx as u64 - SUB;
        let s = b / HALF + 1;
        let off = b % HALF;
        (HALF + off) << s
    }
}

/// Width (number of distinct values) of bucket `idx`.
fn bucket_width(idx: usize) -> u64 {
    if (idx as u64) < SUB {
        1
    } else {
        1 << ((idx as u64 - SUB) / HALF + 1)
    }
}

/// Midpoint representative reported for quantiles in bucket `idx`.
fn bucket_mid(idx: usize) -> u64 {
    bucket_lower(idx) + bucket_width(idx) / 2
}

impl HdrHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` identical samples (used when folding pre-aggregated
    /// counts). Counts and sums saturate instead of wrapping.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = index_of(v);
        debug_assert!(idx < NUM_BUCKETS);
        if self.counts.len() <= idx {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] = self.counts[idx].saturating_add(n);
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count = self.count.saturating_add(n);
        self.sum = self.sum.saturating_add(u128::from(v) * u128::from(n));
    }

    /// Record a non-negative float sample, rounding to the nearest
    /// integer; negative and non-finite samples are clamped to 0.
    pub fn record_f64(&mut self, v: f64) {
        let v = if v.is_finite() && v > 0.0 { v.round() as u64 } else { 0 };
        self.record(v);
    }

    /// Number of recorded samples (saturating).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact sum of all samples (saturating at `u128::MAX`).
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact minimum sample, if any.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum sample, if any.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of all samples, if any.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Nearest-rank quantile, `q` in `[0, 1]`. Returns the midpoint of
    /// the bucket holding the rank-⌈q·count⌉ sample, clamped to the
    /// exact tracked `[min, max]`; relative error ≤ 1/128.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = (q * self.count as f64).ceil().max(1.0).min(self.count as f64) as u64;
        // The extreme ranks are tracked exactly — report them exactly.
        if rank == 1 {
            return Some(self.min);
        }
        if rank == self.count {
            return Some(self.max);
        }
        let mut cum = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            cum = cum.saturating_add(c);
            if cum >= rank {
                return Some(bucket_mid(idx).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Merge `other` into `self`. Lossless: the result is identical to
    /// having recorded both sample streams into one histogram.
    pub fn merge(&mut self, other: &HdrHistogram) {
        if other.count == 0 {
            return;
        }
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (idx, &c) in other.counts.iter().enumerate() {
            self.counts[idx] = self.counts[idx].saturating_add(c);
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Release the bucket storage's growth slack. Recording grows it
    /// by doubling; a histogram that will take no more samples (a
    /// sealed interval's) need not keep the spare half.
    pub fn shrink_to_fit(&mut self) {
        self.counts.shrink_to_fit();
    }

    /// Non-empty buckets as `(representative value, count)` pairs in
    /// ascending value order — the exposition renderers' iteration.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(idx, &c)| (bucket_mid(idx), c))
    }
}

impl PartialEq for HdrHistogram {
    /// Structural equality ignoring trailing empty buckets, so a shard
    /// merge compares equal to a single-pass histogram even when their
    /// lazily-grown storage lengths differ.
    fn eq(&self, other: &Self) -> bool {
        if (self.count, self.sum) != (other.count, other.sum) {
            return false;
        }
        if self.count > 0 && (self.min, self.max) != (other.min, other.max) {
            return false;
        }
        let (short, long) = if self.counts.len() <= other.counts.len() {
            (&self.counts, &other.counts)
        } else {
            (&other.counts, &self.counts)
        };
        short.iter().zip(long.iter()).all(|(a, b)| a == b)
            && long[short.len()..].iter().all(|&c| c == 0)
    }
}

impl Eq for HdrHistogram {}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64 — the repo-standard dependency-free PRNG for tests.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// Exact nearest-rank quantile from a sorted sample vector.
    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let rank = (q * sorted.len() as f64).ceil().max(1.0).min(sorted.len() as f64) as usize;
        sorted[rank - 1]
    }

    fn assert_within_1pct(h: &HdrHistogram, sorted: &[u64], q: f64) {
        let exact = exact_quantile(sorted, q);
        let got = h.quantile(q).unwrap();
        let tol = 1.0_f64.max(exact as f64 * 0.01);
        assert!(
            (got as f64 - exact as f64).abs() <= tol,
            "q={q}: histogram {got} vs exact {exact} (tol {tol:.1})"
        );
    }

    const QS: [f64; 7] = [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0];

    #[test]
    fn small_values_are_exact() {
        let mut h = HdrHistogram::new();
        let mut samples: Vec<u64> = (0..128).collect();
        for &v in &samples {
            h.record(v);
        }
        samples.sort_unstable();
        for q in QS {
            assert_eq!(h.quantile(q).unwrap(), exact_quantile(&samples, q));
        }
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(127));
        assert_eq!(h.sum(), (0u128..128).sum::<u128>());
    }

    #[test]
    fn uniform_random_within_error_bound() {
        let mut rng = Rng(1);
        let mut h = HdrHistogram::new();
        let mut samples = Vec::new();
        for _ in 0..20_000 {
            let v = rng.next() % 10_000_000;
            h.record(v);
            samples.push(v);
        }
        samples.sort_unstable();
        for q in QS {
            assert_within_1pct(&h, &samples, q);
        }
    }

    #[test]
    fn heavy_tail_within_error_bound() {
        // Pareto-ish: exponentiate the uniform so the tail spans many
        // orders of magnitude — the regime means hide and quantiles
        // matter (the datacenter-tuning argument for histograms).
        let mut rng = Rng(2);
        let mut h = HdrHistogram::new();
        let mut samples = Vec::new();
        for _ in 0..20_000 {
            let shift = rng.next() % 40;
            let v = (1u64 << shift) + rng.next() % (1 << shift).max(1);
            h.record(v);
            samples.push(v);
        }
        samples.sort_unstable();
        for q in QS {
            assert_within_1pct(&h, &samples, q);
        }
    }

    #[test]
    fn adversarial_bucket_boundaries_within_error_bound() {
        // Values hugging every power-of-two boundary: v-1, v, v+1.
        let mut h = HdrHistogram::new();
        let mut samples = Vec::new();
        for shift in 0..63 {
            let v = 1u64 << shift;
            for s in [v.saturating_sub(1), v, v + 1] {
                h.record(s);
                samples.push(s);
            }
        }
        samples.sort_unstable();
        for q in QS {
            assert_within_1pct(&h, &samples, q);
        }
    }

    #[test]
    fn all_equal_samples() {
        let mut h = HdrHistogram::new();
        for _ in 0..1000 {
            h.record(123_456);
        }
        for q in QS {
            // Min/max clamping makes constant streams exact.
            assert_eq!(h.quantile(q), Some(123_456));
        }
        assert_eq!(h.mean(), Some(123_456.0));
    }

    #[test]
    fn empty_and_single() {
        let mut h = HdrHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        h.record(42);
        assert_eq!(h.count(), 1);
        for q in QS {
            assert_eq!(h.quantile(q), Some(42));
        }
    }

    #[test]
    fn extreme_values_do_not_overflow() {
        let mut h = HdrHistogram::new();
        h.record(0);
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(u64::MAX));
        assert_eq!(h.count(), 3);
        // p100 clamps to the exact max even though the top bucket's
        // midpoint would otherwise overflow the value range.
        assert_eq!(h.quantile(1.0), Some(u64::MAX));
        assert!(index_of(u64::MAX) < NUM_BUCKETS);
    }

    #[test]
    fn saturating_counts() {
        let mut h = HdrHistogram::new();
        h.record_n(7, u64::MAX);
        h.record_n(7, 10);
        assert_eq!(h.count(), u64::MAX);
        assert_eq!(h.quantile(0.5), Some(7));
        let mut other = HdrHistogram::new();
        other.record_n(9, u64::MAX);
        h.merge(&other);
        assert_eq!(h.count(), u64::MAX);
        assert_eq!(h.max(), Some(9));
    }

    #[test]
    fn merge_equals_single_pass() {
        let mut rng = Rng(3);
        let samples: Vec<u64> = (0..30_000).map(|_| rng.next() % 1_000_000_000).collect();
        let mut single = HdrHistogram::new();
        for &v in &samples {
            single.record(v);
        }
        // Shard into 7 uneven pieces, merge back.
        let mut merged = HdrHistogram::new();
        for chunk in samples.chunks(4321) {
            let mut shard = HdrHistogram::new();
            for &v in chunk {
                shard.record(v);
            }
            merged.merge(&shard);
        }
        assert_eq!(merged, single);
        assert_eq!(merged.quantile(0.999), single.quantile(0.999));
    }

    #[test]
    fn merge_commutative_and_associative() {
        let mut rng = Rng(4);
        let mk = |rng: &mut Rng, n: usize, modulo: u64| {
            let mut h = HdrHistogram::new();
            for _ in 0..n {
                h.record(rng.next() % modulo);
            }
            h
        };
        let a = mk(&mut rng, 1000, 500);
        let b = mk(&mut rng, 2000, 5_000_000);
        let c = mk(&mut rng, 50, u64::MAX);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge must be commutative");

        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "merge must be associative");
    }

    #[test]
    fn merge_empty_is_identity() {
        let mut rng = Rng(5);
        let mut h = HdrHistogram::new();
        for _ in 0..100 {
            h.record(rng.next() % 1000);
        }
        let before = h.clone();
        h.merge(&HdrHistogram::new());
        assert_eq!(h, before);
        let mut empty = HdrHistogram::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn shrink_to_fit_drops_slack_and_keeps_every_answer() {
        let mut rng = Rng(11);
        let mut h = HdrHistogram::new();
        for _ in 0..1000 {
            h.record(rng.next() % 100_000);
        }
        let before = h.clone();
        h.shrink_to_fit();
        assert_eq!(h.counts.capacity(), h.counts.len());
        assert_eq!(h, before);
        assert_eq!(h.quantile(0.99), before.quantile(0.99));
        assert!(h.nonzero_buckets().eq(before.nonzero_buckets()));
        h.record(u64::MAX);
        assert_eq!(h.max(), Some(u64::MAX), "a shrunk histogram still grows");
    }

    #[test]
    fn bucket_scheme_invariants() {
        // Every bucket's lower bound maps back to that bucket and the
        // value one below it maps to the previous bucket.
        for idx in 1..NUM_BUCKETS {
            let lo = bucket_lower(idx);
            assert_eq!(index_of(lo), idx, "lower bound of bucket {idx}");
            assert_eq!(index_of(lo - 1), idx - 1, "predecessor of bucket {idx}");
            // Relative half-width (the quantile error bound) ≤ 1/128.
            let half = bucket_width(idx) / 2;
            assert!(half as f64 <= lo as f64 / 128.0 + f64::EPSILON);
        }
    }

    #[test]
    fn record_f64_clamps() {
        let mut h = HdrHistogram::new();
        h.record_f64(-5.0);
        h.record_f64(f64::NAN);
        h.record_f64(2.6);
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(3));
    }
}
