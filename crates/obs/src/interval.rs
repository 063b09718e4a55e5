//! Fixed-width interval aggregation with streaming histograms.
//!
//! [`IntervalAggregator`] folds timestamped `(metric, value)` samples
//! into fixed-width time intervals, keeping one [`HdrHistogram`] per
//! metric per *open* interval. Two usage modes:
//!
//! * **batch** — record everything, then [`IntervalAggregator::finish`];
//! * **streaming** — call [`IntervalAggregator::seal_before`] as a
//!   watermark advances so memory stays O(open intervals × metrics ×
//!   buckets) regardless of total sample count (the fleet-workload
//!   requirement of ROADMAP item 2).
//!
//! Samples may arrive out of order across sources (e.g. folding one
//! flow's time series after another); only sealing imposes order.
//! Samples below the watermark are counted as `late` and dropped
//! deterministically rather than silently misfiled.

use std::collections::BTreeMap;

use crate::hist::HdrHistogram;
use crate::json_escape;

/// One sealed interval: `[start, start + width)` in caller time units,
/// with a histogram per metric name.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalRecord {
    /// Interval start in caller ticks (`index × width`).
    pub start: u64,
    /// Interval width in caller ticks.
    pub width: u64,
    /// Per-metric sample distributions within this interval.
    pub metrics: BTreeMap<String, HdrHistogram>,
}

impl IntervalRecord {
    /// Render as one JSON line: exact ints for count/min/max, decimal
    /// floats for mean, and the bounded-error p50/p90/p99/p999
    /// quantiles (p999 is the fleet-workload tail-latency headline).
    pub fn to_json_line(&self) -> String {
        let mut out = format!("{{\"start\":{},\"width\":{},\"metrics\":{{", self.start, self.width);
        let mut first = true;
        for (name, h) in &self.metrics {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"min\":{},\"max\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{}}}",
                json_escape(name),
                h.count(),
                h.min().unwrap_or(0),
                h.max().unwrap_or(0),
                h.mean().unwrap_or(0.0),
                h.quantile(0.50).unwrap_or(0),
                h.quantile(0.90).unwrap_or(0),
                h.quantile(0.99).unwrap_or(0),
                h.quantile(0.999).unwrap_or(0),
            ));
        }
        out.push_str("}}");
        out
    }
}

/// Folds timestamped samples into fixed-width interval series; see the
/// module docs for the batch vs streaming contract.
#[derive(Debug, Clone)]
pub struct IntervalAggregator {
    width: u64,
    /// Open intervals by index, each `metric → histogram`.
    open: BTreeMap<u64, BTreeMap<String, HdrHistogram>>,
    sealed: Vec<IntervalRecord>,
    /// First interval index not yet sealed; samples below it are late.
    watermark: u64,
    late: u64,
}

impl IntervalAggregator {
    /// A new aggregator with the given interval width in caller ticks
    /// (e.g. nanoseconds of sim time). Width 0 is clamped to 1.
    pub fn new(width: u64) -> Self {
        Self { width: width.max(1), open: BTreeMap::new(), sealed: Vec::new(), watermark: 0, late: 0 }
    }

    /// Record `value` for `metric` at time `t` (caller ticks). Samples
    /// in already-sealed intervals are dropped and counted as late.
    pub fn record(&mut self, t: u64, metric: &str, value: u64) {
        let idx = t / self.width;
        if idx < self.watermark {
            self.late = self.late.saturating_add(1);
            return;
        }
        let metrics = self.open.entry(idx).or_default();
        // Look the metric up by `&str` first: only a metric new to this
        // interval pays for its owned key.
        match metrics.get_mut(metric) {
            Some(h) => h.record(value),
            None => metrics.entry(metric.to_string()).or_default().record(value),
        }
    }

    /// Seal every open interval that ends at or before time `t`,
    /// moving it (in ascending order) into the sealed series. Empty
    /// intervals are never materialised.
    pub fn seal_before(&mut self, t: u64) {
        let first_open = t / self.width;
        while let Some((&idx, _)) = self.open.first_key_value() {
            if idx >= first_open {
                break;
            }
            // Infallible: the `while let` above just observed a first
            // entry and nothing was removed since.
            let (idx, metrics) = self.open.pop_first().expect("checked non-empty");
            self.sealed.push(IntervalRecord { start: idx * self.width, width: self.width, metrics });
        }
        self.watermark = self.watermark.max(first_open);
    }

    /// Number of samples dropped for arriving below the watermark.
    pub fn late(&self) -> u64 {
        self.late
    }

    /// Number of currently open (unsealed, non-empty) intervals.
    pub fn open_len(&self) -> usize {
        self.open.len()
    }

    /// Seal everything and return the full series in time order.
    pub fn finish(mut self) -> Vec<IntervalRecord> {
        self.seal_before(u64::MAX);
        self.sealed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folds_samples_into_intervals() {
        let mut agg = IntervalAggregator::new(1000);
        agg.record(10, "rtt", 5);
        agg.record(999, "rtt", 7);
        agg.record(1000, "rtt", 9);
        agg.record(2500, "goodput", 100);
        let series = agg.finish();
        assert_eq!(series.len(), 3);
        assert_eq!(series[0].start, 0);
        assert_eq!(series[0].metrics["rtt"].count(), 2);
        assert_eq!(series[1].start, 1000);
        assert_eq!(series[1].metrics["rtt"].count(), 1);
        assert_eq!(series[2].start, 2000);
        assert_eq!(series[2].metrics["goodput"].max(), Some(100));
    }

    #[test]
    fn out_of_order_across_sources_is_fine() {
        // Flow A's whole series, then flow B's — earlier timestamps
        // reappear but nothing has been sealed yet.
        let mut agg = IntervalAggregator::new(100);
        for t in [0u64, 100, 200] {
            agg.record(t, "g", 1);
        }
        for t in [0u64, 100, 200] {
            agg.record(t, "g", 3);
        }
        let series = agg.finish();
        assert_eq!(series.len(), 3);
        for rec in &series {
            assert_eq!(rec.metrics["g"].count(), 2);
        }
        assert_eq!(series[0].metrics["g"].sum(), 4);
    }

    #[test]
    fn streaming_seal_bounds_memory_and_counts_late() {
        let mut agg = IntervalAggregator::new(10);
        for t in 0..100 {
            agg.record(t, "m", t);
        }
        assert_eq!(agg.open_len(), 10);
        agg.seal_before(50);
        assert_eq!(agg.open_len(), 5);
        agg.record(49, "m", 1); // below watermark: late, dropped
        assert_eq!(agg.late(), 1);
        agg.record(50, "m", 1); // at watermark: accepted
        let series = agg.finish();
        assert_eq!(series.len(), 10);
        assert_eq!(series[5].metrics["m"].count(), 11);
        // Sealed series is in time order with correct starts.
        for (i, rec) in series.iter().enumerate() {
            assert_eq!(rec.start, i as u64 * 10);
        }
    }

    #[test]
    fn json_line_shape() {
        let mut agg = IntervalAggregator::new(1_000_000_000);
        agg.record(0, "goodput_bps", 12_000_000_000);
        agg.record(1, "rtt_us", 25_000);
        let series = agg.finish();
        let line = series[0].to_json_line();
        assert!(line.starts_with("{\"start\":0,\"width\":1000000000,"));
        assert!(line.contains("\"goodput_bps\":{\"count\":1,"));
        assert!(line.contains("\"rtt_us\":"));
        assert!(line.contains("\"p99\":"));
        assert!(line.contains("\"p999\":"));
        assert!(line.ends_with("}}"));
    }

    #[test]
    fn width_zero_clamped() {
        let mut agg = IntervalAggregator::new(0);
        agg.record(5, "m", 1);
        assert_eq!(agg.finish().len(), 1);
    }
}
