//! Named metric registry: counters, gauges and histograms behind one
//! thread-safe [`Recorder`].
//!
//! The registry is *passive* — it never samples anything itself and
//! costs nothing to code that holds no handle to it. The harness keeps
//! the observer-neutrality contract (metrics-off runs bit-identical)
//! by allocating a `Recorder` only when metrics are enabled and
//! folding values in at run boundaries (repetition end, checkpoint
//! barriers, experiment summary), never inside the event loop.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::hist::HdrHistogram;

/// Thread-safe registry of named counters, gauges and histograms.
///
/// Metric names should follow OpenMetrics conventions
/// (`[a-zA-Z_][a-zA-Z0-9_]*`, unit-suffixed, e.g.
/// `repro_reps`, `rep_wall_seconds`); the exposition layer renders
/// them verbatim.
#[derive(Debug, Default)]
pub struct Recorder {
    inner: Mutex<MetricsSnapshot>,
}

/// A point-in-time copy of every metric in a [`Recorder`] — the input
/// to [`crate::render_openmetrics`]. Maps are ordered so renderings
/// are deterministic.
#[derive(Debug, Default, Clone)]
pub struct MetricsSnapshot {
    /// `name → help text` for any metric that registered a description.
    pub help: BTreeMap<String, String>,
    /// Monotone counters.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins gauges.
    pub gauges: BTreeMap<String, f64>,
    /// Value distributions.
    pub hists: BTreeMap<String, HdrHistogram>,
}

impl Recorder {
    /// A new, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MetricsSnapshot> {
        self.inner.lock().expect("metrics registry poisoned")
    }

    /// Attach a `# HELP` description to a metric name.
    pub fn describe(&self, name: &str, help: &str) {
        self.lock().help.insert(name.to_string(), help.to_string());
    }

    /// Add `delta` to the counter `name` (created at 0), saturating.
    pub fn counter_add(&self, name: &str, delta: u64) {
        let mut inner = self.lock();
        let slot = inner.counters.entry(name.to_string()).or_insert(0);
        *slot = slot.saturating_add(delta);
    }

    /// Set gauge `name` to `value` (last write wins).
    pub fn gauge_set(&self, name: &str, value: f64) {
        self.lock().gauges.insert(name.to_string(), value);
    }

    /// Record one sample into histogram `name` (created empty).
    pub fn hist_record(&self, name: &str, value: u64) {
        self.lock().hists.entry(name.to_string()).or_default().record(value);
    }

    /// Merge a locally-built histogram into histogram `name` — the
    /// lossless fold parallel workers use (see [`HdrHistogram::merge`]).
    pub fn hist_merge(&self, name: &str, shard: &HdrHistogram) {
        self.lock().hists.entry(name.to_string()).or_default().merge(shard);
    }

    /// Copy out every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_saturate() {
        let r = Recorder::new();
        r.counter_add("hits", 2);
        r.counter_add("hits", 3);
        r.counter_add("full", u64::MAX);
        r.counter_add("full", 1);
        let snap = r.snapshot();
        assert_eq!(snap.counters["hits"], 5);
        assert_eq!(snap.counters["full"], u64::MAX);
    }

    #[test]
    fn gauges_last_write_wins() {
        let r = Recorder::new();
        r.gauge_set("depth", 10.0);
        r.gauge_set("depth", 4.5);
        assert_eq!(r.snapshot().gauges["depth"], 4.5);
    }

    #[test]
    fn hist_merge_equals_records() {
        let r = Recorder::new();
        let mut shard = HdrHistogram::new();
        for v in [1u64, 500, 90_000] {
            shard.record(v);
            r.hist_record("direct", v);
        }
        r.hist_merge("merged", &shard);
        let snap = r.snapshot();
        assert_eq!(snap.hists["direct"], snap.hists["merged"]);
    }

    #[test]
    fn snapshot_is_a_copy() {
        let r = Recorder::new();
        r.counter_add("c", 1);
        let snap = r.snapshot();
        r.counter_add("c", 1);
        assert_eq!(snap.counters["c"], 1);
        assert_eq!(r.snapshot().counters["c"], 2);
    }

    #[test]
    fn shared_across_threads() {
        let r = std::sync::Arc::new(Recorder::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let r = r.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        r.counter_add("n", 1);
                        r.hist_record("h", 7);
                    }
                });
            }
        });
        let snap = r.snapshot();
        assert_eq!(snap.counters["n"], 4000);
        assert_eq!(snap.hists["h"].count(), 4000);
    }
}
