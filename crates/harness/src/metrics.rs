//! The run-output hub behind `repro --metrics <dir>`: the metrics
//! registry, live heartbeat, phase spans, and the one writer of every
//! run file.
//!
//! One [`MetricsHub`] is created per `repro` invocation and threaded
//! (as `Option<Arc<MetricsHub>>`) through [`crate::ctx::RunCtx`] into
//! the harness and supervisor. A hub turns the paper's collection model
//! on for every repetition it records: a 1 s telemetry tick (unless the
//! scenario chose its own) and bottleneck attribution. Both observers
//! are neutral (DESIGN.md §6h), so a run with a hub prints exactly what
//! a run without one prints. The hub itself is consulted only
//! *between* repetitions and between supervised step slices, never
//! inside the event loop, and no seed depends on whether it exists.
//!
//! Outputs, all in the hub's one directory:
//!
//! * `repro.openmetrics` — OpenMetrics text exposition of the full
//!   registry (counters, gauges, histogram summaries), written at the
//!   end of the invocation;
//! * `spans.jsonl` — phase spans (`setup`/`steady`/`drain` in wall
//!   time, `warmup`/`steady` in sim time, `checkpoint`);
//! * per surviving repetition, written by `MetricsHub::write_rep`:
//!   * `<label>_rep<i>.intervals.jsonl` — a fixed-width series of
//!     per-stream goodput, one JSON line per post-omit second, streamed
//!     through [`obs::IntervalAggregator`];
//!   * `<label>_rep<i>.jsonl`, `.folded` and `.perf.txt` — the
//!     JSON-lines trace and the simulated-`perf` profiles rendered by
//!     [`crate::trace`];
//! * per experiment, `repro` writes its data as CSV (`fig05.csv`,
//!   `fig04_0.csv`, …) and, for a degraded run, `manifest.json`.
//!
//! Every per-repetition and per-experiment file goes through
//! [`MetricsHub::put`] and a [`TraceIo`] shim, so chaos mode covers
//! every write and a failed one is a warning, never a lost result.
//!
//! The heartbeat is a throttled (≥ 1 s apart) single-line progress
//! report on stderr: repetitions done/failed, aggregate
//! events/s, and an ETA extrapolated from mean repetition wall time
//! over the scheduler gate's parallelism.

use crate::scenario::Scenario;
use crate::sched;
use crate::trace::{self, TraceIo};
use iperf3sim::Iperf3Report;
use obs::{render_openmetrics, IntervalAggregator, IntervalRecord, Recorder, SpanRecord};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Minimum spacing between heartbeat lines.
const HEARTBEAT_EVERY: Duration = Duration::from_secs(1);

/// The per-invocation metrics hub. See the module docs.
#[derive(Debug)]
pub struct MetricsHub {
    dir: PathBuf,
    recorder: Recorder,
    spans: Mutex<Vec<SpanRecord>>,
    start: Instant,
    // Heartbeat state. Counters are atomics (repetitions finish on the
    // scheduler's worker threads); the emission throttle is a mutex
    // because only one thread may print at a time anyway.
    expected: AtomicU64,
    done: AtomicU64,
    failed: AtomicU64,
    events: AtomicU64,
    busy_nanos: AtomicU64,
    last_emit: Mutex<Instant>,
}

impl MetricsHub {
    /// Create the hub, making sure the output directory exists. A
    /// directory that already has entries is refused: one directory
    /// holds one run, and a second run into it would rewrite the
    /// exposition and spans while the first run's per-repetition files
    /// stayed.
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<MetricsHub> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        if std::fs::read_dir(&dir)?.next().is_some() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "directory is not empty (a run needs an empty output directory)",
            ));
        }
        let now = Instant::now();
        Ok(MetricsHub {
            dir,
            recorder: Recorder::new(),
            spans: Mutex::new(Vec::new()),
            start: now,
            expected: AtomicU64::new(0),
            done: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            events: AtomicU64::new(0),
            busy_nanos: AtomicU64::new(0),
            last_emit: Mutex::new(now - HEARTBEAT_EVERY),
        })
    }

    /// The metrics output directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The metric registry.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Wall-clock seconds since the hub was created (the time base for
    /// wall-unit spans).
    pub fn wall_now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    // ---- heartbeat -------------------------------------------------

    /// Announce `n` upcoming repetitions (called per scenario batch; the
    /// ETA denominator).
    pub fn expect_reps(&self, n: u64) {
        self.expected.fetch_add(n, Ordering::Relaxed);
    }

    /// Add a finished repetition's simulation events (called by the
    /// supervisor once per run; feeds the aggregate events/s readout).
    pub fn add_events(&self, n: u64) {
        self.events.fetch_add(n, Ordering::Relaxed);
    }

    /// Record one finished repetition and maybe emit a heartbeat line.
    /// `failed` repetitions produced no report.
    pub fn rep_finished(&self, failed: bool, wall: Duration) {
        self.done.fetch_add(1, Ordering::Relaxed);
        if failed {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
        self.busy_nanos.fetch_add(wall.as_nanos() as u64, Ordering::Relaxed);
        self.recorder.describe("repro_reps", "Repetitions finished (simulated or failed)");
        self.recorder.counter_add("repro_reps", 1);
        if failed {
            self.recorder.describe("repro_reps_failed", "Repetitions that produced no report");
            self.recorder.counter_add("repro_reps_failed", 1);
        }
        self.recorder.describe("repro_rep_wall_ms", "Wall-clock milliseconds per repetition");
        self.recorder.hist_record("repro_rep_wall_ms", wall.as_millis() as u64);
        self.maybe_heartbeat(false);
    }

    /// Emit a heartbeat line if the last one is old enough (or always,
    /// for the `final_heartbeat` flush).
    fn maybe_heartbeat(&self, force: bool) {
        {
            let mut last = self.last_emit.lock().expect("heartbeat throttle");
            if !force && last.elapsed() < HEARTBEAT_EVERY {
                return;
            }
            *last = Instant::now();
        }
        let done = self.done.load(Ordering::Relaxed);
        let expected = self.expected.load(Ordering::Relaxed).max(done);
        let failed = self.failed.load(Ordering::Relaxed);
        let events = self.events.load(Ordering::Relaxed);
        let elapsed = self.start.elapsed().as_secs_f64().max(1e-9);
        let rate = events as f64 / elapsed;
        // ETA: remaining reps at the mean busy time per rep, spread
        // over the scheduler gate's parallelism.
        let eta = if done > 0 && expected > done {
            let mean_secs = self.busy_nanos.load(Ordering::Relaxed) as f64 / 1e9 / done as f64;
            let lanes = sched::global_gate().capacity().max(1) as f64;
            format!("{:.0}s", (expected - done) as f64 * mean_secs / lanes)
        } else {
            "-".to_string()
        };
        eprintln!(
            "heartbeat: reps {done}/{expected} ({failed} failed) | {} events/s | ETA {eta}",
            human_rate(rate),
        );
    }

    /// Emit the closing heartbeat line regardless of the throttle.
    pub fn final_heartbeat(&self) {
        self.maybe_heartbeat(true);
    }

    // ---- engine health ---------------------------------------------

    /// Fold an engine-health snapshot into the registry as gauges
    /// (last sample wins) and depth histograms. Called by the
    /// supervisor after every step slice and once at the end of a run.
    pub fn sample_queue_health(&self, h: simcore::QueueHealth) {
        let r = &self.recorder;
        r.describe("engine_queue_near_depth", "Live events in the near-heap rung");
        r.gauge_set("engine_queue_near_depth", h.near_depth as f64);
        r.describe("engine_queue_ring_occupancy", "Live events parked in wheel ring buckets");
        r.gauge_set("engine_queue_ring_occupancy", h.ring_occupancy as f64);
        r.describe("engine_queue_overflow_live", "Live events spilled past the wheel horizon");
        r.gauge_set("engine_queue_overflow_live", h.overflow_live as f64);
        r.describe("engine_queue_lane_depth", "Live events in the FIFO lanes");
        r.gauge_set("engine_queue_lane_depth", h.lane_depth as f64);
        r.describe("engine_queue_lane_fallbacks", "Lane pushes filed in the wheel (behind the lane's tail)");
        r.gauge_set("engine_queue_lane_fallbacks", h.lane_fallbacks as f64);
        r.describe("engine_queue_stale_timers", "Cancelled-timer tombstones awaiting drain");
        r.gauge_set("engine_queue_stale_timers", h.stale_timers as f64);
        r.describe("engine_queue_slab_slots", "Allocated timer-payload slab slots");
        r.gauge_set("engine_queue_slab_slots", h.slab_slots as f64);
        r.describe("engine_queue_len", "Total pending live events");
        r.gauge_set("engine_queue_len", h.len as f64);
        r.describe("engine_queue_depth", "Distribution of total queue depth across samples");
        r.hist_record("engine_queue_depth", h.len as u64);
        if h.past_clamps > 0 {
            r.describe("engine_past_clamps", "Past-time pushes clamped to now (causality bugs)");
            r.gauge_set("engine_past_clamps", h.past_clamps as f64);
        }
    }

    // ---- spans -----------------------------------------------------

    /// Append one phase span (see [`obs::SpanRecord`] for units).
    pub fn span(&self, scope: impl Into<String>, name: impl Into<String>, unit: &'static str, start: f64, dur: f64) {
        self.spans.lock().expect("span sink").push(SpanRecord {
            scope: scope.into(),
            name: name.into(),
            unit,
            start,
            dur,
        });
    }

    // ---- exposition ------------------------------------------------

    /// Write the OpenMetrics exposition of the full registry to
    /// `repro.openmetrics` and the collected spans to `spans.jsonl`.
    /// Returns the OpenMetrics path.
    pub fn write_exposition(&self) -> io::Result<PathBuf> {
        let spans = self.spans.lock().expect("span sink");
        if !spans.is_empty() {
            let mut body = String::new();
            for span in spans.iter() {
                body.push_str(&span.to_json_line());
                body.push('\n');
            }
            std::fs::write(self.dir.join("spans.jsonl"), body)?;
        }
        drop(spans);
        let path = self.dir.join("repro.openmetrics");
        std::fs::write(&path, render_openmetrics(&self.recorder.snapshot()))?;
        Ok(path)
    }

    /// Record one surviving repetition: its `warmup`/`steady` sim-time
    /// spans, its interval series, its JSON-lines trace and its cycle
    /// profiles, every file written through `io`. A failed write is a
    /// warning on stderr, never a lost repetition. Returns the interval
    /// samples dropped as late, for the run ledger.
    pub(crate) fn write_rep(
        &self,
        io: &dyn TraceIo,
        scenario: &Scenario,
        rep: usize,
        seed: u64,
        report: &Iperf3Report,
    ) -> u64 {
        let label = &scenario.label;
        let omit = scenario.opts.omit_secs as f64;
        let scope = format!("{label}/rep{rep}");
        if omit > 0.0 {
            self.span(scope.clone(), "warmup", "sim_s", 0.0, omit);
        }
        self.span(scope, "steady", "sim_s", omit, scenario.opts.time_secs as f64);
        let agg = aggregate_report_intervals(report);
        // The batch fold above never seals mid-stream, so late() should
        // be structurally zero — but if that invariant ever breaks, the
        // drops must land in the ledger, not vanish.
        let late = agg.late();
        self.write_intervals(io, label, rep, &agg.finish());
        let stem = format!("{}_rep{rep}", trace::sanitize_label(label));
        let sampled = [
            ("jsonl", trace::render_jsonl(label, rep, seed, report)),
            ("folded", trace::folded_stacks(report)),
            ("perf.txt", trace::perf_report(report)),
        ];
        for (ext, body) in sampled {
            if let Some(body) = body {
                self.put(io, &format!("{stem}.{ext}"), &body);
            }
        }
        late
    }

    /// Write an interval series (a repetition's, or a streaming fleet
    /// run's) as `<label>_rep<i>.intervals.jsonl` through `io`.
    pub(crate) fn write_intervals(&self, io: &dyn TraceIo, label: &str, rep: usize, series: &[IntervalRecord]) {
        let mut body = String::with_capacity(series.len() * 128);
        for rec in series {
            body.push_str(&rec.to_json_line());
            body.push('\n');
        }
        self.put(io, &format!("{}_rep{rep}.intervals.jsonl", trace::sanitize_label(label)), &body);
    }

    /// Write `body` to `name` in the hub directory through `io`,
    /// degrading a failure to a warning.
    pub fn put(&self, io: &dyn TraceIo, name: &str, body: &str) {
        let path = self.dir.join(name);
        if let Err(e) = io.write(&path, body.as_bytes()) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
}

/// Fold a report's per-stream goodput (Mbps) into a 1 s-wide interval
/// aggregator: interval `k` is post-omit second `k`, from the bins
/// every report carries. Per-tick srtt and retransmits live in the
/// repetition's `.jsonl` trace, on the simulation's own time base.
/// Kept separate from the hub so tests can exercise the fold without
/// touching the filesystem.
pub fn aggregate_report_intervals(report: &Iperf3Report) -> IntervalAggregator {
    let mut agg = IntervalAggregator::new(1);
    for stream in &report.streams {
        for (sec, rate) in stream.intervals.iter().enumerate() {
            agg.record(sec as u64, "goodput_mbps", (rate.as_gbps() * 1000.0).max(0.0) as u64);
        }
    }
    agg
}

/// `1234567.0` → `"1.2M"` — compact rates for the heartbeat line.
fn human_rate(rate: f64) -> String {
    if rate >= 1e9 {
        format!("{:.1}G", rate / 1e9)
    } else if rate >= 1e6 {
        format!("{:.1}M", rate / 1e6)
    } else if rate >= 1e3 {
        format!("{:.1}k", rate / 1e3)
    } else {
        format!("{rate:.0}")
    }
}

/// Fold the run ledger (its repetition totals and late-drop count) and
/// (when present) chaos statistics into the registry — called once at
/// the end of a `repro` invocation with every experiment's ledger
/// merged. `late_dropped` is folded even at zero, so the exposition
/// always carries it and validators can assert it is 0.
pub fn fold_run_totals(
    recorder: &Recorder,
    ledger: &crate::supervise::RunLedger,
    chaos: Option<&crate::chaos::ChaosStats>,
) {
    let records = ledger.snapshot();
    let expected: usize = records.iter().map(|r| r.expected).sum();
    let completed: usize = records.iter().map(|r| r.completed).sum();
    let failed: usize = records.iter().map(|r| r.failed.len()).sum();
    recorder.describe("ledger_expected_reps", "Repetitions the harness was asked for");
    recorder.counter_add("ledger_expected_reps", expected as u64);
    recorder.describe("ledger_completed_reps", "Repetitions that produced a report");
    recorder.counter_add("ledger_completed_reps", completed as u64);
    recorder.describe("ledger_failed_reps", "Repetitions that produced no report");
    recorder.counter_add("ledger_failed_reps", failed as u64);
    recorder.describe("ledger_scenarios", "Scenarios recorded in the run ledger");
    recorder.counter_add("ledger_scenarios", records.len() as u64);
    recorder.describe(
        "late_dropped",
        "Interval samples dropped for arriving below an aggregator watermark",
    );
    recorder.counter_add("late_dropped", ledger.late_dropped());
    if let Some(stats) = chaos {
        recorder.describe("chaos_worker_kills", "Chaos-injected worker kills");
        recorder.counter_add("chaos_worker_kills", stats.kills());
        recorder.describe("chaos_resumes", "Checkpoint resumes after chaos kills");
        recorder.counter_add("chaos_resumes", stats.resumes());
        recorder.describe("chaos_trace_failures", "Chaos-failed run-artefact writes");
        recorder.counter_add("chaos_trace_failures", stats.trace_failures());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_rates_read_well() {
        assert_eq!(human_rate(12.0), "12");
        assert_eq!(human_rate(4_300.0), "4.3k");
        assert_eq!(human_rate(7_120_000.0), "7.1M");
        assert_eq!(human_rate(2.5e9), "2.5G");
    }

    #[test]
    fn hub_writes_exposition_and_spans() {
        let dir = std::env::temp_dir().join(format!("metrics_hub_{}", std::process::id()));
        let hub = MetricsHub::new(&dir).expect("hub dir");
        hub.recorder().counter_add("repro_reps", 2);
        hub.span("fig05/rep0", "steady", "sim_s", 0.0, 4.0);
        let path = hub.write_exposition().expect("write");
        let text = std::fs::read_to_string(&path).expect("read back");
        assert!(text.contains("# TYPE repro_reps counter"));
        assert!(text.contains("repro_reps_total 2"));
        assert!(text.ends_with("# EOF\n"));
        let spans = std::fs::read_to_string(dir.join("spans.jsonl")).expect("spans");
        assert!(spans.contains("\"name\":\"steady\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chaos_failed_run_files_are_counted_warnings() {
        use crate::chaos::{artefact_io, ChaosPlan};
        use std::sync::Arc;
        let dir = std::env::temp_dir().join(format!("metrics_chaos_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let hub = MetricsHub::new(&dir).expect("hub dir");
        let names = ["fig05.csv", "manifest.json"];
        // The schedule hashes the full path: pick a chaos seed that
        // fails both of this directory's writes.
        let plan = (0..10_000u64)
            .map(ChaosPlan::new)
            .find(|p| names.iter().all(|n| p.trace_write_fails(&dir.join(n))))
            .map(Arc::new)
            .expect("some seed fails two 30% writes");
        let io = artefact_io(Some(&plan));
        hub.put(io.as_ref(), "fig05.csv", "x,y\n1,2\n");
        hub.put(io.as_ref(), "manifest.json", "{\"degraded\":true}");
        assert_eq!(plan.stats.trace_failures(), 2);
        assert!(names.iter().all(|n| !dir.join(n).exists()));
        // Without chaos the same writes land.
        hub.put(artefact_io(None).as_ref(), "fig05.csv", "x,y\n1,2\n");
        assert_eq!(std::fs::read_to_string(dir.join("fig05.csv")).expect("csv"), "x,y\n1,2\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn heartbeat_counters_accumulate() {
        let dir = std::env::temp_dir().join(format!("metrics_hb_{}", std::process::id()));
        let hub = MetricsHub::new(&dir).expect("hub dir");
        hub.expect_reps(4);
        hub.add_events(1000);
        hub.rep_finished(false, Duration::from_millis(5));
        hub.rep_finished(true, Duration::from_millis(7));
        assert_eq!(hub.done.load(Ordering::Relaxed), 2);
        assert_eq!(hub.failed.load(Ordering::Relaxed), 1);
        let snap = hub.recorder().snapshot();
        assert_eq!(snap.hists["repro_rep_wall_ms"].count(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn queue_health_lands_as_gauges() {
        let dir = std::env::temp_dir().join(format!("metrics_qh_{}", std::process::id()));
        let hub = MetricsHub::new(&dir).expect("hub dir");
        hub.sample_queue_health(simcore::QueueHealth {
            near_depth: 3,
            ring_occupancy: 5,
            overflow_live: 1,
            lane_depth: 4,
            stale_timers: 2,
            slab_slots: 8,
            free_slots: 6,
            len: 13,
            past_clamps: 0,
            lane_fallbacks: 7,
        });
        let snap = hub.recorder().snapshot();
        assert_eq!(snap.gauges["engine_queue_near_depth"], 3.0);
        assert_eq!(snap.gauges["engine_queue_lane_depth"], 4.0);
        assert_eq!(snap.gauges["engine_queue_lane_fallbacks"], 7.0);
        assert_eq!(snap.gauges["engine_queue_len"], 13.0);
        assert_eq!(snap.hists["engine_queue_depth"].count(), 1);
        assert!(!snap.gauges.contains_key("engine_past_clamps"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
