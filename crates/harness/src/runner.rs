//! The repetition runner.
//!
//! The paper's methodology (§III-G): run every configuration for 60
//! seconds, at least 10 times, with `mpstat` sampling CPU alongside;
//! report mean, stdev, min and max. Repetitions only differ by seed
//! here, and are independent simulations — so a batch of scenarios
//! flattens into `(scenario, repetition)` jobs on the bounded
//! work-conserving pool in [`crate::sched`], with results landing in
//! deterministic slot order.
//!
//! Seeds are *derived*, not positional: repetition `i` of a scenario
//! runs on `derive_seed(scenario.fingerprint(), base_seed, i)`, so a
//! scenario's seeds depend only on what it is — never on where it sits
//! in a grid or which loop launched it. When a
//! [`RunCache`](crate::cache::RunCache) is attached, each repetition is
//! looked up by content address before simulating and stored after.
//!
//! Real campaigns lose repetitions (a host reboots, a watchdog fires):
//! a failed repetition is recorded per-seed and retried once with a
//! perturbed seed, survivors are aggregated, and the whole scenario
//! only errors out when *no* repetition produced a report.

use crate::cache::RunCache;
use crate::chaos::ChaosIo;
use crate::scenario::Scenario;
use crate::sched;
use crate::supervise::{
    json_escape, json_unescape, ErrorClass, RepError, RunLedger, ScenarioRecord, Supervisor,
};
use crate::trace::{RealIo, TraceIo};
use iperf3sim::Iperf3Report;
use simcore::{derive_seed, RunningStats, SimDuration, Summary};
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

/// Outcome slot for one repetition: the report (with the seed that
/// produced it — a rescued retry runs on a perturbed seed), or the
/// failure record.
type Slot = Result<(u64, Iperf3Report), FailedRep>;

/// One repetition that produced no report, identified by its seed.
#[derive(Debug, Clone, PartialEq)]
pub struct FailedRep {
    /// The seed the repetition was asked to run with (retries perturb
    /// it, but the failure is recorded against the original).
    pub seed: u64,
    /// The *first* error, rendered as text (stable across retries).
    pub error: String,
    /// The first error's class — what the retry policy keyed on.
    pub class: ErrorClass,
    /// Attempts made before giving up (1 = never retried).
    pub attempts: u32,
}

impl FailedRep {
    /// Was this a deterministic flag/config rejection (the same on
    /// every seed, so never retried)?
    pub fn invalid(&self) -> bool {
        self.class == ErrorClass::InvalidConfig
    }

    /// Serialize for the degraded-run manifest.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"seed\":{},\"class\":\"{}\",\"attempts\":{},\"error\":\"{}\"}}",
            self.seed,
            self.class.name(),
            self.attempts,
            json_escape(&self.error)
        )
    }

    /// Parse exactly what [`FailedRep::to_json`] emits; `None` on any
    /// deviation (unknown class, malformed escape, missing field).
    pub fn from_json(s: &str) -> Option<FailedRep> {
        let s = s.strip_prefix("{\"seed\":")?;
        let (seed, s) = s.split_once(",\"class\":\"")?;
        let seed = seed.parse().ok()?;
        let (class, s) = s.split_once("\",\"attempts\":")?;
        let class = ErrorClass::parse(class)?;
        let (attempts, s) = s.split_once(",\"error\":\"")?;
        let attempts = attempts.parse().ok()?;
        let error = json_unescape(s.strip_suffix("\"}")?)?;
        Some(FailedRep { seed, error, class, attempts })
    }
}

/// Why a whole scenario produced no summary.
#[derive(Debug, Clone)]
pub enum ScenarioError {
    /// The scenario's flags/config are invalid — deterministic, so no
    /// repetition was attempted beyond the first.
    Invalid {
        /// Scenario label.
        label: String,
        /// The individual validation messages.
        problems: Vec<String>,
    },
    /// Every repetition (including retries) failed at runtime.
    AllRepetitionsFailed {
        /// Scenario label.
        label: String,
        /// One record per failed seed.
        failures: Vec<FailedRep>,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Invalid { label, problems } => {
                write!(f, "scenario '{label}' invalid: {}", problems.join("; "))
            }
            ScenarioError::AllRepetitionsFailed { label, failures } => {
                write!(
                    f,
                    "scenario '{label}': all {} repetitions failed (first: {})",
                    failures.len(),
                    failures.first().map(|x| x.error.as_str()).unwrap_or("?")
                )
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Aggregated results for one scenario across repetitions.
#[derive(Debug, Clone)]
pub struct TestSummary {
    /// Scenario label.
    pub label: String,
    /// Aggregate throughput (Gbps) across surviving repetitions.
    pub throughput_gbps: Summary,
    /// Total retransmitted packets per run.
    pub retr: Summary,
    /// Lowest single-stream rate seen in any repetition (Gbps).
    pub min_stream_gbps: f64,
    /// Highest single-stream rate seen in any repetition (Gbps).
    pub max_stream_gbps: f64,
    /// Sender combined CPU ("TX cores", %) across repetitions.
    pub sender_cpu_pct: Summary,
    /// Receiver combined CPU ("RX cores", %) across repetitions.
    pub receiver_cpu_pct: Summary,
    /// Zerocopy fallback fraction (mean across repetitions).
    pub zc_fallback: f64,
    /// The individual reports (one per surviving repetition).
    pub reports: Vec<Iperf3Report>,
    /// Repetitions that produced no report even after a retry.
    pub failed_reps: Vec<FailedRep>,
}

impl TestSummary {
    /// An all-zero summary for a scenario that produced no reports
    /// (experiments use this to degrade gracefully instead of tearing
    /// down a whole figure over one broken cell).
    pub fn empty(label: impl Into<String>) -> Self {
        TestSummary {
            label: label.into(),
            throughput_gbps: Summary::default(),
            retr: Summary::default(),
            min_stream_gbps: 0.0,
            max_stream_gbps: 0.0,
            sender_cpu_pct: Summary::default(),
            receiver_cpu_pct: Summary::default(),
            zc_fallback: 0.0,
            reports: Vec::new(),
            failed_reps: Vec::new(),
        }
    }

    /// Mean throughput in Gbps.
    pub fn mean_gbps(&self) -> f64 {
        self.throughput_gbps.mean
    }

    /// Mean retransmitted packets per run (what the paper's `Retr`
    /// column shows).
    pub fn mean_retr(&self) -> f64 {
        self.retr.mean
    }
}

/// The harness: repetition count and seeding policy.
#[derive(Debug, Clone)]
pub struct TestHarness {
    /// Number of repetitions per scenario.
    pub repetitions: usize,
    /// Base seed mixed into the derivation; repetition `i` of a
    /// scenario runs with
    /// `derive_seed(scenario.fingerprint(), base_seed, i)`.
    pub base_seed: u64,
    /// Run repetitions on parallel threads (bounded by the process-wide
    /// scheduler gate).
    pub parallel: bool,
    /// Write a JSON-lines telemetry trace plus simulated-`perf`
    /// profile files per surviving repetition into this directory (the
    /// `--trace <dir>` flag, threaded through
    /// [`RunCtx`](crate::ctx::RunCtx)). Forces telemetry sampling and
    /// bottleneck attribution on.
    pub trace_dir: Option<PathBuf>,
    /// Content-addressed report cache, consulted per repetition before
    /// simulating and filled after. Repetitions that carry observers
    /// (telemetry sampling or attribution, e.g. under tracing) bypass
    /// it.
    pub cache: Option<Arc<RunCache>>,
    /// Crash isolation, deadlines, classed retries, chaos schedule —
    /// every repetition runs under it (see [`crate::supervise`]).
    pub supervisor: Supervisor,
}

impl Default for TestHarness {
    fn default() -> Self {
        TestHarness {
            repetitions: 5,
            base_seed: 1000,
            parallel: true,
            trace_dir: None,
            cache: None,
            supervisor: Supervisor::default(),
        }
    }
}

/// Retried seeds flip the top bit of the derived seed, so a retry
/// never collides with another repetition's seed stream. (The second
/// retry onward re-derives from this mask, keeping every attempt's
/// seed distinct from every repetition stream.)
const RETRY_SEED_XOR: u64 = 0x8000_0000_0000_0000;

impl TestHarness {
    /// Harness with `repetitions` runs per scenario.
    pub fn new(repetitions: usize) -> Self {
        assert!(repetitions > 0, "need at least one repetition");
        TestHarness { repetitions, ..Default::default() }
    }

    /// Builder: set the base seed.
    pub fn with_base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Builder: disable thread-level parallelism (deterministic
    /// ordering for debugging; results are identical either way).
    pub fn sequential(mut self) -> Self {
        self.parallel = false;
        self
    }

    /// Builder: write per-repetition JSON-lines telemetry traces and
    /// simulated-`perf` profiles into `dir` (forces telemetry sampling
    /// and attribution on for every run).
    pub fn with_trace_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.trace_dir = Some(dir.into());
        self
    }

    /// Builder: replace the run supervisor (retry policy, error
    /// budget, chaos schedule, checkpoint cadence).
    pub fn with_supervisor(mut self, supervisor: Supervisor) -> Self {
        self.supervisor = supervisor;
        self
    }

    /// Run all repetitions of one scenario and aggregate the survivors.
    ///
    /// Invalid scenarios (flag/kernel mismatches) fail fast with
    /// [`ScenarioError::Invalid`]. Runtime failures (watchdog trips,
    /// conservation violations) cost one retry with a perturbed seed;
    /// seeds that fail twice are recorded in
    /// [`TestSummary::failed_reps`]. Only a scenario with *zero*
    /// surviving repetitions is an error.
    pub fn run(&self, scenario: &Scenario) -> Result<TestSummary, ScenarioError> {
        self.run_batch(std::slice::from_ref(scenario))
            .pop()
            .expect("one scenario yields one result")
    }

    /// Run a whole batch of scenarios: every `(scenario, repetition)`
    /// pair becomes one job on the bounded pool, so an entire figure
    /// grid saturates the scheduler gate instead of running scenarios
    /// one after another. Results return in scenario order and are
    /// bit-identical to sequential execution.
    pub fn run_batch(
        &self,
        scenarios: &[Scenario],
    ) -> Vec<Result<TestSummary, ScenarioError>> {
        let reps = self.repetitions;
        if let Some(hub) = self.supervisor.metrics() {
            hub.expect_reps((scenarios.len() * reps) as u64);
        }
        let fingerprints: Vec<u64> = scenarios.iter().map(Scenario::fingerprint).collect();
        let job = |j: usize| -> Slot {
            let (si, i) = (j / reps, j % reps);
            self.run_one_rep(&scenarios[si], derive_seed(fingerprints[si], self.base_seed, i as u64))
        };
        let slots: Vec<Option<Slot>> = if self.parallel {
            sched::run_batch(sched::global_gate(), scenarios.len() * reps, |j| Some(job(j)))
        } else {
            (0..scenarios.len() * reps).map(|j| Some(job(j))).collect()
        };
        slots
            .chunks(reps)
            .zip(scenarios)
            .zip(&fingerprints)
            .map(|((chunk, sc), &fp)| self.finish_scenario(sc, fp, chunk.to_vec()))
            .collect()
    }

    /// One repetition: attempt, then retries on perturbed seeds, each
    /// gated on the error class (a deterministic config rejection reads
    /// the same on every seed, so it is never rerun), the policy's
    /// attempt cap, and the shared error budget. The recorded failure
    /// keeps the *first* error — retries are rescue attempts, not
    /// evidence.
    fn run_one_rep(&self, scenario: &Scenario, seed: u64) -> Slot {
        let wall_start = std::time::Instant::now();
        let mut first: Option<RepError> = None;
        let mut attempt_no: u32 = 1;
        loop {
            let attempt_seed = match attempt_no {
                1 => seed,
                2 => seed ^ RETRY_SEED_XOR,
                n => derive_seed(seed, RETRY_SEED_XOR, n as u64),
            };
            match self.attempt(scenario, attempt_seed) {
                Ok((report, cached)) => {
                    if let Some(hub) = self.supervisor.metrics() {
                        hub.rep_finished(cached, false, wall_start.elapsed());
                    }
                    return Ok((attempt_seed, report));
                }
                Err(e) => {
                    let class = e.class;
                    let first = first.get_or_insert(e);
                    if self.supervisor.may_retry(class, attempt_no) {
                        std::thread::sleep(self.supervisor.policy().backoff(attempt_no + 1));
                        attempt_no += 1;
                    } else {
                        if let Some(hub) = self.supervisor.metrics() {
                            hub.rep_finished(false, true, wall_start.elapsed());
                        }
                        return Err(FailedRep {
                            seed,
                            error: first.error.clone(),
                            class: first.class,
                            attempts: attempt_no,
                        });
                    }
                }
            }
        }
    }

    /// Aggregate one scenario's repetition slots into a summary (or a
    /// scenario-level error), writing traces for the survivors.
    fn finish_scenario(
        &self,
        scenario: &Scenario,
        fingerprint: u64,
        slots: Vec<Option<Slot>>,
    ) -> Result<TestSummary, ScenarioError> {
        let expected = slots.len();
        let seeds: Vec<u64> = (0..slots.len())
            .map(|i| derive_seed(fingerprint, self.base_seed, i as u64))
            .collect();
        let (reports, failures) = Self::collect_slots(slots, &seeds);
        // Every scenario reports into the global ledger — success,
        // degraded, or total loss — so `repro` can account for every
        // repetition in the end-of-run manifest.
        RunLedger::global().record(ScenarioRecord {
            label: scenario.label.clone(),
            expected,
            completed: reports.len(),
            failed: failures.clone(),
        });
        if reports.is_empty() {
            // Deterministic config errors read the same on every seed:
            // report them as one Invalid, not N identical failures.
            if let Some(first) = failures.iter().find(|x| x.invalid()) {
                return Err(ScenarioError::Invalid {
                    label: scenario.label.clone(),
                    problems: vec![first.error.clone()],
                });
            }
            return Err(ScenarioError::AllRepetitionsFailed {
                label: scenario.label.clone(),
                failures,
            });
        }
        if let Some(dir) = &self.trace_dir {
            // Under chaos the writes go through the fault-injecting
            // shim: a lost trace degrades to a warning, never to a
            // lost repetition.
            let chaos_io = self.supervisor.chaos().map(|plan| ChaosIo::new(plan.clone()));
            let io: &dyn TraceIo = match &chaos_io {
                Some(io) => io,
                None => &RealIo,
            };
            for (i, seed, report) in &reports {
                if let Err(e) = crate::trace::write_rep_trace_with(
                    io,
                    dir,
                    &scenario.label,
                    *i,
                    *seed,
                    report,
                ) {
                    eprintln!(
                        "warning: could not write trace for '{}' rep {i}: {e}",
                        scenario.label
                    );
                }
                if let Err(e) =
                    crate::trace::write_rep_profiles_with(io, dir, &scenario.label, *i, report)
                {
                    eprintln!(
                        "warning: could not write profiles for '{}' rep {i}: {e}",
                        scenario.label
                    );
                }
            }
        }
        if let Some(hub) = self.supervisor.metrics() {
            // Per-survivor interval series (streamed through the HDR
            // aggregator) plus the iperf3 phase structure as sim-time
            // spans: omitted warmup first, measured steady interval
            // after. These land in the metrics dir, not the trace dir —
            // traces keep their exact per-rep file contract.
            let omit = scenario.opts.omit_secs as f64;
            let steady = scenario.opts.time_secs as f64;
            for (i, _seed, report) in &reports {
                let scope = format!("{}/rep{i}", scenario.label);
                if omit > 0.0 {
                    hub.span(scope.clone(), "warmup", "sim_s", 0.0, omit);
                }
                hub.span(scope, "steady", "sim_s", omit, steady);
                if let Err(e) = hub.write_interval_series(&scenario.label, *i, report) {
                    eprintln!(
                        "warning: could not write interval series for '{}' rep {i}: {e}",
                        scenario.label
                    );
                }
            }
        }
        let reports = reports.into_iter().map(|(_, _, r)| r).collect();
        Ok(Self::aggregate(&scenario.label, reports, failures))
    }

    /// Drain the repetition slots, converting an empty slot (a worker
    /// thread died before writing its result — a panic swallowed by a
    /// crashed thread, an OOM kill) into a recorded runtime failure so
    /// the scenario degrades instead of panicking the whole harness.
    /// `seeds[i]` is the seed repetition `i` would have run with.
    fn collect_slots(
        slots: Vec<Option<Slot>>,
        seeds: &[u64],
    ) -> (Vec<(usize, u64, Iperf3Report)>, Vec<FailedRep>) {
        let mut reports = Vec::new();
        let mut failures = Vec::new();
        for (i, slot) in slots.into_iter().enumerate() {
            match slot {
                Some(Ok((seed, report))) => reports.push((i, seed, report)),
                Some(Err(failure)) => failures.push(failure),
                None => failures.push(FailedRep {
                    seed: seeds[i],
                    error: format!("repetition {i}: worker died before reporting a result"),
                    class: ErrorClass::WorkerDeath,
                    attempts: 1,
                }),
            }
        }
        (reports, failures)
    }

    /// One supervised simulation attempt. The boolean is `true` when
    /// the report came straight from the cache (the heartbeat and the
    /// structured summary distinguish cached from simulated reps).
    fn attempt(&self, scenario: &Scenario, seed: u64) -> Result<(Iperf3Report, bool), RepError> {
        let mut opts = scenario.opts.clone().seed(seed);
        // Tracing needs samples: default to a 1 s tick unless the
        // scenario already chose one, and turn on attribution so the
        // trace carries verdicts and the profile files have cycles.
        if self.trace_dir.is_some() {
            if opts.telemetry.is_none() {
                opts = opts.telemetry(SimDuration::from_secs(1));
            }
            opts = opts.attribution();
        }
        // The simulation itself always runs under the supervisor:
        // crash-isolated, stepped under a wall-clock deadline, and —
        // when chaos is on — killed and resumed per the schedule.
        let simulate = || {
            self.supervisor.drive(seed, || {
                iperf3sim::start_session(
                    &scenario.client,
                    &scenario.server,
                    &scenario.path,
                    &opts,
                    &scenario.faults,
                    scenario.event_budget,
                )
            })
        };
        // Observer-free runs are pure functions of (scenario, seed):
        // consult the content-addressed cache before simulating, fill
        // it after. Runs carrying telemetry/attribution bypass it (the
        // cached payload deliberately excludes observer data).
        let cacheable = opts.telemetry.is_none() && !opts.attribution;
        if cacheable {
            if let Some(cache) = &self.cache {
                let key = cache.key(scenario, seed);
                let lookup_start = self.supervisor.metrics().map(|hub| hub.wall_now());
                let looked_up = cache.lookup_detail(&key);
                if let (Some(hub), Some(start)) = (self.supervisor.metrics(), lookup_start) {
                    hub.span(
                        format!("{}/seed_{seed:016x}", scenario.label),
                        "cache_lookup",
                        "wall_s",
                        start,
                        hub.wall_now() - start,
                    );
                }
                let clean_miss = match looked_up {
                    Ok(Some(report)) => return Ok((report, true)),
                    Ok(None) => true,
                    // Corrupt/truncated/stale entry: already counted
                    // and logged by the cache — recompute and overwrite
                    // (self-heal).
                    Err(_fault) => false,
                };
                let report = simulate()?;
                cache.store(&key, &report);
                // Chaos poisons only entries stored after a clean
                // miss: a store that just healed a poisoned entry is
                // left alone, so the cache converges instead of
                // being re-corrupted forever.
                if clean_miss {
                    if let Some(chaos) = self.supervisor.chaos() {
                        if let Some(damage) = chaos.cache_damage(seed) {
                            chaos.damage_entry(&cache.entry_path(&key), damage);
                        }
                    }
                }
                return Ok((report, false));
            }
        }
        simulate().map(|report| (report, false))
    }

    fn aggregate(
        label: &str,
        reports: Vec<Iperf3Report>,
        failed_reps: Vec<FailedRep>,
    ) -> TestSummary {
        let mut tput = RunningStats::new();
        let mut retr = RunningStats::new();
        let mut snd_cpu = RunningStats::new();
        let mut rcv_cpu = RunningStats::new();
        let mut min_stream = f64::INFINITY;
        let mut max_stream = f64::NEG_INFINITY;
        let mut zc_fallback = 0.0;
        for r in &reports {
            tput.push(r.sum_bitrate().as_gbps());
            retr.push(r.sum_retr() as f64);
            snd_cpu.push(r.sender_cpu.combined_pct());
            rcv_cpu.push(r.receiver_cpu.combined_pct());
            min_stream = min_stream.min(r.min_stream_gbps());
            max_stream = max_stream.max(r.max_stream_gbps());
            zc_fallback += r.zc_fallback_fraction;
        }
        // An empty (or all-empty-stream) report set must read as zero,
        // never as ±inf leaking out of the fold identities.
        if !min_stream.is_finite() {
            min_stream = 0.0;
        }
        if !max_stream.is_finite() {
            max_stream = 0.0;
        }
        let n = reports.len().max(1) as f64;
        TestSummary {
            label: label.to_string(),
            throughput_gbps: tput.summary(),
            retr: retr.summary(),
            min_stream_gbps: min_stream,
            max_stream_gbps: max_stream,
            sender_cpu_pct: snd_cpu.summary(),
            receiver_cpu_pct: rcv_cpu.summary(),
            zc_fallback: zc_fallback / n,
            reports,
            failed_reps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbeds::{EsnetPath, Testbeds};
    use iperf3sim::Iperf3Opts;
    use linuxhost::KernelVersion;
    use netsim::FaultPlan;
    use simcore::SimDuration;

    fn scenario() -> Scenario {
        Scenario::symmetric(
            "default",
            Testbeds::esnet_host(KernelVersion::L6_8),
            Testbeds::esnet_path(EsnetPath::Lan),
            Iperf3Opts::new(2).omit(0),
        )
    }

    #[test]
    fn aggregates_across_repetitions() {
        let h = TestHarness::new(3);
        let s = h.run(&scenario()).expect("run");
        assert_eq!(s.throughput_gbps.n, 3);
        assert_eq!(s.reports.len(), 3);
        assert!(s.failed_reps.is_empty());
        assert!(s.mean_gbps() > 20.0, "AMD LAN default ≈ 42, got {}", s.mean_gbps());
        assert!(s.throughput_gbps.min <= s.throughput_gbps.mean);
        assert!(s.throughput_gbps.mean <= s.throughput_gbps.max);
        assert!(s.receiver_cpu_pct.mean > 50.0);
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let sc = scenario();
        let par = TestHarness::new(2).run(&sc).expect("parallel");
        let seq = TestHarness::new(2).sequential().run(&sc).expect("sequential");
        assert_eq!(par.throughput_gbps.mean, seq.throughput_gbps.mean);
        assert_eq!(par.retr.mean, seq.retr.mean);
    }

    #[test]
    fn seeds_differ_across_repetitions() {
        let s = TestHarness::new(3).run(&scenario()).expect("run");
        // Distinct seeds ⇒ stdev strictly positive (service jitter).
        assert!(s.throughput_gbps.stdev > 0.0);
    }

    #[test]
    fn invalid_scenario_fails_fast() {
        let mut sc = scenario();
        sc.opts.parallel = 0;
        let err = TestHarness::new(3).run(&sc).unwrap_err();
        assert!(matches!(err, ScenarioError::Invalid { .. }), "{err}");
        assert!(err.to_string().contains("default"));
    }

    #[test]
    fn watchdog_failures_recorded_per_seed() {
        // An absurdly small event budget trips the watchdog on every
        // seed (and every retry): the scenario must surface
        // AllRepetitionsFailed with one record per seed.
        let sc = scenario().with_faults(FaultPlan::none()).with_event_budget(10);
        let err = TestHarness::new(2).with_base_seed(7).run(&sc).unwrap_err();
        let rep0_seed = simcore::derive_seed(sc.fingerprint(), 7, 0);
        match err {
            ScenarioError::AllRepetitionsFailed { failures, .. } => {
                assert_eq!(failures.len(), 2);
                assert!(failures.iter().all(|f| f.attempts > 1));
                assert!(failures.iter().all(|f| f.class == ErrorClass::WatchdogBudget));
                assert!(failures.iter().any(|f| f.seed == rep0_seed));
                assert!(failures[0].error.contains("stalled"), "{}", failures[0].error);
            }
            other => panic!("expected AllRepetitionsFailed, got {other}"),
        }
    }

    #[test]
    fn missing_slot_recorded_as_failed_rep() {
        // A worker thread that dies before writing its slot must not
        // panic the harness: the empty slot reads as a runtime failure
        // so the usual degradation path (aggregate the survivors, or
        // AllRepetitionsFailed) applies.
        let (reports, failures) = TestHarness::collect_slots(vec![None, None], &[50, 51]);
        assert!(reports.is_empty());
        assert_eq!(failures.len(), 2);
        assert_eq!(failures[0].seed, 50);
        assert_eq!(failures[1].seed, 51);
        assert!(failures.iter().all(|f| f.attempts <= 1 && !f.invalid()));
        assert!(failures.iter().all(|f| f.class == ErrorClass::WorkerDeath));
        assert!(failures[0].error.contains("worker died"), "{}", failures[0].error);
    }

    #[test]
    fn invalid_scenario_never_retries() {
        // A deterministic config rejection must burn exactly one
        // attempt per repetition — the identical rerun the old harness
        // paid for is gone. Verified through the run ledger (filtered
        // by label: the ledger is process-global and tests run in
        // parallel).
        let mut sc = scenario();
        sc.label = "invalid_never_retries".into();
        sc.opts.parallel = 0;
        let err = TestHarness::new(2).run(&sc).unwrap_err();
        assert!(matches!(err, ScenarioError::Invalid { .. }), "{err}");
        let records = RunLedger::global().snapshot();
        let rec = records
            .iter()
            .rev()
            .find(|r| r.label == "invalid_never_retries")
            .expect("scenario recorded in ledger");
        assert_eq!((rec.expected, rec.completed), (2, 0));
        assert_eq!(rec.failed.len(), 2);
        assert!(rec
            .failed
            .iter()
            .all(|f| f.attempts == 1 && f.class == ErrorClass::InvalidConfig));
    }

    #[test]
    fn failed_rep_json_round_trips() {
        let f = FailedRep {
            seed: u64::MAX,
            error: "weird \"msg\"\nwith\\slashes\tand tabs".into(),
            class: ErrorClass::StateCorruption,
            attempts: 3,
        };
        assert_eq!(FailedRep::from_json(&f.to_json()), Some(f));
        assert_eq!(FailedRep::from_json("{\"seed\":1}"), None);
        assert_eq!(
            FailedRep::from_json(
                "{\"seed\":1,\"class\":\"no-such\",\"attempts\":1,\"error\":\"x\"}"
            ),
            None
        );
    }

    #[test]
    fn traces_written_when_trace_dir_set() {
        let dir = std::env::temp_dir().join(format!("repro_trace_{}", std::process::id()));
        let s = TestHarness::new(2).with_trace_dir(&dir).run(&scenario()).expect("run");
        assert_eq!(s.reports.len(), 2);
        // Tracing forces telemetry sampling and attribution on.
        assert!(s.reports.iter().all(|r| r.telemetry.is_some()));
        assert!(s.reports.iter().all(|r| r.attribution.is_some()));
        let mut files: Vec<String> = std::fs::read_dir(&dir)
            .expect("trace dir created")
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        files.sort();
        assert_eq!(
            files,
            vec![
                "default_rep0.folded",
                "default_rep0.jsonl",
                "default_rep0.perf.txt",
                "default_rep1.folded",
                "default_rep1.jsonl",
                "default_rep1.perf.txt",
            ]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn aggregate_of_empty_streams_is_zero_not_infinite() {
        let s = TestHarness::aggregate("empty", Vec::new(), Vec::new());
        assert_eq!(s.min_stream_gbps, 0.0);
        assert_eq!(s.max_stream_gbps, 0.0);
        assert_eq!(s.zc_fallback, 0.0);
        assert_eq!(s.throughput_gbps.n, 0);
    }

    #[test]
    fn fault_plan_rides_along() {
        let plan = FaultPlan::none().with_link_flap(
            SimDuration::from_millis(500),
            SimDuration::from_millis(30),
        );
        let sc = scenario().with_faults(plan);
        let s = TestHarness::new(1).run(&sc).expect("faulted run");
        assert!(s.mean_gbps() > 1.0);
        // The flap costs throughput relative to a clean run.
        let clean = TestHarness::new(1).run(&scenario()).expect("clean run");
        assert!(s.mean_gbps() < clean.mean_gbps());
    }

    #[test]
    #[should_panic(expected = "at least one repetition")]
    fn zero_repetitions_rejected() {
        let _ = TestHarness::new(0);
    }
}
