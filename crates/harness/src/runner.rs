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
//! in a grid or which loop launched it.
//!
//! Every repetition gets exactly one attempt, on its derived seed. Real
//! campaigns lose repetitions (a host reboots, a watchdog fires): a
//! failed repetition is recorded against its seed and class, survivors
//! are aggregated, and the whole scenario only errors out when *no*
//! repetition produced a report. A simulator defect on any seed still
//! fails its scenario in the [`RunLedger`], which names that seed.

use crate::scenario::Scenario;
use crate::sched;
use crate::supervise::{ErrorClass, RunLedger, ScenarioRecord, Supervisor};
use iperf3sim::Iperf3Report;
use netsim::SimError;
use simcore::{derive_seed, RunningStats, SimDuration, Summary};
use std::fmt;
use std::sync::Arc;

/// Outcome slot for one repetition: the report, or the failure record.
type Slot = Result<Iperf3Report, FailedRep>;

/// One repetition that produced no report, identified by its seed.
#[derive(Debug, Clone, PartialEq)]
pub struct FailedRep {
    /// The seed the repetition ran with.
    pub seed: u64,
    /// The error, rendered as text.
    pub error: String,
    /// The error's class: a simulator defect or a host failure.
    pub class: ErrorClass,
    /// A config rejection's individual problems, in order; empty for
    /// every other class. The manifest carries only `error`.
    pub problems: Vec<String>,
}

impl FailedRep {
    /// Classify and render a run error on `seed`.
    pub fn from_run(seed: u64, e: &SimError) -> Self {
        let problems = match e {
            SimError::InvalidConfig(problems) => problems.clone(),
            _ => Vec::new(),
        };
        FailedRep { seed, error: e.to_string(), class: ErrorClass::classify(e), problems }
    }

    /// Was this a deterministic flag/config rejection (the same on
    /// every seed)?
    pub fn invalid(&self) -> bool {
        self.class == ErrorClass::InvalidConfig
    }

    /// Serialize for the degraded-run manifest.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"seed\":{},\"class\":\"{}\",\"error\":\"{}\"}}",
            self.seed,
            self.class.name(),
            obs::json_escape(&self.error)
        )
    }
}

/// Why a whole scenario produced no summary.
#[derive(Debug, Clone)]
pub enum ScenarioError {
    /// The scenario's flags/config are invalid — deterministic, the
    /// same on every seed.
    Invalid {
        /// Scenario label.
        label: String,
        /// The individual validation messages.
        problems: Vec<String>,
    },
    /// Every repetition failed at runtime.
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
    /// Repetitions that produced no report.
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
    /// Crash isolation, deadline, checkpoints, chaos schedule — every
    /// repetition runs under it (see [`crate::supervise`]).
    pub supervisor: Supervisor,
    /// Where every scenario this harness runs is accounted: the run
    /// context's ledger, or a fresh one of the harness's own.
    pub ledger: Arc<RunLedger>,
}

impl Default for TestHarness {
    fn default() -> Self {
        TestHarness {
            repetitions: 5,
            base_seed: 1000,
            parallel: true,
            supervisor: Supervisor::default(),
            ledger: Arc::default(),
        }
    }
}

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

    /// Builder: replace the run supervisor (deadline, chaos schedule,
    /// checkpoint cadence, metrics hub).
    pub fn with_supervisor(mut self, supervisor: Supervisor) -> Self {
        self.supervisor = supervisor;
        self
    }

    /// Run all repetitions of one scenario and aggregate the survivors.
    ///
    /// Invalid scenarios (flag/kernel mismatches) fail with
    /// [`ScenarioError::Invalid`]. Each repetition runs once; runtime
    /// failures (watchdog trips, conservation violations, panics,
    /// overrun deadlines) are recorded against their seed in
    /// [`TestSummary::failed_reps`]. Only a scenario with *zero*
    /// surviving repetitions is an error here; the ledger additionally
    /// fails a scenario on any simulator defect.
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
        let mut slots = if self.parallel {
            sched::run_batch(sched::global_gate(), scenarios.len() * reps, job)
        } else {
            (0..scenarios.len() * reps).map(job).collect()
        }
        .into_iter();
        scenarios
            .iter()
            .zip(&fingerprints)
            .map(|(sc, &fp)| self.finish_scenario(sc, fp, slots.by_ref().take(reps).collect()))
            .collect()
    }

    /// One repetition: a single supervised attempt on `seed`.
    fn run_one_rep(&self, scenario: &Scenario, seed: u64) -> Slot {
        let wall_start = std::time::Instant::now();
        let outcome = self.attempt(scenario, seed);
        if let Some(hub) = self.supervisor.metrics() {
            hub.rep_finished(outcome.is_err(), wall_start.elapsed());
        }
        outcome
    }

    /// Aggregate one scenario's repetition slots into a summary (or a
    /// scenario-level error), writing the survivors' run artefacts.
    fn finish_scenario(
        &self,
        scenario: &Scenario,
        fingerprint: u64,
        slots: Vec<Slot>,
    ) -> Result<TestSummary, ScenarioError> {
        let expected = slots.len();
        let mut reports = Vec::new();
        let mut failures = Vec::new();
        for (i, slot) in slots.into_iter().enumerate() {
            match slot {
                Ok(report) => {
                    reports.push((i, derive_seed(fingerprint, self.base_seed, i as u64), report))
                }
                Err(failure) => failures.push(failure),
            }
        }
        // Every scenario reports into the ledger — success, degraded,
        // or total loss — so `repro` can account for every repetition
        // in the end-of-run manifest.
        self.ledger.record(ScenarioRecord {
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
                    problems: first.problems.clone(),
                });
            }
            return Err(ScenarioError::AllRepetitionsFailed {
                label: scenario.label.clone(),
                failures,
            });
        }
        if let Some(hub) = self.supervisor.metrics() {
            // Every survivor's artefacts land in the hub's directory.
            // Under chaos the writes go through the fault-injecting
            // shim: a lost artefact degrades to a warning, never to a
            // lost repetition.
            let io = crate::chaos::artefact_io(self.supervisor.chaos());
            for (i, seed, report) in &reports {
                let late = hub.write_rep(io.as_ref(), scenario, *i, *seed, report);
                self.ledger.add_late_dropped(late);
            }
        }
        let reports = reports.into_iter().map(|(_, _, r)| r).collect();
        Ok(Self::aggregate(&scenario.label, reports, failures))
    }

    /// One supervised simulation run.
    fn attempt(&self, scenario: &Scenario, seed: u64) -> Slot {
        let mut opts = scenario.opts.clone().seed(seed);
        // A hub records the paper's collection model beside every
        // repetition: default to a 1 s telemetry tick unless the
        // scenario already chose one, and turn on attribution so the
        // trace carries verdicts and the profile files have cycles.
        if self.supervisor.metrics().is_some() {
            if opts.telemetry.is_none() {
                opts = opts.telemetry(SimDuration::from_secs(1));
            }
            opts = opts.attribution();
        }
        // The simulation itself always runs under the supervisor:
        // crash-isolated, stepped under a wall-clock deadline, and —
        // when chaos is on — killed and resumed per the schedule.
        let result = self.supervisor.drive(seed, || {
            iperf3sim::start_session(
                &scenario.client,
                &scenario.server,
                &scenario.path,
                &opts,
                &scenario.faults,
                scenario.event_budget,
            )
        })?;
        // Run-level warnings (e.g. past-scheduled events clamped by
        // the release-mode queue) don't fail the run, but the report is
        // suspect and the reader should know.
        for warning in result.warnings() {
            eprintln!("warning: {warning}");
        }
        Ok(Iperf3Report::from_run(opts.command_line(&scenario.server.name), &result))
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
    use crate::effort::Effort;
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
    fn invalid_scenario_keeps_each_problem() {
        // An omit window as long as the test: one flag problem and one
        // config problem.
        let mut sc = scenario();
        sc.opts.omit_secs = sc.opts.time_secs;
        let err = TestHarness::new(2).run(&sc).unwrap_err();
        let ScenarioError::Invalid { problems, .. } = &err else {
            panic!("expected Invalid, got {err}");
        };
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert_eq!(problems[0], "-O must be shorter than -t");
        assert_eq!(
            err.to_string(),
            format!("scenario 'default' invalid: {}", problems.join("; "))
        );
    }

    #[test]
    fn watchdog_failures_recorded_per_seed() {
        // An absurdly small event budget trips the watchdog on every
        // seed: at every effort, each repetition gets exactly one
        // attempt (no perturbed seed), the failure is recorded against
        // its derived seed, and the ledger fails the scenario naming
        // that seed and the class.
        let sc = scenario().with_faults(FaultPlan::none()).with_event_budget(10);
        for effort in [Effort::Smoke, Effort::Standard, Effort::Full] {
            let h = TestHarness::new(2)
                .with_base_seed(7)
                .with_supervisor(Supervisor::for_effort(effort));
            let err = h.run(&sc).unwrap_err();
            let ScenarioError::AllRepetitionsFailed { failures, .. } = err else {
                panic!("{effort:?}: expected AllRepetitionsFailed, got {err}");
            };
            assert_eq!(failures.len(), 2, "{effort:?}");
            let failed = h.ledger.failed_scenarios();
            assert_eq!(failed.len(), 1, "{effort:?}: {failed:?}");
            for (i, f) in failures.iter().enumerate() {
                let seed = simcore::derive_seed(sc.fingerprint(), 7, i as u64);
                assert_eq!(f.seed, seed, "{effort:?}");
                assert_eq!(f.class, ErrorClass::WatchdogBudget, "{effort:?}");
                assert!(f.error.contains("stalled"), "{}", f.error);
                assert!(
                    failed[0].contains(&format!("watchdog-budget on seed {seed:#018x}")),
                    "{effort:?}: {failed:?}"
                );
            }
            assert_eq!(h.ledger.exit_code(), 1, "{effort:?}");
        }
    }

    #[test]
    fn invalid_scenario_is_recorded_per_repetition() {
        // A deterministic config rejection is recorded once per
        // repetition, classed, in the harness's run ledger.
        let mut sc = scenario();
        sc.opts.parallel = 0;
        let harness = TestHarness::new(2);
        let err = harness.run(&sc).unwrap_err();
        assert!(matches!(err, ScenarioError::Invalid { .. }), "{err}");
        let records = harness.ledger.snapshot();
        assert_eq!(records.len(), 1, "{records:?}");
        let rec = &records[0];
        assert_eq!((rec.expected, rec.completed), (2, 0));
        assert_eq!(rec.failed.len(), 2);
        assert!(rec.failed.iter().all(|f| f.class == ErrorClass::InvalidConfig));
    }

    #[test]
    fn hub_writes_every_artefact_per_repetition() {
        let dir = std::env::temp_dir().join(format!("repro_trace_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let hub = crate::MetricsHub::new(&dir).expect("hub dir");
        let s = TestHarness::new(2)
            .with_supervisor(Supervisor::default().with_metrics(Arc::new(hub)))
            .run(&scenario())
            .expect("run");
        assert_eq!(s.reports.len(), 2);
        // A hub forces telemetry sampling and attribution on.
        assert!(s.reports.iter().all(|r| r.telemetry.is_some()));
        assert!(s.reports.iter().all(|r| r.attribution.is_some()));
        let mut files: Vec<String> = std::fs::read_dir(&dir)
            .expect("hub dir created")
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        files.sort();
        let mut expected = Vec::new();
        for rep in 0..2 {
            for ext in ["folded", "intervals.jsonl", "jsonl", "perf.txt"] {
                expected.push(format!("default_rep{rep}.{ext}"));
            }
        }
        assert_eq!(files, expected);
        let read = |name: &str| std::fs::read_to_string(dir.join(name)).expect("artefact");
        assert!(read("default_rep1.jsonl").starts_with("{\"type\":\"meta\""));
        assert!(read("default_rep1.jsonl").contains("\"seed\":"));
        assert!(read("default_rep1.perf.txt").contains("# Overhead"));
        let folded = read("default_rep1.folded");
        assert!(!folded.trim().is_empty());
        assert!(folded.lines().all(|l| l.split(';').count() == 3 && l.contains(' ')));
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
