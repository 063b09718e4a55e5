//! Run supervision: crash isolation, deadlines, and the degraded-run
//! ledger.
//!
//! Real campaigns on R&E testbeds lose repetitions — a host reboots, a
//! watchdog fires, a disk fills — and the methodology answer is never
//! "rerun everything", it is "account for what is lost, and say so".
//! This module is that answer for the simulated campaign:
//!
//! * every repetition — an iperf3-style session or a fleet run —
//!   executes under [`Supervisor::drive`], inside one `catch_unwind`,
//!   stepped in bounded event chunks with a wall-clock deadline and,
//!   when a cadence is set, periodic [checkpoints](netsim::Checkpoint).
//!   A worker killed by chaos mode is dropped and resumes from its
//!   last snapshot; a panic fails its repetition instead of taking the
//!   whole harness down;
//! * every repetition gets exactly one attempt, on its derived seed.
//!   A failure carries an [`ErrorClass`] that says whose fault it was:
//!   a simulator defect (a watchdog trip, state corruption, a
//!   conservation violation, a panic) is deterministic in its seed and
//!   fails its scenario naming that seed, while a host failure (an
//!   overrun deadline) only degrades the run — a same-seed rerun would
//!   replay the same events;
//! * every scenario reports into its experiment's [`RunLedger`], from
//!   which `repro` derives its exit code and builds the degraded-run
//!   manifest (exit code 3) when repetitions went missing.

use crate::chaos::ChaosPlan;
use crate::effort::Effort;
use crate::runner::FailedRep;
use netsim::{Checkpoint, Engine, Running, SimError};
use simcore::{CheckpointPolicy, Checkpointer, WatchdogTrip};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Events dispatched per supervised step — small enough that deadlines,
/// checkpoints, queue-health samples and chaos kills land promptly,
/// large enough that the step loop is invisible in the profile.
const STEP_CHUNK: u64 = 65_536;

/// Checkpoint cadence, in events, that [`Supervisor::with_chaos`] turns
/// on when none was set: the snapshots a killed worker resumes from.
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 50_000;

/// The failure taxonomy.
///
/// Everything a repetition can die of maps onto exactly one class; the
/// class (not the message text) decides whether the failure is a
/// simulator defect or a host failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorClass {
    /// Deterministic flag/config rejection — identical on every seed.
    InvalidConfig,
    /// Watchdog tripped on total event-budget exhaustion.
    WatchdogBudget,
    /// Watchdog tripped on a livelocked instant (events without time
    /// advancing).
    WatchdogLivelock,
    /// An internal simulator invariant broke mid-run.
    StateCorruption,
    /// End-of-run burst accounting did not balance.
    ConservationViolation,
    /// The simulation panicked (a bug; a chaos kill does not unwind).
    Panic,
    /// The repetition overran its wall-clock deadline.
    DeadlineExceeded,
}

impl ErrorClass {
    /// All classes, for exhaustive tests.
    pub const ALL: [ErrorClass; 7] = [
        ErrorClass::InvalidConfig,
        ErrorClass::WatchdogBudget,
        ErrorClass::WatchdogLivelock,
        ErrorClass::StateCorruption,
        ErrorClass::ConservationViolation,
        ErrorClass::Panic,
        ErrorClass::DeadlineExceeded,
    ];

    /// Stable wire name (used in FailedRep JSON and the manifest).
    pub fn name(self) -> &'static str {
        match self {
            ErrorClass::InvalidConfig => "invalid-config",
            ErrorClass::WatchdogBudget => "watchdog-budget",
            ErrorClass::WatchdogLivelock => "watchdog-livelock",
            ErrorClass::StateCorruption => "state-corruption",
            ErrorClass::ConservationViolation => "conservation-violation",
            ErrorClass::Panic => "panic",
            ErrorClass::DeadlineExceeded => "deadline-exceeded",
        }
    }

    /// Classify a run error. Total: every [`SimError`] lands in exactly
    /// one class.
    pub fn classify(e: &SimError) -> ErrorClass {
        match e {
            SimError::InvalidConfig(_) => ErrorClass::InvalidConfig,
            SimError::Stalled { trip: WatchdogTrip::BudgetExhausted { .. }, .. } => {
                ErrorClass::WatchdogBudget
            }
            SimError::Stalled { trip: WatchdogTrip::Livelock { .. }, .. } => {
                ErrorClass::WatchdogLivelock
            }
            SimError::StateCorruption { .. } => ErrorClass::StateCorruption,
            SimError::ConservationViolation { .. } => ErrorClass::ConservationViolation,
        }
    }

    /// Is this a simulator defect? A watchdog trip, state corruption,
    /// a conservation violation or a panic is a deterministic function
    /// of the scenario and its seed: it fails the scenario, naming the
    /// seed, so the defect can be replayed. Config rejections and
    /// overrun deadlines are not defects of the simulation.
    pub fn is_defect(self) -> bool {
        matches!(
            self,
            ErrorClass::WatchdogBudget
                | ErrorClass::WatchdogLivelock
                | ErrorClass::StateCorruption
                | ErrorClass::ConservationViolation
                | ErrorClass::Panic
        )
    }
}

/// Supervises one repetition at a time: crash isolation, deadline,
/// checkpoint cadence, chaos schedule.
#[derive(Debug, Clone)]
pub struct Supervisor {
    /// Wall-clock deadline for one repetition.
    pub(crate) deadline: Duration,
    chaos: Option<Arc<ChaosPlan>>,
    /// Checkpoint cadence in events (0 = checkpointing off).
    pub(crate) checkpoint_every: u64,
    metrics: Option<Arc<crate::metrics::MetricsHub>>,
}

impl Default for Supervisor {
    /// A wall-clock leash generous enough for any single repetition, no
    /// chaos, and checkpointing off.
    fn default() -> Self {
        Supervisor {
            deadline: Duration::from_secs(600),
            chaos: None,
            checkpoint_every: 0,
            metrics: None,
        }
    }
}

impl Supervisor {
    /// Supervisor with the effort ladder's repetition deadline.
    pub fn for_effort(effort: Effort) -> Self {
        Supervisor { deadline: effort.rep_deadline(), ..Supervisor::default() }
    }

    /// Builder: attach a chaos schedule. Chaos needs somewhere to
    /// resume from, so this also turns on checkpointing (at the default
    /// cadence) unless a cadence was already set.
    pub fn with_chaos(mut self, chaos: Arc<ChaosPlan>) -> Self {
        self.chaos = Some(chaos);
        if self.checkpoint_every == 0 {
            self.checkpoint_every = DEFAULT_CHECKPOINT_EVERY;
        }
        self
    }

    /// Builder: snapshot the session every `n` dispatched events
    /// (0 disables).
    pub fn with_checkpoint_every(mut self, n: u64) -> Self {
        self.checkpoint_every = n;
        self
    }

    /// Builder: report event throughput, engine queue health (sampled
    /// once per step slice) and checkpoint spans to a metrics hub.
    /// Purely observational — the hub is consulted only between
    /// stepping slices, never inside the event loop, so supervised runs stay
    /// bit-identical with or without it. The checkpoint counter is
    /// registered here, so the exposition reports it (0 with
    /// checkpointing off) for every supervised run.
    pub fn with_metrics(mut self, hub: Arc<crate::metrics::MetricsHub>) -> Self {
        hub.recorder()
            .describe("supervisor_checkpoints", "Session snapshots taken at cadence barriers");
        hub.recorder().counter_add("supervisor_checkpoints", 0);
        self.metrics = Some(hub);
        self
    }

    /// The metrics hub, if one is attached.
    pub fn metrics(&self) -> Option<&Arc<crate::metrics::MetricsHub>> {
        self.metrics.as_ref()
    }

    /// The chaos schedule, if any.
    pub fn chaos(&self) -> Option<&Arc<ChaosPlan>> {
        self.chaos.as_ref()
    }

    /// Execute one repetition of either engine under full supervision
    /// and return its report.
    ///
    /// `start` builds the run (it runs *inside* the crash-isolation
    /// boundary, so a panicking config path is survivable too);
    /// `run_seed` keys the chaos schedule. The session is stepped in
    /// fixed-size event slices; between slices the supervisor enforces
    /// the wall-clock deadline, samples queue health into the metrics
    /// hub, takes checkpoints on the configured cadence, and — under
    /// chaos — kills the worker at the scheduled event count. A kill
    /// drops the live session and resumes from the latest checkpoint,
    /// or restarts from scratch if none was taken yet; because
    /// checkpoints snapshot the full engine state between events, the
    /// resumed run replays the exact event sequence and the result is
    /// bit-identical to an undisturbed run. Kills do not unwind, so
    /// every unwind is a panic, deterministic in the seed: the
    /// repetition fails at once as [`ErrorClass::Panic`], carrying the
    /// panic message.
    pub fn drive<E, F>(&self, run_seed: u64, start: F) -> Result<E::Output, FailedRep>
    where
        E: Engine,
        F: Fn() -> Result<Running<E>, SimError>,
    {
        catch_unwind(AssertUnwindSafe(|| self.run_rounds(run_seed, &start))).unwrap_or_else(
            |payload| {
                let msg = payload
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or("non-text panic payload");
                Err(FailedRep {
                    seed: run_seed,
                    class: ErrorClass::Panic,
                    error: format!("worker panicked: {msg}"),
                    problems: Vec::new(),
                })
            },
        )
    }

    /// The round loop of [`Supervisor::drive`]: round 0 is the first
    /// execution, and each chaos kill starts the next round.
    fn run_rounds<E, F>(&self, run_seed: u64, start: &F) -> Result<E::Output, FailedRep>
    where
        E: Engine,
        F: Fn() -> Result<Running<E>, SimError>,
    {
        let deadline = Instant::now() + self.deadline;
        let fail = |e: SimError| FailedRep::from_run(run_seed, &e);
        let policy = if self.checkpoint_every > 0 {
            CheckpointPolicy::every(self.checkpoint_every)
        } else {
            CheckpointPolicy::DISABLED
        };
        let mut latest: Option<Checkpoint<E>> = None;
        let mut round: u32 = 0;
        'rounds: loop {
            // Clone, don't take: if this round is killed before its
            // first checkpoint, the next one resumes from the same one.
            let mut session = match &latest {
                Some(ck) => Running::resume(ck.clone()),
                None => start().map_err(fail)?,
            };
            let entry = session.events_done();
            let kill_at = self
                .chaos
                .as_ref()
                .and_then(|c| c.kill_after(run_seed, round))
                .map(|offset| entry + offset);
            let mut ckpt = Checkpointer::new(policy);
            // Skip cadence boundaries already behind a resumed session.
            ckpt.due(entry);
            loop {
                if session.step_events(STEP_CHUNK).map_err(fail)? {
                    break;
                }
                if Instant::now() >= deadline {
                    return Err(FailedRep {
                        seed: run_seed,
                        class: ErrorClass::DeadlineExceeded,
                        error: format!(
                            "repetition exceeded its {}s wall-clock deadline after {} events",
                            self.deadline.as_secs(),
                            session.events_done()
                        ),
                        problems: Vec::new(),
                    });
                }
                // Slice boundaries are the engine-health sample points:
                // the queue is between events, so the sample is
                // consistent and free of races.
                if let Some(hub) = &self.metrics {
                    hub.sample_queue_health(session.queue_health());
                }
                if ckpt.due(session.events_done()) {
                    let wall_start = self.metrics.as_ref().map(|hub| {
                        hub.recorder().counter_add("supervisor_checkpoints", 1);
                        hub.wall_now()
                    });
                    latest = Some(session.checkpoint());
                    if let (Some(hub), Some(wall_start)) = (&self.metrics, wall_start) {
                        let span = hub.wall_now() - wall_start;
                        let scope = format!("seed_{run_seed:016x}");
                        hub.span(scope, "checkpoint", "wall_s", wall_start, span);
                    }
                }
                if kill_at.is_some_and(|at| session.events_done() >= at) {
                    // A chaos kill: drop the live session and go round
                    // again from the latest checkpoint (or from scratch).
                    if let Some(chaos) = &self.chaos {
                        chaos.stats.count_kill();
                        if latest.is_some() {
                            chaos.stats.count_resume();
                        }
                    }
                    round += 1;
                    continue 'rounds;
                }
            }
            if let Some(hub) = &self.metrics {
                // Credit the run's events, each once (a resumed session
                // counts those before its checkpoint too; replays after
                // a kill are not counted), and take a final health
                // sample so the gauges exist even for a run shorter than
                // one slice.
                hub.add_events(session.events_done());
                hub.sample_queue_health(session.queue_health());
                let r = hub.recorder();
                r.describe("rep_sim_events", "Simulation events dispatched per repetition");
                r.hist_record("rep_sim_events", session.events_done());
            }
            return session.finish().map_err(fail);
        }
    }
}

/// One scenario's repetition accounting, as recorded in the
/// [`RunLedger`].
#[derive(Debug, Clone)]
pub struct ScenarioRecord {
    /// Scenario label.
    pub label: String,
    /// Repetitions the harness was asked for.
    pub expected: usize,
    /// Repetitions that produced a report.
    pub completed: usize,
    /// The repetitions that did not, with seed and class.
    pub failed: Vec<FailedRep>,
}

impl ScenarioRecord {
    /// Did every expected repetition produce a report?
    pub fn complete(&self) -> bool {
        self.failed.is_empty() && self.completed == self.expected
    }
}

/// One experiment's run accounting: every scenario its harnesses ran
/// (expected vs completed repetitions, and the classed failures), the
/// scenarios whose *result* was wrong although the run survived, and
/// the interval samples dropped as late. [`RunCtx`](crate::RunCtx)
/// owns one and hands it to every harness it builds; `repro` gives each
/// experiment a fresh one and derives its exit code and the
/// degraded-run manifest from them.
#[derive(Debug, Default)]
pub struct RunLedger {
    entries: Mutex<LedgerEntries>,
}

#[derive(Debug, Default, Clone)]
struct LedgerEntries {
    records: Vec<ScenarioRecord>,
    /// `(label, reason)` per wrong result: a golden-shape `MISMATCH`, a
    /// fleet invariant violation, a narrative mismatch.
    result_failures: Vec<(String, String)>,
    late_dropped: u64,
}

impl RunLedger {
    fn entries(&self) -> std::sync::MutexGuard<'_, LedgerEntries> {
        self.entries.lock().expect("run ledger lock poisoned by a panicking recorder")
    }

    /// Record one finished scenario.
    pub fn record(&self, record: ScenarioRecord) {
        self.entries().records.push(record);
    }

    /// Record a scenario whose *result* was wrong (e.g. a bottleneck
    /// verdict that contradicts the narrative it reproduces) even
    /// though the run itself survived, with a warning on stderr. It
    /// counts as a failed scenario.
    pub fn record_failure(&self, label: &str, why: impl std::fmt::Display) {
        eprintln!("warning: scenario '{label}': {why}");
        self.entries().result_failures.push((label.to_string(), why.to_string()));
    }

    /// Count interval samples dropped for arriving below an aggregator
    /// watermark. Nonzero means an aggregation bug (a watermark
    /// advanced past live samples).
    pub fn add_late_dropped(&self, n: u64) {
        self.entries().late_dropped += n;
    }

    /// Append everything `other` recorded (how `repro` totals its
    /// experiments' ledgers).
    pub fn merge(&self, other: &RunLedger) {
        let theirs = other.entries().clone();
        let mut ours = self.entries();
        ours.records.extend(theirs.records);
        ours.result_failures.extend(theirs.result_failures);
        ours.late_dropped += theirs.late_dropped;
    }

    /// Copy of every scenario recorded so far.
    pub fn snapshot(&self) -> Vec<ScenarioRecord> {
        self.entries().records.clone()
    }

    /// The failed scenarios, one line each: those that hit a simulator
    /// defect (each defect's class and seed, in hex, so the run can be
    /// replayed), those with no completed repetition (reported as
    /// zeros), then those whose result was wrong, with the reason.
    pub fn failed_scenarios(&self) -> Vec<String> {
        let entries = self.entries();
        let lost = entries.records.iter().filter_map(|r| {
            let defects: Vec<String> = r
                .failed
                .iter()
                .filter(|f| f.class.is_defect())
                .map(|f| format!("{} on seed {:#018x}", f.class.name(), f.seed))
                .collect();
            if !defects.is_empty() {
                Some(format!("{}: {}", r.label, defects.join(", ")))
            } else if r.completed == 0 {
                Some(format!("{}: no repetition completed", r.label))
            } else {
                None
            }
        });
        lost.chain(entries.result_failures.iter().map(|(label, why)| format!("{label}: {why}")))
            .collect()
    }

    /// Interval samples dropped as late.
    pub fn late_dropped(&self) -> u64 {
        self.entries().late_dropped
    }

    /// Any repetitions missing?
    pub fn degraded(&self) -> bool {
        self.entries().records.iter().any(|r| !r.complete())
    }

    /// `repro`'s exit code: 1 when a scenario failed (the stronger
    /// signal), else 3 when repetitions were lost to host failures,
    /// else 0.
    pub fn exit_code(&self) -> i32 {
        if !self.failed_scenarios().is_empty() {
            1
        } else if self.degraded() {
            3
        } else {
            0
        }
    }

    /// The missing-repetition manifest: totals plus one entry per
    /// scenario that lost repetitions, each failed seed with its error
    /// class. Valid JSON, hand-rolled like the rest
    /// of the repo's serialization.
    pub fn manifest_json(&self) -> String {
        let records = self.snapshot();
        let expected: usize = records.iter().map(|r| r.expected).sum();
        let completed: usize = records.iter().map(|r| r.completed).sum();
        let degraded: Vec<String> = records
            .iter()
            .filter(|r| !r.complete())
            .map(|r| {
                let missing: Vec<String> =
                    r.failed.iter().map(FailedRep::to_json).collect();
                format!(
                    "{{\"label\":\"{}\",\"expected\":{},\"completed\":{},\"missing\":[{}]}}",
                    obs::json_escape(&r.label),
                    r.expected,
                    r.completed,
                    missing.join(",")
                )
            })
            .collect();
        format!(
            "{{\"degraded\":{},\"scenarios\":{},\"expected_reps\":{},\"completed_reps\":{},\"incomplete\":[{}]}}",
            !degraded.is_empty(),
            records.len(),
            expected,
            completed,
            degraded.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimTime;

    #[test]
    fn classification_is_total_and_stable() {
        let at = SimTime::from_nanos(1);
        let cases = [
            (SimError::InvalidConfig(vec!["zero".into()]), ErrorClass::InvalidConfig),
            (
                SimError::Stalled { at, trip: WatchdogTrip::BudgetExhausted { events: 10, budget: 9 } },
                ErrorClass::WatchdogBudget,
            ),
            (
                SimError::Stalled { at, trip: WatchdogTrip::Livelock { at, events: 5 } },
                ErrorClass::WatchdogLivelock,
            ),
            (
                SimError::StateCorruption { at, what: "ledger vanished".into() },
                ErrorClass::StateCorruption,
            ),
            (
                SimError::ConservationViolation {
                    wire_sent: 4,
                    delivered: 1,
                    dropped: 1,
                    in_flight: 1,
                },
                ErrorClass::ConservationViolation,
            ),
        ];
        // Total over `SimError`: a new variant (or watchdog trip) makes
        // this match non-exhaustive until the table grows a row for it.
        let row = |e: &SimError| match e {
            SimError::InvalidConfig(_) => 0,
            SimError::Stalled { trip: WatchdogTrip::BudgetExhausted { .. }, .. } => 1,
            SimError::Stalled { trip: WatchdogTrip::Livelock { .. }, .. } => 2,
            SimError::StateCorruption { .. } => 3,
            SimError::ConservationViolation { .. } => 4,
        };
        for (i, (err, want)) in cases.iter().enumerate() {
            assert_eq!(row(err), i, "{err}");
            assert_eq!(ErrorClass::classify(err), *want, "{err}");
        }
    }

    #[test]
    fn is_defect_splits_simulator_defects_from_host_failures() {
        let table = [
            (ErrorClass::InvalidConfig, false),
            (ErrorClass::WatchdogBudget, true),
            (ErrorClass::WatchdogLivelock, true),
            (ErrorClass::StateCorruption, true),
            (ErrorClass::ConservationViolation, true),
            (ErrorClass::Panic, true),
            (ErrorClass::DeadlineExceeded, false),
        ];
        assert_eq!(table.map(|(class, _)| class), ErrorClass::ALL);
        for (class, defect) in table {
            assert_eq!(class.is_defect(), defect, "{class:?}");
        }
        // Both watchdog trips classify as defects.
        let stalled = |trip| SimError::Stalled { at: SimTime::from_nanos(1), trip };
        let livelock = stalled(WatchdogTrip::Livelock { at: SimTime::from_nanos(1), events: 99 });
        let budget = stalled(WatchdogTrip::BudgetExhausted { events: 10, budget: 9 });
        assert_eq!(ErrorClass::classify(&livelock), ErrorClass::WatchdogLivelock);
        assert_eq!(ErrorClass::classify(&budget), ErrorClass::WatchdogBudget);
        assert!(ErrorClass::classify(&livelock).is_defect());
        assert!(ErrorClass::classify(&budget).is_defect());
    }

    #[test]
    fn overrunning_repetition_is_classed_deadline_exceeded() {
        use crate::testbeds::{EsnetPath, Testbeds};
        use iperf3sim::Iperf3Opts;
        use linuxhost::KernelVersion;
        use netsim::FaultPlan;
        let host = Testbeds::esnet_host(KernelVersion::L6_8);
        let path = Testbeds::esnet_path(EsnetPath::Lan);
        let opts = Iperf3Opts::new(2).omit(0).seed(31);
        // An already-expired deadline: the first step chunk completes (the
        // run is much longer than one chunk), then the leash snaps.
        let sup = Supervisor { deadline: Duration::ZERO, ..Supervisor::default() };
        let err = sup
            .drive(31, || {
                iperf3sim::start_session(&host, &host, &path, &opts, &FaultPlan::none(), None)
            })
            .unwrap_err();
        assert_eq!(err.class, ErrorClass::DeadlineExceeded);
        assert!(err.error.contains("deadline"), "{}", err.error);
        // A hang can be load-dependent: a host failure, not a defect.
        assert!(!ErrorClass::DeadlineExceeded.is_defect());
    }

    #[test]
    fn a_panic_runs_once_and_fails_its_scenario() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let starts = AtomicU32::new(0);
        let err = Supervisor::default()
            .drive(7, || -> Result<netsim::RunningSim, SimError> {
                starts.fetch_add(1, Ordering::Relaxed);
                panic!("boom")
            })
            .unwrap_err();
        assert_eq!(starts.load(Ordering::Relaxed), 1, "a real panic is not resumed");
        assert_eq!(err.class, ErrorClass::Panic);
        assert!(err.error.contains("boom"), "{}", err.error);
        // A completed repetition beside it does not hide the defect.
        let ledger = RunLedger::default();
        ledger.record(ScenarioRecord {
            label: "panicky".into(),
            expected: 2,
            completed: 1,
            failed: vec![err],
        });
        assert_eq!(ledger.failed_scenarios(), ["panicky: panic on seed 0x0000000000000007"]);
        assert_eq!(ledger.exit_code(), 1);
    }

    #[test]
    fn chaos_enables_default_checkpoint_cadence() {
        let sup = Supervisor::for_effort(Effort::Smoke)
            .with_chaos(Arc::new(ChaosPlan::new(1)));
        assert_eq!(sup.checkpoint_every, DEFAULT_CHECKPOINT_EVERY);
        let sup = Supervisor::for_effort(Effort::Smoke)
            .with_checkpoint_every(7)
            .with_chaos(Arc::new(ChaosPlan::new(1)));
        assert_eq!(sup.checkpoint_every, 7);
    }

    #[test]
    fn exit_code_derives_from_the_ledger() {
        let clean = || ScenarioRecord {
            label: "clean".into(),
            expected: 2,
            completed: 2,
            failed: Vec::new(),
        };
        let lost = FailedRep {
            seed: 7,
            error: "deadline exceeded".into(),
            class: ErrorClass::DeadlineExceeded,
            problems: Vec::new(),
        };
        let ledger = RunLedger::default();
        ledger.record(clean());
        assert_eq!(ledger.exit_code(), 0);
        // Repetitions lost to a host failure, with survivors: degraded.
        let degraded = RunLedger::default();
        degraded.record(clean());
        degraded.record(ScenarioRecord {
            label: "lossy".into(),
            expected: 2,
            completed: 1,
            failed: vec![lost.clone()],
        });
        assert_eq!((degraded.failed_scenarios().len(), degraded.exit_code()), (0, 3));
        // A simulator defect with survivors: a failed scenario naming
        // the seed and class.
        let defect = RunLedger::default();
        defect.record(ScenarioRecord {
            label: "buggy".into(),
            expected: 2,
            completed: 1,
            failed: vec![FailedRep { class: ErrorClass::StateCorruption, ..lost.clone() }],
        });
        assert_eq!(
            defect.failed_scenarios(),
            ["buggy: state-corruption on seed 0x0000000000000007"]
        );
        assert_eq!(defect.exit_code(), 1);
        // No survivor at all: a failed scenario, which wins over 3.
        let total_loss = RunLedger::default();
        total_loss.record(ScenarioRecord {
            label: "dead".into(),
            expected: 2,
            completed: 0,
            failed: vec![lost.clone(), lost],
        });
        assert_eq!(total_loss.failed_scenarios(), ["dead: no repetition completed"]);
        assert_eq!(total_loss.exit_code(), 1);
        // A wrong result fails a run whose repetitions all survived...
        let mismatch = RunLedger::default();
        mismatch.record(clean());
        mismatch.record_failure("ordering", "MISMATCH");
        assert_eq!(mismatch.failed_scenarios(), ["ordering: MISMATCH"]);
        assert_eq!(mismatch.exit_code(), 1);
        // ...and merging keeps every count and the stronger verdict.
        degraded.merge(&mismatch);
        degraded.add_late_dropped(2);
        assert_eq!(degraded.snapshot().len(), 3);
        assert_eq!((degraded.failed_scenarios().len(), degraded.exit_code()), (1, 1));
        assert_eq!(degraded.late_dropped(), 2);
    }

    #[test]
    fn ledger_tracks_degradation_and_renders_manifest() {
        let ledger = RunLedger::default();
        ledger.record(ScenarioRecord {
            label: "clean".into(),
            expected: 2,
            completed: 2,
            failed: Vec::new(),
        });
        assert!(!ledger.degraded());
        ledger.record(ScenarioRecord {
            label: "lossy \"quoted\"".into(),
            expected: 3,
            completed: 2,
            failed: vec![FailedRep {
                seed: 42,
                error: "simulation stalled at t=1ns: livelock".into(),
                class: ErrorClass::WatchdogLivelock,
                problems: Vec::new(),
            }],
        });
        assert!(ledger.degraded());
        let manifest = ledger.manifest_json();
        assert!(manifest.contains("\"degraded\":true"), "{manifest}");
        assert!(manifest.contains("\"expected_reps\":5"), "{manifest}");
        assert!(manifest.contains("\"completed_reps\":4"), "{manifest}");
        assert!(manifest.contains("lossy \\\"quoted\\\""), "{manifest}");
        assert!(manifest.contains("watchdog-livelock"), "{manifest}");
        assert!(!manifest.contains("\"label\":\"clean\""), "{manifest}");
    }
}
