//! Run supervision: crash isolation, deadlines, classed retries, and
//! the degraded-run ledger.
//!
//! Real campaigns on R&E testbeds lose repetitions — a host reboots, a
//! watchdog fires, a disk fills — and the methodology answer is never
//! "rerun everything", it is "retry what is retryable, account for what
//! is lost, and say so". This module is that answer for the simulated
//! campaign:
//!
//! * every repetition executes under [`Supervisor::drive`], inside
//!   `catch_unwind`, stepped in bounded event chunks with a wall-clock
//!   deadline and periodic [checkpoints](iperf3sim::SessionCheckpoint)
//!   — a crashed worker resumes from its last snapshot instead of
//!   taking the whole harness down;
//! * failures carry an [`ErrorClass`], and the retry policy consults
//!   it: a deterministic config rejection is never retried (the rerun
//!   would fail identically), a watchdog trip or state corruption gets
//!   exponential backoff up to the effort's attempt cap;
//! * retries draw from a per-experiment [`ErrorBudget`] so one
//!   pathological scenario cannot starve the rest of the run;
//! * every scenario reports into the global [`RunLedger`], from which
//!   `repro` builds the degraded-run manifest (exit code 3) when
//!   repetitions went missing.

use crate::chaos::ChaosPlan;
use crate::effort::Effort;
use crate::runner::FailedRep;
use iperf3sim::{Iperf3Report, RunError, SessionCheckpoint, SimSession};
use netsim::SimError;
use simcore::{CheckpointPolicy, Checkpointer, WatchdogTrip};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Events dispatched per supervised step — small enough that deadlines,
/// checkpoints and chaos kills land promptly, large enough that the
/// step loop is invisible in the profile.
const STEP_CHUNK: u64 = 65_536;

/// A worker that keeps dying is eventually declared dead for real:
/// after this many unwinds the repetition fails as [`ErrorClass::WorkerDeath`].
const MAX_RESUMES: u32 = 8;

/// Checkpoint cadence used when chaos is on but no explicit
/// `REPRO_CHECKPOINT_EVERY` was given.
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 50_000;

/// The failure taxonomy the retry policy keys on.
///
/// Everything a repetition can die of maps onto exactly one class; the
/// class (not the message text) decides whether a retry can help.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorClass {
    /// Deterministic flag/config rejection — identical on every seed,
    /// so retrying burns budget for nothing.
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
    /// The worker panicked and exhausted its resume allowance.
    WorkerDeath,
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
        ErrorClass::WorkerDeath,
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
            ErrorClass::WorkerDeath => "worker-death",
            ErrorClass::DeadlineExceeded => "deadline-exceeded",
        }
    }

    /// Inverse of [`ErrorClass::name`].
    pub fn parse(name: &str) -> Option<ErrorClass> {
        ErrorClass::ALL.into_iter().find(|c| c.name() == name)
    }

    /// Classify a run error. Total: every [`RunError`] lands in exactly
    /// one class.
    pub fn classify(e: &RunError) -> ErrorClass {
        match e {
            RunError::Invalid(_) | RunError::Sim(SimError::InvalidConfig(_)) => {
                ErrorClass::InvalidConfig
            }
            RunError::Sim(SimError::Stalled { trip, .. }) => match trip {
                WatchdogTrip::BudgetExhausted { .. } => ErrorClass::WatchdogBudget,
                WatchdogTrip::Livelock { .. } => ErrorClass::WatchdogLivelock,
            },
            RunError::Sim(SimError::StateCorruption { .. }) => ErrorClass::StateCorruption,
            RunError::Sim(SimError::ConservationViolation { .. }) => {
                ErrorClass::ConservationViolation
            }
        }
    }

    /// Can a rerun on a perturbed seed plausibly succeed? Config
    /// rejections are deterministic in the scenario, not the seed —
    /// everything else is state- or timing-dependent and worth a retry.
    pub fn retryable(self) -> bool {
        !matches!(self, ErrorClass::InvalidConfig)
    }
}

/// A classed repetition failure, before it is recorded as a
/// [`FailedRep`].
#[derive(Debug, Clone)]
pub struct RepError {
    /// Which failure class this is (drives the retry decision).
    pub class: ErrorClass,
    /// Human-readable rendering of the underlying error.
    pub error: String,
}

impl RepError {
    /// Classify and render a run error.
    pub fn from_run(e: &RunError) -> Self {
        RepError { class: ErrorClass::classify(e), error: e.to_string() }
    }
}

/// How often to retry, how long to back off, how long one repetition
/// may run on the wall clock.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts per repetition (first run included).
    pub max_attempts: u32,
    /// First backoff; doubles per further attempt, capped at ~1 s.
    pub base_backoff: Duration,
    /// Wall-clock deadline for a single attempt.
    pub deadline: Duration,
}

impl Default for RetryPolicy {
    /// The historical harness behaviour: one retry, 10 ms backoff, and
    /// a wall-clock leash generous enough for any single repetition.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::from_millis(10),
            deadline: Duration::from_secs(600),
        }
    }
}

impl RetryPolicy {
    /// Policy matched to the effort ladder (more attempts and a longer
    /// leash at Full, where runs are 60 s of simulated time).
    pub fn for_effort(effort: Effort) -> Self {
        RetryPolicy {
            max_attempts: effort.retry_attempts(),
            base_backoff: Duration::from_millis(10),
            deadline: effort.rep_deadline(),
        }
    }

    /// Backoff before attempt number `next_attempt` (2-based: the pause
    /// before the first retry is the base). Exponential, capped at 1 s
    /// so a broken scenario cannot stall the harness meaningfully.
    pub fn backoff(&self, next_attempt: u32) -> Duration {
        let doublings = next_attempt.saturating_sub(2).min(7);
        (self.base_backoff * 2u32.pow(doublings)).min(Duration::from_secs(1))
    }
}

/// A shared pool of retries for one experiment: every retry spends one
/// token, and when the pool is dry further failures are recorded
/// without another attempt. Keeps `repro all` moving when one scenario
/// family turns pathological.
#[derive(Debug)]
pub struct ErrorBudget {
    tokens: AtomicI64,
    initial: u64,
}

impl ErrorBudget {
    /// A budget of `n` retries.
    pub fn new(n: u64) -> Self {
        ErrorBudget { tokens: AtomicI64::new(n as i64), initial: n }
    }

    /// Take one retry token; `false` means the budget is exhausted and
    /// the caller must record the failure as-is.
    pub fn try_spend(&self) -> bool {
        self.tokens.fetch_sub(1, Ordering::Relaxed) > 0
    }

    /// Tokens left (0 when exhausted).
    pub fn remaining(&self) -> u64 {
        self.tokens.load(Ordering::Relaxed).max(0) as u64
    }

    /// Retries spent so far.
    pub fn spent(&self) -> u64 {
        self.initial - self.remaining()
    }

    /// The budget this pool started with.
    pub fn initial(&self) -> u64 {
        self.initial
    }
}

/// Supervises one repetition at a time: crash isolation, deadline,
/// checkpoint cadence, chaos schedule.
#[derive(Debug, Clone)]
pub struct Supervisor {
    policy: RetryPolicy,
    budget: Option<Arc<ErrorBudget>>,
    chaos: Option<Arc<ChaosPlan>>,
    /// Checkpoint cadence in events (0 = checkpointing off).
    pub(crate) checkpoint_every: u64,
    metrics: Option<Arc<crate::metrics::MetricsHub>>,
}

impl Default for Supervisor {
    fn default() -> Self {
        Supervisor::new(RetryPolicy::default())
    }
}

impl Supervisor {
    /// A supervisor with the given retry policy, no budget, no chaos,
    /// and checkpointing off.
    pub fn new(policy: RetryPolicy) -> Self {
        Supervisor { policy, budget: None, chaos: None, checkpoint_every: 0, metrics: None }
    }

    /// Supervisor matched to the effort ladder.
    pub fn for_effort(effort: Effort) -> Self {
        Supervisor::new(RetryPolicy::for_effort(effort))
    }

    /// Builder: attach a shared retry budget.
    pub fn with_budget(mut self, budget: Arc<ErrorBudget>) -> Self {
        self.budget = Some(budget);
        self
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

    /// Builder: report event throughput, engine queue health and
    /// checkpoint spans to a metrics hub. Purely observational — the
    /// hub is consulted only between stepping slices and at checkpoint
    /// barriers, never inside the event loop, so supervised runs stay
    /// bit-identical with or without it.
    pub fn with_metrics(mut self, hub: Arc<crate::metrics::MetricsHub>) -> Self {
        self.metrics = Some(hub);
        self
    }

    /// The metrics hub, if one is attached.
    pub fn metrics(&self) -> Option<&Arc<crate::metrics::MetricsHub>> {
        self.metrics.as_ref()
    }

    /// The retry policy in force.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// The shared retry budget, if any.
    pub fn budget(&self) -> Option<&Arc<ErrorBudget>> {
        self.budget.as_ref()
    }

    /// The chaos schedule, if any.
    pub fn chaos(&self) -> Option<&Arc<ChaosPlan>> {
        self.chaos.as_ref()
    }

    /// May a retry run, given `class` and the attempts made so far?
    /// Consults the class first (deterministic failures never retry),
    /// then the attempt cap, then — only if both pass — spends a budget
    /// token.
    pub fn may_retry(&self, class: ErrorClass, attempts_so_far: u32) -> bool {
        class.retryable()
            && attempts_so_far < self.policy.max_attempts
            && self.budget.as_ref().is_none_or(|b| b.try_spend())
    }

    /// Execute one repetition attempt under full supervision.
    ///
    /// `start` builds the session (it runs *inside* the crash-isolation
    /// boundary, so a panicking config path is survivable too);
    /// `run_seed` keys the chaos schedule. The session is stepped in
    /// [`STEP_CHUNK`]-event slices; between slices the supervisor
    /// enforces the wall-clock deadline, takes checkpoints on the
    /// configured cadence, and — under chaos — kills the worker at the
    /// scheduled event count. A killed (or genuinely panicked) worker
    /// is restarted from the latest checkpoint, or from scratch if none
    /// was taken yet; because checkpoints snapshot the full engine
    /// state between events, the resumed run replays the exact event
    /// sequence and the report is bit-identical to an undisturbed run.
    pub fn drive<F>(&self, run_seed: u64, start: F) -> Result<Iperf3Report, RepError>
    where
        F: Fn() -> Result<SimSession, RunError>,
    {
        let deadline = Instant::now() + self.policy.deadline;
        // The resume slot lives *outside* the unwind boundary: whatever
        // the worker had checkpointed before dying survives the panic.
        let slot: Mutex<Option<SessionCheckpoint>> = Mutex::new(None);
        let mut round: u32 = 0;
        loop {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                self.run_round(&slot, &start, run_seed, round, deadline)
            }));
            match outcome {
                Ok(result) => return result,
                Err(_payload) => {
                    round += 1;
                    if round > MAX_RESUMES {
                        return Err(RepError {
                            class: ErrorClass::WorkerDeath,
                            error: format!(
                                "worker died {round} times (resume allowance exhausted)"
                            ),
                        });
                    }
                    if slot.lock().is_ok_and(|s| s.is_some()) {
                        if let Some(chaos) = &self.chaos {
                            chaos.stats.count_resume();
                        }
                    }
                    // Loop: resume from the checkpoint (or restart).
                }
            }
        }
    }

    /// One unwind-isolated round of [`Supervisor::drive`].
    fn run_round<F>(
        &self,
        slot: &Mutex<Option<SessionCheckpoint>>,
        start: &F,
        run_seed: u64,
        round: u32,
        deadline: Instant,
    ) -> Result<Iperf3Report, RepError>
    where
        F: Fn() -> Result<SimSession, RunError>,
    {
        // Resume from the latest snapshot if one exists (clone, don't
        // take: if this round dies before its first checkpoint, the
        // next one must still have something to resume from).
        let resumed = slot.lock().expect("checkpoint slot").clone();
        let mut session = match resumed {
            Some(ck) => SimSession::resume(ck),
            None => start().map_err(|e| RepError::from_run(&e))?,
        };
        let entry = session.events_done();
        let kill_at = self
            .chaos
            .as_ref()
            .and_then(|c| c.kill_after(run_seed, round))
            .map(|offset| entry + offset);
        let policy = if self.checkpoint_every > 0 {
            CheckpointPolicy::every(self.checkpoint_every)
        } else {
            CheckpointPolicy::DISABLED
        };
        let mut ckpt = Checkpointer::new(policy);
        // Skip cadence boundaries already behind a resumed session.
        ckpt.due(entry);
        loop {
            let done = session.step_events(STEP_CHUNK).map_err(|e| RepError::from_run(&e))?;
            if done {
                break;
            }
            if Instant::now() >= deadline {
                return Err(RepError {
                    class: ErrorClass::DeadlineExceeded,
                    error: format!(
                        "repetition exceeded its {}s wall-clock deadline after {} events",
                        self.policy.deadline.as_secs(),
                        session.events_done()
                    ),
                });
            }
            if ckpt.due(session.events_done()) {
                if let Some(hub) = &self.metrics {
                    // Checkpoint barriers are the engine-health sample
                    // points: the queue is between events, so the
                    // snapshot is consistent and free of races.
                    hub.sample_queue_health(session.queue_health());
                    hub.recorder().describe(
                        "supervisor_checkpoints",
                        "Session snapshots taken at cadence barriers",
                    );
                    hub.recorder().counter_add("supervisor_checkpoints", 1);
                    let start = hub.wall_now();
                    *slot.lock().expect("checkpoint slot") = Some(session.checkpoint());
                    hub.span(
                        format!("seed_{run_seed:016x}"),
                        "checkpoint",
                        "wall_s",
                        start,
                        hub.wall_now() - start,
                    );
                } else {
                    *slot.lock().expect("checkpoint slot") = Some(session.checkpoint());
                }
            }
            if let Some(kill_at) = kill_at {
                if session.events_done() >= kill_at {
                    if let Some(chaos) = &self.chaos {
                        chaos.stats.count_kill();
                    }
                    // resume_unwind skips the panic hook: a scheduled
                    // kill is part of the test, not console noise.
                    std::panic::resume_unwind(Box::new("chaos: worker killed"));
                }
            }
        }
        if let Some(hub) = &self.metrics {
            // Credit this round's dispatched events (resumed rounds
            // re-dispatch from their checkpoint; counting from `entry`
            // keeps replayed events out of the throughput number) and
            // take a final health sample so the gauges exist even when
            // checkpointing is off.
            hub.add_events(session.events_done().saturating_sub(entry));
            hub.sample_queue_health(session.queue_health());
            let mut shard = obs::HdrHistogram::new();
            shard.record(session.events_done());
            crate::metrics::fold_events_hist(hub.recorder(), &shard);
        }
        session.finish().map_err(|e| RepError::from_run(&e))
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
    /// The repetitions that did not, with class and attempt count.
    pub failed: Vec<FailedRep>,
}

impl ScenarioRecord {
    /// Did every expected repetition produce a report?
    pub fn complete(&self) -> bool {
        self.failed.is_empty() && self.completed == self.expected
    }
}

/// Process-global accounting of every scenario the harness ran:
/// expected vs completed repetitions, and the classed failures. `repro`
/// snapshots it at the end of a run to decide between a clean exit and
/// the degraded manifest (exit code 3).
#[derive(Debug, Default)]
pub struct RunLedger {
    records: Mutex<Vec<ScenarioRecord>>,
}

static LEDGER: RunLedger = RunLedger { records: Mutex::new(Vec::new()) };

impl RunLedger {
    /// The process-wide ledger.
    pub fn global() -> &'static RunLedger {
        &LEDGER
    }

    /// Record one finished scenario.
    pub fn record(&self, record: ScenarioRecord) {
        self.records.lock().expect("run ledger").push(record);
    }

    /// Copy of everything recorded so far.
    pub fn snapshot(&self) -> Vec<ScenarioRecord> {
        self.records.lock().expect("run ledger").clone()
    }

    /// Clear the ledger (start of a `repro` invocation, tests).
    pub fn reset(&self) {
        self.records.lock().expect("run ledger").clear();
    }

    /// Any repetitions missing?
    pub fn degraded(&self) -> bool {
        self.records.lock().expect("run ledger").iter().any(|r| !r.complete())
    }

    /// The missing-repetition manifest: totals plus one entry per
    /// scenario that lost repetitions, each failed seed with its error
    /// class and attempt count. Valid JSON, hand-rolled like the rest
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
                    json_escape(&r.label),
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

/// Escape a string for embedding in the hand-rolled JSON (mirror of
/// [`json_unescape`]).
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Reverse [`json_escape`]; `None` on a malformed escape.
pub(crate) fn json_unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(ch) = chars.next() {
        if ch != '\\' {
            out.push(ch);
            continue;
        }
        match chars.next()? {
            '\\' => out.push('\\'),
            '"' => out.push('"'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            't' => out.push('\t'),
            'u' => {
                let hex: String = chars.by_ref().take(4).collect();
                if hex.len() != 4 {
                    return None;
                }
                let code = u32::from_str_radix(&hex, 16).ok()?;
                out.push(char::from_u32(code)?);
            }
            _ => return None,
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimTime;

    #[test]
    fn classification_is_total_and_stable() {
        let cases: Vec<(RunError, ErrorClass)> = vec![
            (RunError::Invalid(vec!["bad flag".into()]), ErrorClass::InvalidConfig),
            (
                RunError::Sim(SimError::InvalidConfig(vec!["zero".into()])),
                ErrorClass::InvalidConfig,
            ),
            (
                RunError::Sim(SimError::Stalled {
                    at: SimTime::from_nanos(1),
                    trip: WatchdogTrip::BudgetExhausted { events: 10, budget: 9 },
                }),
                ErrorClass::WatchdogBudget,
            ),
            (
                RunError::Sim(SimError::Stalled {
                    at: SimTime::from_nanos(1),
                    trip: WatchdogTrip::Livelock { at: SimTime::from_nanos(1), events: 5 },
                }),
                ErrorClass::WatchdogLivelock,
            ),
            (
                RunError::Sim(SimError::StateCorruption {
                    at: SimTime::from_nanos(2),
                    what: "ledger vanished".into(),
                }),
                ErrorClass::StateCorruption,
            ),
            (
                RunError::Sim(SimError::ConservationViolation {
                    wire_sent: 4,
                    delivered: 1,
                    dropped: 1,
                    in_flight: 1,
                }),
                ErrorClass::ConservationViolation,
            ),
        ];
        for (err, want) in cases {
            assert_eq!(ErrorClass::classify(&err), want, "{err}");
        }
    }

    #[test]
    fn names_round_trip_for_every_class() {
        for class in ErrorClass::ALL {
            assert_eq!(ErrorClass::parse(class.name()), Some(class));
        }
        assert_eq!(ErrorClass::parse("no-such-class"), None);
    }

    #[test]
    fn only_invalid_config_is_unretryable() {
        for class in ErrorClass::ALL {
            assert_eq!(class.retryable(), class != ErrorClass::InvalidConfig, "{class:?}");
        }
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_backoff: Duration::from_millis(10),
            deadline: Duration::from_secs(60),
        };
        assert_eq!(p.backoff(2), Duration::from_millis(10));
        assert_eq!(p.backoff(3), Duration::from_millis(20));
        assert_eq!(p.backoff(4), Duration::from_millis(40));
        assert_eq!(p.backoff(20), Duration::from_secs(1));
    }

    #[test]
    fn budget_spends_down_and_stops() {
        let b = ErrorBudget::new(2);
        assert_eq!(b.remaining(), 2);
        assert!(b.try_spend());
        assert!(b.try_spend());
        assert!(!b.try_spend());
        assert!(!b.try_spend());
        assert_eq!(b.remaining(), 0);
        assert_eq!(b.spent(), 2);
        assert_eq!(b.initial(), 2);
    }

    #[test]
    fn may_retry_consults_class_then_cap_then_budget() {
        let policy = RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            deadline: Duration::from_secs(60),
        };
        let budget = Arc::new(ErrorBudget::new(1));
        let sup = Supervisor::new(policy).with_budget(budget.clone());
        // Deterministic config errors never retry — and never spend.
        assert!(!sup.may_retry(ErrorClass::InvalidConfig, 1));
        assert_eq!(budget.remaining(), 1);
        // At the attempt cap the budget is also untouched.
        assert!(!sup.may_retry(ErrorClass::WatchdogBudget, 3));
        assert_eq!(budget.remaining(), 1);
        // A retryable class under the cap spends the last token...
        assert!(sup.may_retry(ErrorClass::WatchdogBudget, 1));
        // ...and a dry budget blocks the next one.
        assert!(!sup.may_retry(ErrorClass::WatchdogBudget, 1));
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
                attempts: 2,
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

    #[test]
    fn json_escape_round_trips() {
        let tricky = "plain \"quoted\" back\\slash\nnewline\ttab\rreturn \u{1} low";
        assert_eq!(json_unescape(&json_escape(tricky)).as_deref(), Some(tricky));
        assert_eq!(json_unescape("trailing \\"), None);
        assert_eq!(json_unescape("bad \\q escape"), None);
        assert_eq!(json_unescape("short \\u00"), None);
    }
}
