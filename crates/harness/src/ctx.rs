//! The run context: everything the environment used to leak into
//! arbitrary call sites, resolved once at harness entry.
//!
//! `Effort::from_env` and `REPRO_CHAOS` are read exactly once — by
//! [`RunCtx::from_env`] in the `repro` binary — and threaded explicitly
//! from there. `REPRO_JOBS` sizes the process-wide scheduler gate
//! (`sched::global_gate`) on its first use. The metrics hub creates
//! its directory, so `repro` builds it itself, from `--metrics <dir>`,
//! after parsing its arguments. Tests
//! build a [`RunCtx`] directly and never touch process-global
//! environment variables, which would race across test threads under
//! the parallel scheduler. The context also owns the run's outcome
//! account, a [`RunLedger`]: no counter of failed scenarios or dropped
//! samples lives outside it.

use crate::chaos::ChaosPlan;
use crate::effort::Effort;
use crate::metrics::MetricsHub;
use crate::runner::TestHarness;
use crate::supervise::{RunLedger, Supervisor};
use std::sync::Arc;

/// Resolved run-wide configuration.
#[derive(Debug, Clone)]
pub struct RunCtx {
    /// Simulation effort (repetitions and durations).
    pub effort: Effort,
    /// Harness-level fault injection (`REPRO_CHAOS=<seed>`).
    pub chaos: Option<Arc<ChaosPlan>>,
    /// The run-output hub (`--metrics <dir>`): HDR-histogram registry,
    /// OpenMetrics exposition, run files, phase spans, live heartbeat.
    /// It turns telemetry and attribution on for every repetition; both
    /// are observer-neutral, so attaching a hub never changes
    /// simulation results.
    pub metrics: Option<Arc<MetricsHub>>,
    /// The run ledger every harness this context builds records into,
    /// and where experiments record wrong results and late-dropped
    /// samples (`repro` replaces it per experiment).
    pub ledger: Arc<RunLedger>,
}

impl RunCtx {
    /// A context at the given effort, with no metrics hub and no chaos —
    /// what tests and library callers start from.
    pub fn new(effort: Effort) -> Self {
        RunCtx { effort, chaos: None, metrics: None, ledger: Arc::default() }
    }

    /// Resolve the environment once: `REPRO_EFFORT` and `REPRO_CHAOS`.
    /// An unparsable `REPRO_CHAOS` is an error (a usage error in
    /// `repro`). The metrics hub stays unset: building one creates its
    /// directory.
    pub fn from_env() -> Result<Self, String> {
        Ok(RunCtx {
            effort: Effort::from_env(),
            chaos: ChaosPlan::from_env()?.map(Arc::new),
            metrics: None,
            ledger: Arc::default(),
        })
    }

    /// Builder: inject harness faults per `chaos`.
    pub fn with_chaos(mut self, chaos: Arc<ChaosPlan>) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Builder: stream run metrics into `hub`.
    pub fn with_metrics(mut self, hub: Arc<MetricsHub>) -> Self {
        self.metrics = Some(hub);
        self
    }

    /// A harness with the context's effort-default repetition count.
    pub fn harness(&self) -> TestHarness {
        self.harness_with_reps(self.effort.repetitions())
    }

    /// The supervisor every run of this context goes through, assembled
    /// from the context: effort-matched deadline, the chaos schedule
    /// (which turns checkpointing on) and the metrics hub.
    pub fn supervisor(&self) -> Supervisor {
        let mut supervisor = Supervisor::for_effort(self.effort);
        if let Some(chaos) = &self.chaos {
            supervisor = supervisor.with_chaos(chaos.clone());
        }
        if let Some(hub) = &self.metrics {
            supervisor = supervisor.with_metrics(hub.clone());
        }
        supervisor
    }

    /// A harness with an explicit repetition count (single-run
    /// diagnosis experiments use 1), running under the context's
    /// [`supervisor`](RunCtx::supervisor) and recording into the
    /// context's ledger.
    pub fn harness_with_reps(&self, repetitions: usize) -> TestHarness {
        let mut h = TestHarness::new(repetitions).with_supervisor(self.supervisor());
        h.ledger = self.ledger.clone();
        h
    }
}

impl Default for RunCtx {
    fn default() -> Self {
        RunCtx::new(Effort::Standard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervise::DEFAULT_CHECKPOINT_EVERY;

    #[test]
    fn harness_inherits_ctx_settings() {
        let ctx = RunCtx::new(Effort::Smoke);
        let h = ctx.harness();
        assert_eq!(h.repetitions, Effort::Smoke.repetitions());
        assert_eq!(ctx.harness_with_reps(1).repetitions, 1);
    }

    #[test]
    fn plain_ctx_has_no_observers() {
        let ctx = RunCtx::new(Effort::Smoke);
        let h = ctx.harness();
        assert!(h.supervisor.chaos().is_none());
        assert!(h.supervisor.metrics().is_none());
    }

    #[test]
    fn metrics_hub_reaches_the_supervisor() {
        let dir = std::env::temp_dir().join(format!("ctx_metrics_{}", std::process::id()));
        let hub = Arc::new(MetricsHub::new(&dir).expect("hub dir"));
        let ctx = RunCtx::new(Effort::Smoke).with_metrics(hub.clone());
        let h = ctx.harness();
        assert!(Arc::ptr_eq(h.supervisor.metrics().expect("metrics wired"), &hub));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_contexts_keep_their_own_ledgers() {
        use crate::experiments::common::run_or_empty;
        use crate::testbeds::{EsnetPath, Testbeds};
        use iperf3sim::Iperf3Opts;
        use linuxhost::KernelVersion;
        let scenario = |parallel| {
            crate::Scenario::symmetric(
                "lan",
                Testbeds::esnet_host(KernelVersion::L6_8),
                Testbeds::esnet_path(EsnetPath::Lan),
                Iperf3Opts::new(1).omit(0).parallel(parallel),
            )
        };
        let (failing, clean) = (RunCtx::new(Effort::Smoke), RunCtx::new(Effort::Smoke));
        // Both experiments are in flight at once: each waits for the
        // other before running its scenario (-P 0 is a config error).
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for (ctx, parallel) in [(&failing, 0), (&clean, 1)] {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    run_or_empty(&ctx.harness_with_reps(2), &scenario(parallel));
                });
            }
        });
        assert_eq!(failing.ledger.failed_scenarios(), ["lan: no repetition completed"]);
        assert_eq!(failing.ledger.exit_code(), 1);
        assert_eq!((clean.ledger.failed_scenarios().len(), clean.ledger.exit_code()), (0, 0));
        assert_eq!(failing.ledger.snapshot().len(), 1);
        assert_eq!(clean.ledger.snapshot().len(), 1);
    }

    #[test]
    fn harness_supervisor_matches_effort_and_wiring() {
        let chaos = Arc::new(ChaosPlan::new(99));
        let ctx = RunCtx::new(Effort::Full).with_chaos(chaos.clone());
        let h = ctx.harness();
        let sup = &h.supervisor;
        assert_eq!(sup.deadline, Effort::Full.rep_deadline());
        assert!(Arc::ptr_eq(sup.chaos().expect("chaos wired"), &chaos));
        assert!(Arc::ptr_eq(&h.ledger, &ctx.ledger));
        // Chaos turns checkpointing on; without it there is none.
        assert_eq!(sup.checkpoint_every, DEFAULT_CHECKPOINT_EVERY);
        assert_eq!(RunCtx::new(Effort::Full).harness().supervisor.checkpoint_every, 0);
    }
}
