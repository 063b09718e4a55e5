//! The run context: everything the environment used to leak into
//! arbitrary call sites, resolved once at harness entry.
//!
//! `Effort::from_env`, `REPRO_CACHE_DIR`, `REPRO_JOBS`, `REPRO_CHAOS`
//! and `REPRO_CHECKPOINT_EVERY` are read exactly once — by
//! [`RunCtx::from_env`] in the `repro` binary — and threaded explicitly
//! from there. `REPRO_METRICS` names a directory the hub creates, so
//! `repro` resolves it itself, after parsing its arguments. Tests
//! build a [`RunCtx`] directly and never touch process-global
//! environment variables, which would race across test threads under
//! the parallel scheduler.

use crate::cache::RunCache;
use crate::chaos::ChaosPlan;
use crate::effort::Effort;
use crate::metrics::MetricsHub;
use crate::runner::TestHarness;
use crate::sched;
use crate::supervise::{ErrorBudget, Supervisor};
use std::sync::Arc;

/// Resolved run-wide configuration.
#[derive(Debug, Clone)]
pub struct RunCtx {
    /// Simulation effort (repetitions and durations).
    pub effort: Effort,
    /// Concurrency bound for the process-wide scheduler gate (display
    /// only here; the gate itself is sized on first use).
    pub jobs: usize,
    /// Content-addressed report cache (`REPRO_CACHE_DIR`).
    pub cache: Option<Arc<RunCache>>,
    /// Harness-level fault injection (`REPRO_CHAOS=<seed>`).
    pub chaos: Option<Arc<ChaosPlan>>,
    /// Shared retry budget for the harnesses this context builds
    /// (`repro` replaces it per experiment).
    pub budget: Option<Arc<ErrorBudget>>,
    /// Checkpoint cadence override (`REPRO_CHECKPOINT_EVERY`, events;
    /// 0 = unset, chaos picks its own default).
    pub checkpoint_every: u64,
    /// The run-output hub (`--metrics <dir>` / `REPRO_METRICS`, or
    /// `--trace <dir>` for a per-tick one): HDR-histogram registry,
    /// OpenMetrics exposition, per-repetition artefacts, phase spans,
    /// live heartbeat. Observer-neutral unless per-tick — attaching a
    /// plain hub never changes simulation results or cache eligibility.
    pub metrics: Option<Arc<MetricsHub>>,
}

impl RunCtx {
    /// A context at the given effort, with no metrics hub, no cache, and
    /// no chaos — what tests and library callers start from.
    pub fn new(effort: Effort) -> Self {
        RunCtx {
            effort,
            jobs: sched::jobs_from_env(),
            cache: None,
            chaos: None,
            budget: None,
            checkpoint_every: 0,
            metrics: None,
        }
    }

    /// Resolve the environment once: `REPRO_EFFORT`, `REPRO_JOBS`,
    /// `REPRO_CACHE_DIR`, `REPRO_CHAOS`, `REPRO_CHECKPOINT_EVERY`. The
    /// metrics hub stays unset: building one creates its directory.
    pub fn from_env() -> Self {
        let checkpoint_every = std::env::var("REPRO_CHECKPOINT_EVERY")
            .ok()
            .and_then(|v| match v.parse::<u64>() {
                Ok(n) => Some(n),
                Err(_) => {
                    eprintln!(
                        "REPRO_CHECKPOINT_EVERY='{v}' is not an event count; ignoring"
                    );
                    None
                }
            })
            .unwrap_or(0);
        RunCtx {
            effort: Effort::from_env(),
            jobs: sched::jobs_from_env(),
            cache: RunCache::from_env().map(Arc::new),
            chaos: ChaosPlan::from_env().map(Arc::new),
            budget: None,
            checkpoint_every,
            metrics: None,
        }
    }

    /// Builder: consult and fill `cache`.
    pub fn with_cache(mut self, cache: Arc<RunCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Builder: inject harness faults per `chaos`.
    pub fn with_chaos(mut self, chaos: Arc<ChaosPlan>) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Builder: draw retries from `budget`.
    pub fn with_budget(mut self, budget: Arc<ErrorBudget>) -> Self {
        self.budget = Some(budget);
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

    /// A harness with an explicit repetition count (single-run
    /// diagnosis experiments use 1). The supervisor is assembled from
    /// the context: effort-matched retry policy and deadline, the
    /// shared budget, the chaos schedule, and the checkpoint cadence.
    pub fn harness_with_reps(&self, repetitions: usize) -> TestHarness {
        let mut supervisor = Supervisor::for_effort(self.effort);
        if self.checkpoint_every > 0 {
            supervisor = supervisor.with_checkpoint_every(self.checkpoint_every);
        }
        if let Some(budget) = &self.budget {
            supervisor = supervisor.with_budget(budget.clone());
        }
        if let Some(chaos) = &self.chaos {
            supervisor = supervisor.with_chaos(chaos.clone());
        }
        if let Some(hub) = &self.metrics {
            supervisor = supervisor.with_metrics(hub.clone());
        }
        let mut h = TestHarness::new(repetitions).with_supervisor(supervisor);
        h.cache = self.cache.clone();
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
        let cache = Arc::new(RunCache::new("/tmp/nonexistent-cache-dir-for-test"));
        let ctx = RunCtx::new(Effort::Smoke).with_cache(cache);
        let h = ctx.harness();
        assert_eq!(h.repetitions, Effort::Smoke.repetitions());
        assert!(h.cache.is_some());
        assert_eq!(ctx.harness_with_reps(1).repetitions, 1);
    }

    #[test]
    fn plain_ctx_has_no_observers() {
        let ctx = RunCtx::new(Effort::Smoke);
        let h = ctx.harness();
        assert!(h.cache.is_none());
        assert!(h.supervisor.chaos().is_none());
        assert!(h.supervisor.budget().is_none());
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
    fn harness_supervisor_matches_effort_and_wiring() {
        let budget = Arc::new(ErrorBudget::new(5));
        let chaos = Arc::new(ChaosPlan::new(99));
        let ctx = RunCtx::new(Effort::Full)
            .with_budget(budget.clone())
            .with_chaos(chaos.clone());
        let h = ctx.harness();
        let sup = &h.supervisor;
        assert_eq!(sup.policy().max_attempts, Effort::Full.retry_attempts());
        assert_eq!(sup.policy().deadline, Effort::Full.rep_deadline());
        assert!(Arc::ptr_eq(sup.budget().expect("budget wired"), &budget));
        assert!(Arc::ptr_eq(sup.chaos().expect("chaos wired"), &chaos));
        // Chaos without an explicit cadence turns checkpointing on.
        assert_eq!(sup.checkpoint_every, DEFAULT_CHECKPOINT_EVERY);
        // An explicit cadence wins.
        let mut ctx2 = RunCtx::new(Effort::Smoke).with_chaos(chaos);
        ctx2.checkpoint_every = 7;
        assert_eq!(ctx2.harness().supervisor.checkpoint_every, 7);
    }
}
