//! Harness-level fault injection (`REPRO_CHAOS=<seed>`).
//!
//! Chaos mode attacks the *harness*, never the simulation: a worker's
//! live session is dropped at a pseudo-random event count, at most
//! once in each of its first two rounds, and the metrics hub's
//! run-file writes fail through the
//! [`crate::trace::TraceIo`] shim. The supervision layer
//! ([`crate::supervise`]) must absorb both — resume from the last
//! checkpoint, degrade a lost artefact to a warning — while the final
//! reports stay bit-identical to a chaos-free run and every repetition
//! is accounted for.
//!
//! Every injection decision is a pure function of the chaos seed and
//! the identity of the thing being attacked (run seed, resume round,
//! artefact path), so a chaos run is exactly as reproducible as a normal
//! one: same seed, same faults, same recoveries.

use crate::trace::{RealIo, TraceIo};
use simcore::derive_seed;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Decision-space salts, one per fault class (keeps the per-class
/// decision streams independent).
const SALT_KILL: u64 = 0x6b69_6c6c; // "kill"
const SALT_TRACE: u64 = 0x7472_6163; // "trac"

/// Rounds in which a worker may be killed: round 0 is the first
/// execution, round 1 the first resume. A later round always runs to
/// the end, so every chaos run completes after at most this many kills.
const KILL_ROUNDS: u32 = 2;
/// Percent chance a fresh worker is killed mid-run.
const KILL_PCT_FIRST: u64 = 40;
/// Percent chance a worker is killed again after its first resume.
const KILL_PCT_RESUMED: u64 = 20;
/// Percent chance a run-file write fails.
const TRACE_PCT: u64 = 30;

/// Injection counters, readable while runs are in flight.
#[derive(Debug, Default)]
pub struct ChaosStats {
    kills: AtomicU64,
    resumes: AtomicU64,
    trace_failures: AtomicU64,
}

impl ChaosStats {
    /// Workers killed mid-run.
    pub fn kills(&self) -> u64 {
        self.kills.load(Ordering::Relaxed)
    }

    /// Killed workers resumed from a checkpoint (the remainder
    /// restarted from scratch).
    pub fn resumes(&self) -> u64 {
        self.resumes.load(Ordering::Relaxed)
    }

    /// Artefact writes failed through the io shim.
    pub fn trace_failures(&self) -> u64 {
        self.trace_failures.load(Ordering::Relaxed)
    }

    /// Total faults injected across all classes.
    pub fn total(&self) -> u64 {
        self.kills() + self.trace_failures()
    }

    pub(crate) fn count_kill(&self) {
        self.kills.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_resume(&self) {
        self.resumes.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_trace_failure(&self) {
        self.trace_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// One-line summary for the end-of-run report.
    pub fn summary(&self) -> String {
        format!(
            "chaos: {} worker kill(s) ({} resumed from checkpoint), {} trace failure(s)",
            self.kills(),
            self.resumes(),
            self.trace_failures(),
        )
    }
}

/// A seeded chaos schedule plus its injection counters.
#[derive(Debug)]
pub struct ChaosPlan {
    seed: u64,
    /// What has been injected so far.
    pub stats: ChaosStats,
}

impl ChaosPlan {
    /// A plan driven by `seed`.
    pub fn new(seed: u64) -> Self {
        ChaosPlan { seed, stats: ChaosStats::default() }
    }

    /// From `REPRO_CHAOS=<seed>`, if set. An unparsable value is a
    /// configuration error, returned as its message: silently running
    /// without chaos would turn a chaos-soak CI job into a no-op.
    pub fn from_env() -> Result<Option<Self>, String> {
        let Ok(raw) = std::env::var("REPRO_CHAOS") else {
            return Ok(None);
        };
        match raw.parse::<u64>() {
            Ok(seed) => Ok(Some(ChaosPlan::new(seed))),
            Err(_) => Err(format!("REPRO_CHAOS='{raw}' is not a u64 seed")),
        }
    }

    /// The driving seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Deterministic decision stream: a u64 from (class salt, a, b).
    fn roll(&self, salt: u64, a: u64, b: u64) -> u64 {
        derive_seed(self.seed ^ salt, a, b)
    }

    /// Should the worker for `run_seed`, on resume round `round`
    /// (0 = first execution), be killed — and if so, after how many
    /// further events? The offset guarantees forward progress: at least
    /// one chunk of events runs before the kill. No round from
    /// `KILL_ROUNDS` (2) on is killed.
    pub fn kill_after(&self, run_seed: u64, round: u32) -> Option<u64> {
        if round >= KILL_ROUNDS {
            return None;
        }
        let r = self.roll(SALT_KILL, run_seed, round as u64);
        let pct = if round == 0 { KILL_PCT_FIRST } else { KILL_PCT_RESUMED };
        if r % 100 < pct {
            // 5k..=125k further events: early enough to matter, late
            // enough that a checkpoint cadence of ~50k usually has a
            // snapshot to resume from.
            Some(5_000 + (r >> 8) % 120_000)
        } else {
            None
        }
    }

    /// Should this artefact write fail?
    pub fn trace_write_fails(&self, path: &Path) -> bool {
        let h = simcore::fnv1a_64(path.to_string_lossy().as_bytes());
        self.roll(SALT_TRACE, h, 0) % 100 < TRACE_PCT
    }
}

/// [`TraceIo`] shim that consults the chaos plan before every write.
#[derive(Debug, Clone)]
pub struct ChaosIo {
    plan: Arc<ChaosPlan>,
}

impl ChaosIo {
    /// Wrap the real filesystem in `plan`'s failure schedule.
    pub fn new(plan: Arc<ChaosPlan>) -> Self {
        ChaosIo { plan }
    }
}

impl TraceIo for ChaosIo {
    fn write(&self, path: &Path, data: &[u8]) -> std::io::Result<()> {
        if self.plan.trace_write_fails(path) {
            self.plan.stats.count_trace_failure();
            return Err(std::io::Error::other("chaos: injected trace-write failure"));
        }
        std::fs::write(path, data)
    }
}

/// The filesystem run files are written through: `plan`'s failure
/// schedule when chaos is on, the real one otherwise.
pub fn artefact_io(plan: Option<&Arc<ChaosPlan>>) -> Box<dyn TraceIo> {
    match plan {
        Some(plan) => Box::new(ChaosIo::new(plan.clone())),
        None => Box::new(RealIo),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn decisions_are_deterministic() {
        let a = ChaosPlan::new(7);
        let b = ChaosPlan::new(7);
        for seed in 0..50u64 {
            assert_eq!(a.kill_after(seed, 0), b.kill_after(seed, 0));
        }
        let p = PathBuf::from("/tmp/x_rep0.jsonl");
        assert_eq!(a.trace_write_fails(&p), b.trace_write_fails(&p));
    }

    #[test]
    fn different_seeds_differ() {
        let a = ChaosPlan::new(1);
        let b = ChaosPlan::new(2);
        let differs = (0..100u64).any(|s| a.kill_after(s, 0) != b.kill_after(s, 0));
        assert!(differs, "two chaos seeds should produce different kill schedules");
    }

    #[test]
    fn kill_rates_roughly_match_targets() {
        let plan = ChaosPlan::new(42);
        let first = (0..1000u64).filter(|&s| plan.kill_after(s, 0).is_some()).count();
        let resumed = (0..1000u64).filter(|&s| plan.kill_after(s, 1).is_some()).count();
        assert!((300..500).contains(&first), "first-round kills ≈40%: {first}");
        assert!((100..300).contains(&resumed), "resume-round kills ≈20%: {resumed}");
        // Kills are bounded: no seed is killed from round KILL_ROUNDS on.
        assert!((0..1000u64).all(|s| plan.kill_after(s, KILL_ROUNDS).is_none()));
        // Offsets guarantee forward progress.
        for s in 0..1000u64 {
            if let Some(off) = plan.kill_after(s, 0) {
                assert!(off >= 5_000);
            }
        }
    }

    #[test]
    fn stats_count_and_summarize() {
        let plan = ChaosPlan::new(3);
        plan.stats.count_kill();
        plan.stats.count_kill();
        plan.stats.count_resume();
        plan.stats.count_trace_failure();
        assert_eq!(plan.stats.kills(), 2);
        assert_eq!(plan.stats.resumes(), 1);
        assert_eq!(plan.stats.total(), 3);
        let s = plan.stats.summary();
        assert!(s.contains("2 worker kill(s)"), "{s}");
        assert!(s.contains("1 trace failure(s)"), "{s}");
    }

    #[test]
    fn chaos_io_fails_only_scheduled_paths() {
        let plan = Arc::new(ChaosPlan::new(11));
        let dir = std::env::temp_dir().join(format!("chaos_io_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Probe the exact paths the writes will use: the schedule
        // hashes the full path, so a name that is safe under /tmp may
        // be doomed under another directory (and this test's directory
        // varies by process id).
        let doomed = (0..200)
            .map(|i| dir.join(format!("chaos_probe_{i}.jsonl")))
            .find(|p| plan.trace_write_fails(p))
            .expect("some path fails at 30%");
        let safe = (0..200)
            .map(|i| dir.join(format!("chaos_probe_{i}.jsonl")))
            .find(|p| !plan.trace_write_fails(p))
            .expect("some path survives at 30%");
        let io = ChaosIo::new(plan.clone());
        assert!(io.write(&doomed, b"x").is_err());
        assert!(io.write(&safe, b"x").is_ok());
        assert_eq!(plan.stats.trace_failures(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
