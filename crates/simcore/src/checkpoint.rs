//! Checkpoint cadence policy for long runs.
//!
//! A checkpoint of the simulator is a deep clone of the whole engine
//! state — event-queue keys and payload slab ([`crate::EventQueue`] is
//! `Clone` when its payload is), RNG, watchdog, and whatever
//! domain-layer state rides on top. Snapshots are only taken *between*
//! events (never mid-dispatch), which makes them barrier-safe by
//! construction: resuming from one replays the identical (time, seq)
//! total order as a straight-through run.
//!
//! Cloning a large slab is not free, so checkpoints are taken on a
//! cadence measured in dispatched events. This module owns that cadence
//! logic; the domain layers own the actual snapshot types.

/// When to take snapshots, measured in dispatched events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Take a snapshot every `every_events` dispatched events.
    /// `0` disables checkpointing entirely.
    pub every_events: u64,
}

impl CheckpointPolicy {
    /// Checkpointing disabled.
    pub const DISABLED: CheckpointPolicy = CheckpointPolicy { every_events: 0 };

    /// A policy snapshotting every `every_events` events (`0` disables).
    pub fn every(every_events: u64) -> Self {
        CheckpointPolicy { every_events }
    }

    /// Whether this policy ever takes snapshots.
    pub fn enabled(&self) -> bool {
        self.every_events > 0
    }
}

/// Tracks progress against a [`CheckpointPolicy`].
///
/// Drive it with the engine's monotone dispatched-event counter and
/// snapshot whenever [`Checkpointer::due`] fires:
///
/// ```
/// use simcore::checkpoint::{CheckpointPolicy, Checkpointer};
/// let mut ck = Checkpointer::new(CheckpointPolicy::every(100));
/// assert!(!ck.due(50));
/// assert!(ck.due(100)); // crossed the first boundary
/// assert!(!ck.due(150));
/// assert!(ck.due(275)); // boundaries may be crossed in one stride
/// ```
#[derive(Debug, Clone)]
pub struct Checkpointer {
    policy: CheckpointPolicy,
    /// Event count at the last snapshot (or start).
    last_at: u64,
}

impl Checkpointer {
    /// A checkpointer starting from event count zero.
    pub fn new(policy: CheckpointPolicy) -> Self {
        Checkpointer { policy, last_at: 0 }
    }

    /// Report the engine's total dispatched-event count; returns `true`
    /// when a snapshot is due (and records it as taken). Stepping over
    /// several boundaries at once yields a single snapshot — the caller
    /// steps in bounded chunks, so cadence error is bounded too.
    pub fn due(&mut self, events_done: u64) -> bool {
        if !self.policy.enabled() || events_done < self.last_at {
            return false;
        }
        if events_done - self.last_at >= self.policy.every_events {
            self.last_at = events_done;
            true
        } else {
            false
        }
    }

    /// The policy driving this checkpointer.
    pub fn policy(&self) -> CheckpointPolicy {
        self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_policy_never_fires() {
        let mut ck = Checkpointer::new(CheckpointPolicy::DISABLED);
        for n in [0, 1, 100, 1_000_000] {
            assert!(!ck.due(n));
        }
        assert!(!CheckpointPolicy::DISABLED.enabled());
    }

    #[test]
    fn fires_once_per_boundary() {
        let mut ck = Checkpointer::new(CheckpointPolicy::every(10));
        assert!(!ck.due(9));
        assert!(ck.due(10));
        assert!(!ck.due(10), "same count must not double-fire");
        assert!(!ck.due(19));
        assert!(ck.due(20));
    }

    #[test]
    fn large_strides_fire_once() {
        let mut ck = Checkpointer::new(CheckpointPolicy::every(100));
        assert!(ck.due(1_000), "one snapshot even after skipping 10 boundaries");
        assert!(!ck.due(1_050));
        assert!(ck.due(1_100));
    }

    #[test]
    fn regressing_counter_is_ignored() {
        // A resumed run re-reports counts from the snapshot point; a
        // count below `last_at` must never fire or underflow.
        let mut ck = Checkpointer::new(CheckpointPolicy::every(10));
        assert!(ck.due(10));
        assert!(!ck.due(5));
        assert!(ck.due(20));
    }
}
