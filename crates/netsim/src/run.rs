//! The run loop both engines share.
//!
//! [`crate::Simulation`] and [`crate::FleetSim`] each start an
//! [`Engine`]: an event queue with its initial events, a dispatcher and
//! an end-of-run report. [`Running`] steps it one event at a time under
//! a [`Watchdog`], in bounded chunks, and snapshots the whole engine
//! between events as a [`Checkpoint`]. `step → checkpoint
//! → resume → step` pops the identical `(time, seq)` event order as a
//! straight-through run, so the report is bit-identical either way —
//! which is what lets the harness supervisor step, checkpoint, kill and
//! resume any run.

use simcore::{EventQueue, QueueHealth, SimTime, Watchdog};

use crate::error::SimError;

/// One discrete-event engine as [`Running`] drives it.
pub trait Engine: Clone {
    /// The events the engine schedules.
    type Event;
    /// What a finished run reports.
    type Output;

    /// The engine's event queue.
    fn queue(&self) -> &EventQueue<Self::Event>;

    /// Pop the next event the run still covers, count it against
    /// `watchdog` and dispatch it. `Ok(false)` means the run is over.
    /// Each engine keeps this loop body next to its handlers, so the
    /// compiler can inline them into it.
    fn step(&mut self, watchdog: &mut Watchdog) -> Result<bool, SimError>;

    /// Whether an event the run still covers is pending.
    fn has_pending(&self) -> bool {
        !self.queue().is_empty()
    }

    /// Check the end-of-run invariants and build the report.
    fn finish(self) -> Result<Self::Output, SimError>;
}

/// A started engine, driven incrementally: stepped in bounded chunks,
/// snapshotted between events, resumed, finished.
#[derive(Clone)]
pub struct Running<E> {
    engine: E,
    /// Livelock and event-budget guard, observed once per popped event.
    watchdog: Watchdog,
}

/// An opaque, barrier-safe snapshot of a [`Running`] engine.
///
/// Taken between events (never mid-dispatch), so resuming replays the
/// exact remaining event sequence: the queue, every RNG, the watchdog
/// and all engine state are deep-copied.
#[derive(Clone)]
pub struct Checkpoint<E>(Box<Running<E>>);

impl<E: Engine> Checkpoint<E> {
    /// Dispatched-event count at the moment of the snapshot.
    pub fn events_done(&self) -> u64 {
        self.0.events_done()
    }
}

/// Count one event popped at `now` against `watchdog`.
#[inline]
pub(crate) fn observe(watchdog: &mut Watchdog, now: SimTime) -> Result<(), SimError> {
    watchdog.observe(now).map_err(|trip| SimError::Stalled { at: now, trip })
}

impl<E: Engine> Running<E> {
    /// Drive `engine`, whose initial events are already queued; the
    /// watchdog trips after `budget` events.
    pub(crate) fn new(engine: E, budget: u64) -> Self {
        Running { engine, watchdog: Watchdog::new(Some(budget)) }
    }

    /// Total events dispatched so far (monotone; drives checkpoint
    /// cadence and chaos-injection points).
    pub fn events_done(&self) -> u64 {
        self.engine.queue().total_popped()
    }

    /// Dispatch up to `max` further events. Returns `true` once the
    /// run has no more events to dispatch (call [`Running::finish`]),
    /// `false` if more stepping is needed.
    pub fn step_events(&mut self, max: u64) -> Result<bool, SimError> {
        for _ in 0..max {
            if !self.engine.step(&mut self.watchdog)? {
                return Ok(true);
            }
        }
        Ok(!self.engine.has_pending())
    }

    /// Engine-health snapshot of the event queue (rung depths,
    /// tombstones, past-clamps) for observability gauges.
    pub fn queue_health(&self) -> QueueHealth {
        self.engine.queue().health()
    }

    /// Simulated time reached so far, in seconds.
    pub fn sim_now_secs(&self) -> f64 {
        self.engine.queue().now().as_secs_f64()
    }

    /// Snapshot the complete run state between events.
    pub fn checkpoint(&self) -> Checkpoint<E> {
        Checkpoint(Box::new(self.clone()))
    }

    /// Rebuild a running engine from a snapshot; stepping it replays
    /// exactly the event sequence the original would have dispatched.
    pub fn resume(ck: Checkpoint<E>) -> Self {
        *ck.0
    }

    /// Dispatch every remaining event and build the report — the same
    /// loop as stepping to the end, so a straight-through run and a
    /// stepped or resumed one finish bit-identically.
    pub fn finish(mut self) -> Result<E::Output, SimError> {
        while self.engine.step(&mut self.watchdog)? {}
        self.engine.finish()
    }
}
