//! Liveness guards for the event loop.
//!
//! A discrete-event simulation has two failure modes that would
//! otherwise spin forever: a *livelock*, where handlers keep scheduling
//! events at the current instant so simulated time never advances, and
//! a *runaway*, where time advances but the event population explodes
//! far beyond what the configured workload could legitimately generate.
//! [`Watchdog`] detects both with O(1) work per event and reports a
//! structured [`WatchdogTrip`] the caller can convert into its own
//! error type instead of hanging the process.

use crate::time::SimTime;

/// Default cap on events processed at a single simulated instant.
///
/// The simulator's handlers chain at most a few events per burst per
/// instant; even an 8-flow LAN run stays well under a few thousand
/// same-instant events, so two million is far outside legitimate
/// behaviour while still tripping in well under a second of wall time.
pub const DEFAULT_MAX_EVENTS_PER_INSTANT: u64 = 2_000_000;

/// What the watchdog observed when it tripped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WatchdogTrip {
    /// Simulated time stopped advancing: `events` fired back to back at
    /// instant `at` without the clock moving.
    Livelock {
        /// The instant the loop is stuck at.
        at: SimTime,
        /// Events processed at that instant before tripping.
        events: u64,
    },
    /// The total event budget for the run was exhausted.
    BudgetExhausted {
        /// Events processed before tripping.
        events: u64,
        /// The configured budget.
        budget: u64,
    },
}

impl std::fmt::Display for WatchdogTrip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WatchdogTrip::Livelock { at, events } => write!(
                f,
                "livelock: {events} events fired at t={at} without simulated time advancing"
            ),
            WatchdogTrip::BudgetExhausted { events, budget } => {
                write!(f, "event budget exhausted: {events} events processed (budget {budget})")
            }
        }
    }
}

/// Event-loop liveness guard: call [`Watchdog::observe`] once per
/// dispatched event with the current simulated time.
#[derive(Debug, Clone)]
pub struct Watchdog {
    max_events_per_instant: u64,
    total_budget: Option<u64>,
    last_time: SimTime,
    events_at_instant: u64,
    total_events: u64,
}

impl Watchdog {
    /// A watchdog with the default per-instant cap and an optional
    /// whole-run event budget (`None` = unlimited total).
    pub fn new(total_budget: Option<u64>) -> Self {
        Watchdog {
            max_events_per_instant: DEFAULT_MAX_EVENTS_PER_INSTANT,
            total_budget,
            last_time: SimTime::ZERO,
            events_at_instant: 0,
            total_events: 0,
        }
    }

    /// Builder: override the per-instant cap (tests use tiny values to
    /// provoke trips cheaply).
    pub fn with_max_events_per_instant(mut self, cap: u64) -> Self {
        self.max_events_per_instant = cap.max(1);
        self
    }

    /// Record one dispatched event at simulated time `now`; returns the
    /// trip condition if the loop is no longer making progress.
    #[inline]
    pub fn observe(&mut self, now: SimTime) -> Result<(), WatchdogTrip> {
        self.total_events += 1;
        if now > self.last_time {
            self.last_time = now;
            self.events_at_instant = 1;
        } else {
            self.events_at_instant += 1;
            if self.events_at_instant > self.max_events_per_instant {
                return Err(WatchdogTrip::Livelock { at: now, events: self.events_at_instant });
            }
        }
        if let Some(budget) = self.total_budget {
            if self.total_events > budget {
                return Err(WatchdogTrip::BudgetExhausted {
                    events: self.total_events,
                    budget,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn advancing_time_never_trips() {
        let mut w = Watchdog::new(None).with_max_events_per_instant(4);
        let mut t = SimTime::ZERO;
        for _ in 0..1000 {
            t += SimDuration::from_nanos(1);
            assert!(w.observe(t).is_ok());
        }
    }

    #[test]
    fn stuck_clock_trips_livelock() {
        let mut w = Watchdog::new(None).with_max_events_per_instant(10);
        let t = SimTime::from_nanos(5);
        let mut tripped = None;
        for _ in 0..100 {
            if let Err(trip) = w.observe(t) {
                tripped = Some(trip);
                break;
            }
        }
        match tripped {
            Some(WatchdogTrip::Livelock { at, events }) => {
                assert_eq!(at, t);
                assert_eq!(events, 11);
            }
            other => panic!("expected livelock, got {other:?}"),
        }
    }

    #[test]
    fn bursts_below_the_cap_are_fine() {
        let mut w = Watchdog::new(None).with_max_events_per_instant(10);
        for step in 0..50u64 {
            let t = SimTime::from_nanos(step);
            for _ in 0..10 {
                assert!(w.observe(t).is_ok(), "10 events per instant must pass");
            }
        }
    }

    #[test]
    fn budget_exhaustion_trips() {
        let mut w = Watchdog::new(Some(5));
        let mut t = SimTime::ZERO;
        for i in 0..5 {
            t += SimDuration::from_nanos(1);
            assert!(w.observe(t).is_ok(), "event {i} within budget");
        }
        t += SimDuration::from_nanos(1);
        assert_eq!(
            w.observe(t),
            Err(WatchdogTrip::BudgetExhausted { events: 6, budget: 5 })
        );
    }

    #[test]
    fn trip_messages_are_informative() {
        let live = WatchdogTrip::Livelock { at: SimTime::from_nanos(42), events: 7 };
        assert!(live.to_string().contains("livelock"));
        let budget = WatchdogTrip::BudgetExhausted { events: 9, budget: 8 };
        assert!(budget.to_string().contains("budget"));
    }
}
