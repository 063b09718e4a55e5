//! Typed simulation errors.
//!
//! Every failure the simulator can produce — an invalid configuration,
//! a livelocked event loop, a broken accounting invariant — is a
//! [`SimError`] variant carrying enough structure for the harness to
//! report and classify without parsing strings.

use simcore::{SimTime, WatchdogTrip};
use std::fmt;

/// Why a simulation refused to start or failed to finish cleanly.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The configuration failed validation; each string is one problem
    /// in the iperf3-error style the CLI surfaces verbatim.
    InvalidConfig(Vec<String>),
    /// The event loop stopped making progress (livelock or runaway
    /// event population) and was killed by the watchdog.
    Stalled {
        /// Simulated time the run had reached when the watchdog fired.
        at: SimTime,
        /// What the watchdog observed.
        trip: WatchdogTrip,
    },
    /// An internal invariant the event loop relies on was violated
    /// (a sender ran ahead of its app-write bookkeeping, a fleet
    /// queue drained with flows still open, a ledger disappeared
    /// mid-run). Previously these
    /// were hot-path panics that killed the whole worker; as a typed
    /// error the harness records the rep as failed and carries on.
    StateCorruption {
        /// Simulated time at which the corruption was detected.
        at: SimTime,
        /// Which invariant broke.
        what: String,
    },
    /// End-of-run burst accounting did not balance: every burst put on
    /// the wire must be delivered, dropped (with a counted cause), or
    /// still in flight when the clock stops.
    ConservationViolation {
        /// Bursts handed to the wire (including retransmissions).
        wire_sent: u64,
        /// Bursts that reached a receiver (including duplicates).
        delivered: u64,
        /// Bursts dropped with an attributed cause (switch + ring +
        /// random + fault drops).
        dropped: u64,
        /// Bursts still inside the pipeline (queued events and
        /// pause-parked arrivals) when the run ended.
        in_flight: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig(problems) => {
                write!(f, "invalid configuration: {}", problems.join("; "))
            }
            SimError::Stalled { at, trip } => {
                write!(f, "simulation stalled at t={at}: {trip}")
            }
            SimError::StateCorruption { at, what } => {
                write!(f, "simulation state corrupted at t={at}: {what}")
            }
            SimError::ConservationViolation { wire_sent, delivered, dropped, in_flight } => write!(
                f,
                "burst conservation violated: sent {wire_sent} != delivered {delivered} \
                 + dropped {dropped} + in-flight {in_flight} (= {})",
                delivered + dropped + in_flight
            ),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = SimError::InvalidConfig(vec!["zero duration".into(), "no flows".into()]);
        assert!(e.to_string().contains("zero duration"));
        assert!(matches!(e, SimError::InvalidConfig(_)));

        let e = SimError::Stalled {
            at: SimTime::from_nanos(7),
            trip: WatchdogTrip::Livelock { at: SimTime::from_nanos(7), events: 99 },
        };
        assert!(e.to_string().contains("stalled"));
        assert!(e.to_string().contains("livelock"));
        assert!(!matches!(e, SimError::InvalidConfig(_)));

        let e = SimError::StateCorruption {
            at: SimTime::from_nanos(3),
            what: "timer slab leaked".into(),
        };
        assert!(e.to_string().contains("corrupted"));
        assert!(e.to_string().contains("timer slab leaked"));
        assert!(!matches!(e, SimError::InvalidConfig(_)));

        let e = SimError::ConservationViolation {
            wire_sent: 10,
            delivered: 4,
            dropped: 3,
            in_flight: 2,
        };
        assert!(e.to_string().contains("conservation"));
        assert!(e.to_string().contains("= 9"));
    }
}
