//! Shared-buffer output-queued switch.
//!
//! Models the Edgecore AS9716-32D used on the ESnet testbed (64 MB of
//! buffer shared by all ports) and the NoviFlow/Tofino switches at
//! AmLight. Arriving bursts are placed in the egress queue of their
//! output port if the *shared* buffer has room; otherwise they are
//! tail-dropped. Each egress port drains at its line rate. With 802.3x
//! enabled, occupancy past the XOFF mark pauses upstream senders
//! instead of dropping.

use crate::pause::{PauseState, PauseThresholds};
use simcore::{BitRate, Bytes, SimDuration, SimRng, SimTime};

/// WRED-style early-drop parameters: arrivals are dropped with a
/// probability ramping from 0 at `min_frac` occupancy to `max_p` at
/// `max_frac`. Spreads congestion losses across flows instead of the
/// synchronized tail-drop bursts a full buffer produces — typical of
/// carrier/production transit gear, not of the tail-drop testbed
/// switches.
#[derive(Debug, Clone, Copy)]
pub struct RedParams {
    /// Occupancy fraction where early drop begins.
    pub min_frac: f64,
    /// Occupancy fraction where drop probability reaches `max_p`.
    pub max_frac: f64,
    /// Maximum early-drop probability.
    pub max_p: f64,
}

impl Default for RedParams {
    fn default() -> Self {
        RedParams { min_frac: 0.30, max_frac: 0.90, max_p: 0.35 }
    }
}

/// Result of offering a burst to the switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueOutcome {
    /// Burst accepted; it completes egress serialisation at this time.
    Queued {
        /// Absolute time the last bit leaves the egress port.
        departs_at: SimTime,
    },
    /// Shared buffer exhausted; burst tail-dropped.
    Dropped,
}

/// One egress port's state.
#[derive(Debug, Clone)]
struct Port {
    rate: BitRate,
    /// Time the port finishes serialising everything queued so far.
    busy_until: SimTime,
    queued: Bytes,
    drops: u64,
}

/// A shared-buffer switch with `n` egress ports.
#[derive(Debug, Clone)]
pub struct SharedBufferSwitch {
    buffer_capacity: Bytes,
    occupancy: Bytes,
    ports: Vec<Port>,
    pause: Option<PauseState>,
    red: Option<RedParams>,
}

impl SharedBufferSwitch {
    /// New switch. `port_rates[i]` is egress port `i`'s line rate.
    /// `flow_control` enables 802.3x pause on the shared buffer.
    pub fn new(buffer_capacity: Bytes, port_rates: &[BitRate], flow_control: bool) -> Self {
        assert!(!port_rates.is_empty(), "switch needs at least one port");
        assert!(!buffer_capacity.is_zero(), "switch needs buffer");
        SharedBufferSwitch {
            buffer_capacity,
            occupancy: Bytes::ZERO,
            ports: port_rates
                .iter()
                .map(|&rate| Port {
                    rate,
                    busy_until: SimTime::ZERO,
                    queued: Bytes::ZERO,
                    drops: 0,
                })
                .collect(),
            pause: flow_control
                .then(|| PauseState::new(buffer_capacity, PauseThresholds::default())),
            red: None,
        }
    }

    /// Enable WRED-style early drop.
    pub fn with_red(mut self, red: RedParams) -> Self {
        self.red = Some(red);
        self
    }

    /// Early-drop decision for an arrival at the current occupancy.
    /// Call before [`Self::enqueue`] when RED is enabled.
    pub fn red_drop(&self, rng: &mut SimRng) -> bool {
        let Some(red) = self.red else { return false };
        let frac = self.occupancy.as_f64() / self.buffer_capacity.as_f64();
        if frac <= red.min_frac {
            return false;
        }
        let p = if frac >= red.max_frac {
            red.max_p
        } else {
            red.max_p * (frac - red.min_frac) / (red.max_frac - red.min_frac)
        };
        rng.chance(p)
    }

    /// Offer a burst for egress on `port` at time `now`.
    ///
    /// On success the caller must schedule a departure event at the
    /// returned time and then call [`Self::departed`].
    pub fn enqueue(&mut self, port: usize, bytes: Bytes, now: SimTime) -> EnqueueOutcome {
        let free = self.buffer_capacity.saturating_sub(self.occupancy);
        if bytes > free {
            self.ports[port].drops += 1;
            self.update_pause();
            return EnqueueOutcome::Dropped;
        }
        self.occupancy += bytes;
        let p = &mut self.ports[port];
        p.queued += bytes;
        let start = p.busy_until.max(now);
        let departs_at = start + p.rate.serialize_time(bytes);
        p.busy_until = departs_at;
        self.update_pause();
        EnqueueOutcome::Queued { departs_at }
    }

    /// Record that a previously queued burst finished egress.
    pub fn departed(&mut self, port: usize, bytes: Bytes) {
        let p = &mut self.ports[port];
        debug_assert!(bytes <= p.queued, "departing more than queued");
        p.queued = p.queued.saturating_sub(bytes);
        self.occupancy = self.occupancy.saturating_sub(bytes);
        self.update_pause();
    }

    /// Steal egress capacity on `port`: push its availability forward by
    /// `dur` (used by the cross-traffic model to occupy the bottleneck).
    pub fn consume_egress(&mut self, port: usize, dur: SimDuration, now: SimTime) {
        let p = &mut self.ports[port];
        p.busy_until = p.busy_until.max(now) + dur;
    }

    /// Current shared-buffer occupancy.
    pub fn occupancy(&self) -> Bytes {
        self.occupancy
    }

    /// Is 802.3x currently asserting pause toward senders?
    pub fn is_pausing(&self) -> bool {
        self.pause.as_ref().is_some_and(|p| p.is_paused())
    }

    /// Whether this switch was built with flow control.
    pub fn flow_control(&self) -> bool {
        self.pause.is_some()
    }

    /// Total drops across all ports.
    pub fn total_drops(&self) -> u64 {
        self.ports.iter().map(|p| p.drops).sum()
    }

    fn update_pause(&mut self) {
        if let Some(p) = &mut self.pause {
            p.update(self.occupancy);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn switch_100g(buffer: Bytes, fc: bool) -> SharedBufferSwitch {
        SharedBufferSwitch::new(buffer, &[BitRate::gbps(100.0)], fc)
    }

    #[test]
    fn queues_serialise_fifo() {
        let mut sw = switch_100g(Bytes::mib(64), false);
        let t0 = SimTime::ZERO;
        let b = Bytes::kib(64);
        let EnqueueOutcome::Queued { departs_at: d1 } = sw.enqueue(0, b, t0) else {
            panic!("drop")
        };
        let EnqueueOutcome::Queued { departs_at: d2 } = sw.enqueue(0, b, t0) else {
            panic!("drop")
        };
        // Second burst waits for the first: departures are spaced by one
        // serialisation time.
        assert_eq!((d2 - d1).as_nanos(), BitRate::gbps(100.0).serialize_time(b).as_nanos());
        assert_eq!(sw.occupancy(), Bytes::kib(128));
        sw.departed(0, b);
        sw.departed(0, b);
        assert_eq!(sw.occupancy(), Bytes::ZERO);
    }

    #[test]
    fn tail_drop_when_shared_buffer_full() {
        let mut sw = switch_100g(Bytes::kib(100), false);
        assert!(matches!(
            sw.enqueue(0, Bytes::kib(64), SimTime::ZERO),
            EnqueueOutcome::Queued { .. }
        ));
        // 64 KiB used of 100 KiB: another 64 KiB cannot fit.
        assert_eq!(sw.enqueue(0, Bytes::kib(64), SimTime::ZERO), EnqueueOutcome::Dropped);
        assert_eq!(sw.total_drops(), 1);
    }

    #[test]
    fn shared_buffer_is_shared_across_ports() {
        let rates = [BitRate::gbps(100.0), BitRate::gbps(100.0)];
        let mut sw = SharedBufferSwitch::new(Bytes::kib(100), &rates, false);
        sw.enqueue(0, Bytes::kib(64), SimTime::ZERO);
        // Port 1 is idle but the shared pool is nearly gone.
        assert_eq!(sw.enqueue(1, Bytes::kib(64), SimTime::ZERO), EnqueueOutcome::Dropped);
    }

    #[test]
    fn pause_asserts_with_flow_control() {
        let mut sw = switch_100g(Bytes::kib(100), true);
        assert!(!sw.is_pausing());
        sw.enqueue(0, Bytes::kib(90), SimTime::ZERO); // 90 % > XOFF
        assert!(sw.is_pausing());
        sw.departed(0, Bytes::kib(90));
        assert!(!sw.is_pausing());
    }

    #[test]
    fn no_pause_without_flow_control() {
        let mut sw = switch_100g(Bytes::kib(100), false);
        sw.enqueue(0, Bytes::kib(90), SimTime::ZERO);
        assert!(!sw.is_pausing());
        assert!(!sw.flow_control());
    }

    #[test]
    fn consume_egress_delays_later_arrivals() {
        let mut sw = switch_100g(Bytes::mib(64), false);
        sw.consume_egress(0, SimDuration::from_micros(100), SimTime::ZERO);
        let EnqueueOutcome::Queued { departs_at } = sw.enqueue(0, Bytes::kib(64), SimTime::ZERO)
        else {
            panic!("drop")
        };
        assert!(departs_at.as_nanos() >= 100_000);
    }
}
