//! In-run telemetry: the simulator's `ss -tin` / `ethtool -S` /
//! `mpstat` companion streams (§III-G).
//!
//! The paper's collection model runs three samplers on a fixed tick
//! alongside every test: `ss -tin` for per-flow `tcp_info` (cwnd,
//! ssthresh, srtt, retransmissions, pacing rate, CA state),
//! `ethtool -S` for NIC/switch counters, and `mpstat` for per-core
//! utilisation. This module reproduces that model inside the event
//! loop: when [`crate::WorkloadSpec::telemetry`] is set, the runner
//! schedules a sampling tick and records one [`TcpInfoSample`] per
//! flow and one [`HostSample`] per tick.
//!
//! Sampling is strictly read-only — it never touches flow state, the
//! RNG, or the event dynamics — so a run with telemetry enabled
//! reproduces the exact same traffic as the same seed without it.
//! When disabled (the default) no tick is scheduled and nothing
//! allocates: the only cost is one `Option` discriminant in the
//! runner.

use crate::attribution::LimitingFactor;
use crate::sim::Snapshot;
use simcore::{BitRate, Bytes, SimDuration, TimeSeries};

/// Sender congestion-avoidance state, as `ss -tin` would name it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaState {
    /// Exponential startup (including HyStart++ CSS).
    SlowStart,
    /// Steady-state congestion avoidance.
    CongestionAvoidance,
    /// SACK/TLP loss recovery in progress.
    Recovery,
}

impl CaState {
    /// Lowercase wire name for traces ("slow_start", …).
    pub fn name(self) -> &'static str {
        match self {
            CaState::SlowStart => "slow_start",
            CaState::CongestionAvoidance => "congestion_avoidance",
            CaState::Recovery => "recovery",
        }
    }
}

/// One `ss -tin`-style snapshot of a flow.
#[derive(Debug, Clone)]
pub struct TcpInfoSample {
    /// Congestion window.
    pub cwnd: Bytes,
    /// Slow-start threshold (`None` = still infinite / not applicable).
    pub ssthresh: Option<Bytes>,
    /// Smoothed RTT (`None` before the first sample).
    pub srtt: Option<SimDuration>,
    /// The rate the sender is pacing itself at right now.
    pub pacing_rate: BitRate,
    /// Congestion-avoidance state.
    pub ca_state: CaState,
    /// Cumulative retransmitted bytes (burst-granular, like
    /// `bytes_retrans`).
    pub bytes_retrans: Bytes,
    /// Cumulative retransmitted MTU segments (iperf3's `Retr`).
    pub retr_packets: u64,
    /// Cumulative bytes delivered in order to the receiving
    /// application.
    pub delivered_bytes: Bytes,
    /// Bytes delivered within this sample's interval. Summed over a
    /// whole trace this reproduces [`TcpInfoSample::delivered_bytes`]
    /// of the final sample exactly — the interval-vs-ledger invariant
    /// the tests pin down.
    pub interval_bytes: Bytes,
    /// The most recent per-interval bottleneck verdict, when
    /// [`crate::WorkloadSpec::attribution`] is on and at least one
    /// interval has been classified.
    pub limiting: Option<LimitingFactor>,
}

/// One `ethtool -S` + `mpstat`-style host snapshot. All counters are
/// deltas over the sample interval, the way `ethtool -S` output is
/// consumed in practice.
#[derive(Debug, Clone)]
pub struct HostSample {
    /// Bursts dropped at the receiver NIC ring this interval.
    pub ring_drops: u64,
    /// Bursts tail-dropped (or RED-dropped) at the switch.
    pub switch_drops: u64,
    /// Bursts lost to random path loss.
    pub random_drops: u64,
    /// Bursts destroyed by injected faults.
    pub fault_drops: u64,
    /// Pause-frame holds: bursts parked upstream by 802.3x flow
    /// control (pause storms included) this interval.
    pub pause_frames: u64,
    /// Bursts handed to the wire (incl. retransmissions).
    pub wire_sent: u64,
    /// Per-core busy% on the sending host over the interval
    /// (`mpstat -P ALL` rows).
    pub sender_core_busy: Vec<f64>,
    /// Per-core busy% on the receiving host over the interval.
    pub receiver_core_busy: Vec<f64>,
}

/// The per-flow telemetry stream.
#[derive(Debug, Clone)]
pub struct FlowTrace {
    /// Flow index (matches [`crate::FlowResult::id`]).
    pub id: usize,
    /// Samples, one per tick (plus a final partial-interval flush).
    pub samples: TimeSeries<TcpInfoSample>,
}

impl FlowTrace {
    /// Sum of per-interval delivered bytes across the whole trace.
    pub fn total_interval_bytes(&self) -> Bytes {
        self.samples
            .values()
            .iter()
            .fold(Bytes::ZERO, |acc, s| acc + s.interval_bytes)
    }
}

/// The host/NIC/switch telemetry stream.
#[derive(Debug, Clone, Default)]
pub struct HostTrace {
    /// Samples, one per tick (plus a final partial-interval flush).
    pub samples: TimeSeries<HostSample>,
}

/// A full run's telemetry: what `ss`/`ethtool`/`mpstat` would have
/// collected alongside the test.
#[derive(Debug, Clone)]
pub struct Telemetry {
    /// The sampling tick the run used.
    pub tick: SimDuration,
    /// One trace per flow.
    pub flows: Vec<FlowTrace>,
    /// The host counter/CPU trace.
    pub host: HostTrace,
}

/// Cumulative drop/wire counters, used to form per-interval deltas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct CounterSnapshot {
    pub(crate) ring_drops: u64,
    pub(crate) switch_drops: u64,
    pub(crate) random_drops: u64,
    pub(crate) fault_drops: u64,
    pub(crate) pause_frames: u64,
    pub(crate) wire_sent: u64,
}

/// The live sampler owned by the runner while telemetry is enabled.
///
/// Holds the accumulated traces plus the previous sample's
/// [`Snapshot`], against which each new one becomes `ethtool`-style
/// deltas.
#[derive(Debug, Clone)]
pub(crate) struct TelemetrySampler {
    tick: SimDuration,
    flows: Vec<FlowTrace>,
    host: HostTrace,
    /// The counters at the previous sample (the run's start before the
    /// first one).
    prev: Snapshot,
}

impl TelemetrySampler {
    pub(crate) fn new(tick: SimDuration, start: Snapshot) -> Self {
        TelemetrySampler {
            tick,
            flows: (0..start.delivered.len())
                .map(|id| FlowTrace { id, samples: TimeSeries::new() })
                .collect(),
            host: HostTrace::default(),
            prev: start,
        }
    }

    /// The configured sampling interval.
    pub(crate) fn tick(&self) -> SimDuration {
        self.tick
    }

    /// The counters at the previous sample.
    pub(crate) fn prev(&self) -> &Snapshot {
        &self.prev
    }

    /// Record one sample at `cur.t`: one [`TcpInfoSample`] per flow,
    /// from `infos` in flow order, and one [`HostSample`] whose
    /// counters are deltas against the previous sample. `snd_pct` and
    /// `rcv_pct` are the per-core busy% since then. `cur` becomes the
    /// previous sample.
    pub(crate) fn record(
        &mut self,
        cur: Snapshot,
        burst: Bytes,
        infos: impl Iterator<Item = FlowInfo>,
        snd_pct: Vec<f64>,
        rcv_pct: Vec<f64>,
    ) {
        let now = cur.t;
        for ((trace, info), (&delivered, &mark)) in
            self.flows.iter_mut().zip(infos).zip(cur.delivered.iter().zip(&self.prev.delivered))
        {
            trace.samples.push(
                now,
                TcpInfoSample {
                    cwnd: info.cwnd,
                    ssthresh: info.ssthresh,
                    srtt: info.srtt,
                    pacing_rate: info.pacing_rate,
                    ca_state: info.ca_state,
                    bytes_retrans: info.bytes_retrans,
                    retr_packets: info.retr_packets,
                    delivered_bytes: Bytes::new(delivered * burst.as_u64()),
                    interval_bytes: Bytes::new((delivered - mark) * burst.as_u64()),
                    limiting: info.limiting,
                },
            );
        }
        let (c, mark) = (cur.counters, self.prev.counters);
        self.host.samples.push(
            now,
            HostSample {
                ring_drops: c.ring_drops - mark.ring_drops,
                switch_drops: c.switch_drops - mark.switch_drops,
                random_drops: c.random_drops - mark.random_drops,
                fault_drops: c.fault_drops - mark.fault_drops,
                pause_frames: c.pause_frames - mark.pause_frames,
                wire_sent: c.wire_sent - mark.wire_sent,
                sender_core_busy: snd_pct,
                receiver_core_busy: rcv_pct,
            },
        );
        self.prev = cur;
    }

    /// Freeze into the public [`Telemetry`] result.
    pub(crate) fn finish(self) -> Telemetry {
        Telemetry { tick: self.tick, flows: self.flows, host: self.host }
    }
}

/// The per-flow fields the runner reads out of the TCP stack for one
/// sample (grouped so `sample_flow` stays reviewable).
#[derive(Debug, Clone)]
pub(crate) struct FlowInfo {
    pub(crate) cwnd: Bytes,
    pub(crate) ssthresh: Option<Bytes>,
    pub(crate) srtt: Option<SimDuration>,
    pub(crate) pacing_rate: BitRate,
    pub(crate) ca_state: CaState,
    pub(crate) bytes_retrans: Bytes,
    pub(crate) retr_packets: u64,
    pub(crate) limiting: Option<LimitingFactor>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimTime;

    fn at(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    fn info(cwnd: u64) -> FlowInfo {
        FlowInfo {
            cwnd: Bytes::new(cwnd),
            ssthresh: None,
            srtt: Some(SimDuration::from_millis(10)),
            pacing_rate: BitRate::gbps(10.0),
            ca_state: CaState::SlowStart,
            bytes_retrans: Bytes::ZERO,
            retr_packets: 0,
            limiting: Some(LimitingFactor::CwndLimited),
        }
    }

    fn snap(secs: u64, delivered: Vec<u64>, counters: CounterSnapshot) -> Snapshot {
        Snapshot { t: at(secs), delivered, counters, ..Default::default() }
    }

    #[test]
    fn flow_interval_deltas_sum_to_ledger() {
        let burst = Bytes::new(1000);
        let start = snap(0, vec![0], CounterSnapshot::default());
        let mut s = TelemetrySampler::new(SimDuration::from_secs(1), start);
        // The third interval is idle.
        for (secs, delivered) in [(1, 10), (2, 25), (3, 25), (4, 40)] {
            let cur = snap(secs, vec![delivered], CounterSnapshot::default());
            s.record(cur, burst, std::iter::once(info(secs)), vec![], vec![]);
        }
        assert_eq!(s.prev().t, at(4));
        let t = s.finish();
        let trace = &t.flows[0];
        assert_eq!(trace.total_interval_bytes(), Bytes::new(40_000));
        let last = trace.samples.last().expect("samples");
        assert_eq!(last.1.delivered_bytes, Bytes::new(40_000));
        assert_eq!(trace.samples.len(), 4);
    }

    #[test]
    fn host_counters_are_deltas() {
        let start = snap(0, vec![], CounterSnapshot::default());
        let mut s = TelemetrySampler::new(SimDuration::from_secs(1), start);
        let c1 = CounterSnapshot { switch_drops: 5, wire_sent: 100, ..Default::default() };
        s.record(snap(1, vec![], c1), Bytes::new(1), std::iter::empty(), vec![50.0], vec![60.0]);
        let c2 = CounterSnapshot { switch_drops: 9, wire_sent: 250, ..Default::default() };
        s.record(snap(2, vec![], c2), Bytes::new(1), std::iter::empty(), vec![55.0], vec![65.0]);
        let t = s.finish();
        let vals = t.host.samples.values();
        assert_eq!(vals[0].switch_drops, 5);
        assert_eq!(vals[1].switch_drops, 4);
        assert_eq!(vals[0].wire_sent, 100);
        assert_eq!(vals[1].wire_sent, 150);
        assert_eq!(vals[1].sender_core_busy, vec![55.0]);
    }

    #[test]
    fn ca_state_names_are_stable() {
        assert_eq!(CaState::SlowStart.name(), "slow_start");
        assert_eq!(CaState::CongestionAvoidance.name(), "congestion_avoidance");
        assert_eq!(CaState::Recovery.name(), "recovery");
    }
}
