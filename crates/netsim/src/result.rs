//! Run results.

use crate::attribution::Attribution;
use crate::telemetry::Telemetry;
use linuxhost::CpuReport;
use simcore::{BitRate, Bytes, SimDuration};

/// Per-flow outcome over the measured window.
#[derive(Debug, Clone)]
pub struct FlowResult {
    /// Flow index.
    pub id: usize,
    /// Bytes delivered in order to the receiving application.
    pub bytes: Bytes,
    /// Mean goodput over the measured window.
    pub goodput: BitRate,
    /// Retransmitted MTU packets (iperf3 `Retr`).
    pub retr_packets: u64,
    /// RTO events.
    pub rto_events: u64,
    /// True zerocopy sends.
    pub zc_sends: u64,
    /// Zerocopy sends that fell back to copying.
    pub zc_fallbacks: u64,
    /// Per-interval goodput samples (1-second bins).
    pub intervals: Vec<BitRate>,
}

/// Outcome of one simulation run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Per-flow results.
    pub flows: Vec<FlowResult>,
    /// Measured window length.
    pub window: SimDuration,
    /// Sender host CPU over the measured window.
    pub sender_cpu: CpuReport,
    /// Receiver host CPU over the measured window.
    pub receiver_cpu: CpuReport,
    /// Per-second CPU samples over the measured window, like running
    /// `mpstat 1` alongside the test (§III-G): `(sender %, receiver %)`
    /// combined TX/RX-cores utilisation.
    pub cpu_intervals: Vec<(f64, f64)>,
    /// Bursts tail-dropped at the switch.
    pub switch_drops: u64,
    /// Bursts dropped at the receiver NIC ring.
    pub ring_drops: u64,
    /// Bursts lost to random path loss.
    pub random_drops: u64,
    /// Bursts destroyed by injected faults (bursty-loss episodes and
    /// link flaps).
    pub fault_drops: u64,
    /// Bursts handed to the wire over the whole run, including
    /// retransmissions (the left-hand side of the conservation check).
    pub wire_sent: u64,
    /// Total events processed (diagnostics).
    pub events: u64,
    /// Release-mode pushes the event queue clamped from the past to
    /// `now`. Debug builds panic on the same condition; a non-zero
    /// count here means a causality bug was silently masked — see
    /// [`RunResult::warnings`].
    pub past_clamps: u64,
    /// Sampled `ss`/`ethtool`/`mpstat`-style time series; present only
    /// when [`crate::WorkloadSpec::telemetry`] set a tick.
    pub telemetry: Option<Telemetry>,
    /// Bottleneck attribution (per-interval verdicts + whole-run stage
    /// profiles); present only when
    /// [`crate::WorkloadSpec::attribution`] is on.
    pub attribution: Option<Attribution>,
}

impl RunResult {
    /// Sum of flow goodputs.
    pub fn total_goodput(&self) -> BitRate {
        BitRate::from_bps(self.flows.iter().map(|f| f.goodput.as_bps()).sum())
    }

    /// Sum of retransmitted packets.
    pub fn total_retr(&self) -> u64 {
        self.flows.iter().map(|f| f.retr_packets).sum()
    }

    /// Fraction of zerocopy sends that fell back (0 when zerocopy off).
    pub fn zc_fallback_fraction(&self) -> f64 {
        let zc: u64 = self.flows.iter().map(|f| f.zc_sends).sum();
        let fb: u64 = self.flows.iter().map(|f| f.zc_fallbacks).sum();
        if zc + fb == 0 { 0.0 } else { fb as f64 / (zc + fb) as f64 }
    }

    /// Run-level warnings: conditions that did not fail the run but
    /// mean its output should be treated with suspicion. Harnesses
    /// surface these next to the report.
    pub fn warnings(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.past_clamps > 0 {
            out.push(format!(
                "{} event(s) were scheduled in the past and clamped to the current \
                 time (a causality bug a debug build would panic on)",
                self.past_clamps
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linuxhost::CpuReport;

    fn flow(id: usize, gbps: f64, retr: u64) -> FlowResult {
        FlowResult {
            id,
            bytes: Bytes::new((gbps * 1e9 / 8.0) as u64),
            goodput: BitRate::gbps(gbps),
            retr_packets: retr,
            rto_events: 0,
            zc_sends: 10,
            zc_fallbacks: 30,
            intervals: vec![],
        }
    }

    fn result() -> RunResult {
        RunResult {
            flows: vec![flow(0, 10.0, 5), flow(1, 12.0, 7)],
            window: SimDuration::from_secs(1),
            sender_cpu: CpuReport::zero(16),
            receiver_cpu: CpuReport::zero(16),
            cpu_intervals: vec![(50.0, 75.0)],
            switch_drops: 1,
            ring_drops: 2,
            random_drops: 3,
            fault_drops: 4,
            wire_sent: 110,
            events: 100,
            past_clamps: 0,
            telemetry: None,
            attribution: None,
        }
    }

    #[test]
    fn aggregates() {
        let r = result();
        assert!((r.total_goodput().as_gbps() - 22.0).abs() < 1e-9);
        assert_eq!(r.total_retr(), 12);
        assert!((r.zc_fallback_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn past_clamps_become_a_warning() {
        let mut r = result();
        assert!(r.warnings().is_empty());
        r.past_clamps = 3;
        let warnings = r.warnings();
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("3 event(s)"));
        assert!(warnings[0].contains("causality"));
    }
}
