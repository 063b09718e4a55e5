//! Invariants of the `ss`/`ethtool`/`mpstat`-style telemetry sampler.
//!
//! The property the rest of the stack builds on is **ledger
//! exactness**: summing every sample's `interval_bytes` reproduces the
//! flow's delivered-bytes ledger exactly, including the partial
//! interval after the last tick. Observer neutrality — sampling leaves
//! the simulated traffic bit-identical — is pinned in
//! `observer_neutrality.rs`.

use linuxhost::{HostConfig, KernelVersion};
use nethw::PathSpec;
use netsim::{CaState, RunResult, SimConfig, Simulation, WorkloadSpec};
use simcore::{BitRate, Bytes, SimDuration};

fn run(workload: WorkloadSpec) -> RunResult {
    let host = HostConfig::esnet_amd(KernelVersion::L6_8);
    let cfg = SimConfig {
        sender: host.clone(),
        receiver: host,
        path: PathSpec::lan("lan", BitRate::gbps(200.0)),
        workload,
    };
    Simulation::new(cfg).expect("config").run().expect("run")
}

/// With a zero omit window the public `FlowResult::bytes` *is* the
/// whole-run delivered ledger, so interval sums can be checked against
/// it exactly.
fn zero_omit(secs: u64) -> WorkloadSpec {
    let mut w = WorkloadSpec::single_stream(secs);
    w.omit = SimDuration::ZERO;
    w
}

#[test]
fn interval_bytes_sum_to_delivered_ledger() {
    let res = run(zero_omit(6).with_telemetry(SimDuration::from_secs(1)));
    let telemetry = res.telemetry.as_ref().expect("telemetry enabled");
    assert_eq!(telemetry.flows.len(), res.flows.len());
    for (trace, flow) in telemetry.flows.iter().zip(&res.flows) {
        assert_eq!(trace.id, flow.id);
        assert!(!trace.samples.is_empty(), "no samples for flow {}", flow.id);
        // Interval deltas must sum to the final cumulative sample…
        let (_, last) = trace.samples.last().expect("samples");
        assert_eq!(trace.total_interval_bytes(), last.delivered_bytes);
        // …and with omit = 0 that ledger is the reported flow total.
        assert_eq!(last.delivered_bytes, flow.bytes, "flow {} ledger", flow.id);
    }
}

#[test]
fn odd_tick_still_sums_exactly() {
    // 2.5 s tick over 6 s: ticks at 2.5 and 5.0, flush at 6.0 — the
    // tail interval must carry the remainder.
    let res = run(zero_omit(6).with_telemetry(SimDuration::from_millis(2500)));
    let telemetry = res.telemetry.as_ref().expect("telemetry enabled");
    let trace = &telemetry.flows[0];
    assert_eq!(trace.samples.len(), 3, "two ticks plus the end-of-run flush");
    assert_eq!(trace.total_interval_bytes(), res.flows[0].bytes);
}

#[test]
fn host_counter_deltas_sum_to_run_totals() {
    let res = run(zero_omit(6).with_telemetry(SimDuration::from_secs(1)));
    let telemetry = res.telemetry.as_ref().expect("telemetry enabled");
    let samples = telemetry.host.samples.values();
    assert!(!samples.is_empty());
    let wire: u64 = samples.iter().map(|s| s.wire_sent).sum();
    let switch: u64 = samples.iter().map(|s| s.switch_drops).sum();
    let ring: u64 = samples.iter().map(|s| s.ring_drops).sum();
    assert_eq!(wire, res.wire_sent);
    assert_eq!(switch, res.switch_drops);
    assert_eq!(ring, res.ring_drops);
    // mpstat rows cover each host's cores and report sane percentages.
    for s in samples {
        assert!(!s.sender_core_busy.is_empty());
        assert!(!s.receiver_core_busy.is_empty());
        // A service span straddling the tick can book a core slightly
        // past 100% for one interval; anything further is a real bug.
        for pct in s.sender_core_busy.iter().chain(&s.receiver_core_busy) {
            assert!((0.0..=105.0).contains(pct), "busy% out of range: {pct}");
        }
    }
}

#[test]
fn samples_look_like_ss_output() {
    let res = run(zero_omit(8).with_telemetry(SimDuration::from_secs(1)));
    let telemetry = res.telemetry.as_ref().expect("telemetry enabled");
    let trace = &telemetry.flows[0];
    for (t, s) in trace.samples.iter() {
        assert!(s.cwnd > Bytes::ZERO, "cwnd must be positive at {t:?}");
        assert!(s.srtt.is_some(), "srtt known after the first RTT at {t:?}");
        assert!(s.pacing_rate > BitRate::ZERO);
        // Recovery is transient; steady LAN slow start / avoidance only.
        assert!(matches!(
            s.ca_state,
            CaState::SlowStart | CaState::CongestionAvoidance | CaState::Recovery
        ));
    }
    // Cumulative counters never go backwards.
    for pair in trace.samples.values().windows(2) {
        assert!(pair[1].delivered_bytes >= pair[0].delivered_bytes);
        assert!(pair[1].bytes_retrans >= pair[0].bytes_retrans);
        assert!(pair[1].retr_packets >= pair[0].retr_packets);
    }
}
