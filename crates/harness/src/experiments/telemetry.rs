//! `ext_telemetry` — the §III-G collection model rendered end to end.
//!
//! The paper runs `ss -tin`, `ethtool -S` and `mpstat` on a 1-second
//! tick alongside every test and reads throughput dips against cwnd
//! collapses, retransmission bursts and per-core saturation. This
//! experiment reproduces that workflow on one ESnet WAN scenario per
//! congestion-control algorithm: a single stream at 63 ms RTT, sampled
//! every second, rendered as one timeline row per interval.

use crate::ctx::RunCtx;
use crate::experiments::common;
use crate::render::TableData;
use crate::scenario::Scenario;
use crate::testbeds::{EsnetPath, Testbeds};
use iperf3sim::Iperf3Opts;
use linuxhost::KernelVersion;
use simcore::{Bytes, SimDuration};
use tcpstack::CcAlgorithm;

/// Slash-joined per-core busy% (`mpstat -P ALL` as one cell).
fn per_core_cell(cores: &[f64]) -> String {
    let parts: Vec<String> = cores.iter().map(|c| format!("{c:.0}")).collect();
    parts.join("/")
}

/// One timeline row per sampled interval, CUBIC then BBR.
pub fn timeline(ctx: &RunCtx) -> TableData {
    let effort = ctx.effort;
    let host = Testbeds::esnet_host(KernelVersion::L6_8);
    let path = Testbeds::esnet_path(EsnetPath::Wan);
    let mut table = TableData::new(
        "ext_telemetry — ss -tin / ethtool -S / mpstat timeline, single stream, ESnet WAN (63 ms)",
        vec![
            "cc",
            "t (s)",
            "cwnd (KiB)",
            "ssthresh (KiB)",
            "srtt (ms)",
            "state",
            "retr",
            "Gbps",
            "drops",
            "snd core busy%",
            "rcv core busy%",
        ],
    );
    for cc in [CcAlgorithm::Cubic, CcAlgorithm::BbrV1] {
        let opts = Iperf3Opts::new(effort.wan_secs())
            .omit(effort.omit_secs(true))
            .congestion(cc)
            .telemetry(SimDuration::from_secs(1));
        let sc = Scenario::symmetric(
            format!("ext_telemetry {}", cc.name()),
            host.clone(),
            path.clone(),
            opts,
        );
        // The timeline is one run's story, not an aggregate: a single
        // repetition per algorithm (traces for more seeds come from
        // --metrics).
        let summary = common::run_or_empty(&ctx.harness_with_reps(1), &sc);
        let Some(report) = summary.reports.first() else { continue };
        let Some(telemetry) = &report.telemetry else { continue };
        let host_samples = telemetry.host.samples.values();
        let trace = &telemetry.flows[0];
        let mut prev_t = 0.0_f64;
        for (k, (t, s)) in trace.samples.iter().enumerate() {
            let t_s = t.saturating_since(simcore::SimTime::ZERO).as_secs_f64();
            let dt = (t_s - prev_t).max(1e-9);
            prev_t = t_s;
            let gbps = s.interval_bytes.as_u64() as f64 * 8.0 / dt / 1e9;
            let (drops, snd_busy, rcv_busy) = match host_samples.get(k) {
                Some(h) => (
                    h.ring_drops + h.switch_drops + h.random_drops + h.fault_drops,
                    per_core_cell(&h.sender_core_busy),
                    per_core_cell(&h.receiver_core_busy),
                ),
                None => (0, "-".into(), "-".into()),
            };
            table.push_row(vec![
                cc.name().to_string(),
                format!("{t_s:.0}"),
                format!("{:.0}", s.cwnd.as_u64() as f64 / 1024.0),
                s.ssthresh
                    .map_or("-".into(), |b| format!("{:.0}", b.as_u64() as f64 / 1024.0)),
                s.srtt.map_or("-".into(), |d| format!("{:.1}", d.as_millis_f64())),
                s.ca_state.name().to_string(),
                s.retr_packets.to_string(),
                format!("{gbps:.1}"),
                drops.to_string(),
                snd_busy,
                rcv_busy,
            ]);
        }
        // Sanity: the rendered intervals cover the whole ledger.
        debug_assert_eq!(
            trace.total_interval_bytes(),
            trace.samples.last().map(|(_, s)| s.delivered_bytes).unwrap_or(Bytes::ZERO)
        );
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_covers_both_algorithms() {
        let table = timeline(&RunCtx::new(crate::effort::Effort::Smoke));
        assert_eq!(table.columns.len(), 11);
        let ccs: Vec<&str> = table.rows.iter().map(|r| r[0].as_str()).collect();
        assert!(ccs.contains(&"cubic"), "{ccs:?}");
        assert!(ccs.contains(&"bbr"), "{ccs:?}");
        // Smoke WAN runs 6 s on a 1 s tick: ≥4 samples per algorithm.
        assert!(ccs.iter().filter(|c| **c == "cubic").count() >= 4);
        // Every row carries a parseable throughput and srtt near the
        // 63 ms path RTT.
        for row in &table.rows {
            let gbps: f64 = row[7].parse().expect("Gbps cell");
            assert!(gbps >= 0.0);
            let srtt: f64 = row[4].parse().expect("srtt cell");
            assert!((50.0..500.0).contains(&srtt), "srtt {srtt} off a 63 ms path");
            assert!(row[9].contains('/'), "per-core cell: {}", row[9]);
        }
    }
}
