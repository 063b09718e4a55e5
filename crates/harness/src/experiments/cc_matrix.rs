//! `ext_cc_matrix` — the congestion-control variant matrix.
//!
//! ROADMAP item 4: sweep every `CcAlgorithm` across RTT {1, 25, 100,
//! 200 ms} × Gilbert–Elliott bursty loss (the PR 1 fault plan) ×
//! switch-buffer depth on the ESnet fabric, one goodput/retransmit row
//! per cell, with the per-interval steady-state column folded through
//! the `obs` interval machinery (`metrics::aggregate_report_intervals`).
//!
//! The cells then feed *ordering verdicts* — the published rankings
//! from the high-BDP variant study (arXiv:1610.03534) and the paper's
//! §IV-F observations, the same contract `tests/cc_matrix_golden.rs`
//! pins at the unit level:
//!
//! * all variants converge on the clean 1 ms deep-buffered LAN;
//! * H-TCP ramps at least as fast as CUBIC at 200 ms RTT;
//! * BBR crosses above CUBIC under bursty loss at high RTT;
//! * loss-blind BBRv1 retransmits at least as much as bounded BBRv3.
//!
//! A failed ordering renders `MISMATCH` and counts as a failed
//! scenario, so `repro ext_cc_matrix` exits non-zero on a ranking
//! regression.

use crate::ctx::RunCtx;
use crate::experiments::common;
use crate::metrics::aggregate_report_intervals;
use crate::render::TableData;
use crate::scenario::Scenario;
use crate::testbeds::Testbeds;
use iperf3sim::Iperf3Opts;
use linuxhost::KernelVersion;
use nethw::PathSpec;
use netsim::FaultPlan;
use simcore::{BitRate, Bytes, SimDuration};
use std::collections::HashMap;
use tcpstack::CcAlgorithm;

/// RTT axis of the sweep (milliseconds).
pub const RTT_AXIS_MS: [u64; 4] = [1, 25, 100, 200];

/// Bottleneck rate of the matrix fabric. 10 G keeps one cell's event
/// count small enough that the 64-cell grid stays CI-sized while the
/// 200 ms × 10 G BDP (250 MB) is still deep enough to separate the
/// variants.
const MATRIX_RATE_GBPS: f64 = 10.0;

/// Per-burst drop probability in the Gilbert–Elliott bad state (the
/// good/bad sojourn times come from the PR 1 fault-plan defaults).
const GE_LOSS_BAD: f64 = 0.02;

/// One cell of the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CellKey {
    cc: CcAlgorithm,
    rtt_ms: u64,
    lossy: bool,
    shallow: bool,
}

impl CellKey {
    fn label(self) -> String {
        format!(
            "ccmatrix {} {}ms {} {}",
            self.cc.name(),
            self.rtt_ms,
            if self.lossy { "ge-loss" } else { "clean" },
            if self.shallow { "shallow" } else { "deep" },
        )
    }
}

/// Measured outcome of one cell.
#[derive(Debug, Clone, Copy)]
struct CellResult {
    gbps: f64,
    retr: f64,
}

/// The matrix path: ESnet-fabric switch (64 MB shared buffer, or a
/// 2 MB shallow slice of it) in front of a 10 G bottleneck at the
/// given RTT.
fn matrix_path(rtt_ms: u64, shallow: bool) -> PathSpec {
    let depth = if shallow { Bytes::mib(2) } else { Bytes::mib(64) };
    PathSpec::wan(
        format!("ccmatrix {rtt_ms}ms {}", if shallow { "shallow" } else { "deep" }),
        BitRate::gbps(MATRIX_RATE_GBPS),
        SimDuration::from_millis(rtt_ms),
    )
    .with_switch_buffer(depth)
}

/// Steady-state per-interval goodput (Mbps): fold the first report
/// through the obs interval aggregator and take the median interval
/// p50 over the second half of the series (the first half carries
/// slow start).
fn steady_p50_mbps(summary: &crate::runner::TestSummary) -> u64 {
    let Some(report) = summary.reports.first() else { return 0 };
    let series = aggregate_report_intervals(report).finish();
    let mut vals: Vec<u64> = series[series.len() / 2..]
        .iter()
        .filter_map(|rec| rec.metrics.get("goodput_mbps").and_then(|h| h.quantile(0.5)))
        .collect();
    vals.sort_unstable();
    vals.get(vals.len() / 2).copied().unwrap_or(0)
}

/// One ordering verdict: a named cross-cell inequality.
struct Ordering {
    name: &'static str,
    detail: String,
    holds: bool,
}

/// Evaluate the golden orderings against the measured grid (every
/// cell of the sweep).
fn orderings(cells: &HashMap<CellKey, CellResult>) -> Vec<Ordering> {
    let get = |cc: CcAlgorithm, rtt_ms: u64, lossy: bool, shallow: bool| {
        cells[&CellKey { cc, rtt_ms, lossy, shallow }]
    };
    let mut out = Vec::new();

    // Clean 1 ms deep-buffered LAN: every variant within 25 % of the
    // best (no algorithm should matter when nothing is scarce).
    let lan = CcAlgorithm::ALL.map(|cc| get(cc, 1, false, false).gbps);
    let best = lan.iter().fold(0.0_f64, |a, g| a.max(*g));
    let worst = lan.iter().fold(f64::INFINITY, |a, g| a.min(*g));
    out.push(Ordering {
        name: "converge@1ms-clean-deep",
        detail: format!("min {worst:.2} / max {best:.2} Gbps"),
        holds: best > 0.0 && worst >= best * 0.75,
    });

    // H-TCP ≥ CUBIC ramp-up at 200 ms RTT (the arXiv:1610.03534
    // high-BDP ranking). Measured on the clean deep cell: in a short
    // window the mean goodput IS the ramp speed — H-TCP's RTT-scaled
    // quadratic increase must not trail CUBIC's HyStart-clamped ramp.
    // (The lossy 200 ms cells are excluded on purpose: with a
    // Gilbert–Elliott burst nearly every round trip both loss-based
    // controllers pin at the floor and the comparison is noise.)
    let h = get(CcAlgorithm::Htcp, 200, false, false);
    let c = get(CcAlgorithm::Cubic, 200, false, false);
    out.push(Ordering {
        name: "htcp>=cubic@200ms-ramp",
        detail: format!("htcp {:.2} vs cubic {:.2} Gbps", h.gbps, c.gbps),
        holds: h.gbps >= c.gbps * 0.9,
    });

    // BBR vs CUBIC crossover: loss-based CUBIC caves to bursty loss at
    // high RTT, model-based BBR does not.
    let b = get(CcAlgorithm::BbrV1, 100, true, false);
    let c = get(CcAlgorithm::Cubic, 100, true, false);
    out.push(Ordering {
        name: "bbr>=cubic@100ms-ge",
        detail: format!("bbr {:.2} vs cubic {:.2} Gbps", b.gbps, c.gbps),
        holds: b.gbps >= c.gbps,
    });

    // §IV-F: BBRv1 "retransmitted more (especially BBRv1)" — summed
    // over the lossy cells, bounded BBRv3 must not out-retransmit
    // loss-blind v1 (10 % slack).
    let lossy_retr = |cc: CcAlgorithm| -> f64 {
        let mut sum = 0.0;
        for rtt in RTT_AXIS_MS {
            for shallow in [false, true] {
                sum += get(cc, rtt, true, shallow).retr;
            }
        }
        sum
    };
    let (v1, v3) = (lossy_retr(CcAlgorithm::BbrV1), lossy_retr(CcAlgorithm::BbrV3));
    out.push(Ordering {
        name: "bbr3-retr<=bbr1@ge",
        detail: format!("bbr3 {v3:.0} vs bbr {v1:.0} retr"),
        holds: v3 <= v1 * 1.1 + 8.0,
    });
    out
}

/// Run the sweep; one row per cell plus one verdict row per ordering.
pub fn matrix(ctx: &RunCtx) -> TableData {
    let mut table = TableData::new(
        "ext_cc_matrix — CC variant × RTT × Gilbert–Elliott loss × buffer depth, 10 G ESnet fabric",
        vec!["cc", "rtt", "loss", "buffer", "Gbps", "retr", "steady p50 Mbps", "verdict"],
    );
    let effort = ctx.effort;
    let secs = effort.wan_secs();
    let host = Testbeds::esnet_host(KernelVersion::L6_8);

    // Build the grid in sweep order: rtt → loss → buffer → variant.
    let mut keys = Vec::new();
    let mut scenarios = Vec::new();
    for rtt_ms in RTT_AXIS_MS {
        for lossy in [false, true] {
            for shallow in [false, true] {
                for cc in CcAlgorithm::ALL {
                    let key = CellKey { cc, rtt_ms, lossy, shallow };
                    let opts = Iperf3Opts::new(secs)
                        .omit(effort.omit_secs(true))
                        .congestion(cc);
                    let mut sc = Scenario::symmetric(
                        key.label(),
                        host.clone(),
                        matrix_path(rtt_ms, shallow),
                        opts,
                    );
                    if lossy {
                        // Gilbert–Elliott bursty loss from 1 s to the
                        // end of the run (PR 1 fault plan: 10 ms bad /
                        // 50 ms good sojourns).
                        sc = sc.with_faults(FaultPlan::none().with_bursty_loss(
                            SimDuration::from_secs(1),
                            SimDuration::from_secs(secs.saturating_sub(1)),
                            GE_LOSS_BAD,
                        ));
                    }
                    keys.push(key);
                    scenarios.push(sc);
                }
            }
        }
    }

    let summaries = common::run_batch_or_empty(&ctx.harness(), &scenarios);
    let mut cells: HashMap<CellKey, CellResult> = HashMap::new();
    for (key, summary) in keys.iter().zip(&summaries) {
        let gbps = summary.mean_gbps();
        let retr = summary.mean_retr();
        let p50 = steady_p50_mbps(summary);
        // Per-cell sanity: goodput must exist and respect the physics.
        let sane = gbps > 0.0 && gbps <= MATRIX_RATE_GBPS * 1.05;
        if !sane {
            ctx.ledger.record_failure(
                &key.label(),
                format!("goodput {gbps:.2} Gbps outside (0, {MATRIX_RATE_GBPS}]"),
            );
        }
        cells.insert(*key, CellResult { gbps, retr });
        table.push_row(vec![
            key.cc.name().to_string(),
            format!("{}ms", key.rtt_ms),
            if key.lossy { "ge".into() } else { "clean".into() },
            if key.shallow { "shallow".into() } else { "deep".into() },
            format!("{gbps:.2}"),
            format!("{retr:.0}"),
            p50.to_string(),
            if sane { "ok".into() } else { "MISMATCH".into() },
        ]);
    }

    // Cross-cell golden orderings, one verdict row each.
    for o in orderings(&cells) {
        if !o.holds {
            ctx.ledger.record_failure(
                o.name,
                format!("ordering violated: {}", o.detail),
            );
        }
        table.push_row(vec![
            "ordering".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            format!("{}: {}", o.name, o.detail),
            if o.holds { "ok".into() } else { "MISMATCH".into() },
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::effort::Effort;

    #[test]
    fn matrix_covers_all_variants_and_orderings_at_smoke() {
        let ctx = RunCtx::new(Effort::Smoke);
        let table = matrix(&ctx);
        // 4 variants × 4 RTTs × 2 loss × 2 buffers, plus ordering rows.
        let cell_rows: Vec<_> = table.rows.iter().filter(|r| r[0] != "ordering").collect();
        assert_eq!(cell_rows.len(), 64);
        for cc in CcAlgorithm::ALL {
            assert!(cell_rows.iter().any(|r| r[0] == cc.name()), "{} missing", cc.name());
        }
        let ordering_rows: Vec<_> = table.rows.iter().filter(|r| r[0] == "ordering").collect();
        assert_eq!(ordering_rows.len(), 4);
        for row in &table.rows {
            assert_eq!(row[7], "ok", "{row:?}");
        }
        assert_eq!(ctx.ledger.failed_scenarios(), Vec::<String>::new());
    }

    #[test]
    fn steady_column_is_the_same_with_and_without_telemetry() {
        // Telemetry is sampled on the simulation's time base, which
        // starts `omit` seconds before the goodput bins: the steady
        // column must fold the goodput alone, so whether an observer
        // rode along cannot move it.
        use crate::testbeds::EsnetPath;
        let host = Testbeds::esnet_host(KernelVersion::L6_8);
        let path = Testbeds::esnet_path(EsnetPath::Wan);
        let opts = Iperf3Opts::new(4).omit(2).telemetry(SimDuration::from_secs(1));
        let traced = iperf3sim::run(&host, &host, &path, &opts).expect("run");
        assert!(traced.telemetry.is_some());
        let mut plain = traced.clone();
        plain.telemetry = None;
        let series = |r| aggregate_report_intervals(r).finish();
        assert_eq!(series(&traced), series(&plain));
        let summary = |r: &iperf3sim::Iperf3Report| {
            let mut s = crate::runner::TestSummary::empty("steady");
            s.reports.push(r.clone());
            s
        };
        assert_eq!(steady_p50_mbps(&summary(&traced)), steady_p50_mbps(&summary(&plain)));
    }
}
