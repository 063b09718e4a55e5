//! `ext_bottleneck` — the paper's diagnosis narratives, re-diagnosed
//! by the attribution engine.
//!
//! The paper's throughput numbers all come with a *story* about what
//! limited them: the sender copying itself to death until MSG_ZEROCOPY
//! moves the wall to the receiver (§V-B), zerocopy silently falling
//! back when `optmem_max` is starved (Fig. 9), and shallow switch
//! buffers overflowing without 802.3x flow control (Tables I–II). This
//! experiment replays one scenario per narrative with bottleneck
//! attribution on and checks the engine tells the same story: a row
//! whose verdict mismatches its expectation renders `MISMATCH` and
//! counts as a failed scenario (non-zero `repro` exit).

use crate::ctx::RunCtx;
use crate::effort::Effort;
use crate::experiments::common;
use crate::render::TableData;
use crate::scenario::Scenario;
use crate::testbeds::Testbeds;
use iperf3sim::Iperf3Opts;
use linuxhost::{KernelVersion, SysctlConfig};
use nethw::PathSpec;
use simcore::{BitRate, Bytes, SimDuration};

/// One narrative row: scenario plus the verdict the paper's story
/// predicts.
struct Narrative {
    scenario: Scenario,
    expected: &'static str,
}

/// The narratives. Durations scale with effort but stay above the
/// calibrated minimums (the verdict needs a few classified intervals);
/// warm-up omit is zero so every interval is classified.
fn narratives(effort: Effort) -> Vec<Narrative> {
    let lan_secs = effort.lan_secs().max(4);
    let wan_secs = effort.wan_secs().max(6);

    // §V-B: two streams squeezed onto one sender app core (the
    // pre-3.16 single-threaded iperf3 shape) saturate that core on the
    // write() copy...
    let mut one_core_sender = Testbeds::amlight_host(KernelVersion::L6_8);
    one_core_sender.cores.app_cores.truncate(1);
    let receiver = Testbeds::amlight_host(KernelVersion::L6_8);
    let lan = PathSpec::lan("AmLight LAN", BitRate::gbps(100.0));
    let copy_bound = Scenario::new(
        "copy-bound sender",
        one_core_sender.clone(),
        receiver.clone(),
        lan.clone(),
        Iperf3Opts::new(lan_secs).omit(0).parallel(2).attribution(),
    );
    // ...and MSG_ZEROCOPY relieves the copy, moving the wall to the
    // receiver's softirq cores.
    let zerocopy_shift = Scenario::new(
        "zerocopy shifts to receiver",
        one_core_sender,
        receiver,
        lan,
        Iperf3Opts::new(lan_secs).omit(0).parallel(2).zerocopy().attribution(),
    );

    // Fig. 9: zerocopy on a long path against a starved optmem_max
    // budget falls back to copying; the verdict names the sysctl, not
    // the CPU it burns. The path must be long — completions release
    // their optmem charge after ~1 RTT, so only a WAN pins enough
    // notifications to exhaust the budget.
    let mut starved_sender = Testbeds::amlight_host(KernelVersion::L6_8);
    starved_sender.sysctl = SysctlConfig::paper_tuned_with_optmem(Bytes::kib(20));
    let optmem_starved = Scenario::new(
        "optmem-starved zerocopy",
        starved_sender,
        Testbeds::amlight_host(KernelVersion::L6_8),
        PathSpec::wan("starved WAN", BitRate::gbps(100.0), SimDuration::from_millis(50)),
        Iperf3Opts::new(wan_secs).omit(0).zerocopy().attribution(),
    );

    // Tables I–II: overrunning a shallow-buffered switch with no
    // 802.3x flow control reads as switch-buffer loss.
    let switch_overflow = Scenario::symmetric(
        "no-FC switch overflow",
        Testbeds::esnet_host(KernelVersion::L6_8),
        PathSpec::lan("shallow switch", BitRate::gbps(10.0)).with_switch_buffer(Bytes::kib(256)),
        Iperf3Opts::new(lan_secs).omit(0).attribution(),
    );

    vec![
        Narrative { scenario: copy_bound, expected: "sender_app_cpu" },
        Narrative { scenario: zerocopy_shift, expected: "receiver_softirq" },
        Narrative { scenario: optmem_starved, expected: "optmem_stalled" },
        Narrative { scenario: switch_overflow, expected: "switch_buffer" },
    ]
}

/// Run the narratives; one table row per scenario.
pub fn diagnosis(ctx: &RunCtx) -> TableData {
    let mut table = TableData::new(
        "ext_bottleneck — attribution engine vs the paper's diagnosis narratives",
        vec!["scenario", "Gbps", "zc fallback", "verdict", "share", "expected", "agrees"],
    );
    // Each narrative is one run's diagnosis, not an aggregate (more
    // seeds come from --metrics); the verdict must be stable per seed.
    let harness = ctx.harness_with_reps(1);
    for Narrative { scenario, expected } in narratives(ctx.effort) {
        let summary = common::run_or_empty(&harness, &scenario);
        let verdict = summary
            .reports
            .first()
            .and_then(|r| r.attribution.as_ref())
            .and_then(|a| a.verdict.as_ref());
        let (name, share) = match verdict {
            Some(v) => (v.primary.name(), format!("{:.0}%", v.primary_share() * 100.0)),
            None => ("-", "-".into()),
        };
        let agrees = name == expected;
        if !agrees {
            ctx.ledger.record_failure(
                &scenario.label,
                format!("verdict '{name}' contradicts the narrative's '{expected}'"),
            );
        }
        table.push_row(vec![
            scenario.label.clone(),
            format!("{:.1}", summary.mean_gbps()),
            format!("{:.2}", summary.zc_fallback),
            name.to_string(),
            share,
            expected.to_string(),
            if agrees { "yes".into() } else { "MISMATCH".into() },
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn narratives_agree_at_smoke_effort() {
        let ctx = RunCtx::new(Effort::Smoke);
        let table = diagnosis(&ctx);
        assert_eq!(table.rows.len(), 4);
        for row in &table.rows {
            assert_eq!(row[6], "yes", "{row:?}");
            assert_eq!(row[3], row[5], "{row:?}");
            let gbps: f64 = row[1].parse().expect("Gbps cell");
            assert!(gbps > 1.0, "{row:?}");
        }
        // The optmem narrative actually starved (Fig. 9's mechanism,
        // not a CPU ceiling in disguise).
        let optmem = &table.rows[2];
        let fallback: f64 = optmem[2].parse().expect("fallback cell");
        assert!(fallback > 0.25, "{optmem:?}");
        assert_eq!(ctx.ledger.failed_scenarios(), Vec::<String>::new());
    }
}
