//! Invariants and golden verdicts of the bottleneck-attribution engine.
//!
//! Two properties the harness builds on (observer neutrality —
//! attribution leaves the simulated traffic bit-identical — is pinned
//! in `observer_neutrality.rs`):
//!
//! 1. **Ledger sanity** — per-core stage busy time never exceeds the
//!    wall clock (modulo the one service span a FIFO server may book
//!    past the end), and the ledger agrees with the `mpstat`-style
//!    [`linuxhost::CpuReport`] the run already publishes.
//! 2. **Golden verdicts** — the paper's diagnosis narratives come out
//!    of the classifier: a plain-copy Intel sender is sender-app-bound,
//!    zerocopy shifts the bottleneck to the receiver, starved
//!    `optmem_max` reads as optmem-stalled, a shallow switch without
//!    flow control reads as switch-buffer loss, and an `--fq-rate` cap
//!    reads as pacing-limited.

use linuxhost::{HostConfig, KernelVersion, SysctlConfig};
use nethw::PathSpec;
use netsim::{LimitingFactor, RunResult, SimConfig, Simulation, WorkloadSpec};
use simcore::{BitRate, Bytes, SimDuration};

fn run(sender: HostConfig, receiver: HostConfig, path: PathSpec, workload: WorkloadSpec) -> RunResult {
    let cfg = SimConfig { sender, receiver, path, workload };
    Simulation::new(cfg).expect("config").run().expect("run")
}

fn amlight_lan_run(workload: WorkloadSpec) -> RunResult {
    let host = HostConfig::amlight_intel(KernelVersion::L6_8);
    run(host.clone(), host, PathSpec::lan("AmLight LAN", BitRate::gbps(100.0)), workload)
}

fn workload(secs: u64) -> WorkloadSpec {
    let mut w = WorkloadSpec::single_stream(secs);
    w.omit = SimDuration::ZERO;
    w
}

fn primary(res: &RunResult) -> LimitingFactor {
    res.attribution
        .as_ref()
        .expect("attribution enabled")
        .verdict
        .as_ref()
        .expect("at least one classified interval")
        .primary
}

/// Ledger busy time per core stays within the wall clock, and the
/// ledger reproduces the `mpstat` CPU report: with a zero omit window
/// the report's busy% × duration equals the ledger's core total (the
/// only slack is work booked at the omit instant and the final service
/// span a FIFO server may carry past the end).
#[test]
fn ledger_agrees_with_wall_clock_and_mpstat() {
    let secs = 4;
    let res = amlight_lan_run(workload(secs).with_seed(11).with_attribution());
    let attr = res.attribution.as_ref().expect("attribution");
    let dur = secs as f64;
    // One service span may straddle the end of the run; FIFO bookahead
    // beyond ~a TSQ horizon of work would mean double charging.
    let slack = 0.1;
    for (profile, report) in [
        (&attr.sender_profile, &res.sender_cpu),
        (&attr.receiver_profile, &res.receiver_cpu),
    ] {
        assert!(profile.clock_hz > 1e9, "implausible clock {}", profile.clock_hz);
        // Ledger rows: every accounted core plus the fabric pseudo-core.
        assert_eq!(profile.cores.len(), report.per_core.len() + 1);
        assert_eq!(profile.cores.last().expect("fabric row").role, "fabric");
        for (i, core) in profile.cores.iter().enumerate() {
            let busy: f64 =
                core.stage_busy.iter().map(|d| d.as_secs_f64()).sum();
            assert!(
                busy <= dur + slack,
                "core {} ({}) booked {busy:.3}s in a {dur:.0}s run",
                i,
                core.role
            );
            if let Some(pct) = report.per_core.get(i) {
                let reported = pct / 100.0 * dur;
                assert!(
                    (busy - reported).abs() < 0.05,
                    "core {} ({}): ledger {busy:.4}s vs mpstat {reported:.4}s",
                    i,
                    core.role
                );
            }
        }
    }
    // The run did real work: the sender's ledger is not empty.
    assert!(attr.sender_profile.total_busy() > SimDuration::ZERO);
}

/// Two parallel streams squeezed onto one sender app core: every
/// `write()` copy serialises behind the same CPU, like pre-3.16
/// single-threaded iperf3 (§III-B).
fn single_app_core_workload(secs: u64) -> (HostConfig, HostConfig, PathSpec, WorkloadSpec) {
    let mut sender = HostConfig::amlight_intel(KernelVersion::L6_8);
    sender.cores.app_cores.truncate(1);
    let receiver = HostConfig::amlight_intel(KernelVersion::L6_8);
    let mut w = WorkloadSpec::parallel(2, secs);
    w.omit = SimDuration::ZERO;
    (sender, receiver, PathSpec::lan("AmLight LAN", BitRate::gbps(100.0)), w)
}

/// Narrative 1a (§V-B): a plain-copy sender whose streams share one
/// application core saturates that core on the `write()` copy.
#[test]
fn copy_bound_sender_reads_as_sender_app_cpu() {
    let (sender, receiver, path, w) = single_app_core_workload(4);
    let res = run(sender, receiver, path, w.with_seed(21).with_attribution());
    assert_eq!(primary(&res), LimitingFactor::SenderAppCpu, "{:?}", verdicts(&res));
}

/// Narrative 1b: the same host with MSG_ZEROCOPY stops copying, goes
/// faster, and the bottleneck moves to the receiver's softirq cores.
#[test]
fn zerocopy_shifts_bottleneck_to_receiver() {
    let (sender, receiver, path, w) = single_app_core_workload(4);
    let copy = run(
        sender.clone(),
        receiver.clone(),
        path.clone(),
        w.clone().with_seed(22).with_attribution(),
    );
    let zc = run(sender, receiver, path, w.with_zerocopy().with_seed(22).with_attribution());
    assert_eq!(primary(&zc), LimitingFactor::ReceiverSoftirq, "{:?}", verdicts(&zc));
    assert!(
        zc.total_goodput().as_gbps() > copy.total_goodput().as_gbps() * 1.1,
        "zerocopy {:.1}G should beat copy {:.1}G",
        zc.total_goodput().as_gbps(),
        copy.total_goodput().as_gbps()
    );
}

/// Narrative 2 (Fig. 9): zerocopy against a starved `optmem_max` on a
/// long path falls back to copying most of the time — the verdict
/// names the misconfiguration, not the CPU it wastes. The path must be
/// long: completions release their optmem charge after ~1 RTT, so only
/// a WAN keeps enough notifications in flight to exhaust the budget.
#[test]
fn starved_optmem_reads_as_optmem_stalled() {
    let mut sender = HostConfig::amlight_intel(KernelVersion::L6_8);
    sender.sysctl = SysctlConfig::paper_tuned_with_optmem(Bytes::kib(20));
    let receiver = HostConfig::amlight_intel(KernelVersion::L6_8);
    let res = run(
        sender,
        receiver,
        PathSpec::wan("starved WAN", BitRate::gbps(100.0), SimDuration::from_millis(50)),
        workload(6).with_zerocopy().with_seed(23).with_attribution(),
    );
    assert_eq!(primary(&res), LimitingFactor::OptmemStalled, "{:?}", verdicts(&res));
    assert!(res.zc_fallback_fraction() > 0.25, "{}", res.zc_fallback_fraction());
}

/// Narrative 3 (Tables I/II): senders overrunning a shallow-buffered
/// switch without 802.3x read as switch-buffer loss.
#[test]
fn shallow_switch_reads_as_switch_buffer() {
    let host = HostConfig::esnet_amd(KernelVersion::L6_8);
    let path = PathSpec::lan("shallow", BitRate::gbps(10.0))
        .with_switch_buffer(Bytes::kib(256));
    let res = run(
        host.clone(),
        host,
        path,
        workload(4).with_seed(24).with_attribution(),
    );
    assert_eq!(primary(&res), LimitingFactor::SwitchBuffer, "{:?}", verdicts(&res));
    assert!(res.switch_drops > 0);
}

/// Golden: an `--fq-rate` cap well under both the link and the CPU
/// ceiling reads as pacing-limited.
#[test]
fn fq_rate_cap_reads_as_pacing_limited() {
    let host = HostConfig::esnet_amd(KernelVersion::L6_8);
    let res = run(
        host.clone(),
        host,
        PathSpec::lan("lan", BitRate::gbps(200.0)),
        workload(4).with_fq_rate(BitRate::gbps(10.0)).with_seed(25).with_attribution(),
    );
    assert_eq!(primary(&res), LimitingFactor::PacingLimited, "{:?}", verdicts(&res));
}

/// Per-interval verdicts ride on the telemetry stream: with both
/// samplers on a 1 s tick, measured-window samples carry the fresh
/// interval verdict.
#[test]
fn telemetry_samples_carry_verdicts() {
    let res = amlight_lan_run(
        workload(4)
            .with_seed(26)
            .with_attribution()
            .with_telemetry(SimDuration::from_secs(1)),
    );
    let attr = res.attribution.as_ref().expect("attribution");
    assert!(!attr.verdicts.is_empty());
    let trace = &res.telemetry.as_ref().expect("telemetry").flows[0];
    let tagged = trace.samples.values().iter().filter(|s| s.limiting.is_some()).count();
    assert!(tagged >= attr.verdicts.len().min(trace.samples.len()) - 1, "{tagged} tagged");
    // The last sample carries the final verdict.
    let (_, last) = trace.samples.last().expect("samples");
    assert_eq!(last.limiting, attr.verdicts.last().map(|(_, v)| *v));
}

fn verdicts(res: &RunResult) -> Vec<(f64, &'static str)> {
    res.attribution
        .as_ref()
        .map(|a| {
            a.verdicts
                .iter()
                .map(|(t, v)| (t.saturating_since(simcore::SimTime::ZERO).as_secs_f64(), v.name()))
                .collect()
        })
        .unwrap_or_default()
}
