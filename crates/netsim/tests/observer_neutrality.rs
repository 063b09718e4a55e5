//! Observer neutrality of the simulator's two read-only observers.
//!
//! Telemetry sampling (the `ss`/`ethtool`/`mpstat` tick) and bottleneck
//! attribution (the per-stage cycle ledger) are bookkeeping only: a run
//! with either or both enabled produces bit-identical traffic — flows,
//! per-interval goodput, drops, CPU — to the same seed without them.
//! (`events` legitimately differs — the tick events themselves are
//! counted — so it is excluded.)

use linuxhost::{HostConfig, KernelVersion};
use nethw::PathSpec;
use netsim::{RunResult, SimConfig, Simulation, WorkloadSpec};
use simcore::{BitRate, SimDuration};

/// Observer sets: (name, telemetry on, attribution on).
const OBSERVERS: [(&str, bool, bool); 3] =
    [("telemetry", true, false), ("attribution", false, true), ("both", true, true)];

/// One observed workload.
struct Case {
    name: &'static str,
    host: HostConfig,
    path: PathSpec,
    workload: WorkloadSpec,
}

fn cases() -> Vec<Case> {
    // The user-checksum path is included because instrumentation splits
    // the write+checksum stint into two ledger charges — the completion
    // times must stay identical.
    let mut checksum = WorkloadSpec::single_stream(4).with_user_checksum().with_seed(7);
    checksum.omit = SimDuration::ZERO;
    vec![
        Case {
            name: "amlight_lan_user_checksum",
            host: HostConfig::amlight_intel(KernelVersion::L6_8),
            path: PathSpec::lan("AmLight LAN", BitRate::gbps(100.0)),
            workload: checksum,
        },
        Case {
            name: "esnet_lan_single_stream",
            host: HostConfig::esnet_amd(KernelVersion::L6_8),
            path: PathSpec::lan("lan", BitRate::gbps(200.0)),
            workload: WorkloadSpec::single_stream(6).with_seed(42),
        },
    ]
}

fn run(case: &Case, workload: WorkloadSpec) -> RunResult {
    let cfg = SimConfig {
        sender: case.host.clone(),
        receiver: case.host.clone(),
        path: case.path.clone(),
        workload,
    };
    Simulation::new(cfg).expect("config").run().expect("run")
}

/// Everything an observer could perturb, field by field. `{:?}` of an
/// f64 is shortest-round-trip exact, so equal strings mean equal bits.
fn traffic(r: &RunResult) -> Vec<(&'static str, String)> {
    let flows: Vec<_> = r
        .flows
        .iter()
        .map(|f| {
            let intervals: Vec<f64> = f.intervals.iter().map(|i| i.as_bps()).collect();
            (f.bytes.as_u64(), f.retr_packets, f.rto_events, intervals)
        })
        .collect();
    vec![
        ("flows (bytes, retr, rto, interval bps)", format!("{flows:?}")),
        ("wire_sent", r.wire_sent.to_string()),
        ("switch_drops", r.switch_drops.to_string()),
        ("ring_drops", r.ring_drops.to_string()),
        ("random_drops", r.random_drops.to_string()),
        ("fault_drops", r.fault_drops.to_string()),
        ("cpu_intervals", format!("{:?}", r.cpu_intervals)),
        ("sender_cpu", format!("{:?}", r.sender_cpu.per_core)),
        ("receiver_cpu", format!("{:?}", r.receiver_cpu.per_core)),
    ]
}

#[test]
fn observers_do_not_perturb_traffic() {
    for case in cases() {
        let base = run(&case, case.workload.clone());
        assert!(base.telemetry.is_none(), "{}: telemetry off by default", case.name);
        assert!(base.attribution.is_none(), "{}: attribution off by default", case.name);
        let base = traffic(&base);
        for (observer, telemetry, attribution) in OBSERVERS {
            let mut workload = case.workload.clone();
            if telemetry {
                workload = workload.with_telemetry(SimDuration::from_secs(1));
            }
            if attribution {
                workload = workload.with_attribution();
            }
            let observed = run(&case, workload);
            assert_eq!(observed.telemetry.is_some(), telemetry, "{} {observer}", case.name);
            assert_eq!(observed.attribution.is_some(), attribution, "{} {observer}", case.name);
            for ((field, a), (_, b)) in base.iter().zip(&traffic(&observed)) {
                assert_eq!(a, b, "{} with {observer}: {field} changed", case.name);
            }
        }
    }
}

/// FNV-1a digests of the observer outputs with telemetry and
/// attribution both on: `(case, [telemetry, attribution,
/// cpu_intervals, sender_cpu, receiver_cpu])`. Every field is hashed
/// from its `{:?}` rendering, so any change to a sampled value, a
/// verdict, a stage profile or an f64 utilisation shows up here.
const OBSERVER_DIGESTS: [(&str, [u64; 5]); 2] = [
    (
        "amlight_lan_user_checksum",
        [
            0x3528c60b43e54fbc,
            0x8b7160182070cb4b,
            0x0a1f157718155589,
            0x06001e5938a599ee,
            0x6137601efb14625e,
        ],
    ),
    (
        "esnet_lan_single_stream",
        [
            0xfb37692111645045,
            0x1d4fb1e0610cb302,
            0xf795d9346de3b1a2,
            0x4d63b7953eff635d,
            0x042cccdcce5cd803,
        ],
    ),
];

fn observer_digests(r: &RunResult) -> [u64; 5] {
    let digest = |s: String| simcore::fnv1a_64(s.as_bytes());
    [
        digest(format!("{:?}", r.telemetry)),
        digest(format!("{:?}", r.attribution)),
        digest(format!("{:?}", r.cpu_intervals)),
        digest(format!("{:?}", r.sender_cpu)),
        digest(format!("{:?}", r.receiver_cpu)),
    ]
}

#[test]
fn observer_outputs_match_pinned_digests() {
    let mut observed = Vec::new();
    for case in cases() {
        let workload =
            case.workload.clone().with_telemetry(SimDuration::from_secs(1)).with_attribution();
        observed.push((case.name, observer_digests(&run(&case, workload))));
    }
    assert_eq!(
        observed.as_slice(),
        OBSERVER_DIGESTS.as_slice(),
        "observer outputs changed; observed {observed:#x?}"
    );
}
