//! Checkpoint/resume bit-identity.
//!
//! The recovery contract (DESIGN.md §6f): a run that is stepped,
//! snapshotted, dropped, and resumed from the snapshot must produce a
//! report **bit-identical** to the same configuration run straight
//! through — same `(time, seq)` event order, same float bits, same
//! rendered bytes. This is what makes supervisor resume and chaos
//! recovery sound: a resumed worker is indistinguishable from one that
//! never died.
//!
//! Bit identity is asserted on both the `Debug` rendering (Rust's f64
//! formatting is shortest-round-trip exact, so equal strings ⇔ equal
//! bits) and the iperf3-style JSON dump. Fleet runs step on the same
//! loop and are held to the same contract.

use dtnperf::netsim::{
    ArrivalProcess, FleetClass, FleetProfile, FleetResult, FleetSim, Running, RunningSim, SizeDist,
};
use dtnperf::prelude::*;
use dtnperf::simcore::{BitRate, Bytes, SimDuration};
use dtnperf::tcpstack::CcAlgorithm;
use harness::supervise::Supervisor;
use iperf3sim::Iperf3Opts;

/// The golden-shape trio: clean LAN, long-RTT WAN with zerocopy, and a
/// parallel-stream run — the same path/host shapes `golden_shapes.rs`
/// locks down.
fn golden_opts() -> Vec<(&'static str, HostConfig, PathSpec, Iperf3Opts)> {
    let host = Testbeds::esnet_host(KernelVersion::L6_8);
    vec![
        (
            "lan",
            host.clone(),
            Testbeds::esnet_path(EsnetPath::Lan),
            Iperf3Opts::new(2).omit(0).seed(11),
        ),
        (
            "wan_zc",
            host.clone(),
            Testbeds::esnet_path(EsnetPath::Wan),
            Iperf3Opts::new(3).omit(1).zerocopy().seed(12),
        ),
        (
            "multi",
            host,
            Testbeds::esnet_path(EsnetPath::Lan),
            Iperf3Opts::new(2).omit(0).parallel(4).seed(13),
        ),
    ]
}

fn straight_through(
    host: &HostConfig,
    path: &PathSpec,
    opts: &Iperf3Opts,
) -> Iperf3Report {
    iperf3sim::run(host, host, path, opts).expect("straight-through run")
}

fn start(
    host: &HostConfig,
    path: &PathSpec,
    opts: &Iperf3Opts,
) -> RunningSim {
    iperf3sim::start_session(host, host, path, opts, &FaultPlan::none(), None)
        .expect("session starts")
}

/// Render a finished simulation the way `iperf3sim::run` does.
fn report(host: &HostConfig, opts: &Iperf3Opts, result: &RunResult) -> Iperf3Report {
    Iperf3Report::from_run(opts.command_line(&host.name), result)
}

fn finish(host: &HostConfig, opts: &Iperf3Opts, session: RunningSim) -> Iperf3Report {
    report(host, opts, &session.finish().expect("finish"))
}

fn assert_bit_identical(label: &str, a: &Iperf3Report, b: &Iperf3Report) {
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "'{label}': Debug bits differ");
    assert_eq!(a.to_json(), b.to_json(), "'{label}': JSON bytes differ");
}

#[test]
fn stepped_run_matches_straight_through() {
    for (label, host, path, opts) in golden_opts() {
        let reference = straight_through(&host, &path, &opts);
        let mut session = start(&host, &path, &opts);
        // Deliberately awkward chunk size: progress never lines up with
        // any internal boundary.
        while !session.step_events(777).expect("step") {}
        let stepped = finish(&host, &opts, session);
        assert_bit_identical(label, &reference, &stepped);
    }
}

#[test]
fn resume_from_checkpoint_matches_straight_through() {
    for (label, host, path, opts) in golden_opts() {
        let reference = straight_through(&host, &path, &opts);
        // Step a third of the way (by the reference event count), then
        // snapshot, drop the live session, and finish from the clone.
        let mut probe = start(&host, &path, &opts);
        while !probe.step_events(4096).expect("probe") {}
        let total_events = probe.events_done();
        drop(probe);

        let mut session = start(&host, &path, &opts);
        let stop_at = total_events / 3;
        while session.events_done() < stop_at {
            assert!(
                !session.step_events(1024).expect("step"),
                "'{label}': run ended before the checkpoint target"
            );
        }
        let checkpoint = session.checkpoint();
        assert_eq!(checkpoint.events_done(), session.events_done());
        drop(session); // the original worker "dies" here

        let mut resumed = RunningSim::resume(checkpoint);
        assert_eq!(resumed.events_done(), stop_at.max(resumed.events_done()));
        while !resumed.step_events(4096).expect("resumed step") {}
        let resumed = finish(&host, &opts, resumed);
        assert_bit_identical(label, &reference, &resumed);
    }
}

#[test]
fn checkpoint_is_a_value_resume_twice() {
    // One snapshot, two resumes: both replicas must replay the exact
    // same future. (This is what lets the supervisor keep the snapshot
    // around across multiple worker deaths.)
    let (label, host, path, opts) = golden_opts().remove(0);
    let mut session = start(&host, &path, &opts);
    for _ in 0..8 {
        assert!(!session.step_events(2048).expect("step"), "run too short for test");
    }
    let checkpoint = session.checkpoint();
    drop(session);

    let mut runs = Vec::new();
    for _ in 0..2 {
        let mut replica = RunningSim::resume(checkpoint.clone());
        while !replica.step_events(3000).expect("step") {}
        runs.push(finish(&host, &opts, replica));
    }
    assert_bit_identical(label, &runs[0], &runs[1]);
}

#[test]
fn chained_checkpoints_match_straight_through() {
    // Checkpoint → resume → checkpoint again → resume again: recovery
    // must compose (the supervisor may lose a worker more than once).
    let (label, host, path, opts) = golden_opts().remove(1);
    let reference = straight_through(&host, &path, &opts);

    let mut session = start(&host, &path, &opts);
    for _ in 0..4 {
        assert!(!session.step_events(2048).expect("step"), "run too short");
    }
    let first = session.checkpoint();
    drop(session);

    let mut session = RunningSim::resume(first);
    for _ in 0..4 {
        assert!(!session.step_events(2048).expect("step"), "run too short");
    }
    let second = session.checkpoint();
    drop(session);

    let mut session = RunningSim::resume(second);
    while !session.step_events(4096).expect("step") {}
    assert_bit_identical(label, &reference, &finish(&host, &opts, session));
}

#[test]
fn supervised_drive_is_bit_identical_to_plain_run() {
    // The supervisor's step/checkpoint loop itself must not perturb
    // results, chaos or no chaos.
    for (label, host, path, opts) in golden_opts() {
        let reference = straight_through(&host, &path, &opts);
        let supervisor = Supervisor::default().with_checkpoint_every(10_000);
        let result = supervisor
            .drive(opts.seed, || {
                iperf3sim::start_session(&host, &host, &path, &opts, &FaultPlan::none(), None)
            })
            .expect("supervised run");
        assert_bit_identical(label, &reference, &report(&host, &opts, &result));
    }
}

/// A small fleet with loss and pacing: MMPP bursts into a shallow
/// unpaced class (tail drops, retransmissions, moved and cancelled
/// loss timers) beside a paced class (`Tx` events in flight at any
/// checkpoint).
fn fleet_profile() -> FleetProfile {
    let mut p = FleetProfile::new(
        "checkpoint_fleet",
        ArrivalProcess::Mmpp2 {
            calm_rate: 2_000.0,
            burst_rate: 15_000.0,
            mean_calm_secs: 0.045,
            mean_burst_secs: 0.0015,
        },
        SizeDist::BoundedPareto { alpha: 1.2, min_bytes: 32 * 1024, max_bytes: 512 * 1024 },
    );
    p.duration = SimDuration::from_millis(800);
    p.burst = Bytes::kib(16);
    let class = |name: &str, pacing| FleetClass {
        name: name.into(),
        weight: 1,
        cc: CcAlgorithm::Cubic,
        pacing,
        rtt: SimDuration::from_micros(200),
        bottleneck: BitRate::gbps(10.0),
        buffer: Bytes::kib(320),
    };
    p.classes = vec![class("unpaced", false), class("paced", true)];
    p
}

fn assert_fleet_identical(a: &FleetResult, b: &FleetResult) {
    assert_eq!(a.events, b.events, "events");
    assert_eq!(a.timers_cancelled, b.timers_cancelled, "timers_cancelled");
    assert_eq!(a.health, b.health, "queue health");
    assert_eq!(a.fct, b.fct, "fct histogram");
    assert_eq!(a.slowdown, b.slowdown, "slowdown histogram");
    let lines = |r: &FleetResult| r.intervals.iter().map(|i| i.to_json_line()).collect::<Vec<_>>();
    assert_eq!(lines(a), lines(b), "interval JSON lines");
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "Debug bits differ");
}

#[test]
fn fleet_resumed_from_checkpoint_matches_run() {
    let fleet = || FleetSim::new(fleet_profile()).expect("profile is valid");
    let reference = fleet().run().expect("straight-through fleet run");
    assert!(reference.drops > 0 && reference.timers_cancelled > 0, "{reference:?}");

    let mut session = fleet().start();
    let stop_at = reference.events / 3;
    while session.events_done() < stop_at {
        assert!(!session.step_events(777).expect("step"), "run ended before the checkpoint target");
    }
    let checkpoint = session.checkpoint();
    assert_eq!(checkpoint.events_done(), session.events_done());
    drop(session); // the original worker "dies" here

    let mut resumed = Running::resume(checkpoint);
    while !resumed.step_events(4096).expect("resumed step") {}
    assert_fleet_identical(&reference, &resumed.finish().expect("finish"));
}
