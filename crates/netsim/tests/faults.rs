//! Integration tests for the fault-injection subsystem and the
//! simulation watchdogs.
//!
//! Every fault class is driven through a real end-to-end run; the
//! assertions check that the *recovery* emerges from the modelled TCP
//! machinery (drops counted, throughput dented but nonzero, run
//! completing with the conservation check green).

use linuxhost::{HostConfig, KernelVersion, SysctlConfig};
use nethw::PathSpec;
use netsim::{FaultPlan, SimConfig, SimError, Simulation, WorkloadSpec};
use simcore::{BitRate, SimDuration};

fn lan(workload: WorkloadSpec) -> SimConfig {
    SimConfig {
        sender: HostConfig::amlight_intel(KernelVersion::L6_8),
        receiver: HostConfig::amlight_intel(KernelVersion::L6_8),
        path: PathSpec::lan("amlight-lan", BitRate::gbps(100.0)),
        workload,
    }
}

fn run(workload: WorkloadSpec) -> netsim::RunResult {
    Simulation::new(lan(workload)).expect("config").run().expect("run")
}

fn clean_gbps(secs: u64) -> f64 {
    run(WorkloadSpec::single_stream(secs)).total_goodput().as_gbps()
}

#[test]
fn bursty_loss_episode_drops_bursts_and_forces_retransmits() {
    let plan = FaultPlan::none().with_bursty_loss(
        SimDuration::from_secs(1),
        SimDuration::from_millis(600),
        0.5,
    );
    let res = run(WorkloadSpec::single_stream(3).with_faults(plan));
    assert!(res.fault_drops > 0, "GE bad state must destroy bursts");
    assert!(res.total_retr() > 0, "lost bursts must be retransmitted");
    assert!(
        res.total_goodput().as_gbps() > 1.0,
        "the flow must survive the episode: {:.1} Gbps",
        res.total_goodput().as_gbps()
    );
}

#[test]
fn link_flap_costs_throughput_then_recovers() {
    let clean = clean_gbps(3);
    let plan = FaultPlan::none()
        .with_link_flap(SimDuration::from_secs(1), SimDuration::from_millis(200));
    let res = run(WorkloadSpec::single_stream(3).with_faults(plan));
    let flapped = res.total_goodput().as_gbps();
    assert!(res.fault_drops > 0, "bursts in flight during the outage are lost");
    assert!(flapped < clean, "a 200 ms outage must cost throughput: {flapped:.1} vs {clean:.1}");
    assert!(flapped > clean * 0.3, "RTO + slow start must recover the flow: {flapped:.1}");
}

#[test]
fn receiver_stall_closes_the_window_and_reopens() {
    let clean = clean_gbps(3);
    let plan = FaultPlan::none()
        .with_receiver_stall(SimDuration::from_secs(1), SimDuration::from_millis(300));
    let res = run(WorkloadSpec::single_stream(3).with_faults(plan));
    let stalled = res.total_goodput().as_gbps();
    assert!(stalled < clean, "a 300 ms zero-window must cost throughput: {stalled:.1} vs {clean:.1}");
    assert!(stalled > 1.0, "the window update must restart the flow: {stalled:.1}");
}

#[test]
fn pause_storm_parks_arrivals_and_the_flow_survives() {
    let plan = FaultPlan::none()
        .with_pause_storm(SimDuration::from_secs(1), SimDuration::from_millis(300));
    let res = run(WorkloadSpec::single_stream(3).with_faults(plan));
    // Without 802.3x on the path, everything the storm holds upstream
    // is re-fed to an already-overrun ring when it clears.
    assert!(res.ring_drops > 0, "post-storm refeed must hit the ring counter");
    assert!(res.total_goodput().as_gbps() > 1.0, "flow must survive the storm");
}

#[test]
fn pause_buffer_overflow_is_counted_as_ring_drops() {
    // An 802.3x edge can park at most one advertised receive window
    // per socket. A storm XOFFs the edge for two sockets at once on a
    // stock-sysctl receiver (small rmem, so a small pause buffer): two
    // windows' worth of arrivals park against one window's capacity.
    // On a flow-controlled path ring overruns park instead of drop, so
    // every ring_drop here can only come from pause-buffer overflow.
    let plan = FaultPlan::none()
        .with_pause_storm(SimDuration::from_secs(1), SimDuration::from_millis(300));
    let cfg = SimConfig {
        sender: HostConfig::amlight_intel(KernelVersion::L6_8),
        receiver: HostConfig::amlight_intel(KernelVersion::L6_8)
            .with_sysctl(SysctlConfig::stock()),
        path: PathSpec::lan("amlight-lan", BitRate::gbps(100.0)).with_flow_control(),
        workload: WorkloadSpec::parallel(2, 3).with_faults(plan),
    };
    let res = Simulation::new(cfg).expect("config").run().expect("run");
    assert!(res.ring_drops > 0, "two windows must not fit one socket's pause buffer");
    assert!(res.total_goodput().as_gbps() > 1.0, "802.3x must still carry the flows");
}

#[test]
fn all_fault_classes_combined_still_conserve_bursts() {
    // finish() runs the burst-conservation check internally; an Ok
    // result from this kitchen-sink schedule is the assertion.
    let plan = FaultPlan::none()
        .with_bursty_loss(SimDuration::from_millis(500), SimDuration::from_millis(300), 0.4)
        .with_link_flap(SimDuration::from_millis(1200), SimDuration::from_millis(150))
        .with_receiver_stall(SimDuration::from_millis(1800), SimDuration::from_millis(200))
        .with_pause_storm(SimDuration::from_millis(2400), SimDuration::from_millis(150));
    let res = run(WorkloadSpec::parallel(2, 4).with_faults(plan));
    assert!(res.wire_sent > 0);
    assert!(res.fault_drops > 0);
    assert_eq!(res.flows.len(), 2);
}

#[test]
fn tiny_event_budget_trips_the_watchdog() {
    let wl = WorkloadSpec::single_stream(3).with_event_budget(1_000);
    let err = Simulation::new(lan(wl)).expect("config").run().unwrap_err();
    match err {
        SimError::Stalled { at: _, trip } => {
            assert!(trip.to_string().contains("budget"), "{trip}");
        }
        other => panic!("expected Stalled, got {other}"),
    }
}

#[test]
fn invalid_fault_schedule_is_a_config_error() {
    // Fault scheduled past the end of the run.
    let plan = FaultPlan::none()
        .with_link_flap(SimDuration::from_secs(60), SimDuration::from_millis(100));
    let err = match Simulation::new(lan(WorkloadSpec::single_stream(3).with_faults(plan))) {
        Err(e) => e,
        Ok(_) => panic!("schedule past the end of the run must be rejected"),
    };
    assert!(matches!(err, SimError::InvalidConfig(_)), "{err}");
    assert!(err.to_string().contains("link-flap"), "{err}");
}

#[test]
fn faulted_runs_stay_deterministic_per_seed() {
    let mk = |seed| {
        let plan = FaultPlan::none()
            .with_bursty_loss(SimDuration::from_secs(1), SimDuration::from_millis(400), 0.3);
        run(WorkloadSpec::single_stream(2).with_faults(plan).with_seed(seed))
    };
    let a = mk(11);
    let b = mk(11);
    assert_eq!(a.total_goodput().as_bps(), b.total_goodput().as_bps());
    assert_eq!(a.fault_drops, b.fault_drops);
    assert_eq!(a.events, b.events);
}
