//! Execute an iperf3 run over the simulator.

use crate::opts::Iperf3Opts;
use crate::report::Iperf3Report;
use linuxhost::HostConfig;
use nethw::PathSpec;
use netsim::{FaultPlan, RunningSim, SimConfig, SimError, Simulation, WorkloadSpec};
use simcore::SimDuration;

/// Run `iperf3 -c server` from `client` to `server` across `path`.
///
/// Validates the flags against the tool version (patches #1690/#1728)
/// and the kernel/offload configuration, then executes the
/// discrete-event simulation and renders an [`Iperf3Report`].
pub fn run(
    client: &HostConfig,
    server: &HostConfig,
    path: &PathSpec,
    opts: &Iperf3Opts,
) -> Result<Iperf3Report, SimError> {
    run_with_faults(client, server, path, opts, &FaultPlan::none(), None)
}

/// [`run`], with a fault-injection schedule attached to the workload.
///
/// Faults are not iperf3 flags — the tool under test has no idea the
/// network is about to misbehave — so they ride alongside the options
/// rather than inside them. `event_budget` optionally overrides the
/// watchdog's total event budget (mainly to force
/// [`SimError::Stalled`] in tests).
pub fn run_with_faults(
    client: &HostConfig,
    server: &HostConfig,
    path: &PathSpec,
    opts: &Iperf3Opts,
    faults: &FaultPlan,
    event_budget: Option<u64>,
) -> Result<Iperf3Report, SimError> {
    // One code path: the straight-through run is a started simulation
    // driven to completion without intermediate steps or checkpoints,
    // which the checkpoint/resume suite verifies is bit-identical.
    let result = start_session(client, server, path, opts, faults, event_budget)?.finish()?;
    // Run-level warnings (e.g. past-scheduled events clamped by the
    // release-mode queue) don't fail the run, but must not vanish:
    // the report is suspect and the reader should know.
    for warning in result.warnings() {
        eprintln!("warning: {warning}");
    }
    Ok(Iperf3Report::from_run(opts.command_line(&server.name), &result))
}

/// Validate flags and configuration, then start (but do not run) the
/// simulated test, returning a [`RunningSim`] the caller can drive in
/// bounded steps, checkpoint, and resume. Used by the harness
/// supervisor for crash isolation and chaos testing;
/// [`run_with_faults`] is this plus an immediate [`RunningSim::finish`]
/// rendered by [`Iperf3Report::from_run`].
pub fn start_session(
    client: &HostConfig,
    server: &HostConfig,
    path: &PathSpec,
    opts: &Iperf3Opts,
    faults: &FaultPlan,
    event_budget: Option<u64>,
) -> Result<RunningSim, SimError> {
    let mut errors = opts.validate();

    // Pre-3.16 builds run all streams on one thread: emulate by pinning
    // every stream's app work onto a single core.
    let mut client = client.clone();
    let mut server = server.clone();
    if !opts.version.multithreaded() && opts.parallel > 1 {
        client.cores.app_cores.truncate(1);
        server.cores.app_cores.truncate(1);
    }

    let workload = WorkloadSpec {
        num_flows: opts.parallel,
        duration: opts.duration(),
        omit: SimDuration::from_secs(opts.omit_secs),
        zerocopy: opts.zerocopy,
        sendfile: opts.sendfile,
        skip_rx_copy: opts.skip_rx_copy,
        user_checksum: false,
        fq_rate: opts.fq_rate,
        cc: opts.congestion,
        // iperf3 has no per-stream -C; a mixed fleet is a simulator-level
        // workload (`WorkloadSpec::with_cc_mix`), not an iperf3 flag.
        cc_mix: Vec::new(),
        seed: opts.seed,
        faults: faults.clone(),
        event_budget,
        telemetry: opts.telemetry,
        attribution: opts.attribution,
    };
    let cfg = SimConfig {
        sender: client,
        receiver: server,
        path: path.clone(),
        workload,
    };
    // `Simulation::new` validates the config; its problems follow the
    // flag problems in one `InvalidConfig`.
    match Simulation::new(cfg) {
        Ok(sim) if errors.is_empty() => Ok(sim.start()),
        Ok(_) => Err(SimError::InvalidConfig(errors)),
        Err(SimError::InvalidConfig(problems)) => {
            errors.extend(problems);
            Err(SimError::InvalidConfig(errors))
        }
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::version::Iperf3Version;
    use linuxhost::KernelVersion;
    use simcore::BitRate;

    fn hosts_and_path() -> (HostConfig, HostConfig, PathSpec) {
        (
            HostConfig::esnet_amd(KernelVersion::L6_8),
            HostConfig::esnet_amd(KernelVersion::L6_8),
            PathSpec::lan("lan", BitRate::gbps(200.0)),
        )
    }

    #[test]
    fn basic_run_produces_report() {
        let (c, s, p) = hosts_and_path();
        let report = run(&c, &s, &p, &Iperf3Opts::new(3).omit(0)).expect("run");
        assert_eq!(report.streams.len(), 1);
        let gbps = report.sum_bitrate().as_gbps();
        assert!((30.0..50.0).contains(&gbps), "AMD LAN default: {gbps:.1}");
        assert!(report.command.contains("iperf3 -c"));
    }

    #[test]
    fn invalid_flags_refused() {
        let (c, s, p) = hosts_and_path();
        let mut unpatched = Iperf3Opts::new(3).zerocopy();
        unpatched.version = Iperf3Version { minor: 17, patch_1690: false, patch_1728: false };
        // -P 0 fails flag validation too; both must come back as a
        // config rejection, not as a simulation failure.
        for (opts, flag) in [(unpatched, "1690"), (Iperf3Opts::new(2).parallel(0), "-P")] {
            match run(&c, &s, &p, &opts) {
                Err(SimError::InvalidConfig(msgs)) => {
                    assert!(msgs.iter().any(|m| m.contains(flag)), "{flag}: {msgs:?}")
                }
                other => panic!("{flag}: expected SimError::InvalidConfig, got {other:?}"),
            }
        }
        // A flag problem and a config problem together: one rejection,
        // the flag problem first and the config problem exactly once.
        let mut stock = c.clone();
        stock.sysctl = linuxhost::SysctlConfig::stock();
        let opts = Iperf3Opts::new(3).parallel(0).fq_rate(BitRate::gbps(2.0));
        match run(&stock, &s, &p, &opts) {
            Err(SimError::InvalidConfig(msgs)) => {
                assert!(msgs.len() >= 2, "{msgs:?}");
                assert!(msgs[0].contains("-P"), "{msgs:?}");
                assert_eq!(msgs.iter().filter(|m| m.contains("fq")).count(), 1, "{msgs:?}");
            }
            other => panic!("expected SimError::InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn fq_rate_requires_fq_qdisc() {
        let (mut c, s, p) = hosts_and_path();
        c.sysctl = linuxhost::SysctlConfig::stock();
        let opts = Iperf3Opts::new(3).fq_rate(BitRate::gbps(2.0));
        let err = run(&c, &s, &p, &opts).unwrap_err();
        assert!(err.to_string().contains("fq"), "{err}");
    }

    #[test]
    fn single_threaded_parallel_is_slower() {
        // v3.13 runs -P 4 on one core; the paper's v3.16+ uses four.
        let (c, s, p) = hosts_and_path();
        let mut old = Iperf3Opts::new(4).omit(0).parallel(4).seed(3);
        old.version = Iperf3Version { patch_1690: true, patch_1728: true, minor: 13 };
        let new = Iperf3Opts::new(4).omit(0).parallel(4).seed(3);
        let r_old = run(&c, &s, &p, &old).expect("old run");
        let r_new = run(&c, &s, &p, &new).expect("new run");
        assert!(
            r_new.sum_bitrate().as_gbps() > r_old.sum_bitrate().as_gbps() * 1.5,
            "multithreaded {:.1} should beat single-threaded {:.1}",
            r_new.sum_bitrate().as_gbps(),
            r_old.sum_bitrate().as_gbps()
        );
    }

    #[test]
    fn seeds_vary_results_slightly() {
        let (c, s, p) = hosts_and_path();
        let a = run(&c, &s, &p, &Iperf3Opts::new(2).omit(0).seed(1)).unwrap();
        let b = run(&c, &s, &p, &Iperf3Opts::new(2).omit(0).seed(2)).unwrap();
        assert_ne!(a.sum_bitrate().as_bps(), b.sum_bitrate().as_bps());
        // ... but within the same ballpark (service jitter, not chaos).
        let ratio = a.sum_bitrate().as_bps() / b.sum_bitrate().as_bps();
        assert!((0.8..1.25).contains(&ratio), "ratio {ratio}");
    }
}
