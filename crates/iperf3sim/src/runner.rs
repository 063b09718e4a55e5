//! Execute an iperf3 run over the simulator.

use crate::opts::Iperf3Opts;
use crate::report::Iperf3Report;
use linuxhost::HostConfig;
use nethw::PathSpec;
use netsim::{FaultPlan, RunningSim, SimConfig, SimError, Simulation, WorkloadSpec};
use simcore::SimDuration;
use std::fmt;

/// Why a run could not start or finish.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// Flag/configuration validation failed before the simulation
    /// started; each string is one iperf3-style message.
    Invalid(Vec<String>),
    /// The simulation itself failed (watchdog, conservation, …).
    Sim(SimError),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Invalid(errors) => write!(f, "iperf3 error: {}", errors.join("; ")),
            RunError::Sim(e) => write!(f, "iperf3 error: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<SimError> for RunError {
    fn from(e: SimError) -> Self {
        // Config problems keep their per-message structure so callers
        // (and tests) can match individual complaints.
        match e {
            SimError::InvalidConfig(problems) => RunError::Invalid(problems),
            other => RunError::Sim(other),
        }
    }
}

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
) -> Result<Iperf3Report, RunError> {
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
) -> Result<Iperf3Report, RunError> {
    // One code path: the straight-through run is a session driven to
    // completion without intermediate steps or checkpoints, which the
    // checkpoint/resume suite verifies is bit-identical.
    start_session(client, server, path, opts, faults, event_budget)?.finish()
}

/// Validate flags and configuration, then start (but do not run) the
/// simulated test, returning a [`SimSession`] the caller can drive in
/// bounded steps, checkpoint, and resume. Used by the harness
/// supervisor for crash isolation and chaos testing;
/// [`run_with_faults`] is this plus an immediate [`SimSession::finish`].
pub fn start_session(
    client: &HostConfig,
    server: &HostConfig,
    path: &PathSpec,
    opts: &Iperf3Opts,
    faults: &FaultPlan,
    event_budget: Option<u64>,
) -> Result<SimSession, RunError> {
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
    let command = opts.command_line(&server.name);
    let cfg = SimConfig {
        sender: client,
        receiver: server,
        path: path.clone(),
        workload,
    };
    errors.extend(cfg.validate());
    if !errors.is_empty() {
        return Err(RunError::Invalid(errors));
    }
    Ok(SimSession { sim: Simulation::new(cfg)?.start(), command })
}

/// A started iperf3 test over the simulator, driven incrementally.
///
/// Stepping in chunks (instead of one blocking run) is what lets the
/// harness supervisor snapshot state between events, enforce wall-clock
/// deadlines, and — under `REPRO_CHAOS` — kill and resume workers while
/// still producing bit-identical reports.
pub struct SimSession {
    sim: RunningSim,
    command: String,
}

/// A deep snapshot of a [`SimSession`], resumable with
/// [`SimSession::resume`].
#[derive(Clone)]
pub struct SessionCheckpoint {
    sim: netsim::SimCheckpoint,
    command: String,
}

impl SessionCheckpoint {
    /// Dispatched-event count at the moment of the snapshot.
    pub fn events_done(&self) -> u64 {
        self.sim.events_done()
    }
}

impl SimSession {
    /// Total simulation events dispatched so far.
    pub fn events_done(&self) -> u64 {
        self.sim.events_done()
    }

    /// Dispatch up to `max` further events; `Ok(true)` once the run is
    /// ready for [`SimSession::finish`].
    pub fn step_events(&mut self, max: u64) -> Result<bool, RunError> {
        Ok(self.sim.step_events(max)?)
    }

    /// Engine-health snapshot of the session's event queue, sampled by
    /// the harness at checkpoint barriers.
    pub fn queue_health(&self) -> simcore::QueueHealth {
        self.sim.queue_health()
    }

    /// Simulated time reached so far, in seconds.
    pub fn sim_now_secs(&self) -> f64 {
        self.sim.sim_now_secs()
    }

    /// Snapshot the full session state between events.
    pub fn checkpoint(&self) -> SessionCheckpoint {
        SessionCheckpoint { sim: self.sim.checkpoint(), command: self.command.clone() }
    }

    /// Rebuild a session from a snapshot; it replays exactly the events
    /// the original would have dispatched.
    pub fn resume(ck: SessionCheckpoint) -> SimSession {
        SimSession { sim: RunningSim::resume(ck.sim), command: ck.command }
    }

    /// Drain remaining events and render the report.
    pub fn finish(self) -> Result<Iperf3Report, RunError> {
        let result = self.sim.finish()?;
        // Run-level warnings (e.g. past-scheduled events clamped by the
        // release-mode queue) don't fail the run, but must not vanish:
        // the report is suspect and the reader should know.
        for warning in result.warnings() {
            eprintln!("warning: {warning}");
        }
        Ok(Iperf3Report::from_run(self.command, &result))
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
        // -P 0 fails flag validation too; both must come back classed
        // as invalid flags, not as a simulation failure.
        for (opts, flag) in [(unpatched, "1690"), (Iperf3Opts::new(2).parallel(0), "-P")] {
            match run(&c, &s, &p, &opts) {
                Err(RunError::Invalid(msgs)) => {
                    assert!(msgs.iter().any(|m| m.contains(flag)), "{flag}: {msgs:?}")
                }
                other => panic!("{flag}: expected RunError::Invalid, got {other:?}"),
            }
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
