//! The three workloads, each as a set-up to time and a pass to repeat.
//!
//! * `paper_anchors` — the 13 paper anchors, one supervised repetition
//!   each through `TestHarness` (the path `repro` uses), attribution on.
//!   Traced passes drive the same sessions by hand so every call can be
//!   bracketed.
//! * `cc_mix_256` — 256 flows round-robin over CUBIC, BBRv1, BBRv3 and
//!   H-TCP into one shared 100G switch, stepped in slices.
//! * `fleet_1m` — one million Poisson flows through `FleetSim::run`.
//!
//! A pass is timed call by call: only the program's own calls count as
//! work, and the frozen reference loop runs between them.

use crate::anchors::ANCHORS;
use crate::refloop::RefLoop;
use crate::trace::Tracer;
use dtnperf::harness::supervise::{Supervisor, DEFAULT_CHECKPOINT_EVERY};
use dtnperf::harness::Scenario;
use dtnperf::iperf3::{Iperf3Opts, Iperf3Report};
use dtnperf::netsim::{
    ArrivalProcess, FleetClass, FleetProfile, FleetResult, FleetSim, RunResult, RunningSim,
    SimConfig, Simulation, SizeDist, WorkloadSpec,
};
use dtnperf::prelude::*;
use dtnperf::simcore::{derive_seed, CheckpointPolicy, Checkpointer, QueueHealth};
use std::time::Instant;

/// Events per `step_events` slice of `cc_mix_256` (about 70 ms of host
/// time), each followed by one reference-loop run.
pub const CC_MIX_SLICE: u64 = 500_000;
/// Simulated seconds of `cc_mix_256`.
pub const CC_MIX_SECS: u64 = 4;
/// The harness supervisor's step slice, mirrored by traced passes (so
/// traced anchors checkpoint on the supervisor's boundaries).
pub const SUPERVISOR_SLICE: u64 = 65_536;
/// Reference-loop runs after each anchor repetition, and after each
/// fleet run that the sampling timer did not sample.
const REF_PER_ANCHOR: usize = 3;
const REF_PER_FLEET_RUN: usize = 13;

/// Which workload a run measures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    PaperAnchors,
    CcMix256,
    Fleet1m,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperAnchors,
        Workload::CcMix256,
        Workload::Fleet1m,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperAnchors => "paper_anchors",
            Workload::CcMix256 => "cc_mix_256",
            Workload::Fleet1m => "fleet_1m",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Program counters gathered by a pass (exact for a given seed).
#[derive(Default, Clone, Debug)]
pub struct Counters {
    pub events: u64,
    pub wire_bursts: u64,
    /// Bursts lost anywhere (switch, ring, path, faults).
    pub lost_bursts: u64,
    /// Simulated seconds run.
    pub sim_secs: f64,
    pub retx: u64,
    pub rto: u64,
    pub switch_drops: u64,
    pub ring_drops: u64,
    pub zc_sends: u64,
    pub zc_fallbacks: u64,
    pub checkpoints: u64,
    pub failed_reps: u64,
    pub flows: u64,
    pub peak_slots: u64,
    pub peak_active: u64,
    pub timers_cancelled: u64,
    /// Queue depth (`len`) sampled at slice boundaries.
    pub depth: Vec<f64>,
    pub overflow_max: u64,
    pub stale_max: u64,
}

impl Counters {
    fn sample(&mut self, h: &QueueHealth) {
        self.depth.push(h.len as f64);
        self.overflow_max = self.overflow_max.max(h.overflow_live as u64);
        self.stale_max = self.stale_max.max(h.stale_timers as u64);
    }

    fn add_run(&mut self, r: &RunResult) {
        self.events += r.events;
        self.wire_bursts += r.wire_sent;
        self.lost_bursts += r.switch_drops + r.ring_drops + r.random_drops + r.fault_drops;
        self.retx += r.total_retr();
        self.rto += r.flows.iter().map(|f| f.rto_events).sum::<u64>();
        self.switch_drops += r.switch_drops;
        self.ring_drops += r.ring_drops;
        self.zc_sends += r.flows.iter().map(|f| f.zc_sends).sum::<u64>();
        self.zc_fallbacks += r.flows.iter().map(|f| f.zc_fallbacks).sum::<u64>();
        self.flows += r.flows.len() as u64;
    }
}

/// What one pass measured and produced.
#[derive(Default)]
pub struct Pass {
    /// Host seconds inside the program's calls.
    pub work_s: f64,
    /// Reference-loop times taken between those calls.
    pub ref_s: Vec<f64>,
    /// Digest of the simulated outputs.
    pub digest: Digest,
    /// Operations (simulation runs) attempted and failed.
    pub ops: u64,
    pub failed: u64,
    /// `(simulated, paper)` Gbps per anchor run.
    pub anchors: Vec<(f64, f64)>,
    pub counters: Counters,
    /// Host ns per event of every `step_events` slice (traced passes).
    pub step_ns_per_event: Vec<f64>,
}

impl Pass {
    /// Host time in units of the median reference-loop run between
    /// the pass's calls (the median shrugs off a run that caught a
    /// descheduling the program's calls did not).
    pub fn wall_rel(&self) -> f64 {
        self.work_s / crate::stats::median(&self.ref_s)
    }

    /// Count one operation; it fails if any of `problems` is set.
    fn op(&mut self, what: &str, problems: Vec<String>) {
        self.ops += 1;
        if !problems.is_empty() {
            self.failed += 1;
            eprintln!(
                "perfbench: operation failed ({what}): {}",
                problems.join("; ")
            );
        }
    }
}

/// FNV-1a over 64-bit words: a fingerprint of the simulated outputs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }
}

/// Shared state of one benchmark process.
pub struct Bench {
    pub seed: u64,
    refloop: RefLoop,
    pub tracer: Tracer,
    /// Take `fleet_1m`'s reference runs from the sampling timer during
    /// `FleetSim::run` (see `sampler`) instead of a block after it.
    pub sample_fleet: bool,
}

/// Set-up bursts: after each of a series of reference runs, every
/// construction of the workload [`SETUP_BURST`] times. Set-up time
/// drifts with the machine like everything else (one process measured
/// it 80 µs where others measured 115–140 µs), so each burst is paired
/// with the reference run just before it. A single construction after
/// a reference run pays whatever the loop left in the caches, and on
/// `fleet_1m` that read fell into two modes (about 21 µs or 47 µs)
/// whose mix changed from run to run; the burst's median is the
/// construction's own cost.
pub struct SetupSamples {
    workload: Workload,
    times: Vec<f64>,
    /// Per session: the current burst's raw host seconds.
    burst: Vec<Vec<f64>>,
    /// Per session, one entry per burst: the burst's median raw host
    /// seconds, and that median over the reference run.
    pub raw: Vec<Vec<f64>>,
    pub rel: Vec<Vec<f64>>,
}

/// Constructions per set-up burst (odd, so the median is one sample).
pub const SETUP_BURST: usize = 9;

impl SetupSamples {
    /// Start sampling `w`'s set-up after `warmup` untimed rounds (the
    /// first constructions of a process pay cold caches).
    pub fn new(w: Workload, seed: u64, warmup: usize) -> Self {
        let mut times = Vec::with_capacity(16);
        for _ in 0..warmup.max(1) {
            times.clear();
            construct_once(w, seed, &mut times);
        }
        let sessions = times.len();
        SetupSamples {
            workload: w,
            times,
            burst: vec![Vec::with_capacity(SETUP_BURST); sessions],
            raw: vec![Vec::new(); sessions],
            rel: vec![Vec::new(); sessions],
        }
    }

    /// Bursts taken so far.
    pub fn bursts(&self) -> usize {
        self.raw.first().map_or(0, Vec::len)
    }

    /// One burst of constructions, recorded against the reference run
    /// `r` (seconds) that preceded it.
    fn sample(&mut self, seed: u64, r: f64) {
        for b in &mut self.burst {
            b.clear();
        }
        for _ in 0..SETUP_BURST {
            self.times.clear();
            construct_once(self.workload, seed, &mut self.times);
            for (b, t) in self.burst.iter_mut().zip(&self.times) {
                b.push(*t);
            }
        }
        for ((raw, rel), b) in self.raw.iter_mut().zip(&mut self.rel).zip(&self.burst) {
            let m = crate::stats::median(b);
            raw.push(m);
            rel.push(m / r);
        }
    }
}

impl Bench {
    pub fn new(seed: u64, traced: bool) -> Self {
        Bench {
            seed,
            refloop: RefLoop::new(),
            tracer: Tracer::new(traced),
            sample_fleet: false,
        }
    }

    /// `bursts` set-up bursts into `s`, each after its own reference
    /// run.
    pub fn sample_setup(&mut self, s: &mut SetupSamples, bursts: usize) {
        for _ in 0..bursts {
            let r = self.refloop.time();
            s.sample(self.seed, r);
        }
    }

    /// One reference-loop run, recorded in `pass`.
    pub fn reference(&mut self, pass: &mut Pass) {
        self.tracer.enter("ref.loop");
        let r = self.refloop.time();
        self.tracer.exit();
        pass.ref_s.push(r);
    }

    /// Run `f` as program work: its host time is added to the pass and
    /// it gets a span named `name` when tracing.
    fn work<T>(&mut self, pass: &mut Pass, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.tracer.enter(name);
        let start = Instant::now();
        let out = f();
        pass.work_s += start.elapsed().as_secs_f64();
        self.tracer.exit();
        out
    }

    /// Run `f` as program work under the sampling timer: its host time
    /// net of the timer handler's is added to the pass, and the
    /// handler's reference runs join the pass's. No span.
    fn work_sampled<T>(&mut self, pass: &mut Pass, f: impl FnOnce() -> T) -> T {
        pass.ref_s.reserve(crate::sampler::MAX_SAMPLES);
        let (out, net_s) = crate::sampler::run_sampled(&mut pass.ref_s, f);
        pass.work_s += net_s;
        out
    }
}

// ---------------------------------------------------------------------
// Inputs.

/// The seed `TestHarness` gives repetition 0 of `scenario`.
fn rep_seed(scenario: &Scenario, base: u64) -> u64 {
    derive_seed(scenario.fingerprint(), base, 0)
}

/// The simulation `iperf3sim::start_session` builds for `scenario`
/// under `opts`, so traced passes can step it by hand and still read
/// the run's counters. Traced and untraced digests must agree, which
/// keeps this mirror honest.
fn session_config(sc: &Scenario, opts: &Iperf3Opts) -> Result<(SimConfig, String), Vec<String>> {
    let mut errors = opts.validate();
    let mut client = sc.client.clone();
    let mut server = sc.server.clone();
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
        cc_mix: Vec::new(),
        seed: opts.seed,
        faults: sc.faults.clone(),
        event_budget: sc.event_budget,
        telemetry: opts.telemetry,
        attribution: opts.attribution,
    };
    let command = opts.command_line(&server.name);
    let cfg = SimConfig {
        sender: client,
        receiver: server,
        path: sc.path.clone(),
        workload,
    };
    errors.extend(cfg.validate());
    if errors.is_empty() {
        Ok((cfg, command))
    } else {
        Err(errors)
    }
}

/// The `cc_mix_256` simulation for `seed`.
pub fn cc_mix_config(seed: u64) -> SimConfig {
    let host = Testbeds::fanin_host(256);
    SimConfig {
        sender: host.clone(),
        receiver: host,
        path: Testbeds::fanin_path(false),
        workload: WorkloadSpec::parallel(256, CC_MIX_SECS)
            .with_cc_mix(CcAlgorithm::ALL.to_vec())
            .with_seed(seed),
    }
}

/// The `fleet_1m` profile: 1M Poisson arrivals, log-normal sizes
/// (256 KiB median), an unpaced CUBIC 40 ms class and a paced BBR 70 ms
/// class — the `bench` binary's `fleet_1m` with the run's seed.
pub fn fleet_profile(seed: u64) -> FleetProfile {
    let mut p = FleetProfile::new(
        "fleet_1m",
        ArrivalProcess::Poisson {
            rate_per_sec: 10_000.0,
        },
        SizeDist::LogNormal {
            median_bytes: 256.0 * 1024.0,
            sigma: 0.5,
        },
    );
    p.max_flows = 1_000_000;
    p.duration = SimDuration::from_secs_f64(100.0);
    p.seed = seed;
    p.classes = vec![
        FleetClass {
            name: "cubic_wan".into(),
            weight: 1,
            cc: CcAlgorithm::Cubic,
            pacing: false,
            rtt: SimDuration::from_millis(40),
            bottleneck: BitRate::gbps(25.0),
            buffer: Bytes::mib(64),
        },
        FleetClass {
            name: "bbr_wan".into(),
            weight: 1,
            cc: CcAlgorithm::BbrV1,
            pacing: true,
            rtt: SimDuration::from_millis(70),
            bottleneck: BitRate::gbps(25.0),
            buffer: Bytes::mib(64),
        },
    ];
    p
}

/// The watchdog budget the `bench` binary and `ext_fleet` give a fleet
/// run: far above observed events per flow, so only a livelock trips.
fn fleet_budget(p: &FleetProfile) -> u64 {
    p.max_flows.saturating_mul(400).saturating_add(10_000_000)
}

fn path_rate_gbps(path: &PathSpec) -> f64 {
    path.usable_rate().as_gbps()
}

// ---------------------------------------------------------------------
// Set-up: everything before the first event.

/// Host seconds of each of the workload's constructions, once, pushed
/// onto `times` (reserve it first so only the program allocates). The
/// constructed sessions are dropped untimed.
pub fn construct_once(w: Workload, seed: u64, times: &mut Vec<f64>) {
    match w {
        Workload::PaperAnchors => {
            for anchor in &ANCHORS {
                let start = Instant::now();
                let sc = anchor.scenario();
                let opts = sc.opts.clone().seed(rep_seed(&sc, seed));
                let session = dtnperf::iperf3::start_session(
                    &sc.client,
                    &sc.server,
                    &sc.path,
                    &opts,
                    &sc.faults,
                    sc.event_budget,
                );
                times.push(start.elapsed().as_secs_f64());
                drop(session);
            }
        }
        Workload::CcMix256 => {
            let start = Instant::now();
            let sim = Simulation::new(cc_mix_config(seed)).map(Simulation::start);
            times.push(start.elapsed().as_secs_f64());
            drop(sim);
        }
        Workload::Fleet1m => {
            let start = Instant::now();
            let fleet = FleetSim::new(fleet_profile(seed));
            times.push(start.elapsed().as_secs_f64());
            drop(fleet);
        }
    }
}

// ---------------------------------------------------------------------
// Passes.

/// One untraced pass of `w`.
pub fn pass(b: &mut Bench, w: Workload) -> Pass {
    match w {
        Workload::PaperAnchors => anchors_supervised(b),
        Workload::CcMix256 => cc_mix_pass(b, false),
        Workload::Fleet1m => fleet_pass(b),
    }
}

/// The anchors through the harness's supervised repetition path, one
/// repetition each.
pub fn anchors_supervised(b: &mut Bench) -> Pass {
    let mut pass = Pass::default();
    let supervisor = Supervisor::default().with_checkpoint_every(DEFAULT_CHECKPOINT_EVERY);
    let harness = TestHarness::new(1)
        .sequential()
        .with_base_seed(b.seed)
        .with_supervisor(supervisor);
    b.reference(&mut pass);
    for anchor in &ANCHORS {
        let out = b.work(&mut pass, "anchor", || {
            let sc = anchor.scenario();
            let summary = harness.run(&sc);
            (sc, summary)
        });
        for _ in 0..REF_PER_ANCHOR {
            b.reference(&mut pass);
        }
        let (sc, summary) = out;
        let mut problems = Vec::new();
        match summary {
            Ok(s) => {
                pass.counters.failed_reps += s.failed_reps.len() as u64;
                if !s.failed_reps.is_empty() {
                    problems.push(format!("{} failed repetition(s)", s.failed_reps.len()));
                }
                match s.reports.first() {
                    Some(report) => {
                        check_report(report, &sc.path, &mut problems);
                        digest_report(&mut pass.digest, report);
                        pass.anchors
                            .push((report.sum_bitrate().as_gbps(), anchor.paper_gbps));
                    }
                    None => problems.push("no report".into()),
                }
            }
            Err(e) => problems.push(e.to_string()),
        }
        pass.op(anchor.name, problems);
    }
    pass
}

/// The anchors stepped by hand: start, `step_events` slices with a
/// checkpoint on the supervisor's cadence, finish — each call its own
/// span. Same sessions and seeds as [`anchors_supervised`].
pub fn anchors_stepped(b: &mut Bench, attribution: bool) -> Pass {
    let mut pass = Pass::default();
    b.reference(&mut pass);
    let seed = b.seed;
    for anchor in &ANCHORS {
        b.tracer.enter("anchor");
        let mut problems = Vec::new();
        let started = b.work(&mut pass, "start", || {
            let mut sc = anchor.scenario();
            sc.opts.attribution = attribution;
            let opts = sc.opts.clone().seed(rep_seed(&sc, seed));
            session_config(&sc, &opts).and_then(|(cfg, command)| {
                Simulation::new(cfg)
                    .map(|sim| (sc, sim.start(), command))
                    .map_err(|e| vec![e.to_string()])
            })
        });
        match started {
            Ok((sc, mut sim, command)) => {
                let mut ckpt = Checkpointer::new(CheckpointPolicy::every(DEFAULT_CHECKPOINT_EVERY));
                let finished = step_to_end(
                    b,
                    &mut pass,
                    &mut sim,
                    SUPERVISOR_SLICE,
                    Some(&mut ckpt),
                    false,
                )
                .and_then(|()| {
                    b.work(&mut pass, "finish", || sim.finish())
                        .map_err(|e| e.to_string())
                });
                match finished {
                    Ok(result) => {
                        check_run(&result, &sc.path, &mut problems);
                        pass.counters.add_run(&result);
                        let report = Iperf3Report::from_run(command, &result);
                        digest_report(&mut pass.digest, &report);
                        pass.anchors
                            .push((report.sum_bitrate().as_gbps(), anchor.paper_gbps));
                    }
                    Err(e) => problems.push(e),
                }
            }
            Err(errs) => problems.extend(errs),
        }
        b.tracer.exit();
        for _ in 0..REF_PER_ANCHOR {
            b.reference(&mut pass);
        }
        pass.op(anchor.name, problems);
    }
    pass
}

/// Step `sim` to completion in `slice`-event slices, sampling queue
/// health at every boundary and checkpointing when `ckpt` is due.
/// With `reference`, a reference-loop run follows every slice.
fn step_to_end(
    b: &mut Bench,
    pass: &mut Pass,
    sim: &mut RunningSim,
    slice: u64,
    mut ckpt: Option<&mut Checkpointer>,
    reference: bool,
) -> Result<(), String> {
    loop {
        let (events_before, work_before) = (sim.events_done(), pass.work_s);
        let done = b
            .work(pass, "step", || sim.step_events(slice))
            .map_err(|e| e.to_string())?;
        if b.tracer.enabled() {
            let events = sim.events_done() - events_before;
            if events > 0 {
                pass.step_ns_per_event
                    .push((pass.work_s - work_before) * 1e9 / events as f64);
            }
            pass.counters.sample(&sim.queue_health());
        }
        if reference {
            b.reference(pass);
        }
        if done {
            pass.counters.sim_secs += sim.sim_now_secs();
            return Ok(());
        }
        if let Some(ck) = ckpt.as_deref_mut() {
            if ck.due(sim.events_done()) {
                pass.counters.checkpoints += 1;
                let snapshot = b.work(pass, "checkpoint", || sim.checkpoint());
                drop(snapshot);
            }
        }
    }
}

/// One `cc_mix_256` run: construct, step in slices, finish. Untraced,
/// a reference run follows every [`CC_MIX_SLICE`]-event slice; traced,
/// the slices are the supervisor's 65,536 events, for more step
/// samples, and no reference runs interleave.
pub fn cc_mix_pass(b: &mut Bench, attribution: bool) -> Pass {
    let traced = b.tracer.enabled();
    let slice = if traced {
        SUPERVISOR_SLICE
    } else {
        CC_MIX_SLICE
    };
    let mut pass = Pass::default();
    b.reference(&mut pass);
    let seed = b.seed;
    let path = cc_mix_config(seed).path;
    let mut problems = Vec::new();
    let started = b.work(&mut pass, "start", || {
        let mut cfg = cc_mix_config(seed);
        cfg.workload.attribution = attribution;
        Simulation::new(cfg).map(Simulation::start)
    });
    match started {
        Ok(mut sim) => {
            let finished =
                step_to_end(b, &mut pass, &mut sim, slice, None, !traced).and_then(|()| {
                    b.work(&mut pass, "finish", || sim.finish())
                        .map_err(|e| e.to_string())
                });
            match finished {
                Ok(result) => {
                    check_run(&result, &path, &mut problems);
                    pass.counters.add_run(&result);
                    digest_run(&mut pass.digest, &result);
                }
                Err(e) => problems.push(e),
            }
        }
        Err(e) => problems.push(e.to_string()),
    }
    pass.op("cc_mix_256", problems);
    pass
}

/// One `fleet_1m` run through `FleetSim::run`. The fleet engine has no
/// stepping API to interleave reference runs with, so with
/// [`Bench::sample_fleet`] they come from the sampling timer during the
/// run; otherwise (traced runs), or when the timer cannot be armed, a
/// block of them follows the run.
pub fn fleet_pass(b: &mut Bench) -> Pass {
    let mut pass = Pass::default();
    let seed = b.seed;
    let profile = fleet_profile(seed);
    let cap_gbps: f64 = profile.classes.iter().map(|c| c.bottleneck.as_gbps()).sum();
    let result = b
        .work(&mut pass, "start", || FleetSim::new(fleet_profile(seed)))
        .and_then(|sim| {
            let budget = fleet_budget(&profile);
            let run = || sim.with_event_budget(budget).run();
            if b.sample_fleet {
                b.work_sampled(&mut pass, run)
            } else {
                b.work(&mut pass, "fleet.run", run)
            }
        });
    if pass.ref_s.is_empty() {
        for _ in 0..REF_PER_FLEET_RUN {
            b.reference(&mut pass);
        }
    }
    let mut problems = Vec::new();
    match result {
        Ok(r) => {
            check_fleet(&r, cap_gbps, &mut problems);
            let c = &mut pass.counters;
            c.events += r.events;
            c.wire_bursts += r.wire_bursts;
            c.lost_bursts += r.drops;
            c.sim_secs += r.finished_at.as_secs_f64();
            c.retx += r.retx_bursts;
            c.rto += r.rto_events;
            c.switch_drops += r.drops;
            c.flows += r.flows_served;
            c.peak_slots = c.peak_slots.max(r.peak_slots as u64);
            c.peak_active = c.peak_active.max(r.peak_active as u64);
            c.timers_cancelled += r.timers_cancelled;
            c.sample(&r.health);
            digest_fleet(&mut pass.digest, &r);
        }
        Err(e) => problems.push(e.to_string()),
    }
    pass.op("fleet_1m", problems);
    pass
}

// ---------------------------------------------------------------------
// Output checks and digests.

fn check_report(report: &Iperf3Report, path: &PathSpec, problems: &mut Vec<String>) {
    let gbps = report.sum_bitrate().as_gbps();
    if !(gbps > 0.0 && gbps <= path_rate_gbps(path)) {
        problems.push(format!("goodput {gbps} Gbit/s outside (0, path rate]"));
    }
}

fn check_run(r: &RunResult, path: &PathSpec, problems: &mut Vec<String>) {
    if r.past_clamps != 0 {
        problems.push(format!("{} past-time clamps", r.past_clamps));
    }
    let gbps = r.total_goodput().as_gbps();
    if !(gbps > 0.0 && gbps <= path_rate_gbps(path)) {
        problems.push(format!("goodput {gbps} Gbit/s outside (0, path rate]"));
    }
}

fn check_fleet(r: &FleetResult, cap_gbps: f64, problems: &mut Vec<String>) {
    if r.past_clamps != 0 {
        problems.push(format!("{} past-time clamps", r.past_clamps));
    }
    if r.flows_served != r.flows_opened {
        problems.push(format!(
            "served {} of {} flows",
            r.flows_served, r.flows_opened
        ));
    }
    if r.late_dropped != 0 {
        problems.push(format!("{} late-dropped samples", r.late_dropped));
    }
    if r.health.slab_slots != r.health.free_slots || r.health.stale_timers != 0 {
        problems.push(format!("queue not drained: {:?}", r.health));
    }
    let gbps = r.goodput_gbps();
    if !(gbps > 0.0 && gbps <= cap_gbps) {
        problems.push(format!("goodput {gbps} Gbit/s outside (0, class capacity]"));
    }
}

fn digest_report(d: &mut Digest, report: &Iperf3Report) {
    for s in &report.streams {
        d.word(s.bytes.as_u64());
        d.word(s.retr);
        d.f64(s.bitrate.as_gbps());
    }
}

fn digest_run(d: &mut Digest, r: &RunResult) {
    for f in &r.flows {
        d.word(f.bytes.as_u64());
        d.word(f.retr_packets);
        d.f64(f.goodput.as_gbps());
    }
}

/// FCT and slowdown quantiles digested for `fleet_1m`.
const FLEET_QUANTILES: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 1.0];

fn digest_fleet(d: &mut Digest, r: &FleetResult) {
    d.word(r.flows_served);
    d.word(r.total_bytes);
    for q in FLEET_QUANTILES {
        d.word(r.fct_us(q).unwrap_or(0));
        d.word(r.slowdown_x100(q).unwrap_or(0));
    }
}
