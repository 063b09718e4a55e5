//! The traced run: per-layer metrics.
//!
//! In order, one process:
//! 1. counts the allocations of one set-up;
//! 2. runs one untraced pass, counting its allocations;
//! 3. for half the run's seconds, alternates traced passes — a span
//!    around every call into a layer, queue health sampled at every
//!    65,536-event slice boundary — with untraced ones, the tracing
//!    overhead baseline (`paper_anchors` is stepped by hand when traced,
//!    so the supervisor's calls can be bracketed one by one);
//! 4. runs one pass with bottleneck attribution flipped, for its cost;
//! 5. replays each layer alone, sized and shaped from the workload's
//!    counters, hosts and paths;
//! 6. writes the spans to `perfbench/out/` and reports.

use crate::anchors::{err_pct, ANCHORS};
use crate::replay::{self, FlowShape, Replay};
use crate::stats::{median, quantile, tail_percentile};
use crate::workloads::{self, Bench, Pass, Workload};
use crate::{alloc, check_repeatable, Args, Metric, Outcome};
use dtnperf::prelude::*;
use std::time::{Duration, Instant};

/// Run `f` in a span, between two reference-loop runs recorded in `refs`.
fn replay_in_span(
    b: &mut Bench,
    refs: &mut Pass,
    name: &'static str,
    f: impl FnOnce() -> Replay,
) -> Replay {
    b.reference(refs);
    b.tracer.enter(name);
    let r = f();
    b.tracer.exit();
    b.reference(refs);
    r
}

fn traced_pass(b: &mut Bench, w: Workload) -> Pass {
    b.tracer.enter("pass");
    let p = match w {
        Workload::PaperAnchors => workloads::anchors_stepped(b, true),
        Workload::CcMix256 => workloads::cc_mix_pass(b, false),
        Workload::Fleet1m => workloads::fleet_pass(b),
    };
    b.tracer.exit();
    p
}

/// An untraced pass, for the tracing-overhead baseline.
fn untraced_pass(b: &mut Bench, w: Workload) -> Pass {
    b.tracer.set_enabled(false);
    let p = workloads::pass(b, w);
    b.tracer.set_enabled(true);
    p
}

/// What the workload's simulations look like to the replays: its
/// sending hosts, its bottlenecks with the bursts they carry, and its
/// flows.
struct Shape {
    hosts: Vec<HostConfig>,
    bottlenecks: Vec<(PathSpec, Bytes)>,
    flows: Vec<FlowShape>,
}

/// The MTU the fleet engine gives every flow.
const FLEET_MTU: u64 = 1500;

impl Shape {
    /// Add one `netsim::sim` simulation's sender, bottleneck and flows.
    fn add_sim(&mut self, sender: HostConfig, receiver: &HostConfig, path: PathSpec) {
        let burst = sender.offload.gso_max_size;
        self.flows.push(FlowShape {
            rtt: path.rtt,
            mtu: sender.offload.mtu,
            burst,
            sndbuf: sender.sysctl.tcp_wmem.max,
            rcvbuf: receiver.sysctl.tcp_rmem.max,
        });
        self.bottlenecks.push((path, burst));
        self.hosts.push(sender);
    }
}

/// The workload's shape. `fleet_1m` has no host model, so its host
/// replay runs on `cc_mix_256`'s fan-in host. Its bottlenecks are
/// per-class FIFOs inside the fleet engine, so its switch replay runs
/// `SharedBufferSwitch` at each class's rate and buffer. Its flows get
/// the fleet engine's buffers: twice the BDP, at least 16 bursts.
fn shape(w: Workload, seed: u64) -> Shape {
    let mut s = Shape {
        hosts: Vec::new(),
        bottlenecks: Vec::new(),
        flows: Vec::new(),
    };
    match w {
        Workload::PaperAnchors => {
            for a in &ANCHORS {
                let sc = a.scenario();
                s.add_sim(sc.client, &sc.server, sc.path);
            }
        }
        Workload::CcMix256 => {
            let cfg = workloads::cc_mix_config(seed);
            s.add_sim(cfg.sender, &cfg.receiver, cfg.path);
        }
        Workload::Fleet1m => {
            s.hosts.push(workloads::cc_mix_config(seed).sender);
            let p = workloads::fleet_profile(seed);
            for class in &p.classes {
                let buf = (class.bottleneck.bdp(class.rtt) * 2).max(p.burst * 16);
                s.flows.push(FlowShape {
                    rtt: class.rtt,
                    mtu: Bytes::new(FLEET_MTU),
                    burst: p.burst,
                    sndbuf: buf,
                    rcvbuf: buf,
                });
                let mut path = PathSpec::lan(class.name.clone(), class.bottleneck);
                path.rtt = class.rtt;
                path.switch_buffer = class.buffer;
                s.bottlenecks.push((path, p.burst));
            }
        }
    }
    s
}

pub fn run(args: &Args) -> Outcome {
    let w = args.workload;
    let seed = args.seed;
    let mut b = Bench::new(seed, true);
    let mut out = Outcome {
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };

    // 1. Allocations of one set-up.
    let mut times = Vec::with_capacity(16);
    let a0 = alloc::allocations();
    workloads::construct_once(w, seed, &mut times);
    let alloc_setup = alloc::allocations() - a0;

    // 2. One untraced pass.
    let a0 = alloc::allocations();
    let untraced = untraced_pass(&mut b, w);
    let pass_allocs = alloc::allocations() - a0;

    // 3. Traced passes alternating with untraced ones, until the next
    // pair would overrun half the run's seconds (at least one pair).
    let budget = Duration::from_secs_f64(args.seconds / 2.0);
    let start = Instant::now();
    let mut baseline = vec![untraced];
    let mut passes = Vec::new();
    loop {
        let pair_start = Instant::now();
        passes.push(traced_pass(&mut b, w));
        if start.elapsed() + pair_start.elapsed() * 2 > budget {
            break;
        }
        baseline.push(untraced_pass(&mut b, w));
    }
    eprintln!(
        "perfbench: {} traced and {} untraced pass(es)",
        passes.len(),
        baseline.len()
    );
    for p in passes.iter().chain(&baseline) {
        out.add(p);
    }
    check_repeatable(&mut out, &passes, w.name());
    check_repeatable(&mut out, &baseline, w.name());
    let first = &passes[0];
    if first.digest != baseline[0].digest {
        out.fail_check("traced and untraced passes produced different outputs");
    }
    eprintln!(
        "perfbench: digest {} seed {seed}: {:016x}",
        w.name(),
        first.digest.0
    );
    let c = &first.counters;
    let span_ms = |name: &str| -> (f64, usize) {
        let d = b.tracer.durations(name);
        (median(&d) / 1e6, d.len())
    };
    let (start_ms, n_start) = span_ms("start");
    let (finish_ms, n_finish) = span_ms("finish");
    let (checkpoint_ms, n_checkpoint) = span_ms("checkpoint");
    let (fleet_run_ms, n_fleet_run) = span_ms("fleet.run");
    let mut step_ns: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.step_ns_per_event.iter().copied())
        .collect();
    if w == Workload::Fleet1m {
        // The fleet engine runs in one call: one sample per run.
        step_ns = passes
            .iter()
            .map(|p| p.work_s * 1e9 / p.counters.events.max(1) as f64)
            .collect();
    }
    let tail_pct = tail_percentile(step_ns.len());
    eprintln!(
        "perfbench: sim.step_ns_tail is p{tail_pct} of {} slices",
        step_ns.len()
    );
    let wall = |ps: &[Pass]| median(&ps.iter().map(|p| p.work_s).collect::<Vec<_>>());
    let (traced_wall, untraced_wall) = (wall(&passes), wall(&baseline));
    let overhead_pct = (traced_wall - untraced_wall) / untraced_wall * 100.0;

    if w == Workload::PaperAnchors {
        eprintln!("perfbench: per-anchor error (traced pass 1)");
        for (a, (sim, paper)) in ANCHORS.iter().zip(&first.anchors) {
            eprintln!(
                "perfbench:   {:<27} paper {:>6.1}  sim {:>7.3}  err {:>6.2}%  ({})",
                a.name,
                paper,
                sim,
                err_pct(*sim, *paper),
                a.source
            );
        }
    }

    // 4. Attribution flipped: off for the anchors (which run with it
    // on), on for cc_mix_256 (which runs with it off).
    let attrib_pct = match w {
        Workload::PaperAnchors | Workload::CcMix256 => {
            let on = w == Workload::CcMix256;
            let v = if on {
                workloads::cc_mix_pass(&mut b, true)
            } else {
                workloads::anchors_stepped(&mut b, false)
            };
            out.add(&v);
            if v.digest != first.digest {
                out.fail_check("bottleneck attribution changed the simulated outputs");
            }
            let (with, without) = if on {
                (v.work_s, first.work_s)
            } else {
                (first.work_s, v.work_s)
            };
            (with - without) / without * 100.0
        }
        Workload::Fleet1m => 0.0,
    };

    // 5. Layer replays, sized and shaped from the first traced pass.
    let per = |x: u64, y: u64| if y == 0 { 0.0 } else { x as f64 / y as f64 };
    let mut refs = Pass::default();
    let depth = if w == Workload::Fleet1m {
        2 * c.peak_active
    } else {
        median(&c.depth) as u64
    };
    let queue = replay::QueueShape {
        depth: depth as usize,
        gap: SimDuration::from_secs_f64(depth as f64 * c.sim_secs / c.events.max(1) as f64),
        cancel_share: per(c.timers_cancelled, c.events),
    };
    let loss = per(c.lost_bursts, c.wire_bursts);
    let zc_share = per(c.zc_sends, c.wire_bursts).min(1.0);
    let shape = shape(w, seed);
    eprintln!(
        "perfbench: replay shape: depth {} gap {:?} cancel/event {:.4} loss/burst {:.5} zc/burst {:.3} flows {:?}",
        queue.depth, queue.gap, queue.cancel_share, loss, zc_share, shape.flows
    );
    let bursts = c.wire_bursts;
    let flows = if w == Workload::Fleet1m { c.flows } else { 0 };
    let engine = replay_in_span(&mut b, &mut refs, "replay.engine", || {
        replay::engine(&queue, (c.events / 20).clamp(200_000, 2_000_000), seed)
    });
    let tcp: Vec<(CcAlgorithm, Replay)> = CcAlgorithm::ALL
        .iter()
        .map(|&cc| {
            let acks = (bursts / 40).clamp(50_000, 500_000);
            (
                cc,
                replay_in_span(&mut b, &mut refs, "replay.tcp", || {
                    replay::tcp(cc, &shape.flows, loss, acks, seed)
                }),
            )
        })
        .collect();
    let host = replay_in_span(&mut b, &mut refs, "replay.host", || {
        replay::host(
            &shape.hosts,
            zc_share,
            (bursts / 20).clamp(100_000, 1_000_000),
            seed,
        )
    });
    let enqueues = (bursts / 20).clamp(100_000, 1_000_000);
    let switch = replay_in_span(&mut b, &mut refs, "replay.nethw", || {
        replay::switch(&shape.bottlenecks, enqueues, seed)
    });
    let profile = workloads::fleet_profile(seed);
    let sampler = replay_in_span(&mut b, &mut refs, "replay.sampler", || {
        replay::sampler(&profile, flows.clamp(100_000, 1_000_000))
    });
    let obs = replay_in_span(&mut b, &mut refs, "replay.obs", || {
        replay::obs(flows.clamp(100_000, 1_000_000), seed)
    });
    let ref_ns = median(&refs.ref_s) * 1e9 / f64::from(crate::refloop::STEPS);

    // 6. Spans out.
    let dir = std::path::Path::new("perfbench/out");
    let file = dir.join(format!("spans-{}-seed{seed}.jsonl", w.name()));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&file, b.tracer.to_jsonl())) {
        Ok(()) => eprintln!(
            "perfbench: {} spans written to {}",
            b.tracer.spans().len(),
            file.display()
        ),
        Err(e) => eprintln!(
            "perfbench: warning: could not write {}: {e}",
            file.display()
        ),
    }
    eprintln!("perfbench: self time by span (all traced passes and replays)");
    for (name, ns, n) in b.tracer.self_by_name() {
        eprintln!(
            "perfbench:   {name:<18} {:>12.3} ms  n={n}",
            ns as f64 / 1e6
        );
    }

    let m = |name, value, unit, n| Metric {
        name,
        value,
        unit,
        n,
    };
    let count = |name, v: u64| Metric {
        name,
        value: v as f64,
        unit: "count",
        n: 1,
    };
    let mut metrics = vec![
        count("engine.events", c.events),
        m("engine.depth_p50", median(&c.depth), "count", c.depth.len()),
        m(
            "engine.depth_max",
            quantile(&c.depth, 1.0),
            "count",
            c.depth.len(),
        ),
        count("engine.overflow_max", c.overflow_max),
        count("engine.stale_timers_max", c.stale_max),
        m("engine.op_ns", engine.ns_per_op, "ns", engine.ops as usize),
        m(
            "engine.op_rel",
            engine.ns_per_op / ref_ns,
            "ref_steps",
            engine.ops as usize,
        ),
        m("sim.step_ns_p50", median(&step_ns), "ns", step_ns.len()),
        m(
            "sim.step_ns_tail",
            quantile(&step_ns, tail_pct / 100.0),
            "ns",
            step_ns.len(),
        ),
        count("sim.step_n", step_ns.len() as u64),
        m(
            "sim.events_per_burst",
            per(c.events, c.wire_bursts),
            "ratio",
            1,
        ),
        m("sim.finish_ms", finish_ms, "ms", n_finish),
        count("tcp.retx", c.retx),
        count("tcp.rto", c.rto),
    ];
    for (cc, r) in &tcp {
        let (ns, rel) = match cc {
            CcAlgorithm::Cubic => ("tcp.ack_ns.cubic", "tcp.ack_rel.cubic"),
            CcAlgorithm::BbrV1 => ("tcp.ack_ns.bbr1", "tcp.ack_rel.bbr1"),
            CcAlgorithm::BbrV3 => ("tcp.ack_ns.bbr3", "tcp.ack_rel.bbr3"),
            CcAlgorithm::Htcp => ("tcp.ack_ns.htcp", "tcp.ack_rel.htcp"),
        };
        metrics.push(m(ns, r.ns_per_op, "ns", r.ops as usize));
        metrics.push(m(rel, r.ns_per_op / ref_ns, "ref_steps", r.ops as usize));
    }
    metrics.extend([
        m("host.service_ns", host.ns_per_op, "ns", host.ops as usize),
        m(
            "host.service_rel",
            host.ns_per_op / ref_ns,
            "ref_steps",
            host.ops as usize,
        ),
        m(
            "host.zc_fallback_frac",
            per(c.zc_fallbacks, c.zc_sends),
            "ratio",
            1,
        ),
        count("nethw.switch_drops", c.switch_drops),
        count("nethw.ring_drops", c.ring_drops),
        m(
            "nethw.enqueue_ns",
            switch.ns_per_op,
            "ns",
            switch.ops as usize,
        ),
        m(
            "nethw.enqueue_rel",
            switch.ns_per_op / ref_ns,
            "ref_steps",
            switch.ops as usize,
        ),
        count("fleet.flows_served", flows),
        m("fleet.events_per_flow", per(c.events, flows), "ratio", 1),
        count("fleet.peak_slots", c.peak_slots),
        count("fleet.timers_cancelled", c.timers_cancelled),
        m(
            "fleet.ns_per_flow",
            fleet_run_ms * 1e6 / flows.max(1) as f64,
            "ns",
            n_fleet_run,
        ),
        m(
            "fleet.sample_ns_per_flow",
            sampler.ns_per_op,
            "ns",
            sampler.ops as usize,
        ),
        m(
            "fleet.sample_rel",
            sampler.ns_per_op / ref_ns,
            "ref_steps",
            sampler.ops as usize,
        ),
        m("obs.record_ns", obs.ns_per_op, "ns", obs.ops as usize),
        m(
            "obs.record_rel",
            obs.ns_per_op / ref_ns,
            "ref_steps",
            obs.ops as usize,
        ),
        m("attrib.overhead_pct", attrib_pct, "%", 2),
        count("harness.checkpoints", c.checkpoints),
        m("harness.checkpoint_ms", checkpoint_ms, "ms", n_checkpoint),
        m("harness.start_ms", start_ms, "ms", n_start),
        count(
            "harness.failed_reps",
            baseline.iter().map(|p| p.counters.failed_reps).sum(),
        ),
        m(
            "alloc.per_kevent",
            per(pass_allocs * 1000, c.events),
            "ratio",
            1,
        ),
        count("alloc.setup", alloc_setup),
        m("trace.overhead_pct", overhead_pct, "%", passes.len()),
        m("process.wall_s", untraced_wall, "s", baseline.len()),
    ]);
    out.metrics = metrics;
    out
}
