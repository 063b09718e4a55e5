//! Property-based tests: invariants that must hold for *any*
//! configuration, checked over randomly drawn scenarios.
//!
//! The scenario generator is hand-rolled on the workspace's own
//! [`SimRng`] (no external property-testing dependency): each property
//! draws `CASES` scenarios from a fixed master seed, so failures are
//! reproducible by construction. Runs are short (1–2 simulated
//! seconds) and the case count modest — each case is a full
//! discrete-event simulation.

use dtnperf::prelude::*;
use dtnperf::simcore::SimRng;

const CASES: u64 = 10;

#[derive(Debug, Clone)]
struct AnyScenario {
    amd: bool,
    kernel: KernelVersion,
    rtt_ms: u64,
    flows: usize,
    pace_gbps: Option<f64>,
    zerocopy: bool,
    skip_rx_copy: bool,
    cc: CcAlgorithm,
    seed: u64,
}

/// Draw one scenario. Each case gets its own RNG stream derived from
/// (master seed, case index) so properties stay independent.
fn draw(master: u64, case: u64) -> AnyScenario {
    let mut rng = SimRng::seed_from_u64(master ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let kernel = match rng.uniform_u64(0, 3) {
        0 => KernelVersion::L5_15,
        1 => KernelVersion::L6_5,
        _ => KernelVersion::L6_8,
    };
    let cc = match rng.uniform_u64(0, 4) {
        0 => CcAlgorithm::Cubic,
        1 => CcAlgorithm::BbrV1,
        2 => CcAlgorithm::BbrV3,
        _ => CcAlgorithm::Htcp,
    };
    AnyScenario {
        amd: rng.chance(0.5),
        kernel,
        rtt_ms: rng.uniform_u64(0, 60),
        flows: 1 + rng.uniform_u64(0, 3) as usize,
        pace_gbps: if rng.chance(0.5) { Some(2.0 + rng.uniform_u64(0, 28) as f64) } else { None },
        zerocopy: rng.chance(0.5),
        skip_rx_copy: rng.chance(0.5),
        cc,
        seed: rng.uniform_u64(0, 1_000_000),
    }
}

fn build(s: &AnyScenario) -> (HostConfig, PathSpec, Iperf3Opts) {
    let host = if s.amd {
        Testbeds::esnet_host(s.kernel)
    } else {
        Testbeds::amlight_host(s.kernel)
    };
    let rate = if s.amd { 200.0 } else { 100.0 };
    let path = if s.rtt_ms == 0 {
        PathSpec::lan("prop-lan", BitRate::gbps(rate))
    } else {
        PathSpec::wan("prop-wan", BitRate::gbps(rate), SimDuration::from_millis(s.rtt_ms))
    };
    let mut opts = Iperf3Opts::new(2).omit(0).parallel(s.flows).congestion(s.cc).seed(s.seed);
    if let Some(g) = s.pace_gbps {
        opts = opts.fq_rate(BitRate::gbps(g));
    }
    if s.zerocopy {
        opts = opts.zerocopy();
    }
    if s.skip_rx_copy {
        opts = opts.skip_rx_copy();
    }
    (host, path, opts)
}

/// A random fault schedule for a 2-second run (possibly empty).
fn draw_faults(rng: &mut SimRng) -> FaultPlan {
    let mut plan = FaultPlan::none();
    let n = rng.uniform_u64(0, 3); // 0..=2 faults
    for _ in 0..n {
        let at = SimDuration::from_millis(200 + rng.uniform_u64(0, 1200));
        let dur = SimDuration::from_millis(50 + rng.uniform_u64(0, 300));
        plan = match rng.uniform_u64(0, 4) {
            0 => plan.with_bursty_loss(at, dur, rng.uniform(0.1, 0.7)),
            1 => plan.with_link_flap(at, dur),
            2 => plan.with_receiver_stall(at, dur),
            _ => plan.with_pause_storm(at, dur),
        };
    }
    plan
}

/// Goodput can never exceed the narrowest physical limit.
#[test]
fn goodput_bounded_by_physics() {
    for case in 0..CASES {
        let s = draw(0xFEED, case);
        let (host, path, opts) = build(&s);
        let report = iperf3_run(&host, &host, &path, &opts).unwrap();
        let nic = host.nic.effective_rate().as_gbps();
        let mut limit = path.usable_rate().as_gbps().min(nic);
        if let Some(g) = s.pace_gbps {
            limit = limit.min(g * s.flows as f64);
        }
        let got = report.sum_bitrate().as_gbps();
        assert!(
            got <= limit * 1.02 + 0.1,
            "goodput {got:.2} exceeds physical limit {limit:.2} ({s:?})"
        );
    }
}

/// Same (config, seed) ⇒ bit-identical results.
#[test]
fn runs_are_deterministic() {
    for case in 0..CASES {
        let s = draw(0xD00D, case);
        let (host, path, opts) = build(&s);
        let a = iperf3_run(&host, &host, &path, &opts).unwrap();
        let b = iperf3_run(&host, &host, &path, &opts).unwrap();
        assert_eq!(a.sum_bitrate().as_bps(), b.sum_bitrate().as_bps(), "{s:?}");
        assert_eq!(a.sum_retr(), b.sum_retr(), "{s:?}");
        assert!((a.sender_cpu.combined_pct() - b.sender_cpu.combined_pct()).abs() < 1e-9);
    }
}

/// Per-stream rates respect the per-flow pacing cap.
#[test]
fn pacing_caps_each_stream() {
    for case in 0..CASES {
        let s = draw(0xBEEF, case);
        let (host, path, opts) = build(&s);
        let report = iperf3_run(&host, &host, &path, &opts).unwrap();
        if let Some(g) = s.pace_gbps {
            for stream in &report.streams {
                assert!(
                    stream.bitrate.as_gbps() <= g * 1.02 + 0.05,
                    "stream {} at {:.2} beats its {g} G cap ({s:?})",
                    stream.id,
                    stream.bitrate.as_gbps()
                );
            }
        }
    }
}

/// CPU accounting stays within physical bounds and data moves.
#[test]
fn cpu_and_liveness_sane() {
    for case in 0..CASES {
        let s = draw(0xCAFE, case);
        let (host, path, opts) = build(&s);
        let report = iperf3_run(&host, &host, &path, &opts).unwrap();
        let n_cores = (host.cores.app_cores.len() + host.cores.irq_cores.len()) as f64;
        for cpu in [&report.sender_cpu, &report.receiver_cpu] {
            assert!(cpu.combined_pct() >= 0.0);
            assert!(
                cpu.combined_pct() <= n_cores * 100.0 + 1e-6,
                "CPU {:.0}% exceeds {} cores ({s:?})",
                cpu.combined_pct(),
                n_cores
            );
            assert!(cpu.peak_core_pct <= 100.0 + 1e-6);
        }
        // Liveness: every configuration must move *some* data.
        assert!(report.sum_bitrate().as_gbps() > 0.01, "no data moved ({s:?})");
        // Stream accounting adds up.
        assert_eq!(report.streams.len(), s.flows);
        let sum: f64 = report.streams.iter().map(|f| f.bitrate.as_bps()).sum();
        assert!((sum - report.sum_bitrate().as_bps()).abs() < 1.0);
    }
}

/// A clean path (no drops anywhere) must not retransmit more than
/// the occasional tail-loss probe.
#[test]
fn clean_paths_barely_retransmit() {
    for case in 0..CASES {
        let s = draw(0xF00D, case);
        // Only meaningful when nothing is overloaded: pace gently.
        let (host, path, mut opts) = build(&s);
        let per_flow = 4.0 / s.flows as f64;
        opts = opts.fq_rate(BitRate::gbps(per_flow));
        let report = iperf3_run(&host, &host, &path, &opts).unwrap();
        let pkts_per_burst = host.offload.packets_per_burst();
        assert!(
            report.sum_retr() <= 4 * pkts_per_burst * s.flows as u64,
            "gently-paced clean path retransmitted {} packets ({s:?})",
            report.sum_retr()
        );
    }
}

/// Burst conservation holds for any configuration, with or without an
/// injected fault schedule: every burst handed to the wire is either
/// delivered, accounted to a drop counter, or still in flight when the
/// run ends. `Simulation::finish` verifies the ledger and returns
/// [`SimError::ConservationViolation`] on any mismatch — so `Ok` *is*
/// the property.
#[test]
fn bursts_conserved_across_random_configs_and_faults() {
    for case in 0..CASES {
        let s = draw(0xACED, case);
        let (host, path, _) = build(&s);
        let mut rng = SimRng::seed_from_u64(0xACED ^ case);
        for faults in [FaultPlan::none(), draw_faults(&mut rng)] {
            let faulted = !faults.is_empty();
            let workload = WorkloadSpec::parallel(s.flows, 2)
                .with_seed(s.seed)
                .with_faults(faults);
            let cfg = SimConfig {
                sender: host.clone(),
                receiver: host.clone(),
                path: path.clone(),
                workload,
            };
            let res = Simulation::new(cfg)
                .expect("drawn scenario must validate")
                .run()
                .unwrap_or_else(|e| panic!("conservation/run failure ({s:?}): {e}"));
            assert!(res.wire_sent > 0, "nothing reached the wire ({s:?})");
            if !faulted {
                assert_eq!(res.fault_drops, 0, "fault drops without faults ({s:?})");
            }
        }
    }
}

/// The windowed min-RTT filter vs a brute-force reference, over
/// randomized sample/flap schedules (regime shifts up and down, dense
/// and sparse gaps, queue jitter). The filter is Linux's three-slot
/// `minmax` estimator — approximate by design under sparse sampling —
/// so the exact contract is:
///
/// * the reported min is an *actual sample* observed within the last
///   [`MIN_RTT_WINDOW`] (so a stale pre-flap floor can never pin);
/// * it is never below the brute-force windowed minimum;
/// * it is never above the newest sample;
/// * SRTT stays inside the all-time sample envelope and the RTO inside
///   its RFC 6298 clamps.
#[test]
fn min_rtt_filter_tracks_brute_force_window() {
    use dtnperf::tcpstack::rtt::{MAX_RTO, MIN_RTO, MIN_RTT_WINDOW};
    use dtnperf::tcpstack::RttEstimator;
    for case in 0..20u64 {
        let mut rng = SimRng::seed_from_u64(0x11217 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut est = RttEstimator::new();
        let mut samples: Vec<(SimTime, SimDuration)> = Vec::new();
        let mut now = SimTime::ZERO;
        let mut global_min = u64::MAX;
        let mut global_max = 0u64;
        let regimes = 2 + rng.uniform_u64(0, 3);
        for _ in 0..regimes {
            // A path regime: base RTT with up to +30 % queue jitter,
            // lasting 1–15 s, sampled at gaps from 10 ms to 2 s.
            let base_us = rng.uniform_u64(500, 200_000);
            let end = now + SimDuration::from_millis(1000 + rng.uniform_u64(0, 14_000));
            while now < end {
                now += SimDuration::from_millis(10 + rng.uniform_u64(0, 1_990));
                let rtt_us = base_us + rng.uniform_u64(0, 1 + (base_us * 3) / 10);
                let sample = SimDuration::from_micros(rtt_us);
                est.on_sample(sample, now);
                samples.push((now, sample));
                global_min = global_min.min(rtt_us);
                global_max = global_max.max(rtt_us);
                // Brute force: samples no older than the window.
                samples.retain(|(t, _)| now.saturating_since(*t) <= MIN_RTT_WINDOW);
                let brute = samples.iter().map(|(_, s)| *s).min().expect("non-empty");
                let got = est.min_rtt();
                assert!(
                    got >= brute,
                    "case {case}: filter {got:?} below brute-force window min {brute:?}"
                );
                assert!(
                    samples.iter().any(|(_, s)| *s == got),
                    "case {case}: filter {got:?} is not an in-window sample"
                );
                assert!(got <= sample, "case {case}: filter {got:?} above newest {sample:?}");
                let srtt_us = est.srtt().expect("sampled").as_nanos() / 1_000;
                assert!(
                    (global_min..=global_max).contains(&srtt_us),
                    "case {case}: srtt {srtt_us} outside sample envelope"
                );
                assert!(est.rto() >= MIN_RTO && est.rto() <= MAX_RTO);
            }
        }
    }
}

/// A mid-run link flap must be survivable: once the outage clears, the
/// flow regrows to at least 90 % of its pre-flap per-second goodput.
#[test]
fn link_flap_recovers_to_pre_flap_goodput() {
    for case in 0..3 {
        // LAN only: recovery inside the run needs a short RTT.
        let host = Testbeds::esnet_host(KernelVersion::L6_8);
        let path = PathSpec::lan("flap-lan", BitRate::gbps(200.0));
        let plan = FaultPlan::none()
            .with_link_flap(SimDuration::from_millis(2500), SimDuration::from_millis(100));
        // 6 s keeps the omit window at zero, so interval bin 1 really
        // is steady pre-flap state.
        let workload = WorkloadSpec::single_stream(6).with_seed(100 + case).with_faults(plan);
        let cfg = SimConfig {
            sender: host.clone(),
            receiver: host.clone(),
            path,
            workload,
        };
        let res = Simulation::new(cfg).expect("config").run().expect("run");
        let intervals = &res.flows[0].intervals;
        assert!(intervals.len() >= 5, "need 1-second bins, got {}", intervals.len());
        // Bin 1 (t=1..2 s) is steady pre-flap; the final bin is the
        // recovered state, several RTO/slow-start cycles after the flap.
        let before = intervals[1].as_gbps();
        let after = intervals[intervals.len() - 1].as_gbps();
        assert!(
            after >= before * 0.9,
            "seed {}: post-flap {after:.1} Gbps < 90% of pre-flap {before:.1} Gbps",
            100 + case
        );
        // And the flap itself must be visible in the fault ledger.
        assert!(res.fault_drops > 0, "outage dropped nothing");
    }
}
