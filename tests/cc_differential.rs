//! Differential congestion-control properties: every [`CcAlgorithm`]
//! is driven through the same randomized ack/loss/RTT-sample schedules
//! and must uphold the shared controller contract:
//!
//! * the window never drops below the 2-MSS floor
//!   ([`MIN_CWND_SEGMENTS`]), no matter how hostile the schedule;
//! * pacing rates are always finite and positive — no NaN/inf ever
//!   reaches the fq pacer, including at zero/tiny smoothed RTTs;
//! * pure ack trains never shrink a loss-based controller's window,
//!   and never push a model-based (BBR) one below its initial window
//!   inside the min-RTT validity horizon;
//! * identical schedules produce bit-identical window trajectories
//!   (controllers are pure state machines — all randomness lives in
//!   the schedule generator's seed).
//!
//! The generator is hand-rolled on [`SimRng`] like `tests/properties.rs`:
//! every case derives from a fixed master seed, so failures reproduce.

use dtnperf::prelude::*;
use dtnperf::simcore::SimRng;
use dtnperf::tcpstack::cc::MIN_CWND_SEGMENTS;
use dtnperf::tcpstack::{Cc, CongestionControl};

const CASES: u64 = 16;
const STEPS: usize = 400;
const MSS: u64 = 9000;

/// One step of a schedule, applied identically to every controller.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// `acked` bytes, an optional RTT sample, whether cwnd-limited.
    Ack { acked: u64, rtt_us: Option<u64>, limited: bool },
    Loss,
    Rto,
}

/// Draw one schedule: a base RTT regime with queue flaps, burst-sized
/// acks, occasional losses and rare RTOs.
fn draw_schedule(master: u64, case: u64, with_losses: bool) -> Vec<Step> {
    let mut rng = SimRng::seed_from_u64(master ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let base_rtt_us = rng.uniform_u64(200, 250_000); // 0.2–250 ms
    let mut steps = Vec::with_capacity(STEPS);
    for _ in 0..STEPS {
        if with_losses && rng.chance(0.005) {
            steps.push(Step::Rto);
            continue;
        }
        if with_losses && rng.chance(0.03) {
            steps.push(Step::Loss);
            continue;
        }
        let rtt_us = rng.chance(0.9).then(|| {
            // Queue flap: up to +50 % standing queue over the base.
            base_rtt_us + rng.uniform_u64(0, 1 + base_rtt_us / 2)
        });
        steps.push(Step::Ack {
            acked: MSS * rng.uniform_u64(1, 65),
            rtt_us,
            limited: rng.chance(0.8),
        });
    }
    steps
}

/// Apply a schedule, asserting the per-step invariants; returns the
/// full cwnd trajectory for determinism comparison.
fn apply(cc: &mut dyn CongestionControl, steps: &[Step], label: &str) -> Vec<u64> {
    let floor = MSS * MIN_CWND_SEGMENTS;
    let mut now = SimTime::ZERO;
    let mut traj = Vec::with_capacity(steps.len());
    for (i, step) in steps.iter().enumerate() {
        now += SimDuration::from_micros(100);
        match *step {
            Step::Ack { acked, rtt_us, limited } => {
                let rtt = rtt_us.map(SimDuration::from_micros);
                let w = cc.cwnd();
                cc.on_ack(Bytes::new(acked), rtt, now, w, limited);
            }
            Step::Loss => cc.on_loss(now),
            Step::Rto => cc.on_rto(now),
        }
        let w = cc.cwnd().as_u64();
        assert!(w >= floor, "{label} step {i}: cwnd {w} under the 2-MSS floor ({step:?})");
        // Pacing must be finite and positive at any plausible srtt,
        // including the zero-srtt startup corner.
        for srtt_us in [0, 1, 500, 100_000] {
            let bps = cc.pacing_rate(SimDuration::from_micros(srtt_us)).as_bps();
            assert!(
                bps.is_finite() && bps > 0.0,
                "{label} step {i}: pacing {bps} at srtt {srtt_us} µs"
            );
        }
        // ssthresh, when reported, is a real byte count (the u64::MAX
        // "infinite" sentinel must never leak through the Option).
        if let Some(t) = cc.ssthresh() {
            assert!(t.as_u64() < u64::MAX / 2, "{label} step {i}: sentinel ssthresh leaked");
        }
        traj.push(w);
    }
    traj
}

fn build_all() -> Vec<(CcAlgorithm, Cc)> {
    CcAlgorithm::ALL
        .iter()
        .map(|&alg| (alg, alg.build(Bytes::new(MSS), Bytes::new(MSS * 10))))
        .collect()
}

/// Floor, finite-pacing and ssthresh invariants under hostile
/// randomized schedules, for every controller.
#[test]
fn invariants_hold_under_randomized_loss_schedules() {
    for case in 0..CASES {
        let steps = draw_schedule(0xD1FF, case, true);
        for (alg, mut cc) in build_all() {
            apply(&mut cc, &steps, &format!("{alg} case {case}"));
        }
    }
}

/// Identical schedules ⇒ bit-identical cwnd trajectories.
#[test]
fn trajectories_are_deterministic_across_reruns() {
    for case in 0..CASES / 2 {
        let steps = draw_schedule(0x5EED, case, true);
        for (alg, mut a) in build_all() {
            let mut b = alg.build(Bytes::new(MSS), Bytes::new(MSS * 10));
            let ta = apply(&mut a, &steps, &format!("{alg} A"));
            let tb = apply(&mut b, &steps, &format!("{alg} B"));
            assert_eq!(ta, tb, "{alg} case {case}: trajectories diverge");
        }
    }
}

/// Pure ack trains (no loss, no RTO, always cwnd-limited) must be
/// monotone for the loss-based controllers, and must never push a
/// BBR variant below its initial window within the min-RTT horizon
/// (the schedule stays under a simulated second — well inside both
/// versions' ProbeRTT cadence).
#[test]
fn pure_ack_trains_respond_monotonically()
{
    for case in 0..CASES {
        let steps = draw_schedule(0xACC5, case, false);
        for (alg, mut cc) in build_all() {
            let init = cc.cwnd().as_u64();
            let traj = apply(&mut cc, &steps, &format!("{alg} case {case}"));
            match alg {
                CcAlgorithm::Cubic | CcAlgorithm::Htcp => {
                    for (i, pair) in traj.windows(2).enumerate() {
                        assert!(
                            pair[1] >= pair[0],
                            "{alg} case {case}: cwnd shrank {} -> {} at step {} on a pure ack train",
                            pair[0],
                            pair[1],
                            i + 1
                        );
                    }
                }
                CcAlgorithm::BbrV1 | CcAlgorithm::BbrV3 => {
                    for (i, &w) in traj.iter().enumerate() {
                        assert!(
                            w >= init,
                            "{alg} case {case}: cwnd {w} fell below init {init} at step {i}"
                        );
                    }
                }
            }
        }
    }
}

/// More acked bytes never yields a *smaller* final window for H-TCP:
/// feed the same clean schedule with every ack doubled and compare the
/// outcomes. (CUBIC is deliberately excluded — doubling ack volume
/// makes HyStart++'s CSS-exit condition `css_acked > 3 × entry_cwnd`
/// trip sooner, ending slow start at a *smaller* window; that is
/// correct RFC 9406 behaviour, not a bug, so ack volume is not
/// monotone for CUBIC.)
#[test]
fn doubled_ack_volume_never_shrinks_the_window() {
    for case in 0..CASES / 2 {
        let steps = draw_schedule(0xB16B, case, false);
        let doubled: Vec<Step> = steps
            .iter()
            .map(|s| match *s {
                Step::Ack { acked, rtt_us, limited } => {
                    Step::Ack { acked: acked * 2, rtt_us, limited }
                }
                other => other,
            })
            .collect();
        let alg = CcAlgorithm::Htcp;
        let mut a = alg.build(Bytes::new(MSS), Bytes::new(MSS * 10));
        let mut b = alg.build(Bytes::new(MSS), Bytes::new(MSS * 10));
        let wa = *apply(&mut a, &steps, "base").last().unwrap();
        let wb = *apply(&mut b, &doubled, "doubled").last().unwrap();
        assert!(
            wb >= wa,
            "{alg} case {case}: doubling acked bytes shrank cwnd {wa} -> {wb}"
        );
    }
}
