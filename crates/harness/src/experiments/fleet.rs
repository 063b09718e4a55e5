//! `ext_fleet` — arrival-process fleet workloads with streaming FCT
//! aggregation.
//!
//! ROADMAP item 2: instead of a handful of long-lived iperf3 streams,
//! drive *flow arrivals* — a Poisson WAN mix and an MMPP-modulated
//! incast (the arXiv:1905.01194 shape) — through
//! [`netsim::FleetSim`], serving up to millions of finite flows in one
//! simulation with O(active-flow) memory. Flow-completion times fold
//! through the streaming [`obs::IntervalAggregator`] (p50/p99/p999 per
//! interval), never per-flow vectors.
//!
//! Three profiles, scaled by [`Effort::fleet_target_flows`]:
//!
//! * `fleet_steady` — Poisson arrivals, log-normal sizes, diurnal rate
//!   swing, a four-class WAN mix spanning every `CcAlgorithm`;
//! * `fleet_incast_unpaced` — 2-state MMPP bursts into a shallow
//!   top-of-rack buffer at 200 µs RTT, no pacing;
//! * `fleet_incast_paced` — the same offered load with FQ-style
//!   per-flow pacing.
//!
//! Golden shapes (verdict rows, `MISMATCH` ⇒ failed scenario):
//!
//! * incast inflates the normalized p99 FCT slowdown vs the steady
//!   Poisson mix (queue-building bursts hurt the tail);
//! * pacing improves the incast p999 FCT (paper §V takeaway: `fq`
//!   pacing smooths bursts — here it spreads whole-window losses into
//!   recoverable ones).
//!
//! Each profile also reports *what limited the p99*: the bottleneck
//! verdicts of [`netsim::attribution`] rolled up to fleet scale,
//! classifying every tail flow by its dominant factor (RTO stall, loss
//! recovery, cwnd-limited, bottleneck share).
//!
//! Each profile is one repetition under
//! [`Supervisor::drive`](crate::supervise::Supervisor::drive), like
//! every other run: crash isolation, the effort deadline, checkpoints,
//! chaos kills, heartbeats, and one [`ScenarioRecord`] in the run
//! ledger.

use crate::ctx::RunCtx;
use crate::effort::Effort;
use crate::render::TableData;
use crate::sched;
use crate::supervise::ScenarioRecord;
use netsim::{
    ArrivalProcess, Diurnal, FleetClass, FleetProfile, FleetResult, FleetSim, SizeDist,
};
use simcore::{BitRate, Bytes, SimDuration};
use tcpstack::CcAlgorithm;

/// Steady-profile arrival rate (flows/s). Held fixed across efforts —
/// effort scales *duration* (and thus total flows), so per-flow
/// statistics stay comparable from smoke to full.
const STEADY_RATE: f64 = 10_000.0;

/// Incast arrival-rate components: calm valleys punctuated by ~1.5 ms
/// fan-in epochs at 7.5× the calm rate. The pressure is deliberately
/// *moderate*: sustained oversubscription collapses paced and unpaced
/// alike, while here the tail is set by min-RTO stalls — a recovery
/// retransmit re-dropped at the shallow 320 KiB port sits out the full
/// 200 ms floor (TLP is quiet inside recovery). Pacing spreads each
/// epoch's bursts across the line rate, cutting the re-drop odds below
/// the p999 point while the unpaced fleet stays above it (the paper's
/// shallow-buffer + `fq` story at fleet scale).
const INCAST_CALM_RATE: f64 = 2_000.0;
const INCAST_BURST_RATE: f64 = 15_000.0;
const INCAST_CALM_SECS: f64 = 0.045;
const INCAST_BURST_SECS: f64 = 0.0015;

/// The steady Poisson WAN mix: four classes covering every congestion
/// controller, deep-buffered 25 G bottlenecks, ~50 % mean utilisation.
fn steady_profile(effort: Effort) -> FleetProfile {
    let target = effort.fleet_target_flows();
    let mut p = FleetProfile::new(
        "fleet_steady",
        ArrivalProcess::Poisson { rate_per_sec: STEADY_RATE },
        // Median 256 KiB, σ = 0.5 → mean ≈ 290 KB, p99 ≈ 820 KiB: a
        // mice-and-elephants WAN mix whose elephants stay within a few
        // slow-start rounds. (Wider σ inflates the *steady* slowdown
        // tail with pure cwnd-ramp RTTs, drowning the congestion
        // signal the incast comparison is meant to isolate.)
        SizeDist::LogNormal { median_bytes: 256.0 * 1024.0, sigma: 0.5 },
    );
    p.duration = SimDuration::from_secs_f64(target as f64 / STEADY_RATE);
    p.max_flows = target;
    p.diurnal = Some(Diurnal { amplitude: 0.3, period_secs: 5.0 });
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
        FleetClass {
            name: "htcp_lfn".into(),
            weight: 1,
            cc: CcAlgorithm::Htcp,
            pacing: false,
            rtt: SimDuration::from_millis(120),
            bottleneck: BitRate::gbps(25.0),
            buffer: Bytes::mib(64),
        },
        FleetClass {
            name: "bbr3_metro".into(),
            weight: 1,
            cc: CcAlgorithm::BbrV3,
            pacing: true,
            rtt: SimDuration::from_millis(10),
            bottleneck: BitRate::gbps(25.0),
            buffer: Bytes::mib(32),
        },
    ];
    p
}

/// The incast burst profile (arXiv:1905.01194's fan-in shape): MMPP
/// bursts of small bounded-Pareto transfers into one shallow-buffered
/// 10 G top-of-rack port at 200 µs RTT. `paced` toggles FQ-style
/// per-flow pacing — the only knob that differs between the two incast
/// rows, so their delta is the pacing effect.
fn incast_profile(effort: Effort, paced: bool) -> FleetProfile {
    let mean_rate = (INCAST_CALM_RATE * INCAST_CALM_SECS
        + INCAST_BURST_RATE * INCAST_BURST_SECS)
        / (INCAST_CALM_SECS + INCAST_BURST_SECS);
    let target = (effort.fleet_target_flows() / 6).max(8_000);
    let mut p = FleetProfile::new(
        if paced { "fleet_incast_paced" } else { "fleet_incast_unpaced" },
        ArrivalProcess::Mmpp2 {
            calm_rate: INCAST_CALM_RATE,
            burst_rate: INCAST_BURST_RATE,
            mean_calm_secs: INCAST_CALM_SECS,
            mean_burst_secs: INCAST_BURST_SECS,
        },
        SizeDist::BoundedPareto { alpha: 1.2, min_bytes: 32 * 1024, max_bytes: 512 * 1024 },
    );
    p.duration = SimDuration::from_secs_f64(target as f64 / mean_rate);
    p.max_flows = target;
    p.burst = Bytes::kib(16);
    p.classes = vec![FleetClass {
        name: "incast_tor".into(),
        weight: 1,
        cc: CcAlgorithm::Cubic,
        pacing: paced,
        rtt: SimDuration::from_micros(200),
        bottleneck: BitRate::gbps(10.0),
        buffer: Bytes::kib(320),
    }];
    p
}

/// All three `ext_fleet` profiles in table order.
fn profiles(effort: Effort) -> Vec<FleetProfile> {
    vec![steady_profile(effort), incast_profile(effort, false), incast_profile(effort, true)]
}

/// Run one profile as a one-repetition scenario under the context's
/// supervisor, seeded by the profile fingerprint, and record it in the
/// ledger. `configure` adjusts the simulation before it starts (tests
/// tighten its watchdog budget). `None` means the run produced no
/// result: the supervisor's classed [`crate::FailedRep`] is recorded.
pub fn run_profile(
    ctx: &RunCtx,
    profile: &FleetProfile,
    configure: impl Fn(FleetSim) -> FleetSim,
) -> Option<FleetResult> {
    let wall_start = std::time::Instant::now();
    let outcome = ctx.supervisor().drive(profile.fingerprint(), || {
        FleetSim::new(profile.clone()).map(|sim| configure(sim).start())
    });
    if let Some(hub) = &ctx.metrics {
        hub.rep_finished(outcome.is_err(), wall_start.elapsed());
    }
    if let Err(f) = &outcome {
        eprintln!("warning: scenario '{}': {}", profile.name, f.error);
    }
    ctx.ledger.record(ScenarioRecord {
        label: profile.name.clone(),
        expected: 1,
        completed: usize::from(outcome.is_ok()),
        failed: outcome.as_ref().err().cloned().into_iter().collect(),
    });
    let res = outcome.ok()?;
    ctx.ledger.add_late_dropped(res.late_dropped);
    if let Some(hub) = &ctx.metrics {
        let io = crate::chaos::artefact_io(ctx.chaos.as_ref());
        hub.write_intervals(io.as_ref(), &res.name, 0, &res.intervals);
    }
    Some(res)
}

/// `831 → "831us"`, `12_400 → "12.4ms"` — FCT cells span µs to seconds.
fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.1}ms", us as f64 / 1e3)
    } else {
        format!("{us}us")
    }
}

/// Per-profile sanity beyond the engine's own end-of-run checks (which
/// already fail a run with open flows or a leaked slab): some flow
/// opened, no samples lost, no causality clamps.
fn sane(res: &FleetResult) -> bool {
    res.flows_opened > 0 && res.late_dropped == 0 && res.past_clamps == 0
}

/// Run the three profiles (each one a leaf job holding a scheduler-gate
/// permit, so at most `REPRO_JOBS` simulations run at once; each run is
/// single-threaded and seeded from its profile fingerprint, so results
/// are bit-identical at any `REPRO_JOBS`) and render one row per
/// profile plus the golden-shape verdict rows.
pub fn fleet(ctx: &RunCtx) -> TableData {
    let mut table = TableData::new(
        "ext_fleet — arrival-process fleet workloads, streaming FCT aggregation",
        vec![
            "profile", "flows", "p50 fct", "p99 fct", "p999 fct", "slowdown p99",
            "goodput", "drops", "p99 limited by", "verdict",
        ],
    );
    let profs = profiles(ctx.effort);
    let n = profs.len();
    if let Some(hub) = &ctx.metrics {
        hub.expect_reps(n as u64);
    }
    let results =
        sched::run_batch(sched::global_gate(), n, |i| run_profile(ctx, &profs[i], |sim| sim));
    for res in results.iter().flatten() {
        let ok = sane(res);
        if !ok {
            ctx.ledger.record_failure(
                &res.name,
                format!(
                    "fleet invariants violated: opened {}, late {}, clamps {}",
                    res.flows_opened, res.late_dropped, res.past_clamps,
                ),
            );
        }
        let limited = res
            .tail_rollup()
            .iter()
            .find(|(_, flows)| *flows > 0)
            .map(|(factor, flows)| format!("{factor} ({flows})"))
            .unwrap_or_else(|| "-".into());
        table.push_row(vec![
            res.name.clone(),
            res.flows_served.to_string(),
            fmt_us(res.fct_us(0.50).unwrap_or(0)),
            fmt_us(res.fct_us(0.99).unwrap_or(0)),
            fmt_us(res.fct_us(0.999).unwrap_or(0)),
            format!("{:.1}x", res.slowdown_x100(0.99).unwrap_or(0) as f64 / 100.0),
            format!("{:.2}Gbps", res.goodput_gbps()),
            res.drops.to_string(),
            limited,
            if ok { "ok".into() } else { "MISMATCH".into() },
        ]);
    }

    // Golden shapes across profiles.
    let find = |name: &str| {
        results.iter().flatten().find(|r| r.name == name)
    };
    let mut verdict = |name: &'static str, detail: String, holds: bool| {
        if !holds {
            ctx.ledger.record_failure(name, format!("ordering violated: {detail}"));
        }
        let mut row = vec!["-".to_string(); 10];
        row[0] = "ordering".into();
        row[8] = format!("{name}: {detail}");
        row[9] = if holds { "ok".into() } else { "MISMATCH".into() };
        table.push_row(row);
    };
    // Incast degrades the tail vs the steady mix — compared on the
    // scale-free slowdown (fct ÷ ideal fct), since raw FCTs live on
    // different RTT and size scales.
    if let (Some(steady), Some(incast)) = (find("fleet_steady"), find("fleet_incast_unpaced")) {
        let s = steady.slowdown_x100(0.99).unwrap_or(0);
        let i = incast.slowdown_x100(0.99).unwrap_or(0);
        verdict(
            "incast-degrades-p99",
            format!("incast slowdown {:.1}x vs steady {:.1}x", i as f64 / 100.0, s as f64 / 100.0),
            i >= s,
        );
    }
    // Pacing improves the incast p999 FCT (same profile, same scale —
    // raw microseconds compare directly; 5 % slack for quantile
    // bucketing).
    if let (Some(unpaced), Some(paced)) =
        (find("fleet_incast_unpaced"), find("fleet_incast_paced"))
    {
        let u = unpaced.fct_us(0.999).unwrap_or(0);
        let p = paced.fct_us(0.999).unwrap_or(0);
        verdict(
            "pacing-improves-incast-p999",
            format!("paced {} vs unpaced {}", fmt_us(p), fmt_us(u)),
            p as f64 <= u as f64 * 1.05,
        );
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::effort::Effort;

    #[test]
    fn profiles_validate_and_scale_with_effort() {
        for effort in [Effort::Smoke, Effort::Standard, Effort::Full] {
            for p in profiles(effort) {
                assert!(p.validate().is_empty(), "{}: {:?}", p.name, p.validate());
            }
        }
        // Full effort crosses the ≥1M-flows bar in the steady profile.
        assert!(profiles(Effort::Full)[0].max_flows >= 1_000_000);
        // The two incast profiles differ only in pacing: identical
        // arrivals, sizes, duration and class shape.
        let u = incast_profile(Effort::Smoke, false);
        let p = incast_profile(Effort::Smoke, true);
        assert_eq!(u.duration, p.duration);
        assert_eq!(u.max_flows, p.max_flows);
        assert!(!u.classes[0].pacing && p.classes[0].pacing);
    }

    #[test]
    fn fleet_serves_all_profiles_with_golden_shapes_at_smoke() {
        let ctx = RunCtx::new(Effort::Smoke);
        let table = fleet(&ctx);
        let profile_rows: Vec<_> = table.rows.iter().filter(|r| r[0] != "ordering").collect();
        assert_eq!(profile_rows.len(), 3, "{:?}", table.rows);
        let ordering_rows: Vec<_> = table.rows.iter().filter(|r| r[0] == "ordering").collect();
        assert_eq!(ordering_rows.len(), 2, "{:?}", table.rows);
        for row in &table.rows {
            assert_eq!(row[9], "ok", "{row:?}");
        }
        assert_eq!(ctx.ledger.failed_scenarios(), Vec::<String>::new());
        assert_eq!(ctx.ledger.late_dropped(), 0);
        // One complete one-repetition record per profile.
        let records = ctx.ledger.snapshot();
        assert_eq!(records.len(), 3, "{records:?}");
        assert!(records.iter().all(|r| r.expected == 1 && r.complete()), "{records:?}");

        // A watchdog-stopped profile is a lost repetition, classed and
        // recorded on its fingerprint seed by the supervisor.
        let ctx = RunCtx::new(Effort::Smoke);
        let stalled = profiles(Effort::Smoke)[1].clone();
        assert!(run_profile(&ctx, &stalled, |sim| sim.with_event_budget(10)).is_none());
        let records = ctx.ledger.snapshot();
        assert_eq!(records.len(), 1, "{records:?}");
        assert_eq!((records[0].expected, records[0].completed, records[0].failed.len()), (1, 0, 1));
        assert_eq!(
            ctx.ledger.failed_scenarios(),
            [format!("fleet_incast_unpaced: watchdog-budget on seed {:#018x}", stalled.fingerprint())]
        );
        assert_eq!(ctx.ledger.exit_code(), 1);
        // The failure reads as the engine error it is, in the ledger
        // and in the degraded-run manifest.
        let error = &records[0].failed[0].error;
        assert!(error.starts_with("simulation stalled"), "{error}");
        assert!(!error.contains("iperf3"), "{error}");
        let manifest = ctx.ledger.manifest_json();
        assert!(manifest.contains("\"error\":\"simulation stalled"), "{manifest}");
        assert!(!manifest.contains("iperf3"), "{manifest}");
    }
}
