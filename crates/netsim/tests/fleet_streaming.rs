//! The fleet engine's scale contract: more than a million finite flows
//! served through one simulation with O(active-flow) memory, every
//! completion folded through the streaming interval aggregator (no
//! per-flow vectors, no late drops), and the whole run reproducible
//! bit-for-bit from the profile alone.

use netsim::{ArrivalProcess, FleetClass, FleetProfile, FleetResult, FleetSim, SizeDist};
use simcore::{BitRate, Bytes, SimDuration};
use tcpstack::CcAlgorithm;

/// A deliberately light per-flow workload — 1–2 bursts over an
/// uncongested 100 G hop — so a million-flow run stays cheap enough
/// for the tier-1 suite while still churning the open/close, slab and
/// timer-wheel paths a million times.
fn mouse_fleet(target: u64) -> FleetProfile {
    let rate = 50_000.0;
    let mut p = FleetProfile::new(
        "fleet_streaming_mice",
        ArrivalProcess::Poisson { rate_per_sec: rate },
        SizeDist::BoundedPareto { alpha: 1.5, min_bytes: 16 * 1024, max_bytes: 32 * 1024 },
    );
    p.duration = SimDuration::from_secs_f64(target as f64 / rate);
    p.max_flows = target;
    p.burst = Bytes::kib(16);
    p.classes = vec![FleetClass {
        name: "mice".into(),
        weight: 1,
        cc: CcAlgorithm::Cubic,
        pacing: false,
        rtt: SimDuration::from_micros(500),
        bottleneck: BitRate::gbps(100.0),
        buffer: Bytes::mib(4),
    }];
    p
}

fn run(target: u64) -> FleetResult {
    FleetSim::new(mouse_fleet(target))
        .expect("profile validates")
        .with_event_budget(target.saturating_mul(400).saturating_add(10_000_000))
        .run()
        .expect("fleet run completes")
}

#[test]
fn million_flows_stream_with_o_active_memory() {
    let target = 1_050_000;
    let res = run(target);

    // Scale: every arrival served, none stuck, and we really crossed
    // the million-flow bar.
    assert_eq!(res.flows_served, res.flows_opened);
    assert!(res.flows_served > 1_000_000, "served {}", res.flows_served);

    // O(active) memory: the slot slab high-water mark tracks the
    // concurrently-active population (arrival rate × FCT ≈ dozens),
    // not the total flow count. A leak of even 1% of closed flows
    // would blow through this bound.
    assert!(
        res.peak_slots as u64 * 100 < res.flows_served,
        "peak {} slots for {} flows is not O(active)",
        res.peak_slots,
        res.flows_served
    );

    // Teardown reclaimed every slab slot through the timer wheel's
    // tombstone path.
    assert_eq!(res.health.slab_slots, res.health.free_slots, "leaked slab slots");
    assert_eq!(res.health.stale_timers, 0, "stale timers after drain");
    assert_eq!(res.past_clamps, 0);

    // Streaming aggregation: everything landed before the watermark,
    // and each sealed interval carries coherent FCT quantiles.
    assert_eq!(res.late_dropped, 0);
    assert!(!res.intervals.is_empty());
    let mut samples = 0;
    for rec in &res.intervals {
        if let Some(fct) = rec.metrics.get("fct_us") {
            samples += fct.count();
            let (p50, p99, p999) = (
                fct.quantile(0.50).unwrap_or(0),
                fct.quantile(0.99).unwrap_or(0),
                fct.quantile(0.999).unwrap_or(0),
            );
            assert!(p50 <= p99 && p99 <= p999, "non-monotone interval quantiles");
        }
    }
    assert_eq!(samples, res.flows_served, "streamed FCT samples must cover every flow");

    // Run-level quantiles are monotone too.
    let (p50, p99, p999) = (
        res.fct_us(0.50).unwrap_or(0),
        res.fct_us(0.99).unwrap_or(0),
        res.fct_us(0.999).unwrap_or(0),
    );
    assert!(p50 > 0 && p50 <= p99 && p99 <= p999, "bad run quantiles {p50}/{p99}/{p999}");
}

#[test]
fn fleet_runs_are_bit_identical() {
    // Same profile, two independent engine instances: identical event
    // counts, service totals and tail quantiles (position-independent
    // per-flow seeding).
    let a = run(120_000);
    let b = run(120_000);
    assert_eq!(a.events, b.events);
    assert_eq!(a.flows_served, b.flows_served);
    assert_eq!(a.total_bytes, b.total_bytes);
    assert_eq!(a.drops, b.drops);
    assert_eq!(a.fct_us(0.50), b.fct_us(0.50));
    assert_eq!(a.fct_us(0.999), b.fct_us(0.999));
    assert_eq!(a.finished_at, b.finished_at);
}

/// A short two-class WAN mix — unpaced CUBIC at 40 ms and paced BBR at
/// 70 ms, log-normal sizes — whose flows re-arm and cancel loss timers
/// all the way to close. The last flows' cancelled timers often sit
/// later in the wheel than the final live event, so the drained queue
/// must drop them rather than report them as stale.
fn wan_fleet(seed: u64) -> FleetProfile {
    let rate = 10_000.0;
    let mut p = FleetProfile::new(
        "fleet_streaming_wan",
        ArrivalProcess::Poisson { rate_per_sec: rate },
        SizeDist::LogNormal { median_bytes: 256.0 * 1024.0, sigma: 0.5 },
    );
    p.max_flows = 200;
    p.duration = SimDuration::from_secs_f64(200.0 / rate);
    p.seed = seed;
    let class = |name: &str, cc, pacing, rtt_ms| FleetClass {
        name: name.into(),
        weight: 1,
        cc,
        pacing,
        rtt: SimDuration::from_millis(rtt_ms),
        bottleneck: BitRate::gbps(25.0),
        buffer: Bytes::mib(64),
    };
    p.classes = vec![
        class("cubic_wan", CcAlgorithm::Cubic, false, 40),
        class("bbr_wan", CcAlgorithm::BbrV1, true, 70),
    ];
    p
}

#[test]
fn cancelled_timers_leave_no_tombstones_after_drain() {
    for seed in 0..16 {
        let res = FleetSim::new(wan_fleet(seed))
            .expect("profile validates")
            .with_event_budget(10_000_000)
            .run()
            .expect("fleet run completes");
        assert_eq!(res.flows_served, res.flows_opened, "seed {seed}");
        assert!(res.timers_cancelled > 0, "seed {seed} cancelled no timers");
        assert_eq!(res.health.stale_timers, 0, "stale timers after drain (seed {seed})");
        assert_eq!(res.health.slab_slots, res.health.free_slots, "seed {seed}");
    }
}
