//! Exact event counts of five canonical scenarios.
//!
//! Each scenario runs once and must reproduce its pinned event count
//! exactly, record zero past-time clamps and land within 0.001 Gbps of
//! its pinned goodput. Any change to what the simulator does (the
//! events it schedules, their order, the bytes they move) shows here
//! as a count change, even when every figure's shape still holds. Host
//! time is not measured here: `perfbench/` is the timing source.
//!
//! The five scenarios cover the single-stream and multi-stream paths,
//! a 256-flow fan-in, the same fan-in split over all four congestion
//! controllers, and the million-flow fleet engine.
//!
//! A change that alters behaviour on purpose re-blesses the table: on a
//! mismatch the test prints the observed table in `EXPECTED` syntax,
//! ready to paste over the old one.

use dtnperf::netsim::{self, ArrivalProcess, FleetClass, FleetProfile, SizeDist};
use dtnperf::prelude::*;

/// Scenario name, events, goodput in Gbps.
const EXPECTED: &[(&str, u64, f64)] = &[
    ("fig05_single_stream", 1_281_545, 41.453),
    ("table3_multi_stream", 1_675_646, 53.137),
    ("scale_fanin_256", 1_476_933, 94.732),
    ("cc_mix_256", 1_500_712, 83.864),
    ("fleet_1m", 9_544_067, 25.850),
];

const GOODPUT_TOL_GBPS: f64 = 0.001;

/// What one run of a scenario reports.
struct Observed {
    name: &'static str,
    events: u64,
    past_clamps: u64,
    goodput_gbps: f64,
}

/// Poisson arrivals, log-normal sizes, one paced and one unpaced WAN
/// class: the fleet engine's slot churn, timer re-arms and streaming
/// aggregation, over one million short flows. perfbench times the same
/// profile (`perfbench/src/workloads.rs::fleet_profile`, plus its run
/// seed); `fleet_1m_profile_matches_perfbench` keeps the two in step.
fn fleet_1m_profile() -> FleetProfile {
    let mut p = FleetProfile::new(
        "fleet_1m",
        ArrivalProcess::Poisson { rate_per_sec: 10_000.0 },
        SizeDist::LogNormal { median_bytes: 256.0 * 1024.0, sigma: 0.5 },
    );
    p.max_flows = 1_000_000;
    p.duration = SimDuration::from_secs_f64(100.0);
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

fn sim_configs() -> Vec<(&'static str, SimConfig)> {
    let amlight = Testbeds::amlight_host(KernelVersion::L6_8);
    let dtn = Testbeds::prod_dtn_host();
    let fanin = Testbeds::fanin_host(256);
    vec![
        (
            "fig05_single_stream",
            SimConfig {
                sender: amlight.clone(),
                receiver: amlight,
                path: Testbeds::amlight_path(AmLightPath::Wan25ms),
                workload: WorkloadSpec::single_stream(2)
                    .with_zerocopy()
                    .with_fq_rate(BitRate::gbps(50.0)),
            },
        ),
        (
            "table3_multi_stream",
            SimConfig {
                sender: dtn.clone(),
                receiver: dtn,
                path: Testbeds::prod_dtn_path(),
                workload: WorkloadSpec::parallel(8, 2).with_fq_rate(BitRate::gbps(10.0)),
            },
        ),
        (
            "scale_fanin_256",
            SimConfig {
                sender: fanin.clone(),
                receiver: fanin.clone(),
                path: Testbeds::fanin_path(false),
                workload: WorkloadSpec::parallel(256, 1),
            },
        ),
        (
            "cc_mix_256",
            SimConfig {
                sender: fanin.clone(),
                receiver: fanin,
                path: Testbeds::fanin_path(false),
                workload: WorkloadSpec::parallel(256, 1).with_cc_mix(CcAlgorithm::ALL.to_vec()),
            },
        ),
    ]
}

fn observe_all() -> Vec<Observed> {
    let mut rows: Vec<Observed> = sim_configs()
        .into_iter()
        .map(|(name, cfg)| {
            let r = Simulation::new(cfg)
                .and_then(|sim| sim.run())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            Observed {
                name,
                events: r.events,
                past_clamps: r.past_clamps,
                goodput_gbps: r.total_goodput().as_gbps(),
            }
        })
        .collect();
    let profile = fleet_1m_profile();
    // Watchdog budget far above the observed events per flow, so only
    // a livelock trips it.
    let budget = profile.max_flows.saturating_mul(400).saturating_add(10_000_000);
    let r = netsim::FleetSim::new(profile)
        .expect("fleet_1m profile is valid")
        .with_event_budget(budget)
        .run()
        .expect("fleet_1m runs to completion");
    rows.push(Observed {
        name: "fleet_1m",
        events: r.events,
        past_clamps: r.past_clamps,
        goodput_gbps: r.goodput_gbps(),
    });
    rows
}

/// The observed rows rendered as a replacement for `EXPECTED`.
fn as_table(rows: &[Observed]) -> String {
    let mut out = String::from("const EXPECTED: &[(&str, u64, f64)] = &[\n");
    for r in rows {
        let digits = r.events.to_string();
        let mut events = String::new();
        for (i, d) in digits.chars().enumerate() {
            if i > 0 && (digits.len() - i) % 3 == 0 {
                events.push('_');
            }
            events.push(d);
        }
        out.push_str(&format!("    (\"{}\", {events}, {:.3}),\n", r.name, r.goodput_gbps));
    }
    out.push_str("];");
    out
}

#[test]
fn event_counts_clamps_and_goodput_match_the_table() {
    let rows = observe_all();
    let mut problems = Vec::new();
    let names: Vec<&str> = rows.iter().map(|r| r.name).collect();
    let expected_names: Vec<&str> = EXPECTED.iter().map(|e| e.0).collect();
    if names != expected_names {
        problems.push(format!("scenario set {names:?} != {expected_names:?}"));
    }
    for (r, &(name, events, gbps)) in rows.iter().zip(EXPECTED) {
        if r.events != events {
            problems.push(format!("{name}: {} events, expected {events}", r.events));
        }
        if r.past_clamps != 0 {
            problems.push(format!("{name}: {} past-time clamps, expected 0", r.past_clamps));
        }
        if (r.goodput_gbps - gbps).abs() > GOODPUT_TOL_GBPS {
            problems.push(format!("{name}: {:.4} Gbps, expected {gbps:.3}", r.goodput_gbps));
        }
    }
    assert!(
        problems.is_empty(),
        "{}\n\nobserved table:\n{}",
        problems.join("\n"),
        as_table(&rows)
    );
}

/// The body of `fn <name>` in `source`: the text between the opening
/// brace of its signature and the matching closing brace.
fn fn_body<'a>(source: &'a str, name: &str) -> &'a str {
    let sig = source
        .find(&format!("fn {name}("))
        .unwrap_or_else(|| panic!("no `fn {name}(` in source"));
    let open = sig + source[sig..].find('{').expect("fn body opens");
    let mut depth = 0usize;
    for (i, c) in source[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return &source[open + 1..open + i];
                }
            }
            _ => {}
        }
    }
    panic!("`fn {name}` body never closes");
}

/// A function body with whitespace and trailing commas removed, so
/// two spellings of the same code compare equal whatever their layout.
fn normalised(body: &str) -> String {
    let mut out: String = body.chars().filter(|c| !c.is_whitespace()).collect();
    for close in [")", "}", "]"] {
        out = out.replace(&format!(",{close}"), close);
    }
    out
}

#[test]
fn fleet_1m_profile_matches_perfbench() {
    let perfbench = fn_body(include_str!("../perfbench/src/workloads.rs"), "fleet_profile");
    let ours = fn_body(include_str!("bench_counts.rs"), "fleet_1m_profile");
    // perfbench seeds each run; the pinned count runs the default seed.
    let perfbench = normalised(perfbench).replace("p.seed=seed;", "");
    assert_eq!(
        normalised(ours),
        perfbench,
        "tests/bench_counts.rs::fleet_1m_profile and perfbench's fleet_profile disagree: \
         perfbench would time a different workload from the one whose event count is pinned"
    );
}
