//! Chaos soak and supervision-contract tests.
//!
//! The recovery contract under attack: a seeded chaos schedule
//! (`REPRO_CHAOS`) kills workers mid-run and fails run-artefact writes —
//! and the harness must lose no repetition, duplicate no result, and
//! leave every report — iperf3-style or fleet — bit-identical to a
//! chaos-free run. Alongside the soak,
//! this suite pins the one-attempt contract — a watchdog trip is a
//! simulator defect that fails its scenario on its own seed, at every
//! effort level.

use dtnperf::netsim::{ArrivalProcess, FleetClass, FleetProfile, FleetSim, SizeDist};
use dtnperf::prelude::*;
use dtnperf::simcore::{derive_seed, BitRate, Bytes, SimDuration};
use dtnperf::tcpstack::CcAlgorithm;
use harness::experiments::fleet::run_profile;
use harness::supervise::{ErrorClass, Supervisor};
use harness::{ChaosPlan, MetricsHub, ScenarioError, TestSummary};
use std::path::PathBuf;
use std::sync::Arc;

const SOAK_REPS: usize = 8;
const SOAK_BASE_SEED: u64 = 77;
const SOAK_CHAOS_SEED: u64 = 4242;

fn esnet_host() -> HostConfig {
    Testbeds::esnet_host(KernelVersion::L6_8)
}

fn lan_scenario(label: &str) -> Scenario {
    Scenario::symmetric(
        label,
        esnet_host(),
        Testbeds::esnet_path(EsnetPath::Lan),
        Iperf3Opts::new(2).omit(0),
    )
}

/// A fleet the soak's chaos schedule kills on its first round: a
/// shallow unpaced incast class beside a paced one, ~260,000 events
/// (several supervisor step chunks, so the kill lands mid-run).
fn soak_fleet() -> FleetProfile {
    let mut p = FleetProfile::new(
        "soak_fleet_incast",
        ArrivalProcess::Mmpp2 {
            calm_rate: 2_000.0,
            burst_rate: 15_000.0,
            mean_calm_secs: 0.045,
            mean_burst_secs: 0.0015,
        },
        SizeDist::BoundedPareto { alpha: 1.2, min_bytes: 32 * 1024, max_bytes: 512 * 1024 },
    );
    p.duration = SimDuration::from_secs(10);
    p.burst = Bytes::kib(16);
    let class = |name: &str, pacing| FleetClass {
        name: name.into(),
        weight: 1,
        cc: CcAlgorithm::Cubic,
        pacing,
        rtt: SimDuration::from_micros(200),
        bottleneck: BitRate::gbps(10.0),
        buffer: Bytes::kib(320),
    };
    p.classes = vec![class("unpaced", false), class("paced", true)];
    p
}

fn soak_scenarios() -> Vec<Scenario> {
    vec![
        lan_scenario("soak_lan"),
        Scenario::symmetric(
            "soak_wan_zc",
            esnet_host(),
            Testbeds::esnet_path(EsnetPath::Wan),
            Iperf3Opts::new(3).omit(1).zerocopy(),
        ),
    ]
}

/// Bit-exact rendering of a summary's reports: Rust's f64 `Debug`
/// formatting is shortest-round-trip exact, so equal strings ⇔ equal
/// bits, and `to_json` covers the rendered artefact bytes.
fn report_bytes(s: &TestSummary) -> String {
    s.reports
        .iter()
        .map(|r| format!("{r:?}\n{}", r.to_json()))
        .collect::<Vec<_>>()
        .join("\n")
}

/// A fixed-name scratch directory (fixed so the chaos trace-failure
/// schedule, which hashes paths, is the same on every run), cleared of
/// leftovers from a previous run.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn chaos_soak_loses_nothing_and_matches_clean_runs() {
    let scenarios = soak_scenarios();
    let clean_h = TestHarness::new(SOAK_REPS).with_base_seed(SOAK_BASE_SEED);
    let clean: Vec<TestSummary> = clean_h
        .run_batch(&scenarios)
        .into_iter()
        .map(|r| r.expect("clean run"))
        .collect();

    let chaos = Arc::new(ChaosPlan::new(SOAK_CHAOS_SEED));
    let supervisor = Supervisor::default().with_chaos(chaos.clone());

    // Harness 1: scheduled worker kills.
    let killed_h = TestHarness::new(SOAK_REPS)
        .with_base_seed(SOAK_BASE_SEED)
        .with_supervisor(supervisor.clone());
    let killed: Vec<TestSummary> = killed_h
        .run_batch(&scenarios)
        .into_iter()
        .map(|r| r.expect("chaos killed run"))
        .collect();

    // Harness 2: artefact writes under attack. A metrics hub forces
    // observers (telemetry + attribution) on, so the bit-identity
    // reference is a chaos-free run with a hub, not the plain one.
    let hub = |dir: &PathBuf| Arc::new(MetricsHub::new(dir).expect("hub dir"));
    let clean_trace_dir = scratch_dir("repro_chaos_soak_traces_clean");
    let clean_traced_h = TestHarness::new(SOAK_REPS)
        .with_base_seed(SOAK_BASE_SEED)
        .with_supervisor(Supervisor::default().with_metrics(hub(&clean_trace_dir)));
    let clean_traced: Vec<TestSummary> = clean_traced_h
        .run_batch(&scenarios)
        .into_iter()
        .map(|r| r.expect("clean traced run"))
        .collect();
    let trace_dir = scratch_dir("repro_chaos_soak_traces");
    let traced_h = TestHarness::new(SOAK_REPS)
        .with_base_seed(SOAK_BASE_SEED)
        .with_supervisor(supervisor.with_metrics(hub(&trace_dir)));
    let traced: Vec<TestSummary> = traced_h
        .run_batch(&scenarios)
        .into_iter()
        .map(|r| r.expect("chaos traced run"))
        .collect();

    // Zero lost, zero duplicated: every repetition reported exactly
    // once, no failure records left behind.
    for s in killed.iter().chain(&traced) {
        assert_eq!(s.reports.len(), SOAK_REPS, "'{}' lost repetitions", s.label);
        assert!(
            s.failed_reps.is_empty(),
            "'{}' recorded failures under chaos: {:?}",
            s.label,
            s.failed_reps
        );
    }
    // ...and each harness pass's run ledger accounts for every
    // scenario, complete.
    for h in [&clean_h, &killed_h, &clean_traced_h, &traced_h] {
        let records = h.ledger.snapshot();
        let labels: Vec<&str> = records.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, ["soak_lan", "soak_wan_zc"], "ledger records");
        assert!(
            records.iter().all(|r| r.complete() && r.expected == SOAK_REPS),
            "ledger shows lost repetitions: {records:?}"
        );
        assert_eq!(h.ledger.exit_code(), 0);
    }

    // Recovery leaves no fingerprint in the results.
    for (a, b) in clean.iter().zip(&killed) {
        assert_eq!(report_bytes(a), report_bytes(b), "'{}': killed chaos run diverged", a.label);
    }
    for (a, b) in clean_traced.iter().zip(&traced) {
        assert_eq!(report_bytes(a), report_bytes(b), "'{}': traced chaos run diverged", a.label);
    }

    // Fleet runs go through the same supervisor: killed and resumed
    // under the same schedule, one complete ledger record, and a result
    // bit-identical to the unsupervised run.
    let fleet = soak_fleet();
    let clean_fleet = FleetSim::new(fleet.clone()).expect("valid").run().expect("clean fleet");
    let kills_before = chaos.stats.kills();
    let fleet_ctx = RunCtx::new(Effort::Smoke).with_chaos(chaos.clone());
    let driven = run_profile(&fleet_ctx, &fleet, |sim| sim).expect("fleet survives chaos");
    assert!(chaos.stats.kills() > kills_before, "the fleet worker was never killed");
    assert_eq!(format!("{clean_fleet:?}"), format!("{driven:?}"), "chaos fleet run diverged");
    let records = fleet_ctx.ledger.snapshot();
    assert_eq!(records.len(), 1, "{records:?}");
    assert!(records[0].complete() && records[0].expected == 1, "{records:?}");
    assert_eq!(records[0].label, "soak_fleet_incast");
    assert_eq!(fleet_ctx.ledger.exit_code(), 0);

    // Acceptance floor: ≥20 injected faults, both classes
    // represented, every kill resumed from a checkpoint (the default
    // cadence is finer than the supervisor's step chunk, so a snapshot
    // always exists by the first possible kill point).
    let stats = &chaos.stats;
    eprintln!("{}", stats.summary());
    assert!(stats.kills() >= 3, "{}", stats.summary());
    assert_eq!(stats.resumes(), stats.kills(), "{}", stats.summary());
    assert!(stats.trace_failures() >= 3, "{}", stats.summary());
    assert!(stats.total() >= 20, "acceptance floor: {}", stats.summary());

    std::fs::remove_dir_all(&trace_dir).ok();
    std::fs::remove_dir_all(&clean_trace_dir).ok();
}

#[test]
fn watchdog_budget_trips_are_classed_and_retried_per_effort() {
    // A 10-event budget trips the watchdog on every seed. At every
    // effort, through the same context-built harness `repro` uses, each
    // repetition gets exactly one attempt (no perturbed seed), the typed
    // failure is recorded against its derived seed, and the simulator
    // defect fails the scenario naming the seed.
    for effort in [Effort::Smoke, Effort::Standard, Effort::Full] {
        let sc = lan_scenario(&format!("watchdog_{effort:?}")).with_event_budget(10);
        let ctx = RunCtx::new(effort);
        let h = ctx.harness();
        let reps = effort.repetitions();
        let err = h.run(&sc).unwrap_err();
        let ScenarioError::AllRepetitionsFailed { failures, .. } = err else {
            panic!("{effort:?}: expected AllRepetitionsFailed, got {err}");
        };
        assert_eq!(failures.len(), reps, "{effort:?}");
        let failed = ctx.ledger.failed_scenarios();
        assert_eq!(failed.len(), 1, "{effort:?}: {failed:?}");
        for (i, f) in failures.iter().enumerate() {
            let seed = derive_seed(sc.fingerprint(), h.base_seed, i as u64);
            assert_eq!(f.seed, seed, "{effort:?}: repetition {i}");
            assert_eq!(f.class, ErrorClass::WatchdogBudget, "{effort:?}");
            assert!(f.error.contains("stalled"), "{effort:?}: {}", f.error);
            assert!(
                failed[0].contains(&format!("watchdog-budget on seed {seed:#018x}")),
                "{effort:?}: {failed:?}"
            );
        }
        assert_eq!(ctx.ledger.exit_code(), 1, "{effort:?}");
    }
}

#[test]
fn killed_worker_resumes_bit_identical_from_checkpoint() {
    let host = esnet_host();
    let path = Testbeds::esnet_path(EsnetPath::Lan);
    let chaos = Arc::new(ChaosPlan::new(7));
    // Pick a run seed the schedule marks for death (≈40% of them).
    let run_seed = (1..1000u64)
        .find(|s| chaos.kill_after(*s, 0).is_some())
        .expect("a 40% kill rate marks some seed in 1..1000");
    let opts = Iperf3Opts::new(2).omit(0).seed(run_seed);
    let clean = iperf3sim::run(&host, &host, &path, &opts).expect("clean run");
    let sup = Supervisor::default().with_chaos(chaos.clone());
    let result = sup
        .drive(run_seed, || {
            iperf3sim::start_session(&host, &host, &path, &opts, &FaultPlan::none(), None)
        })
        .expect("supervised run survives its own murder");
    let report = Iperf3Report::from_run(opts.command_line(&host.name), &result);
    assert!(chaos.stats.kills() >= 1, "{}", chaos.stats.summary());
    assert_eq!(
        chaos.stats.resumes(),
        chaos.stats.kills(),
        "every kill had a checkpoint to resume from: {}",
        chaos.stats.summary()
    );
    assert_eq!(format!("{clean:?}"), format!("{report:?}"));
    assert_eq!(clean.to_json(), report.to_json());
}
