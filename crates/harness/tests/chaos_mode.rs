//! Chaos mode's outer contract. `REPRO_CHAOS` must name a u64 seed:
//! anything else is a usage error, so `repro` exits 2 before any
//! experiment runs and a chaos job with a typo in its seed fails
//! instead of quietly testing nothing. And a worker is killed at most
//! twice, so every chaos run completes.

use harness::{ChaosPlan, EsnetPath, Supervisor, Testbeds};
use iperf3sim::{Iperf3Opts, Iperf3Report};
use linuxhost::KernelVersion;
use netsim::FaultPlan;
use std::process::{Command, Output};
use std::sync::Arc;

/// Run `repro args…` at smoke effort with `REPRO_CHAOS=chaos`.
fn repro(chaos: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .env("REPRO_EFFORT", "smoke")
        .env("REPRO_CHAOS", chaos)
        .output()
        .expect("repro starts")
}

#[test]
fn unparsable_chaos_seed_is_a_usage_error() {
    let out = repro("forty-two", &["fig05"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("REPRO_CHAOS='forty-two' is not a u64 seed"), "{stderr}");
    assert!(!stderr.contains("running fig05"), "an experiment ran: {stderr}");
    assert!(out.stdout.is_empty(), "{}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn numeric_chaos_seed_is_accepted() {
    let out = repro("42", &["list"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn a_worker_is_killed_at_most_twice() {
    let host = Testbeds::esnet_host(KernelVersion::L6_8);
    let path = Testbeds::esnet_path(EsnetPath::Lan);
    let chaos = Arc::new(ChaosPlan::new(7));
    // A seed the schedule kills in round 0 and again in round 1.
    let run_seed = (1..1000u64)
        .find(|&s| chaos.kill_after(s, 0).is_some() && chaos.kill_after(s, 1).is_some())
        .expect("about 8% of seeds are killed in both rounds");
    let opts = Iperf3Opts::new(2).omit(0).seed(run_seed);
    let start = || iperf3sim::start_session(&host, &host, &path, &opts, &FaultPlan::none(), None);
    let clean = Supervisor::default().drive(run_seed, start).expect("clean run");
    let killed = Supervisor::default()
        .with_chaos(chaos.clone())
        .drive(run_seed, start)
        .expect("a killed run completes");
    assert_eq!((chaos.stats.kills(), chaos.stats.resumes()), (2, 2), "{}", chaos.stats.summary());
    let report = |r| Iperf3Report::from_run(opts.command_line(&host.name), r);
    let (clean, killed) = (report(&clean), report(&killed));
    assert_eq!(format!("{clean:?}"), format!("{killed:?}"));
    assert_eq!(clean.to_json(), killed.to_json());
}
