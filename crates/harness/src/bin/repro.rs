//! `repro` — regenerate the paper's tables and figures from the
//! command line.
//!
//! ```text
//! repro list                 # what can be reproduced
//! repro fig05                # one figure
//! repro table1 table2        # several artefacts
//! repro all                  # everything (experiments run concurrently)
//! repro ablations            # the design-choice ablations
//! repro --metrics m/ fig05   # + OpenMetrics, interval series, heartbeat
//! repro --trace out/ ext_telemetry  # --metrics out/ + per-tick traces, profiles
//! REPRO_EFFORT=smoke repro fig05    # quick CI-sized run
//! REPRO_EFFORT=full  repro all      # paper-faithful 60 s × 10 reps
//! REPRO_CACHE_DIR=~/.cache/repro repro fig05  # content-addressed cache
//! REPRO_JOBS=4 repro all            # cap concurrent repetitions
//! REPRO_CHAOS=42 repro fig05        # inject harness faults, verify recovery
//! ```
//!
//! The environment (`REPRO_EFFORT`, `REPRO_JOBS`, `REPRO_CACHE_DIR`,
//! `REPRO_CHAOS`, `REPRO_CHECKPOINT_EVERY`, `REPRO_METRICS`) is
//! resolved exactly once here, into a [`RunCtx`], and threaded
//! explicitly through every experiment. The output directory
//! (`REPRO_METRICS` or a flag) is created only once the arguments are
//! known to name a run.
//!
//! Every run artefact lands in one directory, written by one
//! [`harness::MetricsHub`]: `--metrics <dir>` (or `REPRO_METRICS`)
//! names it, and `--trace <dir>` is the same hub with per-tick
//! telemetry and attribution forced onto every repetition. Naming two
//! different directories (`--trace A` with `--metrics B` or
//! `REPRO_METRICS=B`) is a usage error.
//!
//! Besides the human-readable progress lines, every experiment emits
//! one machine-parseable `repro-summary experiment=<name> key=value …`
//! record on stderr; CI matches on those fields, never on the prose.
//!
//! Exit codes: `0` clean, `1` failed scenarios (reported as zeros),
//! `2` usage error, `3` degraded — every artefact rendered, but some
//! repetitions were lost (see the missing-repetition manifest on
//! stderr, or `REPRO_MANIFEST=<file>`).

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use harness::experiments::{ablations, ExperimentId};
use harness::supervise::{ErrorBudget, RunLedger};
use harness::{RunCache, RunCtx};
use std::path::PathBuf;
use std::sync::Arc;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut ctx = RunCtx::from_env();
    // `--trace <dir>` / `--metrics <dir>`: the one run-output directory
    // (OpenMetrics exposition, interval series, phase spans, live
    // stderr heartbeat); `--trace` adds per-tick JSON-lines traces and
    // cycle profiles per repetition.
    let trace = take_dir_flag(&mut args, "--trace");
    let metrics = take_dir_flag(&mut args, "--metrics");
    let env_dir = std::env::var_os("REPRO_METRICS").map(PathBuf::from);
    if let (Some(t), Some(m)) = (&trace, metrics.as_ref().or(env_dir.as_ref())) {
        if t != m {
            eprintln!(
                "--trace {} and --metrics/REPRO_METRICS {} name different directories; \
                 --trace <dir> is --metrics <dir> with per-tick traces",
                t.display(),
                m.display()
            );
            std::process::exit(2);
        }
    }
    if args.is_empty() || args[0] == "help" || args[0] == "--help" {
        usage();
        return;
    }
    if args[0] == "list" {
        println!("available experiments (set REPRO_EFFORT=smoke|standard|full):");
        for id in ExperimentId::ALL {
            println!("  {}", id.name());
        }
        println!("  ablations");
        println!("  all");
        return;
    }
    for name in &args {
        let known = name == "all"
            || name == "ablations"
            || ExperimentId::ALL.iter().any(|id| id.name() == name);
        if !known {
            eprintln!("unknown experiment '{name}' — try 'repro list'");
            std::process::exit(2);
        }
    }
    // The arguments name a run: only now create the output directory,
    // so `list`, `help` and usage errors leave nothing on disk.
    if let Some(dir) = trace.clone().or(metrics) {
        let flag = if trace.is_some() { "--trace" } else { "--metrics" };
        match harness::MetricsHub::new(&dir) {
            Ok(hub) => {
                eprintln!("writing run metrics to {}/", dir.display());
                let hub = if trace.is_some() { hub.with_per_tick() } else { hub };
                ctx.metrics = Some(Arc::new(hub));
            }
            Err(e) => {
                eprintln!("{flag} '{}' is not a writable directory: {e}", dir.display());
                std::process::exit(2);
            }
        }
    } else if let Some(dir) = env_dir {
        match harness::MetricsHub::new(&dir) {
            Ok(hub) => ctx.metrics = Some(Arc::new(hub)),
            Err(e) => eprintln!(
                "REPRO_METRICS='{}' is not a writable directory ({e}); ignoring",
                dir.display()
            ),
        }
    }
    if let Some(chaos) = &ctx.chaos {
        eprintln!("chaos mode on (REPRO_CHAOS={}): injecting harness faults", chaos.seed());
    }
    RunLedger::global().reset();
    for arg in &args {
        match arg.as_str() {
            "all" => {
                // Every experiment on its own coordination thread; the
                // process-wide gate bounds how many repetitions
                // actually simulate at once, so this is
                // work-conserving, not oversubscribed. Output is
                // collected per experiment and printed in paper order.
                let n = ExperimentId::ALL.len();
                let outputs =
                    harness::sched::run_tasks(true, n, |i| run_one(ExperimentId::ALL[i], &ctx));
                for out in outputs {
                    println!("{out}");
                }
                println!("{}", ablations::run_all_rendered(&ctx));
            }
            "ablations" => println!("{}", ablations::run_all_rendered(&ctx)),
            // Checked above: every other name is an experiment's.
            name => {
                if let Some(&id) = ExperimentId::ALL.iter().find(|id| id.name() == name) {
                    println!("{}", run_one(id, &ctx));
                }
            }
        }
    }
    if let Some(chaos) = &ctx.chaos {
        eprintln!("{}", chaos.stats.summary());
    }
    if let Some(hub) = &ctx.metrics {
        // Fold the end-of-run totals (ledger, chaos) into the registry
        // and write the exposition + span files.
        harness::metrics::fold_run_totals(
            hub.recorder(),
            RunLedger::global(),
            ctx.chaos.as_ref().map(|c| &c.stats),
        );
        hub.final_heartbeat();
        match hub.write_exposition() {
            Ok(path) => eprintln!("metrics written to {}", path.display()),
            Err(e) => eprintln!("cannot write metrics to {}: {e}", hub.dir().display()),
        }
    }
    // Degraded-run accounting: the ledger has one record per scenario;
    // missing repetitions produce the manifest and exit code 3. A
    // failed *scenario* (all repetitions lost, reported as zeros) is
    // the stronger signal and keeps exit code 1.
    let ledger = RunLedger::global();
    let degraded = ledger.degraded();
    if degraded {
        let manifest = ledger.manifest_json();
        match std::env::var_os("REPRO_MANIFEST") {
            Some(path) => {
                let path = PathBuf::from(path);
                match std::fs::write(&path, &manifest) {
                    Ok(()) => eprintln!("degraded run: manifest written to {}", path.display()),
                    Err(e) => {
                        eprintln!("cannot write manifest to {}: {e}", path.display());
                        eprintln!("{manifest}");
                    }
                }
            }
            None => eprintln!("degraded run, missing-repetition manifest: {manifest}"),
        }
    }
    // Scenarios that failed (watchdog, conservation, invalid config)
    // were reported as zeros inline; reflect them in the exit code so
    // CI and scripts notice.
    let failed = harness::experiments::common::failed_scenario_count();
    if failed > 0 {
        eprintln!("{failed} scenario(s) failed and were reported as zeros — see warnings above");
        std::process::exit(1);
    }
    if degraded {
        eprintln!("some repetitions were lost; results above aggregate the survivors");
        std::process::exit(3);
    }
}

/// Run one experiment and return its rendered output; progress,
/// wall-clock and cache hit/miss counts go to stderr. Each experiment
/// gets a private handle onto the shared cache directory (so its
/// hit/miss counters stay per-experiment even when `all` runs
/// experiments concurrently) and a fresh retry budget sized by effort.
fn run_one(id: ExperimentId, ctx: &RunCtx) -> String {
    let mut ctx = ctx.clone();
    let cache = ctx.cache.as_ref().map(|c| {
        Arc::new(RunCache::new(c.dir().to_path_buf()).with_cost_model_version(c.cost_model_version()))
    });
    ctx.cache = cache.clone();
    let budget = Arc::new(ErrorBudget::new(ctx.effort.error_budget()));
    ctx.budget = Some(budget.clone());
    eprintln!("running {} at {:?} effort...", id.name(), ctx.effort);
    let failed_before = harness::experiments::common::failed_scenario_count();
    let late_before = harness::metrics::late_dropped_total();
    let start = std::time::Instant::now();
    let artifact = id.run(&ctx);
    let rendered = artifact.render_ascii();
    // Open data: dump CSVs when REPRO_CSV_DIR is set (the paper
    // releases all collected data; so do we).
    if let Some(dir) = std::env::var_os("REPRO_CSV_DIR") {
        let dir = PathBuf::from(dir);
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("cannot create {}: {e}", dir.display());
        } else {
            for (name, csv) in artifact.to_csv_files(id.name()) {
                let path = dir.join(name);
                if let Err(e) = std::fs::write(&path, csv) {
                    eprintln!("cannot write {}: {e}", path.display());
                } else {
                    eprintln!("wrote {}", path.display());
                }
            }
        }
    }
    let secs = start.elapsed().as_secs_f64();
    match &cache {
        Some(c) => {
            // Recovery counts ride after the store count so the
            // established "cache: H hit(s), M miss(es), S store(s)"
            // prefix stays grep-stable for CI.
            let recoveries = if c.stats.recoveries() > 0 {
                format!(
                    ", recovered {} corrupt / {} truncated / {} stale",
                    c.stats.corrupt_recoveries(),
                    c.stats.truncated_recoveries(),
                    c.stats.stale_recoveries(),
                )
            } else {
                String::new()
            };
            let retries = if budget.spent() > 0 {
                format!("; retries: {}/{}", budget.spent(), budget.initial())
            } else {
                String::new()
            };
            eprintln!(
                "({} done in {secs:.1}s; cache: {} hit(s), {} miss(es), {} store(s){recoveries}{retries})",
                id.name(),
                c.stats.hits(),
                c.stats.misses(),
                c.stats.stores(),
            );
        }
        None => eprintln!("({} done in {secs:.1}s)", id.name()),
    }
    // The machine-parseable twin of the human line above: one
    // `repro-summary` record per experiment with stable `key=value`
    // fields (CI and scripts match on these, never on the prose).
    let mut summary = format!(
        "repro-summary experiment={} secs={secs:.1} effort={}",
        id.name(),
        format!("{:?}", ctx.effort).to_lowercase(),
    );
    if let Some(c) = &cache {
        summary.push_str(&format!(
            " cache_hits={} cache_misses={} cache_stores={} cache_recovered_corrupt={} cache_recovered_truncated={} cache_recovered_stale={}",
            c.stats.hits(),
            c.stats.misses(),
            c.stats.stores(),
            c.stats.corrupt_recoveries(),
            c.stats.truncated_recoveries(),
            c.stats.stale_recoveries(),
        ));
    }
    summary.push_str(&format!(
        " retries_spent={} retries_budget={}",
        budget.spent(),
        budget.initial()
    ));
    // Failed-scenario count as a delta of the process-global counter.
    // Exact for single-experiment invocations (what CI greps); under a
    // concurrent `all` run an overlapping experiment's failures can
    // land in the delta, so it is an upper bound there — the process
    // exit code remains the authoritative global verdict.
    summary.push_str(&format!(
        " failed={}",
        harness::experiments::common::failed_scenario_count().saturating_sub(failed_before)
    ));
    // Late-dropped interval samples are an aggregation bug (a watermark
    // advanced past live samples); surface them loudly but keep the
    // exit code to the scenario/ledger verdicts.
    let late = harness::metrics::late_dropped_total().saturating_sub(late_before);
    if late > 0 {
        summary.push_str(&format!(" late_dropped={late}"));
        eprintln!(
            "warning: {late} interval sample(s) dropped as late during {} — \
             streamed quantiles may undercount",
            id.name(),
        );
    }
    eprintln!("{summary}\n");
    if let Some(hub) = &ctx.metrics {
        if let Some(c) = &cache {
            harness::metrics::fold_cache_stats(hub.recorder(), &c.stats);
        }
        harness::metrics::fold_budget(hub.recorder(), &budget);
    }
    rendered
}

/// Remove `flag <dir>` from `args` and return the directory; exit 2
/// when the flag has no argument.
fn take_dir_flag(args: &mut Vec<String>, flag: &str) -> Option<PathBuf> {
    let pos = args.iter().position(|a| a == flag)?;
    if pos + 1 >= args.len() {
        eprintln!("{flag} needs a directory argument");
        std::process::exit(2);
    }
    let dir = args.remove(pos + 1);
    args.remove(pos);
    Some(PathBuf::from(dir))
}

fn usage() {
    eprintln!(
        "usage: repro [--trace <dir>] [--metrics <dir>] [list | all | ablations | fig04..fig13 | table1..table3 | ext_hw_gro | ext_bigtcp_zc | ext_faults | ext_telemetry | ext_bottleneck | ext_scale | ext_cc_matrix | ext_fleet]...\n\
         flags:       --metrics <dir> to write OpenMetrics exposition, per-repetition\n\
                      interval series and phase spans (plus a live stderr heartbeat)\n\
                      --trace <dir> same as --metrics <dir>, plus per-tick telemetry and\n\
                      attribution on every repetition: .jsonl traces and .folded/.perf.txt\n\
                      cycle profiles per repetition in the same directory\n\
         environment: REPRO_EFFORT=smoke|standard|full (default standard)\n\
                      REPRO_JOBS=<n> to cap concurrently simulating repetitions\n\
                      REPRO_CACHE_DIR=<dir> content-addressed report cache\n\
                      REPRO_CSV_DIR=<dir> to also dump CSV data files\n\
                      REPRO_CHAOS=<seed> inject harness faults (kills, cache\n\
                      corruption, artefact-write failures) and verify recovery\n\
                      REPRO_CHECKPOINT_EVERY=<events> checkpoint cadence\n\
                      REPRO_METRICS=<dir> same as --metrics\n\
                      REPRO_MANIFEST=<file> write the degraded-run manifest here\n\
         exit codes:  0 clean, 1 failed scenario(s), 2 usage, 3 degraded (lost reps)"
    );
}
