//! `repro` — regenerate the paper's tables and figures from the
//! command line.
//!
//! ```text
//! repro list                 # what can be reproduced
//! repro fig05                # one figure
//! repro table1 table2        # several artefacts
//! repro all                  # everything (experiments run concurrently)
//! repro ablations            # the design-choice ablations
//! repro --metrics out/ fig05 # + every run file: CSVs, traces, profiles, metrics
//! REPRO_EFFORT=smoke repro fig05    # quick CI-sized run
//! REPRO_EFFORT=full  repro all      # paper-faithful 60 s × 10 reps
//! REPRO_JOBS=4 repro all            # cap concurrent repetitions
//! REPRO_CHAOS=42 repro fig05        # inject harness faults, verify recovery
//! ```
//!
//! The environment (`REPRO_EFFORT`, `REPRO_JOBS`, `REPRO_CHAOS`) is
//! resolved exactly once, into a [`RunCtx`], and threaded explicitly
//! through every experiment; a `REPRO_CHAOS` that is not a u64 seed is
//! a usage error, before anything runs.
//!
//! Every run file lands in one directory, written by one
//! [`harness::MetricsHub`], and `--metrics <dir>` is the one way to
//! name it: per experiment its data as CSV, per repetition its interval
//! series, JSON-lines trace and cycle profiles, and per invocation the
//! OpenMetrics exposition, the phase spans and (for a degraded run) the
//! missing-repetition manifest. The directory is created only once the
//! arguments are known to name a run; one that already has entries, or
//! cannot be created, is a usage error before anything runs.
//!
//! Besides the human-readable progress lines, every experiment emits
//! one machine-parseable `repro-summary experiment=<name> key=value …`
//! record on stderr; CI matches on those fields, never on the prose.
//!
//! Each experiment runs with a fresh [`RunLedger`]; the exit code
//! comes from all of them merged: `0` clean, `1` failed scenarios (a
//! simulator defect, printed with its seed; no surviving repetition;
//! or a wrong result), `2` usage error, `3` degraded — every artefact
//! rendered, but some repetitions overran their wall-clock deadline
//! (see the missing-repetition manifest on stderr).

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use harness::experiments::{ablations, ExperimentId};
use harness::supervise::RunLedger;
use harness::RunCtx;
use std::path::PathBuf;
use std::sync::Arc;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut ctx = RunCtx::from_env().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    // `--metrics <dir>`: the one run-output directory (see the module
    // docs) plus a live stderr heartbeat.
    let metrics = take_dir_flag(&mut args, "--metrics");
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
    if let Some(dir) = metrics {
        match harness::MetricsHub::new(&dir) {
            Ok(hub) => {
                eprintln!("writing run files to {}/", dir.display());
                ctx.metrics = Some(Arc::new(hub));
            }
            Err(e) => {
                eprintln!("--metrics '{}' cannot hold this run: {e}", dir.display());
                std::process::exit(2);
            }
        }
    }
    if let Some(chaos) = &ctx.chaos {
        eprintln!("chaos mode on (REPRO_CHAOS={}): injecting harness faults", chaos.seed());
    }
    for arg in &args {
        match arg.as_str() {
            "all" => {
                // Every experiment on its own coordination thread; the
                // process-wide gate bounds how many repetitions
                // actually simulate at once, so this is
                // work-conserving, not oversubscribed. Output is
                // collected per experiment and printed (and its ledger
                // merged) in paper order.
                let n = ExperimentId::ALL.len();
                let outputs =
                    harness::sched::run_tasks(true, n, |i| run_one(ExperimentId::ALL[i], &ctx));
                for (out, ledger) in outputs {
                    println!("{out}");
                    ctx.ledger.merge(&ledger);
                }
                println!("{}", ablations::run_all_rendered(&ctx));
            }
            "ablations" => println!("{}", ablations::run_all_rendered(&ctx)),
            // Checked above: every other name is an experiment's.
            name => {
                if let Some(&id) = ExperimentId::ALL.iter().find(|id| id.name() == name) {
                    let (out, ledger) = run_one(id, &ctx);
                    println!("{out}");
                    ctx.ledger.merge(&ledger);
                }
            }
        }
    }
    // Every experiment's ledger, merged in the order they ran (the
    // ablations record straight into it).
    let ledger = &ctx.ledger;
    // Degraded-run accounting: the ledger has one record per scenario;
    // missing repetitions produce the manifest and exit code 3. A
    // failed *scenario* (a simulator defect, all repetitions lost and
    // reported as zeros, or a wrong result) is the stronger signal and
    // keeps exit code 1.
    if ledger.degraded() {
        let manifest = ledger.manifest_json();
        eprintln!("degraded run, missing-repetition manifest: {manifest}");
        if let Some(hub) = &ctx.metrics {
            let io = harness::chaos::artefact_io(ctx.chaos.as_ref());
            hub.put(io.as_ref(), "manifest.json", &manifest);
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
            ledger,
            ctx.chaos.as_ref().map(|c| &c.stats),
        );
        hub.final_heartbeat();
        match hub.write_exposition() {
            Ok(path) => eprintln!("metrics written to {}", path.display()),
            Err(e) => eprintln!("cannot write metrics to {}: {e}", hub.dir().display()),
        }
    }
    // Scenarios that failed (watchdog, conservation, invalid config,
    // wrong result) were reported inline; reflect them in the exit code
    // so CI and scripts notice.
    match ledger.exit_code() {
        0 => {}
        1 => {
            let failed = ledger.failed_scenarios();
            eprintln!("{} scenario(s) failed — see warnings above:", failed.len());
            for line in failed {
                eprintln!("  {line}");
            }
            std::process::exit(1);
        }
        code => {
            eprintln!("some repetitions were lost; results above aggregate the survivors");
            std::process::exit(code);
        }
    }
}

/// Run one experiment and return its rendered output and its ledger;
/// progress and wall-clock go to stderr. Each experiment gets a fresh
/// run ledger, so its `failed=` count stays per-experiment even when
/// `all` runs experiments concurrently.
fn run_one(id: ExperimentId, ctx: &RunCtx) -> (String, Arc<RunLedger>) {
    let mut ctx = ctx.clone();
    ctx.ledger = Arc::default();
    eprintln!("running {} at {:?} effort...", id.name(), ctx.effort);
    let start = std::time::Instant::now();
    let artifact = id.run(&ctx);
    let rendered = artifact.render_ascii();
    // Open data: the paper releases all collected data; so do we, as
    // CSV beside the run's other files.
    if let Some(hub) = &ctx.metrics {
        let io = harness::chaos::artefact_io(ctx.chaos.as_ref());
        for (name, csv) in artifact.to_csv_files(id.name()) {
            hub.put(io.as_ref(), &name, &csv);
        }
    }
    let secs = start.elapsed().as_secs_f64();
    eprintln!("({} done in {secs:.1}s)", id.name());
    // The machine-parseable twin of the human line above: one
    // `repro-summary` record per experiment with stable `key=value`
    // fields (CI and scripts match on these, never on the prose).
    let mut summary = format!(
        "repro-summary experiment={} secs={secs:.1} effort={} failed={}",
        id.name(),
        format!("{:?}", ctx.effort).to_lowercase(),
        ctx.ledger.failed_scenarios().len(),
    );
    // Late-dropped interval samples are an aggregation bug (a watermark
    // advanced past live samples); surface them loudly but keep the
    // exit code to the scenario/ledger verdicts.
    let late = ctx.ledger.late_dropped();
    if late > 0 {
        summary.push_str(&format!(" late_dropped={late}"));
        eprintln!(
            "warning: {late} interval sample(s) dropped as late during {} — \
             streamed quantiles may undercount",
            id.name(),
        );
    }
    eprintln!("{summary}\n");
    (rendered, ctx.ledger)
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
        "usage: repro [--metrics <dir>] [list | all | ablations | fig04..fig13 | table1..table3 | ext_hw_gro | ext_bigtcp_zc | ext_faults | ext_telemetry | ext_bottleneck | ext_scale | ext_cc_matrix | ext_fleet]...\n\
         flags:       --metrics <dir> to write every run file into <dir>, which must be\n\
                      empty or not yet exist: per experiment its data as CSV; per\n\
                      repetition its interval series, .jsonl telemetry trace and\n\
                      .folded/.perf.txt cycle profiles; the OpenMetrics exposition,\n\
                      phase spans and a degraded run's manifest.json (plus a live\n\
                      stderr heartbeat)\n\
         environment: REPRO_EFFORT=smoke|standard|full (default standard)\n\
                      REPRO_JOBS=<n> to cap concurrently simulating repetitions\n\
                      REPRO_CHAOS=<seed> inject harness faults (worker kills,\n\
                      run-file write failures) and verify recovery\n\
         exit codes:  0 clean, 1 failed scenario(s), 2 usage, 3 degraded (lost reps)"
    );
}
