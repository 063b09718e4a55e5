//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <paper_anchors|cc_mix_256|fleet_1m> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one thread. The run builds its inputs from `--seed`,
//! times set-up, then repeats whole passes of the workload for about
//! `--seconds` of host time, checking every simulated output. With
//! `--trace 0` it reports the end-to-end metrics; with `--trace 1` a
//! separate traced run reports the per-layer metrics. Human-readable
//! detail goes to standard error; the last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! A failed output check shows in that line as `"correct": false` and
//! a nonzero `failed`, and is named on standard error. The exit code is
//! 0 whenever the result line is printed and 2 on a usage error.

mod alloc;
mod anchors;
mod refloop;
mod replay;
mod sampler;
mod stats;
mod trace;
mod traced;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Bench, Pass, SetupSamples, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Untimed set-up rounds before `setup_s` sampling starts.
const SETUP_WARMUP: usize = 20;
/// Set-up bursts behind `setup_s`, each after its own reference run.
const SETUP_BURSTS: usize = 40;

const USAGE: &str = "usage: perfbench --workload <paper_anchors|cc_mix_256|fleet_1m> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a single exact count).
    pub n: usize,
}

/// What a run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    fn add(&mut self, pass: &Pass) {
        self.attempted += pass.ops;
        self.failed += pass.failed;
    }

    /// A failed whole-run check (not tied to one simulation run).
    pub fn fail_check(&mut self, what: &str) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("perfbench: check failed: {what}");
    }

    fn json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints the shortest repr that round-trips: every digit.
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// The machine a figure was measured on.
fn machine() -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!("nproc={cpus} cpu=\"{model}\"")
}

/// Repeat whole passes until the next one would overrun `seconds`
/// (at least one). Returns the passes and the first pass's peak heap
/// above its starting live bytes.
fn timed_passes(
    b: &mut Bench,
    w: Workload,
    seconds: f64,
    mut run: impl FnMut(&mut Bench) -> Pass,
) -> (Vec<Pass>, usize) {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut passes = Vec::with_capacity(64);
    let mut first_peak = 0;
    loop {
        let base = alloc::reset_peak();
        let pass_start = Instant::now();
        let pass = run(b);
        if passes.is_empty() {
            first_peak = alloc::peak_bytes() - base;
        }
        passes.push(pass);
        if start.elapsed() + pass_start.elapsed() > budget {
            break;
        }
    }
    eprintln!("perfbench: {} pass(es) of {}", passes.len(), w.name());
    (passes, first_peak)
}

/// Every pass of one seed must reproduce the first pass's outputs.
pub fn check_repeatable(out: &mut Outcome, passes: &[Pass], what: &str) {
    if let Some(first) = passes.first() {
        if passes.iter().any(|p| p.digest != first.digest) {
            out.fail_check(&format!("{what}: passes of one seed disagree"));
        }
    }
}

fn untraced(args: &Args) -> Outcome {
    let w = args.workload;
    let mut b = Bench::new(args.seed, false);
    b.sample_fleet = true;
    // `setup_s`: per session, the median over the bursts of each
    // burst's median, summed over the workload's sessions;
    // drift-normalised like `wall_rel`. Sampled before the timed phase,
    // so every run measures it from the same fresh process state.
    let mut setup = SetupSamples::new(w, args.seed, SETUP_WARMUP);
    b.sample_setup(&mut setup, SETUP_BURSTS);
    let (passes, peak) = timed_passes(&mut b, w, args.seconds, |b| workloads::pass(b, w));
    let sum_medians = |v: &[Vec<f64>]| v.iter().map(|s| stats::median(s)).sum::<f64>();
    let setup_s = sum_medians(&setup.rel) * refloop::NOMINAL_S;
    eprintln!(
        "perfbench: raw set-up seconds: {:.3e} over {} bursts of {}",
        sum_medians(&setup.raw),
        setup.bursts(),
        workloads::SETUP_BURST
    );
    let mut out = Outcome {
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    for p in &passes {
        out.add(p);
    }
    check_repeatable(&mut out, &passes, w.name());
    let first = &passes[0];
    eprintln!(
        "perfbench: digest {} seed {}: {:016x}",
        w.name(),
        args.seed,
        first.digest.0
    );

    // Every run reports every end-to-end metric, and the supervised
    // path cannot see past-time clamps, so every run ends with one
    // untimed pass of the anchors stepped by hand: `check_run` checks
    // each anchor's clamps, and the pass gives `paper_err_pct`. For
    // `paper_anchors` it must also reproduce the supervised outputs.
    let stepped = workloads::anchors_stepped(&mut b, true);
    out.add(&stepped);
    if w == Workload::PaperAnchors && stepped.digest != first.digest {
        out.fail_check("stepped and supervised anchors produced different outputs");
    }
    let err = anchors::mean_err_pct(&stepped.anchors).unwrap_or_else(|| {
        out.fail_check("no paper anchor produced a report");
        0.0
    });

    let walls: Vec<f64> = passes.iter().map(|p| p.work_s).collect();
    let rels: Vec<f64> = passes.iter().map(Pass::wall_rel).collect();
    let n = passes.len();
    // Raw host seconds are reported, not gated: on a shared VM whole
    // runs drift by more than any useful bound (see README.md).
    eprintln!(
        "perfbench: raw host seconds per pass: median {:.4}",
        stats::median(&walls)
    );
    out.metrics = vec![
        Metric {
            name: "wall_rel",
            value: stats::median(&rels),
            unit: "ratio",
            n,
        },
        Metric {
            name: "setup_s",
            value: setup_s,
            unit: "s",
            n: setup.bursts(),
        },
        Metric {
            name: "peak_heap_mb",
            value: peak as f64 / (1u64 << 20) as f64,
            unit: "MiB",
            n: 1,
        },
        Metric {
            name: "paper_err_pct",
            value: err,
            unit: "%",
            n: stepped.anchors.len(),
        },
    ];
    for p in &passes {
        eprintln!(
            "perfbench:   pass host_s={:.4} wall_rel={:.3} ref_ms={:.3} (n={})",
            p.work_s,
            p.wall_rel(),
            stats::median(&p.ref_s) * 1e3,
            p.ref_s.len()
        );
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: workload={} seed={} seconds={} trace={} {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        machine()
    );
    let out = if args.trace {
        traced::run(&args)
    } else {
        untraced(&args)
    };
    for m in &out.metrics {
        eprintln!(
            "perfbench: {:<28} {:>18.6} {:<8} n={}",
            m.name, m.value, m.unit, m.n
        );
    }
    println!("{}", out.json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload fleet_1m --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(a.workload, Workload::Fleet1m);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(args("--workload nope").is_err());
        assert!(args("--seed 3").is_err());
        assert!(args("--workload cc_mix_256 --trace 2").is_err());
    }

    #[test]
    fn json_keeps_every_digit() {
        let out = Outcome {
            attempted: 3,
            failed: 0,
            metrics: vec![Metric {
                name: "setup_s",
                value: 1.234567890123,
                unit: "s",
                n: 1,
            }],
        };
        assert_eq!(
            out.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 1.234567890123, \"unit\": \"s\"}}}"
        );
    }
}
