//! `repro` creates its run-output directory only for a run: listing
//! the experiments, printing help or failing on a usage error must
//! leave nothing on disk, whichever way the directory was named. And a
//! directory holds one run: one that already has entries is refused.

use std::path::{Path, PathBuf};
use std::process::Command;

fn scratch(name: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("repro_metrics_dir_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    std::fs::create_dir_all(&root).expect("scratch root");
    root
}

/// Run `repro args…` with `REPRO_METRICS=metrics_dir`; returns the exit code.
fn repro(metrics_dir: &Path, args: &[&str]) -> i32 {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .env("REPRO_METRICS", metrics_dir)
        .env("REPRO_EFFORT", "smoke")
        .output()
        .expect("repro starts");
    out.status.code().expect("repro exits normally")
}

#[test]
fn no_output_directory_without_a_run() {
    let root = scratch("norun");
    let env_dir = root.join("env");
    let trace_dir = root.join("trace");
    let trace = trace_dir.to_str().expect("utf-8 temp path");
    let cases: [(&[&str], i32); 4] = [
        (&["list"], 0),
        (&["help"], 0),
        // Two different output directories: a usage error.
        (&["--trace", trace, "fig05"], 2),
        (&["no_such_experiment"], 2),
    ];
    for (args, want) in cases {
        assert_eq!(repro(&env_dir, args), want, "exit code of repro {args:?}");
        assert!(!env_dir.exists(), "repro {args:?} created REPRO_METRICS's directory");
        assert!(!trace_dir.exists(), "repro {args:?} created the --trace directory");
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn populated_output_directory_is_refused_untouched() {
    let root = scratch("populated");
    let dir = root.join("out");
    std::fs::create_dir_all(&dir).expect("output dir");
    std::fs::write(dir.join("spans.jsonl"), "an earlier run\n").expect("earlier file");
    let d = dir.to_str().expect("utf-8 temp path");
    for flag in ["--trace", "--metrics"] {
        // REPRO_METRICS names the same directory, so only the
        // populated directory can refuse the run.
        assert_eq!(repro(&dir, &[flag, d, "fig05"]), 2, "exit code of repro {flag}");
        let entries: Vec<_> = std::fs::read_dir(&dir)
            .expect("output dir kept")
            .map(|e| e.expect("dir entry").file_name())
            .collect();
        assert_eq!(entries, ["spans.jsonl"], "repro {flag} wrote into the directory");
        let kept = std::fs::read_to_string(dir.join("spans.jsonl")).expect("earlier file");
        assert_eq!(kept, "an earlier run\n", "repro {flag} rewrote an earlier file");
    }
    std::fs::remove_dir_all(&root).ok();
}
