//! `repro` creates its run-output directory only for a run: listing
//! the experiments, printing help or failing on a usage error must
//! leave nothing on disk, whichever way the directory was named.

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
