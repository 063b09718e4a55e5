//! `repro` creates its run-output directory only for a run: listing
//! the experiments, printing help or failing on a usage error must
//! leave nothing on disk. `--metrics <dir>` is the one way to name
//! that directory, and a directory holds one run: one that already has
//! entries is refused.

use std::path::PathBuf;
use std::process::Command;

fn scratch(name: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("repro_metrics_dir_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    std::fs::create_dir_all(&root).expect("scratch root");
    root
}

/// Run `repro args…` at smoke effort; returns the exit code.
fn repro(args: &[&str]) -> i32 {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .env("REPRO_EFFORT", "smoke")
        .output()
        .expect("repro starts");
    out.status.code().expect("repro exits normally")
}

#[test]
fn no_output_directory_without_a_run() {
    let root = scratch("norun");
    let dir = root.join("out");
    let d = dir.to_str().expect("utf-8 temp path");
    let cases: [(&[&str], i32); 4] = [
        (&["--metrics", d, "list"], 0),
        (&["--metrics", d, "help"], 0),
        (&["--metrics", d, "no_such_experiment"], 2),
        // There is no `--trace`: it is an unknown experiment name.
        (&["--trace", d, "fig05"], 2),
    ];
    for (args, want) in cases {
        assert_eq!(repro(args), want, "exit code of repro {args:?}");
        assert!(!dir.exists(), "repro {args:?} created the output directory");
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
    assert_eq!(repro(&["--metrics", d, "fig05"]), 2, "exit code of repro --metrics");
    let entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("output dir kept")
        .map(|e| e.expect("dir entry").file_name())
        .collect();
    assert_eq!(entries, ["spans.jsonl"], "repro --metrics wrote into the directory");
    let kept = std::fs::read_to_string(dir.join("spans.jsonl")).expect("earlier file");
    assert_eq!(kept, "an earlier run\n", "repro --metrics rewrote an earlier file");
    std::fs::remove_dir_all(&root).ok();
}
