//! Observer-neutrality and well-formedness of the streaming-metrics
//! subsystem (DESIGN.md §6h).
//!
//! The contract: attaching a [`harness::MetricsHub`] never changes
//! what is simulated. A hub turns telemetry and attribution on, and
//! reports are bit-identical to a run without a hub that turns the same
//! observers on itself. The artifacts it writes (OpenMetrics
//! exposition, per-repetition interval series, phase spans) are
//! well-formed.

use dtnperf::prelude::*;
use harness::{MetricsHub, RunCtx};
use iperf3sim::Iperf3Opts;
use dtnperf::simcore::SimDuration;
use std::path::PathBuf;
use std::sync::Arc;

fn scenario(label: &str) -> Scenario {
    Scenario::symmetric(
        label,
        Testbeds::esnet_host(KernelVersion::L6_8),
        Testbeds::esnet_path(EsnetPath::Lan),
        Iperf3Opts::new(2).omit(0),
    )
}

/// A fresh, empty metrics directory unique to this test.
fn metrics_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro_metrics_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn metrics_on_is_bit_identical_to_metrics_off() {
    let sc = scenario("neutrality");
    // The observers a hub turns on, turned on by the scenario instead.
    let mut observed_sc = sc.clone();
    observed_sc.opts = sc.opts.clone().telemetry(SimDuration::from_secs(1)).attribution();
    let plain =
        RunCtx::new(Effort::Smoke).harness_with_reps(2).run(&observed_sc).expect("plain run");

    let dir = metrics_dir("neutral");
    let hub = Arc::new(MetricsHub::new(&dir).expect("hub dir"));
    let observed = RunCtx::new(Effort::Smoke)
        .with_metrics(hub)
        .harness_with_reps(2)
        .run(&sc)
        .expect("observed run");

    // Bit-identical reports: same seeds, same event sequences, same
    // rendered JSON, to the last byte.
    assert_eq!(plain.reports.len(), observed.reports.len());
    for (a, b) in plain.reports.iter().zip(&observed.reports) {
        assert_eq!(a.to_json(), b.to_json(), "metrics observation changed a report");
    }
    assert_eq!(plain.throughput_gbps.mean, observed.throughput_gbps.mean);
    assert_eq!(plain.retr.mean, observed.retr.mean);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn openmetrics_exposition_is_well_formed() {
    let dir = metrics_dir("openmetrics");
    let hub = Arc::new(MetricsHub::new(&dir).expect("hub dir"));
    let ctx = RunCtx::new(Effort::Smoke).with_metrics(hub.clone());
    ctx.harness_with_reps(2).run(&scenario("exposition")).expect("run");
    let path = hub.write_exposition().expect("write exposition");
    let text = std::fs::read_to_string(path).expect("read exposition");

    // Terminated exactly once, at the end.
    assert!(text.ends_with("# EOF\n"), "missing # EOF terminator");
    assert_eq!(text.matches("# EOF").count(), 1);

    // Every sample line belongs to a family declared with # TYPE, and
    // counter samples carry the _total suffix with a parseable value.
    let mut counters: Vec<String> = Vec::new();
    let mut gauges: Vec<String> = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("TYPE has name and kind");
            match kind {
                "counter" => counters.push(name.to_string()),
                "gauge" => gauges.push(name.to_string()),
                "summary" => {}
                other => panic!("unexpected metric type {other}"),
            }
        }
    }
    assert!(!counters.is_empty(), "no counters exposed");
    assert!(!gauges.is_empty(), "no gauges exposed");
    for name in &counters {
        let sample = text
            .lines()
            .find(|l| l.starts_with(&format!("{name}_total ")))
            .unwrap_or_else(|| panic!("counter {name} has no _total sample"));
        let value: f64 = sample.split_whitespace().nth(1).expect("value").parse().expect("number");
        assert!(value >= 0.0, "counter {name} negative");
    }
    // Engine health gauges landed (sampled at end-of-round barriers).
    assert!(gauges.iter().any(|g| g == "engine_queue_len"));
    // The per-rep wall-time histogram is exposed as a summary with
    // quantile labels and a consistent count.
    assert!(text.contains("# TYPE repro_rep_wall_ms summary"));
    assert!(text.contains("repro_rep_wall_ms{quantile=\"0.5\"}"));
    assert!(text.contains("repro_rep_wall_ms_count 2"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn interval_series_and_spans_are_written() {
    let dir = metrics_dir("intervals");
    let hub = Arc::new(MetricsHub::new(&dir).expect("hub dir"));
    let ctx = RunCtx::new(Effort::Smoke).with_metrics(hub.clone());
    ctx.harness_with_reps(2).run(&scenario("series")).expect("run");
    hub.write_exposition().expect("write exposition");

    for rep in 0..2 {
        let path = dir.join(format!("series_rep{rep}.intervals.jsonl"));
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing interval series {}: {e}", path.display()));
        assert!(!text.trim().is_empty(), "empty interval series");
        for line in text.lines() {
            assert!(line.starts_with("{\"start\":"), "malformed interval line: {line}");
            assert!(line.contains("\"goodput_mbps\""), "interval line lost goodput: {line}");
            assert!(line.ends_with("}}}"), "unterminated interval line: {line}");
        }
    }
    let spans = std::fs::read_to_string(dir.join("spans.jsonl")).expect("spans written");
    assert!(spans.lines().any(|l| l.contains("\"name\":\"steady\"") && l.contains("\"unit\":\"sim_s\"")));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpointed_run_samples_queue_health_and_counts_checkpoints() {
    let dir = metrics_dir("ckpt");
    let hub = Arc::new(MetricsHub::new(&dir).expect("hub dir"));
    let ctx = RunCtx::new(Effort::Smoke).with_metrics(hub.clone());
    ctx.harness_with_reps(1)
        .with_supervisor(ctx.supervisor().with_checkpoint_every(50_000))
        .run(&scenario("ckpt_health"))
        .expect("run");
    let snap = hub.recorder().snapshot();
    assert!(
        snap.counters.get("supervisor_checkpoints").copied().unwrap_or(0) > 0,
        "no checkpoints counted at cadence 50k"
    );
    assert!(snap.gauges.contains_key("engine_queue_len"));
    assert!(snap.hists["engine_queue_depth"].count() > 0);
    assert!(snap.hists["rep_sim_events"].count() >= 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn plain_hub_samples_queue_health_mid_run_without_checkpoints() {
    // No chaos and no checkpoint cadence: the supervisor still samples
    // queue health after every step slice, so a run longer than one
    // slice leaves more than the end-of-run sample.
    let dir = metrics_dir("slices");
    let hub = Arc::new(MetricsHub::new(&dir).expect("hub dir"));
    let ctx = RunCtx::new(Effort::Smoke).with_metrics(hub.clone());
    ctx.harness_with_reps(1).run(&scenario("slice_health")).expect("run");
    let snap = hub.recorder().snapshot();
    assert_eq!(snap.counters.get("supervisor_checkpoints").copied(), Some(0));
    let samples = snap.hists["engine_queue_depth"].count();
    assert!(samples > 1, "queue depth sampled {samples} time(s): no mid-run sample");
    std::fs::remove_dir_all(&dir).ok();
}
