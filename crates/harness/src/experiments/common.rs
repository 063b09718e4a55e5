//! Shared helpers for the experiment definitions.

use crate::ctx::RunCtx;
use crate::render::{FigureData, Series};
use crate::runner::{TestHarness, TestSummary};
use crate::scenario::Scenario;
use simcore::{RunningStats, Summary};

/// Run one scenario; a failed scenario degrades to an all-zero
/// [`TestSummary`] (with a warning on stderr) so one broken cell does
/// not tear down a whole figure or table. The harness's ledger already
/// holds the scenario's record, which is what counts it as failed.
pub fn run_or_empty(harness: &TestHarness, sc: &Scenario) -> TestSummary {
    harness.run(sc).unwrap_or_else(|e| {
        eprintln!("warning: {e}; reporting zeros for '{}'", sc.label);
        TestSummary::empty(sc.label.as_str())
    })
}

/// Run a whole batch of scenarios through one harness; each failed
/// scenario degrades to zeros exactly like [`run_or_empty`]. The batch
/// flattens to `(scenario, repetition)` jobs on the bounded pool, so
/// the entire grid runs work-conservingly instead of scenario by
/// scenario.
pub fn run_batch_or_empty(harness: &TestHarness, scenarios: &[Scenario]) -> Vec<TestSummary> {
    harness
        .run_batch(scenarios)
        .into_iter()
        .zip(scenarios)
        .map(|(result, sc)| {
            result.unwrap_or_else(|e| {
                eprintln!("warning: {e}; reporting zeros for '{}'", sc.label);
                TestSummary::empty(sc.label.as_str())
            })
        })
        .collect()
}

/// Run a grid of scenarios (series × x-positions) and assemble a
/// throughput figure. `grid[s][x]` is the scenario for series `s` at
/// x-position `x`. The whole grid is submitted as one batch.
pub fn throughput_figure(
    title: &str,
    x_labels: Vec<String>,
    grid: Vec<(String, Vec<Scenario>)>,
    ctx: &RunCtx,
) -> FigureData {
    let harness = ctx.harness();
    let flat: Vec<Scenario> =
        grid.iter().flat_map(|(_, scenarios)| scenarios.iter().cloned()).collect();
    let mut summaries = run_batch_or_empty(&harness, &flat).into_iter();
    let mut fig = FigureData::new(title, "Gbps", x_labels);
    for (name, scenarios) in grid {
        let points: Vec<Summary> =
            scenarios.iter().map(|_| summaries.next().expect("summary").throughput_gbps).collect();
        fig.push_series(name, points);
    }
    fig
}

/// Run one row of scenarios and return the summaries (for tables).
pub fn run_row(scenarios: &[Scenario], ctx: &RunCtx) -> Vec<TestSummary> {
    run_batch_or_empty(&ctx.harness(), scenarios)
}

/// Build a CPU-utilisation figure from already-run summaries: for each
/// series the sender and receiver combined percentages become two
/// sub-series (`"<name> TX cores"` / `"<name> RX cores"`), matching the
/// paper's Figs. 7–8 presentation.
pub fn cpu_figure(title: &str, x_labels: Vec<String>, rows: Vec<(String, Vec<TestSummary>)>) -> FigureData {
    let mut fig = FigureData::new(title, "%", x_labels);
    for (name, summaries) in &rows {
        fig.series.push(Series {
            name: format!("{name} TX cores (sender)"),
            points: summaries.iter().map(|s| s.sender_cpu_pct).collect(),
        });
        fig.series.push(Series {
            name: format!("{name} RX cores (receiver)"),
            points: summaries.iter().map(|s| s.receiver_cpu_pct).collect(),
        });
    }
    fig
}

/// A constant series (the "Max Tput" line in Fig. 10).
pub fn constant_series(value_gbps: f64, len: usize) -> Vec<Summary> {
    let mut stats = RunningStats::new();
    stats.push(value_gbps);
    vec![stats.summary(); len]
}
