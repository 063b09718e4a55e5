//! Smoke tests for the experiment harness: each paper artefact's
//! generator runs end to end at Smoke effort and produces data with
//! the right structure and the headline ordering.

use dtnperf::prelude::*;
use harness::experiments::{figures, tables};
use harness::RunCtx;

#[test]
fn fig06_structure_and_ordering() {
    let figs = figures::fig06(&RunCtx::new(Effort::Smoke));
    assert_eq!(figs.len(), 1);
    let fig = &figs[0];
    assert_eq!(fig.x_labels, vec!["LAN".to_string(), "WAN".to_string()]);
    assert_eq!(fig.series.len(), 2);
    // default: LAN >> WAN; zc+pace: WAN ≈ LAN.
    let default = &fig.series[0];
    let zc = &fig.series[1];
    assert!(default.points[0].mean > default.points[1].mean * 1.4);
    assert!(zc.points[1].mean > default.points[1].mean * 1.3);
    // Rendering produces both series and the title.
    let text = fig.render_ascii();
    assert!(text.contains("Fig. 6"));
    assert!(text.contains("zerocopy"));
    let csv = fig.to_csv();
    assert_eq!(csv.lines().count(), 1 + 4, "2 series x 2 x-positions");
}

#[test]
fn table3_structure_and_ordering() {
    let table = tables::table3(&RunCtx::new(Effort::Smoke));
    assert_eq!(table.columns, vec!["Test Config", "Ave Tput", "Retr", "Range"]);
    assert_eq!(table.rows.len(), 4);
    assert_eq!(table.rows[0][0], "unpaced");
    assert_eq!(table.rows[3][0], "10 Gbps / stream");
    // The Table III takeaway: pacing at 10 G slashes retransmits.
    let retr = |row: &Vec<String>| -> f64 {
        let cell = &row[2];
        if let Some(k) = cell.strip_suffix('K') {
            k.parse::<f64>().unwrap() * 1000.0
        } else {
            cell.parse().unwrap()
        }
    };
    assert!(
        retr(&table.rows[3]) < retr(&table.rows[0]) / 4.0 + 100.0,
        "10G pacing must slash retransmits: {} -> {}",
        table.rows[0][2],
        table.rows[3][2]
    );
    let text = table.render_ascii();
    assert!(text.contains("Flow Control"));
}

#[test]
fn fig12_kernel_ordering() {
    let figs = figures::fig12(&RunCtx::new(Effort::Smoke));
    let fig = &figs[0];
    assert_eq!(fig.series.len(), 3, "5.15 / 6.5 / 6.8");
    // LAN column strictly improves with kernel version.
    let lan: Vec<f64> = fig.series.iter().map(|s| s.points[0].mean).collect();
    assert!(lan[0] < lan[1] && lan[1] < lan[2], "kernel ladder: {lan:?}");
}

#[test]
fn experiment_ids_render() {
    // The cheapest artefact end-to-end through the registry interface.
    let out = harness::experiments::ExperimentId::ExtBigTcpZc.run(&RunCtx::new(Effort::Smoke)).render_ascii();
    assert!(out.contains("BIG TCP"));
    assert!(out.contains("Gbps"));
}
