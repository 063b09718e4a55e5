//! The paper's experiments, one function per table/figure.
//!
//! Every function takes a [`RunCtx`] and returns render-ready
//! [`FigureData`] / [`TableData`]. The mapping to the paper:
//!
//! | Function | Reproduces |
//! |---|---|
//! | [`figures::fig04`] | Fig. 4 — baremetal vs VM validation |
//! | [`figures::fig05`] | Fig. 5 — single stream, AmLight/Intel |
//! | [`figures::fig06`] | Fig. 6 — single stream, ESnet/AMD |
//! | [`figures::fig07`] | Fig. 7 — CPU utilisation, Intel |
//! | [`figures::fig08`] | Fig. 8 — CPU utilisation, AMD |
//! | [`figures::fig09`] | Fig. 9 — `optmem_max` sweep |
//! | [`figures::fig10`] | Fig. 10 — 8 flows, ESnet |
//! | [`figures::fig11`] | Fig. 11 — 8 flows, AmLight |
//! | [`figures::fig12`] | Fig. 12 — kernel versions, ESnet |
//! | [`figures::fig13`] | Fig. 13 — kernel versions, AmLight |
//! | [`tables::table1`] | Table I — ESnet LAN, no flow control |
//! | [`tables::table2`] | Table II — ESnet WAN, no flow control |
//! | [`tables::table3`] | Table III — production DTNs, flow control |
//! | [`extensions::hw_gro`] | §V-C — hardware GRO preview |
//! | [`extensions::bigtcp_zerocopy`] | §V-C — BIG TCP + zerocopy custom kernel |
//! | [`extensions::fault_recovery`] | robustness — recovery from injected faults |
//! | [`extensions::scale_fanin`] | scale — 16/64/256-flow fan-in through one switch |
//! | [`telemetry::timeline`] | §III-G — ss/ethtool/mpstat timeline on the ESnet WAN |
//! | [`bottleneck::diagnosis`] | diagnosis narratives vs the attribution engine |
//! | [`ablations`] | design-choice ablations (affinity, IOMMU, ring, CC, MTU, sysctls) |
//! | [`cc_matrix::matrix`] | CC variant × RTT × bursty loss × buffer-depth matrix with golden orderings |
//! | [`fleet::fleet`] | arrival-process fleet workloads with streaming FCT aggregation |

pub mod ablations;
pub mod bottleneck;
pub mod cc_matrix;
pub mod common;
pub mod extensions;
pub mod fleet;
pub mod figures;
pub mod tables;
pub mod telemetry;

use crate::ctx::RunCtx;
use crate::render::{FigureData, TableData};

/// The output of one experiment: figures or a table.
#[derive(Debug, Clone)]
pub enum Artifact {
    /// One or more figures (a main plot plus companions).
    Figures(Vec<FigureData>),
    /// A table.
    Table(TableData),
}

impl Artifact {
    /// Render everything as terminal text.
    pub fn render_ascii(&self) -> String {
        match self {
            Artifact::Figures(figs) => {
                figs.iter().map(FigureData::render_ascii).collect::<Vec<_>>().join("\n")
            }
            Artifact::Table(t) => t.render_ascii(),
        }
    }

    /// CSV dumps, one per figure/table, named for file output.
    pub fn to_csv_files(&self, stem: &str) -> Vec<(String, String)> {
        match self {
            Artifact::Figures(figs) => figs
                .iter()
                .enumerate()
                .map(|(i, f)| {
                    let name = if figs.len() == 1 {
                        format!("{stem}.csv")
                    } else {
                        format!("{stem}_{i}.csv")
                    };
                    (name, f.to_csv())
                })
                .collect(),
            Artifact::Table(t) => vec![(format!("{stem}.csv"), t.to_csv())],
        }
    }
}

/// Identifier for one experiment (used by benches and the CLI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExperimentId {
    /// Fig. 4.
    Fig04,
    /// Fig. 5.
    Fig05,
    /// Fig. 6.
    Fig06,
    /// Fig. 7.
    Fig07,
    /// Fig. 8.
    Fig08,
    /// Fig. 9.
    Fig09,
    /// Fig. 10.
    Fig10,
    /// Fig. 11.
    Fig11,
    /// Fig. 12.
    Fig12,
    /// Fig. 13.
    Fig13,
    /// Table I.
    Table1,
    /// Table II.
    Table2,
    /// Table III.
    Table3,
    /// §V-C hardware GRO.
    ExtHwGro,
    /// §V-C BIG TCP + zerocopy.
    ExtBigTcpZc,
    /// Robustness: recovery from injected faults.
    ExtFaults,
    /// §III-G: ss/ethtool/mpstat-style telemetry timeline.
    ExtTelemetry,
    /// Diagnosis narratives vs the bottleneck-attribution engine.
    ExtBottleneck,
    /// Scale: many-flow fan-in through one shared switch.
    ExtScale,
    /// Congestion-control matrix: variant × RTT × Gilbert–Elliott loss
    /// × switch-buffer depth, with golden-ordering verdicts.
    ExtCcMatrix,
    /// Fleet workloads: arrival-process traffic (Poisson / MMPP incast)
    /// with streaming FCT aggregation and golden tail shapes.
    ExtFleet,
}

impl ExperimentId {
    /// All paper artefacts in order of appearance.
    pub const ALL: [ExperimentId; 21] = [
        ExperimentId::Fig04,
        ExperimentId::Fig05,
        ExperimentId::Fig06,
        ExperimentId::Fig07,
        ExperimentId::Fig08,
        ExperimentId::Fig09,
        ExperimentId::Fig10,
        ExperimentId::Fig11,
        ExperimentId::Fig12,
        ExperimentId::Fig13,
        ExperimentId::Table1,
        ExperimentId::Table2,
        ExperimentId::Table3,
        ExperimentId::ExtHwGro,
        ExperimentId::ExtBigTcpZc,
        ExperimentId::ExtFaults,
        ExperimentId::ExtTelemetry,
        ExperimentId::ExtBottleneck,
        ExperimentId::ExtScale,
        ExperimentId::ExtCcMatrix,
        ExperimentId::ExtFleet,
    ];

    /// Short name ("fig05", "table1", …).
    pub fn name(self) -> &'static str {
        match self {
            ExperimentId::Fig04 => "fig04",
            ExperimentId::Fig05 => "fig05",
            ExperimentId::Fig06 => "fig06",
            ExperimentId::Fig07 => "fig07",
            ExperimentId::Fig08 => "fig08",
            ExperimentId::Fig09 => "fig09",
            ExperimentId::Fig10 => "fig10",
            ExperimentId::Fig11 => "fig11",
            ExperimentId::Fig12 => "fig12",
            ExperimentId::Fig13 => "fig13",
            ExperimentId::Table1 => "table1",
            ExperimentId::Table2 => "table2",
            ExperimentId::Table3 => "table3",
            ExperimentId::ExtHwGro => "ext_hw_gro",
            ExperimentId::ExtBigTcpZc => "ext_bigtcp_zc",
            ExperimentId::ExtFaults => "ext_faults",
            ExperimentId::ExtTelemetry => "ext_telemetry",
            ExperimentId::ExtBottleneck => "ext_bottleneck",
            ExperimentId::ExtScale => "ext_scale",
            ExperimentId::ExtCcMatrix => "ext_cc_matrix",
            ExperimentId::ExtFleet => "ext_fleet",
        }
    }

    /// Run the experiment, returning its artifact.
    pub fn run(self, ctx: &RunCtx) -> Artifact {
        match self {
            ExperimentId::Fig04 => Artifact::Figures(figures::fig04(ctx)),
            ExperimentId::Fig05 => Artifact::Figures(figures::fig05(ctx)),
            ExperimentId::Fig06 => Artifact::Figures(figures::fig06(ctx)),
            ExperimentId::Fig07 => Artifact::Figures(figures::fig07(ctx)),
            ExperimentId::Fig08 => Artifact::Figures(figures::fig08(ctx)),
            ExperimentId::Fig09 => Artifact::Figures(figures::fig09(ctx)),
            ExperimentId::Fig10 => Artifact::Figures(figures::fig10(ctx)),
            ExperimentId::Fig11 => Artifact::Figures(figures::fig11(ctx)),
            ExperimentId::Fig12 => Artifact::Figures(figures::fig12(ctx)),
            ExperimentId::Fig13 => Artifact::Figures(figures::fig13(ctx)),
            ExperimentId::Table1 => Artifact::Table(tables::table1(ctx)),
            ExperimentId::Table2 => Artifact::Table(tables::table2(ctx)),
            ExperimentId::Table3 => Artifact::Table(tables::table3(ctx)),
            ExperimentId::ExtHwGro => Artifact::Figures(extensions::hw_gro(ctx)),
            ExperimentId::ExtBigTcpZc => Artifact::Figures(extensions::bigtcp_zerocopy(ctx)),
            ExperimentId::ExtFaults => Artifact::Figures(extensions::fault_recovery(ctx)),
            ExperimentId::ExtTelemetry => Artifact::Table(telemetry::timeline(ctx)),
            ExperimentId::ExtBottleneck => Artifact::Table(bottleneck::diagnosis(ctx)),
            ExperimentId::ExtScale => Artifact::Figures(extensions::scale_fanin(ctx)),
            ExperimentId::ExtCcMatrix => Artifact::Table(cc_matrix::matrix(ctx)),
            ExperimentId::ExtFleet => Artifact::Table(fleet::fleet(ctx)),
        }
    }
}
