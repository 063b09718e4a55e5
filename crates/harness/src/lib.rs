//! `harness` — the test harness and the paper's experiment suite.
//!
//! Modelled on the ESnet "Network Test Harness" the paper uses
//! (§III-G): every test configuration is run for a fixed duration, a
//! minimum number of times, with `mpstat` running alongside; results
//! are reported as mean/stdev/min/max.
//!
//! * [`testbeds`] — the AmLight and ESnet testbeds (hosts + paths) as
//!   calibrated reproductions of Figs. 1–2.
//! * [`scenario`] — one test configuration (hosts × path × iperf3
//!   flags).
//! * [`runner`] — the repetition runner (scenario batches flatten into
//!   `(scenario, repetition)` jobs on the bounded pool) producing
//!   [`runner::TestSummary`]; each repetition runs once and a failed
//!   one is recorded per-seed. Seeds derive from scenario fingerprints,
//!   not loop positions.
//! * [`sched`] — the bounded work-conserving pool and the process-wide
//!   concurrency gate (`REPRO_JOBS`).
//! * [`supervise`] — the run supervisor: crash isolation, wall-clock
//!   deadlines, checkpoint/resume, the defect/host-failure error
//!   taxonomy, and the degraded-run ledger.
//! * [`chaos`] — seeded harness-fault injection (`REPRO_CHAOS`):
//!   worker kills and run-file write failures.
//! * [`ctx`] — [`ctx::RunCtx`]: effort, metrics hub, chaos and
//!   parallelism resolved once at entry and threaded explicitly.
//! * [`metrics`] — the run-output hub (`--metrics <dir>`), the one
//!   writer of run files: HDR-histogram registry, OpenMetrics
//!   exposition, per-repetition interval series, traces and profiles,
//!   per-experiment CSVs, the degraded-run manifest, phase spans, and
//!   the live stderr heartbeat. It turns the observer-neutral
//!   telemetry and attribution on for every repetition (§6h).
//! * [`render`] — ASCII tables and grouped bar charts for terminal
//!   reports.
//! * [`trace`] — renderers for a repetition's JSON-lines telemetry
//!   trace and its folded-stack / `perf report` cycle profiles, plus
//!   the `TraceIo` shim every artefact write goes through.
//! * [`experiments`] — one module per table/figure of the paper, plus
//!   the §V-C future-work extensions and the ablations called out in
//!   DESIGN.md.

#![deny(unreachable_pub)]
// Recoverable failures carry typed errors; every surviving `expect`
// states its infallibility argument (tests are exempt).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod ctx;
pub mod effort;
pub mod experiments;
pub mod metrics;
pub mod render;
pub mod runner;
pub mod scenario;
pub mod sched;
pub mod supervise;
pub mod testbeds;
pub mod trace;

pub use chaos::{ChaosPlan, ChaosStats};
pub use ctx::RunCtx;
pub use effort::Effort;
pub use metrics::MetricsHub;
pub use render::{FigureData, Series, TableData};
pub use runner::{FailedRep, ScenarioError, TestHarness, TestSummary};
pub use scenario::Scenario;
pub use supervise::{ErrorClass, RunLedger, ScenarioRecord, Supervisor};
pub use testbeds::{AmLightPath, EsnetPath, Testbeds};
