//! `obs` — streaming metrics primitives for the simulator and harness.
//!
//! The paper's method is observability: diagnosing throughput limits
//! from `ss -tin` and ethtool counters. This crate gives the *repo*
//! the same substrate the paper applies to Linux hosts:
//!
//! * [`HdrHistogram`] — a mergeable log-linear histogram with bounded
//!   relative quantile error (≤ 1/128 ≈ 0.78%), O(buckets) memory,
//!   exact `min`/`max`/`count`/`sum`, and a lossless bucketwise merge
//!   so per-shard histograms recorded by parallel workers fold into
//!   exactly the histogram a single-pass recorder would have built.
//! * [`Recorder`] — a thread-safe named registry of counters, gauges
//!   and histograms. It is *passive*: callers that hold no recorder
//!   handle pay nothing, which is how the harness keeps metrics-off
//!   runs bit-identical (the neutrality contract of DESIGN.md §6h).
//! * [`IntervalAggregator`] — folds timestamped samples into
//!   fixed-width interval series with one streaming histogram per
//!   metric per open interval, so memory stays O(open intervals ×
//!   metrics × buckets) regardless of total sample count.
//! * [`render_openmetrics`] — OpenMetrics text exposition of a
//!   registry snapshot, and JSONL renderings for interval series and
//!   phase [`SpanRecord`]s.
//!
//! The crate is std-only and domain-neutral: it knows nothing about
//! the simulator. Domain crates export plain snapshot structs (e.g.
//! `simcore::QueueHealth`) and the harness samples them into a
//! [`Recorder`].

#![deny(unreachable_pub)]
// Recoverable failures carry typed errors; every surviving `expect`
// states its infallibility argument (tests are exempt).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hist;
mod interval;
mod openmetrics;
mod registry;
mod span;

pub use hist::HdrHistogram;
pub use interval::{IntervalAggregator, IntervalRecord};
pub use openmetrics::render_openmetrics;
pub use registry::{MetricsSnapshot, Recorder};
pub use span::SpanRecord;

/// JSON string escaping (without the surrounding quotes) for every
/// hand-rolled JSON writer in the workspace: quotes, backslashes and
/// control characters. Metric/scope names are already sanitized by
/// callers; this keeps the output well-formed even if they are not.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
