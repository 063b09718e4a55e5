//! Lightweight phase spans.
//!
//! A [`SpanRecord`] marks one named phase of a run — `setup`,
//! `warmup`, `steady`, `drain`, `checkpoint` — within
//! a scope (typically `experiment/scenario/repN`). Spans are plain
//! data; the harness times phases itself and appends records to a
//! JSONL sink in the metrics directory. Wall-clock spans carry the
//! unit `"wall_s"`, simulated-time spans `"sim_s"`.

use crate::json_escape;

/// One completed phase span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Owning scope, e.g. `fig05/wan_25ms/rep0`.
    pub scope: String,
    /// Phase name, e.g. `steady` or `checkpoint`.
    pub name: String,
    /// Time unit of `start`/`dur`: `"wall_s"` (wall clock, relative to
    /// the metrics session start) or `"sim_s"` (simulated time).
    pub unit: &'static str,
    /// Span start in `unit`s.
    pub start: f64,
    /// Span duration in `unit`s.
    pub dur: f64,
}

impl SpanRecord {
    /// Render as one JSON line.
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"scope\":\"{}\",\"name\":\"{}\",\"unit\":\"{}\",\"start\":{:.6},\"dur\":{:.6}}}",
            json_escape(&self.scope),
            json_escape(&self.name),
            json_escape(self.unit),
            self.start,
            self.dur,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_shape() {
        let span = SpanRecord {
            scope: "fig05/rep0".into(),
            name: "steady".into(),
            unit: "sim_s",
            start: 1.0,
            dur: 4.25,
        };
        assert_eq!(
            span.to_json_line(),
            "{\"scope\":\"fig05/rep0\",\"name\":\"steady\",\"unit\":\"sim_s\",\"start\":1.000000,\"dur\":4.250000}"
        );
    }

    #[test]
    fn escapes_quotes() {
        let span = SpanRecord {
            scope: "a\"b".into(),
            name: "n".into(),
            unit: "wall_s",
            start: 0.0,
            dur: 0.0,
        };
        assert!(span.to_json_line().contains("a\\\"b"));
    }
}
