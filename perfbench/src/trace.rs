//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is a name, a start, an end and the span that was open when
//! it began. Spans are kept in memory while the run measures and
//! written out as JSON lines when it ends; a span's self time is its
//! duration minus the time its direct children cover.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are nanoseconds from the recorder's origin.
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans; disabled recorders cost one branch per call.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        let cap = if enabled { 1 << 16 } else { 0 };
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::with_capacity(cap),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turn recording on or off (an untraced pass inside a traced run).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = now;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Self time per span: duration minus the direct children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Total self time per span name, sorted by name.
    pub fn self_by_name(&self) -> Vec<(&'static str, u64, usize)> {
        let own = self.self_ns();
        let mut rows: Vec<(&'static str, u64, usize)> = Vec::new();
        for (s, t) in self.spans.iter().zip(own) {
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += t;
                    r.2 += 1;
                }
                None => rows.push((s.name, t, 1)),
            }
        }
        rows.sort_by(|a, b| a.0.cmp(b.0));
        rows
    }

    /// The spans as JSON lines: id, name, parent, start, end, self.
    pub fn to_jsonl(&self) -> String {
        let own = self.self_ns();
        let mut out = String::new();
        for (i, (s, t)) in self.spans.iter().zip(own).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{t}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            Span {
                name: "pass",
                parent: None,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                name: "step",
                parent: Some(0),
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                name: "step",
                parent: Some(0),
                start_ns: 50,
                end_ns: 90,
            },
            Span {
                name: "inner",
                parent: Some(2),
                start_ns: 60,
                end_ns: 70,
            },
        ];
        assert_eq!(t.self_ns(), vec![30, 30, 30, 10]);
        let by_name = t.self_by_name();
        assert_eq!(
            by_name,
            vec![("inner", 10, 1), ("pass", 30, 1), ("step", 60, 2)]
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.enter("x");
        t.exit();
        assert!(t.spans().is_empty());
    }
}
