//! OpenMetrics text exposition of a [`MetricsSnapshot`].
//!
//! Counters render as `counter` families with the mandated `_total`
//! sample suffix, gauges as `gauge`, and histograms as `summary`
//! families (quantile samples plus `_sum`/`_count`) — the natural fit
//! for [`crate::HdrHistogram`]'s bounded-error quantiles. Output is
//! deterministic (name-ordered) and ends with the `# EOF` marker the
//! spec requires, which is what the CI well-formedness check keys on.

use crate::registry::MetricsSnapshot;

/// Quantiles exposed for every histogram family.
const QUANTILES: [(f64, &str); 4] = [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99"), (0.999, "0.999")];

/// Render a snapshot as OpenMetrics text (`# HELP`/`# TYPE` metadata,
/// one block per family, terminated by `# EOF`).
pub fn render_openmetrics(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snap.counters {
        meta(&mut out, snap, name, "counter");
        out.push_str(&format!("{name}_total {value}\n"));
    }
    for (name, value) in &snap.gauges {
        meta(&mut out, snap, name, "gauge");
        out.push_str(&format!("{name} {value}\n"));
    }
    for (name, h) in &snap.hists {
        meta(&mut out, snap, name, "summary");
        for (q, label) in QUANTILES {
            if let Some(v) = h.quantile(q) {
                out.push_str(&format!("{name}{{quantile=\"{label}\"}} {v}\n"));
            }
        }
        out.push_str(&format!("{name}_sum {}\n", h.sum()));
        out.push_str(&format!("{name}_count {}\n", h.count()));
    }
    out.push_str("# EOF\n");
    out
}

fn meta(out: &mut String, snap: &MetricsSnapshot, name: &str, kind: &str) {
    if let Some(help) = snap.help.get(name) {
        out.push_str(&format!("# HELP {name} {}\n", help.replace('\n', " ")));
    }
    out.push_str(&format!("# TYPE {name} {kind}\n"));
}

#[cfg(test)]
mod tests {
    use crate::Recorder;

    use super::*;

    #[test]
    fn renders_all_families_and_eof() {
        let r = Recorder::new();
        r.describe("repro_reps", "Repetitions finished");
        r.counter_add("repro_reps", 3);
        r.gauge_set("queue_depth", 17.0);
        for v in [10u64, 20, 30] {
            r.hist_record("rep_wall_ms", v);
        }
        let text = render_openmetrics(&r.snapshot());
        assert!(text.contains("# HELP repro_reps Repetitions finished\n"));
        assert!(text.contains("# TYPE repro_reps counter\n"));
        assert!(text.contains("repro_reps_total 3\n"));
        assert!(text.contains("# TYPE queue_depth gauge\n"));
        assert!(text.contains("queue_depth 17\n"));
        assert!(text.contains("# TYPE rep_wall_ms summary\n"));
        assert!(text.contains("rep_wall_ms{quantile=\"0.5\"} 20\n"));
        assert!(text.contains("rep_wall_ms_sum 60\n"));
        assert!(text.contains("rep_wall_ms_count 3\n"));
        assert!(text.ends_with("# EOF\n"));
    }

    #[test]
    fn empty_snapshot_is_just_eof() {
        let text = render_openmetrics(&Recorder::new().snapshot());
        assert_eq!(text, "# EOF\n");
    }

    #[test]
    fn deterministic_ordering() {
        let mk = || {
            let r = Recorder::new();
            r.counter_add("b", 1);
            r.counter_add("a", 2);
            r.gauge_set("z", 0.5);
            render_openmetrics(&r.snapshot())
        };
        assert_eq!(mk(), mk());
        let text = mk();
        assert!(text.find("a_total").unwrap() < text.find("b_total").unwrap());
    }
}
