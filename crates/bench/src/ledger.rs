//! The perf ledger and the regression gate behind `bench --check`.
//!
//! Every `bench` run appends one [`LedgerRecord`] per scenario to an
//! append-only `BENCH_LEDGER.jsonl` (one JSON object per line), so the
//! repo accumulates an always-on perf trajectory alongside the
//! point-in-time `BENCH_<date>.json` snapshots. `bench --check
//! <baseline.json>` replays the scenarios and compares them against a
//! committed baseline snapshot, failing on
//!
//! * a >threshold ns/event regression (default 10%, see
//!   [`DEFAULT_THRESHOLD`]),
//! * any `past_clamps != 0` (an event scheduled before "now" is a
//!   correctness smell, never a tuning knob),
//! * an effort or event-count mismatch (the comparison would be
//!   apples-to-oranges; re-bless the baseline instead — see
//!   DESIGN.md §6g for the blessing policy).
//!
//! Everything here is hand-rolled over the repo's own JSON shape — the
//! workspace takes no serde dependency, and the only JSON this module
//! ever reads is the JSON this workspace writes.

use std::fmt::Write as _;

/// Relative ns/event growth over baseline that fails the gate: 0.10
/// means "more than 10% slower fails". Overridable per invocation via
/// `BENCH_CHECK_THRESHOLD` (a float, same semantics).
pub const DEFAULT_THRESHOLD: f64 = 0.10;

/// One scenario's perf point, as recorded in a `BENCH_<date>.json`
/// snapshot and in one `BENCH_LEDGER.jsonl` line.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioPoint {
    /// Scenario id (e.g. `scale_fanin_256`).
    pub scenario: String,
    /// Total events dispatched in one run (deterministic per scenario
    /// shape — a mismatch means the workload itself changed).
    pub events: u64,
    /// Wall nanoseconds per dispatched event (min over iterations).
    pub ns_per_event: f64,
    /// Events per wall second (min-wall iteration).
    pub events_per_sec: f64,
    /// `EventQueue::past_clamps` after the run — events that had to be
    /// clamped forward to "now". Must be zero; gated hard.
    pub past_clamps: u64,
}

/// One appended ledger line: a [`ScenarioPoint`] plus the run context
/// that makes points comparable months later.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerRecord {
    /// Civil date (UTC) of the run, `YYYY-MM-DD`.
    pub date: String,
    /// Short commit hash of the working tree (`unknown` outside git).
    pub commit: String,
    /// Effort preset the run used (`full` or `smoke`).
    pub effort: String,
    /// The measured point.
    pub point: ScenarioPoint,
}

impl LedgerRecord {
    /// Render as one JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"date\":\"{}\",\"commit\":\"{}\",\"effort\":\"{}\",\"scenario\":\"{}\",\
             \"events\":{},\"ns_per_event\":{:.1},\"events_per_sec\":{:.0},\"past_clamps\":{}}}",
            self.date,
            self.commit,
            self.effort,
            self.point.scenario,
            self.point.events,
            self.point.ns_per_event,
            self.point.events_per_sec,
            self.point.past_clamps,
        );
        out
    }
}

/// A parsed `BENCH_<date>.json` snapshot (the gate's baseline).
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Effort preset the snapshot was taken at.
    pub effort: String,
    /// Per-scenario points, in file order.
    pub scenarios: Vec<ScenarioPoint>,
}

/// Parse a `BENCH_<date>.json` snapshot produced by this repo's bench
/// binary (see `render_json` there). This is a shape-specific reader,
/// not a general JSON parser: it scans `"key": value` pairs and opens a
/// new scenario at each `"name"` key. Pre-ledger snapshots that lack
/// `past_clamps` read as zero.
pub fn parse_snapshot(text: &str) -> Result<Snapshot, String> {
    let mut effort = None;
    let mut scenarios: Vec<ScenarioPoint> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim().trim_end_matches(',');
        let Some((key, value)) = split_pair(line) else { continue };
        let fail = |what: &str| Err(format!("line {}: {what}: {raw:?}", lineno + 1));
        match key {
            "effort" => effort = Some(unquote(value)?.to_string()),
            "name" => scenarios.push(ScenarioPoint {
                scenario: unquote(value)?.to_string(),
                events: 0,
                ns_per_event: 0.0,
                events_per_sec: 0.0,
                past_clamps: 0,
            }),
            "events" | "ns_per_event" | "events_per_sec" | "past_clamps" => {
                let Some(cur) = scenarios.last_mut() else {
                    return fail("scenario field before any \"name\"");
                };
                let Ok(num) = value.parse::<f64>() else {
                    return fail("unparseable number");
                };
                match key {
                    "events" => cur.events = num as u64,
                    "ns_per_event" => cur.ns_per_event = num,
                    "events_per_sec" => cur.events_per_sec = num,
                    _ => cur.past_clamps = num as u64,
                }
            }
            _ => {}
        }
    }
    Ok(Snapshot {
        effort: effort.ok_or("snapshot has no \"effort\" key")?,
        scenarios,
    })
}

/// Split one `"key": value` line into `(key, value)`.
fn split_pair(line: &str) -> Option<(&str, &str)> {
    let rest = line.strip_prefix('"')?;
    let (key, rest) = rest.split_once('"')?;
    let value = rest.trim().strip_prefix(':')?.trim();
    Some((key, value))
}

/// Strip the quotes off a JSON string value.
fn unquote(value: &str) -> Result<&str, String> {
    value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .ok_or_else(|| format!("expected a quoted string, got {value:?}"))
}

/// The gate verdict for one scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Within threshold of baseline (relative ns/event delta attached,
    /// negative = faster).
    Pass(f64),
    /// ns/event grew past the threshold.
    Regressed {
        /// Baseline ns/event.
        baseline: f64,
        /// Current ns/event.
        current: f64,
        /// Relative growth (0.17 = 17% slower).
        delta: f64,
    },
    /// `past_clamps` was non-zero — a correctness gate, not a perf one.
    PastClamps(u64),
    /// Event count differs from baseline: the scenario shape changed
    /// and ns/event is no longer comparable. Re-bless the baseline.
    ShapeChanged {
        /// Baseline event count.
        baseline: u64,
        /// Current event count.
        current: u64,
    },
    /// Scenario is in the current run but not the baseline.
    NotInBaseline,
}

/// Compare a run against the baseline snapshot. Returns one
/// `(scenario, verdict)` per *current* scenario: the gate checks what
/// ran, and a baseline scenario missing from the run (e.g. a
/// `BENCH_ONLY` filter) is simply not judged.
pub fn check(baseline: &Snapshot, effort: &str, current: &[ScenarioPoint], threshold: f64) -> Vec<(String, Verdict)> {
    current
        .iter()
        .map(|point| {
            let verdict = judge(baseline, effort, point, threshold);
            (point.scenario.clone(), verdict)
        })
        .collect()
}

fn judge(baseline: &Snapshot, effort: &str, point: &ScenarioPoint, threshold: f64) -> Verdict {
    if point.past_clamps != 0 {
        return Verdict::PastClamps(point.past_clamps);
    }
    let Some(base) = baseline.scenarios.iter().find(|s| s.scenario == point.scenario) else {
        return Verdict::NotInBaseline;
    };
    if baseline.effort != effort {
        // Different effort presets simulate different durations; the
        // event counts (and cache behaviour) aren't comparable.
        return Verdict::ShapeChanged { baseline: base.events, current: point.events };
    }
    if base.events != point.events {
        return Verdict::ShapeChanged { baseline: base.events, current: point.events };
    }
    let delta = point.ns_per_event / base.ns_per_event - 1.0;
    if delta > threshold {
        Verdict::Regressed { baseline: base.ns_per_event, current: point.ns_per_event, delta }
    } else {
        Verdict::Pass(delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(name: &str, events: u64, ns: f64, clamps: u64) -> ScenarioPoint {
        ScenarioPoint {
            scenario: name.into(),
            events,
            ns_per_event: ns,
            events_per_sec: 1e9 / ns,
            past_clamps: clamps,
        }
    }

    fn baseline() -> Snapshot {
        Snapshot {
            effort: "smoke".into(),
            scenarios: vec![point("fanin", 1_000_000, 100.0, 0), point("single", 500_000, 80.0, 0)],
        }
    }

    #[test]
    fn ledger_line_is_one_json_object() {
        let rec = LedgerRecord {
            date: "2026-08-09".into(),
            commit: "abc1234".into(),
            effort: "full".into(),
            point: point("fanin", 3_003_496, 152.043, 0),
        };
        let line = rec.to_jsonl();
        assert!(!line.contains('\n'));
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"scenario\":\"fanin\""));
        assert!(line.contains("\"ns_per_event\":152.0"));
        assert!(line.contains("\"past_clamps\":0"));
    }

    #[test]
    fn snapshot_roundtrips_through_parser() {
        let text = r#"{
  "schema": 1,
  "date": "2026-08-09",
  "effort": "smoke",
  "scenarios": [
    {
      "name": "fanin",
      "flows": 256,
      "sim_secs": 1.0,
      "events": 1000000,
      "goodput_gbps": 97.120,
      "wall_secs_min": 0.100000,
      "wall_secs_mean": 0.110000,
      "events_per_sec": 10000000,
      "past_clamps": 0,
      "ns_per_event": 100.0
    }
  ]
}
"#;
        let snap = parse_snapshot(text).expect("parses");
        assert_eq!(snap.effort, "smoke");
        assert_eq!(snap.scenarios.len(), 1);
        assert_eq!(snap.scenarios[0], point("fanin", 1_000_000, 100.0, 0));
    }

    #[test]
    fn pre_ledger_snapshot_without_past_clamps_reads_zero() {
        let text = "{\n\"effort\": \"full\",\n\"scenarios\": [\n{\n\"name\": \"x\",\n\"events\": 10,\n\"events_per_sec\": 5,\n\"ns_per_event\": 2.0\n}\n]\n}\n";
        let snap = parse_snapshot(text).expect("parses");
        assert_eq!(snap.scenarios[0].past_clamps, 0);
    }

    #[test]
    fn snapshot_without_effort_is_rejected() {
        assert!(parse_snapshot("{\n\"schema\": 1\n}\n").is_err());
    }

    #[test]
    fn within_threshold_passes() {
        let verdicts =
            check(&baseline(), "smoke", &[point("fanin", 1_000_000, 109.0, 0)], DEFAULT_THRESHOLD);
        assert_eq!(verdicts.len(), 1);
        assert!(matches!(verdicts[0].1, Verdict::Pass(_)), "{verdicts:?}");
    }

    #[test]
    fn regression_over_threshold_fails() {
        let verdicts =
            check(&baseline(), "smoke", &[point("fanin", 1_000_000, 111.0, 0)], DEFAULT_THRESHOLD);
        match &verdicts[0].1 {
            Verdict::Regressed { delta, .. } => assert!((delta - 0.11).abs() < 1e-9),
            other => panic!("expected Regressed, got {other:?}"),
        }
    }

    #[test]
    fn improvement_passes_with_negative_delta() {
        let verdicts =
            check(&baseline(), "smoke", &[point("fanin", 1_000_000, 60.0, 0)], DEFAULT_THRESHOLD);
        match &verdicts[0].1 {
            Verdict::Pass(delta) => assert!(*delta < -0.3),
            other => panic!("expected Pass, got {other:?}"),
        }
    }

    #[test]
    fn past_clamps_fail_even_when_fast() {
        let verdicts =
            check(&baseline(), "smoke", &[point("fanin", 1_000_000, 10.0, 3)], DEFAULT_THRESHOLD);
        assert_eq!(verdicts[0].1, Verdict::PastClamps(3));
    }

    #[test]
    fn event_count_mismatch_demands_reblessing() {
        let verdicts =
            check(&baseline(), "smoke", &[point("fanin", 999_999, 100.0, 0)], DEFAULT_THRESHOLD);
        assert!(matches!(verdicts[0].1, Verdict::ShapeChanged { .. }));
    }

    #[test]
    fn effort_mismatch_demands_reblessing() {
        let verdicts =
            check(&baseline(), "full", &[point("fanin", 1_000_000, 100.0, 0)], DEFAULT_THRESHOLD);
        assert!(matches!(verdicts[0].1, Verdict::ShapeChanged { .. }));
    }

    #[test]
    fn unknown_scenario_is_flagged() {
        let verdicts =
            check(&baseline(), "smoke", &[point("brand_new", 5, 1.0, 0)], DEFAULT_THRESHOLD);
        assert_eq!(verdicts[0].1, Verdict::NotInBaseline);
    }
}
