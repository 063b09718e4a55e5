//! Renderers for one repetition's sampled run artefacts, and the
//! filesystem shim the metrics hub writes them through.
//!
//! The hub ([`crate::metrics::MetricsHub`]) turns telemetry and
//! attribution on for every repetition and writes three files per
//! survivor, all rendered here:
//!
//! * `<label>_rep<i>.jsonl` ([`render_jsonl`]) — a `meta` line, then
//!   one `flow` line per flow sample (the `ss -tin` stream) and one
//!   `host` line per host sample (the `ethtool -S` + `mpstat` stream);
//!   with attribution, one `verdict` line per classified interval and
//!   a closing `bottleneck` roll-up. Every line is a self-contained
//!   JSON object, so the files pipe straight into `jq`/pandas.
//! * `<label>_rep<i>.folded` ([`folded_stacks`]) — simulated `perf`
//!   cycles as `host;core;stage <cycles>` lines, the input format of
//!   `flamegraph.pl` / `inferno`.
//! * `<label>_rep<i>.perf.txt` ([`perf_report`]) — the same cycles as
//!   a `perf report --stdio --sort cpu,sym`-style table.
//!
//! The paper's "why is this flow slow?" workflow runs `perf` alongside
//! iperf3 and reads where the cycles went; the attribution engine's
//! [`StageProfile`] carries the same information for a simulated run.

use iperf3sim::Iperf3Report;
use linuxhost::Stage;
use netsim::StageProfile;
use obs::json_escape;
use simcore::SimTime;
use std::fmt::Write as _;
use std::path::Path;

/// The filesystem surface every per-repetition artefact write goes
/// through.
///
/// Production uses [`RealIo`]; chaos mode substitutes
/// [`crate::chaos::ChaosIo`] to inject write failures, proving the
/// harness degrades a lost artefact to a warning instead of losing the
/// repetition that produced it.
pub trait TraceIo: Send + Sync {
    /// Write `data` to `path`, whole-file.
    fn write(&self, path: &Path, data: &[u8]) -> std::io::Result<()>;
}

/// The real filesystem.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealIo;

impl TraceIo for RealIo {
    fn write(&self, path: &Path, data: &[u8]) -> std::io::Result<()> {
        std::fs::write(path, data)
    }
}

/// File-name-safe form of a scenario label (lowercase; anything
/// outside `[a-z0-9_-]` collapses to `_`).
pub fn sanitize_label(label: &str) -> String {
    let out: String = label
        .chars()
        .map(|c| {
            let c = c.to_ascii_lowercase();
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' }
        })
        .collect();
    if out.is_empty() { "scenario".into() } else { out }
}

fn secs(t: SimTime) -> f64 {
    t.saturating_since(SimTime::ZERO).as_secs_f64()
}

/// Render one repetition's trace as JSON lines. `None` when the report
/// carries neither telemetry nor attribution (nothing was sampled).
pub fn render_jsonl(
    label: &str,
    rep: usize,
    seed: u64,
    report: &Iperf3Report,
) -> Option<String> {
    let telemetry = report.telemetry.as_ref();
    let attribution = report.attribution.as_ref();
    if telemetry.is_none() && attribution.is_none() {
        return None;
    }
    let mut out = String::with_capacity(4096);
    let tick_s =
        telemetry.map_or("null".into(), |t| format!("{}", t.tick.as_secs_f64()));
    out.push_str(&format!(
        "{{\"type\":\"meta\",\"label\":\"{}\",\"rep\":{rep},\"seed\":{seed},\"tick_s\":{tick_s},\"command\":\"{}\"}}\n",
        json_escape(label),
        json_escape(&report.command),
    ));
    for flow in telemetry.map(|t| t.flows.as_slice()).unwrap_or_default() {
        for (t, s) in flow.samples.iter() {
            let ssthresh = s
                .ssthresh
                .map_or("null".into(), |b| b.as_u64().to_string());
            let srtt_us = s
                .srtt
                .map_or("null".into(), |d| format!("{:.1}", d.as_secs_f64() * 1e6));
            let limiting =
                s.limiting.map_or("null".into(), |v| format!("\"{}\"", json_escape(v.name())));
            out.push_str(&format!(
                "{{\"type\":\"flow\",\"flow\":{},\"t_s\":{:.3},\"cwnd_bytes\":{},\"ssthresh_bytes\":{ssthresh},\"srtt_us\":{srtt_us},\"pacing_gbps\":{:.3},\"ca_state\":\"{}\",\"bytes_retrans\":{},\"retr_packets\":{},\"delivered_bytes\":{},\"interval_bytes\":{},\"limiting\":{limiting}}}\n",
                flow.id,
                secs(t),
                s.cwnd.as_u64(),
                s.pacing_rate.as_gbps(),
                s.ca_state.name(),
                s.bytes_retrans.as_u64(),
                s.retr_packets,
                s.delivered_bytes.as_u64(),
                s.interval_bytes.as_u64(),
            ));
        }
    }
    if let Some(telemetry) = telemetry {
        for (t, s) in telemetry.host.samples.iter() {
            let fmt_cores = |cores: &[f64]| {
                let parts: Vec<String> = cores.iter().map(|c| format!("{c:.2}")).collect();
                format!("[{}]", parts.join(","))
            };
            out.push_str(&format!(
                "{{\"type\":\"host\",\"t_s\":{:.3},\"ring_drops\":{},\"switch_drops\":{},\"random_drops\":{},\"fault_drops\":{},\"pause_frames\":{},\"wire_sent\":{},\"snd_core_busy_pct\":{},\"rcv_core_busy_pct\":{}}}\n",
                secs(t),
                s.ring_drops,
                s.switch_drops,
                s.random_drops,
                s.fault_drops,
                s.pause_frames,
                s.wire_sent,
                fmt_cores(&s.sender_core_busy),
                fmt_cores(&s.receiver_core_busy),
            ));
        }
    }
    if let Some(attr) = attribution {
        for (t, v) in &attr.verdicts {
            out.push_str(&format!(
                "{{\"type\":\"verdict\",\"t_s\":{:.3},\"factor\":\"{}\"}}\n",
                secs(*t),
                v.name(),
            ));
        }
        if let Some(v) = &attr.verdict {
            out.push_str(&format!(
                "{{\"type\":\"bottleneck\",\"factor\":\"{}\",\"share\":{:.3},\"intervals\":{}}}\n",
                v.primary.name(),
                v.primary_share(),
                v.intervals,
            ));
        }
    }
    Some(out)
}

/// One non-idle (host, core, stage) cell of a run's cycle profile.
struct StageRow<'a> {
    host: &'static str,
    core: &'a str,
    stage: &'static str,
    cycles: u64,
}

/// The non-idle (host, core, stage) cells of both hosts' cycle
/// profiles, sender first, in ledger order. `None` when the report
/// carries no attribution. Cycle counts use each host's own cost-model
/// clock, so a 2.8 GHz receiver and a 3.1 GHz sender fold honestly.
fn stage_rows(report: &Iperf3Report) -> Option<Vec<StageRow<'_>>> {
    let attr = report.attribution.as_ref()?;
    let hosts: [(&'static str, &StageProfile); 2] =
        [("sender", &attr.sender_profile), ("receiver", &attr.receiver_profile)];
    let mut rows = Vec::new();
    for (host, profile) in hosts {
        for core in &profile.cores {
            for stage in Stage::ALL {
                let cycles = profile.cycles(core.stage_busy[stage.index()]);
                if cycles > 0 {
                    rows.push(StageRow { host, core: &core.role, stage: stage.name(), cycles });
                }
            }
        }
    }
    Some(rows)
}

/// Folded-stack lines (`host;core;stage <cycles>`), one per non-idle
/// (host, core, stage) triple. `None` when the report carries no
/// attribution.
pub fn folded_stacks(report: &Iperf3Report) -> Option<String> {
    let mut out = String::with_capacity(1024);
    for r in stage_rows(report)? {
        let _ = writeln!(out, "{};{};{} {}", r.host, r.core, r.stage, r.cycles);
    }
    Some(out)
}

/// A `perf report --stdio`-style table over both hosts: one row per
/// non-idle (host, core, stage) triple, sorted by overhead descending.
/// Overhead is the share of all busy cycles in the run (both hosts
/// combined), like `perf report` over a whole-system record. `None`
/// when the report carries no attribution.
pub fn perf_report(report: &Iperf3Report) -> Option<String> {
    let mut rows = stage_rows(report)?;
    rows.sort_by_key(|r| std::cmp::Reverse(r.cycles));
    let total: u64 = rows.iter().map(|r| r.cycles).sum();
    let mut out = String::with_capacity(1024);
    let _ = writeln!(out, "# Overhead        Cycles  Host      Core    Stage");
    let _ = writeln!(out, "# ........  ............  ........  ......  ...........");
    for r in &rows {
        let pct = if total > 0 { r.cycles as f64 / total as f64 * 100.0 } else { 0.0 };
        let _ = writeln!(
            out,
            "   {pct:6.2}%  {:>12}  {:<8}  {:<6}  {}",
            r.cycles, r.host, r.core, r.stage
        );
    }
    if let Some(v) = report.attribution.as_ref().and_then(|a| a.verdict.as_ref()) {
        let _ = writeln!(
            out,
            "#\n# bottleneck: {} ({:.0}% of {} interval(s))",
            v.primary.name(),
            v.primary_share() * 100.0,
            v.intervals
        );
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbeds::{EsnetPath, Testbeds};
    use iperf3sim::Iperf3Opts;
    use linuxhost::KernelVersion;
    use simcore::SimDuration;

    fn sampled_report() -> Iperf3Report {
        let host = Testbeds::esnet_host(KernelVersion::L6_8);
        let path = Testbeds::esnet_path(EsnetPath::Lan);
        let opts = Iperf3Opts::new(2).omit(0).telemetry(SimDuration::from_secs(1));
        iperf3sim::run(&host, &host, &path, &opts).expect("run")
    }

    #[test]
    fn label_sanitisation() {
        assert_eq!(sanitize_label("ESnet WAN -P 8"), "esnet_wan_-p_8");
        assert_eq!(sanitize_label(""), "scenario");
    }

    #[test]
    fn jsonl_lines_are_self_contained_objects() {
        let report = sampled_report();
        let body = render_jsonl("LAN check", 0, 1000, &report).expect("telemetry present");
        let lines: Vec<&str> = body.lines().collect();
        assert!(lines[0].starts_with("{\"type\":\"meta\""));
        assert!(lines[0].contains("\"seed\":1000"));
        assert!(lines.iter().skip(1).any(|l| l.starts_with("{\"type\":\"flow\"")));
        assert!(lines.iter().any(|l| l.starts_with("{\"type\":\"host\"")));
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "not an object: {line}");
            assert_eq!(line.matches('{').count(), line.matches('}').count(), "{line}");
        }
        let telemetry = report.telemetry.as_ref().unwrap();
        let flow_samples: usize = telemetry.flows.iter().map(|f| f.samples.len()).sum();
        assert_eq!(lines.len(), 1 + flow_samples + telemetry.host.samples.len());
    }

    #[test]
    fn unobserved_report_renders_nothing() {
        let host = Testbeds::esnet_host(KernelVersion::L6_8);
        let path = Testbeds::esnet_path(EsnetPath::Lan);
        let report =
            iperf3sim::run(&host, &host, &path, &Iperf3Opts::new(2).omit(0)).expect("run");
        assert!(render_jsonl("x", 0, 1, &report).is_none());
        assert!(folded_stacks(&report).is_none());
        assert!(perf_report(&report).is_none());
    }

    #[test]
    fn attribution_only_report_renders_verdict_lines() {
        // Attribution without telemetry still produces a trace: meta,
        // per-interval verdicts, and the bottleneck roll-up.
        // The label is JSON-escaped (Rust's `{:?}` would emit `\u{1}`).
        let report = attributed_report();
        let body = render_jsonl("attr \"é\" \u{1}", 0, 1, &report).expect("attribution present");
        let lines: Vec<&str> = body.lines().collect();
        assert!(lines[0].starts_with("{\"type\":\"meta\""));
        assert!(lines[0].contains("\"label\":\"attr \\\"é\\\" \\u0001\""), "{}", lines[0]);
        assert!(lines[0].contains("\"tick_s\":null"), "{}", lines[0]);
        assert!(lines.iter().any(|l| l.starts_with("{\"type\":\"verdict\"")));
        assert!(lines.last().unwrap().starts_with("{\"type\":\"bottleneck\""), "{body}");
        assert!(!body.contains("\"type\":\"flow\""));
        for line in &lines {
            assert_eq!(line.matches('{').count(), line.matches('}').count(), "{line}");
        }
    }

    #[test]
    fn sampled_attributed_flow_lines_carry_limiting() {
        let host = Testbeds::esnet_host(KernelVersion::L6_8);
        let path = Testbeds::esnet_path(EsnetPath::Lan);
        let opts =
            Iperf3Opts::new(2).omit(0).telemetry(SimDuration::from_secs(1)).attribution();
        let report = iperf3sim::run(&host, &host, &path, &opts).expect("run");
        let body = render_jsonl("both", 0, 1, &report).expect("sampled");
        assert!(body.lines().any(|l| {
            l.starts_with("{\"type\":\"flow\"")
                && l.contains("\"limiting\":\"")
                && !l.contains("\"limiting\":null")
        }), "{body}");
        assert!(body.contains("\"type\":\"verdict\""));
    }

    fn attributed_report() -> Iperf3Report {
        let host = Testbeds::esnet_host(KernelVersion::L6_8);
        let path = Testbeds::esnet_path(EsnetPath::Lan);
        iperf3sim::run(&host, &host, &path, &Iperf3Opts::new(2).omit(0).attribution())
            .expect("run")
    }

    #[test]
    fn folded_stacks_cover_both_hosts_and_sum_positive() {
        let report = attributed_report();
        let folded = folded_stacks(&report).expect("attribution present");
        assert!(!folded.is_empty());
        let mut total: u64 = 0;
        let mut hosts_seen = std::collections::BTreeSet::new();
        for line in folded.lines() {
            let (stack, count) = line.rsplit_once(' ').expect("`stack count` shape");
            let parts: Vec<&str> = stack.split(';').collect();
            assert_eq!(parts.len(), 3, "host;core;stage: {line}");
            hosts_seen.insert(parts[0].to_string());
            total += count.parse::<u64>().expect("cycle count");
        }
        assert!(hosts_seen.contains("sender") && hosts_seen.contains("receiver"), "{hosts_seen:?}");
        assert!(total > 0);
        // A busy LAN run books the big stages on both sides.
        assert!(folded.contains("tx_app"), "{folded}");
        assert!(folded.contains("rx_softirq"), "{folded}");
    }

    #[test]
    fn perf_report_sorted_by_overhead_and_names_bottleneck() {
        let report = attributed_report();
        let table = perf_report(&report).expect("attribution present");
        assert!(table.contains("# Overhead"));
        assert!(table.contains("# bottleneck: "), "{table}");
        // Overhead percentages are sorted descending and sum to ~100.
        let pcts: Vec<f64> = table
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| l.split_whitespace().next()?.strip_suffix('%')?.parse().ok())
            .collect();
        assert!(pcts.len() >= 4, "{table}");
        assert!(pcts.windows(2).all(|w| w[0] >= w[1]), "{pcts:?}");
        let sum: f64 = pcts.iter().sum();
        assert!((sum - 100.0).abs() < 1.0, "sum {sum}: {table}");
    }
}
