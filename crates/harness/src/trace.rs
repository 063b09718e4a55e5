//! JSON-lines telemetry traces (the `--trace <dir>` output).
//!
//! One file per surviving repetition, named
//! `<label>_rep<i>.jsonl`. Each file starts with a `meta` line, then
//! one `flow` line per flow sample (the `ss -tin` stream) and one
//! `host` line per host sample (the `ethtool -S` + `mpstat` stream).
//! When the run carried bottleneck attribution, one `verdict` line per
//! classified interval and a closing `bottleneck` roll-up follow, and
//! two profile files ride along per repetition:
//! `<label>_rep<i>.folded` (flame-graph input) and
//! `<label>_rep<i>.perf.txt` (a `perf report`-style table) — see
//! [`crate::profile`]. Every JSONL line is a self-contained JSON
//! object so the files pipe straight into `jq`/pandas without a
//! streaming parser.

use iperf3sim::Iperf3Report;
use simcore::SimTime;
use std::path::{Path, PathBuf};

/// The filesystem surface trace/profile writing goes through.
///
/// Production uses [`RealIo`]; chaos mode substitutes
/// [`crate::chaos::ChaosIo`] to inject write failures, proving the
/// harness degrades a lost trace to a warning instead of losing the
/// repetition that produced it.
pub trait TraceIo: Send + Sync {
    /// `std::fs::create_dir_all`.
    fn create_dir_all(&self, dir: &Path) -> std::io::Result<()>;
    /// Write `data` to `path`, whole-file.
    fn write(&self, path: &Path, data: &[u8]) -> std::io::Result<()>;
}

/// The real filesystem.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealIo;

impl TraceIo for RealIo {
    fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)
    }

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
        "{{\"type\":\"meta\",\"label\":{label:?},\"rep\":{rep},\"seed\":{seed},\"tick_s\":{tick_s},\"command\":{:?}}}\n",
        report.command,
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
                s.limiting.map_or("null".into(), |v| format!("{:?}", v.name()));
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

/// Write one repetition's trace into `dir` through `io` (the chaos
/// shim or [`RealIo`]), creating the directory as needed. Returns the
/// path written, or `None` when the report carries no telemetry.
pub fn write_rep_trace_with(
    io: &dyn TraceIo,
    dir: &Path,
    label: &str,
    rep: usize,
    seed: u64,
    report: &Iperf3Report,
) -> std::io::Result<Option<PathBuf>> {
    let Some(body) = render_jsonl(label, rep, seed, report) else {
        return Ok(None);
    };
    io.create_dir_all(dir)?;
    let path = dir.join(format!("{}_rep{rep}.jsonl", sanitize_label(label)));
    io.write(&path, body.as_bytes())?;
    Ok(Some(path))
}

/// Write one repetition's simulated-`perf` profiles into `dir` through
/// `io`: `<label>_rep<i>.folded` (flame-graph input) and
/// `<label>_rep<i>.perf.txt` (the `perf report` table). Returns the
/// paths written, or `None` when the report carries no attribution.
pub fn write_rep_profiles_with(
    io: &dyn TraceIo,
    dir: &Path,
    label: &str,
    rep: usize,
    report: &Iperf3Report,
) -> std::io::Result<Option<(PathBuf, PathBuf)>> {
    let (Some(folded), Some(table)) =
        (crate::profile::folded_stacks(report), crate::profile::perf_report(report))
    else {
        return Ok(None);
    };
    io.create_dir_all(dir)?;
    let stem = sanitize_label(label);
    let folded_path = dir.join(format!("{stem}_rep{rep}.folded"));
    io.write(&folded_path, folded.as_bytes())?;
    let perf_path = dir.join(format!("{stem}_rep{rep}.perf.txt"));
    io.write(&perf_path, table.as_bytes())?;
    Ok(Some((folded_path, perf_path)))
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
    fn unsampled_report_renders_nothing() {
        let host = Testbeds::esnet_host(KernelVersion::L6_8);
        let path = Testbeds::esnet_path(EsnetPath::Lan);
        let report =
            iperf3sim::run(&host, &host, &path, &Iperf3Opts::new(2).omit(0)).expect("run");
        assert!(render_jsonl("x", 0, 1, &report).is_none());
        let dir = std::env::temp_dir().join(format!("trace_none_{}", std::process::id()));
        assert!(write_rep_trace_with(&RealIo, &dir, "x", 0, 1, &report).expect("io").is_none());
        assert!(write_rep_profiles_with(&RealIo, &dir, "x", 0, &report).expect("io").is_none());
        assert!(!dir.exists(), "no telemetry must create no directory");
    }

    #[test]
    fn attribution_only_report_renders_verdict_lines() {
        // Attribution without telemetry still produces a trace: meta,
        // per-interval verdicts, and the bottleneck roll-up.
        let host = Testbeds::esnet_host(KernelVersion::L6_8);
        let path = Testbeds::esnet_path(EsnetPath::Lan);
        let report = iperf3sim::run(&host, &host, &path, &Iperf3Opts::new(2).omit(0).attribution())
            .expect("run");
        let body = render_jsonl("attr", 0, 1, &report).expect("attribution present");
        let lines: Vec<&str> = body.lines().collect();
        assert!(lines[0].starts_with("{\"type\":\"meta\""));
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

    #[test]
    fn profile_files_written_per_repetition() {
        let host = Testbeds::esnet_host(KernelVersion::L6_8);
        let path = Testbeds::esnet_path(EsnetPath::Lan);
        let report = iperf3sim::run(&host, &host, &path, &Iperf3Opts::new(2).omit(0).attribution())
            .expect("run");
        let dir = std::env::temp_dir().join(format!("profile_test_{}", std::process::id()));
        let (folded, perf) = write_rep_profiles_with(&RealIo, &dir, "ESnet LAN", 1, &report)
            .expect("io")
            .expect("attribution present");
        assert_eq!(folded.file_name().unwrap().to_str().unwrap(), "esnet_lan_rep1.folded");
        assert_eq!(perf.file_name().unwrap().to_str().unwrap(), "esnet_lan_rep1.perf.txt");
        let folded_body = std::fs::read_to_string(&folded).expect("read folded");
        assert!(folded_body.lines().all(|l| l.contains(';') && l.rsplit(' ').next().is_some()));
        assert!(!folded_body.trim().is_empty());
        let perf_body = std::fs::read_to_string(&perf).expect("read perf");
        assert!(perf_body.contains("# Overhead"));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn trace_file_written_per_repetition() {
        let report = sampled_report();
        let dir = std::env::temp_dir().join(format!("trace_test_{}", std::process::id()));
        let path = write_rep_trace_with(&RealIo, &dir, "ESnet LAN", 3, 1003, &report)
            .expect("io")
            .expect("telemetry present");
        assert_eq!(path.file_name().unwrap().to_str().unwrap(), "esnet_lan_rep3.jsonl");
        let body = std::fs::read_to_string(&path).expect("read back");
        assert!(body.starts_with("{\"type\":\"meta\""));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
