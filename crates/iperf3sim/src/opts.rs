//! The iperf3 command line, as a typed options struct.

use crate::version::Iperf3Version;
use simcore::{BitRate, SimDuration};
use tcpstack::CcAlgorithm;

/// Options for one iperf3 client run.
#[derive(Debug, Clone)]
pub struct Iperf3Opts {
    /// iperf3 build in use.
    pub version: Iperf3Version,
    /// `-P`: number of parallel streams.
    pub parallel: usize,
    /// `-t`: test duration in seconds.
    pub time_secs: u64,
    /// `-O`: seconds to omit from the start (warm-up).
    pub omit_secs: u64,
    /// `--fq-rate`: per-stream pacing cap.
    pub fq_rate: Option<BitRate>,
    /// `--zerocopy=z`: send with MSG_ZEROCOPY (patch #1690).
    pub zerocopy: bool,
    /// `-Z`: send with `sendfile()` — the classic zerocopy available
    /// in every modern iperf3 (§II-B).
    pub sendfile: bool,
    /// `--skip-rx-copy`: receive with MSG_TRUNC (patch #1690).
    pub skip_rx_copy: bool,
    /// `-C`: congestion control algorithm.
    pub congestion: CcAlgorithm,
    /// Seed for the simulated run (not an iperf3 flag; the simulator's
    /// substitute for "run it again").
    pub seed: u64,
    /// Telemetry sampling tick (not an iperf3 flag; the simulator's
    /// substitute for running `ss`/`ethtool`/`mpstat` alongside the
    /// test, §III-G). `None` disables sampling.
    pub telemetry: Option<SimDuration>,
    /// Bottleneck attribution (not an iperf3 flag; the simulator's
    /// substitute for running `perf` alongside the test and reading the
    /// profiles). Adds per-interval limiting-factor verdicts and
    /// per-stage cycle profiles to the report without changing the
    /// traffic.
    pub attribution: bool,
}

impl Default for Iperf3Opts {
    fn default() -> Self {
        Iperf3Opts {
            version: Iperf3Version::paper_patched(),
            parallel: 1,
            time_secs: 60,
            omit_secs: 2,
            fq_rate: None,
            zerocopy: false,
            sendfile: false,
            skip_rx_copy: false,
            congestion: CcAlgorithm::Cubic,
            seed: 1,
            telemetry: None,
            attribution: false,
        }
    }
}

impl Iperf3Opts {
    /// Default options with the given duration.
    pub fn new(time_secs: u64) -> Self {
        Iperf3Opts { time_secs, ..Default::default() }
    }

    /// Builder: `-P n`.
    pub fn parallel(mut self, n: usize) -> Self {
        self.parallel = n;
        self
    }

    /// Builder: `-O secs`.
    pub fn omit(mut self, secs: u64) -> Self {
        self.omit_secs = secs;
        self
    }

    /// Builder: `--fq-rate`.
    pub fn fq_rate(mut self, rate: BitRate) -> Self {
        self.fq_rate = Some(rate);
        self
    }

    /// Builder: `--zerocopy=z`.
    pub fn zerocopy(mut self) -> Self {
        self.zerocopy = true;
        self
    }

    /// Builder: `-Z` (sendfile).
    pub fn sendfile(mut self) -> Self {
        self.sendfile = true;
        self
    }

    /// Builder: `--skip-rx-copy`.
    pub fn skip_rx_copy(mut self) -> Self {
        self.skip_rx_copy = true;
        self
    }

    /// Builder: `-C algo`.
    pub fn congestion(mut self, cc: CcAlgorithm) -> Self {
        self.congestion = cc;
        self
    }

    /// Builder: run seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: sample `ss`/`ethtool`/`mpstat`-style telemetry on the
    /// given tick.
    pub fn telemetry(mut self, tick: SimDuration) -> Self {
        self.telemetry = Some(tick);
        self
    }

    /// Builder: enable bottleneck attribution (per-stage cycle profiles
    /// and per-interval limiting-factor verdicts).
    pub fn attribution(mut self) -> Self {
        self.attribution = true;
        self
    }

    /// The command line this corresponds to (for reports/logs).
    pub fn command_line(&self, server: &str) -> String {
        let mut cmd = format!("iperf3 -c {server} -t {}", self.time_secs);
        if self.omit_secs > 0 {
            cmd.push_str(&format!(" -O {}", self.omit_secs));
        }
        if self.parallel > 1 {
            cmd.push_str(&format!(" -P {}", self.parallel));
        }
        if let Some(rate) = self.fq_rate {
            cmd.push_str(&format!(" --fq-rate {:.0}G", rate.as_gbps()));
        }
        if self.zerocopy {
            cmd.push_str(" --zerocopy=z");
        }
        if self.sendfile {
            cmd.push_str(" -Z");
        }
        if self.skip_rx_copy {
            cmd.push_str(" --skip-rx-copy");
        }
        if self.congestion != CcAlgorithm::Cubic {
            cmd.push_str(&format!(" -C {}", self.congestion.name()));
        }
        cmd.push_str(" -J");
        cmd
    }

    /// Validate flags against the installed version. Returns
    /// human-readable errors, like iperf3 itself would.
    pub fn validate(&self) -> Vec<String> {
        let mut errors = Vec::new();
        if self.parallel == 0 {
            errors.push("-P must be at least 1".into());
        }
        if self.time_secs == 0 {
            errors.push("-t must be positive".into());
        }
        if self.omit_secs >= self.time_secs {
            errors.push("-O must be shorter than -t".into());
        }
        if self.zerocopy && self.sendfile {
            errors.push("-Z and --zerocopy=z are mutually exclusive".into());
        }
        if (self.zerocopy || self.skip_rx_copy) && !self.version.has_msg_zerocopy_flags() {
            errors.push(format!(
                "{}: --zerocopy=z/--skip-rx-copy need patch #1690",
                self.version
            ));
        }
        if let Some(rate) = self.fq_rate {
            // §V-A: "pacing single flows above 32 Gbps ... requires a
            // recent patch to iperf3" — the u32 bits/sec overflow.
            if rate.as_bps() > u32::MAX as f64 && !self.version.fq_rate_above_32g() {
                errors.push(format!(
                    "{}: --fq-rate above 32G wraps a u32 (needs patch #1728)",
                    self.version
                ));
            }
        }
        errors
    }

    /// Duration as a `SimDuration`.
    pub fn duration(&self) -> SimDuration {
        SimDuration::from_secs(self.time_secs)
    }
}

impl simcore::Canonicalize for Iperf3Opts {
    /// `seed` is excluded (it is *derived from* the fingerprint, per
    /// repetition), as are `telemetry`/`attribution` — observers that
    /// sample the run without changing the traffic.
    fn canonicalize(&self, c: &mut simcore::Canon) {
        c.scope("version", |c| self.version.canonicalize(c));
        c.put_u64("parallel", self.parallel as u64);
        c.put_u64("time_secs", self.time_secs);
        c.put_u64("omit_secs", self.omit_secs);
        match self.fq_rate {
            None => c.put_str("fq_rate_bps", "none"),
            Some(rate) => c.put_f64("fq_rate_bps", rate.as_bps()),
        }
        c.put_bool("zerocopy", self.zerocopy);
        c.put_bool("sendfile", self.sendfile);
        c.put_bool("skip_rx_copy", self.skip_rx_copy);
        c.put_str("congestion", self.congestion.name());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_build() {
        let o = Iperf3Opts::default();
        assert!(o.validate().is_empty());
        assert_eq!(o.parallel, 1);
        assert!(o.version.has_msg_zerocopy_flags());
    }

    #[test]
    fn command_line_rendering() {
        let o = Iperf3Opts::new(60)
            .parallel(8)
            .fq_rate(BitRate::gbps(25.0))
            .zerocopy()
            .skip_rx_copy();
        let cmd = o.command_line("dtn1");
        assert!(cmd.contains("-P 8"));
        assert!(cmd.contains("--fq-rate 25G"));
        assert!(cmd.contains("--zerocopy=z"));
        assert!(cmd.contains("--skip-rx-copy"));
        assert!(cmd.contains("-O 2"));
    }

    #[test]
    fn zerocopy_needs_patch_1690() {
        let mut o = Iperf3Opts::new(10).zerocopy();
        o.version = Iperf3Version { minor: 17, patch_1690: false, patch_1728: false };
        let errs = o.validate();
        assert!(errs.iter().any(|e| e.contains("1690")), "{errs:?}");
    }

    #[test]
    fn fq_rate_above_32g_needs_patch_1728() {
        let mut o = Iperf3Opts::new(10).fq_rate(BitRate::gbps(50.0));
        o.version = Iperf3Version { minor: 16, patch_1690: false, patch_1728: false };
        let errs = o.validate();
        assert!(errs.iter().any(|e| e.contains("1728")), "{errs:?}");
        // 25G fits in u32 bits/sec? No — 25e9 > u32::MAX too.
        let mut o2 = Iperf3Opts::new(10).fq_rate(BitRate::gbps(4.0));
        o2.version = Iperf3Version { minor: 16, patch_1690: false, patch_1728: false };
        assert!(o2.validate().is_empty());
    }

    #[test]
    fn sendfile_conflicts_with_msg_zerocopy() {
        let o = Iperf3Opts::new(10).sendfile().zerocopy();
        assert!(o.validate().iter().any(|e| e.contains("mutually exclusive")));
        // -Z alone works on every version, even unpatched old builds.
        let mut plain = Iperf3Opts::new(10).sendfile();
        plain.version = Iperf3Version { minor: 13, patch_1690: false, patch_1728: false };
        assert!(plain.validate().is_empty());
        assert!(plain.command_line("h").contains(" -Z"));
    }

    #[test]
    fn degenerate_flags_rejected() {
        assert!(!Iperf3Opts::new(0).validate().is_empty());
        assert!(!Iperf3Opts::new(10).parallel(0).validate().is_empty());
        let bad_omit = Iperf3Opts { omit_secs: 10, time_secs: 10, ..Default::default() };
        assert!(!bad_omit.validate().is_empty());
    }
}
