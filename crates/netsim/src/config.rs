//! Simulation configuration: hosts, path, workload.

use crate::faults::FaultPlan;
use linuxhost::HostConfig;
use nethw::PathSpec;
use simcore::{BitRate, SimDuration};
use tcpstack::CcAlgorithm;

/// What traffic to generate — the iperf3 command line, in effect.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Number of parallel TCP streams (`-P`).
    pub num_flows: usize,
    /// Test duration (`-t`), including the omitted warm-up.
    pub duration: SimDuration,
    /// Warm-up to exclude from results (`-O`); lets WAN flows finish
    /// slow start before measurement begins.
    pub omit: SimDuration,
    /// Send with MSG_ZEROCOPY (`--zerocopy=z`).
    pub zerocopy: bool,
    /// Send with `sendfile()` (`iperf3 -Z`, the classic zerocopy).
    pub sendfile: bool,
    /// Receiver discards with MSG_TRUNC (`--skip-rx-copy`).
    pub skip_rx_copy: bool,
    /// Both applications checksum every byte in user space
    /// (Globus-style data movers, §V-B).
    pub user_checksum: bool,
    /// Per-flow pacing cap (`--fq-rate`).
    pub fq_rate: Option<BitRate>,
    /// Congestion control algorithm.
    pub cc: CcAlgorithm,
    /// Per-flow congestion-control mix: flow `i` runs `cc_mix[i % len]`
    /// (round-robin, so the variants stay evenly represented at any
    /// flow count). Empty — the default — means every flow runs
    /// [`WorkloadSpec::cc`]. Mixed-CC fleets are how shared DTN links
    /// actually look, and the `cc_mix_256` bench scenario uses this to
    /// time all four controllers in one run.
    pub cc_mix: Vec<CcAlgorithm>,
    /// RNG seed; a (config, seed) pair reproduces a run bit-for-bit.
    pub seed: u64,
    /// Scheduled fault injections (empty = fault-free run).
    pub faults: FaultPlan,
    /// Watchdog event budget override; `None` scales with duration.
    pub event_budget: Option<u64>,
    /// Telemetry sampling tick (`ss`/`ethtool`/`mpstat` cadence,
    /// §III-G). `None` (the default) disables sampling entirely: no
    /// tick event is scheduled and nothing allocates.
    pub telemetry: Option<SimDuration>,
    /// Bottleneck attribution: a per-interval limiting-factor verdict
    /// plus whole-run stage profiles read off both hosts' cycle ledgers
    /// (the simulator's `perf` + diagnosis pass). Off by default;
    /// enabling it never changes traffic — an attributed run is
    /// bit-identical to an unattributed one with the same seed.
    pub attribution: bool,
}

impl WorkloadSpec {
    /// Single default-settings stream for `secs` seconds.
    pub fn single_stream(secs: u64) -> Self {
        WorkloadSpec {
            num_flows: 1,
            duration: SimDuration::from_secs(secs),
            omit: SimDuration::from_secs(if secs > 6 { 2 } else { 0 }),
            zerocopy: false,
            sendfile: false,
            skip_rx_copy: false,
            user_checksum: false,
            fq_rate: None,
            cc: CcAlgorithm::Cubic,
            cc_mix: Vec::new(),
            seed: 1,
            faults: FaultPlan::none(),
            event_budget: None,
            telemetry: None,
            attribution: false,
        }
    }

    /// `-P n` parallel streams for `secs` seconds.
    pub fn parallel(n: usize, secs: u64) -> Self {
        WorkloadSpec { num_flows: n, ..Self::single_stream(secs) }
    }

    /// Builder: enable zerocopy.
    pub fn with_zerocopy(mut self) -> Self {
        self.zerocopy = true;
        self
    }

    /// Builder: enable user-level checksumming.
    pub fn with_user_checksum(mut self) -> Self {
        self.user_checksum = true;
        self
    }

    /// Builder: set a per-flow pacing rate.
    pub fn with_fq_rate(mut self, rate: BitRate) -> Self {
        self.fq_rate = Some(rate);
        self
    }

    /// Builder: run a round-robin mix of controllers across the flows
    /// (flow `i` gets `mix[i % mix.len()]`).
    pub fn with_cc_mix(mut self, mix: Vec<CcAlgorithm>) -> Self {
        self.cc_mix = mix;
        self
    }

    /// The controller flow `flow` runs: the round-robin mix entry when
    /// a mix is set, otherwise the single configured algorithm.
    pub fn flow_cc(&self, flow: usize) -> CcAlgorithm {
        if self.cc_mix.is_empty() {
            self.cc
        } else {
            self.cc_mix[flow % self.cc_mix.len()]
        }
    }

    /// Builder: set the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: attach a fault-injection schedule.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Builder: cap the total number of events the run may process
    /// (the watchdog turns overruns into [`crate::SimError::Stalled`]).
    pub fn with_event_budget(mut self, budget: u64) -> Self {
        self.event_budget = Some(budget);
        self
    }

    /// Builder: sample `ss`/`ethtool`/`mpstat`-style telemetry every
    /// `tick` of simulated time.
    pub fn with_telemetry(mut self, tick: SimDuration) -> Self {
        self.telemetry = Some(tick);
        self
    }

    /// Builder: enable bottleneck attribution (stage profiles +
    /// per-interval limiting-factor verdicts).
    pub fn with_attribution(mut self) -> Self {
        self.attribution = true;
        self
    }
}

/// A complete simulation configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Sending host.
    pub sender: HostConfig,
    /// Receiving host.
    pub receiver: HostConfig,
    /// The network between them.
    pub path: PathSpec,
    /// Traffic to generate.
    pub workload: WorkloadSpec,
}

impl SimConfig {
    /// Validate the combination, returning problems (empty = ok).
    pub fn validate(&self) -> Vec<String> {
        let mut problems = self.sender.validate();
        problems.extend(self.receiver.validate());
        if self.workload.num_flows == 0 {
            problems.push("need at least one flow".into());
        }
        if self.workload.duration.is_zero() {
            problems.push("zero duration".into());
        }
        if self.workload.omit >= self.workload.duration {
            problems.push("omit window swallows the whole test".into());
        }
        if self.workload.zerocopy && self.workload.sendfile {
            problems.push("--zerocopy=z and -Z (sendfile) are mutually exclusive".into());
        }
        if self.workload.zerocopy && !self.sender.offload.zerocopy_compatible() {
            problems.push(
                "MSG_ZEROCOPY with BIG TCP requires a MAX_SKB_FRAGS=45 kernel build".into(),
            );
        }
        if self.workload.fq_rate.is_some() && !self.sender.sysctl.supports_fq_pacing() {
            problems.push("--fq-rate requires net.core.default_qdisc=fq".into());
        }
        if self.workload.telemetry.is_some_and(|t| t.is_zero()) {
            problems.push("telemetry tick must be positive".into());
        }
        problems.extend(self.workload.faults.validate(self.workload.duration));
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linuxhost::KernelVersion;
    use nethw::PathSpec;
    use simcore::Bytes;

    fn base() -> SimConfig {
        SimConfig {
            sender: HostConfig::esnet_amd(KernelVersion::L6_8),
            receiver: HostConfig::esnet_amd(KernelVersion::L6_8),
            path: PathSpec::lan("lan", BitRate::gbps(200.0)),
            workload: WorkloadSpec::single_stream(10),
        }
    }

    #[test]
    fn valid_baseline() {
        assert!(base().validate().is_empty());
    }

    #[test]
    fn zerocopy_bigtcp_conflict_detected() {
        let mut cfg = base();
        cfg.sender.offload = cfg
            .sender
            .offload
            .with_big_tcp(Bytes::new(150_000), KernelVersion::L6_8);
        cfg.workload = cfg.workload.with_zerocopy();
        let problems = cfg.validate();
        assert!(problems.iter().any(|p| p.contains("MAX_SKB_FRAGS")), "{problems:?}");
    }

    #[test]
    fn custom_kernel_resolves_conflict() {
        let mut cfg = base();
        cfg.sender.offload = cfg
            .sender
            .offload
            .with_big_tcp(Bytes::new(150_000), KernelVersion::L6_8)
            .with_max_skb_frags(45, KernelVersion::L6_8);
        cfg.workload = cfg.workload.with_zerocopy();
        assert!(cfg.validate().is_empty());
    }

    #[test]
    fn fq_rate_needs_fq_qdisc() {
        let mut cfg = base();
        cfg.sender.sysctl = linuxhost::SysctlConfig::stock();
        cfg.workload = cfg.workload.with_fq_rate(BitRate::gbps(10.0));
        assert!(!cfg.validate().is_empty());
    }

    #[test]
    fn workload_builders() {
        let w = WorkloadSpec::parallel(8, 20)
            .with_zerocopy()
            .with_fq_rate(BitRate::gbps(15.0))
            .with_seed(99)
            .with_attribution();
        assert_eq!(w.num_flows, 8);
        assert!(w.zerocopy);
        assert_eq!(w.fq_rate, Some(BitRate::gbps(15.0)));
        assert!(w.attribution);
        assert_eq!(w.seed, 99);
    }

    #[test]
    fn cc_mix_round_robins_and_defaults_to_single_cc() {
        let plain = WorkloadSpec { cc: CcAlgorithm::BbrV3, ..WorkloadSpec::parallel(4, 10) };
        for f in 0..8 {
            assert_eq!(plain.flow_cc(f), CcAlgorithm::BbrV3);
        }
        let mixed = WorkloadSpec::parallel(256, 10).with_cc_mix(CcAlgorithm::ALL.to_vec());
        let mut counts = [0usize; 4];
        for f in 0..256 {
            let alg = mixed.flow_cc(f);
            counts[CcAlgorithm::ALL.iter().position(|a| *a == alg).unwrap()] += 1;
        }
        assert_eq!(counts, [64, 64, 64, 64], "mix is not even: {counts:?}");
    }

    #[test]
    fn fault_schedule_validated_against_duration() {
        let mut cfg = base();
        cfg.workload = cfg.workload.with_faults(
            FaultPlan::none()
                .with_link_flap(SimDuration::from_secs(60), SimDuration::from_millis(100)),
        );
        let problems = cfg.validate();
        assert!(problems.iter().any(|p| p.contains("link-flap")), "{problems:?}");

        let mut ok = base();
        ok.workload = ok.workload.with_faults(
            FaultPlan::none()
                .with_link_flap(SimDuration::from_secs(3), SimDuration::from_millis(100)),
        );
        assert!(ok.validate().is_empty());
    }

    #[test]
    fn degenerate_workloads_rejected() {
        let mut cfg = base();
        cfg.workload.num_flows = 0;
        assert!(!cfg.validate().is_empty());
        let mut cfg2 = base();
        cfg2.workload.omit = cfg2.workload.duration;
        assert!(!cfg2.validate().is_empty());
    }

    #[test]
    fn zero_telemetry_tick_rejected() {
        let mut cfg = base();
        cfg.workload = cfg.workload.with_telemetry(SimDuration::ZERO);
        assert!(cfg.validate().iter().any(|p| p.contains("telemetry")));
        let mut ok = base();
        ok.workload = ok.workload.with_telemetry(SimDuration::from_secs(1));
        assert!(ok.validate().is_empty());
    }
}
