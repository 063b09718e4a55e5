//! A DTN tuning advisor: the paper's §V recommendations as an
//! executable checklist.
//!
//! Give it a [`HostConfig`] and what you intend to run, and it returns
//! the gaps between your configuration and the paper's guidance —
//! with the section of the paper each recommendation comes from.

use crate::hostcfg::HostConfig;
use crate::kernel::KernelVersion;
use crate::sysctl::Qdisc;
use simcore::{BitRate, Bytes, SimDuration};
use std::fmt;

/// How much a finding matters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Will outright break or cripple the intended workload.
    Critical,
    /// Leaves significant performance on the table.
    Warning,
    /// Worth knowing; minor effect.
    Note,
}

/// One piece of advice.
#[derive(Debug, Clone)]
pub struct Recommendation {
    /// How much it matters.
    pub severity: Severity,
    /// What to change and why.
    pub message: String,
    /// Where the paper says so.
    pub reference: &'static str,
}

impl fmt::Display for Recommendation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:?}] {} ({})", self.severity, self.message, self.reference)
    }
}

/// What the host is being tuned for.
#[derive(Debug, Clone, Copy)]
pub struct Intent {
    /// Highest-RTT path the host will serve.
    pub max_rtt: SimDuration,
    /// Target per-host throughput.
    pub target_rate: BitRate,
    /// MSG_ZEROCOPY will be used.
    pub zerocopy: bool,
    /// Parallel streams (DTN) vs single-flow benchmarking.
    pub parallel_streams: bool,
}

impl Intent {
    /// Single-flow benchmarking at 100G over up to ~100 ms (§V-A).
    pub fn benchmarking_100g() -> Self {
        Intent {
            max_rtt: SimDuration::from_millis(110),
            target_rate: BitRate::gbps(100.0),
            zerocopy: true,
            parallel_streams: false,
        }
    }
}

/// Audit `cfg` against the paper's recommendations.
pub fn advise(cfg: &HostConfig, intent: &Intent) -> Vec<Recommendation> {
    let mut out = Vec::new();
    let bdp = intent.target_rate.bdp(intent.max_rtt);

    // Buffer ceilings must cover the BDP (with autotuning headroom),
    // capped at the largest value the sysctl accepts (2 GiB - 1 —
    // which is also as far as TCP window scaling goes).
    let needed = Bytes::new(bdp.as_u64().saturating_mul(2).min(2_147_483_647));
    if cfg.sysctl.tcp_rmem.max < needed {
        out.push(Recommendation {
            severity: Severity::Critical,
            message: format!(
                "tcp_rmem max {} cannot cover 2x the {} BDP of your longest path ({}); \
                 set net.ipv4.tcp_rmem max (and rmem_max) to 2147483647",
                cfg.sysctl.tcp_rmem.max, bdp, needed
            ),
            reference: "SIII-D / fasterdata 100G tuning",
        });
    }
    if cfg.sysctl.tcp_wmem.max < needed {
        out.push(Recommendation {
            severity: Severity::Critical,
            message: format!(
                "tcp_wmem max {} is below 2x BDP {}; raise it to 2147483647",
                cfg.sysctl.tcp_wmem.max, needed
            ),
            reference: "SIII-D",
        });
    }

    // fq is required for pacing, which both use cases need.
    if cfg.sysctl.default_qdisc != Qdisc::Fq {
        out.push(Recommendation {
            severity: Severity::Critical,
            message: "default_qdisc is fq_codel; set net.core.default_qdisc=fq \
                      (pacing needs fq)"
                .into(),
            reference: "SIII-D / SV-A",
        });
    }

    // Zerocopy needs optmem_max sized to the pinned window.
    if intent.zerocopy {
        let per_send = crate::zerocopy::notification_charge(cfg.kernel);
        let sends = bdp.as_u64().saturating_mul(2) / cfg.offload.gso_max_size.as_u64().max(1);
        let optmem_needed = Bytes::new(sends * per_send.as_u64());
        if cfg.sysctl.optmem_max < optmem_needed.min(Bytes::mib(1)) {
            out.push(Recommendation {
                severity: Severity::Critical,
                message: format!(
                    "optmem_max {} will make MSG_ZEROCOPY fall back to copies \
                     (and cost MORE CPU than plain sends); set it to at least 1 MB \
                     (~{} needed for your BDP)",
                    cfg.sysctl.optmem_max, optmem_needed
                ),
                reference: "SIV-B",
            });
        } else if cfg.sysctl.optmem_max < optmem_needed {
            out.push(Recommendation {
                severity: Severity::Warning,
                message: format!(
                    "optmem_max {} covers short paths but not your longest one; \
                     ~{} would avoid copy fallbacks (the paper used 3.25 MB on 6.5)",
                    cfg.sysctl.optmem_max, optmem_needed
                ),
                reference: "SIV-B / Fig. 9",
            });
        }
        if !cfg.offload.zerocopy_compatible() {
            out.push(Recommendation {
                severity: Severity::Critical,
                message: "BIG TCP is enabled: MSG_ZEROCOPY cannot be used with it on a \
                          stock kernel (both consume skb frags); build with \
                          CONFIG_MAX_SKB_FRAGS=45 or disable one"
                    .into(),
                reference: "SII-C",
            });
        }
    }

    // Affinity: the single biggest variance source.
    if cfg.cores.irqbalance {
        out.push(Recommendation {
            severity: Severity::Warning,
            message: "irqbalance is running: single-flow results will vary 20-55 Gbps \
                      with core placement; disable it and pin NIC IRQs and the \
                      application to separate cores on the NIC's NUMA node"
                .into(),
            reference: "SIII-A",
        });
    } else if !cfg.cores.is_separated() {
        out.push(Recommendation {
            severity: Severity::Warning,
            message: "application cores overlap IRQ cores; keep them disjoint".into(),
            reference: "SIII-A / Hock et al.",
        });
    }

    // iommu=pt.
    if !cfg.iommu_pt {
        out.push(Recommendation {
            severity: Severity::Warning,
            message: "iommu=pt is not set; IOMMU translations roughly halve \
                      multi-stream throughput (80 -> 181 Gbps in the paper)"
                .into(),
            reference: "SIII-D",
        });
    }

    // Governor / SMT.
    if !cfg.performance_governor {
        out.push(Recommendation {
            severity: Severity::Note,
            message: "CPU governor is not 'performance'".into(),
            reference: "SIII-D",
        });
    }
    if !cfg.smt_off {
        out.push(Recommendation {
            severity: Severity::Note,
            message: "SMT (hyper-threading) is on; the paper disables it for \
                      consistency"
                .into(),
            reference: "SIII-D",
        });
    }

    // Kernel version.
    if cfg.kernel < KernelVersion::L6_8 {
        out.push(Recommendation {
            severity: Severity::Warning,
            message: format!(
                "kernel {} — 6.8 is up to 30% faster on the LAN and 38% on the WAN \
                 (on Ubuntu 22.04: apt install linux-image-generic-hwe-22.04-edge)",
                cfg.kernel
            ),
            reference: "SIV-E / SV-A",
        });
    }

    // AMD ring sizing.
    if cfg.cpu == crate::cpu::CpuArch::AmdEpyc73F3 && cfg.effective_ring_entries() < 8192 {
        out.push(Recommendation {
            severity: Severity::Note,
            message: "rx ring at driver default; ethtool -G rx 8192 helped the AMD \
                      hosts absorb line-rate trains"
                .into(),
            reference: "SIII-D",
        });
    }

    // DTN-specific: pacing reminder.
    if intent.parallel_streams {
        out.push(Recommendation {
            severity: Severity::Note,
            message: "pace parallel streams (e.g. 5-8 Gbps/flow toward 100G peers, \
                      ~1 Gbps toward 10G clients) or use 802.3x-capable switches — \
                      unpaced flows interfere and retransmit"
                .into(),
            reference: "SV-B / Tables I-III",
        });
    }

    out.sort_by_key(|r| r.severity);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuArch;
    use nethw::NicModel;

    #[test]
    fn untuned_host_fails_hard() {
        let cfg = HostConfig::untuned(
            CpuArch::IntelXeon6346,
            NicModel::ConnectX5,
            KernelVersion::L5_15,
        );
        let recs = advise(&cfg, &Intent::benchmarking_100g());
        assert!(recs.iter().any(|r| r.severity == Severity::Critical));
        // Buffers, qdisc, optmem, irqbalance, iommu, kernel all flagged.
        assert!(recs.len() >= 6, "expected a pile of findings, got {}", recs.len());
        let text: String = recs.iter().map(|r| r.to_string()).collect();
        assert!(text.contains("tcp_rmem"));
        assert!(text.contains("irqbalance"));
        assert!(text.contains("iommu"));
        assert!(text.contains("6.8"));
    }

    #[test]
    fn paper_tuned_host_is_mostly_clean() {
        let cfg = HostConfig::amlight_intel(KernelVersion::L6_8);
        let recs = advise(&cfg, &Intent::benchmarking_100g());
        assert!(
            !recs.iter().any(|r| r.severity == Severity::Critical),
            "tuned host must have no critical findings: {recs:?}"
        );
    }

    #[test]
    fn optmem_warning_scales_with_rtt() {
        let cfg = HostConfig::amlight_intel(KernelVersion::L6_5); // 1 MB optmem
        let short = Intent {
            max_rtt: SimDuration::from_millis(10),
            ..Intent::benchmarking_100g()
        };
        let long = Intent {
            max_rtt: SimDuration::from_millis(104),
            target_rate: BitRate::gbps(50.0),
            zerocopy: true,
            parallel_streams: false,
        };
        let has_optmem = |intent: &Intent| {
            advise(&cfg, intent).iter().any(|r| r.message.contains("optmem"))
        };
        assert!(!has_optmem(&short), "1 MB is plenty at 10 ms");
        assert!(has_optmem(&long), "1 MB is short at 104 ms (Fig. 9)");
    }

    #[test]
    fn bigtcp_zerocopy_conflict_flagged() {
        let mut cfg = HostConfig::amlight_intel(KernelVersion::L6_8);
        cfg.offload = cfg
            .offload
            .with_big_tcp(crate::offload::PAPER_BIG_TCP_SIZE, KernelVersion::L6_8);
        let recs = advise(&cfg, &Intent::benchmarking_100g());
        assert!(recs.iter().any(|r| r.message.contains("MAX_SKB_FRAGS")));
    }

    #[test]
    fn dtn_intent_adds_pacing_note() {
        let cfg = HostConfig::esnet_prod_dtn();
        let intent =
            Intent { zerocopy: false, parallel_streams: true, ..Intent::benchmarking_100g() };
        let recs = advise(&cfg, &intent);
        assert!(recs.iter().any(|r| r.message.contains("pace")));
    }

    #[test]
    fn findings_sorted_by_severity() {
        let cfg = HostConfig::untuned(
            CpuArch::AmdEpyc73F3,
            NicModel::ConnectX7,
            KernelVersion::L5_15,
        );
        let recs = advise(&cfg, &Intent::benchmarking_100g());
        for pair in recs.windows(2) {
            assert!(pair[0].severity <= pair[1].severity);
        }
    }
}
