//! The paper reference table: the thirteen calibration anchors that
//! carry an absolute throughput number in the paper, with the scenario
//! that reproduces each one.
//!
//! Hosts, paths and iperf3 flags match the repository's calibration
//! suite (`tests/calibration.rs`): LAN runs are `-t 4 -O 1`, WAN runs
//! `-t 12 -O 4`, and the §III-D pair adds `-P 8`.

use dtnperf::harness::Scenario;
use dtnperf::prelude::*;

/// One paper number and how to reproduce it.
pub struct Anchor {
    /// Short stable name.
    pub name: &'static str,
    /// Where the paper reports it.
    pub source: &'static str,
    /// The paper's throughput, Gbit/s.
    pub paper_gbps: f64,
    build: fn() -> (HostConfig, PathSpec, Iperf3Opts),
}

impl Anchor {
    /// The anchor as a harness scenario, with bottleneck attribution on
    /// as `repro --trace` runs it.
    pub fn scenario(&self) -> Scenario {
        let (host, path, opts) = (self.build)();
        Scenario::new(self.name, host.clone(), host, path, opts.attribution())
    }
}

fn lan() -> Iperf3Opts {
    Iperf3Opts::new(4).omit(1)
}

fn wan() -> Iperf3Opts {
    Iperf3Opts::new(12).omit(4)
}

fn zc_pace(gbps: f64) -> Iperf3Opts {
    wan().zerocopy().fq_rate(BitRate::gbps(gbps))
}

fn intel68() -> HostConfig {
    Testbeds::amlight_host(KernelVersion::L6_8)
}

fn intel65_optmem(optmem: Bytes) -> HostConfig {
    Testbeds::amlight_host(KernelVersion::L6_5).with_optmem(optmem)
}

fn iommu(pt: bool) -> (HostConfig, PathSpec, Iperf3Opts) {
    let mut host = Testbeds::esnet_host(KernelVersion::L5_15);
    host.iommu_pt = pt;
    (
        host,
        Testbeds::esnet_path(EsnetPath::Lan),
        lan().parallel(8),
    )
}

/// The anchors, in the order the workload runs them.
pub const ANCHORS: [Anchor; 13] = [
    Anchor {
        name: "fig5_intel_lan_default",
        source: "Fig. 5, AmLight Intel 6.8, LAN default",
        paper_gbps: 55.0,
        build: || (intel68(), Testbeds::amlight_path(AmLightPath::Lan), lan()),
    },
    Anchor {
        name: "fig5_intel_104ms_default",
        source: "Fig. 5, AmLight Intel 6.8, 104 ms default",
        paper_gbps: 37.0,
        build: || {
            (
                intel68(),
                Testbeds::amlight_path(AmLightPath::Wan104ms),
                wan(),
            )
        },
    },
    Anchor {
        name: "fig5_zc_pace50_25ms",
        source: "Fig. 5, AmLight Intel 6.8, 25 ms zerocopy + 50G pacing",
        paper_gbps: 50.0,
        build: || {
            (
                intel68(),
                Testbeds::amlight_path(AmLightPath::Wan25ms),
                zc_pace(50.0),
            )
        },
    },
    Anchor {
        name: "fig5_zc_pace50_54ms",
        source: "Fig. 5, AmLight Intel 6.8, 54 ms zerocopy + 50G pacing",
        paper_gbps: 50.0,
        build: || {
            (
                intel68(),
                Testbeds::amlight_path(AmLightPath::Wan54ms),
                zc_pace(50.0),
            )
        },
    },
    Anchor {
        name: "fig5_zc_pace50_104ms",
        source: "Fig. 5, AmLight Intel 6.8, 104 ms zerocopy + 50G pacing",
        paper_gbps: 50.0,
        build: || {
            (
                intel68(),
                Testbeds::amlight_path(AmLightPath::Wan104ms),
                zc_pace(50.0),
            )
        },
    },
    Anchor {
        name: "fig6_amd_lan_default",
        source: "Fig. 6, ESnet AMD 6.8, LAN default",
        paper_gbps: 42.0,
        build: || {
            let host = Testbeds::esnet_host(KernelVersion::L6_8);
            (host, Testbeds::esnet_path(EsnetPath::Lan), lan())
        },
    },
    Anchor {
        name: "fig6_amd_wan_zc_pace40",
        source: "Fig. 6, ESnet AMD 6.8, WAN zerocopy + 40G pacing",
        paper_gbps: 40.0,
        build: || {
            let host = Testbeds::esnet_host(KernelVersion::L6_8);
            (host, Testbeds::esnet_path(EsnetPath::Wan), zc_pace(40.0))
        },
    },
    Anchor {
        name: "fig9_optmem_1mib_25ms",
        source: "Fig. 9, AmLight Intel 6.5, optmem_max 1 MiB, 25 ms zerocopy + 50G pacing",
        paper_gbps: 50.0,
        build: || {
            let host = intel65_optmem(Bytes::mib(1));
            (
                host,
                Testbeds::amlight_path(AmLightPath::Wan25ms),
                zc_pace(50.0),
            )
        },
    },
    Anchor {
        name: "fig9_optmem_1mib_104ms",
        source: "Fig. 9, AmLight Intel 6.5, optmem_max 1 MiB, 104 ms zerocopy + 50G pacing",
        paper_gbps: 40.0,
        build: || {
            let host = intel65_optmem(Bytes::mib(1));
            (
                host,
                Testbeds::amlight_path(AmLightPath::Wan104ms),
                zc_pace(50.0),
            )
        },
    },
    Anchor {
        name: "fig9_optmem_3_25mib_104ms",
        source: "Fig. 9, AmLight Intel 6.5, optmem_max 3.25 MiB, 104 ms zerocopy + 50G pacing",
        paper_gbps: 50.0,
        build: || {
            let host = intel65_optmem(SysctlConfig::optmem_3_25_mb());
            (
                host,
                Testbeds::amlight_path(AmLightPath::Wan104ms),
                zc_pace(50.0),
            )
        },
    },
    Anchor {
        name: "sec5c_sw_gro_1500",
        source: "Sec. V-C, ConnectX-7 at 1500 B MTU, software GRO",
        paper_gbps: 24.0,
        build: || {
            let mut host = intel68();
            host.nic = NicModel::ConnectX7;
            host.offload = OffloadConfig::standard(Bytes::new(1500));
            (host, PathSpec::lan("lan", BitRate::gbps(100.0)), lan())
        },
    },
    Anchor {
        name: "sec3d_iommu_pt_on",
        source: "Sec. III-D, ESnet AMD 5.15, iommu=pt, -P 8",
        paper_gbps: 181.0,
        build: || iommu(true),
    },
    Anchor {
        name: "sec3d_iommu_pt_off",
        source: "Sec. III-D, ESnet AMD 5.15, iommu off, -P 8",
        paper_gbps: 80.0,
        build: || iommu(false),
    },
];

/// Absolute error of `sim_gbps` against `paper_gbps`, in percent of the
/// paper's number.
pub fn err_pct(sim_gbps: f64, paper_gbps: f64) -> f64 {
    (sim_gbps - paper_gbps).abs() / paper_gbps * 100.0
}

/// `paper_err_pct`: the mean of [`err_pct`] over the anchors a run
/// reproduced, given as `(sim, paper)` pairs. `None` without anchors,
/// so a workload that runs none reports no fidelity figure.
pub fn mean_err_pct(pairs: &[(f64, f64)]) -> Option<f64> {
    if pairs.is_empty() {
        return None;
    }
    Some(pairs.iter().map(|&(s, p)| err_pct(s, p)).sum::<f64>() / pairs.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_relative_to_the_paper() {
        assert_eq!(err_pct(55.0, 55.0), 0.0);
        assert!((err_pct(60.5, 55.0) - 10.0).abs() < 1e-12);
        assert!((err_pct(49.5, 55.0) - 10.0).abs() < 1e-12);
        assert!((err_pct(90.5, 181.0) - 50.0).abs() < 1e-12);
    }

    #[test]
    fn mean_error_averages_only_the_anchors_run() {
        assert_eq!(mean_err_pct(&[]), None);
        let pairs = [(60.5, 55.0), (37.0, 37.0), (45.0, 50.0)];
        let mean = mean_err_pct(&pairs).expect("three anchors");
        assert!((mean - (10.0 + 0.0 + 10.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn table_matches_the_paper_numbers() {
        assert_eq!(ANCHORS.len(), 13);
        let total: f64 = ANCHORS.iter().map(|a| a.paper_gbps).sum();
        assert_eq!(
            total,
            55.0 + 37.0 + 3.0 * 50.0 + 42.0 + 40.0 + 50.0 + 40.0 + 50.0 + 24.0 + 181.0 + 80.0
        );
        let mut names: Vec<&str> = ANCHORS.iter().map(|a| a.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 13, "anchor names are unique");
    }
}
