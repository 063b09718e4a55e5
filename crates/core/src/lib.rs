//! `dtnperf` — the public API for the Linux-TCP-throughput
//! reproduction.
//!
//! This workspace reproduces, as a discrete-event simulation, the
//! SC/INDIS 2024 paper *"Recent Linux Improvements that Impact TCP
//! Throughput: Insights from R&E Networks"* (Schwarz, Rothenberg,
//! Tierney, Vasu, Dart, Bezerra, Valcy): MSG_ZEROCOPY, BIG TCP, fq
//! pacing, 802.3x flow control and kernel-version effects on 100–200 G
//! Data Transfer Nodes.
//!
//! # Quickstart
//!
//! ```
//! use dtnperf::prelude::*;
//!
//! // iperf3 -c <esnet-host> -t 3 --zerocopy=z --fq-rate 40G
//! let host = Testbeds::esnet_host(KernelVersion::L6_8);
//! let path = Testbeds::esnet_path(EsnetPath::Lan);
//! let opts = Iperf3Opts::new(3).omit(0).zerocopy().fq_rate(BitRate::gbps(40.0));
//! let report = iperf3_run(&host, &host, &path, &opts).expect("valid flags");
//! let gbps = report.sum_bitrate().as_gbps();
//! assert!(gbps > 30.0, "zerocopy+pacing at 40G on a 200G LAN: {gbps:.1}");
//! ```
//!
//! # Layers
//!
//! | Crate | Contents |
//! |---|---|
//! | [`simcore`] | event queue, time, units, RNG, statistics |
//! | [`nethw`] | NICs, links, shared-buffer switch, pause frames, paths |
//! | [`linuxhost`] | kernels, sysctls, offloads, zerocopy accounting, CPU cost model |
//! | [`tcpstack`] | CUBIC / BBRv1 / BBRv3 / H-TCP, sender/receiver state machines |
//! | [`netsim`] | the discrete-event simulation tying it together |
//! | [`iperf3`] | the benchmark-tool model (flags, validation, reports) |
//! | [`harness`] | testbeds, repetition runner, every figure/table of the paper |

#![deny(unreachable_pub)]
// Recoverable failures carry typed errors; every surviving `expect`
// states its infallibility argument (tests are exempt).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use harness;
pub use linuxhost;
pub use nethw;
pub use netsim;
pub use simcore;
pub use tcpstack;

/// The iperf3 tool model (re-export of `iperf3sim`).
pub mod iperf3 {
    pub use iperf3sim::*;
}

/// Everything needed to define and run an experiment.
pub mod prelude {
    pub use harness::experiments::{self, ExperimentId};
    pub use harness::{
        AmLightPath, Effort, EsnetPath, FigureData, RunCtx, Scenario, TableData, TestHarness,
        Testbeds,
    };
    pub use iperf3sim::{Iperf3Opts, Iperf3Report, Iperf3Version};
    pub use linuxhost::{
        CoreAllocation, CpuArch, HostConfig, KernelVersion, OffloadConfig, SysctlConfig, VirtMode,
    };
    pub use nethw::{CrossTrafficSpec, NicModel, PathSpec};
    pub use netsim::{Fault, FaultPlan, RunResult, SimConfig, SimError, Simulation, WorkloadSpec};
    pub use simcore::{BitRate, Bytes, SimDuration, SimTime, Summary};
    pub use tcpstack::CcAlgorithm;

    /// Run one iperf3 test (re-export of [`iperf3sim::run`]).
    pub use iperf3sim::run as iperf3_run;

    /// The iperf3 module alias used in examples.
    pub use crate::iperf3;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_covers_the_quickstart() {
        let host = Testbeds::esnet_host(KernelVersion::L6_8);
        let path = Testbeds::esnet_path(EsnetPath::Lan);
        let opts = Iperf3Opts::new(2).omit(0);
        let report = iperf3_run(&host, &host, &path, &opts).expect("valid");
        assert!(report.sum_bitrate().as_gbps() > 10.0);
    }

    #[test]
    fn experiment_registry_is_complete() {
        assert_eq!(ExperimentId::ALL.len(), 21);
        let names: Vec<&str> = ExperimentId::ALL.iter().map(|e| e.name()).collect();
        for figure in
            ["fig04", "fig05", "fig10", "table1", "table3", "ext_hw_gro", "ext_faults", "ext_telemetry", "ext_bottleneck", "ext_scale", "ext_cc_matrix", "ext_fleet"]
        {
            assert!(names.contains(&figure), "{figure} missing from registry");
        }
    }
}
