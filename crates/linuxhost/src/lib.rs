//! `linuxhost` — a model of the Linux host network stack.
//!
//! This crate captures everything the paper tunes on its Data Transfer
//! Nodes:
//!
//! * [`kernel`] — kernel versions (5.10/5.15/6.5/6.8/6.11) with feature
//!   gates (MSG_ZEROCOPY ≥ 4.17, BIG TCP IPv6 ≥ 5.19 / IPv4 ≥ 6.3,
//!   hardware GRO ≥ 6.11) and per-version efficiency profiles.
//! * [`cpu`] — CPU packages (Intel Xeon 6346 vs AMD EPYC 73F3) and the
//!   IRQ/application core-affinity scheme from §III-A.
//! * [`sysctl`] — the sysctl set from §III-D (`rmem_max`, `tcp_rmem`,
//!   `optmem_max`, `default_qdisc`, …), stock vs fasterdata-tuned.
//! * [`offload`] — GSO/GRO sizing including BIG TCP, MTU, `max_skb_frags`.
//! * [`zerocopy`] — MSG_ZEROCOPY completion accounting against
//!   `optmem_max`, with copy fallback when the budget is exhausted.
//! * [`qdisc`] — fq pacing (explicit `--fq-rate` or TCP auto-pacing).
//! * [`costmodel`] — CPU cycle costs per burst for each stage of the
//!   stack, per kernel and architecture; the heart of the simulation.
//! * [`mpstat`] — `mpstat`-style per-core utilisation reports.
//! * [`hostcfg`] — the combined host configuration (a "DTN build sheet").
//! * [`virt`] — bare-metal vs PCI-passthrough VM (§III-H).
//! * [`calib`] — every calibrated constant, each documented with the
//!   paper anchor it satisfies.

#![deny(unreachable_pub)]
// Recoverable failures carry typed errors; every surviving `expect`
// states its infallibility argument (tests are exempt).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calib;
pub mod costmodel;
pub mod cpu;
pub mod hostcfg;
pub mod kernel;
pub mod mpstat;
pub mod offload;
pub mod qdisc;
pub mod sysctl;
pub mod virt;
pub mod zerocopy;

pub use costmodel::{CostModel, Stage, TxMode};
pub use cpu::{CoreAllocation, CpuArch};
pub use hostcfg::HostConfig;
pub use kernel::KernelVersion;
pub use mpstat::CpuReport;
pub use offload::{AddrFamily, OffloadConfig};
pub use qdisc::Pacer;
pub use sysctl::{Qdisc, SysctlConfig};
pub use virt::VirtMode;
pub use zerocopy::{SendOutcome, ZerocopyAccounting};
