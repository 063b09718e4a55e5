//! The complete host configuration — a DTN "build sheet".
//!
//! Bundles CPU, NIC, kernel, sysctls, offloads, core affinity and the
//! remaining §III-D knobs (`iommu=pt`, ring sizing, SMT, governor) into
//! one value the simulator consumes. Presets construct the paper's
//! AmLight and ESnet hosts.

use crate::cpu::{CoreAllocation, CpuArch};
use crate::kernel::KernelVersion;
use crate::offload::OffloadConfig;
use crate::sysctl::SysctlConfig;
use crate::virt::VirtMode;
use nethw::NicModel;
use simcore::Bytes;

/// Everything about one host that affects throughput.
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// Display name.
    pub name: String,
    /// CPU package.
    pub cpu: CpuArch,
    /// NIC model.
    pub nic: NicModel,
    /// Kernel version.
    pub kernel: KernelVersion,
    /// Sysctl set.
    pub sysctl: SysctlConfig,
    /// GSO/GRO/MTU configuration.
    pub offload: OffloadConfig,
    /// IRQ/app core placement.
    pub cores: CoreAllocation,
    /// Bare metal or VM.
    pub virt: VirtMode,
    /// `iommu=pt` set on the kernel command line (§III-D).
    pub iommu_pt: bool,
    /// RX ring entries if tuned via `ethtool -G` (None = driver default).
    pub ring_entries: Option<u32>,
    /// CPU governor pinned to `performance`.
    pub performance_governor: bool,
    /// SMT (hyper-threading) disabled.
    pub smt_off: bool,
}

impl HostConfig {
    /// An AmLight testbed host: dual Intel Xeon 6346, ConnectX-5
    /// (100 GbE), run inside the tuned passthrough VM (§III-E/H), with
    /// the full §III-D tuning applied.
    pub fn amlight_intel(kernel: KernelVersion) -> Self {
        HostConfig {
            name: format!("amlight-intel-{kernel}"),
            cpu: CpuArch::IntelXeon6346,
            nic: NicModel::ConnectX5,
            kernel,
            sysctl: SysctlConfig::paper_tuned(),
            offload: OffloadConfig::paper_default(),
            cores: CoreAllocation::paper_tuned(),
            virt: VirtMode::PassthroughVm,
            iommu_pt: true,
            ring_entries: None, // ring tuning only helped on AMD (§III-D)
            performance_governor: true,
            smt_off: true,
        }
    }

    /// An AmLight host on bare metal (Debian 11 / kernel 5.10 in the
    /// Fig. 4 comparison).
    pub fn amlight_intel_baremetal(kernel: KernelVersion) -> Self {
        let mut cfg = Self::amlight_intel(kernel);
        cfg.name = format!("amlight-intel-bm-{kernel}");
        cfg.virt = VirtMode::Baremetal;
        cfg
    }

    /// An ESnet testbed host: dual AMD EPYC 73F3, ConnectX-7
    /// (200 GbE), bare metal, full tuning including the AMD-specific
    /// 8192-entry ring (§III-D).
    pub fn esnet_amd(kernel: KernelVersion) -> Self {
        HostConfig {
            name: format!("esnet-amd-{kernel}"),
            cpu: CpuArch::AmdEpyc73F3,
            nic: NicModel::ConnectX7,
            kernel,
            sysctl: SysctlConfig::paper_tuned(),
            offload: OffloadConfig::paper_default(),
            cores: CoreAllocation::paper_tuned(),
            virt: VirtMode::Baremetal,
            iommu_pt: true,
            ring_entries: Some(8192),
            performance_governor: true,
            smt_off: true,
        }
    }

    /// An ESnet *production* DTN (Table III): AMD-class host with a
    /// 100 GbE ConnectX-6 Dx, stock-LTS kernel 5.15, tuned sysctls.
    /// (The paper doesn't give the production hardware; this profile is
    /// the documented assumption — see DESIGN.md.)
    pub fn esnet_prod_dtn() -> Self {
        HostConfig {
            name: "esnet-prod-dtn".into(),
            cpu: CpuArch::AmdEpyc73F3,
            nic: NicModel::ConnectX6Dx,
            kernel: KernelVersion::L5_15,
            sysctl: SysctlConfig::paper_tuned(),
            offload: OffloadConfig::paper_default(),
            cores: CoreAllocation::paper_tuned(),
            virt: VirtMode::Baremetal,
            iommu_pt: true,
            ring_entries: Some(8192),
            performance_governor: true,
            smt_off: true,
        }
    }

    /// A deliberately untuned host: stock sysctls, irqbalance on, no
    /// `iommu=pt`, default governor. Useful for the "why tuning
    /// matters" examples and ablations.
    pub fn untuned(cpu: CpuArch, nic: NicModel, kernel: KernelVersion) -> Self {
        HostConfig {
            name: format!("untuned-{kernel}"),
            cpu,
            nic,
            kernel,
            sysctl: SysctlConfig::stock(),
            offload: OffloadConfig::paper_default(),
            cores: CoreAllocation::stock(2 * cpu.cores_per_socket()),
            virt: VirtMode::Baremetal,
            iommu_pt: false,
            ring_entries: None,
            performance_governor: false,
            smt_off: false,
        }
    }

    /// Builder: replace the sysctl set.
    pub fn with_sysctl(mut self, sysctl: SysctlConfig) -> Self {
        self.sysctl = sysctl;
        self
    }

    /// Builder: set `optmem_max` only.
    pub fn with_optmem(mut self, optmem: Bytes) -> Self {
        self.sysctl.optmem_max = optmem;
        self
    }

    /// RX ring entries in effect (tuned or driver default).
    pub fn effective_ring_entries(&self) -> u32 {
        self.ring_entries.unwrap_or_else(|| self.nic.default_ring_entries())
    }

    /// Validate cross-field consistency. Returns a list of problems
    /// (empty = valid).
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if let Err(e) = self.cores.validate() {
            problems.push(e);
        }
        if self.offload.hw_gro && !self.kernel.supports_hw_gro() {
            problems.push(format!("hw GRO enabled but kernel {} lacks it", self.kernel));
        }
        if self.offload.hw_gro && !self.nic.supports_hw_gro() {
            problems.push(format!("hw GRO enabled but {} lacks it", self.nic.name()));
        }
        if self.offload.big_tcp_active() && !self.kernel.supports_big_tcp_ipv4() {
            problems.push(format!("BIG TCP enabled but kernel {} lacks it", self.kernel));
        }
        if self.offload.mtu.as_u64() > 9216 {
            problems.push("MTU above jumbo-frame maximum".into());
        }
        problems
    }
}

impl simcore::Canonicalize for HostConfig {
    /// `name` is display-only and deliberately excluded: renaming a
    /// host must not re-seed or re-simulate its scenarios.
    fn canonicalize(&self, c: &mut simcore::Canon) {
        c.put_str("cpu", &format!("{:?}", self.cpu));
        c.put_str("nic", &format!("{:?}", self.nic));
        c.put_str("kernel", &format!("{:?}", self.kernel));
        c.scope("sysctl", |c| self.sysctl.canonicalize(c));
        c.scope("offload", |c| self.offload.canonicalize(c));
        c.scope("cores", |c| self.cores.canonicalize(c));
        c.put_str("virt", &format!("{:?}", self.virt));
        c.put_bool("iommu_pt", self.iommu_pt);
        match self.ring_entries {
            None => c.put_str("ring_entries", "default"),
            Some(n) => c.put_u64("ring_entries", n as u64),
        }
        c.put_bool("performance_governor", self.performance_governor);
        c.put_bool("smt_off", self.smt_off);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        for cfg in [
            HostConfig::amlight_intel(KernelVersion::L6_8),
            HostConfig::amlight_intel_baremetal(KernelVersion::L5_10),
            HostConfig::esnet_amd(KernelVersion::L5_15),
            HostConfig::esnet_prod_dtn(),
            HostConfig::untuned(CpuArch::IntelXeon6346, NicModel::ConnectX5, KernelVersion::L5_15),
        ] {
            assert!(cfg.validate().is_empty(), "{}: {:?}", cfg.name, cfg.validate());
        }
    }

    #[test]
    fn amlight_matches_paper_setup() {
        let cfg = HostConfig::amlight_intel(KernelVersion::L6_8);
        assert_eq!(cfg.cpu, CpuArch::IntelXeon6346);
        assert_eq!(cfg.nic, NicModel::ConnectX5);
        assert_eq!(cfg.virt, VirtMode::PassthroughVm);
        assert!(cfg.cores.is_separated());
        assert_eq!(cfg.effective_ring_entries(), 1024);
    }

    #[test]
    fn esnet_ring_is_tuned() {
        let cfg = HostConfig::esnet_amd(KernelVersion::L6_8);
        assert_eq!(cfg.effective_ring_entries(), 8192);
        assert_eq!(cfg.nic, NicModel::ConnectX7);
    }

    #[test]
    fn validation_flags_bad_combinations() {
        let mut cfg = HostConfig::esnet_amd(KernelVersion::L6_8);
        cfg.offload.hw_gro = true; // kernel 6.8 lacks hw GRO
        assert!(!cfg.validate().is_empty());
    }

    #[test]
    fn builder_chain() {
        let cfg = HostConfig::amlight_intel(KernelVersion::L6_5).with_optmem(Bytes::kib(20));
        assert_eq!(cfg.sysctl.optmem_max, Bytes::kib(20));
        assert_eq!(cfg.kernel, KernelVersion::L6_5);
    }

    #[test]
    fn untuned_host_is_visibly_untuned() {
        let cfg =
            HostConfig::untuned(CpuArch::AmdEpyc73F3, NicModel::ConnectX7, KernelVersion::L5_15);
        assert!(!cfg.cores.is_separated());
        assert!(!cfg.iommu_pt);
        assert!(!cfg.sysctl.supports_fq_pacing());
    }
}
