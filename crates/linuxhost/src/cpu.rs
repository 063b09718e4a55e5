//! CPU packages and core-affinity policy.
//!
//! The paper's two testbeds use dual-socket Intel Xeon 6346 (AmLight,
//! 3.1/3.6 GHz, AVX-512) and dual-socket AMD EPYC 73F3 (ESnet,
//! 3.5/4.0 GHz, no AVX-512, CCX-sliced L3). §III-A shows that without
//! explicit affinity ("irqbalance everywhere"), a single 100G flow
//! varies between 20 and 55 Gbps on the same hardware; the paper pins
//! NIC IRQs to cores 0–7 and iperf3 to cores 8–15 on the NIC's NUMA
//! node.

use simcore::Bytes;

/// A CPU package model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpuArch {
    /// Intel Xeon Gold 6346 (Ice Lake-SP): 16 cores/socket,
    /// 3.1 GHz base / 3.6 GHz boost, AVX-512, 36 MB monolithic L3.
    IntelXeon6346,
    /// AMD EPYC 73F3 (Milan): 16 cores/socket, 3.5 GHz base / 4.0 GHz
    /// boost, no AVX-512 (Zen 3), 32 MB L3 per CCX.
    AmdEpyc73F3,
}

impl CpuArch {
    /// Boost clock in Hz — what a lightly-loaded pinned core runs at
    /// with the performance governor (§III-D sets `cpupower -g
    /// performance` and disables SMT).
    pub fn boost_clock_hz(self) -> f64 {
        match self {
            CpuArch::IntelXeon6346 => 3.6e9,
            CpuArch::AmdEpyc73F3 => 4.0e9,
        }
    }

    /// Effective last-level cache visible to one network flow's working
    /// set. Intel Ice Lake has a monolithic 36 MB L3 per socket; Milan's
    /// 32 MB per 4-core CCX is *less* effective for a single flow whose
    /// skb/retransmit-queue working set is touched from several cores.
    pub fn effective_l3(self) -> Bytes {
        match self {
            CpuArch::IntelXeon6346 => Bytes::mib(36),
            CpuArch::AmdEpyc73F3 => Bytes::mib(32),
        }
    }

    /// Physical cores per socket.
    pub fn cores_per_socket(self) -> u32 {
        16
    }

    /// Short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            CpuArch::IntelXeon6346 => "Intel Xeon 6346",
            CpuArch::AmdEpyc73F3 => "AMD EPYC 73F3",
        }
    }
}

/// How IRQ and application work is placed on cores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreAllocation {
    /// Cores dedicated to NIC interrupts (`set_irq_affinity_cpulist.sh`).
    pub irq_cores: Vec<u32>,
    /// Cores the benchmark tool is pinned to (`numactl -C`).
    pub app_cores: Vec<u32>,
    /// `irqbalance` left running: IRQs and the app migrate over all
    /// cores, including cross-NUMA placements — the §III-A variance.
    pub irqbalance: bool,
}

impl CoreAllocation {
    /// The paper's configuration: IRQs on 0-7, iperf3 on 8-15, same
    /// NUMA node as the NIC, irqbalance disabled.
    pub fn paper_tuned() -> Self {
        CoreAllocation {
            irq_cores: (0..8).collect(),
            app_cores: (8..16).collect(),
            irqbalance: false,
        }
    }

    /// Stock configuration: irqbalance spreads IRQs over all 32 cores
    /// and the scheduler places the app anywhere.
    pub fn stock(total_cores: u32) -> Self {
        CoreAllocation {
            irq_cores: (0..total_cores).collect(),
            app_cores: (0..total_cores).collect(),
            irqbalance: true,
        }
    }

    /// Whether IRQ and app core sets are disjoint (the §III-A advice:
    /// "applications should not be pinned to cores that handle
    /// interrupts from the NIC").
    pub fn is_separated(&self) -> bool {
        !self.irqbalance
            && self.irq_cores.iter().all(|c| !self.app_cores.contains(c))
    }

    /// Validate non-emptiness.
    pub fn validate(&self) -> Result<(), String> {
        if self.irq_cores.is_empty() {
            return Err("no IRQ cores configured".into());
        }
        if self.app_cores.is_empty() {
            return Err("no application cores configured".into());
        }
        Ok(())
    }
}

impl simcore::Canonicalize for CoreAllocation {
    fn canonicalize(&self, c: &mut simcore::Canon) {
        let irq: Vec<u64> = self.irq_cores.iter().map(|&x| x as u64).collect();
        let app: Vec<u64> = self.app_cores.iter().map(|&x| x as u64).collect();
        c.put_u64_seq("irq_cores", &irq);
        c.put_u64_seq("app_cores", &app);
        c.put_bool("irqbalance", self.irqbalance);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arch_properties() {
        let intel = CpuArch::IntelXeon6346;
        let amd = CpuArch::AmdEpyc73F3;
        assert!(amd.boost_clock_hz() > intel.boost_clock_hz());
        assert_eq!(intel.cores_per_socket(), 16);
    }

    #[test]
    fn paper_affinity_is_separated() {
        let a = CoreAllocation::paper_tuned();
        assert!(a.is_separated());
        assert!(a.validate().is_ok());
        assert_eq!(a.irq_cores, (0..8).collect::<Vec<_>>());
        assert_eq!(a.app_cores, (8..16).collect::<Vec<_>>());
    }

    #[test]
    fn stock_affinity_overlaps() {
        let a = CoreAllocation::stock(32);
        assert!(!a.is_separated());
        assert!(a.irqbalance);
        assert_eq!(a.irq_cores.len(), 32);
    }

    #[test]
    fn validation_catches_empty_sets() {
        let a = CoreAllocation { irq_cores: vec![], app_cores: vec![1], irqbalance: false };
        assert!(a.validate().is_err());
        let b = CoreAllocation { irq_cores: vec![0], app_cores: vec![], irqbalance: false };
        assert!(b.validate().is_err());
    }
}
