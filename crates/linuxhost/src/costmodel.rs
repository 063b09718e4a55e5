//! The CPU cost model: service times per pipeline stage.
//!
//! Every burst that moves through a host costs CPU time at four
//! stations, each modelled as a FIFO server by `netsim`:
//!
//! ```text
//! sender:   app core (syscall + copy|pin) → softirq/TX core (proto+driver)
//! receiver: softirq/RX core (GRO + proto) → app core (syscall + copy|trunc)
//! ```
//!
//! plus a per-host *fabric* server capturing the memory/DMA bandwidth
//! shared by all flows. Throughput limits — the paper's central
//! subject — emerge from whichever server saturates first.

use crate::calib::{self, ArchCosts};
use crate::hostcfg::HostConfig;
use crate::virt::VirtMode;
use simcore::time::{round_f64_u64, u64_to_f64};
use simcore::{Bytes, SimDuration, SimRng};

/// One stage of the host pipeline, for per-stage cycle attribution.
///
/// Every [`CostModel`] service method corresponds to exactly one
/// variant; the simulator tags each service call with its stage so a
/// `CycleLedger` can decompose core busy time the way `perf report`
/// decomposes samples by symbol. The `name()` strings double as the
/// frame names in folded-stack (flamegraph) output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Sender application core: `write()`/`sendmsg()` (copy, pin, or
    /// splice — see [`TxMode`]).
    TxApp,
    /// Application-level checksum over the payload (§V-B data movers).
    Checksum,
    /// Sender softirq/TX core: protocol send + driver work.
    TxSoftirq,
    /// Receiver softirq/RX core: GRO merge + protocol receive.
    RxSoftirq,
    /// Receiver application core: `read()` (copy or MSG_TRUNC).
    RxApp,
    /// Sender IRQ core: ACK processing.
    Ack,
    /// Host fabric, send side: memory/DMA bandwidth for the outgoing
    /// burst.
    FabricTx,
    /// Host fabric, receive side.
    FabricRx,
}

impl Stage {
    /// Every stage, in pipeline order. The position of a stage in this
    /// array is its [`Stage::index`].
    pub const ALL: [Stage; 8] = [
        Stage::TxApp,
        Stage::Checksum,
        Stage::TxSoftirq,
        Stage::RxSoftirq,
        Stage::RxApp,
        Stage::Ack,
        Stage::FabricTx,
        Stage::FabricRx,
    ];

    /// Number of stages (the ledger's stage dimension).
    pub const COUNT: usize = Stage::ALL.len();

    /// Dense index into a `CycleLedger` stage dimension.
    pub fn index(self) -> usize {
        match self {
            Stage::TxApp => 0,
            Stage::Checksum => 1,
            Stage::TxSoftirq => 2,
            Stage::RxSoftirq => 3,
            Stage::RxApp => 4,
            Stage::Ack => 5,
            Stage::FabricTx => 6,
            Stage::FabricRx => 7,
        }
    }

    /// Stable lowercase name (folded-stack frame / trace field).
    pub fn name(self) -> &'static str {
        match self {
            Stage::TxApp => "tx_app",
            Stage::Checksum => "checksum",
            Stage::TxSoftirq => "tx_softirq",
            Stage::RxSoftirq => "rx_softirq",
            Stage::RxApp => "rx_app",
            Stage::Ack => "ack",
            Stage::FabricTx => "fabric_tx",
            Stage::FabricRx => "fabric_rx",
        }
    }
}

/// How the sender application handed the bytes to the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxMode {
    /// Ordinary `write()`: user→kernel copy.
    Copy,
    /// `sendmsg(MSG_ZEROCOPY)` that pinned pages.
    Zerocopy,
    /// `sendmsg(MSG_ZEROCOPY)` that exhausted `optmem_max` and copied.
    ZerocopyFallback,
    /// `sendfile()`: kernel-to-kernel splice from the page cache — the
    /// classic zerocopy (`iperf3 -Z`, §II-B). No user copy, no optmem
    /// accounting, but file-bound rather than general-purpose.
    Sendfile,
}

/// Resolved per-host cost model.
#[derive(Debug, Clone)]
pub struct CostModel {
    costs: ArchCosts,
    /// Kernel cost multiplier (≥ 1.0 for pre-6.8 kernels).
    kmult: f64,
    /// Core clock in Hz after governor effects.
    clock_hz: f64,
    /// Effective L3 bytes for the window penalty.
    l3: Bytes,
    /// MTU for per-packet costs.
    mtu: Bytes,
    /// Hardware GRO active on the receive side.
    hw_gro: bool,
    virt: VirtMode,
    iommu_pt: bool,
}

impl CostModel {
    /// Build the model for a host configuration.
    pub fn new(cfg: &HostConfig) -> Self {
        let costs = match cfg.cpu {
            crate::cpu::CpuArch::IntelXeon6346 => calib::INTEL_COSTS,
            crate::cpu::CpuArch::AmdEpyc73F3 => calib::AMD_COSTS,
        };
        let mut clock_hz = cfg.cpu.boost_clock_hz();
        if !cfg.performance_governor {
            clock_hz *= calib::NO_PERF_GOVERNOR_CLOCK_FACTOR;
        }
        CostModel {
            costs,
            kmult: calib::kernel_cost_factor(cfg.cpu, cfg.kernel),
            clock_hz,
            l3: cfg.cpu.effective_l3(),
            mtu: cfg.offload.mtu,
            hw_gro: cfg.offload.hw_gro,
            virt: cfg.virt,
            iommu_pt: cfg.iommu_pt,
        }
    }

    #[inline]
    fn cycles_to_time(&self, cycles: f64) -> SimDuration {
        SimDuration::from_nanos(round_f64_u64(cycles / self.clock_hz * 1e9))
    }

    #[inline]
    fn jitter(&self, rng: &mut SimRng) -> f64 {
        rng.jitter(calib::SERVICE_JITTER * self.virt.jitter_factor().min(19.0))
    }

    /// Window-scaling penalty on per-byte *sender* costs: once the
    /// in-flight window exceeds the effective L3, skb and retransmit-
    /// queue working sets spill to DRAM (§IV-B: the WAN sender-CPU
    /// wall; steeper on AMD's CCX-sliced cache).
    pub fn window_penalty(&self, window: Bytes) -> f64 {
        self.penalty(window, self.costs.window_penalty_alpha)
    }

    /// Cache-contention penalty on the shared copy fabric (see
    /// `calib::ArchCosts::fabric_penalty_alpha`).
    pub fn fabric_penalty(&self, window: Bytes) -> f64 {
        self.penalty(window, self.costs.fabric_penalty_alpha)
    }

    fn penalty(&self, window: Bytes, alpha: f64) -> f64 {
        let ratio = window.as_f64() / self.l3.as_f64();
        if ratio <= 1.0 {
            1.0
        } else {
            // Saturating: spilled working sets are DRAM-bound at a
            // fixed per-byte cost, so the multiplier tends to 1+alpha.
            1.0 + alpha * (1.0 - 1.0 / ratio)
        }
    }

    /// Sender application-core service time for one `write()`/`sendmsg()`
    /// of `burst` bytes, given the current in-flight window.
    pub fn tx_app_service(
        &self,
        burst: Bytes,
        mode: TxMode,
        window: Bytes,
        rng: &mut SimRng,
    ) -> SimDuration {
        let b = burst.as_f64();
        let penalty = self.window_penalty(window);
        let per_byte = match mode {
            TxMode::Copy => self.costs.tx_copy_cy_per_b * penalty,
            TxMode::Zerocopy => self.costs.tx_zc_pin_cy_per_b * penalty,
            TxMode::ZerocopyFallback => {
                self.costs.tx_copy_cy_per_b * penalty * calib::ZC_FALLBACK_OVERHEAD
            }
            // Page-cache reference splice: comparable to pinning but
            // with no completion machinery.
            TxMode::Sendfile => self.costs.tx_zc_pin_cy_per_b * penalty,
        } * self.virt.per_byte_factor();
        let per_burst = self.costs.tx_syscall_cy
            + self.virt.per_burst_overhead_cycles()
            + match mode {
                TxMode::Copy | TxMode::Sendfile => 0.0,
                TxMode::Zerocopy | TxMode::ZerocopyFallback => self.costs.tx_zc_notif_cy,
            };
        let cycles = (per_byte * b + per_burst) * self.kmult * self.jitter(rng);
        self.cycles_to_time(cycles)
    }

    /// Sender softirq/TX-core service time for one burst.
    pub fn tx_softirq_service(&self, burst: Bytes, rng: &mut SimRng) -> SimDuration {
        let pkts = burst.packets_at_mtu(self.mtu) as f64;
        let pkt_cy = self.costs.tx_softirq_pkt_cy + self.iommu_pkt_extra();
        let cycles =
            (self.costs.tx_softirq_burst_cy + pkts * pkt_cy) * self.kmult * self.jitter(rng);
        self.cycles_to_time(cycles)
    }

    /// Receiver softirq/RX-core service time for one burst (GRO merge +
    /// protocol receive). Hardware GRO (SHAMPO) slashes the per-packet
    /// component (§V-C).
    pub fn rx_softirq_service(&self, burst: Bytes, rng: &mut SimRng) -> SimDuration {
        let pkts = burst.packets_at_mtu(self.mtu) as f64;
        let (pkt_cy, burst_cy) = if self.hw_gro {
            (self.costs.rx_hwgro_pkt_cy, self.costs.rx_hwgro_burst_cy)
        } else {
            (self.costs.rx_softirq_pkt_cy, self.costs.rx_softirq_burst_cy)
        };
        let cycles =
            (burst_cy + pkts * (pkt_cy + self.iommu_pkt_extra())) * self.kmult * self.jitter(rng);
        self.cycles_to_time(cycles)
    }

    /// Receiver application-core service time for one `read()` of
    /// `burst` bytes. With `--skip-rx-copy` (MSG_TRUNC) the copy is
    /// skipped entirely.
    pub fn rx_app_service(&self, burst: Bytes, skip_copy: bool, rng: &mut SimRng) -> SimDuration {
        let per_byte = if skip_copy {
            0.0
        } else {
            self.costs.rx_copy_cy_per_b * self.virt.per_byte_factor()
        };
        let cycles = (per_byte * burst.as_f64()
            + self.costs.rx_syscall_cy
            + self.virt.per_burst_overhead_cycles())
            * self.kmult
            * self.jitter(rng);
        self.cycles_to_time(cycles)
    }

    /// Application-level checksum cost over one burst (Globus-style
    /// user-level integrity verification, §V-B).
    pub fn checksum_service(&self, burst: Bytes, rng: &mut SimRng) -> SimDuration {
        let cycles = calib::USER_CHECKSUM_CY_PER_B
            * burst.as_f64()
            * self.virt.per_byte_factor()
            * self.jitter(rng);
        self.cycles_to_time(cycles)
    }

    /// Sender IRQ-core cost of processing one ACK.
    pub fn ack_service(&self, rng: &mut SimRng) -> SimDuration {
        self.cycles_to_time(self.costs.ack_cy * self.kmult * self.jitter(rng))
    }

    /// Host-fabric service time for moving a burst on the send side.
    /// Copy-path sends contend in the shared cache with the flow's
    /// whole window; DMA-only zerocopy sends do not.
    pub fn fabric_tx_service(&self, burst: Bytes, mode: TxMode, window: Bytes) -> SimDuration {
        let (gbps, penalty) = match mode {
            TxMode::Copy | TxMode::ZerocopyFallback => {
                (self.costs.fabric_tx_copy_gbps, self.fabric_penalty(window))
            }
            TxMode::Zerocopy | TxMode::Sendfile => (self.costs.fabric_zc_dma_gbps, 1.0),
        };
        self.fabric_time(burst, gbps / penalty)
    }

    /// Host-fabric service time on the receive side. `skip_copy`
    /// removes the kernel→user copy leg, leaving DMA only.
    pub fn fabric_rx_service(&self, burst: Bytes, skip_copy: bool) -> SimDuration {
        let gbps = if skip_copy {
            self.costs.fabric_zc_dma_gbps
        } else {
            self.costs.fabric_rx_copy_gbps
        };
        self.fabric_time(burst, gbps)
    }

    fn fabric_time(&self, burst: Bytes, gbps: f64) -> SimDuration {
        let mut effective = gbps / self.kmult;
        if !self.iommu_pt {
            effective /= calib::IOMMU_NO_PT_FABRIC_DIVISOR;
        }
        SimDuration::from_nanos(round_f64_u64(u64_to_f64(burst.bits()) / effective))
    }

    fn iommu_pkt_extra(&self) -> f64 {
        if self.iommu_pt { 0.0 } else { calib::IOMMU_NO_PT_PKT_EXTRA_CY }
    }

    /// Clock the model runs at (Hz).
    pub fn clock_hz(&self) -> f64 {
        self.clock_hz
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hostcfg::HostConfig;
    use crate::kernel::KernelVersion;
    use simcore::SimRng;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(0)
    }

    /// Throughput (Gbit/s) of one server at the given per-burst
    /// service time.
    fn server_rate_gbps(burst: Bytes, service: SimDuration) -> f64 {
        burst.bits() as f64 / service.as_secs_f64() / 1e9
    }

    fn mean_service<F: FnMut(&mut SimRng) -> SimDuration>(mut f: F) -> SimDuration {
        let mut rng = rng();
        let total: u64 = (0..200).map(|_| f(&mut rng).as_nanos()).sum();
        SimDuration::from_nanos(total / 200)
    }

    #[test]
    fn intel_rx_softirq_bounds_lan_at_55() {
        let cfg = HostConfig::amlight_intel(KernelVersion::L6_8);
        let m = CostModel::new(&cfg);
        let burst = Bytes::kib(64);
        let svc = mean_service(|r| m.rx_softirq_service(burst, r));
        let rate = server_rate_gbps(burst, svc);
        assert!((52.0..59.0).contains(&rate), "Intel rx softirq {rate:.1} Gbps");
    }

    #[test]
    fn amd_rx_softirq_bounds_lan_at_42() {
        let cfg = HostConfig::esnet_amd(KernelVersion::L6_8);
        let m = CostModel::new(&cfg);
        let burst = Bytes::kib(64);
        let svc = mean_service(|r| m.rx_softirq_service(burst, r));
        let rate = server_rate_gbps(burst, svc);
        assert!((39.5..45.0).contains(&rate), "AMD rx softirq {rate:.1} Gbps");
    }

    #[test]
    fn zerocopy_sender_is_dramatically_cheaper() {
        let cfg = HostConfig::amlight_intel(KernelVersion::L6_8);
        let m = CostModel::new(&cfg);
        let burst = Bytes::kib(64);
        let w = Bytes::mib(1);
        let copy = mean_service(|r| m.tx_app_service(burst, TxMode::Copy, w, r));
        let zc = mean_service(|r| m.tx_app_service(burst, TxMode::Zerocopy, w, r));
        assert!(
            copy.as_nanos() > 4 * zc.as_nanos(),
            "copy {copy} should dwarf zerocopy {zc}"
        );
    }

    #[test]
    fn fallback_is_worse_than_plain_copy() {
        let cfg = HostConfig::amlight_intel(KernelVersion::L6_8);
        let m = CostModel::new(&cfg);
        let burst = Bytes::kib(64);
        let w = Bytes::mib(100);
        let copy = mean_service(|r| m.tx_app_service(burst, TxMode::Copy, w, r));
        let fb = mean_service(|r| m.tx_app_service(burst, TxMode::ZerocopyFallback, w, r));
        assert!(fb > copy, "fallback {fb} must exceed copy {copy}");
    }

    #[test]
    fn window_penalty_kicks_in_past_l3() {
        let cfg = HostConfig::esnet_amd(KernelVersion::L6_8);
        let m = CostModel::new(&cfg);
        assert_eq!(m.window_penalty(Bytes::mib(16)), 1.0);
        assert_eq!(m.window_penalty(Bytes::mib(32)), 1.0);
        let p = m.window_penalty(Bytes::new(650_000_000));
        assert!(p > 2.0, "AMD penalty at 650 MB window: {p}");
        let intel = CostModel::new(&HostConfig::amlight_intel(KernelVersion::L6_8));
        let pi = intel.window_penalty(Bytes::new(650_000_000));
        assert!(pi < p, "Intel penalty {pi} must be below AMD {p}");
    }

    #[test]
    fn old_kernel_costs_more() {
        let burst = Bytes::kib(64);
        let new = CostModel::new(&HostConfig::esnet_amd(KernelVersion::L6_8));
        let old = CostModel::new(&HostConfig::esnet_amd(KernelVersion::L5_15));
        let sn = mean_service(|r| new.rx_softirq_service(burst, r));
        let so = mean_service(|r| old.rx_softirq_service(burst, r));
        let ratio = so.as_nanos() as f64 / sn.as_nanos() as f64;
        assert!((1.25..1.38).contains(&ratio), "5.15/6.8 cost ratio {ratio:.3}");
    }

    #[test]
    fn big_tcp_burst_amortises_per_packet_work() {
        let mut cfg = HostConfig::amlight_intel(KernelVersion::L6_8);
        cfg.offload = cfg.offload.with_big_tcp(Bytes::new(150_000), KernelVersion::L6_8);
        let m = CostModel::new(&cfg);
        let rate64 = server_rate_gbps(
            Bytes::kib(64),
            mean_service(|r| m.rx_softirq_service(Bytes::kib(64), r)),
        );
        let rate150 = server_rate_gbps(
            Bytes::new(150_000),
            mean_service(|r| m.rx_softirq_service(Bytes::new(150_000), r)),
        );
        assert!(rate150 > rate64 * 1.4, "BIG TCP ceiling {rate150:.0} vs {rate64:.0}");
    }

    #[test]
    fn hw_gro_slashes_receive_cost() {
        let mut cfg = HostConfig::esnet_amd(KernelVersion::L6_11);
        cfg.offload = cfg.offload.with_hw_gro(KernelVersion::L6_11);
        let hw = CostModel::new(&cfg);
        let sw = CostModel::new(&HostConfig::esnet_amd(KernelVersion::L6_8));
        let b = Bytes::kib(64);
        let t_hw = mean_service(|r| hw.rx_softirq_service(b, r));
        let t_sw = mean_service(|r| sw.rx_softirq_service(b, r));
        assert!(t_hw.as_nanos() * 2 < t_sw.as_nanos() * 2 && t_hw < t_sw);
    }

    #[test]
    fn skip_rx_copy_removes_per_byte_cost() {
        let cfg = HostConfig::esnet_amd(KernelVersion::L6_8);
        let m = CostModel::new(&cfg);
        let b = Bytes::kib(64);
        let with_copy = mean_service(|r| m.rx_app_service(b, false, r));
        let trunc = mean_service(|r| m.rx_app_service(b, true, r));
        assert!(with_copy.as_nanos() > 10 * trunc.as_nanos());
    }

    #[test]
    fn iommu_off_halves_fabric() {
        let on = CostModel::new(&HostConfig::esnet_amd(KernelVersion::L5_15));
        let mut cfg_off = HostConfig::esnet_amd(KernelVersion::L5_15);
        cfg_off.iommu_pt = false;
        let off = CostModel::new(&cfg_off);
        let b = Bytes::kib(64);
        let t_on = on.fabric_rx_service(b, false);
        let t_off = off.fabric_rx_service(b, false);
        let ratio = t_off.as_nanos() as f64 / t_on.as_nanos() as f64;
        assert!((2.0..2.2).contains(&ratio), "IOMMU fabric ratio {ratio}");
    }

    #[test]
    fn fabric_rates_match_calibration() {
        // AMD 5.15 receiver fabric ≈ 223/1.31 ≈ 170 Gbps (Table I).
        let m = CostModel::new(&HostConfig::esnet_amd(KernelVersion::L5_15));
        let b = Bytes::mib(1);
        let rate = server_rate_gbps(b, m.fabric_rx_service(b, false));
        assert!((165.0..176.0).contains(&rate), "AMD 5.15 rx fabric {rate:.0} Gbps");
    }

    #[test]
    fn stage_indices_are_dense_and_names_stable() {
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), i, "{stage:?}");
        }
        assert_eq!(Stage::COUNT, 8);
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec![
                "tx_app",
                "checksum",
                "tx_softirq",
                "rx_softirq",
                "rx_app",
                "ack",
                "fabric_tx",
                "fabric_rx"
            ]
        );
    }

    #[test]
    fn governor_slows_clock() {
        let mut cfg = HostConfig::esnet_amd(KernelVersion::L6_8);
        cfg.performance_governor = false;
        let m = CostModel::new(&cfg);
        assert!(m.clock_hz() < CpuArchClock::AMD_BOOST);
        struct CpuArchClock;
        impl CpuArchClock {
            const AMD_BOOST: f64 = 4.0e9;
        }
    }
}
