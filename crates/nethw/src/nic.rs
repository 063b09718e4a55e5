//! NIC hardware models.
//!
//! The two testbeds use Nvidia ConnectX-5 (AmLight, 100 GbE, PCIe
//! Gen3 x16) and ConnectX-7 (ESnet, 200 GbE, PCIe Gen5 x16). The NIC
//! contributes three things to the simulation:
//!
//! * a **line rate** that bounds burst serialisation onto the wire;
//! * an **effective host-interface rate** (PCIe/DMA) that bounds the
//!   aggregate a host can move regardless of wire speed;
//! * an **RX ring**: the descriptor ring the driver posts. If softirq
//!   processing falls behind arriving line-rate packet trains, the ring
//!   overflows and the NIC drops — the central loss mechanism the paper
//!   works around with pacing and flow control (§II-D, §IV-A).

use simcore::{BitRate, Bytes};

/// Which NIC is installed in a host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NicModel {
    /// Nvidia ConnectX-5 (AmLight hosts): 100 GbE, PCIe Gen3 x16.
    ConnectX5,
    /// Nvidia ConnectX-6 Dx: 100 GbE, PCIe Gen4 x16.
    ConnectX6Dx,
    /// Nvidia ConnectX-7 (ESnet hosts): 200 GbE, PCIe Gen5 x16.
    ConnectX7,
}

impl NicModel {
    /// Wire speed of the port.
    pub fn line_rate(self) -> BitRate {
        match self {
            NicModel::ConnectX5 | NicModel::ConnectX6Dx => BitRate::gbps(100.0),
            NicModel::ConnectX7 => BitRate::gbps(200.0),
        }
    }

    /// Effective host-interface (PCIe + DMA) throughput. Raw PCIe
    /// bandwidth is higher, but descriptor/doorbell overheads and
    /// payload framing make the usable rate lower; these are typical
    /// achievable figures.
    pub fn host_interface_rate(self) -> BitRate {
        match self {
            // Gen3 x16 ≈ 126 Gb/s raw → ~97 effective.
            NicModel::ConnectX5 => BitRate::gbps(97.0),
            // Gen4 x16 ≈ 252 Gb/s raw → ~190 effective.
            NicModel::ConnectX6Dx => BitRate::gbps(190.0),
            // Gen5 x16: wire (200G) is the limit, minus framing.
            NicModel::ConnectX7 => BitRate::gbps(197.0),
        }
    }

    /// Effective rate the host side can sustain (min of wire and PCIe).
    pub fn effective_rate(self) -> BitRate {
        self.line_rate().min(self.host_interface_rate())
    }

    /// Default RX descriptor ring size (entries), as shipped by the
    /// mlx5 driver.
    pub fn default_ring_entries(self) -> u32 {
        1024
    }

    /// Whether the NIC supports hardware-accelerated GRO (SHAMPO,
    /// header/data split). Only ConnectX-7 with Linux ≥ 6.11 (paper
    /// §V-C future work).
    pub fn supports_hw_gro(self) -> bool {
        matches!(self, NicModel::ConnectX7)
    }

    /// Human-readable model name.
    pub fn name(self) -> &'static str {
        match self {
            NicModel::ConnectX5 => "ConnectX-5",
            NicModel::ConnectX6Dx => "ConnectX-6 Dx",
            NicModel::ConnectX7 => "ConnectX-7",
        }
    }
}

/// RX descriptor ring occupancy model.
///
/// Each MTU-sized frame consumes one descriptor; capacity in bytes is
/// `entries × mtu`. The paper tunes `ethtool -G rx 8192` on the AMD
/// hosts: a deeper ring absorbs longer line-rate packet trains before
/// dropping.
#[derive(Debug, Clone)]
pub struct RxRing {
    entries: u32,
    mtu: Bytes,
    occupied: Bytes,
}

impl RxRing {
    /// New ring with the given descriptor count and MTU.
    pub fn new(entries: u32, mtu: Bytes) -> Self {
        assert!(entries > 0, "ring must have descriptors");
        assert!(mtu.as_u64() > 0, "MTU must be positive");
        RxRing { entries, mtu, occupied: Bytes::ZERO }
    }

    /// Total byte capacity.
    pub fn capacity(&self) -> Bytes {
        Bytes::new(self.entries as u64 * self.mtu.as_u64())
    }

    /// Free space.
    pub fn free(&self) -> Bytes {
        self.capacity().saturating_sub(self.occupied)
    }

    /// Offer an arriving burst. Returns `true` if accepted; `false`
    /// means the ring was full and the burst was dropped.
    ///
    /// Mirrors real NIC behaviour at burst granularity: a burst that
    /// doesn't fit is dropped in its entirety (the remaining frames of
    /// a train overrun the ring).
    pub fn offer(&mut self, burst: Bytes) -> bool {
        if burst > self.free() {
            false
        } else {
            self.occupied += burst;
            true
        }
    }

    /// Softirq drained a burst from the ring.
    pub fn drain(&mut self, burst: Bytes) {
        debug_assert!(burst <= self.occupied, "draining more than occupied");
        self.occupied = self.occupied.saturating_sub(burst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_rates() {
        assert_eq!(NicModel::ConnectX5.line_rate().as_gbps(), 100.0);
        assert_eq!(NicModel::ConnectX7.line_rate().as_gbps(), 200.0);
        assert!(NicModel::ConnectX5.host_interface_rate().as_gbps() < 100.0);
        assert!(NicModel::ConnectX7.host_interface_rate().as_gbps() < 200.0);
    }

    #[test]
    fn ring_capacity_default_vs_tuned() {
        let mtu = Bytes::new(9000);
        let default = RxRing::new(1024, mtu);
        let tuned = RxRing::new(8192, mtu);
        assert_eq!(default.capacity().as_u64(), 1024 * 9000);
        assert_eq!(tuned.capacity().as_u64(), 8192 * 9000);
        assert!(tuned.capacity() > default.capacity());
    }

    #[test]
    fn ring_accepts_until_full_then_drops() {
        let mut ring = RxRing::new(16, Bytes::new(9000)); // 144 KB
        assert!(ring.offer(Bytes::kib(64)));
        assert!(ring.offer(Bytes::kib(64)));
        // 128 KiB in a 140.6 KiB ring: a third 64 KiB burst must drop.
        assert!(!ring.offer(Bytes::kib(64)));
        ring.drain(Bytes::kib(64));
        assert!(ring.offer(Bytes::kib(64)));
    }

    #[test]
    fn nic_effective_rate_is_min_of_wire_and_pcie() {
        assert_eq!(NicModel::ConnectX5.effective_rate().as_gbps(), 97.0);
        assert_eq!(NicModel::ConnectX7.effective_rate().as_gbps(), 197.0);
    }
}
