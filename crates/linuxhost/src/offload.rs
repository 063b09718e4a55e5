//! Segmentation-offload configuration: GSO/GRO sizing, BIG TCP, MTU.
//!
//! The stack hands the NIC "super-packets" of up to `gso_max_size`
//! bytes; the NIC slices them to MTU on the wire (TSO) and the receive
//! side re-aggregates (GRO). Stock super-packets are capped at 64 KB;
//! BIG TCP (§II-C) raises the cap — the paper tests 150 KB via
//! `ip link set ... gso_ipv4_max_size 150000 gro_ipv4_max_size 150000`.
//!
//! BIG TCP and MSG_ZEROCOPY both consume skb fragment slots, so they
//! cannot be combined unless the kernel is built with
//! `CONFIG_MAX_SKB_FRAGS=45` (§II-C / §V-C).

use crate::kernel::KernelVersion;
use simcore::Bytes;

/// IP version carried on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AddrFamily {
    /// IPv4 (the paper reports IPv4 numbers).
    #[default]
    V4,
    /// IPv6 — 20 bytes more header per packet, slightly larger BIG TCP
    /// ceilings, earlier kernel support (5.19 vs 6.3).
    V6,
}

impl AddrFamily {
    /// IP + TCP header bytes per wire packet (no options).
    pub fn header_bytes(self) -> u64 {
        match self {
            AddrFamily::V4 => 20 + 20,
            AddrFamily::V6 => 40 + 20,
        }
    }
}

/// Default GSO/GRO super-packet ceiling (64 KB minus headers; we use
/// the round figure the paper quotes).
pub const DEFAULT_GSO_SIZE: Bytes = Bytes::new(65_536);

/// The BIG TCP size used throughout the paper's evaluation.
pub const PAPER_BIG_TCP_SIZE: Bytes = Bytes::new(150_000);

/// Maximum BIG TCP size supported (IPv4; IPv6 allows slightly more).
pub const MAX_BIG_TCP_SIZE: Bytes = Bytes::new(524_280);

/// Stock `MAX_SKB_FRAGS`.
pub const DEFAULT_MAX_SKB_FRAGS: u32 = 17;

/// Offload configuration for one host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OffloadConfig {
    /// GSO super-packet ceiling (send side).
    pub gso_max_size: Bytes,
    /// GRO aggregation ceiling (receive side).
    pub gro_max_size: Bytes,
    /// Interface MTU (paper: 9000).
    pub mtu: Bytes,
    /// Kernel build constant `CONFIG_MAX_SKB_FRAGS` (17 stock, 45 for
    /// the custom BIG TCP + zerocopy kernel).
    pub max_skb_frags: u32,
    /// Hardware GRO / header-data split enabled on the NIC (§V-C).
    pub hw_gro: bool,
    /// IP version (affects per-packet header overhead and BIG TCP
    /// gates; §II-C found no significant v4/v6 difference).
    pub addr_family: AddrFamily,
}

impl OffloadConfig {
    /// Stock offload configuration at the given MTU.
    pub fn standard(mtu: Bytes) -> Self {
        assert!(mtu.as_u64() >= 1280, "MTU below IPv6 minimum");
        OffloadConfig {
            gso_max_size: DEFAULT_GSO_SIZE,
            gro_max_size: DEFAULT_GSO_SIZE,
            mtu,
            max_skb_frags: DEFAULT_MAX_SKB_FRAGS,
            hw_gro: false,
            addr_family: AddrFamily::V4,
        }
    }

    /// The paper's default setup: 9000-byte MTU, standard 64 KB offload.
    pub fn paper_default() -> Self {
        Self::standard(Bytes::new(9000))
    }

    /// Builder: carry IPv6 instead of IPv4.
    pub fn with_ipv6(mut self) -> Self {
        self.addr_family = AddrFamily::V6;
        self
    }

    /// Wire bytes for a payload burst: payload plus per-packet IP/TCP
    /// headers at the configured family.
    pub fn wire_bytes(&self, payload: Bytes) -> Bytes {
        let pkts = payload.packets_at_mtu(self.mtu);
        Bytes::new(payload.as_u64() + pkts * self.addr_family.header_bytes())
    }

    /// Enable BIG TCP at `size` (both GSO and GRO). Panics if the
    /// kernel does not support BIG TCP for the configured address
    /// family or the size is out of range — invalid experiment
    /// definitions should fail loudly.
    pub fn with_big_tcp(mut self, size: Bytes, kernel: KernelVersion) -> Self {
        match self.addr_family {
            AddrFamily::V4 => assert!(
                kernel.supports_big_tcp_ipv4(),
                "kernel {kernel} lacks BIG TCP for IPv4 (needs >= 6.3)"
            ),
            AddrFamily::V6 => assert!(
                kernel.supports_big_tcp_ipv6(),
                "kernel {kernel} lacks BIG TCP for IPv6 (needs >= 5.19)"
            ),
        }
        assert!(
            size > DEFAULT_GSO_SIZE && size <= MAX_BIG_TCP_SIZE,
            "BIG TCP size must be in (64 KB, 512 KB]"
        );
        self.gso_max_size = size;
        self.gro_max_size = size;
        self
    }

    /// Build the custom kernel: `CONFIG_MAX_SKB_FRAGS=45`.
    pub fn with_max_skb_frags(mut self, frags: u32, kernel: KernelVersion) -> Self {
        assert!(
            kernel.supports_max_skb_frags_config(),
            "kernel {kernel} has no CONFIG_MAX_SKB_FRAGS tunable"
        );
        assert!((17..=45).contains(&frags), "MAX_SKB_FRAGS out of supported range");
        self.max_skb_frags = frags;
        self
    }

    /// Enable hardware GRO (needs kernel ≥ 6.11; NIC support is checked
    /// by `HostConfig::validate`).
    pub fn with_hw_gro(mut self, kernel: KernelVersion) -> Self {
        assert!(kernel.supports_hw_gro(), "kernel {kernel} lacks mlx5 hardware GRO");
        self.hw_gro = true;
        self
    }

    /// Is BIG TCP active (super-packets above the stock 64 KB)?
    pub fn big_tcp_active(&self) -> bool {
        self.gso_max_size > DEFAULT_GSO_SIZE || self.gro_max_size > DEFAULT_GSO_SIZE
    }

    /// Can MSG_ZEROCOPY be used together with this offload config?
    ///
    /// Stock kernels: BIG TCP and zerocopy both need skb fragment slots
    /// and cannot be combined (§II-C); a `MAX_SKB_FRAGS=45` build can.
    pub fn zerocopy_compatible(&self) -> bool {
        !self.big_tcp_active() || self.max_skb_frags >= 45
    }

    /// Wire packets per full-size super-packet.
    pub fn packets_per_burst(&self) -> u64 {
        self.gso_max_size.packets_at_mtu(self.mtu)
    }
}

impl simcore::Canonicalize for OffloadConfig {
    fn canonicalize(&self, c: &mut simcore::Canon) {
        c.put_u64("gso_max_size", self.gso_max_size.as_u64());
        c.put_u64("gro_max_size", self.gro_max_size.as_u64());
        c.put_u64("mtu", self.mtu.as_u64());
        c.put_u64("max_skb_frags", self.max_skb_frags as u64);
        c.put_bool("hw_gro", self.hw_gro);
        c.put_str("addr_family", match self.addr_family {
            AddrFamily::V4 => "v4",
            AddrFamily::V6 => "v6",
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_config() {
        let c = OffloadConfig::paper_default();
        assert_eq!(c.gso_max_size, DEFAULT_GSO_SIZE);
        assert_eq!(c.mtu.as_u64(), 9000);
        assert!(!c.big_tcp_active());
        assert!(c.zerocopy_compatible());
        assert_eq!(c.packets_per_burst(), 8); // ceil(65536/9000)
    }

    #[test]
    fn big_tcp_at_paper_size() {
        let c = OffloadConfig::paper_default()
            .with_big_tcp(PAPER_BIG_TCP_SIZE, KernelVersion::L6_8);
        assert!(c.big_tcp_active());
        assert_eq!(c.gso_max_size.as_u64(), 150_000);
        assert!(!c.zerocopy_compatible(), "stock frags: BIG TCP excludes zerocopy");
        assert_eq!(c.packets_per_burst(), 17);
    }

    #[test]
    fn custom_kernel_allows_both() {
        let c = OffloadConfig::paper_default()
            .with_big_tcp(PAPER_BIG_TCP_SIZE, KernelVersion::L6_8)
            .with_max_skb_frags(45, KernelVersion::L6_8);
        assert!(c.zerocopy_compatible());
    }

    #[test]
    #[should_panic(expected = "lacks BIG TCP")]
    fn big_tcp_rejected_on_5_15() {
        let _ = OffloadConfig::paper_default()
            .with_big_tcp(PAPER_BIG_TCP_SIZE, KernelVersion::L5_15);
    }

    #[test]
    #[should_panic(expected = "lacks mlx5 hardware GRO")]
    fn hw_gro_rejected_before_6_11() {
        let _ = OffloadConfig::paper_default().with_hw_gro(KernelVersion::L6_8);
    }

    #[test]
    fn hw_gro_allowed_on_6_11() {
        let c = OffloadConfig::paper_default().with_hw_gro(KernelVersion::L6_11);
        assert!(c.hw_gro);
    }

    #[test]
    #[should_panic(expected = "(64 KB, 512 KB]")]
    fn oversized_big_tcp_rejected() {
        let _ = OffloadConfig::paper_default()
            .with_big_tcp(Bytes::mib(1), KernelVersion::L6_8);
    }

    #[test]
    fn ipv6_adds_header_overhead() {
        let v4 = OffloadConfig::paper_default();
        let v6 = OffloadConfig::paper_default().with_ipv6();
        let payload = Bytes::kib(64);
        let w4 = v4.wire_bytes(payload).as_u64();
        let w6 = v6.wire_bytes(payload).as_u64();
        assert_eq!(w4, 65_536 + 8 * 40);
        assert_eq!(w6, 65_536 + 8 * 60);
        // The whole v4/v6 difference is ~0.2 % of wire bytes at 9000
        // MTU — SII-C's "no significant difference" in miniature.
        assert!((w6 as f64 / w4 as f64) < 1.005);
    }

    #[test]
    fn big_tcp_v6_gate() {
        // IPv6 BIG TCP is fine on 6.5 (landed in 5.19).
        let c = OffloadConfig::paper_default()
            .with_ipv6()
            .with_big_tcp(PAPER_BIG_TCP_SIZE, KernelVersion::L6_5);
        assert!(c.big_tcp_active());
    }

    #[test]
    fn mtu_1500_burst_packets() {
        let c = OffloadConfig::standard(Bytes::new(1500));
        assert_eq!(c.packets_per_burst(), 44); // ceil(65536/1500)
    }
}
