//! Linux kernel versions and their networking feature gates.
//!
//! The paper compares the stock Ubuntu 22.04 kernel (5.15), the HWE
//! kernel (6.5) and the Ubuntu 24.04 kernel (6.8); the AmLight
//! baremetal hosts run Debian 11 (5.10), and §V-C previews 6.11
//! features (hardware GRO on ConnectX-7).

use std::fmt;

/// A Linux kernel version used in the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KernelVersion {
    /// Debian 11 default (AmLight baremetal hosts).
    L5_10,
    /// Ubuntu 22.04 default.
    L5_15,
    /// Ubuntu 22.04 HWE kernel.
    L6_5,
    /// Ubuntu 24.04 default / 22.04 edge HWE.
    L6_8,
    /// Future-work kernel with mlx5 hardware GRO (SHAMPO) re-enabled.
    L6_11,
}

impl KernelVersion {
    /// All versions, oldest first.
    pub const ALL: [KernelVersion; 5] = [
        KernelVersion::L5_10,
        KernelVersion::L5_15,
        KernelVersion::L6_5,
        KernelVersion::L6_8,
        KernelVersion::L6_11,
    ];

    /// The three versions the paper's kernel comparison covers (§III-C).
    pub const STUDY: [KernelVersion; 3] =
        [KernelVersion::L5_15, KernelVersion::L6_5, KernelVersion::L6_8];

    /// BIG TCP for IPv6 landed in 5.19.
    pub fn supports_big_tcp_ipv6(self) -> bool {
        self >= KernelVersion::L6_5
    }

    /// BIG TCP for IPv4 landed in 6.3 (§II-C). The paper found no
    /// IPv4/IPv6 difference and reports IPv4.
    pub fn supports_big_tcp_ipv4(self) -> bool {
        self >= KernelVersion::L6_5
    }

    /// mlx5 hardware GRO (SHAMPO, header/data split) usable from 6.11.
    pub fn supports_hw_gro(self) -> bool {
        self >= KernelVersion::L6_11
    }

    /// Whether `CONFIG_MAX_SKB_FRAGS` is a tunable build option
    /// (needed at 45 to combine BIG TCP with MSG_ZEROCOPY, §II-C).
    pub fn supports_max_skb_frags_config(self) -> bool {
        self >= KernelVersion::L6_5
    }

    /// Human-readable version string.
    pub fn as_str(self) -> &'static str {
        match self {
            KernelVersion::L5_10 => "5.10",
            KernelVersion::L5_15 => "5.15",
            KernelVersion::L6_5 => "6.5",
            KernelVersion::L6_8 => "6.8",
            KernelVersion::L6_11 => "6.11",
        }
    }
}

impl fmt::Display for KernelVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_follows_release_order() {
        assert!(KernelVersion::L5_10 < KernelVersion::L5_15);
        assert!(KernelVersion::L5_15 < KernelVersion::L6_5);
        assert!(KernelVersion::L6_5 < KernelVersion::L6_8);
        assert!(KernelVersion::L6_8 < KernelVersion::L6_11);
    }

    #[test]
    fn feature_gates() {
        assert!(!KernelVersion::L5_15.supports_big_tcp_ipv4());
        assert!(KernelVersion::L6_5.supports_big_tcp_ipv4());
        assert!(KernelVersion::L6_8.supports_big_tcp_ipv6());
        assert!(!KernelVersion::L6_8.supports_hw_gro());
        assert!(KernelVersion::L6_11.supports_hw_gro());
    }

    #[test]
    fn display_matches_paper_names() {
        assert_eq!(KernelVersion::L5_15.to_string(), "5.15");
        assert_eq!(KernelVersion::L6_8.to_string(), "6.8");
    }

    #[test]
    fn study_set_matches_section_iii_c() {
        assert_eq!(KernelVersion::STUDY.len(), 3);
        assert!(KernelVersion::STUDY.contains(&KernelVersion::L5_15));
        assert!(KernelVersion::STUDY.contains(&KernelVersion::L6_5));
        assert!(KernelVersion::STUDY.contains(&KernelVersion::L6_8));
    }
}
