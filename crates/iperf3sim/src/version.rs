//! iperf3 versions and patch levels.

use std::fmt;

/// Which iperf3 build is "installed" on the hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Iperf3Version {
    /// Minor version of the 3.x series (13, 16, 17, …).
    pub minor: u32,
    /// Patch #1690 applied (`--skip-rx-copy`, `--zerocopy=z`).
    pub patch_1690: bool,
    /// Patch #1728 applied (`--fq-rate` above 32 Gbps).
    pub patch_1728: bool,
}

impl Iperf3Version {
    /// The paper's build: v3.17 + #1690 + #1728 (§III-B).
    pub fn paper_patched() -> Self {
        Iperf3Version { minor: 17, patch_1690: true, patch_1728: true }
    }

    /// Parallel streams run as real threads (one core each) from 3.16.
    pub fn multithreaded(&self) -> bool {
        self.minor >= 16
    }

    /// `--zerocopy=z` / `--skip-rx-copy` available.
    pub fn has_msg_zerocopy_flags(&self) -> bool {
        self.patch_1690
    }

    /// `--fq-rate` accepted above 32 Gbps.
    pub fn fq_rate_above_32g(&self) -> bool {
        self.patch_1728
    }
}

impl Default for Iperf3Version {
    fn default() -> Self {
        Self::paper_patched()
    }
}

impl simcore::Canonicalize for Iperf3Version {
    fn canonicalize(&self, c: &mut simcore::Canon) {
        c.put_u64("minor", self.minor as u64);
        c.put_bool("patch_1690", self.patch_1690);
        c.put_bool("patch_1728", self.patch_1728);
    }
}

impl fmt::Display for Iperf3Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "iperf 3.{}", self.minor)?;
        if self.patch_1690 {
            write!(f, "+p1690")?;
        }
        if self.patch_1728 {
            write!(f, "+p1728")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_capabilities() {
        let old = Iperf3Version { minor: 13, patch_1690: false, patch_1728: false };
        assert!(!old.multithreaded());
        assert!(!old.has_msg_zerocopy_flags());
        let paper = Iperf3Version::paper_patched();
        assert!(paper.multithreaded());
        assert!(paper.has_msg_zerocopy_flags());
        assert!(paper.fq_rate_above_32g());
        let stock = Iperf3Version { patch_1690: false, patch_1728: false, ..paper };
        assert!(!stock.has_msg_zerocopy_flags());
    }

    #[test]
    fn display_shows_patches() {
        assert_eq!(Iperf3Version::paper_patched().to_string(), "iperf 3.17+p1690+p1728");
        let stock = Iperf3Version { minor: 16, patch_1690: false, patch_1728: false };
        assert_eq!(stock.to_string(), "iperf 3.16");
    }
}
