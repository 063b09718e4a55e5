//! MSG_ZEROCOPY completion accounting.
//!
//! A `sendmsg(MSG_ZEROCOPY)` pins the user pages and, when the data is
//! finally ACKed, posts a completion notification on the socket error
//! queue. The memory charged for pending notifications is bounded by
//! `net.core.optmem_max`; when the budget is exhausted **the kernel
//! silently falls back to copying** (the completion carries
//! `SO_EE_CODE_ZEROCOPY_COPIED`). A fallback send is *worse* than a
//! plain copy: it pays the copy plus the pin attempt and notification
//! machinery.
//!
//! This is the mechanism behind Fig. 9: on a 104 ms path at 50 Gbps the
//! flow keeps ~650 MB in flight; with `optmem_max = 1 MB` only ~300 MB
//! of sends can hold a pending notification, so roughly half the bytes
//! are silently copied and the sender burns CPU. At ~3.25 MB the whole
//! window fits and the path runs at the paced rate with minimal CPU.

use crate::kernel::KernelVersion;
use simcore::Bytes;

/// Effective `optmem` charge per in-flight zerocopy send on 5.x/6.5
/// kernels.
///
/// The kernel charges the truesize of the error-queue skb; consecutive
/// completions coalesce, so the *effective* cost per 64 KB burst is
/// well below a full skb. The pinned window of a busy sender is about
/// *twice* the BDP (send-buffer autotuning writes ahead of the wire by
/// ~2×cwnd), so 185 bytes/burst — ≈ 370 MB of pinned data per MB of
/// optmem — reproduces the Fig. 9 crossover on kernel 6.5: 1 MB covers
/// the 25/54 ms windows (~50 Gbps) but leaves the 104 ms path in a
/// copy-fallback equilibrium near 40 Gbps, and 3.25 MB (~1.2 GB
/// pinned) restores full rate everywhere.
pub const NOTIFICATION_CHARGE: Bytes = Bytes::new(185);

/// Effective charge on 6.8+, where completion coalescing is more
/// aggressive — the paper notes optmem behaviour "didn't have
/// consistent behaviour across all kernel versions" (§IV-B), and the
/// Fig. 5 results (kernel 6.8) sustain 50 Gbps at 104 ms with the
/// 1 MB setting (2×BDP ≈ 1.3 GB pinned).
pub const NOTIFICATION_CHARGE_68: Bytes = Bytes::new(40);

/// The per-send charge for a given kernel.
pub fn notification_charge(kernel: KernelVersion) -> Bytes {
    if kernel >= KernelVersion::L6_8 {
        NOTIFICATION_CHARGE_68
    } else {
        NOTIFICATION_CHARGE
    }
}

/// How a given send was executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// Pages pinned; no copy. Completion pending until ACKed.
    Zerocopy,
    /// Budget exhausted: data copied despite MSG_ZEROCOPY
    /// (`SO_EE_CODE_ZEROCOPY_COPIED`).
    CopiedFallback,
}

/// Per-socket zerocopy accounting state.
#[derive(Debug, Clone)]
pub struct ZerocopyAccounting {
    optmem_max: Bytes,
    charge: Bytes,
    charged: Bytes,
    /// Sends that ran true zerocopy.
    zerocopy_sends: u64,
    /// Sends that fell back to copying.
    fallback_sends: u64,
}

impl ZerocopyAccounting {
    /// New accounting against the given `optmem_max`, with the 5.x/6.5
    /// per-send charge.
    pub fn new(optmem_max: Bytes) -> Self {
        Self::with_charge(optmem_max, NOTIFICATION_CHARGE)
    }

    /// Accounting with the kernel-appropriate charge.
    pub fn for_kernel(optmem_max: Bytes, kernel: KernelVersion) -> Self {
        Self::with_charge(optmem_max, notification_charge(kernel))
    }

    /// Accounting with an explicit per-send charge.
    pub fn with_charge(optmem_max: Bytes, charge: Bytes) -> Self {
        assert!(!charge.is_zero(), "charge must be positive");
        ZerocopyAccounting {
            optmem_max,
            charge,
            charged: Bytes::ZERO,
            zerocopy_sends: 0,
            fallback_sends: 0,
        }
    }

    /// Attempt a zerocopy send. Returns the outcome; on
    /// [`SendOutcome::Zerocopy`] the charge stays outstanding until
    /// [`Self::complete`] is called (when the burst is fully ACKed).
    pub fn try_send(&mut self) -> SendOutcome {
        let after = self.charged + self.charge;
        if after > self.optmem_max {
            self.fallback_sends += 1;
            SendOutcome::CopiedFallback
        } else {
            self.charged = after;
            self.zerocopy_sends += 1;
            SendOutcome::Zerocopy
        }
    }

    /// Release the charge for one completed zerocopy send.
    pub fn complete(&mut self) {
        debug_assert!(
            self.charged >= self.charge,
            "completing more zerocopy sends than outstanding"
        );
        self.charged = self.charged.saturating_sub(self.charge);
    }

    /// Count of true zerocopy sends.
    pub fn zerocopy_sends(&self) -> u64 {
        self.zerocopy_sends
    }

    /// Count of fallback (copied) sends.
    pub fn fallback_sends(&self) -> u64 {
        self.fallback_sends
    }

    /// Fraction of sends that fell back, in `[0, 1]`.
    pub fn fallback_fraction(&self) -> f64 {
        let total = self.zerocopy_sends + self.fallback_sends;
        if total == 0 { 0.0 } else { self.fallback_sends as f64 / total as f64 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Payload bytes that `optmem_max` lets be in flight as true
    /// zerocopy with `burst`-sized sends: sends until the first
    /// fallback, none completed.
    fn max_pinned_bytes(optmem_max: Bytes, burst: Bytes) -> Bytes {
        let mut acct = ZerocopyAccounting::new(optmem_max);
        let mut sends = 0;
        while acct.try_send() == SendOutcome::Zerocopy {
            sends += 1;
        }
        Bytes::new(sends * burst.as_u64())
    }

    #[test]
    fn charges_until_budget_then_falls_back() {
        // Budget for exactly 4 notifications.
        let mut acct = ZerocopyAccounting::new(Bytes::new(4 * 185));
        for _ in 0..4 {
            assert_eq!(acct.try_send(), SendOutcome::Zerocopy);
        }
        assert_eq!(acct.try_send(), SendOutcome::CopiedFallback);
        assert_eq!(acct.zerocopy_sends(), 4);
        assert_eq!(acct.fallback_sends(), 1);
        acct.complete();
        assert_eq!(acct.try_send(), SendOutcome::Zerocopy);
    }

    #[test]
    fn paper_scale_1mb_pins_370mb() {
        let pinned = max_pinned_bytes(Bytes::mib(1), Bytes::kib(64));
        let mb = pinned.as_f64() / 1e6;
        // Covers the 54 ms BDP at 50 Gbps (~340 MB) but only ~60 % of
        // the 104 ms one — the Fig. 9 plateau at ~40 Gbps.
        assert!(
            (340.0..400.0).contains(&mb),
            "1 MB optmem should sustain ~370 MB pinned, got {mb:.0} MB"
        );
    }

    #[test]
    fn paper_scale_3_25mb_covers_104ms_pinned_window() {
        let pinned = max_pinned_bytes(Bytes::new(3_405_376), Bytes::kib(64));
        // The 104 ms BDP at 50 Gbps plus write-ahead ≈ 1.2 GB; 3.25 MB
        // must cover it.
        assert!(pinned.as_u64() > 1_150_000_000, "got {} pinned", pinned);
    }

    #[test]
    fn default_20kb_is_tiny() {
        let pinned = max_pinned_bytes(Bytes::kib(20), Bytes::kib(64));
        assert!(pinned.as_u64() < 20_000_000, "20 KB optmem must pin < 20 MB");
    }

    #[test]
    fn fallback_fraction() {
        let mut acct = ZerocopyAccounting::new(Bytes::new(185));
        assert_eq!(acct.fallback_fraction(), 0.0);
        acct.try_send();
        acct.try_send();
        assert!((acct.fallback_fraction() - 0.5).abs() < 1e-12);
    }
}
