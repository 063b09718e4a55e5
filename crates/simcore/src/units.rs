//! Strongly-typed data sizes and rates.
//!
//! Throughput in this workspace is always a [`BitRate`] (bits per second,
//! the unit the paper reports: Gbps) and data volumes are [`Bytes`].
//! Mixing the two — the classic factor-of-8 bug — is a type error.

use crate::time::{ceil_f64_u64, floor_f64_u64, u64_to_f64, SimDuration};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A count of bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// Construct from a raw byte count.
    #[inline]
    pub const fn new(n: u64) -> Self {
        Bytes(n)
    }

    /// Construct from kibibytes (1024 B).
    #[inline]
    pub const fn kib(n: u64) -> Self {
        Bytes(n * 1024)
    }

    /// Construct from mebibytes (1024² B).
    #[inline]
    pub const fn mib(n: u64) -> Self {
        Bytes(n * 1024 * 1024)
    }

    /// Construct from gibibytes (1024³ B).
    #[inline]
    pub const fn gib(n: u64) -> Self {
        Bytes(n * 1024 * 1024 * 1024)
    }

    /// Raw byte count.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Byte count as `f64`.
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Bit count (×8).
    #[inline]
    pub const fn bits(self) -> u64 {
        self.0 * 8
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(other.0))
    }

    /// The smaller of two sizes.
    #[inline]
    pub fn min(self, other: Bytes) -> Bytes {
        Bytes(self.0.min(other.0))
    }

    /// The larger of two sizes.
    #[inline]
    pub fn max(self, other: Bytes) -> Bytes {
        Bytes(self.0.max(other.0))
    }

    /// True if zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Number of MTU-sized wire packets needed to carry this payload
    /// (ceiling division). This is what retransmit counters count.
    #[inline]
    pub fn packets_at_mtu(self, mtu: Bytes) -> u64 {
        debug_assert!(mtu.0 > 0, "MTU must be positive");
        self.0.div_ceil(mtu.0)
    }
}

impl Add for Bytes {
    type Output = Bytes;
    #[inline]
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    #[inline]
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    #[inline]
    fn sub(self, rhs: Bytes) -> Bytes {
        debug_assert!(self.0 >= rhs.0, "Bytes subtraction underflow");
        Bytes(self.0 - rhs.0)
    }
}

impl SubAssign for Bytes {
    #[inline]
    fn sub_assign(&mut self, rhs: Bytes) {
        debug_assert!(self.0 >= rhs.0, "Bytes subtraction underflow");
        self.0 -= rhs.0;
    }
}

impl std::ops::Mul<u64> for Bytes {
    type Output = Bytes;
    #[inline]
    fn mul(self, rhs: u64) -> Bytes {
        Bytes(self.0 * rhs)
    }
}

impl std::ops::Div<u64> for Bytes {
    type Output = Bytes;
    #[inline]
    fn div(self, rhs: u64) -> Bytes {
        Bytes(self.0 / rhs)
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        Bytes(iter.map(|b| b.0).sum())
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.0 as f64;
        if self.0 >= 1 << 30 {
            write!(f, "{:.2} GiB", n / (1u64 << 30) as f64)
        } else if self.0 >= 1 << 20 {
            write!(f, "{:.2} MiB", n / (1u64 << 20) as f64)
        } else if self.0 >= 1 << 10 {
            write!(f, "{:.2} KiB", n / 1024.0)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

/// A data rate in bits per second.
///
/// Stored as `f64` bits/s: rates are the product of calibration constants
/// and don't need exact integer arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct BitRate(f64);

impl BitRate {
    /// Zero rate.
    pub const ZERO: BitRate = BitRate(0.0);

    /// Construct from bits per second.
    #[inline]
    pub fn from_bps(bps: f64) -> Self {
        debug_assert!(bps >= 0.0 && bps.is_finite(), "rate must be finite and >= 0");
        BitRate(bps)
    }

    /// Construct from gigabits per second (the paper's unit).
    #[inline]
    pub fn gbps(g: f64) -> Self {
        Self::from_bps(g * 1e9)
    }

    /// Rate in bits per second.
    #[inline]
    pub fn as_bps(self) -> f64 {
        self.0
    }

    /// Rate in gigabits per second.
    #[inline]
    pub fn as_gbps(self) -> f64 {
        self.0 / 1e9
    }

    /// Rate in bytes per second.
    #[inline]
    pub fn bytes_per_sec(self) -> f64 {
        self.0 / 8.0
    }

    /// Time to serialise `bytes` at this rate.
    ///
    /// Rounds *up* to the next nanosecond: rounding to nearest would
    /// let a small burst serialise faster than line rate (up to half a
    /// nanosecond early per burst, compounding into a link that beats
    /// its own capacity over millions of back-to-back bursts).
    ///
    /// A zero rate would take forever; callers must not ask.
    #[inline]
    pub fn serialize_time(self, bytes: Bytes) -> SimDuration {
        assert!(self.0 > 0.0, "cannot serialise at zero rate");
        SimDuration::from_nanos(ceil_f64_u64(u64_to_f64(bytes.bits()) / self.0 * 1e9))
    }

    /// Bytes transferred in `dur` at this rate.
    #[inline]
    pub fn bytes_in(self, dur: SimDuration) -> Bytes {
        Bytes::new(floor_f64_u64(self.bytes_per_sec() * dur.as_secs_f64()))
    }

    /// Bandwidth-delay product: bytes in flight at this rate over `rtt`.
    #[inline]
    pub fn bdp(self, rtt: SimDuration) -> Bytes {
        self.bytes_in(rtt)
    }

    /// The smaller of two rates.
    #[inline]
    pub fn min(self, other: BitRate) -> BitRate {
        BitRate(self.0.min(other.0))
    }

    /// The larger of two rates.
    #[inline]
    pub fn max(self, other: BitRate) -> BitRate {
        BitRate(self.0.max(other.0))
    }

    /// Scale by a dimensionless factor.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> BitRate {
        debug_assert!(factor >= 0.0, "rate scale must be non-negative");
        BitRate(self.0 * factor)
    }

    /// True if the rate is exactly zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// The configuration problem with serialising bursts at this rate,
    /// naming it `what`, or `None` for a positive, finite rate. A zero,
    /// negative or non-finite rate cannot serialise (`serialize_time`
    /// asserts), so every configured rate is checked here first.
    pub fn check_positive_finite(self, what: &str) -> Option<String> {
        let bps = self.0;
        (!(bps > 0.0 && bps.is_finite()))
            .then(|| format!("{what} must be a positive, finite rate, got {bps} bit/s"))
    }

    /// Compute the average rate of `bytes` over `dur`.
    #[inline]
    pub fn average(bytes: Bytes, dur: SimDuration) -> BitRate {
        if dur.is_zero() {
            return BitRate::ZERO;
        }
        BitRate(bytes.bits() as f64 / dur.as_secs_f64())
    }
}

impl fmt::Display for BitRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e9 {
            write!(f, "{:.2} Gbps", self.0 / 1e9)
        } else if self.0 >= 1e6 {
            write!(f, "{:.2} Mbps", self.0 / 1e6)
        } else if self.0 >= 1e3 {
            write!(f, "{:.2} Kbps", self.0 / 1e3)
        } else {
            write!(f, "{:.0} bps", self.0)
        }
    }
}

impl crate::canon::Canonicalize for Bytes {
    fn canonicalize(&self, c: &mut crate::canon::Canon) {
        c.put_u64("bytes", self.0);
    }
}

impl crate::canon::Canonicalize for BitRate {
    fn canonicalize(&self, c: &mut crate::canon::Canon) {
        c.put_f64("bps", self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_constructors() {
        assert_eq!(Bytes::kib(64).as_u64(), 65_536);
        assert_eq!(Bytes::mib(1).as_u64(), 1_048_576);
        assert_eq!(Bytes::gib(2).as_u64(), 2_147_483_648);
    }

    #[test]
    fn packets_at_mtu_is_ceiling() {
        let mtu = Bytes::new(9000);
        assert_eq!(Bytes::new(9000).packets_at_mtu(mtu), 1);
        assert_eq!(Bytes::new(9001).packets_at_mtu(mtu), 2);
        assert_eq!(Bytes::kib(64).packets_at_mtu(mtu), 8);
        assert_eq!(Bytes::ZERO.packets_at_mtu(mtu), 0);
    }

    #[test]
    fn serialize_time_100g() {
        // 64 KiB at 100 Gbps = 65536*8 / 100e9 s = 5.24288 us.
        let t = BitRate::gbps(100.0).serialize_time(Bytes::kib(64));
        assert_eq!(t.as_nanos(), 5_243);
    }

    #[test]
    fn serialize_time_rounds_up_not_to_nearest() {
        // 1464 B at 100 Gbps = 117.12 ns: round-to-nearest would say
        // 117 ns, i.e. an effective 100.1 Gbps — faster than the link.
        let t = BitRate::gbps(100.0).serialize_time(Bytes::new(1464));
        assert_eq!(t.as_nanos(), 118);
    }

    #[test]
    fn back_to_back_bursts_never_beat_link_capacity() {
        // Property: for any (rate, burst) combination, N back-to-back
        // serialisations take at least as long as the exact time for
        // N bursts, so the effective rate never exceeds the link rate.
        let rates = [1.0, 10.0, 25.0, 100.0, 200.0, 400.0];
        let sizes: [u64; 6] = [64, 1464, 1500, 9000, 65_536, 150_000];
        const N: u64 = 1_000_000;
        for gbps in rates {
            let rate = BitRate::gbps(gbps);
            for size in sizes {
                let burst = Bytes::new(size);
                let per_burst = rate.serialize_time(burst).as_nanos();
                let total_ns = per_burst * N;
                let exact_ns = burst.bits() as f64 * N as f64 / rate.as_bps() * 1e9;
                assert!(
                    total_ns as f64 >= exact_ns,
                    "{N} x {size} B at {gbps} Gbps serialised in {total_ns} ns, \
                     beating the {exact_ns:.0} ns the link needs"
                );
            }
        }
    }

    #[test]
    fn bdp_matches_paper_scale() {
        // 50 Gbps over 104 ms RTT = 650 MB in flight.
        let bdp = BitRate::gbps(50.0).bdp(SimDuration::from_millis(104));
        assert_eq!(bdp.as_u64(), 650_000_000);
    }

    #[test]
    fn average_rate() {
        let r = BitRate::average(Bytes::new(1_250_000_000), SimDuration::from_secs(1));
        assert!((r.as_gbps() - 10.0).abs() < 1e-9);
        assert_eq!(BitRate::average(Bytes::new(5), SimDuration::ZERO), BitRate::ZERO);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", BitRate::gbps(12.5)), "12.50 Gbps");
        assert_eq!(format!("{}", Bytes::kib(64)), "64.00 KiB");
    }

    #[test]
    fn saturating_and_minmax() {
        let a = Bytes::new(10);
        let b = Bytes::new(30);
        assert_eq!(a.saturating_sub(b), Bytes::ZERO);
        assert_eq!(b.saturating_sub(a).as_u64(), 20);
        assert_eq!(a.max(b), b);
        assert_eq!(BitRate::gbps(1.0).min(BitRate::gbps(2.0)).as_gbps(), 1.0);
    }

    #[test]
    fn bytes_in_duration() {
        let b = BitRate::gbps(8.0).bytes_in(SimDuration::from_secs(1));
        assert_eq!(b.as_u64(), 1_000_000_000);
    }
}
