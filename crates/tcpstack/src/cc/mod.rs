//! Congestion-control algorithms.
//!
//! The paper runs CUBIC for all reported results and notes (§IV-F)
//! that BBRv1/BBRv3 performed similarly on their loss-free testbeds,
//! ramped faster on the WAN, retransmitted more (especially BBRv1),
//! and benefited strongly from pacing in parallel-stream runs. All
//! three are provided so those comparisons can be reproduced.

pub mod bbr;
pub mod cubic;
pub mod htcp;

use simcore::{BitRate, Bytes, SimDuration, SimTime};

pub use bbr::Bbr;
pub use cubic::Cubic;
pub use htcp::Htcp;

/// Hard congestion-window floor, in segments. No response — loss cut,
/// RTO, or a BBRv3 inflight cap — may leave the window below two MSS
/// (RFC 5681's loss-window minimum, which Linux also enforces for its
/// loss-based controllers). `tests/cc_differential.rs` pins this as a
/// shared invariant across every [`CcAlgorithm`].
pub const MIN_CWND_SEGMENTS: u64 = 2;

/// Selector for a congestion-control algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CcAlgorithm {
    /// CUBIC (Linux default; the paper's choice).
    #[default]
    Cubic,
    /// BBR version 1.
    BbrV1,
    /// BBR version 3 (simplified: loss response, inflight bounds,
    /// probe headroom, faster ProbeRTT cadence).
    BbrV3,
    /// H-TCP (RTT-scaled additive increase, adaptive backoff).
    Htcp,
}

/// A congestion-control name that matches no known algorithm.
///
/// Scenario loaders must surface this as a typed error — silently
/// falling back to CUBIC would run (and cache) the wrong controller
/// under the requested label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownCcError {
    /// The name that failed to parse.
    pub name: String,
}

impl std::fmt::Display for UnknownCcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown congestion-control algorithm {:?} (expected one of: {})",
            self.name,
            CcAlgorithm::ALL
                .iter()
                .map(|a| a.name())
                .collect::<Vec<_>>()
                .join(", ")
        )
    }
}

impl std::error::Error for UnknownCcError {}

impl CcAlgorithm {
    /// Every supported algorithm, in sweep order.
    pub const ALL: [CcAlgorithm; 4] =
        [CcAlgorithm::Cubic, CcAlgorithm::BbrV1, CcAlgorithm::BbrV3, CcAlgorithm::Htcp];

    /// Instantiate the algorithm. `mss` is the wire segment size,
    /// `init_cwnd` the initial window in bytes.
    pub fn build(self, mss: Bytes, init_cwnd: Bytes) -> Cc {
        match self {
            CcAlgorithm::Cubic => Cc::Cubic(Cubic::new(mss, init_cwnd)),
            CcAlgorithm::BbrV1 => Cc::Bbr(Bbr::v1(mss, init_cwnd)),
            CcAlgorithm::BbrV3 => Cc::Bbr(Bbr::v3(mss, init_cwnd)),
            CcAlgorithm::Htcp => Cc::Htcp(Htcp::new(mss, init_cwnd)),
        }
    }

    /// sysctl-style name.
    pub fn name(self) -> &'static str {
        match self {
            CcAlgorithm::Cubic => "cubic",
            CcAlgorithm::BbrV1 => "bbr",
            CcAlgorithm::BbrV3 => "bbr3",
            CcAlgorithm::Htcp => "htcp",
        }
    }
}

impl std::fmt::Display for CcAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for CcAlgorithm {
    type Err = UnknownCcError;

    /// Parse a sysctl-style name; the exact inverse of
    /// [`CcAlgorithm::name`]. Unknown names are a typed error, never a
    /// default.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        CcAlgorithm::ALL
            .iter()
            .copied()
            .find(|a| a.name() == s)
            .ok_or_else(|| UnknownCcError { name: s.to_string() })
    }
}

/// The interface `TcpSender` drives.
pub trait CongestionControl: std::fmt::Debug + Send {
    /// Bytes newly acknowledged; `rtt` is the sample for this ACK (if
    /// usable), `inflight` the bytes outstanding after the ACK.
    /// `cwnd_limited` reports whether the flow was actually using its
    /// whole window — loss-based algorithms must not grow cwnd while
    /// application- or pacing-limited (Linux's `is_cwnd_limited`).
    fn on_ack(
        &mut self,
        acked: Bytes,
        rtt: Option<SimDuration>,
        now: SimTime,
        inflight: Bytes,
        cwnd_limited: bool,
    );

    /// A loss episode began (at most once per round trip).
    fn on_loss(&mut self, now: SimTime);

    /// Retransmission timeout fired.
    fn on_rto(&mut self, now: SimTime);

    /// Current congestion window in bytes.
    fn cwnd(&self) -> Bytes;

    /// Slow-start threshold, for `ss -tin`-style telemetry. `None`
    /// when the algorithm has no meaningful ssthresh yet (pre-loss
    /// CUBIC reports TCP_INFINITE_SSTHRESH; model-based BBR has none).
    fn ssthresh(&self) -> Option<Bytes> {
        None
    }

    /// Whether the algorithm is still in its startup phase.
    fn in_slow_start(&self) -> bool;

    /// The rate TCP paces itself at through fq (before any `--fq-rate`
    /// cap). `srtt` is the current smoothed RTT.
    fn pacing_rate(&self, srtt: SimDuration) -> BitRate;

    /// Algorithm name.
    fn name(&self) -> &'static str;
}

/// A built controller: one of the algorithms behind
/// [`CongestionControl`], stored inline and dispatched by `match`.
///
/// A sender owns its controller by value, so building one allocates
/// nothing and `Clone` is a plain deep copy (the checkpoint/resume
/// snapshot of a running simulation).
#[derive(Debug, Clone)]
pub enum Cc {
    /// CUBIC.
    Cubic(Cubic),
    /// BBRv1 or BBRv3 (the version lives in the state).
    Bbr(Bbr),
    /// H-TCP.
    Htcp(Htcp),
}

/// Forward one call to whichever algorithm `$cc` holds.
macro_rules! dispatch {
    ($cc:expr, $c:ident => $call:expr) => {
        match $cc {
            Cc::Cubic($c) => $call,
            Cc::Bbr($c) => $call,
            Cc::Htcp($c) => $call,
        }
    };
}

impl CongestionControl for Cc {
    #[inline]
    fn on_ack(
        &mut self,
        acked: Bytes,
        rtt: Option<SimDuration>,
        now: SimTime,
        inflight: Bytes,
        cwnd_limited: bool,
    ) {
        dispatch!(self, c => c.on_ack(acked, rtt, now, inflight, cwnd_limited))
    }

    #[inline]
    fn on_loss(&mut self, now: SimTime) {
        dispatch!(self, c => c.on_loss(now))
    }

    #[inline]
    fn on_rto(&mut self, now: SimTime) {
        dispatch!(self, c => c.on_rto(now))
    }

    #[inline]
    fn cwnd(&self) -> Bytes {
        dispatch!(self, c => c.cwnd())
    }

    #[inline]
    fn ssthresh(&self) -> Option<Bytes> {
        dispatch!(self, c => c.ssthresh())
    }

    #[inline]
    fn in_slow_start(&self) -> bool {
        dispatch!(self, c => c.in_slow_start())
    }

    #[inline]
    fn pacing_rate(&self, srtt: SimDuration) -> BitRate {
        dispatch!(self, c => c.pacing_rate(srtt))
    }

    #[inline]
    fn name(&self) -> &'static str {
        dispatch!(self, c => c.name())
    }
}

/// Shared helper: rate = window / srtt × ratio.
pub(crate) fn window_rate(cwnd: Bytes, srtt: SimDuration, ratio: f64) -> BitRate {
    if srtt.is_zero() {
        return BitRate::gbps(1000.0); // effectively unpaced until an RTT exists
    }
    BitRate::from_bps(cwnd.bits() as f64 / srtt.as_secs_f64() * ratio)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_each_algorithm() {
        let mss = Bytes::new(9000);
        let iw = Bytes::kib(128);
        for (alg, name) in [
            (CcAlgorithm::Cubic, "cubic"),
            (CcAlgorithm::BbrV1, "bbr"),
            (CcAlgorithm::BbrV3, "bbr3"),
            (CcAlgorithm::Htcp, "htcp"),
        ] {
            let cc = alg.build(mss, iw);
            assert_eq!(cc.name(), name);
            assert_eq!(alg.name(), name);
            assert!(cc.cwnd() >= iw);
            assert!(cc.in_slow_start());
        }
    }

    #[test]
    fn name_parse_round_trips_every_algorithm() {
        for alg in CcAlgorithm::ALL {
            let rendered = alg.to_string();
            assert_eq!(rendered, alg.name());
            let parsed: CcAlgorithm = rendered.parse().expect("round-trip");
            assert_eq!(parsed, alg);
        }
    }

    #[test]
    fn unknown_name_is_a_typed_error_not_a_fallback() {
        for bad in ["reno", "CUBIC", "bbr2", ""] {
            let err = bad.parse::<CcAlgorithm>().unwrap_err();
            assert_eq!(err.name, bad);
            let msg = err.to_string();
            assert!(msg.contains("unknown congestion-control"), "message: {msg}");
            assert!(msg.contains("htcp"), "message must list the options: {msg}");
        }
    }

    #[test]
    fn window_rate_math() {
        let r = window_rate(Bytes::new(1_250_000), SimDuration::from_millis(1), 1.0);
        assert!((r.as_gbps() - 10.0).abs() < 1e-9);
        let r2 = window_rate(Bytes::new(1_250_000), SimDuration::from_millis(1), 1.2);
        assert!((r2.as_gbps() - 12.0).abs() < 1e-9);
        // Zero srtt: effectively unlimited.
        assert!(window_rate(Bytes::kib(64), SimDuration::ZERO, 2.0).as_gbps() > 500.0);
    }
}
