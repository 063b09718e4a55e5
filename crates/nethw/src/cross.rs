//! Bursty background ("cross") traffic.
//!
//! AmLight's WAN paths carried ≈ 16 Gbps of production traffic during
//! the paper's experiments (§III-E), and the authors attribute the
//! failure of *unpaced* zerocopy to reach full rate on the WAN to
//! micro-bursts from that traffic (§IV-C, Fig. 11). We model it as an
//! on/off Markov process: exponentially distributed ON periods during
//! which the aggregate transmits at a configurable burst rate into the
//! bottleneck egress port, and exponential OFF gaps, with the long-run
//! average matching the configured mean rate.

use simcore::{BitRate, SimDuration};

/// Configuration of a cross-traffic aggregate.
#[derive(Debug, Clone, Copy)]
pub struct CrossTrafficSpec {
    /// Long-run average offered rate (paper: ~16 Gbps).
    pub mean_rate: BitRate,
    /// Instantaneous rate while a burst is on the wire. Production
    /// traffic is many 10G-ish flows; bursts arrive near line rate of
    /// the senders feeding the path.
    pub burst_rate: BitRate,
    /// Mean duration of an ON burst.
    pub mean_burst: SimDuration,
}

impl CrossTrafficSpec {
    /// AmLight production-traffic profile used in the reproduction:
    /// 16 Gbps average arriving as ~40 Gbps micro-bursts of ~2 ms.
    pub fn amlight_production() -> Self {
        CrossTrafficSpec {
            mean_rate: BitRate::gbps(16.0),
            burst_rate: BitRate::gbps(40.0),
            mean_burst: SimDuration::from_millis(2),
        }
    }

    /// Duty cycle implied by the spec (fraction of time ON).
    pub fn duty_cycle(&self) -> f64 {
        (self.mean_rate.as_bps() / self.burst_rate.as_bps()).min(1.0)
    }

    /// Mean OFF-gap duration that yields the configured average rate.
    pub fn mean_gap(&self) -> SimDuration {
        let duty = self.duty_cycle();
        if duty >= 1.0 {
            return SimDuration::ZERO;
        }
        self.mean_burst.mul_f64((1.0 - duty) / duty)
    }
}

impl simcore::Canonicalize for CrossTrafficSpec {
    fn canonicalize(&self, c: &mut simcore::Canon) {
        c.put_f64("mean_rate_bps", self.mean_rate.as_bps());
        c.put_f64("burst_rate_bps", self.burst_rate.as_bps());
        c.put_u64("mean_burst_ns", self.mean_burst.as_nanos());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duty_cycle_and_gap() {
        let spec = CrossTrafficSpec::amlight_production();
        assert!((spec.duty_cycle() - 0.4).abs() < 1e-12);
        // gap = 2 ms * 0.6/0.4 = 3 ms.
        assert_eq!(spec.mean_gap().as_nanos(), 3_000_000);
    }
}
