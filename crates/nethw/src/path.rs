//! End-to-end path specification.
//!
//! An experiment runs over one [`PathSpec`]: the paper's paths are the
//! AmLight LAN and its 25/54/104 ms WAN loops (testing capped at
//! 80 Gbps to protect production traffic, with ~16 Gbps of production
//! background), and the ESnet testbed LAN/WAN plus the production DTN
//! path at 63 ms with 802.3x flow control.

use crate::cross::CrossTrafficSpec;
use simcore::{BitRate, Bytes, SimDuration};

/// LAN vs WAN, used for reporting and default tuning choices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathClass {
    /// Same-site, sub-millisecond RTT.
    Lan,
    /// Wide-area path.
    Wan,
}

/// A single network path between two hosts.
#[derive(Debug, Clone)]
pub struct PathSpec {
    /// Display name, e.g. `"AmLight 104ms"`.
    pub name: String,
    /// LAN or WAN.
    pub class: PathClass,
    /// Round-trip time (propagation only).
    pub rtt: SimDuration,
    /// Bottleneck egress rate of the path (switch port or WAN circuit).
    pub bottleneck: BitRate,
    /// Administrative cap below the physical bottleneck, if any
    /// (AmLight WAN tests were limited to 80 Gbps).
    pub policy_cap: Option<BitRate>,
    /// Shared buffer at the bottleneck switch.
    pub switch_buffer: Bytes,
    /// IEEE 802.3x flow control available end-to-end.
    pub flow_control: bool,
    /// Background production traffic sharing the bottleneck.
    pub cross_traffic: Option<CrossTrafficSpec>,
    /// Per-burst random loss probability on the WAN segment (transient
    /// errors on long production paths; 0 on clean testbeds).
    pub random_loss: f64,
    /// WRED-style AQM at the bottleneck (production transit gear);
    /// testbed switches are plain tail-drop.
    pub red: bool,
}

impl PathSpec {
    /// A clean LAN path at the given rate with a 64 MB shared buffer.
    pub fn lan(name: impl Into<String>, rate: BitRate) -> Self {
        PathSpec {
            name: name.into(),
            class: PathClass::Lan,
            rtt: SimDuration::from_micros(100),
            bottleneck: rate,
            policy_cap: None,
            switch_buffer: Bytes::mib(64),
            flow_control: false,
            cross_traffic: None,
            random_loss: 0.0,
            red: false,
        }
    }

    /// A clean WAN path.
    pub fn wan(name: impl Into<String>, rate: BitRate, rtt: SimDuration) -> Self {
        PathSpec {
            name: name.into(),
            class: PathClass::Wan,
            rtt,
            bottleneck: rate,
            policy_cap: None,
            switch_buffer: Bytes::mib(64),
            flow_control: false,
            cross_traffic: None,
            random_loss: 0.0,
            red: false,
        }
    }

    /// Builder: apply an administrative rate cap.
    pub fn with_policy_cap(mut self, cap: BitRate) -> Self {
        self.policy_cap = Some(cap);
        self
    }

    /// Builder: enable 802.3x flow control.
    pub fn with_flow_control(mut self) -> Self {
        self.flow_control = true;
        self
    }

    /// Builder: add background cross traffic.
    pub fn with_cross_traffic(mut self, spec: CrossTrafficSpec) -> Self {
        self.cross_traffic = Some(spec);
        self
    }

    /// Builder: set per-burst random loss probability.
    pub fn with_random_loss(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "loss probability out of range");
        self.random_loss = p;
        self
    }

    /// Builder: set the shared switch buffer size.
    pub fn with_switch_buffer(mut self, buf: Bytes) -> Self {
        self.switch_buffer = buf;
        self
    }

    /// One-way propagation delay (RTT / 2).
    pub fn one_way_delay(&self) -> SimDuration {
        self.rtt / 2
    }

    /// The rate actually available to test traffic: the physical
    /// bottleneck clipped by any policy cap.
    pub fn usable_rate(&self) -> BitRate {
        match self.policy_cap {
            Some(cap) => self.bottleneck.min(cap),
            None => self.bottleneck,
        }
    }

    /// Bandwidth-delay product at the usable rate — the window a single
    /// flow needs to fill the path.
    pub fn bdp(&self) -> Bytes {
        self.usable_rate().bdp(self.rtt)
    }
}

impl simcore::Canonicalize for PathSpec {
    /// `name` is display-only and excluded: renaming a path must not
    /// re-seed or re-simulate the scenarios that run over it.
    fn canonicalize(&self, c: &mut simcore::Canon) {
        c.put_str("class", &format!("{:?}", self.class));
        c.put_u64("rtt_ns", self.rtt.as_nanos());
        c.put_f64("bottleneck_bps", self.bottleneck.as_bps());
        match self.policy_cap {
            None => c.put_str("policy_cap_bps", "none"),
            Some(cap) => c.put_f64("policy_cap_bps", cap.as_bps()),
        }
        c.put_u64("switch_buffer_bytes", self.switch_buffer.as_u64());
        c.put_bool("flow_control", self.flow_control);
        match &self.cross_traffic {
            None => c.put_str("cross_traffic", "none"),
            Some(spec) => c.scope("cross_traffic", |c| spec.canonicalize(c)),
        }
        c.put_f64("random_loss", self.random_loss);
        c.put_bool("red", self.red);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lan_defaults() {
        let p = PathSpec::lan("lan", BitRate::gbps(100.0));
        assert_eq!(p.class, PathClass::Lan);
        assert!(p.rtt < SimDuration::from_millis(1));
        assert!(!p.flow_control);
        assert_eq!(p.usable_rate().as_gbps(), 100.0);
        assert_eq!(p.class, PathClass::Lan);
    }

    #[test]
    fn policy_cap_clips_usable_rate() {
        let p = PathSpec::wan("w", BitRate::gbps(100.0), SimDuration::from_millis(104))
            .with_policy_cap(BitRate::gbps(80.0));
        assert_eq!(p.usable_rate().as_gbps(), 80.0);
    }

    #[test]
    fn bdp_scales_with_rtt() {
        let p = PathSpec::wan("w", BitRate::gbps(50.0), SimDuration::from_millis(104));
        assert_eq!(p.bdp().as_u64(), 650_000_000);
        assert_eq!(p.one_way_delay().as_nanos(), 52_000_000);
    }

    #[test]
    fn builders_compose() {
        let p = PathSpec::wan("w", BitRate::gbps(100.0), SimDuration::from_millis(63))
            .with_flow_control()
            .with_cross_traffic(CrossTrafficSpec::amlight_production())
            .with_random_loss(1e-6)
            .with_switch_buffer(Bytes::mib(32));
        assert!(p.flow_control);
        assert!(p.cross_traffic.is_some());
        assert!(p.random_loss > 0.0);
        assert_eq!(p.switch_buffer, Bytes::mib(32));
        assert_eq!(p.class, PathClass::Wan);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_loss_probability_rejected() {
        let _ = PathSpec::lan("l", BitRate::gbps(1.0)).with_random_loss(1.5);
    }
}
