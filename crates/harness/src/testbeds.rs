//! The two testbeds (Figs. 1–2), as calibrated path + host presets.
//!
//! * **AmLight** (Fig. 1): Intel Xeon 6346 hosts with ConnectX-5
//!   (100 GbE), run in the tuned passthrough VM; a LAN segment plus
//!   real WAN loops at 25, 54 and 104 ms that share the path with
//!   ~16 Gbps of production traffic. WAN *testing* was capped at
//!   80 Gbps (a test-design constraint — experiments pace themselves
//!   below it; the physical path is 100 G).
//! * **ESnet** (Fig. 2): AMD EPYC 73F3 hosts with ConnectX-7
//!   (200 GbE) behind an Edgecore AS9716-32D (64 MB shared buffer);
//!   LAN plus an isolated WAN loop (we use 63 ms, matching the
//!   production-DTN RTT the paper quotes — the testbed loop RTT is not
//!   given). No competing traffic (§IV-C), no 802.3x on the switches.
//! * **ESnet production DTNs** (Table III): 100 GbE hosts on the
//!   production backbone at 63 ms, 802.3x flow control on the edge,
//!   light bursty cross traffic on the transit path.

use linuxhost::{CoreAllocation, HostConfig, KernelVersion};
use nethw::{CrossTrafficSpec, PathSpec};
use simcore::{BitRate, Bytes, SimDuration};

/// AmLight path selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AmLightPath {
    /// Same-site 100 G LAN.
    Lan,
    /// WAN loop at 25 ms RTT.
    Wan25ms,
    /// WAN loop at 54 ms RTT.
    Wan54ms,
    /// WAN loop at 104 ms RTT.
    Wan104ms,
}

impl AmLightPath {
    /// All paths, LAN first (the x-axis of Figs. 5, 7, 9, 11, 13).
    pub const ALL: [AmLightPath; 4] =
        [AmLightPath::Lan, AmLightPath::Wan25ms, AmLightPath::Wan54ms, AmLightPath::Wan104ms];

    /// RTT in milliseconds (0 = LAN).
    pub fn rtt_ms(self) -> u64 {
        match self {
            AmLightPath::Lan => 0,
            AmLightPath::Wan25ms => 25,
            AmLightPath::Wan54ms => 54,
            AmLightPath::Wan104ms => 104,
        }
    }

    /// Axis label.
    pub fn label(self) -> &'static str {
        match self {
            AmLightPath::Lan => "LAN",
            AmLightPath::Wan25ms => "25ms",
            AmLightPath::Wan54ms => "54ms",
            AmLightPath::Wan104ms => "104ms",
        }
    }
}

/// ESnet testbed path selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EsnetPath {
    /// 200 G LAN through the AS9716-32D.
    Lan,
    /// The testbed WAN loop (63 ms assumed; see module docs).
    Wan,
}

impl EsnetPath {
    /// Both paths.
    pub const ALL: [EsnetPath; 2] = [EsnetPath::Lan, EsnetPath::Wan];

    /// Axis label.
    pub fn label(self) -> &'static str {
        match self {
            EsnetPath::Lan => "LAN",
            EsnetPath::Wan => "WAN",
        }
    }
}

/// Factory for testbed hosts and paths.
#[derive(Debug, Clone, Copy)]
pub struct Testbeds;

impl Testbeds {
    /// An AmLight host (Intel, CX-5, tuned VM) at the given kernel.
    pub fn amlight_host(kernel: KernelVersion) -> HostConfig {
        HostConfig::amlight_intel(kernel)
    }

    /// An AmLight path.
    pub fn amlight_path(path: AmLightPath) -> PathSpec {
        match path {
            AmLightPath::Lan => PathSpec::lan("AmLight LAN", BitRate::gbps(100.0)),
            wan => PathSpec::wan(
                format!("AmLight {}", wan.label()),
                BitRate::gbps(100.0),
                SimDuration::from_millis(wan.rtt_ms()),
            )
            .with_cross_traffic(CrossTrafficSpec::amlight_production()),
        }
    }

    /// An ESnet testbed host (AMD, CX-7) at the given kernel.
    pub fn esnet_host(kernel: KernelVersion) -> HostConfig {
        HostConfig::esnet_amd(kernel)
    }

    /// An ESnet testbed path.
    pub fn esnet_path(path: EsnetPath) -> PathSpec {
        match path {
            EsnetPath::Lan => PathSpec::lan("ESnet LAN", BitRate::gbps(200.0)),
            EsnetPath::Wan => PathSpec::wan(
                "ESnet WAN",
                BitRate::gbps(200.0),
                SimDuration::from_millis(63),
            ),
        }
    }

    /// An ESnet production DTN host (Table III).
    pub fn prod_dtn_host() -> HostConfig {
        HostConfig::esnet_prod_dtn()
    }

    /// The production DTN path: 100 G, 63 ms, 802.3x at the edge, a
    /// 32 MB transit buffer and light production bursts.
    pub fn prod_dtn_path() -> PathSpec {
        PathSpec::wan("ESnet production 63ms", BitRate::gbps(100.0), SimDuration::from_millis(63))
            .with_flow_control()
            .with_switch_buffer(Bytes::mib(32))
            .with_cross_traffic(CrossTrafficSpec {
                mean_rate: BitRate::gbps(1.5),
                burst_rate: BitRate::gbps(20.0),
                mean_burst: SimDuration::from_millis(2),
            })
    }

    /// An aggregate endpoint standing in for `pairs` identical
    /// host-pairs feeding one shared switch (the `ext_scale`
    /// experiment). Each pair contributes one dedicated IRQ core and
    /// one dedicated app core, so no single host CPU is the contended
    /// resource — only the shared egress below is.
    pub fn fanin_host(pairs: usize) -> HostConfig {
        let n = pairs as u32;
        let mut host = HostConfig::esnet_amd(KernelVersion::L6_8);
        host.name = format!("fanin-{pairs}pair");
        host.cores = CoreAllocation {
            irq_cores: (0..n).collect(),
            app_cores: (n..2 * n).collect(),
            irqbalance: false,
        };
        host
    }

    /// The shared fan-in switch: every pair converges on one 100 G
    /// egress behind a 64 MB shared buffer at a metro 10 ms RTT.
    /// `pause` enables 802.3x at the receiver edge (arrivals park
    /// upstream instead of overflowing the ring).
    pub fn fanin_path(pause: bool) -> PathSpec {
        let p = PathSpec::wan(
            if pause { "fan-in 100G pause" } else { "fan-in 100G" },
            BitRate::gbps(100.0),
            SimDuration::from_millis(10),
        )
        .with_switch_buffer(Bytes::mib(64));
        if pause {
            p.with_flow_control()
        } else {
            p
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amlight_paths() {
        assert_eq!(AmLightPath::ALL.len(), 4);
        let lan = Testbeds::amlight_path(AmLightPath::Lan);
        assert_eq!(lan.class, nethw::PathClass::Lan);
        assert!(lan.cross_traffic.is_none(), "LAN is clean");
        let wan = Testbeds::amlight_path(AmLightPath::Wan104ms);
        assert_eq!(wan.class, nethw::PathClass::Wan);
        assert_eq!(wan.rtt, SimDuration::from_millis(104));
        assert!(wan.cross_traffic.is_some(), "WAN shares with production");
    }

    #[test]
    fn esnet_paths_are_clean() {
        let wan = Testbeds::esnet_path(EsnetPath::Wan);
        assert!(wan.cross_traffic.is_none(), "isolated testbed (SIV-C)");
        assert!(!wan.flow_control, "switches lack 802.3x (SIII-F)");
        assert_eq!(wan.bottleneck.as_gbps(), 200.0);
        assert_eq!(wan.switch_buffer, Bytes::mib(64));
    }

    #[test]
    fn prod_path_has_flow_control() {
        let p = Testbeds::prod_dtn_path();
        assert!(p.flow_control);
        assert!(p.cross_traffic.is_some());
        assert_eq!(p.rtt, SimDuration::from_millis(63));
    }

    #[test]
    fn hosts_match_testbed_hardware() {
        let am = Testbeds::amlight_host(KernelVersion::L6_8);
        assert_eq!(am.cpu, linuxhost::CpuArch::IntelXeon6346);
        assert_eq!(am.nic, nethw::NicModel::ConnectX5);
        let es = Testbeds::esnet_host(KernelVersion::L6_8);
        assert_eq!(es.cpu, linuxhost::CpuArch::AmdEpyc73F3);
        assert_eq!(es.nic, nethw::NicModel::ConnectX7);
    }
}
