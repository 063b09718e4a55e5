//! Bottleneck attribution: per-interval limiting-factor verdicts and
//! `perf`-style stage profiles.
//!
//! The paper never leaves a throughput number unexplained — every
//! figure comes with a diagnosis ("the sender app core saturates on
//! the copy", "zerocopy shifts the bottleneck to the receiver",
//! "without flow control the switch buffer overflows"), read off
//! `mpstat` and `perf` on the real hosts. This module is the
//! simulator's machine-checkable version of that reading: when
//! [`crate::WorkloadSpec::attribution`] is on, each host keeps a
//! per-core, per-stage [`simcore::CycleLedger`], and on every interval
//! tick the runner feeds an [`IntervalObs`] — stage-ledger deltas,
//! drop/pause counter deltas, the sender's cwnd-limited signal and the
//! delivered rate — through [`classify`] to produce one
//! [`LimitingFactor`] verdict per interval. The whole run rolls up
//! into a [`BottleneckVerdict`] plus one [`StageProfile`] per host
//! (the folded-stack / `perf report` source data).
//!
//! Attribution follows the same observer-neutrality contract as
//! telemetry (§III-G): classification is strictly read-only on flow,
//! host and RNG state, and ledger charging never alters service or
//! completion times, so an attributed run is bit-identical to an
//! unattributed one with the same seed.

use simcore::{SimDuration, SimTime};

/// The resource that limited throughput over one interval.
///
/// Variants are ordered by diagnostic priority: loss events outrank
/// queue-pressure signals, which outrank CPU saturation, which
/// outranks capacity/pacing ceilings; a window that presses against
/// cwnd with none of the above is protocol-limited.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LimitingFactor {
    /// The shared switch buffer overflowed (tail/RED drops) — the
    /// no-flow-control story of Tables I–II.
    SwitchBuffer,
    /// 802.3x pause frames (or a pause storm) held traffic upstream.
    PauseThrottled,
    /// MSG_ZEROCOPY exhausted `optmem_max` and fell back to copying
    /// (the Fig. 9 cliff).
    OptmemStalled,
    /// The sender's application core saturated (the `write()` copy).
    SenderAppCpu,
    /// The sender's softirq/TX core saturated.
    SenderSoftirq,
    /// The receiver's softirq/RX core saturated (GRO + protocol rx).
    ReceiverSoftirq,
    /// The receiver's application core saturated (the `read()` copy).
    ReceiverAppCopy,
    /// Goodput reached the path's usable capacity.
    LinkCapacity,
    /// An explicit `--fq-rate` pacing cap held throughput down.
    PacingLimited,
    /// The congestion window limited the flight (loss recovery, slow
    /// start, or a genuinely BDP-bound window).
    CwndLimited,
}

impl LimitingFactor {
    /// Every factor, in diagnostic-priority order.
    pub const ALL: [LimitingFactor; 10] = [
        LimitingFactor::SwitchBuffer,
        LimitingFactor::PauseThrottled,
        LimitingFactor::OptmemStalled,
        LimitingFactor::SenderAppCpu,
        LimitingFactor::SenderSoftirq,
        LimitingFactor::ReceiverSoftirq,
        LimitingFactor::ReceiverAppCopy,
        LimitingFactor::LinkCapacity,
        LimitingFactor::PacingLimited,
        LimitingFactor::CwndLimited,
    ];

    /// Stable lowercase name for traces and tables.
    pub fn name(self) -> &'static str {
        match self {
            LimitingFactor::SwitchBuffer => "switch_buffer",
            LimitingFactor::PauseThrottled => "pause_throttled",
            LimitingFactor::OptmemStalled => "optmem_stalled",
            LimitingFactor::SenderAppCpu => "sender_app_cpu",
            LimitingFactor::SenderSoftirq => "sender_softirq",
            LimitingFactor::ReceiverSoftirq => "receiver_softirq",
            LimitingFactor::ReceiverAppCopy => "receiver_app_copy",
            LimitingFactor::LinkCapacity => "link_capacity",
            LimitingFactor::PacingLimited => "pacing_limited",
            LimitingFactor::CwndLimited => "cwnd_limited",
        }
    }
}

/// A core group is "saturated" when its busiest core spent at least
/// this fraction of the interval busy (mpstat reads ≥ ~90 % as pegged;
/// the last few percent go to scheduler slack the model does not
/// charge).
pub const CPU_SATURATION_FRACTION: f64 = 0.90;

/// Zerocopy is "optmem-stalled" when more than this fraction of the
/// interval's sends fell back to copying.
pub const OPTMEM_STALL_FRACTION: f64 = 0.25;

/// Goodput at or above this fraction of the usable path rate reads as
/// link-limited (ACK overhead and pacing gaps eat the rest).
pub const LINK_SATURATION_FRACTION: f64 = 0.90;

/// Goodput within this fraction of an explicit `--fq-rate` cap reads
/// as pacing-limited.
pub const PACING_SATURATION_FRACTION: f64 = 0.85;

/// ACKs must find the flight pressing against cwnd at least this often
/// for the interval to read as cwnd-limited.
pub const CWND_LIMITED_FRACTION: f64 = 0.50;

/// Everything [`classify`] looks at for one interval — counter deltas
/// and busy fractions, already normalised by the interval length.
#[derive(Debug, Clone, Default)]
pub struct IntervalObs {
    /// Switch tail/RED drops this interval.
    pub switch_drops: u64,
    /// Receiver NIC-ring drops this interval (incl. pause-buffer
    /// overflow under flow control).
    pub ring_drops: u64,
    /// Pause-frame holds (802.3x parks) this interval.
    pub pause_parks: u64,
    /// Zerocopy sends this interval.
    pub zc_sends: u64,
    /// Zerocopy sends that fell back to copying this interval.
    pub zc_fallbacks: u64,
    /// ACKs processed by all senders this interval.
    pub acks: u64,
    /// Of those, ACKs with `tcp_is_cwnd_limited()` true.
    pub cwnd_limited_acks: u64,
    /// Busiest sender app core, as a busy fraction of the interval.
    pub snd_app_busy: f64,
    /// Busiest sender IRQ core busy fraction.
    pub snd_irq_busy: f64,
    /// Busiest receiver IRQ core busy fraction.
    pub rcv_irq_busy: f64,
    /// Busiest receiver app core busy fraction.
    pub rcv_app_busy: f64,
    /// Aggregate goodput this interval (Gbit/s).
    pub delivered_gbps: f64,
    /// The path's usable rate (Gbit/s).
    pub usable_gbps: f64,
    /// Explicit per-flow pacing cap × flow count (Gbit/s), if set.
    pub fq_total_gbps: Option<f64>,
}

impl IntervalObs {
    /// Fraction of this interval's zerocopy sends that fell back.
    pub fn fallback_fraction(&self) -> f64 {
        let total = self.zc_sends + self.zc_fallbacks;
        if total == 0 { 0.0 } else { self.zc_fallbacks as f64 / total as f64 }
    }

    /// Fraction of ACKs that found the flight cwnd-limited.
    pub fn cwnd_limited_fraction(&self) -> f64 {
        if self.acks == 0 { 0.0 } else { self.cwnd_limited_acks as f64 / self.acks as f64 }
    }
}

/// Decide what limited throughput over one interval.
///
/// Pure and deterministic: the verdict priority is loss events >
/// pause-frame throttling > optmem starvation > CPU saturation >
/// pacing cap > link capacity > cwnd. When nothing crosses a
/// threshold, the busiest CPU group (if meaningfully loaded) or the
/// congestion window takes the verdict — every interval gets exactly
/// one factor.
pub fn classify(obs: &IntervalObs) -> LimitingFactor {
    if obs.switch_drops > 0 {
        return LimitingFactor::SwitchBuffer;
    }
    if obs.pause_parks > 0 || obs.ring_drops > 0 {
        // Flow control parked traffic upstream (or, without it, the
        // ring itself overflowed): the receiver edge is the brake.
        if obs.pause_parks > 0 {
            return LimitingFactor::PauseThrottled;
        }
        return cpu_verdict(obs).unwrap_or(LimitingFactor::ReceiverSoftirq);
    }
    if obs.fallback_fraction() > OPTMEM_STALL_FRACTION {
        return LimitingFactor::OptmemStalled;
    }
    if let Some(cpu) = cpu_verdict(obs) {
        return cpu;
    }
    if let Some(fq) = obs.fq_total_gbps {
        if fq < obs.usable_gbps && obs.delivered_gbps >= PACING_SATURATION_FRACTION * fq {
            return LimitingFactor::PacingLimited;
        }
    }
    if obs.usable_gbps > 0.0
        && obs.delivered_gbps >= LINK_SATURATION_FRACTION * obs.usable_gbps
    {
        return LimitingFactor::LinkCapacity;
    }
    if obs.cwnd_limited_fraction() >= CWND_LIMITED_FRACTION {
        return LimitingFactor::CwndLimited;
    }
    // Nothing pegged: blame the busiest CPU group if it carries real
    // load, else fall back to the window (start-up, recovery, idle).
    busiest_cpu(obs)
        .filter(|&(_, busy)| busy >= 0.5)
        .map(|(factor, _)| factor)
        .unwrap_or(LimitingFactor::CwndLimited)
}

/// CPU-saturation verdict, when some group's busiest core is pegged.
fn cpu_verdict(obs: &IntervalObs) -> Option<LimitingFactor> {
    busiest_cpu(obs).filter(|&(_, busy)| busy >= CPU_SATURATION_FRACTION).map(|(f, _)| f)
}

fn busiest_cpu(obs: &IntervalObs) -> Option<(LimitingFactor, f64)> {
    let groups = [
        (LimitingFactor::SenderAppCpu, obs.snd_app_busy),
        (LimitingFactor::SenderSoftirq, obs.snd_irq_busy),
        (LimitingFactor::ReceiverSoftirq, obs.rcv_irq_busy),
        (LimitingFactor::ReceiverAppCopy, obs.rcv_app_busy),
    ];
    groups
        .into_iter()
        .filter(|(_, busy)| busy.is_finite())
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite busy fractions"))
}

/// The whole-run roll-up of the per-interval verdicts.
#[derive(Debug, Clone)]
pub struct BottleneckVerdict {
    /// The factor that limited the most intervals (ties break by
    /// diagnostic priority).
    pub primary: LimitingFactor,
    /// Interval counts per factor, most frequent first.
    pub histogram: Vec<(LimitingFactor, u64)>,
    /// How many intervals were classified.
    pub intervals: usize,
}

impl BottleneckVerdict {
    /// Roll up per-interval verdicts. `None` when no interval was
    /// classified (run shorter than one interval).
    pub fn from_intervals(verdicts: &[(SimTime, LimitingFactor)]) -> Option<Self> {
        if verdicts.is_empty() {
            return None;
        }
        let mut counts: Vec<(LimitingFactor, u64)> = Vec::new();
        for factor in LimitingFactor::ALL {
            let n = verdicts.iter().filter(|(_, v)| *v == factor).count() as u64;
            if n > 0 {
                counts.push((factor, n));
            }
        }
        // Most frequent first; equal counts keep priority order (the
        // ALL iteration order) because the sort is stable.
        counts.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
        Some(BottleneckVerdict {
            primary: counts[0].0,
            histogram: counts,
            intervals: verdicts.len(),
        })
    }

    /// Fraction of intervals the primary factor limited.
    pub fn primary_share(&self) -> f64 {
        if self.intervals == 0 {
            return 0.0;
        }
        self.histogram
            .first()
            .map(|(_, n)| *n as f64 / self.intervals as f64)
            .unwrap_or(0.0)
    }
}

/// One host's whole-run stage decomposition — the data behind the
/// folded-stack and `perf report` outputs.
#[derive(Debug, Clone)]
pub struct StageProfile {
    /// Clock the host's cost model ran at (Hz), for cycle conversion.
    pub clock_hz: f64,
    /// One row per ledger core (app cores, IRQ cores, fabric last).
    pub cores: Vec<CoreProfile>,
}

/// Per-core slice of a [`StageProfile`].
#[derive(Debug, Clone)]
pub struct CoreProfile {
    /// Role label: `app0`, `irq1`, `fabric`.
    pub role: String,
    /// Busy time per stage, indexed by [`linuxhost::Stage::index`].
    pub stage_busy: Vec<SimDuration>,
}

impl StageProfile {
    /// Total busy time across all cores and stages.
    pub fn total_busy(&self) -> SimDuration {
        self.cores.iter().fold(SimDuration::ZERO, |acc, c| {
            c.stage_busy.iter().fold(acc, |a, d| a + *d)
        })
    }

    /// Convert a busy time to cycles at this profile's clock.
    pub fn cycles(&self, busy: SimDuration) -> u64 {
        (busy.as_secs_f64() * self.clock_hz).round() as u64
    }
}

/// A full run's attribution output.
#[derive(Debug, Clone)]
pub struct Attribution {
    /// Per-interval verdicts `(interval end, factor)`.
    pub verdicts: Vec<(SimTime, LimitingFactor)>,
    /// The whole-run roll-up; `None` if no interval completed.
    pub verdict: Option<BottleneckVerdict>,
    /// Sender-host stage decomposition over the whole run.
    pub sender_profile: StageProfile,
    /// Receiver-host stage decomposition over the whole run.
    pub receiver_profile: StageProfile,
}

#[cfg(test)]
mod tests {
    use super::*;
    use linuxhost::Stage;
    use simcore::SimDuration;

    fn base() -> IntervalObs {
        IntervalObs { usable_gbps: 100.0, ..Default::default() }
    }

    #[test]
    fn drops_outrank_everything() {
        let obs = IntervalObs {
            switch_drops: 3,
            snd_app_busy: 0.99,
            zc_sends: 1,
            zc_fallbacks: 9,
            ..base()
        };
        assert_eq!(classify(&obs), LimitingFactor::SwitchBuffer);
    }

    #[test]
    fn pause_parks_read_as_flow_control() {
        let obs = IntervalObs { pause_parks: 12, snd_app_busy: 0.6, ..base() };
        assert_eq!(classify(&obs), LimitingFactor::PauseThrottled);
    }

    #[test]
    fn ring_drops_blame_the_receiver() {
        let obs = IntervalObs { ring_drops: 4, ..base() };
        assert_eq!(classify(&obs), LimitingFactor::ReceiverSoftirq);
        // ... unless a pegged core says which side of the receiver.
        let busy = IntervalObs { ring_drops: 4, rcv_app_busy: 0.97, ..base() };
        assert_eq!(classify(&busy), LimitingFactor::ReceiverAppCopy);
    }

    #[test]
    fn optmem_starvation_beats_cpu() {
        let obs = IntervalObs {
            zc_sends: 10,
            zc_fallbacks: 30,
            snd_app_busy: 0.99,
            ..base()
        };
        assert_eq!(classify(&obs), LimitingFactor::OptmemStalled);
    }

    #[test]
    fn cpu_saturation_picks_the_busiest_group() {
        let obs = IntervalObs {
            snd_app_busy: 0.98,
            rcv_irq_busy: 0.95,
            ..base()
        };
        assert_eq!(classify(&obs), LimitingFactor::SenderAppCpu);
        let rcv = IntervalObs { rcv_irq_busy: 0.96, snd_app_busy: 0.5, ..base() };
        assert_eq!(classify(&rcv), LimitingFactor::ReceiverSoftirq);
    }

    #[test]
    fn pacing_cap_detected_before_link() {
        let obs = IntervalObs {
            delivered_gbps: 9.6,
            fq_total_gbps: Some(10.0),
            ..base()
        };
        assert_eq!(classify(&obs), LimitingFactor::PacingLimited);
    }

    #[test]
    fn link_capacity_when_wire_is_full() {
        let obs = IntervalObs { delivered_gbps: 95.0, ..base() };
        assert_eq!(classify(&obs), LimitingFactor::LinkCapacity);
    }

    #[test]
    fn cwnd_limited_is_the_protocol_verdict() {
        let obs = IntervalObs {
            acks: 100,
            cwnd_limited_acks: 80,
            delivered_gbps: 20.0,
            ..base()
        };
        assert_eq!(classify(&obs), LimitingFactor::CwndLimited);
    }

    #[test]
    fn quiet_interval_defaults_to_cwnd() {
        assert_eq!(classify(&base()), LimitingFactor::CwndLimited);
    }

    #[test]
    fn moderately_busy_group_takes_the_default() {
        // No threshold crossed, but the receiver IRQ core carries real
        // load: the verdict names it rather than the window.
        let obs = IntervalObs { rcv_irq_busy: 0.7, delivered_gbps: 40.0, ..base() };
        assert_eq!(classify(&obs), LimitingFactor::ReceiverSoftirq);
    }

    #[test]
    fn verdict_rollup_majority_and_ties() {
        let t = SimTime::ZERO;
        let verdicts = vec![
            (t, LimitingFactor::SenderAppCpu),
            (t, LimitingFactor::SenderAppCpu),
            (t, LimitingFactor::CwndLimited),
        ];
        let v = BottleneckVerdict::from_intervals(&verdicts).expect("rollup");
        assert_eq!(v.primary, LimitingFactor::SenderAppCpu);
        assert_eq!(v.intervals, 3);
        assert!((v.primary_share() - 2.0 / 3.0).abs() < 1e-12);
        // Ties break by diagnostic priority.
        let tie = vec![
            (t, LimitingFactor::CwndLimited),
            (t, LimitingFactor::SwitchBuffer),
        ];
        let v = BottleneckVerdict::from_intervals(&tie).expect("rollup");
        assert_eq!(v.primary, LimitingFactor::SwitchBuffer);
        assert!(BottleneckVerdict::from_intervals(&[]).is_none());
    }

    #[test]
    fn factor_names_are_stable() {
        let names: Vec<&str> = LimitingFactor::ALL.iter().map(|f| f.name()).collect();
        assert_eq!(names.len(), 10);
        assert!(names.contains(&"sender_app_cpu"));
        assert!(names.contains(&"optmem_stalled"));
        assert!(names.contains(&"switch_buffer"));
        // All distinct.
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }

    #[test]
    fn stage_profile_totals_and_cycles() {
        let profile = StageProfile {
            clock_hz: 4.0e9,
            cores: vec![
                CoreProfile {
                    role: "app0".into(),
                    stage_busy: {
                        let mut v = vec![SimDuration::ZERO; Stage::COUNT];
                        v[Stage::TxApp.index()] = SimDuration::from_millis(500);
                        v
                    },
                },
                CoreProfile {
                    role: "irq0".into(),
                    stage_busy: {
                        let mut v = vec![SimDuration::ZERO; Stage::COUNT];
                        v[Stage::TxSoftirq.index()] = SimDuration::from_millis(250);
                        v
                    },
                },
            ],
        };
        assert_eq!(profile.total_busy(), SimDuration::from_millis(750));
        assert_eq!(profile.cycles(SimDuration::from_millis(500)), 2_000_000_000);
    }
}
