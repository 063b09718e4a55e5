//! BBR congestion control (v1, and a simplified v3).
//!
//! A model-based algorithm: estimate the bottleneck bandwidth (max
//! delivery rate over a sliding window) and the propagation RTT (min
//! RTT), and pace at `gain × btlbw` with an inflight cap of
//! `cwnd_gain × BDP`. The paper (§IV-F) observes on its loss-free
//! testbeds: BBR ramps faster than CUBIC, retransmits more (v1
//! especially, since it ignores loss), and benefits strongly from
//! pacing in parallel-stream runs.
//!
//! Simplifications (documented): ProbeRTT is approximated by
//! periodically refreshing min-RTT rather than by draining to 4 MSS;
//! v3 is modelled as v1 plus the four changes that matter for the
//! paper's observations: (a) a multiplicative back-off on loss
//! episodes, (b) 15 % headroom while probing, (c) `inflight_hi` /
//! `inflight_lo` bounds — loss pins an upper bound on the window that
//! is only probed back up by loss-free ProbeBW cycles, and the
//! post-loss window is a short-term floor so the model does not
//! over-shrink mid-flight — and (d) a faster ProbeRTT cadence (5 s vs
//! v1's 10 s min-RTT expiry).

use super::{window_rate, CongestionControl};
use simcore::{BitRate, Bytes, SimDuration, SimTime};

/// Startup pacing gain (2/ln2).
const STARTUP_GAIN: f64 = 2.885;
/// Drain gain (inverse of startup).
const DRAIN_GAIN: f64 = 1.0 / STARTUP_GAIN;
/// ProbeBW gain cycle.
const PROBE_CYCLE: [f64; 8] = [1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
/// cwnd gain over the estimated BDP.
const CWND_GAIN: f64 = 2.0;
/// Bandwidth filter length (rounds).
const BW_FILTER_LEN: usize = 10;
/// v1 min-RTT filter expiry, as in Linux BBR's 10 s ProbeRTT cadence.
const MIN_RTT_EXPIRY_V1: SimDuration = SimDuration::from_secs(10);
/// v3 halves the ProbeRTT cadence (BBRv3 probes the floor every 5 s),
/// re-anchoring faster after path changes.
const MIN_RTT_EXPIRY_V3: SimDuration = SimDuration::from_secs(5);
/// v3 loss response: multiplicative cwnd back-off.
const V3_BETA: f64 = 0.85;
/// v3 loss response: bandwidth-model trim.
const V3_BW_TRIM: f64 = 0.9;
/// v3 headroom left free below `inflight_hi` (and while probing), so
/// coexisting flows can take what the probe found.
const V3_HEADROOM: f64 = 0.85;
/// v3 probes `inflight_hi` back up by this factor per loss-free
/// ProbeBW probe phase.
const V3_PROBE_UP: f64 = 1.25;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Startup,
    Drain,
    ProbeBw,
}

/// Which BBR flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BbrVersion {
    /// Version 1: loss-blind.
    V1,
    /// Version 3 (simplified): loss response + probe headroom.
    V3,
}

/// BBR state.
#[derive(Debug, Clone)]
pub struct Bbr {
    version: BbrVersion,
    mss: Bytes,
    mode: Mode,
    /// Recent delivery-rate maxima (bits/s): the first `bw_len`
    /// entries, newest last.
    bw_samples: [f64; BW_FILTER_LEN],
    bw_len: usize,
    /// Bottleneck bandwidth estimate (bits/s): the filter's maximum, 0
    /// while it is empty. Read on every ACK and transmit, so it is kept
    /// here and refreshed wherever the filter changes.
    btlbw: f64,
    /// Propagation estimate and when it was last re-anchored. Expires
    /// after [`MIN_RTT_EXPIRY`] (the ProbeRTT stand-in): without
    /// expiry, a path change that raises the base RTT would leave the
    /// model pinned to a stale floor forever.
    min_rtt: Option<(SimDuration, SimTime)>,
    cwnd: Bytes,
    init_cwnd: Bytes,
    cycle_index: usize,
    cycle_start: SimTime,
    full_bw: f64,
    full_bw_rounds: u32,
    /// Delivery-rate round accumulator (bytes acked this round).
    round_delivered: f64,
    round_start: SimTime,
    /// v3 upper bound on inflight, pinned by loss and probed back up
    /// only by loss-free probe phases. `None` = unbounded (no loss
    /// seen, or the bound was probed past the model target).
    inflight_hi: Option<Bytes>,
    /// v3 short-term floor (the post-loss window): target reductions
    /// within the same ProbeBW cycle do not shrink below it.
    inflight_lo: Option<Bytes>,
    /// Loss seen in the current ProbeBW cycle phase (gates probe-up).
    loss_in_cycle: bool,
}

impl Bbr {
    /// BBRv1.
    pub fn v1(mss: Bytes, init_cwnd: Bytes) -> Self {
        Self::new(BbrVersion::V1, mss, init_cwnd)
    }

    /// BBRv3 (simplified).
    pub fn v3(mss: Bytes, init_cwnd: Bytes) -> Self {
        Self::new(BbrVersion::V3, mss, init_cwnd)
    }

    fn new(version: BbrVersion, mss: Bytes, init_cwnd: Bytes) -> Self {
        assert!(mss.as_u64() > 0, "MSS must be positive");
        Bbr {
            version,
            mss,
            mode: Mode::Startup,
            bw_samples: [0.0; BW_FILTER_LEN],
            bw_len: 0,
            btlbw: 0.0,
            min_rtt: None,
            cwnd: init_cwnd.max(mss * super::MIN_CWND_SEGMENTS),
            init_cwnd: init_cwnd.max(mss * super::MIN_CWND_SEGMENTS),
            cycle_index: 0,
            cycle_start: SimTime::ZERO,
            full_bw: 0.0,
            full_bw_rounds: 0,
            round_delivered: 0.0,
            round_start: SimTime::ZERO,
            inflight_hi: None,
            inflight_lo: None,
            loss_in_cycle: false,
        }
    }

    /// ProbeRTT cadence: how long a min-RTT estimate may go without
    /// re-anchoring (v3 probes twice as often as v1).
    fn min_rtt_expiry(&self) -> SimDuration {
        match self.version {
            BbrVersion::V1 => MIN_RTT_EXPIRY_V1,
            BbrVersion::V3 => MIN_RTT_EXPIRY_V3,
        }
    }

    /// Recompute `btlbw` from the filter's live samples.
    fn refresh_btlbw(&mut self) {
        self.btlbw = self.bw_samples[..self.bw_len].iter().copied().fold(0.0, f64::max);
    }

    fn push_bw(&mut self, bw: f64) {
        if self.bw_len == BW_FILTER_LEN {
            self.bw_samples.copy_within(1.., 0);
            self.bw_len -= 1;
        }
        self.bw_samples[self.bw_len] = bw;
        self.bw_len += 1;
        self.refresh_btlbw();
    }

    fn bdp(&self) -> Bytes {
        match self.min_rtt {
            Some((rtt, _)) if self.btlbw > 0.0 => {
                Bytes::new((self.btlbw / 8.0 * rtt.as_secs_f64()) as u64)
            }
            _ => self.init_cwnd,
        }
    }

    /// Current propagation estimate (fallback before the first sample).
    fn min_rtt_or(&self, fallback: SimDuration) -> SimDuration {
        self.min_rtt.map_or(fallback, |(rtt, _)| rtt)
    }

    fn pacing_gain(&self) -> f64 {
        let headroom: f64 = if self.version == BbrVersion::V3 { 0.85 } else { 1.0 };
        match self.mode {
            Mode::Startup => STARTUP_GAIN,
            Mode::Drain => DRAIN_GAIN,
            Mode::ProbeBw => {
                let g = PROBE_CYCLE[self.cycle_index];
                if g > 1.0 { g * headroom.max(0.9) } else { g }
            }
        }
    }

    /// Version under test.
    pub fn version(&self) -> BbrVersion {
        self.version
    }

    /// v3 upper inflight bound (`None` when unbounded or on v1).
    pub fn inflight_hi(&self) -> Option<Bytes> {
        self.inflight_hi
    }

    /// v3 short-term inflight floor (`None` when unset or on v1).
    pub fn inflight_lo(&self) -> Option<Bytes> {
        self.inflight_lo
    }
}

impl CongestionControl for Bbr {
    fn on_ack(
        &mut self,
        acked: Bytes,
        rtt: Option<SimDuration>,
        now: SimTime,
        _inflight: Bytes,
        _cwnd_limited: bool,
    ) {
        // BBR is model-based: delivery-rate samples are useful whether
        // or not the window was the limit.
        if let Some(r) = rtt {
            // Keep the min, but re-anchor on any sample once the
            // estimate is older than the ProbeRTT cadence — the
            // documented stand-in for draining to probe the floor.
            let expiry = self.min_rtt_expiry();
            self.min_rtt = Some(match self.min_rtt {
                None => (r, now),
                Some((m, _)) if r <= m => (r, now),
                Some((_, since)) if now.saturating_since(since) > expiry => (r, now),
                Some(kept) => kept,
            });
        }
        // Delivery-rate sampling: accumulate acked bytes over one
        // round (≈ min RTT) and convert to a rate — per-ACK samples
        // would undercount wildly when ACKs arrive per GSO burst.
        self.round_delivered += acked.as_f64();
        let round_len = self.min_rtt_or(SimDuration::from_millis(10));
        let elapsed = now.saturating_since(self.round_start);
        let round_complete = elapsed >= round_len && !elapsed.is_zero();
        if round_complete {
            let bw = self.round_delivered * 8.0 / elapsed.as_secs_f64();
            if bw > 0.0 {
                self.push_bw(bw);
            }
            self.round_delivered = 0.0;
            self.round_start = now;
        }
        match self.mode {
            Mode::Startup => {
                // Leave startup once bandwidth stops growing 25 % per
                // *round* (evaluating per ACK would see a flat filter
                // within the round and bail out instantly).
                if round_complete {
                    let bw = self.btlbw;
                    if bw > self.full_bw * 1.25 {
                        self.full_bw = bw;
                        self.full_bw_rounds = 0;
                    } else {
                        self.full_bw_rounds += 1;
                        if self.full_bw_rounds >= 3 {
                            self.mode = Mode::Drain;
                        }
                    }
                }
            }
            Mode::Drain => {
                // Queue drained once inflight fits one BDP.
                if _inflight <= self.bdp() {
                    self.mode = Mode::ProbeBw;
                    self.cycle_start = now;
                }
            }
            Mode::ProbeBw => {
                // Advance the gain cycle once per min-RTT.
                let phase = self.min_rtt_or(SimDuration::from_millis(10));
                if now.saturating_since(self.cycle_start) >= phase {
                    let leaving_probe = self.cycle_index == 0;
                    self.cycle_index = (self.cycle_index + 1) % PROBE_CYCLE.len();
                    self.cycle_start = now;
                    if self.version == BbrVersion::V3 {
                        // The short-term floor only spans one phase.
                        self.inflight_lo = None;
                        if leaving_probe && !self.loss_in_cycle {
                            // A whole probe phase survived without
                            // loss: raise the ceiling; drop it entirely
                            // once it no longer binds below the model
                            // target.
                            if let Some(hi) = self.inflight_hi {
                                let raised =
                                    Bytes::new((hi.as_f64() * V3_PROBE_UP) as u64);
                                let model =
                                    Bytes::new((self.bdp().as_f64() * CWND_GAIN) as u64);
                                self.inflight_hi = (raised < model).then_some(raised);
                            }
                        }
                        self.loss_in_cycle = false;
                    }
                }
            }
        }
        let mut target =
            Bytes::new((self.bdp().as_f64() * CWND_GAIN) as u64).max(self.init_cwnd);
        if self.version == BbrVersion::V3 {
            // Cap at the loss-derived ceiling, minus headroom left for
            // coexisting flows; the short-term floor keeps one bad
            // round from collapsing the window below the last cut.
            if let Some(hi) = self.inflight_hi {
                let cap = Bytes::new((hi.as_f64() * V3_HEADROOM) as u64)
                    .max(self.mss * super::MIN_CWND_SEGMENTS);
                target = target.min(cap);
            }
            if let Some(lo) = self.inflight_lo {
                target = target.max(lo);
            }
        }
        // cwnd moves toward target without collapsing mid-flight.
        self.cwnd = if target > self.cwnd {
            (self.cwnd + acked).min(target)
        } else {
            target.max(self.mss * super::MIN_CWND_SEGMENTS)
        };
    }

    fn on_loss(&mut self, _now: SimTime) {
        match self.version {
            BbrVersion::V1 => {
                // v1 is loss-blind: the model, not losses, rules.
            }
            BbrVersion::V3 => {
                // v3 loss response: trim the bandwidth estimate, back
                // the window off, and pin the inflight bounds — the
                // pre-cut window becomes the ceiling (probed back up
                // only by loss-free probe phases) and the post-cut
                // window the short-term floor.
                for s in &mut self.bw_samples[..self.bw_len] {
                    *s *= V3_BW_TRIM;
                }
                self.refresh_btlbw();
                let pre = self.cwnd;
                self.cwnd = Bytes::new((self.cwnd.as_f64() * V3_BETA) as u64)
                    .max(self.mss * super::MIN_CWND_SEGMENTS);
                self.inflight_hi = Some(match self.inflight_hi {
                    Some(hi) => hi.min(pre),
                    None => pre,
                });
                self.inflight_lo = Some(self.cwnd);
                self.loss_in_cycle = true;
            }
        }
    }

    fn on_rto(&mut self, now: SimTime) {
        self.cwnd = self.init_cwnd;
        self.mode = Mode::Startup;
        self.full_bw = 0.0;
        self.full_bw_rounds = 0;
        self.bw_len = 0;
        self.refresh_btlbw();
        self.round_delivered = 0.0;
        self.round_start = now;
        self.inflight_hi = None;
        self.inflight_lo = None;
        self.loss_in_cycle = false;
    }

    fn cwnd(&self) -> Bytes {
        self.cwnd
    }

    fn in_slow_start(&self) -> bool {
        self.mode == Mode::Startup
    }

    fn pacing_rate(&self, srtt: SimDuration) -> BitRate {
        let bw = self.btlbw;
        if bw > 0.0 {
            BitRate::from_bps(bw * self.pacing_gain())
        } else {
            // No estimate yet: window-based like slow start.
            window_rate(self.cwnd, srtt, STARTUP_GAIN)
        }
    }

    fn name(&self) -> &'static str {
        match self.version {
            BbrVersion::V1 => "bbr",
            BbrVersion::V3 => "bbr3",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive_to_steady(bbr: &mut Bbr, rate_gbps: f64, rtt_ms: u64, rounds: usize) -> SimTime {
        let rtt = SimDuration::from_millis(rtt_ms);
        let per_rtt = Bytes::new((rate_gbps * 1e9 / 8.0 * rtt.as_secs_f64()) as u64);
        let mut now = SimTime::ZERO;
        for _ in 0..rounds {
            now += rtt;
            bbr.on_ack(per_rtt, Some(rtt), now, per_rtt, true);
        }
        now
    }

    #[test]
    fn startup_exits_when_bandwidth_plateaus() {
        let mut bbr = Bbr::v1(Bytes::new(9000), Bytes::kib(128));
        assert!(bbr.in_slow_start());
        drive_to_steady(&mut bbr, 10.0, 20, 30);
        assert!(!bbr.in_slow_start(), "BBR should leave startup at a plateau");
    }

    #[test]
    fn cwnd_targets_two_bdp() {
        let mut bbr = Bbr::v1(Bytes::new(9000), Bytes::kib(128));
        drive_to_steady(&mut bbr, 10.0, 20, 60);
        let bdp = 10.0e9 / 8.0 * 0.020; // 25 MB
        let cwnd = bbr.cwnd().as_f64();
        assert!(
            (1.5..2.6).contains(&(cwnd / bdp)),
            "cwnd {:.1} MB vs BDP {:.1} MB",
            cwnd / 1e6,
            bdp / 1e6
        );
    }

    #[test]
    fn v1_ignores_loss_v3_reacts() {
        let mut v1 = Bbr::v1(Bytes::new(9000), Bytes::kib(128));
        let mut v3 = Bbr::v3(Bytes::new(9000), Bytes::kib(128));
        drive_to_steady(&mut v1, 10.0, 20, 60);
        drive_to_steady(&mut v3, 10.0, 20, 60);
        let w1 = v1.cwnd();
        let w3 = v3.cwnd();
        v1.on_loss(SimTime::ZERO);
        v3.on_loss(SimTime::ZERO);
        assert_eq!(v1.cwnd(), w1, "BBRv1 is loss-blind");
        assert!(v3.cwnd() < w3, "BBRv3 backs off on loss");
    }

    #[test]
    fn pacing_rate_tracks_btlbw() {
        let mut bbr = Bbr::v1(Bytes::new(9000), Bytes::kib(128));
        drive_to_steady(&mut bbr, 10.0, 20, 60);
        let rate = bbr.pacing_rate(SimDuration::from_millis(20)).as_gbps();
        assert!(
            (7.0..14.0).contains(&rate),
            "pacing near the 10 Gbps bottleneck, got {rate:.1}"
        );
    }

    #[test]
    fn rto_resets_model() {
        let mut bbr = Bbr::v3(Bytes::new(9000), Bytes::kib(128));
        drive_to_steady(&mut bbr, 10.0, 20, 60);
        bbr.on_rto(SimTime::ZERO);
        assert!(bbr.in_slow_start());
        assert_eq!(bbr.cwnd(), Bytes::kib(128));
    }

    #[test]
    fn min_rtt_reanchors_after_expiry() {
        let mut bbr = Bbr::v1(Bytes::new(9000), Bytes::kib(128));
        // Converge on a 20 ms path, then flap onto a 60 ms path: the
        // model must adopt the new floor within the 10 s expiry, not
        // keep the stale 20 ms estimate forever.
        let end = drive_to_steady(&mut bbr, 10.0, 20, 30);
        assert_eq!(bbr.min_rtt_or(SimDuration::ZERO), SimDuration::from_millis(20));
        let rtt = SimDuration::from_millis(60);
        let per_rtt = Bytes::new((10.0e9 / 8.0 * rtt.as_secs_f64()) as u64);
        let mut now = end;
        for _ in 0..200 {
            now += rtt;
            bbr.on_ack(per_rtt, Some(rtt), now, per_rtt, true);
        }
        assert_eq!(
            bbr.min_rtt_or(SimDuration::ZERO),
            SimDuration::from_millis(60),
            "stale propagation floor must expire"
        );
    }

    #[test]
    fn v3_loss_pins_inflight_bounds_then_probes_back_up() {
        let mut v3 = Bbr::v3(Bytes::new(9000), Bytes::kib(128));
        let end = drive_to_steady(&mut v3, 10.0, 20, 60);
        assert_eq!(v3.inflight_hi(), None, "no loss yet: unbounded");
        let pre = v3.cwnd();
        v3.on_loss(end);
        assert_eq!(v3.inflight_hi(), Some(pre), "pre-cut window becomes the ceiling");
        assert_eq!(v3.inflight_lo(), Some(v3.cwnd()), "post-cut window becomes the floor");
        // Loss-free probe phases raise the ceiling until it stops
        // binding below the model target, then release it.
        let rtt = SimDuration::from_millis(20);
        let per_rtt = Bytes::new((10.0e9 / 8.0 * rtt.as_secs_f64()) as u64);
        let mut now = end;
        for _ in 0..2000 {
            now += rtt;
            v3.on_ack(per_rtt, Some(rtt), now, per_rtt, true);
        }
        assert_eq!(v3.inflight_hi(), None, "clean cycles must probe the ceiling away");
        assert!(
            v3.cwnd().as_f64() >= pre.as_f64() * 0.9,
            "window recovers once the bound lifts: {} vs {}",
            v3.cwnd(),
            pre
        );
    }

    #[test]
    fn v3_inflight_stays_at_or_below_v1_under_identical_schedule() {
        // The golden ordering "BBRv3 inflight ≤ BBRv1 at equal BDP":
        // same ack/loss schedule, v3's bounds keep its window at or
        // below loss-blind v1's at every step.
        let mss = Bytes::new(9000);
        let mut v1 = Bbr::v1(mss, Bytes::kib(128));
        let mut v3 = Bbr::v3(mss, Bytes::kib(128));
        let rtt = SimDuration::from_millis(20);
        let per_rtt = Bytes::new((10.0e9 / 8.0 * rtt.as_secs_f64()) as u64);
        let mut now = SimTime::ZERO;
        for round in 0..300 {
            now += rtt;
            v1.on_ack(per_rtt, Some(rtt), now, per_rtt, true);
            v3.on_ack(per_rtt, Some(rtt), now, per_rtt, true);
            if round % 50 == 49 {
                v1.on_loss(now);
                v3.on_loss(now);
            }
            assert!(
                v3.cwnd() <= v1.cwnd(),
                "round {round}: v3 {} must not exceed v1 {}",
                v3.cwnd(),
                v1.cwnd()
            );
        }
    }

    #[test]
    fn v3_probe_rtt_cadence_reanchors_faster_than_v1() {
        let mss = Bytes::new(9000);
        let mut v1 = Bbr::v1(mss, Bytes::kib(128));
        let mut v3 = Bbr::v3(mss, Bytes::kib(128));
        let end = drive_to_steady(&mut v1, 10.0, 20, 30);
        assert_eq!(drive_to_steady(&mut v3, 10.0, 20, 30), end);
        // Path moves to a 60 ms floor. 7 s of samples is past v3's 5 s
        // ProbeRTT cadence but short of v1's 10 s.
        let rtt = SimDuration::from_millis(60);
        let per_rtt = Bytes::new((10.0e9 / 8.0 * rtt.as_secs_f64()) as u64);
        let mut now = end;
        for _ in 0..117 {
            now += rtt;
            v1.on_ack(per_rtt, Some(rtt), now, per_rtt, true);
            v3.on_ack(per_rtt, Some(rtt), now, per_rtt, true);
        }
        assert_eq!(v3.min_rtt_or(SimDuration::ZERO), rtt, "v3 re-anchors within 5 s");
        assert_eq!(
            v1.min_rtt_or(SimDuration::ZERO),
            SimDuration::from_millis(20),
            "v1 still holds the old floor at 7 s"
        );
    }

    #[test]
    fn ramps_past_cubic_when_ramp_losses_occur() {
        // §IV-F: "BBRv1/BBRv3 both ramp up faster than CUBIC" on the
        // WAN — in practice because transient ramp-up losses halt
        // CUBIC (multiplicative decrease + slow-start exit) while
        // BBRv1 sails through them.
        use crate::cc::cubic::Cubic;
        use crate::cc::CongestionControl as _;
        let mss = Bytes::new(9000);
        let iw = Bytes::new(9000 * 10);
        let mut bbr = Bbr::v1(mss, iw);
        let mut cubic = Cubic::new(mss, iw);
        let rtt = SimDuration::from_millis(100);
        let mut now = SimTime::ZERO;
        for round in 0..8 {
            now += rtt;
            let wb = bbr.cwnd();
            bbr.on_ack(wb, Some(rtt), now, wb, true);
            let wc = cubic.cwnd();
            cubic.on_ack(wc, Some(rtt), now, wc, true);
            if round == 3 {
                // A burst of receiver drops during the ramp.
                bbr.on_loss(now);
                cubic.on_loss(now);
            }
        }
        assert!(
            bbr.cwnd() > cubic.cwnd(),
            "BBR {} should out-ramp CUBIC {} across ramp losses",
            bbr.cwnd(),
            cubic.cwnd()
        );
    }
}
