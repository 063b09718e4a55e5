//! CUBIC congestion control (RFC 9438, simplified).
//!
//! Simplifications relative to the RFC, documented for reviewers:
//!
//! * the TCP-friendliness (Reno-emulation) region is omitted — at the
//!   paper's window scales (10⁴–10⁵ MSS) the cubic region always
//!   dominates;
//! * HyStart++ (RFC 9406) is the delay-based variant with Conservative
//!   Slow Start: an RTT rise moves the flow into CSS (quarter-rate
//!   growth) rather than ending slow start outright, and slow start
//!   resumes if the RTT recovers — without this, a flow that samples a
//!   transient queue exits with a tiny ssthresh and then crawls for
//!   tens of seconds on a high-BDP path (the classic HyStart false
//!   positive);
//! * ABC/pacing interactions are handled by the pacer, not here.

use super::{window_rate, CongestionControl};
use simcore::{BitRate, Bytes, SimDuration, SimTime};

/// CUBIC's multiplicative decrease factor (RFC 9438).
pub const BETA: f64 = 0.7;
/// CUBIC's scaling constant C (window growth in MSS/s³).
pub const C: f64 = 0.4;
/// Slow-start pacing ratio (Linux `tcp_pacing_ss_ratio` = 200 %).
pub const SS_PACING_RATIO: f64 = 2.0;
/// Congestion-avoidance pacing ratio (`tcp_pacing_ca_ratio` = 120 %).
pub const CA_PACING_RATIO: f64 = 1.2;
/// HyStart++ RTT-rise threshold floor, `MIN_RTT_THRESH` (RFC 9406 §4.2).
pub const HYSTART_MIN_RTT_THRESH: SimDuration = SimDuration::from_millis(4);
/// HyStart++ RTT-rise threshold cap, `MAX_RTT_THRESH` (RFC 9406 §4.2).
/// Without the cap, an RTT/8 rise on a long path (≥128 ms floor) asks
/// for more standing queue than the bottleneck buffer holds, and CSS
/// effectively never triggers.
pub const HYSTART_MAX_RTT_THRESH: SimDuration = SimDuration::from_millis(16);

/// CUBIC state.
#[derive(Debug, Clone)]
pub struct Cubic {
    mss: Bytes,
    min_cwnd: Bytes,
    cwnd: Bytes,
    ssthresh: Bytes,
    /// W_max in MSS units at the last loss.
    w_max: f64,
    /// Epoch start (set on first ACK after a loss).
    epoch_start: Option<SimTime>,
    /// Time-shift K of the cubic, seconds.
    k: f64,
    /// HyStart bookkeeping.
    hystart_min_rtt: Option<SimDuration>,
    /// Conservative-slow-start state: bytes acked since CSS entry and
    /// the cwnd at entry. `Some` while in CSS.
    css: Option<(f64, f64)>,
    exited_slow_start: bool,
}

impl Cubic {
    /// New CUBIC flow.
    pub fn new(mss: Bytes, init_cwnd: Bytes) -> Self {
        assert!(mss.as_u64() > 0, "MSS must be positive");
        let init = init_cwnd.max(mss * super::MIN_CWND_SEGMENTS);
        Cubic {
            mss,
            min_cwnd: mss * super::MIN_CWND_SEGMENTS,
            cwnd: init,
            ssthresh: Bytes::new(u64::MAX),
            w_max: 0.0,
            epoch_start: None,
            k: 0.0,
            hystart_min_rtt: None,
            css: None,
            exited_slow_start: false,
        }
    }

    fn mss_f(&self) -> f64 {
        self.mss.as_f64()
    }

    fn cwnd_mss(&self) -> f64 {
        self.cwnd.as_f64() / self.mss_f()
    }

    /// HyStart++ (delay variant): an RTT rise over the floor enters
    /// Conservative Slow Start; an RTT recovery leaves it again.
    fn hystart_check(&mut self, rtt: SimDuration) {
        let floor = match self.hystart_min_rtt {
            None => {
                self.hystart_min_rtt = Some(rtt);
                return;
            }
            Some(m) => {
                let m = m.min(rtt);
                self.hystart_min_rtt = Some(m);
                m
            }
        };
        // RFC 9406: RttThresh = clamp(MIN_RTT_THRESH, baseRTT/8,
        // MAX_RTT_THRESH) — both clamps, not just the lower one.
        let thresh =
            floor + (floor / 8).max(HYSTART_MIN_RTT_THRESH).min(HYSTART_MAX_RTT_THRESH);
        if !self.in_slow_start() {
            return;
        }
        if rtt > thresh {
            if self.css.is_none() {
                self.css = Some((0.0, self.cwnd.as_f64()));
            }
        } else if self.css.is_some() {
            // False positive: the queue drained — resume slow start.
            self.css = None;
        }
    }
}

impl CongestionControl for Cubic {
    fn on_ack(
        &mut self,
        acked: Bytes,
        rtt: Option<SimDuration>,
        now: SimTime,
        _inflight: Bytes,
        cwnd_limited: bool,
    ) {
        if let Some(r) = rtt {
            self.hystart_check(r);
        }
        if !cwnd_limited {
            // Application- or pacing-limited: the window is not being
            // used, so growing it would only store up a future burst.
            // Restart the cubic epoch so time spent app-limited doesn't
            // later translate into an explosive W(t) jump (Linux resets
            // the epoch around app-limited periods too).
            self.epoch_start = None;
            return;
        }
        if self.in_slow_start() {
            match &mut self.css {
                None => {
                    // Exponential growth: one MSS per acked MSS.
                    self.cwnd += acked;
                }
                Some((css_acked, entry_cwnd)) => {
                    // Conservative Slow Start: quarter-rate growth; if
                    // the RTT stays elevated long enough to grow ~75 %
                    // past the entry window, the queue is real — end
                    // slow start.
                    *css_acked += acked.as_f64();
                    self.cwnd += Bytes::new((acked.as_f64() / 4.0) as u64);
                    if *css_acked > 3.0 * *entry_cwnd {
                        self.ssthresh = self.cwnd;
                        self.exited_slow_start = true;
                        self.css = None;
                    }
                }
            }
            if self.cwnd >= self.ssthresh {
                self.exited_slow_start = true;
            }
            return;
        }
        // Congestion avoidance: approach the cubic target.
        let epoch = match self.epoch_start {
            Some(e) => e,
            None => {
                // Start a new epoch around the current window.
                if self.w_max < self.cwnd_mss() {
                    self.w_max = self.cwnd_mss();
                    self.k = 0.0;
                } else {
                    self.k = ((self.w_max * (1.0 - BETA)) / C).cbrt();
                }
                self.epoch_start = Some(now);
                now
            }
        };
        let t = now.saturating_since(epoch).as_secs_f64();
        let target_mss = C * (t - self.k).powi(3) + self.w_max;
        let w = self.cwnd_mss();
        if target_mss > w {
            // Standard CUBIC increment: (target - cwnd)/cwnd per ACK,
            // scaled by the acked segments for burst-sized ACKs.
            let acked_mss = acked.as_f64() / self.mss_f();
            let inc = ((target_mss - w) / w * acked_mss).min(acked_mss);
            self.cwnd = Bytes::new((self.cwnd.as_f64() + inc * self.mss_f()) as u64);
        } else {
            // Below target (concave plateau): probe gently.
            let acked_mss = acked.as_f64() / self.mss_f();
            let inc = 0.01 * acked_mss;
            self.cwnd = Bytes::new((self.cwnd.as_f64() + inc * self.mss_f()) as u64);
        }
    }

    fn on_loss(&mut self, _now: SimTime) {
        let w = self.cwnd_mss();
        // Fast convergence: release bandwidth when the loss arrives
        // below the previous W_max.
        self.w_max = if w < self.w_max { w * (1.0 + BETA) / 2.0 } else { w };
        self.k = ((self.w_max * (1.0 - BETA)) / C).cbrt();
        let new = Bytes::new((self.cwnd.as_f64() * BETA) as u64).max(self.min_cwnd);
        self.cwnd = new;
        self.ssthresh = new;
        self.epoch_start = None;
        self.exited_slow_start = true;
    }

    fn on_rto(&mut self, _now: SimTime) {
        self.w_max = self.cwnd_mss();
        self.ssthresh =
            Bytes::new((self.cwnd.as_f64() / 2.0) as u64).max(self.min_cwnd * 2);
        self.cwnd = self.min_cwnd.max(Bytes::new(self.mss.as_u64() * 2));
        self.epoch_start = None;
        self.exited_slow_start = false;
        self.hystart_min_rtt = None;
        self.css = None;
    }

    fn cwnd(&self) -> Bytes {
        self.cwnd
    }

    fn ssthresh(&self) -> Option<Bytes> {
        // u64::MAX is the "not yet set" sentinel, i.e. Linux's
        // TCP_INFINITE_SSTHRESH.
        (self.ssthresh.as_u64() != u64::MAX).then_some(self.ssthresh)
    }

    fn in_slow_start(&self) -> bool {
        !self.exited_slow_start && self.cwnd < self.ssthresh
    }

    fn pacing_rate(&self, srtt: SimDuration) -> BitRate {
        let ratio = if self.in_slow_start() { SS_PACING_RATIO } else { CA_PACING_RATIO };
        window_rate(self.cwnd, srtt, ratio)
    }

    fn name(&self) -> &'static str {
        "cubic"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mss() -> Bytes {
        Bytes::new(9000)
    }

    fn cubic() -> Cubic {
        Cubic::new(mss(), Bytes::new(9000 * 10))
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut c = cubic();
        let start = c.cwnd();
        // Ack a full window: cwnd should double.
        c.on_ack(start, Some(SimDuration::from_millis(10)), SimTime::ZERO, start, true);
        assert_eq!(c.cwnd(), start + start);
        assert!(c.in_slow_start());
    }

    #[test]
    fn loss_multiplies_by_beta() {
        let mut c = cubic();
        // Grow a bit first.
        for _ in 0..10 {
            let w = c.cwnd();
            c.on_ack(w, None, SimTime::ZERO, w, true);
        }
        let before = c.cwnd();
        c.on_loss(SimTime::ZERO);
        let after = c.cwnd();
        let ratio = after.as_f64() / before.as_f64();
        assert!((ratio - BETA).abs() < 0.01, "loss ratio {ratio}");
        assert!(!c.in_slow_start());
    }

    #[test]
    fn cubic_recovers_toward_w_max() {
        let mut c = cubic();
        // Reach ~1000 MSS then lose.
        while c.cwnd().as_u64() < 9000 * 1000 {
            let w = c.cwnd();
            c.on_ack(w, None, SimTime::ZERO, w, true);
        }
        let w_before_loss = c.cwnd();
        c.on_loss(SimTime::ZERO);
        // Simulate 60 s of ACK clocking at 10 ms RTT.
        let rtt = SimDuration::from_millis(10);
        let mut now = SimTime::ZERO;
        for _ in 0..6000 {
            now += rtt;
            let w = c.cwnd();
            c.on_ack(w, Some(rtt), now, w, true);
        }
        assert!(
            c.cwnd().as_f64() >= w_before_loss.as_f64() * 0.95,
            "cwnd {:.0} MSS should have recovered toward {:.0} MSS",
            c.cwnd().as_f64() / 9000.0,
            w_before_loss.as_f64() / 9000.0
        );
    }

    #[test]
    fn hystart_css_slows_then_exits_on_sustained_rise() {
        let mut c = cubic();
        let base = SimDuration::from_millis(20);
        c.on_ack(c.cwnd(), Some(base), SimTime::ZERO, c.cwnd(), true);
        assert!(c.in_slow_start());
        // Sustained RTT inflation: CSS first (still nominally slow
        // start, quarter-rate growth), then a real exit.
        let inflated = SimDuration::from_millis(30);
        let before = c.cwnd();
        c.on_ack(before, Some(inflated), SimTime::ZERO, before, true);
        let grown = c.cwnd() - before;
        assert!(grown < before / 2, "CSS must grow at quarter rate");
        for _ in 0..8 {
            let w = c.cwnd();
            c.on_ack(w, Some(inflated), SimTime::ZERO, w, true);
        }
        assert!(!c.in_slow_start(), "sustained inflation ends slow start");
    }

    #[test]
    fn hystart_css_recovers_from_false_positive() {
        let mut c = cubic();
        let base = SimDuration::from_millis(20);
        c.on_ack(c.cwnd(), Some(base), SimTime::ZERO, c.cwnd(), true);
        // One inflated sample, then the queue drains.
        c.on_ack(c.cwnd(), Some(SimDuration::from_millis(30)), SimTime::ZERO, c.cwnd(), true);
        assert!(c.in_slow_start());
        c.on_ack(c.cwnd(), Some(base), SimTime::ZERO, c.cwnd(), true);
        // Full-rate doubling resumed.
        let before = c.cwnd();
        c.on_ack(before, Some(base), SimTime::ZERO, before, true);
        assert_eq!(c.cwnd(), before + before);
    }

    #[test]
    fn hystart_threshold_capped_at_16ms_on_104ms_path() {
        // RFC 9406 clamps the RTT-rise threshold to [4 ms, 16 ms].
        // On the paper's 104 ms AmLight path the uncapped floor/8 rule
        // gives 13 ms, so a 17 ms standing queue must trigger CSS.
        let mut c = cubic();
        let floor = SimDuration::from_millis(104);
        c.on_ack(c.cwnd(), Some(floor), SimTime::ZERO, c.cwnd(), true);
        assert!(c.in_slow_start());
        let inflated = floor + SimDuration::from_millis(17);
        let before = c.cwnd();
        c.on_ack(before, Some(inflated), SimTime::ZERO, before, true);
        let grown = c.cwnd() - before;
        assert!(grown < before / 2, "17 ms of queue at 104 ms floor must enter CSS");
    }

    #[test]
    fn hystart_threshold_cap_binds_beyond_128ms_floors() {
        // At a 200 ms floor, floor/8 = 25 ms: without the 16 ms cap a
        // 17 ms rise would be ignored and CSS would effectively never
        // trigger on long paths.
        let mut c = cubic();
        let floor = SimDuration::from_millis(200);
        c.on_ack(c.cwnd(), Some(floor), SimTime::ZERO, c.cwnd(), true);
        let inflated = floor + SimDuration::from_millis(17);
        let before = c.cwnd();
        c.on_ack(before, Some(inflated), SimTime::ZERO, before, true);
        let grown = c.cwnd() - before;
        assert!(grown < before / 2, "16 ms cap must bind on a 200 ms floor");
        // A rise below the cap still doubles at full rate.
        let mut c2 = cubic();
        c2.on_ack(c2.cwnd(), Some(floor), SimTime::ZERO, c2.cwnd(), true);
        let mild = floor + SimDuration::from_millis(10);
        let before2 = c2.cwnd();
        c2.on_ack(before2, Some(mild), SimTime::ZERO, before2, true);
        assert_eq!(c2.cwnd(), before2 + before2, "below-threshold rise stays in slow start");
    }

    #[test]
    fn hystart_lower_clamp_still_4ms() {
        // Short floor (8 ms): floor/8 = 1 ms clamps up to 4 ms, so a
        // 3 ms rise is tolerated and a 5 ms rise enters CSS.
        let mut c = cubic();
        let floor = SimDuration::from_millis(8);
        c.on_ack(c.cwnd(), Some(floor), SimTime::ZERO, c.cwnd(), true);
        let before = c.cwnd();
        c.on_ack(before, Some(floor + SimDuration::from_millis(3)), SimTime::ZERO, before, true);
        assert_eq!(c.cwnd(), before + before, "3 ms rise under the 4 ms clamp");
        let before2 = c.cwnd();
        c.on_ack(
            before2,
            Some(floor + SimDuration::from_millis(5)),
            SimTime::ZERO,
            before2,
            true,
        );
        assert!(c.cwnd() - before2 < before2 / 2, "5 ms rise over the clamp enters CSS");
    }

    #[test]
    fn ssthresh_reported_after_loss_only() {
        let mut c = cubic();
        assert_eq!(c.ssthresh(), None, "pre-loss ssthresh is infinite");
        c.on_loss(SimTime::ZERO);
        assert_eq!(c.ssthresh(), Some(c.cwnd()), "post-loss ssthresh = reduced cwnd");
    }

    #[test]
    fn rto_collapses_window() {
        let mut c = cubic();
        for _ in 0..10 {
            let w = c.cwnd();
            c.on_ack(w, None, SimTime::ZERO, w, true);
        }
        let before = c.cwnd();
        c.on_rto(SimTime::ZERO);
        assert!(c.cwnd() < before / 10);
        assert!(c.in_slow_start(), "RTO restarts slow start");
    }

    #[test]
    fn pacing_ratio_by_phase() {
        let mut c = cubic();
        let srtt = SimDuration::from_millis(10);
        let ss_rate = c.pacing_rate(srtt);
        let expect_ss = c.cwnd().bits() as f64 / 0.01 * 2.0;
        assert!((ss_rate.as_bps() - expect_ss).abs() / expect_ss < 1e-9);
        c.on_loss(SimTime::ZERO);
        let ca_rate = c.pacing_rate(srtt);
        let expect_ca = c.cwnd().bits() as f64 / 0.01 * 1.2;
        assert!((ca_rate.as_bps() - expect_ca).abs() / expect_ca < 1e-9);
    }

    #[test]
    fn fast_convergence_reduces_w_max() {
        let mut c = cubic();
        for _ in 0..12 {
            let w = c.cwnd();
            c.on_ack(w, None, SimTime::ZERO, w, true);
        }
        c.on_loss(SimTime::ZERO);
        let w_max_1 = c.w_max;
        // Second loss immediately (below previous w_max): fast
        // convergence shrinks the target.
        c.on_loss(SimTime::ZERO);
        assert!(c.w_max < w_max_1);
    }
}
