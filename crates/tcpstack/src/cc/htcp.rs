//! H-TCP congestion control (Leith & Shorten, "H-TCP: TCP for
//! high-speed and long-distance networks", PFLDnet 2004; Linux
//! `net/ipv4/tcp_htcp.c`).
//!
//! H-TCP keeps standard AIMD structure but makes both knobs adaptive:
//!
//! * **Additive increase** grows with the time Δ since the last
//!   congestion event — `α(Δ) = 1 + 10(Δ−Δ_L) + ((Δ−Δ_L)/2)²` MSS per
//!   RTT once Δ exceeds the low-speed regime `Δ_L` (1 s), optionally
//!   scaled by RTT so flows with different RTTs take bandwidth at
//!   comparable per-second rates (the `use_rtt_scaling` mode in Linux,
//!   on by default here because the high-BDP study's orderings assume
//!   it).
//! * **Multiplicative backoff** adapts to the queue: `β =
//!   RTTmin/RTTmax` measured since the last backoff, clamped to
//!   [0.5, 0.8] — on a near-empty queue (RTTmax ≈ RTTmin) H-TCP gives
//!   back only 20 %, where CUBIC always cuts to 70 %.
//!
//! Together these are why H-TCP out-ramps CUBIC on long-RTT lossy
//! paths (arXiv:1610.03534 ranks it above CUBIC at 200 ms RTT under
//! loss), which `tests/cc_matrix_golden.rs` pins as a golden ordering.

use super::{window_rate, CongestionControl};
use crate::cc::cubic::{CA_PACING_RATIO, SS_PACING_RATIO};
use simcore::{BitRate, Bytes, SimDuration, SimTime};

/// Low-speed regime: below this time since the last backoff, H-TCP
/// behaves like Reno (α = 1 MSS/RTT).
pub const DELTA_L: SimDuration = SimDuration::from_secs(1);
/// Adaptive-backoff floor (Linux `BETA_MIN` = 0.5).
pub const BETA_MIN: f64 = 0.5;
/// Adaptive-backoff cap (Linux `BETA_MAX` = 0.8).
pub const BETA_MAX: f64 = 0.8;
/// Reference RTT for RTT scaling (Linux scales α by minRTT/100 ms).
const RTT_SCALE_REF: f64 = 0.100;
/// RTT-scaling clamp (Linux clamps the factor to [0.1, 2.0]).
const RTT_SCALE_MIN: f64 = 0.1;
/// Upper clamp of the RTT-scaling factor.
const RTT_SCALE_MAX: f64 = 2.0;

/// H-TCP state.
#[derive(Debug, Clone)]
pub struct Htcp {
    mss: Bytes,
    min_cwnd: Bytes,
    cwnd: Bytes,
    ssthresh: Bytes,
    exited_slow_start: bool,
    /// Time of the last backoff; `None` until the first loss (Δ is
    /// then measured from connection start, keeping α small early).
    last_backoff: Option<SimTime>,
    /// Connection-lifetime propagation floor.
    min_rtt: Option<SimDuration>,
    /// Largest RTT seen since the last backoff (the queue signal β
    /// adapts to; reset each backoff like Linux's `maxRTT`).
    max_rtt: Option<SimDuration>,
    /// Current adaptive backoff factor.
    beta: f64,
}

impl Htcp {
    /// New H-TCP flow.
    pub fn new(mss: Bytes, init_cwnd: Bytes) -> Self {
        assert!(mss.as_u64() > 0, "MSS must be positive");
        Htcp {
            mss,
            min_cwnd: mss * super::MIN_CWND_SEGMENTS,
            cwnd: init_cwnd.max(mss * super::MIN_CWND_SEGMENTS),
            ssthresh: Bytes::new(u64::MAX),
            exited_slow_start: false,
            last_backoff: None,
            min_rtt: None,
            max_rtt: None,
            beta: BETA_MIN,
        }
    }

    /// Seconds since the last backoff (time 0 before the first one).
    fn delta(&self, now: SimTime) -> f64 {
        let since = self.last_backoff.unwrap_or(SimTime::ZERO);
        now.saturating_since(since).as_secs_f64()
    }

    /// α(Δ) in MSS per RTT: Reno inside the low-speed regime, then the
    /// Leith/Shorten quadratic, RTT-scaled and coupled to β so that
    /// gentler backoffs also probe more gently (Linux computes
    /// `alpha = 2·factor·(1−β)`).
    fn alpha(&self, now: SimTime) -> f64 {
        let d = self.delta(now) - DELTA_L.as_secs_f64();
        let base = if d <= 0.0 { 1.0 } else { 1.0 + 10.0 * d + (d / 2.0) * (d / 2.0) };
        let scale = match self.min_rtt {
            Some(m) => (m.as_secs_f64() / RTT_SCALE_REF).clamp(RTT_SCALE_MIN, RTT_SCALE_MAX),
            None => 1.0,
        };
        (2.0 * base * scale * (1.0 - self.beta)).max(1.0)
    }
}

impl CongestionControl for Htcp {
    fn on_ack(
        &mut self,
        acked: Bytes,
        rtt: Option<SimDuration>,
        now: SimTime,
        _inflight: Bytes,
        cwnd_limited: bool,
    ) {
        if let Some(r) = rtt {
            self.min_rtt = Some(self.min_rtt.map_or(r, |m| m.min(r)));
            self.max_rtt = Some(self.max_rtt.map_or(r, |m| m.max(r)));
        }
        if !cwnd_limited {
            // Not using the window: growing it would only bank a burst.
            return;
        }
        if self.in_slow_start() {
            self.cwnd += acked;
            if self.cwnd >= self.ssthresh {
                self.exited_slow_start = true;
            }
            return;
        }
        // Congestion avoidance: α(Δ) MSS per RTT, apportioned per ACK
        // by the fraction of the window this ACK covered.
        let alpha = self.alpha(now);
        let inc = alpha * self.mss.as_f64() * (acked.as_f64() / self.cwnd.as_f64().max(1.0));
        self.cwnd = Bytes::new((self.cwnd.as_f64() + inc) as u64);
    }

    fn on_loss(&mut self, now: SimTime) {
        // Adaptive backoff: β = RTTmin/RTTmax since the last backoff.
        // An empty queue (ratio near 1) gives back little; a full one
        // falls back to the Reno-style half.
        self.beta = match (self.min_rtt, self.max_rtt) {
            (Some(min), Some(max)) if !max.is_zero() => {
                (min.as_secs_f64() / max.as_secs_f64()).clamp(BETA_MIN, BETA_MAX)
            }
            _ => BETA_MIN,
        };
        let new = Bytes::new((self.cwnd.as_f64() * self.beta) as u64).max(self.min_cwnd);
        self.cwnd = new;
        self.ssthresh = new;
        self.exited_slow_start = true;
        self.last_backoff = Some(now);
        self.max_rtt = None;
    }

    fn on_rto(&mut self, now: SimTime) {
        self.ssthresh =
            Bytes::new((self.cwnd.as_f64() / 2.0) as u64).max(self.min_cwnd * 2);
        self.cwnd = self.min_cwnd.max(Bytes::new(self.mss.as_u64() * 2));
        self.exited_slow_start = false;
        self.last_backoff = Some(now);
        self.max_rtt = None;
        self.beta = BETA_MIN;
    }

    fn cwnd(&self) -> Bytes {
        self.cwnd
    }

    fn ssthresh(&self) -> Option<Bytes> {
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
        "htcp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mss() -> Bytes {
        Bytes::new(9000)
    }

    fn htcp() -> Htcp {
        Htcp::new(mss(), Bytes::new(9000 * 10))
    }

    /// Ack one full window per RTT for `rounds` rounds from `start`.
    fn clock(h: &mut Htcp, rtt: SimDuration, start: SimTime, rounds: usize) -> SimTime {
        let mut now = start;
        for _ in 0..rounds {
            now += rtt;
            let w = h.cwnd();
            h.on_ack(w, Some(rtt), now, w, true);
        }
        now
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut h = htcp();
        let start = h.cwnd();
        h.on_ack(start, Some(SimDuration::from_millis(10)), SimTime::ZERO, start, true);
        assert_eq!(h.cwnd(), start + start);
        assert!(h.in_slow_start());
    }

    #[test]
    fn low_speed_regime_is_reno() {
        let mut h = htcp();
        h.on_loss(SimTime::ZERO);
        // Within Δ_L of the backoff, α must stay small (Reno-like):
        // one RTT's worth of acks adds ≈ α ≤ 2 MSS.
        let before = h.cwnd();
        let rtt = SimDuration::from_millis(100);
        h.on_ack(before, Some(rtt), SimTime::ZERO + rtt, before, true);
        let grown = h.cwnd().as_f64() - before.as_f64();
        assert!(
            grown <= 2.5 * mss().as_f64(),
            "low-speed α must be Reno-like, grew {:.1} MSS",
            grown / mss().as_f64()
        );
    }

    #[test]
    fn alpha_accelerates_with_time_since_backoff() {
        let mut h = htcp();
        h.on_loss(SimTime::ZERO);
        let rtt = SimDuration::from_millis(100);
        // After 10 s the quadratic term dominates: one round must add
        // far more than Reno's single MSS.
        let far = SimTime::ZERO + SimDuration::from_secs(10);
        let before = h.cwnd();
        h.on_ack(before, Some(rtt), far, before, true);
        let grown = (h.cwnd().as_f64() - before.as_f64()) / mss().as_f64();
        assert!(grown > 50.0, "α(10 s) should exceed 50 MSS/RTT, got {grown:.1}");
    }

    #[test]
    fn backoff_adapts_to_queue_depth() {
        // Shallow queue (RTT barely rises): β → RTTmin/RTTmax ≈ 0.8.
        let mut h = htcp();
        let base = SimDuration::from_millis(100);
        let bloated = SimDuration::from_millis(110);
        let w = h.cwnd();
        h.on_ack(w, Some(base), SimTime::ZERO, w, true);
        h.on_ack(w, Some(bloated), SimTime::ZERO + base, w, true);
        let before = h.cwnd();
        h.on_loss(SimTime::ZERO + base * 2);
        let ratio = h.cwnd().as_f64() / before.as_f64();
        assert!((h.beta - BETA_MAX).abs() < 1e-9, "near-empty queue clamps β at 0.8");
        assert!((ratio - BETA_MAX).abs() < 0.01, "cut by β, got {ratio:.2}");

        // Deep queue (RTT tripled): β clamps at the 0.5 floor.
        let mut h2 = htcp();
        h2.on_ack(w, Some(base), SimTime::ZERO, w, true);
        h2.on_ack(w, Some(base * 3), SimTime::ZERO + base, w, true);
        h2.on_loss(SimTime::ZERO + base * 2);
        assert!((h2.beta - BETA_MIN).abs() < 1e-9, "bloated queue floors β at 0.5");
    }

    #[test]
    fn max_rtt_resets_each_backoff() {
        let mut h = htcp();
        let base = SimDuration::from_millis(50);
        let w = h.cwnd();
        h.on_ack(w, Some(base), SimTime::ZERO, w, true);
        h.on_ack(w, Some(base * 4), SimTime::ZERO + base, w, true);
        h.on_loss(SimTime::ZERO + base * 2);
        assert!((h.beta - BETA_MIN).abs() < 1e-9);
        // After the backoff only clean samples arrive: the stale
        // maxRTT must not keep β pinned at the floor.
        let t = SimTime::ZERO + SimDuration::from_secs(5);
        h.on_ack(h.cwnd(), Some(base), t, h.cwnd(), true);
        h.on_loss(t + base);
        assert!((h.beta - BETA_MAX).abs() < 1e-9, "β re-adapts after the queue drains");
    }

    #[test]
    fn rto_collapses_to_slow_start() {
        let mut h = htcp();
        let _ = clock(&mut h, SimDuration::from_millis(10), SimTime::ZERO, 10);
        let before = h.cwnd();
        h.on_rto(SimTime::ZERO + SimDuration::from_secs(1));
        assert!(h.cwnd() < before);
        assert!(h.in_slow_start());
        assert_eq!(h.cwnd(), Bytes::new(9000 * 2));
    }

    #[test]
    fn outramps_cubic_after_loss_at_long_rtt() {
        // The arXiv:1610.03534 ordering this PR pins end-to-end: at
        // 200 ms RTT, post-loss H-TCP's quadratic α recovers window
        // faster than CUBIC's cubic-in-time curve from a small W_max.
        use crate::cc::cubic::Cubic;
        let iw = Bytes::new(9000 * 10);
        let mut h = Htcp::new(mss(), iw);
        let mut c = Cubic::new(mss(), iw);
        let rtt = SimDuration::from_millis(200);
        let t0 = SimTime::ZERO + rtt;
        h.on_ack(iw, Some(rtt), t0, iw, true);
        c.on_ack(iw, Some(rtt), t0, iw, true);
        h.on_loss(t0);
        c.on_loss(t0);
        let mut now = t0;
        for _ in 0..100 {
            now += rtt;
            let wh = h.cwnd();
            h.on_ack(wh, Some(rtt), now, wh, true);
            let wc = c.cwnd();
            c.on_ack(wc, Some(rtt), now, wc, true);
        }
        assert!(
            h.cwnd() >= c.cwnd(),
            "H-TCP {} must out-ramp CUBIC {} at 200 ms RTT",
            h.cwnd(),
            c.cwnd()
        );
    }

    #[test]
    fn ssthresh_reported_after_loss_only() {
        let mut h = htcp();
        assert_eq!(h.ssthresh(), None);
        h.on_loss(SimTime::ZERO);
        assert_eq!(h.ssthresh(), Some(h.cwnd()));
    }

    #[test]
    fn pacing_ratio_by_phase() {
        let mut h = htcp();
        let srtt = SimDuration::from_millis(10);
        let ss = h.pacing_rate(srtt).as_bps();
        let expect_ss = h.cwnd().bits() as f64 / 0.01 * 2.0;
        assert!((ss - expect_ss).abs() / expect_ss < 1e-9);
        h.on_loss(SimTime::ZERO);
        let ca = h.pacing_rate(srtt).as_bps();
        let expect_ca = h.cwnd().bits() as f64 / 0.01 * 1.2;
        assert!((ca - expect_ca).abs() / expect_ca < 1e-9);
    }
}
