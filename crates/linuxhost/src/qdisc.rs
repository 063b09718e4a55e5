//! fq qdisc pacing.
//!
//! With `net.core.default_qdisc=fq`, TCP paces its own traffic
//! (`tcp_pacing_ss_ratio` = 200 % of cwnd/srtt in slow start, 120 % in
//! congestion avoidance), and an application can additionally cap the
//! rate per socket (`SO_MAX_PACING_RATE`, surfaced by iperf3 as
//! `--fq-rate`). With the stock `fq_codel` there is no pacing at all:
//! bursts leave back-to-back at line rate — the packet trains that
//! overrun receivers on long paths (§II-D).
//!
//! Pacing above 32 Gbps requires iperf3 patch #1728 (the `--fq-rate`
//! option was a `u32` of bits/sec); the tool layer enforces that.

use crate::calib;
use crate::sysctl::Qdisc;
use simcore::{BitRate, Bytes, SimTime};

/// Per-flow departure pacer.
#[derive(Debug, Clone)]
pub struct Pacer {
    qdisc: Qdisc,
    /// Explicit `--fq-rate` cap, if any.
    fq_rate: Option<BitRate>,
    /// Earliest time the next burst may leave.
    next_allowed: SimTime,
}

impl Pacer {
    /// New pacer. `fq_rate` is ignored (with a debug assertion) when
    /// the qdisc cannot pace.
    pub fn new(qdisc: Qdisc, fq_rate: Option<BitRate>) -> Self {
        debug_assert!(
            fq_rate.is_none() || qdisc == Qdisc::Fq,
            "--fq-rate requires the fq qdisc"
        );
        let fq_rate = if qdisc == Qdisc::Fq { fq_rate } else { None };
        Pacer { qdisc, fq_rate, next_allowed: SimTime::ZERO }
    }

    /// The rate at which departures are spaced right now.
    ///
    /// * `tcp_auto_rate` — the stack's own pacing rate
    ///   (ratio × cwnd/srtt), already computed by the TCP layer.
    /// * `line_rate` — the NIC wire rate, the hard ceiling.
    ///
    /// fq applies the *minimum* of the socket cap and TCP's rate; the
    /// explicit cap also pays a small scheduling inefficiency
    /// ([`calib::PACING_EFFICIENCY`]) observed as e.g. 8×15 Gbps
    /// yielding ~115 Gbps in the paper's Table II.
    pub fn current_rate(&self, tcp_auto_rate: BitRate, line_rate: BitRate) -> BitRate {
        match self.qdisc {
            Qdisc::FqCodel => line_rate,
            Qdisc::Fq => {
                let auto = if tcp_auto_rate.is_zero() { line_rate } else { tcp_auto_rate };
                match self.fq_rate {
                    Some(cap) => cap.mul_f64(calib::PACING_EFFICIENCY).min(auto).min(line_rate),
                    None => auto.min(line_rate),
                }
            }
        }
    }

    /// Schedule a burst for departure: returns the departure time and
    /// advances the pacing horizon.
    pub fn schedule(
        &mut self,
        now: SimTime,
        burst: Bytes,
        tcp_auto_rate: BitRate,
        line_rate: BitRate,
    ) -> SimTime {
        let rate = self.current_rate(tcp_auto_rate, line_rate);
        let start = self.next_allowed.max(now);
        self.next_allowed = start + rate.serialize_time(burst);
        start
    }

    /// How far ahead of `now` the pacing horizon currently sits — the
    /// qdisc residence time a burst enqueued now would see. TCP Small
    /// Queues keeps this bounded (a flow never parks more than ~1–2 ms
    /// of data in the qdisc).
    pub fn backlog(&self, now: SimTime) -> simcore::SimDuration {
        self.next_allowed.saturating_since(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: BitRate = BitRate::ZERO; // placeholder, set in fns

    fn line() -> BitRate {
        let _ = LINE;
        BitRate::gbps(100.0)
    }

    #[test]
    fn fq_codel_never_paces() {
        let p = Pacer::new(Qdisc::FqCodel, None);
        assert_eq!(p.current_rate(BitRate::gbps(10.0), line()).as_gbps(), 100.0);
    }

    #[test]
    fn fq_without_cap_uses_tcp_auto_rate() {
        let p = Pacer::new(Qdisc::Fq, None);
        let r = p.current_rate(BitRate::gbps(30.0), line());
        assert!((r.as_gbps() - 30.0).abs() < 1e-9);
        // Auto rate above line rate is clipped.
        let r2 = p.current_rate(BitRate::gbps(500.0), line());
        assert_eq!(r2.as_gbps(), 100.0);
    }

    #[test]
    fn explicit_cap_wins_when_lower() {
        let p = Pacer::new(Qdisc::Fq, Some(BitRate::gbps(50.0)));
        let r = p.current_rate(BitRate::gbps(90.0), line());
        let expect = 50.0 * calib::PACING_EFFICIENCY;
        assert!((r.as_gbps() - expect).abs() < 1e-6, "got {}", r.as_gbps());
        // TCP auto rate below the cap wins.
        let r2 = p.current_rate(BitRate::gbps(10.0), line());
        assert!((r2.as_gbps() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn schedule_spaces_departures() {
        let mut p = Pacer::new(Qdisc::Fq, Some(BitRate::gbps(50.0)));
        let burst = Bytes::kib(64);
        let auto = BitRate::gbps(400.0);
        let d1 = p.schedule(SimTime::ZERO, burst, auto, line());
        let d2 = p.schedule(SimTime::ZERO, burst, auto, line());
        assert_eq!(d1, SimTime::ZERO);
        let eff = BitRate::gbps(50.0 * calib::PACING_EFFICIENCY);
        let spacing = eff.serialize_time(burst);
        assert_eq!((d2 - d1).as_nanos(), spacing.as_nanos());
    }

    #[test]
    fn schedule_respects_now() {
        let mut p = Pacer::new(Qdisc::Fq, None);
        let t = SimTime::from_nanos(5_000);
        let d = p.schedule(t, Bytes::kib(64), BitRate::gbps(10.0), line());
        assert_eq!(d, t);
        // Next departure is after the spacing even if asked earlier.
        let d2 = p.schedule(t, Bytes::kib(64), BitRate::gbps(10.0), line());
        assert!(d2 > t);
    }

    #[test]
    fn pacer_idle_catches_up() {
        let mut p = Pacer::new(Qdisc::Fq, Some(BitRate::gbps(1.0)));
        let _ = p.schedule(SimTime::ZERO, Bytes::kib(64), BitRate::gbps(100.0), line());
        // Long idle: the horizon does not owe us credit (no burst
        // catch-up beyond "now").
        let late = SimTime::from_secs_f64(1.0);
        let d = p.schedule(late, Bytes::kib(64), BitRate::gbps(100.0), line());
        assert_eq!(d, late);
    }
}
