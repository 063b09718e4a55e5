//! Sender-side TCP state: windows, SACK scoreboard, retransmission.
//!
//! Loss detection follows the SACK/FACK rule at burst granularity: a
//! burst is marked lost once the receiver has acknowledged data three
//! or more bursts above it (the dup-ACK threshold). Fast retransmit
//! re-queues lost bursts ahead of new data and enters a *recovery
//! episode* — the congestion window is reduced once per episode, not
//! once per lost burst. An expired RTO collapses to slow start.

use crate::cc::CongestionControl;
use crate::rtt::RttEstimator;
use simcore::{Bytes, SimDuration, SimTime};
use std::collections::VecDeque;

/// Dup-ACK / SACK reordering threshold, in bursts.
const DUP_THRESH: u64 = 3;

/// What the sender may transmit next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendSlot {
    /// Retransmit this burst index.
    Retransmit(u64),
    /// Transmit a new burst with this index.
    New(u64),
    /// Window or data exhausted; nothing to send.
    Blocked,
}

/// Which loss timer is due.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerKind {
    /// Tail-loss probe (fires first; gentle).
    Tlp,
    /// Retransmission timeout (collapses to slow start).
    Rto,
}

/// Result of processing one ACK.
#[derive(Debug, Clone, Default)]
pub struct AckOutcome {
    /// Bytes newly acknowledged by this ACK.
    pub newly_acked: Bytes,
    /// Whether this ACK started a recovery episode (cwnd was reduced).
    pub entered_recovery: bool,
    /// Bursts newly marked lost and queued for retransmission.
    pub marked_lost: u64,
}

#[derive(Debug, Clone, Copy)]
struct Outstanding {
    sent_at: SimTime,
    /// Ever retransmitted (Karn: no RTT sample).
    retransmitted: bool,
    acked: bool,
    /// Marked lost, awaiting (or undergoing) retransmission.
    lost: bool,
}

/// Sender state for one flow.
#[derive(Clone)]
pub struct TcpSender {
    cc: Box<dyn CongestionControl>,
    /// RTT estimator (public: the simulator reads srtt/rto from it).
    pub rtt: RttEstimator,
    burst: Bytes,
    mtu: Bytes,
    /// First unacknowledged burst.
    snd_una: u64,
    /// Next new burst index.
    snd_nxt: u64,
    /// Scoreboard for bursts `[snd_una, snd_nxt)`: entries are created
    /// at `snd_nxt` and released from the front as `snd_una` advances,
    /// so the live keys are always contiguous — a deque indexed by
    /// `idx - snd_una` replaces the old ordered map on the hot path.
    outstanding: VecDeque<Outstanding>,
    retx_queue: VecDeque<u64>,
    /// Bursts currently in flight (sent, not acked, not marked lost).
    inflight_bursts: u64,
    /// Highest burst index SACKed so far.
    high_sacked: u64,
    /// Loss marking has scanned up to this index (avoids rescans).
    loss_scan_floor: u64,
    in_recovery: bool,
    /// Recovery ends when cum-ack passes this.
    recovery_high: u64,
    /// Duplicate-ACK count for the current left edge.
    dupacks: u32,
    /// Peer's advertised window.
    rwnd: Bytes,
    /// `tcp_wmem[2]`: send-buffer autotuning ceiling.
    wmem_max: Bytes,
    /// Bursts written by the app, not yet transmitted.
    app_buffered: u64,
    /// Total bursts retransmitted (→ `Retr` in MTU packets).
    retx_bursts: u64,
    rto_events: u64,
    /// Time of the last forward ACK progress (for the tail-loss probe).
    last_progress: SimTime,
    /// A TLP may fire once per progress-free period.
    tlp_armed: bool,
    tlp_events: u64,
    /// ACKs that advanced the window (the denominator of the
    /// cwnd-limited fraction).
    acks_processed: u64,
    /// Of those, ACKs where the flight pressed against cwnd — Linux's
    /// `tcp_is_cwnd_limited()` signal, counted for attribution.
    cwnd_limited_acks: u64,
    /// Total application bursts for a finite flow (`None` = unbounded,
    /// the iperf3-style duration-driven mode). The flow FINs once the
    /// last burst is written and completes when it is cumulatively
    /// acknowledged (the FIN's ACK, at burst granularity).
    flow_bursts: Option<u64>,
    /// Bursts the application has written so far (finite-flow gate).
    bursts_written: u64,
}

impl std::fmt::Debug for TcpSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpSender")
            .field("cc", &self.cc.name())
            .field("snd_una", &self.snd_una)
            .field("snd_nxt", &self.snd_nxt)
            .field("inflight", &self.inflight())
            .field("cwnd", &self.cc.cwnd())
            .finish()
    }
}

impl TcpSender {
    /// New sender.
    ///
    /// `initial_rwnd` is the peer's first advertised window; `wmem_max`
    /// bounds the send buffer (`tcp_wmem[2]`).
    pub fn new(
        cc: Box<dyn CongestionControl>,
        burst: Bytes,
        mtu: Bytes,
        wmem_max: Bytes,
        initial_rwnd: Bytes,
    ) -> Self {
        assert!(!burst.is_zero() && !mtu.is_zero(), "sizes must be positive");
        TcpSender {
            cc,
            rtt: RttEstimator::new(),
            burst,
            mtu,
            snd_una: 0,
            snd_nxt: 0,
            outstanding: VecDeque::with_capacity(64),
            retx_queue: VecDeque::new(),
            inflight_bursts: 0,
            high_sacked: 0,
            loss_scan_floor: 0,
            in_recovery: false,
            recovery_high: 0,
            dupacks: 0,
            rwnd: initial_rwnd,
            wmem_max,
            app_buffered: 0,
            retx_bursts: 0,
            rto_events: 0,
            last_progress: SimTime::ZERO,
            tlp_armed: true,
            tlp_events: 0,
            acks_processed: 0,
            cwnd_limited_acks: 0,
            flow_bursts: None,
            bursts_written: 0,
        }
    }

    /// Make this a finite flow of exactly `bursts` application bursts.
    /// After the limit is written, [`TcpSender::app_can_write`] stays
    /// false; the flow is [`TcpSender::is_complete`] once every burst
    /// is cumulatively acknowledged.
    pub fn set_flow_bursts(&mut self, bursts: u64) {
        assert!(bursts > 0, "a finite flow must carry at least one burst");
        self.flow_bursts = Some(bursts);
    }

    /// A finite flow is complete when its last burst is cumulatively
    /// acknowledged — the burst-granularity equivalent of the FIN being
    /// ACKed. Unbounded flows never complete.
    pub fn is_complete(&self) -> bool {
        self.flow_bursts.is_some_and(|n| self.snd_una >= n)
    }

    /// Bytes in flight (sent, not acked, not marked lost).
    pub fn inflight(&self) -> Bytes {
        Bytes::new(self.inflight_bursts * self.burst.as_u64())
    }

    /// The effective send window: cwnd ∧ rwnd ∧ wmem ceiling, floored
    /// at one burst (TCP always keeps at least one segment moving).
    pub fn effective_window(&self) -> Bytes {
        self.cc.cwnd().min(self.rwnd).min(self.wmem_max).max(self.burst)
    }

    /// Send-buffer limit: Linux autotunes `sk_sndbuf` toward twice the
    /// congestion window, capped by `tcp_wmem[2]`.
    pub fn sndbuf_limit(&self) -> Bytes {
        let twice_cwnd = Bytes::new(self.cc.cwnd().as_u64().saturating_mul(2));
        twice_cwnd.max(self.burst.max(Bytes::kib(64)) * 16).min(self.wmem_max)
    }

    /// Can the application write another burst into the socket?
    pub fn app_can_write(&self) -> bool {
        if self.flow_bursts.is_some_and(|n| self.bursts_written >= n) {
            return false;
        }
        let queued = Bytes::new(self.app_buffered * self.burst.as_u64()) + self.inflight();
        queued + self.burst <= self.sndbuf_limit()
    }

    /// The application wrote one burst into the socket buffer.
    pub fn app_wrote(&mut self) {
        debug_assert!(
            self.flow_bursts.is_none_or(|n| self.bursts_written < n),
            "app wrote past the finite-flow size"
        );
        self.app_buffered += 1;
        self.bursts_written += 1;
    }

    /// Whether a transmission slot is available right now.
    pub fn can_send(&self) -> bool {
        let window_ok = self.inflight() + self.burst <= self.effective_window();
        window_ok && (!self.retx_queue.is_empty() || self.app_buffered > 0)
    }

    /// Scoreboard entry for burst `idx`, if it is still tracked
    /// (`snd_una <= idx < snd_nxt`).
    #[inline]
    fn slot_mut(&mut self, idx: u64) -> Option<&mut Outstanding> {
        let off = idx.checked_sub(self.snd_una)?;
        self.outstanding.get_mut(off as usize)
    }

    /// Claim the next transmission slot at time `now`.
    pub fn next_slot(&mut self, now: SimTime) -> SendSlot {
        if self.inflight() + self.burst > self.effective_window() {
            return SendSlot::Blocked;
        }
        while let Some(idx) = self.retx_queue.pop_front() {
            // Skip entries that were acknowledged (or cum-released)
            // after being queued for retransmission.
            let Some(o) = self.slot_mut(idx) else { continue };
            if o.acked || !o.lost {
                continue;
            }
            o.lost = false;
            o.retransmitted = true;
            o.sent_at = now;
            self.inflight_bursts += 1;
            self.retx_bursts += 1;
            return SendSlot::Retransmit(idx);
        }
        if self.app_buffered > 0 {
            self.app_buffered -= 1;
            let idx = self.snd_nxt;
            self.snd_nxt += 1;
            self.outstanding.push_back(Outstanding {
                sent_at: now,
                retransmitted: false,
                acked: false,
                lost: false,
            });
            self.inflight_bursts += 1;
            return SendSlot::New(idx);
        }
        SendSlot::Blocked
    }

    /// The burst actually left the host (after pacing and softirq
    /// queueing). Refreshes the timestamp used for RTT sampling and the
    /// RTO clock — pacer residence time must not count as network RTT.
    pub fn mark_transmitted(&mut self, idx: u64, now: SimTime) {
        if let Some(o) = self.slot_mut(idx) {
            if !o.acked {
                o.sent_at = now;
            }
        }
        // The probe timeout runs from the last *send* (Linux arms the
        // TLP timer on every transmitted packet), not only from ACK
        // progress: a flow opened mid-simulation would otherwise
        // compute its first deadline from time zero — far in the past —
        // and fire one spurious probe per flow.
        self.last_progress = self.last_progress.max(now);
    }

    /// Process an ACK `(cum_ack, acked_idx, rwnd)` arriving at `now`.
    pub fn on_ack(
        &mut self,
        cum_ack: u64,
        acked_idx: u64,
        rwnd: Bytes,
        now: SimTime,
    ) -> AckOutcome {
        let mut out = AckOutcome::default();
        self.rwnd = rwnd;
        let mut rtt_sample: Option<SimDuration> = None;

        // SACK the specific burst.
        if let Some(o) = self.slot_mut(acked_idx) {
            if !o.acked {
                let was_inflight = !o.lost;
                o.acked = true;
                o.lost = false;
                let sample = (!o.retransmitted).then(|| now.saturating_since(o.sent_at));
                if was_inflight {
                    self.inflight_bursts -= 1;
                }
                out.newly_acked += self.burst;
                rtt_sample = sample;
            }
        }
        self.high_sacked = self.high_sacked.max(acked_idx);

        // Cumulative ACK: everything below cum_ack is delivered.
        let advanced = cum_ack > self.snd_una;
        while self.snd_una < cum_ack {
            if let Some(o) = self.outstanding.pop_front() {
                if !o.acked {
                    if !o.lost {
                        self.inflight_bursts -= 1;
                    }
                    out.newly_acked += self.burst;
                }
            }
            self.snd_una += 1;
        }
        // Drop any stale retransmit requests below the new left edge.
        self.retx_queue.retain(|&idx| idx >= cum_ack);

        if advanced {
            self.dupacks = 0;
        } else if acked_idx > self.snd_una && !out.newly_acked.is_zero() {
            // An ACK that sacks new data above a hole without moving
            // the left edge: a duplicate ACK.
            self.dupacks += 1;
        }

        if self.in_recovery && cum_ack >= self.recovery_high {
            self.in_recovery = false;
        }

        // After DUP_THRESH duplicate ACKs, every unacked burst below
        // the highest SACK is considered lost (RFC 6675-style SACK
        // scoreboard at burst granularity).
        if self.dupacks >= DUP_THRESH as u32 && self.high_sacked > self.snd_una {
            let scan_from = self.snd_una.max(self.loss_scan_floor);
            let start = (scan_from - self.snd_una) as usize;
            let end = ((self.high_sacked - self.snd_una) as usize).min(self.outstanding.len());
            for off in start..end {
                let o = &mut self.outstanding[off];
                if o.acked || o.lost {
                    continue;
                }
                o.lost = true;
                self.inflight_bursts -= 1;
                self.retx_queue.push_back(self.snd_una + off as u64);
                out.marked_lost += 1;
            }
            self.loss_scan_floor = self.high_sacked;
            if out.marked_lost > 0 && !self.in_recovery {
                self.in_recovery = true;
                self.recovery_high = self.snd_nxt;
                self.cc.on_loss(now);
                out.entered_recovery = true;
            }
        }

        if let Some(s) = rtt_sample {
            self.rtt.on_sample(s, now);
        }
        if !out.newly_acked.is_zero() {
            self.last_progress = now;
            self.tlp_armed = true;
        }
        if !out.newly_acked.is_zero() {
            let inflight = self.inflight();
            // Approximate Linux's tcp_is_cwnd_limited(): in slow start
            // the window may grow until it reaches twice the flight
            // size (headroom that later absorbs loss cuts without a
            // throughput dip); in congestion avoidance it only grows
            // when the flight actually presses against it.
            let pre_ack = inflight + out.newly_acked + self.burst;
            let cwnd = self.cc.cwnd().min(self.rwnd);
            let threshold = if self.cc.in_slow_start() { cwnd / 2 } else { cwnd };
            let cwnd_limited = pre_ack >= threshold;
            self.acks_processed += 1;
            if cwnd_limited {
                self.cwnd_limited_acks += 1;
            }
            self.cc.on_ack(out.newly_acked, rtt_sample, now, inflight, cwnd_limited);
        }
        out
    }

    /// Retransmission timeout fired at `now`: collapse to slow start
    /// and re-queue everything outstanding.
    pub fn on_rto(&mut self, now: SimTime) {
        self.rto_events += 1;
        self.cc.on_rto(now);
        // Everything outstanding is old data now: retransmissions and
        // the SACK pattern they produce must not be treated as *new*
        // loss episodes (that would keep cutting the already-collapsed
        // window). Recovery holds until the pre-RTO data is all acked.
        self.in_recovery = true;
        self.recovery_high = self.snd_nxt;
        self.dupacks = 0;
        self.retx_queue.clear();
        for (off, o) in self.outstanding.iter_mut().enumerate() {
            if !o.acked {
                if !o.lost {
                    self.inflight_bursts -= 1;
                }
                o.lost = true;
                self.retx_queue.push_back(self.snd_una + off as u64);
            }
        }
        self.loss_scan_floor = 0;
    }

    /// Tail-loss-probe deadline: 2×SRTT after the last forward
    /// progress (RFC 8985 PTO, simplified), while data is in flight.
    pub fn tlp_deadline(&self) -> Option<SimTime> {
        if !self.tlp_armed || self.inflight_bursts == 0 || self.in_recovery {
            return None;
        }
        let srtt = self.rtt.srtt_or(SimDuration::from_millis(10));
        Some(self.last_progress + srtt * 2 + SimDuration::from_millis(2))
    }

    /// Fire the tail-loss probe: retransmit the highest in-flight burst
    /// so the receiver generates the ACKs/SACKs that let normal fast
    /// recovery repair a tail drop — instead of waiting for the RTO and
    /// collapsing to slow start.
    pub fn on_tlp(&mut self, _now: SimTime) {
        self.tlp_armed = false;
        self.tlp_events += 1;
        let Some((off, _)) = self
            .outstanding
            .iter()
            .enumerate()
            .rev()
            .find(|(_, o)| !o.acked && !o.lost)
        else {
            return;
        };
        let idx = self.snd_una + off as u64;
        self.outstanding[off].lost = true;
        self.inflight_bursts -= 1;
        self.retx_queue.push_back(idx);
    }

    /// Number of tail-loss probes fired.
    pub fn tlp_events(&self) -> u64 {
        self.tlp_events
    }

    /// The earliest pending timer (TLP or RTO) and a token describing
    /// which one it is.
    pub fn timer_deadline(&self) -> Option<(SimTime, TimerKind)> {
        let rto = self.rto_deadline().map(|t| (t, TimerKind::Rto));
        let tlp = self.tlp_deadline().map(|t| (t, TimerKind::Tlp));
        match (tlp, rto) {
            (Some(a), Some(b)) => Some(if a.0 <= b.0 { a } else { b }),
            (a, b) => a.or(b),
        }
    }

    /// When should the RTO fire?
    ///
    /// Scans a bounded prefix of the scoreboard for the oldest
    /// in-flight burst (entries near the left edge are the oldest; a
    /// cap keeps this O(1) amortised — exactly-oldest is not required
    /// for a timeout clock).
    pub fn rto_deadline(&self) -> Option<SimTime> {
        self.outstanding
            .iter()
            .take(64)
            .filter(|o| !o.acked && !o.lost)
            .map(|o| o.sent_at)
            .min()
            .or_else(|| {
                if self.inflight_bursts > 0 {
                    // Oldest in-flight is beyond the scan cap: fall
                    // back to any in-flight entry (still a valid clock).
                    self.outstanding
                        .iter()
                        .find(|o| !o.acked && !o.lost)
                        .map(|o| o.sent_at)
                } else {
                    None
                }
            })
            .map(|t| t + self.rtt.rto())
    }

    /// Whether a recovery episode is in progress.
    pub fn in_recovery(&self) -> bool {
        self.in_recovery
    }

    /// Total retransmitted bursts.
    pub fn retx_bursts(&self) -> u64 {
        self.retx_bursts
    }

    /// ACKs that advanced the window so far.
    pub fn acks_processed(&self) -> u64 {
        self.acks_processed
    }

    /// Of [`TcpSender::acks_processed`], how many found the flight
    /// pressing against cwnd (`tcp_is_cwnd_limited()` true).
    pub fn cwnd_limited_acks(&self) -> u64 {
        self.cwnd_limited_acks
    }

    /// Retransmissions in MTU packets — iperf3's `Retr`.
    pub fn retr_packets(&self) -> u64 {
        self.retx_bursts * self.burst.packets_at_mtu(self.mtu)
    }

    /// Number of RTO events.
    pub fn rto_events(&self) -> u64 {
        self.rto_events
    }

    /// Access the congestion controller.
    pub fn cc(&self) -> &dyn CongestionControl {
        self.cc.as_ref()
    }

    /// Current pacing rate from the congestion controller.
    pub fn tcp_pacing_rate(&self) -> simcore::BitRate {
        self.cc.pacing_rate(self.rtt.srtt_or(SimDuration::from_micros(500)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::CcAlgorithm;

    fn sender() -> TcpSender {
        let burst = Bytes::kib(64);
        // Large initial cwnd so window isn't the constraint in most tests.
        let cc = CcAlgorithm::Cubic.build(Bytes::new(9000), Bytes::mib(4));
        TcpSender::new(cc, burst, Bytes::new(9000), Bytes::gib(1), Bytes::gib(1))
    }

    fn fill(s: &mut TcpSender, n: u64) -> Vec<u64> {
        let mut sent = Vec::new();
        for _ in 0..n {
            s.app_wrote();
            match s.next_slot(SimTime::ZERO) {
                SendSlot::New(idx) => sent.push(idx),
                other => panic!("expected New, got {other:?}"),
            }
        }
        sent
    }

    #[test]
    fn sends_new_data_within_window() {
        let mut s = sender();
        let sent = fill(&mut s, 4);
        assert_eq!(sent, vec![0, 1, 2, 3]);
        assert_eq!(s.inflight(), Bytes::kib(256));
        assert_eq!(s.snd_nxt, 4);
    }

    #[test]
    fn blocked_when_window_full() {
        let burst = Bytes::kib(64);
        let cc = CcAlgorithm::Cubic.build(Bytes::new(9000), Bytes::kib(128));
        let mut s = TcpSender::new(cc, burst, Bytes::new(9000), Bytes::gib(1), Bytes::gib(1));
        s.app_wrote();
        s.app_wrote();
        s.app_wrote();
        assert!(matches!(s.next_slot(SimTime::ZERO), SendSlot::New(0)));
        assert!(matches!(s.next_slot(SimTime::ZERO), SendSlot::New(1)));
        // cwnd = 128 KiB = 2 bursts: third must block.
        assert!(matches!(s.next_slot(SimTime::ZERO), SendSlot::Blocked));
        assert!(!s.can_send());
    }

    #[test]
    fn cumulative_ack_releases_window() {
        let mut s = sender();
        fill(&mut s, 4);
        let out = s.on_ack(2, 1, Bytes::gib(1), SimTime::from_nanos(1000));
        assert_eq!(out.newly_acked, Bytes::kib(128));
        assert_eq!(s.snd_una, 2);
        assert_eq!(s.inflight(), Bytes::kib(128));
    }

    #[test]
    fn sack_hole_triggers_fast_retransmit_after_threshold() {
        let mut s = sender();
        fill(&mut s, 8);
        let t = SimTime::from_nanos(10_000);
        // Burst 0 lost; receiver ACKs 1, 2, 3 (cum stays 0).
        assert_eq!(s.on_ack(0, 1, Bytes::gib(1), t).marked_lost, 0);
        assert_eq!(s.on_ack(0, 2, Bytes::gib(1), t).marked_lost, 0);
        let out = s.on_ack(0, 3, Bytes::gib(1), t);
        assert_eq!(out.marked_lost, 1, "burst 0 lost after 3 SACKs above");
        assert!(out.entered_recovery);
        assert!(s.in_recovery());
        // Retransmit comes before new data.
        match s.next_slot(t) {
            SendSlot::Retransmit(0) => {}
            other => panic!("expected Retransmit(0), got {other:?}"),
        }
        assert_eq!(s.retx_bursts(), 1);
    }

    #[test]
    fn recovery_reduces_cwnd_once_per_episode() {
        let mut s = sender();
        fill(&mut s, 16);
        let t = SimTime::from_nanos(10_000);
        let cwnd_before = s.cc().cwnd();
        // Two holes (0 and 1); SACKs climb.
        s.on_ack(0, 2, Bytes::gib(1), t);
        s.on_ack(0, 3, Bytes::gib(1), t);
        let o1 = s.on_ack(0, 4, Bytes::gib(1), t);
        assert!(o1.entered_recovery);
        let after_first = s.cc().cwnd();
        assert!(after_first < cwnd_before);
        let o2 = s.on_ack(0, 5, Bytes::gib(1), t);
        assert!(!o2.entered_recovery, "same episode: no second reduction");
        assert_eq!(s.cc().cwnd(), after_first);
    }

    #[test]
    fn recovery_ends_when_cum_ack_passes_recovery_high() {
        let mut s = sender();
        fill(&mut s, 8);
        let t = SimTime::from_nanos(10_000);
        s.on_ack(0, 1, Bytes::gib(1), t);
        s.on_ack(0, 2, Bytes::gib(1), t);
        s.on_ack(0, 3, Bytes::gib(1), t);
        assert!(s.in_recovery());
        // Retransmit 0, receiver fills the hole → cum jumps to 8.
        assert!(matches!(s.next_slot(t), SendSlot::Retransmit(0)));
        s.on_ack(8, 0, Bytes::gib(1), t);
        assert!(!s.in_recovery());
        assert_eq!(s.snd_una, 8);
        assert_eq!(s.inflight(), Bytes::ZERO);
    }

    #[test]
    fn karn_no_rtt_sample_from_retransmits() {
        let mut s = sender();
        fill(&mut s, 5);
        let t1 = SimTime::from_nanos(100_000);
        s.on_ack(0, 1, Bytes::gib(1), t1);
        s.on_ack(0, 2, Bytes::gib(1), t1);
        s.on_ack(0, 3, Bytes::gib(1), t1);
        let srtt_before = s.rtt.srtt();
        assert!(matches!(s.next_slot(t1), SendSlot::Retransmit(0)));
        // ACK of the retransmitted burst must not update SRTT.
        let far = SimTime::from_secs_f64(5.0);
        s.on_ack(5, 0, Bytes::gib(1), far);
        assert_eq!(s.rtt.srtt(), srtt_before);
    }

    #[test]
    fn rto_requeues_everything_and_restarts_slow_start() {
        let mut s = sender();
        fill(&mut s, 6);
        let t = SimTime::from_secs_f64(2.0);
        s.on_rto(t);
        assert_eq!(s.rto_events(), 1);
        assert!(s.cc().in_slow_start());
        assert_eq!(s.inflight(), Bytes::ZERO, "everything marked lost");
        // First retransmission is the left edge.
        assert!(matches!(s.next_slot(t), SendSlot::Retransmit(0)));
    }

    #[test]
    fn rwnd_limits_window() {
        let mut s = sender();
        fill(&mut s, 2);
        s.on_ack(2, 1, Bytes::kib(64), SimTime::from_nanos(500));
        // Peer advertises one burst of window: only one more send allowed.
        s.app_wrote();
        s.app_wrote();
        assert!(matches!(s.next_slot(SimTime::ZERO), SendSlot::New(2)));
        assert!(matches!(s.next_slot(SimTime::ZERO), SendSlot::Blocked));
    }

    #[test]
    fn retr_packets_scale_by_mtu() {
        let mut s = sender();
        fill(&mut s, 5);
        let t = SimTime::from_nanos(1_000);
        s.on_ack(0, 1, Bytes::gib(1), t);
        s.on_ack(0, 2, Bytes::gib(1), t);
        s.on_ack(0, 3, Bytes::gib(1), t);
        let _ = s.next_slot(t);
        // One 64 KiB burst at 9000-byte MTU = 8 wire packets.
        assert_eq!(s.retr_packets(), 8);
    }

    #[test]
    fn app_write_gating_by_sndbuf() {
        let burst = Bytes::kib(64);
        let cc = CcAlgorithm::Cubic.build(Bytes::new(9000), Bytes::kib(128));
        let mut s = TcpSender::new(cc, burst, Bytes::new(9000), Bytes::mib(1), Bytes::gib(1));
        let mut writes = 0;
        while s.app_can_write() && writes < 100 {
            s.app_wrote();
            writes += 1;
        }
        assert!(writes < 100, "sndbuf must bound buffered writes, wrote {writes}");
        assert!(writes >= 2);
    }

    #[test]
    fn finite_flow_gates_writes_and_completes_on_final_ack() {
        let mut s = sender();
        s.set_flow_bursts(3);
        let mut writes = 0;
        while s.app_can_write() {
            s.app_wrote();
            writes += 1;
        }
        assert_eq!(writes, 3, "writes must stop at the flow size");
        for i in 0..3 {
            assert!(matches!(s.next_slot(SimTime::ZERO), SendSlot::New(idx) if idx == i));
        }
        assert!(!s.is_complete(), "unacked data: not complete");
        s.on_ack(2, 1, Bytes::gib(1), SimTime::from_nanos(100));
        assert!(!s.is_complete(), "last burst still outstanding");
        s.on_ack(3, 2, Bytes::gib(1), SimTime::from_nanos(200));
        assert!(s.is_complete(), "all bursts cum-acked: FIN acked");
    }

    #[test]
    fn finite_flow_completes_after_loss_recovery() {
        let mut s = sender();
        s.set_flow_bursts(5);
        fill(&mut s, 5);
        let t = SimTime::from_nanos(10_000);
        // Burst 0 lost; SACKs 1..=3 trigger fast retransmit.
        s.on_ack(0, 1, Bytes::gib(1), t);
        s.on_ack(0, 2, Bytes::gib(1), t);
        s.on_ack(0, 3, Bytes::gib(1), t);
        assert!(matches!(s.next_slot(t), SendSlot::Retransmit(0)));
        assert!(!s.is_complete());
        // Hole filled: cum jumps over everything.
        s.on_ack(5, 0, Bytes::gib(1), t);
        assert!(s.is_complete());
        assert_eq!(s.inflight(), Bytes::ZERO);
    }

    #[test]
    fn unbounded_flow_never_completes() {
        let mut s = sender();
        fill(&mut s, 2);
        s.on_ack(2, 1, Bytes::gib(1), SimTime::from_nanos(50));
        assert!(!s.is_complete());
        assert_eq!(s.flow_bursts, None);
    }

    #[test]
    fn duplicate_sack_is_idempotent() {
        let mut s = sender();
        fill(&mut s, 4);
        let t = SimTime::from_nanos(100);
        let o1 = s.on_ack(0, 2, Bytes::gib(1), t);
        assert_eq!(o1.newly_acked, Bytes::kib(64));
        let o2 = s.on_ack(0, 2, Bytes::gib(1), t);
        assert_eq!(o2.newly_acked, Bytes::ZERO);
    }
}
