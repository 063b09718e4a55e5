//! Seeded equivalence checks for the allocation-free flow lifecycle:
//!
//! * the receiver's bitmap-ring out-of-order set against a `BTreeSet`
//!   reference model (the receiver as it was before the ring), ACK by
//!   ACK, including after `TcpReceiver::reinit` on a dirty ring;
//! * a sender recycled with `TcpSender::reinit` after a lossy flow
//!   against a fresh `TcpSender::new`, for every controller.

use std::collections::{BTreeSet, VecDeque};

use simcore::{Bytes, SimDuration, SimRng, SimTime};
use tcpstack::{AckInfo, CcAlgorithm, SendSlot, TcpReceiver, TcpSender, TimerKind};

const BURST: Bytes = Bytes::new(65_536);

/// The receiver with its out-of-order set kept in a `BTreeSet`: the
/// behaviour the bitmap ring must reproduce exactly.
struct RefReceiver {
    rcv_nxt: u64,
    ooo: BTreeSet<u64>,
    rcv_buf: Bytes,
    buffered: Bytes,
    readable: u64,
    total_bursts: u64,
}

impl RefReceiver {
    fn new(rcv_buf: Bytes) -> Self {
        RefReceiver {
            rcv_nxt: 0,
            ooo: BTreeSet::new(),
            rcv_buf,
            buffered: Bytes::ZERO,
            readable: 0,
            total_bursts: 0,
        }
    }

    fn rwnd(&self) -> Bytes {
        self.rcv_buf.saturating_sub(self.buffered)
    }

    fn on_burst(&mut self, idx: u64) -> AckInfo {
        self.total_bursts += 1;
        if idx < self.rcv_nxt || self.ooo.contains(&idx) {
            return AckInfo { cum_ack: self.rcv_nxt, acked_idx: idx, rwnd: self.rwnd() };
        }
        if self.rwnd() < BURST && self.rcv_nxt > 0 {
            return AckInfo { cum_ack: self.rcv_nxt, acked_idx: self.rcv_nxt - 1, rwnd: self.rwnd() };
        }
        self.buffered += BURST;
        if idx == self.rcv_nxt {
            self.rcv_nxt += 1;
            self.readable += 1;
            while self.ooo.remove(&self.rcv_nxt) {
                self.rcv_nxt += 1;
                self.readable += 1;
            }
        } else {
            self.ooo.insert(idx);
        }
        AckInfo { cum_ack: self.rcv_nxt, acked_idx: idx, rwnd: self.rwnd() }
    }

    fn app_read(&mut self) -> bool {
        if self.readable == 0 {
            return false;
        }
        self.readable -= 1;
        self.buffered = self.buffered.saturating_sub(BURST);
        true
    }
}

/// What one case exercised, so the test can prove its own coverage.
#[derive(Default)]
struct Coverage {
    duplicates: u64,
    deep_holes: u64,
    far_jumps: u64,
    rejects: u64,
}

/// Drive both receivers through one seeded arrival pattern, asserting
/// they agree after every step.
fn run_case(rx: &mut TcpReceiver, model: &mut RefReceiver, seed: u64, cov: &mut Coverage) {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut max_sent = 0u64;
    // Some cases stop reading for long stretches to close the window.
    let lazy_reader = rng.chance(0.3);
    for step in 0..4_000 {
        let idx = match rng.uniform_u64(0, 10) {
            // Next new burst.
            0..=3 => max_sent + 1,
            // A jump ahead: a hole from 2 to 512 bursts deep, log-uniform
            // so the ring grows step by step while it holds bursts.
            4 => {
                let depth = 2 << rng.uniform_u64(0, 9);
                max_sent + rng.uniform_u64(2, 2 + depth)
            }
            // A duplicate below the cumulative edge or of held data.
            5 => rng.uniform_u64(0, max_sent + 1),
            // A retransmission into the current hole region.
            _ => model.rcv_nxt + rng.uniform_u64(0, max_sent.saturating_sub(model.rcv_nxt) + 1),
        };
        max_sent = max_sent.max(idx);
        let dup = idx < model.rcv_nxt || model.ooo.contains(&idx);
        let reject = !dup && model.rwnd() < BURST && model.rcv_nxt > 0;
        let off = idx.saturating_sub(model.rcv_nxt);
        cov.duplicates += dup as u64;
        cov.rejects += reject as u64;
        cov.deep_holes += (!dup && !reject && off > 64) as u64;
        cov.far_jumps += (!dup && !reject && off > 256) as u64;

        let got = rx.on_burst(idx);
        let want = model.on_burst(idx);
        assert_eq!(got, want, "seed {seed} step {step}: ACK for burst {idx}");

        let reads = if lazy_reader && step % 500 < 400 { 0 } else { rng.uniform_u64(0, 4) };
        for _ in 0..reads {
            assert_eq!(rx.app_read(), model.app_read(), "seed {seed} step {step}: app_read");
        }
        assert_eq!(rx.readable_bursts(), model.readable, "seed {seed} step {step}: readable");
        assert_eq!(rx.rwnd(), model.rwnd(), "seed {seed} step {step}: rwnd");
        assert_eq!(rx.rcv_nxt(), model.rcv_nxt, "seed {seed} step {step}: rcv_nxt");
        assert_eq!(rx.total_bursts(), model.total_bursts, "seed {seed} step {step}: total");
    }
}

#[test]
fn bitmap_ring_receiver_matches_btreeset_model() {
    let mut cov = Coverage::default();
    let mut rx = TcpReceiver::new(BURST, BURST);
    for seed in 0..64u64 {
        // Buffers from 4 to 1,024 bursts: small ones close the window.
        let rcv_buf = BURST * (4u64 << (seed % 9));
        // Even cases grow a ring from nothing; odd ones `reinit` the
        // ring the previous case left behind.
        if seed % 2 == 0 {
            rx = TcpReceiver::new(BURST, rcv_buf);
        } else {
            rx.reinit(BURST, rcv_buf);
        }
        let mut model = RefReceiver::new(rcv_buf);
        run_case(&mut rx, &mut model, 0xACE0 + seed, &mut cov);
    }
    assert!(cov.duplicates > 1_000, "duplicates exercised: {}", cov.duplicates);
    assert!(cov.deep_holes > 1_000, "holes deeper than 64 bursts: {}", cov.deep_holes);
    assert!(cov.far_jumps > 100, "ring growth past 256 bursts: {}", cov.far_jumps);
    assert!(cov.rejects > 1_000, "closed-window rejects: {}", cov.rejects);
}

// ---- sender reinit ---------------------------------------------------------

const MTU: Bytes = Bytes::new(9_000);
const RCV_BUF: Bytes = Bytes::new(65_536 * 256);
const WMEM: Bytes = Bytes::new(65_536 * 512);

fn build(alg: CcAlgorithm) -> tcpstack::Cc {
    alg.build(MTU, MTU * 10)
}

/// One observable snapshot of the sender, as text.
fn observe(s: &TcpSender) -> String {
    let cc = s.cc();
    format!(
        "deadline={:?} cwnd={:?} ssthresh={:?} ss={} pace={} inflight={:?} win={:?} \
         recovery={} retx={} rto={} tlp={} acks={} limited={} srtt={:?} rto_t={:?} done={}",
        s.timer_deadline(),
        cc.cwnd(),
        cc.ssthresh(),
        cc.in_slow_start(),
        s.tcp_pacing_rate().as_bps(),
        s.inflight(),
        s.effective_window(),
        s.in_recovery(),
        s.retx_bursts(),
        s.rto_events(),
        s.tlp_events(),
        s.acks_processed(),
        s.cwnd_limited_acks(),
        s.rtt.srtt(),
        s.rtt.rto(),
        s.is_complete(),
    )
}

/// Run the sender over a lossy path of round-trip time `rtt` for `ms`
/// simulated milliseconds, dropping every burst sent in `[blackout)`;
/// returns the trace of everything it did.
fn run_flow(
    s: &mut TcpSender,
    rtt: SimDuration,
    seed: u64,
    loss: f64,
    ms: u64,
    blackout: (u64, u64),
) -> Vec<String> {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut rx = TcpReceiver::new(BURST, RCV_BUF);
    let mut wire: VecDeque<(SimTime, u64)> = VecDeque::new();
    let mut trace = Vec::new();
    for step in 1..=ms {
        let now = SimTime::ZERO + SimDuration::from_millis(step);
        while wire.front().is_some_and(|&(at, _)| at <= now) {
            let Some((_, idx)) = wire.pop_front() else { break };
            let ack = rx.on_burst(idx);
            while rx.app_read() {}
            let out = s.on_ack(ack.cum_ack, ack.acked_idx, ack.rwnd, now);
            trace.push(format!(
                "ack {idx} {ack:?} acked={:?} recovery={} lost={}",
                out.newly_acked, out.entered_recovery, out.marked_lost
            ));
        }
        if let Some((at, kind)) = s.timer_deadline() {
            if at <= now {
                match kind {
                    TimerKind::Tlp => s.on_tlp(now),
                    TimerKind::Rto => s.on_rto(now),
                }
                trace.push(format!("timer {kind:?} due {at:?}"));
            }
        }
        while s.app_can_write() {
            s.app_wrote();
        }
        loop {
            let slot = s.next_slot(now);
            let idx = match slot {
                SendSlot::Blocked => break,
                SendSlot::New(idx) | SendSlot::Retransmit(idx) => idx,
            };
            s.mark_transmitted(idx, now);
            let dark = (blackout.0..blackout.1).contains(&step);
            let dropped = dark || rng.chance(loss);
            trace.push(format!("send {slot:?} dropped={dropped}"));
            if !dropped {
                wire.push_back((now + rtt, idx));
            }
        }
        trace.push(observe(s));
    }
    trace
}

#[test]
fn reinit_sender_matches_a_fresh_sender_for_every_controller() {
    for alg in CcAlgorithm::ALL {
        // A sender that lived through a lossy flow on a longer path,
        // with a blackout long enough to time out and a finite size it
        // never reached.
        let mut recycled = TcpSender::new(build(alg), BURST, MTU, WMEM, RCV_BUF);
        recycled.set_flow_bursts(1_000_000);
        run_flow(&mut recycled, SimDuration::from_millis(30), 0xD1A7, 0.05, 1_500, (400, 700));
        assert!(recycled.rto_events() > 0, "{alg}: the first flow must time out");
        assert!(recycled.retx_bursts() > 0, "{alg}: the first flow must retransmit");

        recycled.reinit(build(alg), BURST, MTU, WMEM, RCV_BUF);
        let mut fresh = TcpSender::new(build(alg), BURST, MTU, WMEM, RCV_BUF);
        let rtt = SimDuration::from_millis(10);
        for s in [&mut recycled, &mut fresh] {
            s.rtt.on_sample(rtt, SimTime::ZERO);
            s.set_flow_bursts(3_000);
        }
        let a = run_flow(&mut recycled, rtt, 0x5C41, 0.02, 2_000, (900, 1_150));
        let b = run_flow(&mut fresh, rtt, 0x5C41, 0.02, 2_000, (900, 1_150));
        assert!(fresh.rto_events() > 0 && fresh.tlp_events() + fresh.retx_bursts() > 0);
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_eq!(x, y, "{alg}: recycled and fresh senders diverge at trace line {i}");
        }
        assert_eq!(a.len(), b.len(), "{alg}: trace lengths differ");
    }
}
