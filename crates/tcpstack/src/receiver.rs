//! Receiver-side TCP state: cumulative ACK, out-of-order queue, and
//! receive-window advertisement.
//!
//! The receiver ACKs every burst it processes (GRO already coalesces
//! wire packets, so "one ACK per super-packet" matches Linux). The
//! advertised window is the autotuned receive buffer minus unread
//! data, with the buffer ceiling set by `tcp_rmem[2]` — the sysctl that
//! separates a 6 MB stock ceiling from the paper's 2 GB tuned value.

use simcore::Bytes;

/// The information carried by one ACK back to the sender.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckInfo {
    /// Next in-order burst expected (cumulative ACK, burst index).
    pub cum_ack: u64,
    /// The specific burst this ACK acknowledges (SACK-style).
    pub acked_idx: u64,
    /// Advertised receive window in bytes.
    pub rwnd: Bytes,
}

/// Receiver state for one flow.
#[derive(Debug, Clone)]
pub struct TcpReceiver {
    burst: Bytes,
    /// Next expected in-order burst index.
    rcv_nxt: u64,
    /// Bursts received above `rcv_nxt`, as a bitmap ring: burst `idx`
    /// is bit `idx % (64 · ooo.len())`. Every set bit lies in
    /// `[rcv_nxt, rcv_nxt + 64 · ooo.len())`, and the word count is zero
    /// or a power of two; the ring doubles when a burst lands past its
    /// span and is never allocated while data arrives in order.
    ooo: Vec<u64>,
    /// Receive-buffer ceiling (`tcp_rmem[2]`, bounded by what autotune
    /// will actually grant).
    rcv_buf: Bytes,
    /// Bytes held in the receive queue (in-order unread + out-of-order).
    buffered: Bytes,
    /// In-order bursts ready for the application to read.
    readable: u64,
    /// Totals for reporting.
    total_bursts: u64,
}

impl TcpReceiver {
    /// New receiver with the given burst size and buffer ceiling.
    pub fn new(burst: Bytes, rcv_buf: Bytes) -> Self {
        assert!(!burst.is_zero(), "burst size must be positive");
        assert!(rcv_buf >= burst, "receive buffer smaller than one burst");
        TcpReceiver {
            burst,
            rcv_nxt: 0,
            ooo: Vec::new(),
            rcv_buf,
            buffered: Bytes::ZERO,
            readable: 0,
            total_bursts: 0,
        }
    }

    /// Reset to exactly the state [`TcpReceiver::new`] builds, keeping
    /// the out-of-order ring's allocation for the next flow.
    pub fn reinit(&mut self, burst: Bytes, rcv_buf: Bytes) {
        let mut ooo = std::mem::take(&mut self.ooo);
        ooo.fill(0);
        *self = TcpReceiver { ooo, ..TcpReceiver::new(burst, rcv_buf) };
    }

    /// A burst survived the NIC/softirq path. Returns the ACK to send.
    pub fn on_burst(&mut self, idx: u64) -> AckInfo {
        self.total_bursts += 1;
        if idx < self.rcv_nxt || self.ooo_holds(idx) {
            // Duplicate (spurious retransmit): ACK again, buffer nothing.
            return self.ack_for(idx);
        }
        // Out-of-window new data while the buffer is full (a stalled
        // application stopped reading): discard the payload and reply
        // with a pure window probe ACK, like Linux does. The sender's
        // own timers retransmit once the window reopens. (`rcv_nxt > 0`
        // guards the probe ACK's `acked_idx = rcv_nxt - 1`, which must
        // reference an already cum-ACKed burst.)
        if self.rwnd() < self.burst && self.rcv_nxt > 0 {
            return AckInfo {
                cum_ack: self.rcv_nxt,
                acked_idx: self.rcv_nxt - 1,
                rwnd: self.rwnd(),
            };
        }
        self.buffered += self.burst;
        if idx == self.rcv_nxt {
            self.rcv_nxt += 1;
            self.readable += 1;
            // Pull any contiguous out-of-order data in.
            while self.ooo_take(self.rcv_nxt) {
                self.rcv_nxt += 1;
                self.readable += 1;
            }
        } else {
            self.ooo_insert(idx);
        }
        self.ack_for(idx)
    }

    /// Ring word and bit mask for burst `idx` (ring non-empty).
    #[inline]
    fn ooo_pos(&self, idx: u64) -> (usize, u64) {
        let bit = idx & (self.ooo.len() as u64 * 64 - 1);
        ((bit / 64) as usize, 1 << (bit % 64))
    }

    /// Is burst `idx` (at or above `rcv_nxt`) held out of order?
    fn ooo_holds(&self, idx: u64) -> bool {
        if idx - self.rcv_nxt >= self.ooo.len() as u64 * 64 {
            return false;
        }
        let (w, m) = self.ooo_pos(idx);
        self.ooo[w] & m != 0
    }

    /// Clear burst `idx`'s bit; returns whether it was set.
    #[inline]
    fn ooo_take(&mut self, idx: u64) -> bool {
        if self.ooo.is_empty() {
            return false;
        }
        let (w, m) = self.ooo_pos(idx);
        let held = self.ooo[w] & m != 0;
        self.ooo[w] &= !m;
        held
    }

    /// Hold burst `idx` (above `rcv_nxt`), growing the ring to span it.
    fn ooo_insert(&mut self, idx: u64) {
        let off = idx - self.rcv_nxt;
        let span = self.ooo.len() as u64 * 64;
        if off >= span {
            let words = ((off / 64 + 1) as usize).next_power_of_two().max(2 * self.ooo.len());
            let mut grown = vec![0u64; words];
            let new_mask = words as u64 * 64 - 1;
            // Re-file every held burst: each lies in [rcv_nxt, rcv_nxt + span).
            for k in 0..span {
                let held = self.rcv_nxt + k;
                let (w, m) = self.ooo_pos(held);
                if self.ooo[w] & m != 0 {
                    let bit = held & new_mask;
                    grown[(bit / 64) as usize] |= 1 << (bit % 64);
                }
            }
            self.ooo = grown;
        }
        let (w, m) = self.ooo_pos(idx);
        self.ooo[w] |= m;
    }

    fn ack_for(&self, idx: u64) -> AckInfo {
        AckInfo { cum_ack: self.rcv_nxt, acked_idx: idx, rwnd: self.rwnd() }
    }

    /// Current advertised window.
    pub fn rwnd(&self) -> Bytes {
        self.rcv_buf.saturating_sub(self.buffered)
    }

    /// Bursts the application can read right now.
    pub fn readable_bursts(&self) -> u64 {
        self.readable
    }

    /// The application read one burst; frees buffer space.
    pub fn app_read(&mut self) -> bool {
        if self.readable == 0 {
            return false;
        }
        self.readable -= 1;
        self.buffered = self.buffered.saturating_sub(self.burst);
        true
    }

    /// Total bursts that arrived (including duplicates).
    pub fn total_bursts(&self) -> u64 {
        self.total_bursts
    }

    /// Next expected in-order burst.
    pub fn rcv_nxt(&self) -> u64 {
        self.rcv_nxt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rx() -> TcpReceiver {
        TcpReceiver::new(Bytes::kib(64), Bytes::mib(8))
    }

    #[test]
    fn in_order_delivery() {
        let mut r = rx();
        for i in 0..4 {
            let ack = r.on_burst(i);
            assert_eq!(ack.cum_ack, i + 1);
            assert_eq!(ack.acked_idx, i);
        }
        assert_eq!(r.readable_bursts(), 4);
    }

    #[test]
    fn out_of_order_held_then_released() {
        let mut r = rx();
        r.on_burst(0);
        let ack = r.on_burst(2); // hole at 1
        assert_eq!(ack.cum_ack, 1);
        assert_eq!(ack.acked_idx, 2);
        assert_eq!(r.readable_bursts(), 1);
        // Retransmit fills the hole: everything becomes readable.
        let ack2 = r.on_burst(1);
        assert_eq!(ack2.cum_ack, 3);
        assert_eq!(r.readable_bursts(), 3);
    }

    #[test]
    fn duplicates_do_not_double_buffer() {
        let mut r = rx();
        r.on_burst(0);
        r.on_burst(2); // held out of order
        let (rwnd, readable) = (r.rwnd(), r.readable_bursts());
        // One duplicate below the cumulative edge, one of held data.
        for dup in [0, 2] {
            let ack = r.on_burst(dup);
            assert_eq!(ack.cum_ack, 1, "a duplicate must not move the cumulative ACK");
            assert_eq!(ack.acked_idx, dup);
        }
        assert_eq!(r.rwnd(), rwnd, "a duplicate must buffer nothing");
        assert_eq!(r.readable_bursts(), readable);
        assert_eq!(r.rcv_nxt(), 1);
        assert_eq!(r.total_bursts(), 4);
    }

    #[test]
    fn rwnd_shrinks_with_unread_data_and_recovers_on_read() {
        let mut r = rx();
        let full = r.rwnd();
        for i in 0..8 {
            r.on_burst(i);
        }
        assert_eq!(r.rwnd(), full.saturating_sub(Bytes::kib(64 * 8)));
        for _ in 0..8 {
            assert!(r.app_read());
        }
        assert_eq!(r.rwnd(), full);
        assert!(!r.app_read());
    }

    #[test]
    fn small_buffer_limits_window() {
        // A stock 6 MB tcp_rmem ceiling advertises at most 6 MB.
        let r = TcpReceiver::new(Bytes::kib(64), Bytes::new(6_291_456));
        assert_eq!(r.rwnd().as_u64(), 6_291_456);
    }

    #[test]
    fn closed_window_rejects_new_data() {
        // Buffer fits exactly 4 bursts; the 5th (new data, nobody
        // reading) must be discarded with a probe ACK, not buffered.
        let mut r = TcpReceiver::new(Bytes::kib(64), Bytes::kib(256));
        for i in 0..4 {
            r.on_burst(i);
        }
        assert!(r.rwnd().is_zero());
        let ack = r.on_burst(4);
        assert_eq!(ack.cum_ack, 4, "probe ACK repeats the cumulative edge");
        assert_eq!(ack.acked_idx, 3, "probe ACK must not SACK the rejected burst");
        assert_eq!(r.rcv_nxt(), 4, "rejected data must not move the cumulative ACK");
        assert!(r.rwnd().is_zero(), "rejected data must not be buffered");
        assert_eq!(r.readable_bursts(), 4, "rejected data is not readable");
        // A read reopens the window; the retransmit then lands.
        assert!(r.app_read());
        let ack = r.on_burst(4);
        assert_eq!(ack.cum_ack, 5);
        assert_eq!(r.readable_bursts(), 4);
        assert!(r.rwnd().is_zero());
    }

    #[test]
    fn ooo_counts_toward_buffer() {
        let mut r = rx();
        let full = r.rwnd();
        r.on_burst(5); // pure OOO
        assert_eq!(r.rwnd(), full.saturating_sub(Bytes::kib(64)));
        assert_eq!(r.readable_bursts(), 0);
    }
}
