//! `tcpstack` — TCP behaviour at GSO-burst granularity.
//!
//! The simulator moves data in *bursts* (GSO super-packets, 64–512 KB);
//! this crate supplies the TCP logic that decides when bursts may be
//! sent and what happens when they are lost:
//!
//! * [`cc`] — congestion control: CUBIC (the paper's default), BBRv1
//!   and a simplified BBRv3 (§IV-F).
//! * [`rtt`] — SRTT/RTTVAR estimation and RTO computation.
//! * [`sender`] — the sender state machine: in-flight tracking,
//!   SACK-style hole detection, fast retransmit, recovery episodes,
//!   RTO handling, and effective-window computation (cwnd ∧ rwnd ∧
//!   autotuned send buffer).
//! * [`receiver`] — the receiver state machine: cumulative ACK +
//!   out-of-order queue, receive-window advertisement bounded by
//!   `tcp_rmem`.
//!
//! Sequence space is counted in burst indices (`u64`); byte quantities
//! derive from the configured burst size. Retransmit *counters* are
//! reported in MTU packets, which is what `tcpi_total_retrans` (and
//! iperf3's `Retr` column) counts.

#![deny(unreachable_pub)]
// Recoverable failures carry typed errors; every surviving `expect`
// states its infallibility argument (tests are exempt).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cc;
pub mod receiver;
pub mod rtt;
pub mod sender;

pub use cc::{Cc, CcAlgorithm, CongestionControl};
pub use receiver::{AckInfo, TcpReceiver};
pub use rtt::RttEstimator;
pub use sender::{AckOutcome, SendSlot, TcpSender, TimerKind};
