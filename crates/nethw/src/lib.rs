//! `nethw` — network hardware models.
//!
//! The paper's testbeds are built from 100/200 G NICs (Nvidia
//! ConnectX-5 / ConnectX-7), shared-buffer switches (Edgecore
//! AS9716-32D: 64 MB shared buffer), and real WAN paths at 25/54/63/104
//! ms RTT. This crate models those components:
//!
//! * [`nic`] — NIC models: line rate, effective PCIe throughput, RX ring.
//! * [`switch`] — a shared-buffer output-queued switch with tail drop and
//!   optional IEEE 802.3x pause-frame flow control.
//! * [`pause`] — the 802.3x xoff/xon state machine.
//! * [`path`] — an end-to-end path specification (RTT, bottleneck,
//!   buffering, cross traffic) as used by the experiments.
//! * [`cross`] — parameters of the bursty on/off background traffic
//!   (AmLight's ~16 Gbps of production traffic); `netsim` runs the process.
//!
//! These are passive models: the discrete-event loop in `netsim` owns
//! time and drives them.

#![deny(unreachable_pub)]
// Recoverable failures carry typed errors; every surviving `expect`
// states its infallibility argument (tests are exempt).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cross;
pub mod nic;
pub mod path;
pub mod pause;
pub mod switch;

pub use cross::CrossTrafficSpec;
pub use nic::{NicModel, RxRing};
pub use path::{PathClass, PathSpec};
pub use pause::{PauseState, PauseThresholds};
pub use switch::{EnqueueOutcome, SharedBufferSwitch};
