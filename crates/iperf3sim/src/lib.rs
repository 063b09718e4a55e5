//! `iperf3sim` — a model of the iperf3 benchmark tool (v3.17 + the
//! paper's patches) driving the simulator.
//!
//! The paper's measurements are all made with a patched iperf3
//! (§III-B):
//!
//! * **v3.16** introduced multi-threaded parallel streams — before
//!   that, `-P 8` ran all streams on *one* thread/core;
//! * **patch #1690** added `--skip-rx-copy` (receive with `MSG_TRUNC`)
//!   and `--zerocopy=z` (send with `MSG_ZEROCOPY`);
//! * **patch #1728** widened `--fq-rate` from `u32` so pacing above
//!   32 Gbps became possible.
//!
//! [`Iperf3Opts`] mirrors the command line, [`run`] executes a test
//! over a [`netsim::Simulation`], and [`Iperf3Report`] renders results
//! in the familiar `[SUM] ... Gbits/sec  N retr` form (plus a JSON-ish
//! dump, since iperf3's `-J` is what the paper's harness parses).

#![deny(unreachable_pub)]
// Recoverable failures carry typed errors; every surviving `expect`
// states its infallibility argument (tests are exempt).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod opts;
pub mod report;
pub mod runner;
pub mod version;

pub use opts::Iperf3Opts;
pub use report::{Iperf3Report, StreamReport};
pub use runner::{run, run_with_faults, start_session, RunError, SessionCheckpoint, SimSession};
pub use version::Iperf3Version;
