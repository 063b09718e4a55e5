//! `simcore` — foundation for the discrete-event network simulation.
//!
//! This crate provides the building blocks shared by every other crate in
//! the workspace:
//!
//! * [`time`] — nanosecond-resolution simulated time ([`SimTime`],
//!   [`SimDuration`]).
//! * [`units`] — strongly-typed byte counts and bit rates ([`Bytes`],
//!   [`BitRate`]) with the conversions the rest of the simulator needs
//!   (serialisation delays, bandwidth-delay products, …).
//! * [`engine`] — a generic discrete-event queue ([`EventQueue`]) with
//!   deterministic FIFO tie-breaking for simultaneous events.
//! * [`rng`] — a seedable random source ([`SimRng`]) so that every
//!   simulation run is exactly reproducible from its seed.
//! * [`stats`] — streaming statistics ([`RunningStats`], [`Summary`])
//!   matching what the paper's harness reports (mean / stdev / min / max).
//! * [`series`] — time-indexed sample storage ([`TimeSeries`]) for the
//!   `ss`/`ethtool`/`mpstat`-style telemetry the harness samples on a
//!   tick (§III-G).
//! * [`watchdog`] — event-loop liveness guards ([`Watchdog`]) that turn
//!   a livelocked or runaway simulation into a structured error.
//! * [`ledger`] — a per-core, per-stage busy-time matrix
//!   ([`CycleLedger`]) backing the bottleneck-attribution profiles.
//! * [`checkpoint`] — snapshot cadence policy ([`CheckpointPolicy`],
//!   [`Checkpointer`]) for the barrier-safe checkpoint/resume contract
//!   the domain layers implement on top of `Clone`-able engine state.
//! * [`canon`] — canonical configuration serialization and stable
//!   FNV-1a fingerprints ([`Canon`], [`Canonicalize`]), from which the
//!   harness derives position-free per-repetition seeds.
//!
//! Nothing in this crate knows about TCP, Linux, or NICs; it is the
//! domain-neutral substrate.

#![deny(unreachable_pub)]
// Recoverable failures carry typed errors; every surviving `expect`
// states its infallibility argument (tests are exempt).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod canon;
pub mod checkpoint;
pub mod engine;
pub mod ledger;
pub mod rng;
pub mod series;
pub mod stats;
pub mod time;
pub mod units;
pub mod watchdog;

pub use canon::{derive_seed, fnv1a_64, Canon, Canonicalize};
pub use checkpoint::{CheckpointPolicy, Checkpointer};
pub use engine::{EventQueue, QueueHealth, TimerId};
pub use ledger::CycleLedger;
pub use rng::SimRng;
pub use series::TimeSeries;
pub use stats::{RunningStats, Summary};
pub use time::{SimDuration, SimTime};
pub use units::{BitRate, Bytes};
pub use watchdog::{Watchdog, WatchdogTrip};
