//! `netsim` — the discrete-event simulation that ties everything
//! together.
//!
//! A run wires two [`linuxhost::HostConfig`]s (sender, receiver) across
//! a [`nethw::PathSpec`] and pushes `num_flows` TCP flows through the
//! full pipeline, at GSO-burst granularity:
//!
//! ```text
//!  app core ──write/sendmsg──► fq pacer ──► TX softirq core ──► NIC
//!     ▲  (copy | zerocopy | fallback)                            │
//!     │                                                          ▼
//!  ACKs ◄── IRQ core ◄── one-way delay ◄── shared-buffer switch ─┤
//!                                          (tail drop / pause)   │
//!                                                                ▼
//!  rx app core ◄── RX softirq core (GRO) ◄── RX ring ◄── one-way delay
//!  (copy | MSG_TRUNC)        │
//!                            └─ overflow ⇒ receiver drop (no FC)
//! ```
//!
//! Every CPU stage is a FIFO server fed by the
//! [`linuxhost::CostModel`]; a per-host *fabric* server models shared
//! memory/DMA bandwidth. Throughput limits, retransmits, CPU
//! utilisation and run-to-run variance all emerge from the event loop —
//! there is no formula anywhere that "decides" the throughput.

#![deny(unreachable_pub)]
// Recoverable failures carry typed errors; every surviving `expect`
// states its infallibility argument (tests are exempt).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attribution;
pub mod config;
pub mod error;
pub mod faults;
mod fleet;
pub mod host;
pub mod result;
mod run;
mod sim;
pub mod telemetry;
pub mod workload;

pub use attribution::{
    classify, Attribution, BottleneckVerdict, CoreProfile, IntervalObs, LimitingFactor,
    StageProfile,
};
pub use config::{SimConfig, WorkloadSpec};
pub use error::SimError;
pub use faults::{Fault, FaultEvent, FaultPlan};
pub use result::{FlowResult, RunResult};
pub use run::{Checkpoint, Engine, Running};
pub use sim::{RunningSim, SimCheckpoint, Simulation};
pub use fleet::{FleetResult, FleetSim};
pub use telemetry::{CaState, FlowTrace, HostSample, HostTrace, TcpInfoSample, Telemetry};
pub use workload::{
    ArrivalProcess, ArrivalSampler, Diurnal, FleetClass, FleetProfile, FlowDraw, SizeDist,
};
