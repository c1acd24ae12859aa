//! Deterministic discrete-event cluster simulation kernel.
//!
//! The paper's evaluation runs real systems on a 96-node cluster; this crate
//! is the substitute substrate (see the README, "The discrete-event engine").
//! It provides the four building blocks every simulated system is made of:
//!
//! * a [`SimEngine`] — the discrete-event core: an [`EventQueue`] with a
//!   simulated clock (microsecond granularity) plus named [`Process`]
//!   service queues every pipeline stage is built on,
//! * a [`NetworkConfig`] with the link latency, jitter bound and bandwidth
//!   the closed-form replication costs are computed from,
//! * the [`MultiResource`] behind every process: `k` FIFO servers, one for a
//!   serial stage (the source of all queueing / saturation behaviour), with
//!   the [`Outages`] in which it starts no work, and
//! * a [`CostModel`] holding the CPU-cost constants (hashing, signatures,
//!   SQL parsing, storage access) calibrated against the latency breakdowns
//!   the paper reports in Figures 8 and 11.
//!
//! Nothing in this crate knows about blockchains or databases; the consensus
//! protocols and system models are built on top of it.

#![forbid(unsafe_code)]

pub mod costs;
pub mod engine;
pub mod event;
pub mod fault;
pub mod network;
pub mod outage;
pub mod resource;

pub use costs::CostModel;
pub use engine::{Process, ProcessId, SimEngine, StageEvent};
pub use event::{EventQueue, ScheduledEvent};
pub use fault::{Failover, FaultPlan, NodeFault, Partition, Reconfiguration};
pub use network::NetworkConfig;
pub use outage::Outages;
pub use resource::MultiResource;

/// Simulated time in microseconds (re-exported for convenience).
pub use dichotomy_common::Timestamp;
