//! Consensus and ordering substrates (the replication dimension, Section 3.1).
//!
//! Replication costs are closed-form only: each protocol's cost is a formula
//! over its message pattern, the network configuration and the CPU cost
//! model, with no message-level simulation beside it.
//!
//! * [`profile`] — a [`profile::ReplicationProfile`] (commit latency, leader
//!   occupancy) per protocol: Raft (the CFT protocol of Quorum's default,
//!   TiKV and etcd), the three-phase BFT family (PBFT, IBFT, Tendermint:
//!   2f+1 quorums of 3f+1 replicas, with the quorum's signature
//!   verifications charged per phase), the shared log, primary-backup and
//!   proof-of-work (commit latency set by the mean block interval). The
//!   system models in `dichotomy-systems` plug these into their transaction
//!   pipelines.
//! * [`sharedlog`] — a Kafka-like shared-log ordering service (Fabric's
//!   external orderer, Veritas, ChainifyDB, BRD): the append-latency
//!   arithmetic, booking broker ingest on an engine process the caller
//!   registers.

#![forbid(unsafe_code)]

pub mod profile;
pub mod sharedlog;

pub use profile::{FailureModel, ProtocolKind, ReplicationProfile};
