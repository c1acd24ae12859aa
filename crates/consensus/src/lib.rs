//! Consensus and ordering substrates (the replication dimension, Section 3.1).
//!
//! Implemented from scratch and driven over the `dichotomy-simnet` network
//! model:
//!
//! * [`raft`] — the CFT protocol used by Quorum (default), TiKV, etcd and
//!   Fabric's ordering service: leader election, log replication, commit.
//! * [`pbft`] — the three-phase BFT family (PBFT and its blockchain-tuned
//!   IBFT variant used by Quorum): O(N²) message complexity, 2f+1 quorums out
//!   of 3f+1 replicas, view change.
//! * [`sharedlog`] — a Kafka-like shared-log ordering service (Fabric's
//!   external orderer, Veritas, ChainifyDB, BRD): the append-latency
//!   arithmetic, booking broker ingest on an engine process the caller
//!   registers.
//! * [`profile`] — runs message-level rounds of each protocol over the
//!   network model and distills a [`profile::ReplicationProfile`] (commit
//!   latency, leader occupancy) that the system models
//!   in `dichotomy-systems` plug into their transaction pipelines.
//!   Proof-of-work has no message-level implementation: it is the
//!   closed-form [`ProtocolKind::ProofOfWork`] profile, whose commit latency
//!   is set by the mean block interval.
//!
//! The protocol implementations are deterministic state machines; all
//! nondeterminism (timeouts, network jitter) comes from the seeded simulator.

#![forbid(unsafe_code)]

pub mod pbft;
pub mod profile;
pub mod raft;
pub mod sharedlog;

pub use profile::{FailureModel, ProtocolKind, ReplicationProfile};
