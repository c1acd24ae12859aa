//! Sharding (the fourth taxonomy dimension, Section 3.4).
//!
//! Two concerns, mirrored in two modules:
//!
//! * [`partition`] — *shard formation*: how data and nodes are assigned to
//!   shards. Databases partition data by hash or range to optimize workload
//!   locality; sharded blockchains must additionally randomize node
//!   assignment so an adversary cannot concentrate its nodes in one shard,
//!   and must periodically re-form shards to resist adaptive corruption
//!   (Elastico's PoW-based assignment, AHL's trusted-hardware randomness).
//! * [`two_pc`] — *cross-shard atomicity*: when a two-phase commit is
//!   decided, with a trusted coordinator for databases versus a
//!   BFT-replicated coordinator shard for blockchains (AHL), which adds a
//!   consensus round per 2PC phase.

#![forbid(unsafe_code)]

pub mod partition;
pub mod two_pc;

pub use partition::{PartitionScheme, Partitioner, ShardFormation, ShardPlan};
pub use two_pc::{CoordinatorKind, TwoPhaseCommit};
