//! Sharding (the fourth taxonomy dimension, Section 3.4).
//!
//! Two concerns, mirrored in two modules:
//!
//! * [`partition`] — *shard formation*: keys reach shards through a hash
//!   [`Partitioner`], and [`ShardPlan::form`] assigns nodes to shards, either
//!   statically (databases: no adversary) or by a secure random shuffle
//!   re-run every epoch (AHL's trusted-hardware randomness), which a sharded
//!   blockchain needs against adaptive corruption.
//! * [`two_pc`] — *cross-shard atomicity*: when a two-phase commit is
//!   decided, with a trusted coordinator for databases versus a
//!   BFT-replicated coordinator shard for blockchains (AHL), which adds a
//!   consensus round per 2PC phase.

#![forbid(unsafe_code)]

pub mod partition;
pub mod two_pc;

pub use partition::{Partitioner, ShardFormation, ShardPlan};
pub use two_pc::{CoordinatorKind, TwoPhaseCommit};
