//! Sharding (the fourth taxonomy dimension, Section 3.4).
//!
//! Two concerns, mirrored in two modules:
//!
//! * [`partition`] — *data placement*: keys reach shards through a hash
//!   [`Partitioner`], fixed for the whole run. AHL's periodic shard
//!   re-formation is modelled as its cost only: a pause of every shard
//!   pipeline (an outage window in `dichotomy-systems`).
//! * [`two_pc`] — *cross-shard atomicity*: when a two-phase commit is
//!   decided, with a trusted coordinator for databases versus a
//!   BFT-replicated coordinator shard for blockchains (AHL), which adds a
//!   consensus round per 2PC phase.

#![forbid(unsafe_code)]

pub mod partition;
pub mod two_pc;

pub use partition::Partitioner;
pub use two_pc::{CoordinatorKind, TwoPhaseCommit};
