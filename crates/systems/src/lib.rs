//! Models of the seven systems the paper benchmarks (Section 4.1), assembled
//! from the substrate crates:
//!
//! | Model | Paper system | Replication | Concurrency | Storage |
//! |---|---|---|---|---|
//! | [`quorum::Quorum`] | Quorum v2.2 | txn-based, Raft or IBFT | serial (order-execute, double execution) | LSM + MPT + ledger |
//! | [`fabric::Fabric`] | Fabric v2.2 | txn-based, shared-log orderer (Raft, 3 orderers) | concurrent simulation, OCC validation, serial commit | LSM + ledger |
//! | [`tidb::TiDb`] | TiDB v4.0 | storage-based, Raft per region | snapshot reads, abort on a busy key (hold window) | LSM (TiKV) |
//! | [`etcd::Etcd`] | etcd v3.3 | storage-based, single Raft group | serial | B+ tree (BoltDB) |
//! | [`etcd::Tikv`] | TiKV (standalone) | storage-based, Raft | serial apply, no SQL/txn layer | LSM |
//! | [`sharded::SpannerLike`] | Spanner | storage-based, Paxos per shard | wait out the hold window, + 2PC | LSM |
//! | [`sharded::Ahl`] | AHL | txn-based, PBFT per shard | serial, BFT-2PC cross-shard | LSM + MBT + ledger |
//!
//! A model is configured only by a [`SystemSpec`]: each constructor takes
//! `&SystemSpec` and resolves the knobs the spec leaves at `None` to its own
//! defaults, and the few values no spec field reaches are named consts in
//! the model's module (plus the shared [`FAILOVER_US`]).
//! [`SystemRegistry::with_builtins`] registers those constructors.
//!
//! Every model implements the event-driven [`TransactionalSystem`] contract:
//! the driver in `dichotomy-core` schedules open-loop arrivals on one shared
//! [`SimEngine`](dichotomy_simnet::SimEngine) clock, models react by booking
//! service time on their engine-registered processes and scheduling their own
//! pipeline stage events, and [`TxnReceipt`](dichotomy_common::TxnReceipt)s
//! with per-phase latencies fall out as stages complete — so the same harness
//! regenerates every figure, with backlog and saturation emerging from real
//! queueing.

#![forbid(unsafe_code)]

pub mod etcd;
pub mod fabric;
pub mod pipeline;
pub mod quorum;
pub mod sharded;
pub mod spec;
pub mod tidb;

pub use etcd::{Etcd, KvSystem, Tikv};
pub use fabric::Fabric;
pub use pipeline::{
    drive_arrivals, run_to_completion, Completion, Engine, ReceiptLog, SharedState, SysEvent,
    SystemKind, TimedCutter, TokenMap, TransactionalSystem, FAILOVER_US,
};
pub use quorum::Quorum;
pub use sharded::{Ahl, ShardedTiDb, SpannerLike};
pub use spec::{
    StateShape, SystemBuilder, SystemRegistry, SystemSpec, TaxonomyPoint, UnknownSystem,
};
pub use tidb::TiDb;
