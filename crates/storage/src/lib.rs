//! Storage engines for the dichotomy reproduction.
//!
//! The storage dimension of the taxonomy (Section 3.3) contrasts the engines
//! the benchmarked systems sit on: LevelDB/RocksDB-style **LSM trees** under
//! Quorum, Fabric, TiKV and CockroachDB; a BoltDB-style **B+ tree** under
//! etcd; a Redis-style **skip list** under Veritas. This crate implements all
//! three from scratch behind one [`KvEngine`] trait, plus the write-ahead log
//! they share and the **MVCC versioned store** the concurrency-control
//! substrate builds on.
//!
//! All engines are in-memory models of their on-disk counterparts: the byte
//! accounting (`StorageFootprint`) is faithful to the structures' layouts so
//! that Figure 12's storage measurements can be regenerated, while access
//! *cost* is charged by the simulator's [`CostModel`]
//! (`dichotomy_simnet::costs`), not by wall-clock time of this code.

#![forbid(unsafe_code)]

pub mod btree;
pub mod engine;
pub mod lsm;
pub mod mvcc;
pub mod skiplist;
pub mod wal;

pub use btree::BPlusTree;
pub use engine::{EngineKind, KvEngine};
pub use lsm::LsmTree;
pub use mvcc::{MvccStore, VersionedValue};
pub use skiplist::SkipList;
pub use wal::WriteAheadLog;
