//! Storage engines for the dichotomy reproduction.
//!
//! The storage dimension of the taxonomy (Section 3.3) contrasts the engines
//! the benchmarked systems sit on. The models run two of them, behind one
//! [`KvEngine`] trait: a LevelDB/RocksDB-style **LSM tree** under every model
//! except etcd, and a BoltDB-style **B+ tree** under etcd. Beside them sits
//! the **MVCC versioned store** that the concurrency-control substrate
//! (`dichotomy-txn`) and the Fabric, TiDB and sharded models execute against.
//!
//! All engines are in-memory models of their on-disk counterparts: the byte
//! accounting (`StorageFootprint`) is faithful to the structures' layouts so
//! that Figure 12's storage measurements can be regenerated, while access
//! *cost* is charged by the simulator's
//! [`CostModel`](dichotomy_simnet::CostModel), not by wall-clock time of this
//! code.

#![forbid(unsafe_code)]

pub mod btree;
pub mod engine;
pub mod lsm;
pub mod mvcc;

pub use btree::BPlusTree;
pub use engine::{EngineKind, KvEngine};
pub use lsm::LsmTree;
pub use mvcc::{MvccStore, VersionedValue};
