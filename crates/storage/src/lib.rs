//! Storage engines for the dichotomy reproduction.
//!
//! The storage dimension of the taxonomy (Section 3.3) contrasts the engines
//! the benchmarked systems sit on. The models run two of them, behind one
//! [`KvEngine`] trait: a LevelDB/RocksDB-style **LSM tree** under every model
//! except etcd, and a BoltDB-style **B+ tree** under etcd. Beside them sits
//! the **MVCC versioned store** that the concurrency-control substrate
//! (`dichotomy-txn`) and the Fabric, TiDB and sharded models execute against.
//!
//! A model's untimed preload goes through [`KvEngine::load`] and
//! [`MvccStore::load`]. Each leaves exactly the state its per-record writes
//! would. An empty LSM tree given pairwise distinct keys builds its runs in
//! one sorted pass; the MVCC store commits record by record into a map sized
//! once for them. The B+ tree keeps the per-record loop, since its node
//! layout depends on the order of its splits.
//!
//! The tables the transaction path reads one key at a time — the LSM
//! memtable and the MVCC version maps — are hash-indexed
//! [`KeyMap`](dichotomy_common::KeyMap)s. Order is imposed only where it
//! reaches a reader: a flush sorts the memtable into its run, and a scan
//! merges through a `BTreeMap`.
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
