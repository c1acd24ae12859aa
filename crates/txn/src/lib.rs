//! Concurrency control (the concurrency dimension, Section 3.2).
//!
//! One scheme lives here: [`occ`], Fabric's execute-order-validate
//! optimism, as two free functions. [`occ::simulate`] runs a transaction
//! against a snapshot, collecting a versioned read set;
//! [`occ::validate_and_commit`] re-checks the read versions at commit, and
//! stale reads abort (`ReadWriteConflict`), which drives the read-write
//! aborts of Figures 9b and 10b. It executes against the shared
//! [`MvccStore`](dichotomy_storage::MvccStore).
//!
//! The other models apply their conflict rule themselves. Quorum and etcd
//! execute serially on a single-server simulator process
//! (`dichotomy_simnet::Process`). TiDB and the Spanner-like model read and
//! write the MVCC store directly, and their only contention is a per-key
//! hold window: TiDB aborts an arrival that finds a written key still held,
//! and the Spanner-like model waits the window out.

#![forbid(unsafe_code)]

pub mod occ;
