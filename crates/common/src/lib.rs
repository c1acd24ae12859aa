//! Common foundation types for the *Blockchains vs. Distributed Databases:
//! Dichotomy and Fusion* reproduction.
//!
//! This crate holds everything the substrate crates (storage, consensus,
//! merkle, ledger, ...) and the system models (Quorum, Fabric, TiDB, etcd,
//! ...) share:
//!
//! * [`Hash`](struct@Hash) and a from-scratch [`sha256`] implementation used
//!   for ledger chaining and authenticated data structures,
//! * the transactional vocabulary ([`Key`], [`Value`], [`Operation`],
//!   [`Transaction`], [`TxnReceipt`], [`AbortReason`]); a transaction records
//!   whether its client signed it, and the simulator charges signing and
//!   verification as time,
//! * the canonical byte encoding ([`codec`](mod@codec)), plan
//!   [`diag`]nostics and byte-level [`size`] accounting helpers.
//!
//! Everything here is pure data and pure computation: no clocks, no I/O, no
//! threads. Time and cost live in `dichotomy-simnet`.

// `unsafe` is confined to the SHA-NI kernel in `hash`, the one module that
// opts back in; every other crate of the workspace forbids it outright.
#![deny(unsafe_code)]

pub mod codec;
pub mod diag;
pub mod hash;
pub mod rng;
pub mod size;
pub mod txn;
pub mod types;

pub use codec::{intern, Decode, Encode};
pub use diag::{Diagnostic, Locus, Severity};
pub use hash::{sha256, Hash, Hasher};
pub use txn::{
    AbortReason, Operation, OperationKind, Operations, Transaction, TxnReceipt, TxnStatus,
};
pub use types::{ClientId, Key, KeyMap, NodeId, ShardId, Timestamp, TxnId, Value, Version};
