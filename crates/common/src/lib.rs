//! Common foundation types for the *Blockchains vs. Distributed Databases:
//! Dichotomy and Fusion* reproduction.
//!
//! This crate holds everything the substrate crates (storage, consensus,
//! merkle, ledger, ...) and the system models (Quorum, Fabric, TiDB, etcd,
//! ...) share:
//!
//! * [`Hash`](struct@Hash) and a from-scratch [`sha256`] implementation used
//!   for ledger chaining and authenticated data structures,
//! * deterministic, model-level digital [`signatures`](crypto) whose
//!   verification cost is charged by the simulator,
//! * the transactional vocabulary ([`Key`], [`Value`], [`Operation`],
//!   [`Transaction`], [`TxnReceipt`], [`AbortReason`]),
//! * the [`Block`] format shared by all ledger-based systems,
//! * error types and byte-level [`size`] accounting helpers.
//!
//! Everything here is pure data and pure computation: no clocks, no I/O, no
//! threads. Time and cost live in `dichotomy-simnet`.

// `unsafe` is confined to the SHA-NI kernel in `hash`, the one module that
// opts back in; every other crate of the workspace forbids it outright.
#![deny(unsafe_code)]

pub mod block;
pub mod codec;
pub mod crypto;
pub mod diag;
pub mod error;
pub mod hash;
pub mod rng;
pub mod size;
pub mod txn;
pub mod types;

pub use block::{Block, BlockHeader};
pub use codec::{intern, Decode, Encode};
pub use crypto::{KeyPair, PublicKey, Signature};
pub use diag::{Diagnostic, Locus, Severity};
pub use error::{CommonError, Result};
pub use hash::{sha256, Hash, Hasher};
pub use txn::{
    AbortReason, IsolationLevel, Operation, OperationKind, Transaction, TxnReceipt, TxnStatus,
};
pub use types::{ClientId, Key, NodeId, ShardId, Timestamp, TxnId, Value, Version};
