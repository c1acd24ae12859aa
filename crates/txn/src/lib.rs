//! Concurrency control (the concurrency dimension, Section 3.2).
//!
//! Three schemes cover the benchmarked systems that execute concurrently.
//! Serial execution needs no scheme of its own: in the Quorum and etcd
//! models it is a single-server simulator process (`dichotomy_simnet::Process`)
//! that applies one transaction at a time in ledger order.
//!
//! * [`occ`] — Fabric's execute-order-validate optimism: transactions are
//!   *simulated* against a snapshot, collecting a versioned read set; at
//!   commit the read versions are re-checked and stale reads abort
//!   (`ReadWriteConflict`), which is what drives the abort curves of
//!   Figures 9b and 10b.
//! * [`percolator`] — TiDB's Percolator-style scheme: snapshot reads, a
//!   primary lock per transaction, prewrite that detects write-write
//!   conflicts, then commit; under skew the primary-lock contention is what
//!   collapses TiDB's throughput in Figure 9a.
//! * [`locking`] — Spanner-style pessimistic two-phase locking with
//!   wound-wait deadlock avoidance, used by the Spanner model in Figure 14.
//!
//! All schemes execute against the shared [`MvccStore`](dichotomy_storage::MvccStore)
//! so their effects are directly comparable.

#![forbid(unsafe_code)]

pub mod locking;
pub mod occ;
pub mod percolator;

pub use locking::LockManager;
pub use occ::{OccExecutor, SimulationResult};
pub use percolator::{PercolatorExecutor, PercolatorOutcome};

use dichotomy_common::{Key, Value};

/// Applies the write of a read-modify-write operation: the new value is a
/// function of the old one (here: the provided payload, which preserves the
/// size semantics the workloads care about).
pub(crate) fn rmw_value(_old: Option<&Value>, new: &Value) -> Value {
    new.clone()
}

/// Extract the (key, value) pairs a transaction writes, applying
/// read-modify-write semantics against the provided read results.
pub(crate) fn effective_writes(
    txn: &dichotomy_common::Transaction,
    reads: &[(Key, Option<Value>)],
) -> Vec<(Key, Value)> {
    txn.ops
        .iter()
        .filter(|op| op.writes())
        .map(|op| {
            let old = reads
                .iter()
                .find(|(k, _)| k == &op.key)
                .and_then(|(_, v)| v.as_ref());
            let new = op.value.clone().unwrap_or_else(|| Value::new(Vec::new()));
            (op.key.clone(), rmw_value(old, &new))
        })
        .collect()
}
