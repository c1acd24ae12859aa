//! Workload generators (Section 4.2 / Table 3).
//!
//! Two workloads drive every experiment in the paper:
//!
//! * [`ycsb`] — the YCSB core workload: keys drawn uniformly or from a
//!   Zipfian distribution over a pre-loaded table, with the record size,
//!   operations-per-transaction and read/write mix as knobs (Table 3's
//!   parameters: record size 10–5 000 B, θ ∈ [0, 1], 1–10 ops/txn).
//! * [`smallbank`] — the OLTP Smallbank benchmark: six short banking
//!   procedures over checking/savings accounts with application-level
//!   constraints, used for Figure 6.
//!
//! Both implement the [`Workload`] trait so the driver and benches can treat
//! them uniformly.

#![forbid(unsafe_code)]

pub mod smallbank;
pub mod spec;
pub mod ycsb;
pub mod zipf;

pub use smallbank::{SmallbankConfig, SmallbankWorkload};
pub use spec::WorkloadSpec;
pub use ycsb::{YcsbConfig, YcsbMix, YcsbWorkload};
pub use zipf::ZipfianGenerator;

use dichotomy_common::{ClientId, Key, Transaction, Value};

/// A stream of transactions plus the initial data set to load.
pub trait Workload {
    /// The records to pre-populate the system with.
    fn initial_records(&self) -> Vec<(Key, Value)>;

    /// Generate the next transaction for `client` with sequence number `seq`.
    fn next_transaction(&mut self, client: ClientId, seq: u64) -> Transaction;

    /// A short human-readable name for reports.
    fn name(&self) -> &'static str;
}
