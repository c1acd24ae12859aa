//! The facade crate of the *Blockchains vs. Distributed Databases: Dichotomy
//! and Fusion* reproduction.
//!
//! It re-exports the substrate and system crates, and adds the pieces the
//! experiments need:
//!
//! * [`metrics`] — turning a pile of [`TxnReceipt`](dichotomy_common::TxnReceipt)s
//!   into throughput, latency percentiles, abort-rate breakdowns and
//!   per-phase averages;
//! * [`driver`] — the benchmark driver that feeds a workload into a system
//!   model at a chosen offered load and collects the receipts (the role YCSB,
//!   OLTPBench and Caliper play in the paper's setup): the event loop, with
//!   the arrival processes ([`driver::ArrivalSpec`] and its client models)
//!   and the arrival-timestamp ledger in private submodules;
//! * [`scenario`] — the Scenario API: experiments as data. A
//!   [`scenario::Scenario`] composes `SystemSpec`s, a `WorkloadSpec`, a
//!   `DriverConfig` and a `Sweep` into an [`scenario::ExperimentPlan`], and
//!   one generic engine ([`scenario::run_plan`]) executes any plan. One
//!   probe's keys, cache trait and execution, and the worker pool, are
//!   private submodules re-exported at `scenario`;
//! * [`experiments`] — one *plan constructor* per table/figure of the
//!   paper's evaluation section, each a thin description executed by
//!   `run_plan` (these are what the `dichotomy-bench` binaries call);
//! * [`chaos`] — invariant oracles checked over every probe's receipt
//!   stream (receipt conservation, duplicate detection, commit-order
//!   monotonicity, clamp-free queueing), the correctness half of the
//!   fault-injection chaos engine.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod driver;
pub mod experiments;
pub mod lint;
pub mod metrics;
pub mod scenario;

pub use chaos::{OracleContext, OracleOutcome, OracleReport, OracleSet};
pub use driver::{run_workload, ArrivalSpec, DriverConfig, RunStats};
pub use lint::lint_plan;
pub use metrics::{
    ExactLatency, LatencyEstimator, LatencySummary, Metrics, MetricsMode, P2Quantile, ReceiptFold,
    StreamingAggregator, StreamingLatency, TimeSeries, TimeWindow,
};
pub use scenario::{
    fnv1a_64, predicted_probe_cost, probe_key_bytes, run_plan, run_plan_with, run_plans_with,
    ExecOptions, ExperimentPlan, PlanOutcome, ProbeCache, ProbeCalibration, ProbeResult, Scenario,
    Sweep,
};

// Re-export the building blocks so downstream users need only this crate.
pub use dichotomy_common as common;
pub use dichotomy_consensus as consensus;
pub use dichotomy_hybrid as hybrid;
pub use dichotomy_ledger as ledger;
pub use dichotomy_merkle as merkle;
pub use dichotomy_sharding as sharding;
pub use dichotomy_simnet as simnet;
pub use dichotomy_storage as storage;
pub use dichotomy_systems as systems;
pub use dichotomy_txn as txn;
pub use dichotomy_workload as workload;
