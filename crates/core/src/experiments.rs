//! One plan constructor per table/figure of the paper's evaluation
//! (Section 5).
//!
//! Every experiment is *data*: a `figNN_plan`/`tabNN_plan` function
//! assembles an [`ExperimentPlan`] — systems described by [`SystemSpec`],
//! workloads by [`WorkloadSpec`], sweeps by [`Sweep`] — and the one generic
//! engine, [`run_plan`](crate::scenario::run_plan), executes it into an
//! [`ExperimentReport`]. The plans are the only entry point: `repro`, the
//! explorer and the benchmark harness all build a plan and run it.
//!
//! **Scale note.** The paper populates 100 K–1 M records and drives the
//! systems from a 96-node cluster for minutes. The plans here are
//! dimensioned to finish in seconds on a laptop (thousands of records,
//! thousands of transactions); the *relative* results — orderings, trends,
//! crossover points — are what is being reproduced, not absolute numbers.

use std::fmt::Write as _;

use dichotomy_common::{codec, AbortReason, NodeId};
use dichotomy_consensus::ProtocolKind;
use dichotomy_hybrid::{all_systems, SystemCategory};
use dichotomy_simnet::{FaultPlan, NodeFault};
use dichotomy_systems::{SystemKind, SystemSpec};
use dichotomy_workload::{SmallbankConfig, WorkloadSpec, YcsbConfig, YcsbMix};

use crate::driver::{ArrivalSpec, DriverConfig};
use crate::metrics::MetricsMode;
use crate::scenario::{
    ColumnSpec, ExperimentPlan, Metric, PlannedRow, PlannedRun, Probe, Scenario, Sweep, SystemEntry,
};

/// One labelled row of numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Row label (system name, parameter value, ...).
    pub label: String,
    /// (column name, value) pairs.
    pub values: Vec<(String, f64)>,
    /// Windowed time series, one per driving probe backing the row (empty
    /// for non-driving probes). Rendered only by machine-readable outputs
    /// (`repro --json`); the text table stays scalar.
    pub series: Vec<RowSeries>,
}

/// A named windowed time series attached to a report row.
#[derive(Debug, Clone, PartialEq)]
pub struct RowSeries {
    /// Which probe produced it (the system label).
    pub name: String,
    /// Events the probe's engine clamped to its clock (scheduled into the
    /// past). Healthy runs report 0; surfacing the counter here makes report
    /// equality — including the `jobs=1` vs `jobs=N` determinism check —
    /// cover it.
    pub events_clamped: u64,
    /// The invariant-oracle verdicts for the probe's run ([`crate::chaos`]).
    /// Probes that reach the report always show passing outcomes — a
    /// violated oracle panics the probe into a labelled [`ProbeFailure`]
    /// instead — so this is the positive witness `repro --json` renders.
    pub oracles: crate::chaos::OracleReport,
    /// The windowed throughput/latency/abort data.
    pub series: crate::metrics::TimeSeries,
}
codec!(Encode + Decode for struct RowSeries { name, events_clamped, oracles, series });

/// One probe that panicked during [`crate::scenario::run_plan`]: which row it
/// backed, which probe it was, and the panic message. The probe's columns
/// render as NaN (`null` in JSON); the rest of the experiment survives.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeFailure {
    /// Label of the row the probe contributed to.
    pub row: String,
    /// The probe's label (the system under test, or the probe kind).
    pub probe: String,
    /// Plan-order probe index (stable across worker counts).
    pub index: usize,
    /// The panic message.
    pub message: String,
}

/// A structured experiment result.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentReport {
    /// Experiment id, e.g. "Figure 4".
    pub id: &'static str,
    /// What it reproduces.
    pub title: &'static str,
    /// The measured rows.
    pub rows: Vec<Row>,
    /// Probes that panicked, in plan order (empty on a clean run).
    pub failures: Vec<ProbeFailure>,
    /// Pre-rendered text for qualitative experiments (Table 2's taxonomy);
    /// rendered verbatim instead of the row grid when present.
    pub text: Option<String>,
}

impl ExperimentReport {
    /// Render as a fixed-width text table (or the preformatted text for
    /// qualitative reports).
    pub fn render(&self) -> String {
        if let Some(text) = &self.text {
            return text.clone();
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} ==", self.id, self.title);
        if !self.rows.is_empty() {
            let _ = write!(out, "{:<28}", "");
            for (name, _) in &self.rows[0].values {
                let _ = write!(out, "{name:>16}");
            }
            let _ = writeln!(out);
            for row in &self.rows {
                let _ = write!(out, "{:<28}", row.label);
                for (_, v) in &row.values {
                    let _ = write!(out, "{v:>16.1}");
                }
                let _ = writeln!(out);
            }
        }
        for f in &self.failures {
            let _ = writeln!(
                out,
                "!! probe '{}' on row '{}' failed: {}",
                f.probe, f.row, f.message
            );
        }
        out
    }

    /// Look up a value by row label and column name.
    pub fn value(&self, row: &str, column: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.label == row)
            .and_then(|r| r.values.iter().find(|(c, _)| c == column))
            .map(|(_, v)| *v)
    }
}

/// The five fully replicated systems of Figures 4/5, in the paper's plotting
/// order.
const BENCH_FIVE: [SystemKind; 5] = [
    SystemKind::Fabric,
    SystemKind::Quorum,
    SystemKind::TiDb,
    SystemKind::Etcd,
    SystemKind::Tikv,
];

/// The benchmarked deployment of a system with `nodes` replicas (full
/// replication, the paper's 100 ms / 100-txn block cutting for the
/// blockchains).
fn bench_spec(kind: SystemKind, nodes: usize) -> SystemSpec {
    let spec = SystemSpec::new(kind).with_nodes(nodes);
    match kind {
        SystemKind::Fabric | SystemKind::Quorum => spec.with_blocks(100, 100_000),
        _ => spec,
    }
}

/// The reduced-scale YCSB used by most experiments.
fn ycsb(mix: YcsbMix, record_size: usize, theta: f64, ops: usize) -> WorkloadSpec {
    WorkloadSpec::Ycsb(YcsbConfig {
        record_count: 5_000,
        record_size,
        zipf_theta: theta,
        ops_per_txn: ops,
        mix,
        ..YcsbConfig::default()
    })
}

fn col(name: impl Into<String>, metric: Metric) -> ColumnSpec {
    ColumnSpec::new(name, metric)
}

fn drive(
    system: SystemSpec,
    workload: WorkloadSpec,
    driver: DriverConfig,
    columns: Vec<ColumnSpec>,
    seed: u64,
) -> PlannedRun {
    let mut system = system;
    if system.seed.is_none() {
        system.seed = Some(seed);
    }
    PlannedRun {
        probe: Probe::Drive {
            system,
            workload: workload.with_seed(seed),
            driver: driver.with_seed(seed),
        },
        columns,
    }
}

/// Figure 4 plan: YCSB peak throughput (update-only and query-only) for the
/// five systems.
pub fn fig04_plan(txns: u64, seed: u64) -> ExperimentPlan {
    let rows = BENCH_FIVE
        .iter()
        .map(|&kind| PlannedRow {
            label: kind.name().to_string(),
            runs: vec![
                drive(
                    bench_spec(kind, 5),
                    ycsb(YcsbMix::UpdateOnly, 1000, 0.0, 1),
                    DriverConfig::saturating(txns),
                    vec![col("update_tps", Metric::ThroughputTps)],
                    seed,
                ),
                drive(
                    bench_spec(kind, 5),
                    ycsb(YcsbMix::QueryOnly, 1000, 0.0, 1),
                    DriverConfig::saturating(txns),
                    vec![col("query_tps", Metric::ThroughputTps)],
                    seed,
                ),
            ],
        })
        .collect();
    ExperimentPlan {
        id: "Figure 4",
        title: "YCSB peak throughput (update / query)",
        rows,
        text: None,
        diagnostics: Vec::new(),
    }
}

/// Figure 5 plan: unsaturated YCSB latency (update and query) for the five
/// systems.
pub fn fig05_plan(txns: u64, seed: u64) -> ExperimentPlan {
    let rows = BENCH_FIVE
        .iter()
        .map(|&kind| PlannedRow {
            label: kind.name().to_string(),
            runs: vec![
                drive(
                    bench_spec(kind, 5),
                    ycsb(YcsbMix::UpdateOnly, 1000, 0.0, 1),
                    DriverConfig::unsaturated(txns),
                    vec![col("update_ms", Metric::LatencyMeanMs)],
                    seed,
                ),
                drive(
                    bench_spec(kind, 5),
                    ycsb(YcsbMix::QueryOnly, 1000, 0.0, 1),
                    DriverConfig::unsaturated(txns),
                    vec![col("query_ms", Metric::LatencyMeanMs)],
                    seed,
                ),
            ],
        })
        .collect();
    ExperimentPlan {
        id: "Figure 5",
        title: "YCSB latency, unsaturated (update / query), ms",
        rows,
        text: None,
        diagnostics: Vec::new(),
    }
}

/// Figure 6 plan: Smallbank throughput under a skewed workload (θ = 1), for
/// Fabric, Quorum and TiDB (etcd has no transactional support).
pub fn fig06_plan(txns: u64, seed: u64) -> ExperimentPlan {
    let scenario = Scenario {
        id: "Figure 6",
        title: "Smallbank throughput, skewed (θ=1)",
        systems: [SystemKind::Fabric, SystemKind::Quorum, SystemKind::TiDb]
            .iter()
            .map(|&kind| SystemEntry {
                spec: bench_spec(kind, 5),
                columns: vec![
                    col("tps", Metric::ThroughputTps),
                    col("abort_%", Metric::AbortPercent),
                ],
            })
            .collect(),
        workload: WorkloadSpec::Smallbank(SmallbankConfig {
            accounts: 20_000,
            zipf_theta: 1.0,
            ..SmallbankConfig::default()
        }),
        driver: DriverConfig::saturating(txns),
        sweep: Sweep::None,
        row_labels: None,
        faults: None,
        seed,
    };
    scenario.plan()
}

/// Figure 7 plan: Quorum throughput with Raft (CFT) vs IBFT (BFT) as the
/// number of tolerated failures grows. The node count per row follows the
/// failure model: 2f+1 for Raft, 3f+1 for IBFT.
pub fn fig07_plan(txns: u64, seed: u64) -> ExperimentPlan {
    let rows = (1..=4usize)
        .map(|f| PlannedRow {
            label: format!("f={f}"),
            runs: [
                ("raft_tps", ProtocolKind::Raft, 2 * f + 1),
                ("ibft_tps", ProtocolKind::Ibft, 3 * f + 1),
            ]
            .into_iter()
            .map(|(name, protocol, nodes)| {
                drive(
                    bench_spec(SystemKind::Quorum, nodes).with_consensus(protocol),
                    ycsb(YcsbMix::UpdateOnly, 1000, 0.0, 1),
                    DriverConfig::saturating(txns),
                    vec![col(name, Metric::ThroughputTps)],
                    seed,
                )
            })
            .collect(),
        })
        .collect();
    ExperimentPlan {
        id: "Figure 7",
        title: "Quorum throughput: CFT (Raft) vs BFT (IBFT)",
        rows,
        text: None,
        diagnostics: Vec::new(),
    }
}

/// Figure 8 plan: latency breakdown. (a) Fabric execute/order/validate,
/// unsaturated vs saturated, against TiDB; (b) the query path: Fabric
/// authentication/simulation/endorsement vs TiDB parse/compile/storage-get.
pub fn fig08_plan(txns: u64, seed: u64) -> ExperimentPlan {
    // The paper's TiDB deployment here is the 3+3 default, not the
    // half-frontend split of the full-replication sweeps.
    let tidb = || {
        SystemSpec::new(SystemKind::TiDb)
            .with_nodes(3)
            .with_frontends(3)
    };
    let fabric_bench = || SystemSpec::new(SystemKind::Fabric).with_blocks(100, 100_000);
    let update = || ycsb(YcsbMix::UpdateOnly, 1000, 0.0, 1);
    let query = || ycsb(YcsbMix::QueryOnly, 1000, 0.0, 1);
    let fabric_phase_cols = || {
        vec![
            col("execute_ms", Metric::PhaseMeanMs("execute")),
            col("order_ms", Metric::PhaseMeanMs("order")),
            col("validate_ms", Metric::PhaseMeanMs("validate")),
        ]
    };
    let rows = vec![
        PlannedRow {
            label: "Fabric unsaturated".into(),
            runs: vec![drive(
                fabric_bench(),
                update(),
                DriverConfig::unsaturated(txns / 4),
                fabric_phase_cols(),
                seed,
            )],
        },
        PlannedRow {
            label: "Fabric saturated".into(),
            runs: vec![drive(
                fabric_bench(),
                update(),
                DriverConfig::saturating(txns),
                fabric_phase_cols(),
                seed,
            )],
        },
        PlannedRow {
            label: "TiDB unsaturated".into(),
            runs: vec![drive(
                tidb(),
                update(),
                DriverConfig::unsaturated(txns / 4),
                vec![col("total_ms", Metric::LatencyMeanMs)],
                seed,
            )],
        },
        PlannedRow {
            label: "TiDB saturated".into(),
            runs: vec![drive(
                tidb(),
                update(),
                DriverConfig::saturating(txns),
                vec![col("total_ms", Metric::LatencyMeanMs)],
                seed,
            )],
        },
        // Query-path breakdown (Figure 8b), in microseconds, at the models'
        // default deployments.
        PlannedRow {
            label: "Fabric query (µs)".into(),
            runs: vec![drive(
                SystemSpec::new(SystemKind::Fabric),
                query(),
                DriverConfig::unsaturated(txns / 4),
                vec![
                    col("authentication", Metric::PhaseMeanUs("authentication")),
                    col("simulation", Metric::PhaseMeanUs("simulation")),
                    col("endorsement", Metric::PhaseMeanUs("endorsement")),
                ],
                seed,
            )],
        },
        PlannedRow {
            label: "TiDB query (µs)".into(),
            runs: vec![drive(
                tidb(),
                query(),
                DriverConfig::unsaturated(txns / 4),
                vec![
                    col("sql-parse", Metric::PhaseMeanUs("sql-parse")),
                    col("sql-compile", Metric::PhaseMeanUs("sql-compile")),
                    col("storage-get", Metric::PhaseMeanUs("storage-get")),
                ],
                seed,
            )],
        },
    ];
    ExperimentPlan {
        id: "Figure 8",
        title: "Latency breakdown (update phases, query path)",
        rows,
        text: None,
        diagnostics: Vec::new(),
    }
}

/// The four systems of the parameter sweeps (Figures 9–11, Table 4).
const SWEEP_FOUR: [SystemKind; 4] = [
    SystemKind::Fabric,
    SystemKind::Quorum,
    SystemKind::TiDb,
    SystemKind::Etcd,
];

/// Figure 9 plan: throughput and abort rate under increasing Zipfian skew
/// (single-record read-modify-write transactions).
pub fn fig09_plan(txns: u64, thetas: &[f64], seed: u64) -> ExperimentPlan {
    let scenario = Scenario {
        id: "Figure 9",
        title: "Throughput and abort rate vs Zipfian skew",
        systems: SWEEP_FOUR
            .iter()
            .map(|&kind| {
                let mut columns = vec![col(format!("{}_tps", kind.name()), Metric::ThroughputTps)];
                if matches!(kind, SystemKind::Fabric | SystemKind::TiDb) {
                    columns.push(col(
                        format!("{}_abort_%", kind.name()),
                        Metric::AbortPercent,
                    ));
                }
                SystemEntry {
                    spec: bench_spec(kind, 5),
                    columns,
                }
            })
            .collect(),
        workload: ycsb(YcsbMix::ReadModifyWrite, 1000, 0.0, 1),
        driver: DriverConfig::saturating(txns),
        sweep: Sweep::Theta(thetas.to_vec()),
        row_labels: None,
        faults: None,
        seed,
    };
    scenario.plan()
}

/// Figure 10 plan: throughput and abort rate vs operations per transaction
/// (total transaction payload held at 1 000 bytes).
pub fn fig10_plan(txns: u64, op_counts: &[usize], seed: u64) -> ExperimentPlan {
    let scenario = Scenario {
        id: "Figure 10",
        title: "Throughput and abort rate vs operations per transaction",
        systems: SWEEP_FOUR
            .iter()
            .map(|&kind| {
                let mut columns = vec![col(format!("{}_tps", kind.name()), Metric::ThroughputTps)];
                if kind == SystemKind::Fabric {
                    columns.push(col(
                        "Fabric_rw_conflict_%",
                        Metric::AbortSharePercent(AbortReason::ReadWriteConflict),
                    ));
                    columns.push(col(
                        "Fabric_inconsistent_%",
                        Metric::AbortSharePercent(AbortReason::InconsistentRead),
                    ));
                }
                if kind == SystemKind::TiDb {
                    columns.push(col("TiDB_abort_%", Metric::AbortPercent));
                }
                SystemEntry {
                    spec: bench_spec(kind, 5),
                    columns,
                }
            })
            .collect(),
        workload: ycsb(YcsbMix::ReadModifyWrite, 1000, 0.0, 1),
        driver: DriverConfig::saturating(txns),
        sweep: Sweep::OpsPerTxn {
            counts: op_counts.to_vec(),
            payload_bytes: Some(1_000),
        },
        row_labels: None,
        faults: None,
        seed,
    };
    scenario.plan()
}

/// Figure 11 plan: throughput (and Quorum latency breakdown) vs record size
/// under the uniform update workload.
pub fn fig11_plan(txns: u64, sizes: &[usize], seed: u64) -> ExperimentPlan {
    let scenario = Scenario {
        id: "Figure 11",
        title: "Uniform update throughput and latency breakdown vs record size",
        systems: SWEEP_FOUR
            .iter()
            .map(|&kind| {
                let mut columns = vec![col(format!("{}_tps", kind.name()), Metric::ThroughputTps)];
                if kind == SystemKind::Quorum {
                    columns.push(col("Quorum_commit_ms", Metric::PhaseMeanMs("commit")));
                    columns.push(col("Quorum_proposal_ms", Metric::PhaseMeanMs("proposal")));
                }
                SystemEntry {
                    spec: bench_spec(kind, 5),
                    columns,
                }
            })
            .collect(),
        workload: ycsb(YcsbMix::UpdateOnly, 1000, 0.0, 1),
        driver: DriverConfig::saturating(txns),
        sweep: Sweep::RecordSize(sizes.to_vec()),
        row_labels: None,
        faults: None,
        seed,
    };
    scenario.plan()
}

/// Figure 12 plan: storage cost per record (Fabric state + block storage vs
/// TiDB) as the record size grows. Every transaction inserts a fresh record
/// (`preload: false`), so `records` drives both the write count and the
/// per-record denominators.
pub fn fig12_plan(records: u64, sizes: &[usize], seed: u64) -> ExperimentPlan {
    let driver = || DriverConfig {
        transactions: records,
        preload: false,
        ..DriverConfig::saturating(records)
    };
    let workload = |size: usize| {
        WorkloadSpec::Ycsb(YcsbConfig {
            record_count: records,
            record_size: size,
            mix: YcsbMix::UpdateOnly,
            ..YcsbConfig::default()
        })
    };
    // Insert through the full pipeline so both the state DB and the ledger
    // fill up; endorsement divergence off so every insert commits.
    let fabric = || {
        let mut spec = SystemSpec::new(SystemKind::Fabric).with_endorsement_divergence(0.0);
        spec.block_txns = Some(100);
        spec
    };
    let tidb = || {
        SystemSpec::new(SystemKind::TiDb)
            .with_nodes(3)
            .with_frontends(3)
    };
    let rows = sizes
        .iter()
        .map(|&size| PlannedRow {
            label: format!("{size} B"),
            runs: vec![
                drive(
                    fabric(),
                    workload(size),
                    driver(),
                    vec![
                        col("Fabric_state_B/rec", Metric::StateBytesPerRecord),
                        col("Fabric_block_B/rec", Metric::HistoryBytesPerRecord),
                    ],
                    seed,
                ),
                drive(
                    tidb(),
                    workload(size),
                    driver(),
                    vec![col("TiDB_B/rec", Metric::TotalBytesPerRecord)],
                    seed,
                ),
            ],
        })
        .collect();
    ExperimentPlan {
        id: "Figure 12",
        title: "Storage cost per record: Fabric state / Fabric blocks / TiDB",
        rows,
        text: None,
        diagnostics: Vec::new(),
    }
}

/// Figure 13 plan: per-record storage cost of the two authenticated indexes
/// (MBT vs MPT), as a function of record size.
pub fn fig13_plan(records: u64, sizes: &[usize]) -> ExperimentPlan {
    let rows = sizes
        .iter()
        .map(|&size| PlannedRow {
            label: format!("{size} B"),
            runs: vec![PlannedRun {
                probe: Probe::AdrOverhead {
                    records,
                    record_size: size,
                },
                columns: vec![
                    col("MBT_B/rec", Metric::Extra("mbt_b_per_rec")),
                    col("MPT_B/rec", Metric::Extra("mpt_b_per_rec")),
                ],
            }],
        })
        .collect();
    ExperimentPlan {
        id: "Figure 13",
        title: "State storage per record with tamper evidence: MBT vs MPT",
        rows,
        text: None,
        diagnostics: Vec::new(),
    }
}

/// Figure 14 plan: sharded scaling under a skewed workload with 2-record
/// transactions: AHL (periodic reconfiguration), AHL (fixed members),
/// sharded TiDB and the Spanner-like model.
pub fn fig14_plan(txns: u64, shard_counts: &[u32], seed: u64) -> ExperimentPlan {
    let scenario = Scenario {
        id: "Figure 14",
        title: "Sharded throughput, skewed 2-record transactions",
        systems: vec![
            SystemEntry {
                spec: SystemSpec::new(SystemKind::Ahl).with_reconfiguration(2_000_000, 600_000),
                columns: vec![col("AHL_reconfig_tps", Metric::ThroughputTps)],
            },
            SystemEntry {
                spec: SystemSpec::new(SystemKind::Ahl).with_periodic_reconfiguration(false),
                columns: vec![col("AHL_fixed_tps", Metric::ThroughputTps)],
            },
            SystemEntry {
                // A sharded TiDb spec builds the region-partitioned model.
                spec: SystemSpec::new(SystemKind::TiDb).with_shards(1),
                columns: vec![col("TiDB_tps", Metric::ThroughputTps)],
            },
            SystemEntry {
                spec: SystemSpec::new(SystemKind::SpannerLike),
                columns: vec![col("Spanner_tps", Metric::ThroughputTps)],
            },
        ],
        workload: WorkloadSpec::Ycsb(YcsbConfig {
            record_count: 5_000,
            record_size: 1000,
            zipf_theta: 1.0,
            ops_per_txn: 2,
            mix: YcsbMix::ReadModifyWrite,
            ..YcsbConfig::default()
        }),
        driver: DriverConfig::saturating(txns),
        sweep: Sweep::Shards(shard_counts.to_vec()),
        row_labels: Some(
            shard_counts
                .iter()
                .map(|&shards| format!("{} nodes ({shards} shards)", shards * 3))
                .collect(),
        ),
        faults: None,
        seed,
    };
    scenario.plan()
}

/// Figure 15 plan: the hybrid forecast framework — forecast vs reported
/// throughput for the six hybrid systems of Table 2.
pub fn fig15_plan() -> ExperimentPlan {
    let rows = all_systems()
        .iter()
        .filter(|profile| {
            matches!(
                profile.category,
                SystemCategory::OutOfBlockchainDatabase | SystemCategory::OutOfDatabaseBlockchain
            )
        })
        .map(|profile| PlannedRow {
            label: profile.name.to_string(),
            runs: vec![PlannedRun {
                probe: Probe::Forecast {
                    profile: profile.name,
                },
                columns: vec![
                    col("band(0=low,2=high)", Metric::Extra("band")),
                    col("forecast_tps", Metric::Extra("forecast_tps")),
                    col("reported_tps", Metric::Extra("reported_tps")),
                ],
            }],
        })
        .collect();
    ExperimentPlan {
        id: "Figure 15",
        title: "Hybrid-system throughput forecast vs reported numbers",
        rows,
        text: None,
        diagnostics: Vec::new(),
    }
}

/// Table 2 plan: the taxonomy rendering (qualitative, no measurements).
pub fn tab02_plan() -> ExperimentPlan {
    ExperimentPlan {
        id: "Table 2",
        title: "Design-space taxonomy",
        rows: Vec::new(),
        text: Some(dichotomy_hybrid::taxonomy::render_table2()),
        diagnostics: Vec::new(),
    }
}

/// Table 4 plan: throughput with a varying number of nodes under full
/// replication. Rows are systems; columns are the node counts.
pub fn tab04_plan(txns: u64, node_counts: &[usize], seed: u64) -> ExperimentPlan {
    let rows = SWEEP_FOUR
        .iter()
        .map(|&kind| PlannedRow {
            label: kind.name().to_string(),
            runs: node_counts
                .iter()
                .map(|&n| {
                    drive(
                        bench_spec(kind, n),
                        ycsb(YcsbMix::UpdateOnly, 1000, 0.0, 1),
                        DriverConfig::saturating(txns),
                        vec![col(format!("{n}_nodes"), Metric::ThroughputTps)],
                        seed,
                    )
                })
                .collect(),
        })
        .collect();
    ExperimentPlan {
        id: "Table 4",
        title: "Throughput (tps) vs number of nodes, full replication",
        rows,
        text: None,
        diagnostics: Vec::new(),
    }
}

/// Table 5 plan: throughput when varying TiDB servers and TiKV nodes
/// independently.
pub fn tab05_plan(txns: u64, counts: &[usize], seed: u64) -> ExperimentPlan {
    let rows = counts
        .iter()
        .map(|&tidb_servers| PlannedRow {
            label: format!("{tidb_servers} TiDB servers"),
            runs: counts
                .iter()
                .map(|&tikv_nodes| {
                    drive(
                        SystemSpec::new(SystemKind::TiDb)
                            .with_nodes(tikv_nodes)
                            .with_frontends(tidb_servers),
                        ycsb(YcsbMix::UpdateOnly, 1000, 0.0, 1),
                        DriverConfig::saturating(txns),
                        vec![col(format!("{tikv_nodes}_tikv"), Metric::ThroughputTps)],
                        seed,
                    )
                })
                .collect(),
        })
        .collect();
    ExperimentPlan {
        id: "Table 5",
        title: "TiDB: throughput (tps) vs #TiDB servers × #TiKV nodes",
        rows,
        text: None,
        diagnostics: Vec::new(),
    }
}

/// The arrival span (µs) of the fault-scenario run: `txns` arrivals at the
/// 2 000 tps the plan offers.
fn fault01_span_us(txns: u64) -> u64 {
    txns.saturating_mul(500).max(12)
}

/// Fault 1 plan: the Raft-backed etcd model driven through a declarative
/// crash-and-recover schedule. The leader crashes for the middle third of
/// the arrival span; the windowed time series shows commits dropping to zero
/// during the outage and the queued backlog bursting through after the crash
/// heals and the failover pause elapses. The load (2 000 tps) is well under
/// etcd's capacity so the dip is attributable to the fault, not saturation.
pub fn fault01_plan(txns: u64, seed: u64) -> ExperimentPlan {
    let span = fault01_span_us(txns);
    let mut faults = FaultPlan::none();
    faults.add(NodeFault::crash_until(NodeId(0), span / 3, 2 * span / 3));
    let scenario = Scenario {
        id: "Fault 1",
        title: "etcd update throughput through a leader crash and recovery",
        systems: vec![SystemEntry {
            spec: SystemSpec::new(SystemKind::Etcd),
            columns: vec![
                col("tps", Metric::ThroughputTps),
                col("abort_%", Metric::AbortPercent),
            ],
        }],
        workload: ycsb(YcsbMix::UpdateOnly, 1000, 0.0, 1),
        driver: DriverConfig {
            transactions: txns,
            offered_tps: 2_000.0,
            window_us: Some((span / 12).max(1)),
            ..DriverConfig::default()
        },
        sweep: Sweep::None,
        row_labels: None,
        faults: Some(faults),
        seed,
    };
    scenario.plan()
}

/// The arrival span (µs) of the chaos grid's runs: `txns` arrivals at the
/// 1 000 tps the plan offers.
pub fn chaos01_span_us(txns: u64) -> u64 {
    txns.saturating_mul(1_000).max(12)
}

/// The labelled fault schedules of the chaos grid, one per row, over an
/// arrival span of `span` µs. Together they exercise every class of the
/// fault algebra: node crash (primary and shard leader), coordinator
/// failover, network partition, and an epoch-pause reconfiguration with
/// membership churn.
pub fn chaos01_fault_rows(span: u64) -> Vec<(String, FaultPlan)> {
    let (from, until) = (span / 3, 2 * span / 3);
    let mut primary_crash = FaultPlan::none();
    primary_crash.add(NodeFault::crash_until(NodeId(0), from, until));
    let mut shard_crash = FaultPlan::none();
    shard_crash.add(NodeFault::crash_until(NodeId(1), from, until));
    let mut failover = FaultPlan::none();
    failover.add_failover(from, span / 6);
    let mut partition = FaultPlan::none();
    partition.add_partition(vec![NodeId(0)], from, Some(until));
    let mut reconfig = FaultPlan::none();
    reconfig.add_reconfiguration(from, span / 6, true);
    vec![
        ("baseline".to_string(), FaultPlan::none()),
        ("primary-crash".to_string(), primary_crash),
        ("shard-crash".to_string(), shard_crash),
        ("failover".to_string(), failover),
        ("partition".to_string(), partition),
        ("reconfig".to_string(), reconfig),
    ]
}

/// The chaos grid's deployment of each model: defaults everywhere, except
/// the blockchains cut small fast blocks (25 txns / 10 ms) so pipeline
/// latency stays well inside the dip-detection windows.
fn chaos_spec(kind: SystemKind) -> SystemSpec {
    let spec = SystemSpec::new(kind);
    match kind {
        SystemKind::Fabric | SystemKind::Quorum => spec.with_blocks(25, 10_000),
        _ => spec,
    }
}

/// Chaos 1 plan: the full model grid (every [`SystemKind`]) × the
/// declarative fault schedules of [`chaos01_fault_rows`], at a 1 000 tps
/// offered load that is comfortably under every model's capacity — so a
/// throughput dip in the windowed series is attributable to the row's fault,
/// and the post-heal burst to the queued backlog draining. Each model
/// consumes the fault classes its architecture defines (see the SystemSpec
/// fault docs); the rest of the schedule is inert for it. Every cell's
/// receipt stream feeds the invariant oracles; a violation fails the probe.
pub fn chaos01_plan(txns: u64, seed: u64) -> ExperimentPlan {
    let span = chaos01_span_us(txns);
    let scenario = Scenario {
        id: "Chaos 1",
        title: "chaos grid: every model through the declarative fault schedules",
        systems: SystemKind::ALL
            .iter()
            .map(|&kind| SystemEntry {
                spec: chaos_spec(kind),
                columns: vec![col(format!("{}_tps", kind.name()), Metric::ThroughputTps)],
            })
            .collect(),
        workload: ycsb(YcsbMix::UpdateOnly, 1000, 0.0, 1),
        driver: DriverConfig {
            transactions: txns,
            offered_tps: 1_000.0,
            window_us: Some((span / 12).max(1)),
            ..DriverConfig::default()
        },
        sweep: Sweep::Fault(chaos01_fault_rows(span)),
        row_labels: None,
        faults: None,
        seed,
    };
    scenario.plan()
}

/// The think time of the closed-loop experiment (µs).
pub const CLOSED01_THINK_US: u64 = 500;

/// The client counts the closed-loop experiment sweeps.
pub const CLOSED01_CLIENTS: [u64; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Closed 1 plan: the closed-loop latency/throughput knee on etcd. Each row
/// adds clients (one request in flight each, 500 µs mean think time):
/// throughput first scales with the population — Little's law,
/// `tps ≈ clients / (think + latency)` — then the apply pipeline saturates
/// and extra clients only add queueing latency. The `lat_ms` column is the
/// knee's witness; `cycle_ms` (think + latency) makes the Little's-law check
/// a one-division affair on the report.
pub fn closed01_plan(txns: u64, seed: u64) -> ExperimentPlan {
    let scenario = Scenario {
        id: "Closed 1",
        title: "etcd closed-loop knee: throughput and latency vs clients",
        systems: vec![SystemEntry {
            spec: SystemSpec::new(SystemKind::Etcd),
            columns: vec![
                col("tps", Metric::ThroughputTps),
                col("lat_ms", Metric::LatencyMeanMs),
            ],
        }],
        workload: ycsb(YcsbMix::UpdateOnly, 1000, 0.0, 1),
        driver: DriverConfig {
            transactions: txns,
            arrival: Some(ArrivalSpec::ClosedLoop {
                clients: 1,
                think_time_us: CLOSED01_THINK_US,
                max_outstanding: 1,
            }),
            ..DriverConfig::default()
        },
        sweep: Sweep::ClosedClients(CLOSED01_CLIENTS.to_vec()),
        row_labels: None,
        faults: None,
        seed,
    };
    scenario.plan()
}

/// The think time of the engine-scale experiment (µs): one simulated second
/// per client, so each client offers ~1 tps and the Little's-law knee sits
/// between the middle and top rows of [`SCALE01_CLIENTS`].
pub const SCALE01_THINK_US: u64 = 1_000_000;

/// The window width of the engine-scale experiment's streaming series (µs).
pub const SCALE01_WINDOW_US: u64 = 250_000;

/// The client populations the engine-scale experiment sweeps in full mode.
/// The top row is the point of the experiment: one million concurrent
/// closed-loop clients on a single event wheel.
pub const SCALE01_CLIENTS: [u64; 3] = [64, 8_192, 1_000_000];

/// Scale 1 plan: the closed-loop knee at engine scale. The same Little's-law
/// shape as Closed 1 — `tps ≈ clients / (think + latency)` until the apply
/// pipeline saturates — but driven across populations up to a million
/// clients with one-second think times, which only fits because the driver
/// runs [`MetricsMode::Streaming`]: receipts fold into per-window sketches
/// as they complete instead of accumulating O(transactions) vectors. Small
/// 64-byte records keep the in-flight arrival events lean at the top row.
pub fn scale01_plan(txns: u64, clients: &[u64], seed: u64) -> ExperimentPlan {
    let scenario = Scenario {
        id: "Scale 1",
        title: "etcd at engine scale: a million closed-loop clients, streaming metrics",
        systems: vec![SystemEntry {
            spec: SystemSpec::new(SystemKind::Etcd),
            columns: vec![
                col("tps", Metric::ThroughputTps),
                col("lat_ms", Metric::LatencyMeanMs),
            ],
        }],
        workload: ycsb(YcsbMix::UpdateOnly, 64, 0.0, 1),
        driver: DriverConfig {
            transactions: txns,
            arrival: Some(ArrivalSpec::ClosedLoop {
                clients: 1,
                think_time_us: SCALE01_THINK_US,
                max_outstanding: 1,
            }),
            window_us: Some(SCALE01_WINDOW_US),
            metrics: MetricsMode::Streaming,
            ..DriverConfig::default()
        },
        sweep: Sweep::ClosedClients(clients.to_vec()),
        row_labels: None,
        faults: None,
        seed,
    };
    scenario.plan()
}

/// The offered rates of the ramp experiment's three phases (tps).
pub const RAMP01_RATES: [f64; 3] = [200.0, 1_000.0, 8_000.0];

/// The per-phase duration (µs) that spends `txns` across the three ramp
/// phases at [`RAMP01_RATES`].
pub fn ramp01_phase_us(txns: u64) -> u64 {
    let total_rate: f64 = RAMP01_RATES.iter().sum();
    ((txns as f64 * 1e6) / total_rate).max(3.0) as u64
}

/// Ramp 1 plan: a phased open-loop ramp through Quorum's saturation point.
/// Three equal-duration phases step the offered rate 200 → 1 000 → 8 000 tps
/// against a fast-cutting small-block Quorum deployment (10 ms blocks, so
/// pipeline latency stays well inside a phase): the windowed series shows
/// offered and achieved load tracking each other in the first phase, then
/// diverging as the final phase saturates the pipeline and the windowed
/// latency inflects upward.
pub fn ramp01_plan(txns: u64, seed: u64) -> ExperimentPlan {
    let phase_us = ramp01_phase_us(txns);
    let scenario = Scenario {
        id: "Ramp 1",
        title: "Quorum under a phased open-loop ramp through saturation",
        systems: vec![SystemEntry {
            spec: SystemSpec::new(SystemKind::Quorum).with_blocks(25, 10_000),
            columns: vec![
                col("tps", Metric::ThroughputTps),
                col("lat_ms", Metric::LatencyMeanMs),
            ],
        }],
        workload: ycsb(YcsbMix::UpdateOnly, 1000, 0.0, 1),
        driver: DriverConfig {
            transactions: txns,
            arrival: Some(ArrivalSpec::Phased {
                phases: RAMP01_RATES
                    .iter()
                    .map(|&offered_tps| (phase_us, ArrivalSpec::OpenLoop { offered_tps }))
                    .collect(),
            }),
            // Four windows per phase, so the saturation inflection is
            // visible inside the series, not just across runs.
            window_us: Some((phase_us / 4).max(1)),
            ..DriverConfig::default()
        },
        sweep: Sweep::None,
        row_labels: None,
        faults: None,
        seed,
    };
    scenario.plan()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::run_plan;
    use dichotomy_common::rng::DEFAULT_SEED;

    #[test]
    fn fig04_preserves_the_papers_ordering() {
        let report = run_plan(&fig04_plan(400, DEFAULT_SEED));
        let quorum = report.value("Quorum", "update_tps").unwrap();
        let fabric = report.value("Fabric", "update_tps").unwrap();
        let tidb = report.value("TiDB", "update_tps").unwrap();
        let etcd = report.value("etcd", "update_tps").unwrap();
        assert!(fabric > quorum, "Fabric {fabric:.0} vs Quorum {quorum:.0}");
        assert!(tidb > fabric, "TiDB {tidb:.0} vs Fabric {fabric:.0}");
        assert!(etcd > tidb, "etcd {etcd:.0} vs TiDB {tidb:.0}");
        // Query throughput exceeds update throughput everywhere.
        for sys in ["Fabric", "Quorum", "TiDB", "etcd", "TiKV"] {
            assert!(
                report.value(sys, "query_tps").unwrap() > report.value(sys, "update_tps").unwrap(),
                "{sys}"
            );
        }
        // Rendering contains every system.
        let text = report.render();
        assert!(text.contains("Quorum") && text.contains("TiKV"));
    }

    #[test]
    fn fig05_blockchain_latency_exceeds_database_latency() {
        let report = run_plan(&fig05_plan(60, DEFAULT_SEED));
        let fabric = report.value("Fabric", "update_ms").unwrap();
        let quorum = report.value("Quorum", "update_ms").unwrap();
        let tidb = report.value("TiDB", "update_ms").unwrap();
        let etcd = report.value("etcd", "update_ms").unwrap();
        assert!(
            fabric > tidb && quorum > tidb,
            "fabric {fabric:.1} quorum {quorum:.1} tidb {tidb:.1}"
        );
        assert!(tidb < 100.0 && etcd < 100.0);
        // Queries are single-digit ms for blockchains, sub-ms for databases.
        assert!(
            report.value("Fabric", "query_ms").unwrap() > report.value("TiDB", "query_ms").unwrap()
        );
    }

    #[test]
    fn fig09_skew_collapses_tidb_but_not_etcd_or_quorum() {
        let report = run_plan(&fig09_plan(400, &[0.0, 1.0], DEFAULT_SEED));
        let tidb_uniform = report.value("theta=0.0", "TiDB_tps").unwrap();
        let tidb_skewed = report.value("theta=1.0", "TiDB_tps").unwrap();
        assert!(
            tidb_skewed < tidb_uniform * 0.6,
            "TiDB {tidb_uniform:.0} -> {tidb_skewed:.0}"
        );
        let etcd_uniform = report.value("theta=0.0", "etcd_tps").unwrap();
        let etcd_skewed = report.value("theta=1.0", "etcd_tps").unwrap();
        assert!(etcd_skewed > etcd_uniform * 0.7);
        // Fabric aborts grow with skew.
        let fabric_aborts_uniform = report.value("theta=0.0", "Fabric_abort_%").unwrap();
        let fabric_aborts_skewed = report.value("theta=1.0", "Fabric_abort_%").unwrap();
        assert!(fabric_aborts_skewed > fabric_aborts_uniform);
    }

    #[test]
    fn fig13_mpt_overhead_dwarfs_mbt_overhead() {
        let report = run_plan(&fig13_plan(2_000, &[10, 1000]));
        for size in ["10 B", "1000 B"] {
            let mbt = report.value(size, "MBT_B/rec").unwrap();
            let mpt = report.value(size, "MPT_B/rec").unwrap();
            assert!(mpt > mbt + 500.0, "{size}: MBT {mbt:.0} vs MPT {mpt:.0}");
        }
    }

    #[test]
    fn fig15_report_covers_all_six_hybrids() {
        let report = run_plan(&fig15_plan());
        assert_eq!(report.rows.len(), 6);
        let veritas = report.value("Veritas", "forecast_tps").unwrap();
        let chainify = report.value("ChainifyDB", "forecast_tps").unwrap();
        assert!(veritas > chainify);
    }

    #[test]
    fn same_seed_reproduces_reports_different_seeds_may_differ() {
        // Same seed: rows agree bit for bit, across a plan that exercises
        // system, workload and driver seeds.
        let a = run_plan(&fig06_plan(120, 1234));
        let b = run_plan(&fig06_plan(120, 1234));
        assert_eq!(a.rows, b.rows);
        // A different seed changes the measured numbers (the structure —
        // labels and columns — is identical).
        let c = run_plan(&fig06_plan(120, 99));
        assert_eq!(
            a.rows.iter().map(|r| &r.label).collect::<Vec<_>>(),
            c.rows.iter().map(|r| &r.label).collect::<Vec<_>>()
        );
        assert_ne!(a.rows, c.rows, "different seeds should perturb the rows");
    }

    #[test]
    fn saturating_probes_report_a_nonempty_windowed_series() {
        // The Fabric peak-throughput probe of Figure 4: its report row must
        // carry windowed time-series data (one series per driving probe).
        let report = run_plan(&fig04_plan(200, DEFAULT_SEED));
        let fabric = report.rows.iter().find(|r| r.label == "Fabric").unwrap();
        assert_eq!(fabric.series.len(), 2, "update + query probes");
        assert!(
            fabric.series.iter().all(|s| !s.series.is_empty()),
            "saturation runs must produce windows"
        );
        assert!(fabric.series[0]
            .series
            .windows
            .iter()
            .any(|w| w.committed > 0));
    }

    #[test]
    fn fault01_shows_the_crash_dip_and_the_recovery_in_the_windows() {
        let txns = 600;
        let report = run_plan(&fault01_plan(txns, DEFAULT_SEED));
        assert!(report.value("etcd", "tps").unwrap() > 0.0);
        let series = &report.rows[0].series[0].series;
        assert!(!series.is_empty());
        let span = fault01_span_us(txns);
        let (crash_from, crash_until) = (span / 3, 2 * span / 3);
        let before = series.window_at(crash_from / 2).unwrap();
        let during = series.window_at((crash_from + crash_until) / 2).unwrap();
        assert!(before.committed > 0, "healthy windows commit");
        assert_eq!(during.committed, 0, "mid-crash window must stall");
        // Recovery: once the crash heals (plus failover), the stalled backlog
        // bursts through — some post-heal window beats the pre-crash rate.
        let recovered = series
            .windows
            .iter()
            .filter(|w| w.start_us >= crash_until)
            .map(|w| w.committed)
            .max()
            .unwrap_or(0);
        assert!(
            recovered > before.committed,
            "post-heal burst {recovered} should exceed pre-crash {}",
            before.committed
        );
    }

    #[test]
    fn plans_are_data_probe_counts_match_the_grids() {
        assert_eq!(fig04_plan(10, 1).probe_count(), 10); // 5 systems × 2 workloads
        assert_eq!(fig07_plan(10, 1).probe_count(), 8); // 4 f-values × 2 protocols
        assert_eq!(fig09_plan(10, &[0.0, 1.0], 1).probe_count(), 8); // 2 thetas × 4 systems
        assert_eq!(tab04_plan(10, &[3, 7], 1).probe_count(), 8); // 4 systems × 2 node counts
        assert_eq!(tab02_plan().probe_count(), 0);
        assert_eq!(closed01_plan(10, 1).probe_count(), CLOSED01_CLIENTS.len());
        assert_eq!(ramp01_plan(10, 1).probe_count(), 1);
        assert_eq!(chaos01_plan(10, 1).probe_count(), 42); // 6 fault rows × 7 models
    }

    #[test]
    fn chaos01_rows_are_the_fault_schedules_and_cells_carry_each_plan() {
        let plan = chaos01_plan(50, 1);
        let labels: Vec<_> = plan.rows.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(
            labels,
            vec![
                "baseline",
                "primary-crash",
                "shard-crash",
                "failover",
                "partition",
                "reconfig"
            ]
        );
        // Every cell of a fault row carries that row's schedule; the
        // baseline row carries an empty one.
        for row in &plan.rows {
            for run in &row.runs {
                let Probe::Drive { system, .. } = &run.probe else {
                    panic!("chaos cells are drive probes");
                };
                let faults = system.faults.as_ref().expect("fault axis always sets one");
                assert_eq!(faults.is_empty(), row.label == "baseline", "{}", row.label);
            }
        }
    }

    #[test]
    fn chaos01_passes_every_oracle_and_shows_dip_and_recovery() {
        let txns = 420;
        let report = run_plan(&chaos01_plan(txns, DEFAULT_SEED));
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        // Every cell of the grid reports the full oracle battery, passing.
        for row in &report.rows {
            assert_eq!(row.series.len(), SystemKind::ALL.len(), "{}", row.label);
            for s in &row.series {
                assert_eq!(s.oracles.outcomes.len(), 4, "{} / {}", row.label, s.name);
                assert!(
                    s.oracles.passed(),
                    "{} / {}: {:?}",
                    row.label,
                    s.name,
                    s.oracles
                );
            }
        }
        // The dip/recovery signature on the etcd × primary-crash cell: a
        // healthy window before the crash, a stalled window inside it, and a
        // post-heal backlog burst beating the pre-crash rate.
        let span = chaos01_span_us(txns);
        let crash_row = report
            .rows
            .iter()
            .find(|r| r.label == "primary-crash")
            .unwrap();
        let etcd = crash_row.series.iter().find(|s| s.name == "etcd").unwrap();
        let before = etcd.series.window_at(span / 6).unwrap();
        let during = etcd.series.window_at(span / 2).unwrap();
        assert!(before.committed > 0, "pre-crash windows commit");
        assert_eq!(during.committed, 0, "mid-crash window must stall");
        let recovered = etcd
            .series
            .windows
            .iter()
            .filter(|w| w.start_us >= 2 * span / 3)
            .map(|w| w.committed)
            .max()
            .unwrap_or(0);
        assert!(
            recovered > before.committed,
            "post-heal burst {recovered} should exceed pre-crash {}",
            before.committed
        );
        // The baseline row has no dip anywhere near the crash window.
        let baseline = report.rows.iter().find(|r| r.label == "baseline").unwrap();
        let etcd_base = baseline.series.iter().find(|s| s.name == "etcd").unwrap();
        assert!(etcd_base.series.window_at(span / 2).unwrap().committed > 0);
    }

    #[test]
    fn closed01_obeys_littles_law_and_shows_the_latency_knee() {
        let report = run_plan(&closed01_plan(1_200, DEFAULT_SEED));
        let think_s = CLOSED01_THINK_US as f64 / 1e6;
        for clients in CLOSED01_CLIENTS {
            let row = format!("{clients} clients");
            let tps = report.value(&row, "tps").unwrap();
            let latency_s = report.value(&row, "lat_ms").unwrap() / 1e3;
            // Little's law for a closed system: the measured throughput must
            // match clients / (think + latency). Finite-run transients (the
            // first think pause, the final drain) bound the tolerance.
            let predicted = clients as f64 / (think_s + latency_s);
            let ratio = tps / predicted;
            assert!(
                (0.75..=1.25).contains(&ratio),
                "{row}: tps {tps:.0} vs Little's-law {predicted:.0} (ratio {ratio:.2})"
            );
        }
        // The knee: throughput keeps (weakly) growing with the population...
        let tps_at = |c: u64| report.value(&format!("{c} clients"), "tps").unwrap();
        let lat_at = |c: u64| report.value(&format!("{c} clients"), "lat_ms").unwrap();
        for pair in CLOSED01_CLIENTS.windows(2) {
            assert!(
                tps_at(pair[1]) > tps_at(pair[0]) * 0.9,
                "throughput collapsed between {} and {} clients",
                pair[0],
                pair[1]
            );
        }
        // ...but saturation makes the largest population pay visibly more
        // latency than a lone client, and its per-client rate collapses.
        assert!(
            lat_at(64) > lat_at(1) * 2.0,
            "no knee: lat(64)={} vs lat(1)={}",
            lat_at(64),
            lat_at(1)
        );
        assert!(
            tps_at(64) < 64.0 * tps_at(1) * 0.7,
            "64 clients should be past the linear-scaling regime"
        );
    }

    #[test]
    fn ramp01_crosses_saturation_inside_the_windowed_series() {
        let txns = 600;
        let report = run_plan(&ramp01_plan(txns, DEFAULT_SEED));
        assert_eq!(report.rows.len(), 1);
        assert!(report.failures.is_empty());
        let series = &report.rows[0].series[0].series;
        let phase_us = ramp01_phase_us(txns);
        // Offered load tracks the configured phase rates: the mid-window of
        // each phase must carry roughly its rate.
        let offered_mid = |phase: u64| {
            series
                .window_at(phase * phase_us + phase_us / 2)
                .map(|w| w.offered_tps)
                .unwrap_or(0.0)
        };
        assert!(
            offered_mid(2) > offered_mid(0) * 5.0,
            "the ramp must be visible in the offered series: {} vs {}",
            offered_mid(0),
            offered_mid(2)
        );
        // Phase 1 is unsaturated: achieved ≈ offered over the whole phase.
        let phase_totals = |phase: u64| {
            let (from, to) = (phase * phase_us, (phase + 1) * phase_us);
            series
                .windows
                .iter()
                .filter(|w| w.start_us >= from && w.end_us <= to)
                .fold((0u64, 0u64), |(s, c), w| (s + w.submitted, c + w.committed))
        };
        let (submitted_1, committed_1) = phase_totals(0);
        assert!(submitted_1 > 0);
        assert!(
            committed_1 as f64 >= submitted_1 as f64 * 0.5,
            "phase 1 should keep up: {committed_1}/{submitted_1}"
        );
        // Phase 3 saturates: offered outruns achieved while arrivals flow.
        let (submitted_3, committed_3) = phase_totals(2);
        assert!(
            submitted_3 > committed_3 * 2,
            "phase 3 should backlog: {committed_3}/{submitted_3}"
        );
        // The latency inflection: windowed p50 late in the ramp dwarfs the
        // unsaturated start.
        let early_p50 = series
            .windows
            .iter()
            .filter(|w| w.end_us <= phase_us && w.committed > 0)
            .map(|w| w.latency.p50_us)
            .max()
            .unwrap_or(0);
        let late_p50 = series
            .windows
            .iter()
            .filter(|w| w.start_us >= 2 * phase_us && w.committed > 0)
            .map(|w| w.latency.p50_us)
            .max()
            .unwrap_or(0);
        assert!(early_p50 > 0, "phase 1 must commit inside its windows");
        assert!(
            late_p50 > early_p50 * 3,
            "saturation must inflect the windowed latency: {early_p50} → {late_p50}"
        );
        // The scalar columns exist too.
        assert!(report.rows[0]
            .values
            .iter()
            .any(|(c, v)| c == "tps" && *v > 0.0));
    }
}
