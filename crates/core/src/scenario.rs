//! The Scenario API: experiments as data.
//!
//! The paper's evaluation is a grid of measurements over a small design
//! space: pick systems ([`SystemSpec`]), pick a workload ([`WorkloadSpec`]),
//! pick a driver regime ([`DriverConfig`]), vary one axis ([`Sweep`]), read a
//! handful of metrics off every run. This module captures that shape
//! declaratively:
//!
//! * a [`Scenario`] is the `{systems, workload, driver, sweep}` description;
//!   [`Scenario::plan`] expands it into an [`ExperimentPlan`]. The sweep
//!   axes are the ones the experiments vary: θ, operations per transaction,
//!   record size, shards, closed-loop clients and fault schedules;
//! * an [`ExperimentPlan`] is the fully elaborated grid — labelled rows of
//!   [`Probe`]s with the columns each probe reports — and is what the one
//!   generic engine, [`run_plan`], executes;
//! * every `figNN_*`/`tabNN_*` function in [`crate::experiments`] is now a
//!   small plan constructor; none of them contains a measurement loop.
//!
//! New experiments therefore cost one spec: compose a `SystemSpec` (any
//! point in the taxonomy the registry can build), name a workload, choose a
//! sweep, and hand the plan to `run_plan` — or to the `repro` binary, which
//! can serialize any report as JSON.
//!
//! ```
//! use dichotomy_core::scenario::{ColumnSpec, Metric, Scenario, Sweep, SystemEntry, run_plan};
//! use dichotomy_core::driver::DriverConfig;
//! use dichotomy_systems::{SystemKind, SystemSpec};
//! use dichotomy_workload::{WorkloadSpec, YcsbMix};
//!
//! let scenario = Scenario {
//!     id: "Ad hoc",
//!     title: "etcd update throughput vs skew",
//!     systems: vec![SystemEntry {
//!         spec: SystemSpec::new(SystemKind::Etcd),
//!         columns: vec![ColumnSpec::new("tps", Metric::ThroughputTps)],
//!     }],
//!     workload: WorkloadSpec::ycsb(YcsbMix::UpdateOnly).with_records(1_000),
//!     driver: DriverConfig::saturating(200),
//!     sweep: Sweep::Theta(vec![0.0, 0.9]),
//!     row_labels: None,
//!     faults: None,
//!     seed: 7,
//! };
//! let report = run_plan(&scenario.plan());
//! assert_eq!(report.rows.len(), 2);
//! ```
//!
//! This file is the plan as data; `probe` (one probe's keys, cache trait and
//! execution) and `pool` (the executor) are private, re-exported here.

mod pool;
mod probe;
#[cfg(test)]
mod tests;

use dichotomy_common::{codec, AbortReason, Diagnostic};
use dichotomy_simnet::FaultPlan;
use dichotomy_systems::SystemSpec;
use dichotomy_workload::WorkloadSpec;

pub use pool::{
    lpt_order, panic_text, run_plan, run_plan_with, run_plans_with, ExecOptions, PlanOutcome,
    ProbeCalibration, ProbeStatus,
};
pub use probe::{
    fnv1a_64, predicted_probe_cost, probe_key_bytes, state_group_key, ProbeCache, ProbeResult,
};

use crate::driver::{ArrivalSpec, DriverConfig};

/// What one column reads off an executed probe.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// Committed transactions per second of simulated time.
    ThroughputTps,
    /// Aborts as a percentage of finished transactions.
    AbortPercent,
    /// Aborts attributed to one reason, as a percentage of finished
    /// transactions.
    AbortSharePercent(AbortReason),
    /// Mean commit latency in milliseconds.
    LatencyMeanMs,
    /// 99th-percentile commit latency in milliseconds (the explorer's tail
    /// axis; order-statistic under `MetricsMode::Exact`, P² estimate under
    /// `MetricsMode::Streaming`).
    LatencyP99Ms,
    /// Mean latency of one named pipeline phase, in milliseconds.
    PhaseMeanMs(&'static str),
    /// Mean latency of one named pipeline phase, in microseconds.
    PhaseMeanUs(&'static str),
    /// State bytes (payload + index) per driven record.
    StateBytesPerRecord,
    /// History bytes (ledger blocks, WAL, old versions) per driven record.
    HistoryBytesPerRecord,
    /// Total storage bytes per driven record.
    TotalBytesPerRecord,
    /// A probe-computed named value (non-driving probes).
    Extra(&'static str),
}

/// One named column of a report row.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSpec {
    /// Column name, exactly as rendered.
    pub name: String,
    /// What to extract.
    pub metric: Metric,
}

impl ColumnSpec {
    /// A column reading `metric` under `name`.
    pub fn new(name: impl Into<String>, metric: Metric) -> Self {
        ColumnSpec {
            name: name.into(),
            metric,
        }
    }
}

/// One measurement a plan schedules.
#[derive(Debug, Clone)]
#[expect(
    clippy::large_enum_variant,
    reason = "`Drive` dominates the size, but probes are plan data built once per cell, not a hot type"
)]
pub enum Probe {
    /// Build the system, build the workload, drive it, read metrics and the
    /// storage footprint.
    Drive {
        /// The system under test.
        system: SystemSpec,
        /// The workload description.
        workload: WorkloadSpec,
        /// The driver regime.
        driver: DriverConfig,
    },
    /// Populate the two authenticated indexes (MBT vs MPT) and report their
    /// per-record storage (Figure 13). Extras: `mbt_b_per_rec`,
    /// `mpt_b_per_rec`.
    AdrOverhead {
        /// Records inserted into each index.
        records: u64,
        /// Value size per record.
        record_size: usize,
    },
    /// The Section 5.6 forecast for a Table 2 profile. Extras: `band`,
    /// `forecast_tps`, `reported_tps`.
    Forecast {
        /// Profile name as it appears in `dichotomy_hybrid::all_systems`.
        profile: &'static str,
    },
}
codec!(Encode for enum Probe {
    Drive { system, workload, driver } = 0,
    AdrOverhead { records, record_size } = 1,
    Forecast { profile } = 2,
});

impl Probe {
    /// Short label identifying the probe in progress lines and failures.
    pub fn label(&self) -> String {
        match self {
            Probe::Drive { system, .. } => system.label(),
            Probe::AdrOverhead { .. } => "adr-overhead".to_string(),
            Probe::Forecast { profile } => format!("forecast {profile}"),
        }
    }
}

/// A probe plus the columns it contributes to its row.
#[derive(Debug, Clone)]
pub struct PlannedRun {
    /// The measurement.
    pub probe: Probe,
    /// The columns read off it, in rendering order.
    pub columns: Vec<ColumnSpec>,
}

/// One labelled report row: the concatenated columns of its runs.
#[derive(Debug, Clone)]
pub struct PlannedRow {
    /// Row label, exactly as rendered.
    pub label: String,
    /// The measurements backing the row.
    pub runs: Vec<PlannedRun>,
}

/// A fully elaborated experiment: what [`run_plan`] executes.
#[derive(Debug, Clone)]
pub struct ExperimentPlan {
    /// Report id ("Figure 4", ...).
    pub id: &'static str,
    /// Report title.
    pub title: &'static str,
    /// The measurement grid.
    pub rows: Vec<PlannedRow>,
    /// Pre-rendered text for qualitative experiments (Table 2); rendered
    /// verbatim instead of the row grid when present.
    pub text: Option<String>,
    /// Findings produced while expanding the plan (fault-schedule
    /// sanitization: `S001`/`S002`), with their plan locus attached. They
    /// are surfaced on stderr at expansion time and re-read by `repro lint`;
    /// reports and their JSON never include them, so stdout stays
    /// byte-identical whether or not anything was flagged.
    pub diagnostics: Vec<Diagnostic>,
}

impl ExperimentPlan {
    /// Number of probes the plan schedules.
    pub fn probe_count(&self) -> usize {
        self.rows.iter().map(|r| r.runs.len()).sum()
    }
}

/// The axis a [`Scenario`] varies — one knob, many points.
#[derive(Debug, Clone)]
pub enum Sweep {
    /// No sweep: one row per system.
    None,
    /// Zipfian skew θ.
    Theta(Vec<f64>),
    /// Operations per transaction; when `payload_bytes` is set the record
    /// size shrinks so the total transaction payload stays constant
    /// (Figure 10's axis).
    OpsPerTxn {
        /// The operation counts.
        counts: Vec<usize>,
        /// Total transaction payload to hold constant, if any.
        payload_bytes: Option<usize>,
    },
    /// Record (value) size in bytes.
    RecordSize(Vec<usize>),
    /// Shard count.
    Shards(Vec<u32>),
    /// Closed-loop client count (the driver's arrival spec must be
    /// [`ArrivalSpec::ClosedLoop`]).
    ClosedClients(Vec<u64>),
    /// Declarative fault schedules: one labelled [`FaultPlan`] per row, every
    /// system entry measured under every plan (the chaos grid's axis).
    Fault(Vec<(String, FaultPlan)>),
}

impl Sweep {
    /// Number of sweep points (0 for [`Sweep::None`]).
    pub fn len(&self) -> usize {
        match self {
            Sweep::None => 0,
            Sweep::Theta(v) => v.len(),
            Sweep::OpsPerTxn { counts, .. } => counts.len(),
            Sweep::RecordSize(v) => v.len(),
            Sweep::Shards(v) => v.len(),
            Sweep::ClosedClients(v) => v.len(),
            Sweep::Fault(v) => v.len(),
        }
    }

    /// Whether there are no sweep points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Default row label for point `i`.
    fn label(&self, i: usize) -> String {
        match self {
            Sweep::None => String::new(),
            Sweep::Theta(v) => format!("theta={:.1}", v[i]),
            Sweep::OpsPerTxn { counts, .. } => format!("{} ops/txn", counts[i]),
            Sweep::RecordSize(v) => format!("{} B", v[i]),
            Sweep::Shards(v) => format!("{} shards", v[i]),
            Sweep::ClosedClients(v) => format!("{} clients", v[i]),
            Sweep::Fault(v) => v[i].0.clone(),
        }
    }

    /// Apply point `i` to the components of one run.
    fn apply(
        &self,
        i: usize,
        spec: &mut SystemSpec,
        workload: &mut WorkloadSpec,
        driver: &mut DriverConfig,
    ) {
        match self {
            Sweep::None => {}
            Sweep::Theta(v) => *workload = workload.clone().with_theta(v[i]),
            Sweep::OpsPerTxn {
                counts,
                payload_bytes,
            } => {
                let ops = counts[i].max(1);
                *workload = workload.clone().with_ops_per_txn(ops);
                if let Some(total) = payload_bytes {
                    *workload = workload.clone().with_record_size(total / ops);
                }
            }
            Sweep::RecordSize(v) => *workload = workload.clone().with_record_size(v[i]),
            Sweep::Shards(v) => spec.shards = Some(v[i]),
            Sweep::ClosedClients(v) => match &mut driver.arrival {
                ArrivalSpec::ClosedLoop { clients, .. } => *clients = v[i],
                other => {
                    panic!("Sweep::ClosedClients needs a ClosedLoop arrival spec, got {other:?}")
                }
            },
            // The fault axis overrides whatever schedule the entry carried:
            // every system runs under the row's plan, baseline rows included.
            Sweep::Fault(v) => spec.faults = Some(v[i].1.clone()),
        }
    }
}

/// One system's role in a scenario: its spec and the columns its runs
/// contribute to every row.
#[derive(Debug, Clone)]
pub struct SystemEntry {
    /// The system under test.
    pub spec: SystemSpec,
    /// Columns read off each of its runs.
    pub columns: Vec<ColumnSpec>,
}

/// A declarative experiment: systems × workload × driver × sweep.
///
/// With a sweep, rows are sweep points and every system runs at every point;
/// without one, rows are the systems themselves. The scenario's `seed` is
/// threaded into every component, so two plans expanded from the same
/// scenario reproduce bit for bit and a different seed legitimately differs.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Report id.
    pub id: &'static str,
    /// Report title.
    pub title: &'static str,
    /// The systems under test, with their report columns.
    pub systems: Vec<SystemEntry>,
    /// The workload every run draws from.
    pub workload: WorkloadSpec,
    /// The driver regime.
    pub driver: DriverConfig,
    /// The varied axis.
    pub sweep: Sweep,
    /// Row label overrides (must match the number of rows when set).
    pub row_labels: Option<Vec<String>>,
    /// Fault schedule injected into every system that does not carry its
    /// own — crash/partition experiments as declarative plans.
    pub faults: Option<FaultPlan>,
    /// RNG seed threaded through systems, workload and driver.
    pub seed: u64,
}

impl Scenario {
    /// Expand into the fully elaborated grid.
    ///
    /// [`Sweep::None`] means "no axis": one row per system. A sweep *with an
    /// axis but zero points* (e.g. `Sweep::Theta(vec![])`) means "measure at
    /// zero points" and legitimately expands to a zero-row plan, which
    /// [`run_plan`] executes into an empty report instead of panicking.
    pub fn plan(&self) -> ExperimentPlan {
        let sweepless = matches!(self.sweep, Sweep::None);
        if let Some(labels) = &self.row_labels {
            let expected = if sweepless {
                self.systems.len()
            } else {
                self.sweep.len()
            };
            assert_eq!(
                labels.len(),
                expected,
                "scenario '{}': row_labels has {} entries but the plan has {} rows",
                self.id,
                labels.len(),
                expected
            );
        }
        let driver = self.driver.clone().with_seed(self.seed);
        let workload = self.workload.clone().with_seed(self.seed);
        let seeded_spec = |entry: &SystemEntry| {
            let mut spec = entry.spec.clone();
            if spec.seed.is_none() {
                spec.seed = Some(self.seed);
            }
            if spec.faults.is_none() {
                spec.faults = self.faults.clone();
            }
            spec
        };
        let rows = if sweepless {
            // One row per system.
            self.systems
                .iter()
                .enumerate()
                .map(|(i, entry)| PlannedRow {
                    label: self.row_label(i).unwrap_or_else(|| entry.spec.label()),
                    runs: vec![PlannedRun {
                        probe: Probe::Drive {
                            system: seeded_spec(entry),
                            workload: workload.clone(),
                            driver: driver.clone(),
                        },
                        columns: entry.columns.clone(),
                    }],
                })
                .collect()
        } else {
            // One row per sweep point, every system measured at each point.
            (0..self.sweep.len())
                .map(|i| PlannedRow {
                    label: self.row_label(i).unwrap_or_else(|| self.sweep.label(i)),
                    runs: self
                        .systems
                        .iter()
                        .map(|entry| {
                            let mut spec = seeded_spec(entry);
                            let mut wl = workload.clone();
                            let mut drv = driver.clone();
                            self.sweep.apply(i, &mut spec, &mut wl, &mut drv);
                            PlannedRun {
                                probe: Probe::Drive {
                                    system: spec,
                                    workload: wl,
                                    driver: drv,
                                },
                                columns: entry.columns.clone(),
                            }
                        })
                        .collect(),
                })
                .collect()
        };
        let mut plan = ExperimentPlan {
            id: self.id,
            title: self.title,
            rows,
            text: None,
            diagnostics: Vec::new(),
        };
        plan.diagnostics = sanitize_fault_plans(&mut plan);
        for diag in &plan.diagnostics {
            eprintln!("warning: {}", diag.render());
        }
        plan
    }

    fn row_label(&self, i: usize) -> Option<String> {
        self.row_labels.as_ref().map(|labels| labels[i].clone())
    }
}

/// The arrival horizon (µs) of one driving probe, when it is computable up
/// front: how long the driver keeps issuing arrivals. Closed loops pace on
/// measured latency, and a phased spec runs its final phase until the
/// transaction budget is spent, so their span is unknowable at expansion time
/// (`None` skips the horizon check). Public so the plan linter can compare
/// fault schedules and window widths against the same horizon the sanitizer
/// uses.
pub fn arrival_horizon_us(driver: &DriverConfig) -> Option<u64> {
    match driver.arrival {
        ArrivalSpec::OpenLoop { offered_tps } => (offered_tps > 0.0)
            .then(|| (driver.transactions as f64 / offered_tps * 1e6).ceil() as u64),
        ArrivalSpec::ClosedLoop { .. } | ArrivalSpec::Phased { .. } => None,
    }
}

/// Sanitize every probe's fault schedule in place: overlapping same-node
/// crash windows merge into one (`S002`), and faults scheduled at/after the
/// probe's arrival horizon — they could never dent the arrival stream — are
/// dropped (`S001`). Returns each adjustment as a structured [`Diagnostic`]
/// with its plan locus. [`Scenario::plan`] runs it on every expansion and
/// keeps the findings on `plan.diagnostics`; the plan linter runs it on a
/// clone, so a hand-built plan reports exactly what its expansion would.
pub(crate) fn sanitize_fault_plans(plan: &mut ExperimentPlan) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for row in &mut plan.rows {
        for run in &mut row.runs {
            let Probe::Drive { system, driver, .. } = &mut run.probe else {
                continue;
            };
            let Some(faults) = &system.faults else {
                continue;
            };
            if faults.is_empty() {
                continue;
            }
            let (sanitized, found) = faults.validate(arrival_horizon_us(driver));
            diags.extend(
                found
                    .into_iter()
                    .map(|d| d.at_plan(plan.id, row.label.clone(), system.label())),
            );
            system.faults = Some(sanitized);
        }
    }
    diags
}
