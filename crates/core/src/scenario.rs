//! The Scenario API: experiments as data.
//!
//! The paper's evaluation is a grid of measurements over a small design
//! space: pick systems ([`SystemSpec`]), pick a workload ([`WorkloadSpec`]),
//! pick a driver regime ([`DriverConfig`]), vary one axis ([`Sweep`]), read a
//! handful of metrics off every run. This module captures that shape
//! declaratively:
//!
//! * a [`Scenario`] is the `{systems, workload, driver, sweep}` description;
//!   [`Scenario::plan`] expands it into an [`ExperimentPlan`];
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

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

use dichotomy_common::size::{StorageBreakdown, StorageFootprint};
use dichotomy_common::{codec, AbortReason, Diagnostic, Encode, Hash, Key, Value};
use dichotomy_hybrid::{all_systems, forecast_throughput, forecast_txn_cost_us, HybridSpec};
use dichotomy_merkle::{MerkleBucketTree, MerklePatriciaTrie};
use dichotomy_simnet::{CostModel, FaultPlan, NetworkConfig};
use dichotomy_systems::{SharedState, SystemRegistry, SystemSpec};
use dichotomy_workload::WorkloadSpec;

use crate::driver::{drive, ArrivalSpec, DriverConfig};
use crate::experiments::{ExperimentReport, ProbeFailure, Row, RowSeries};
use crate::metrics::Metrics;

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
    /// Replica count.
    Nodes(Vec<usize>),
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
    /// Offered load in transactions per second.
    OfferedTps(Vec<f64>),
    /// Closed-loop client count (the driver's arrival spec must be
    /// [`ArrivalSpec::ClosedLoop`]).
    ClosedClients(Vec<u64>),
    /// Closed-loop mean think time in µs (the driver's arrival spec must be
    /// [`ArrivalSpec::ClosedLoop`]).
    ThinkTimeUs(Vec<u64>),
    /// Closed-loop outstanding-request cap (the driver's arrival spec must
    /// be [`ArrivalSpec::ClosedLoop`]).
    MaxOutstanding(Vec<u64>),
    /// Declarative fault schedules: one labelled [`FaultPlan`] per row, every
    /// system entry measured under every plan (the chaos grid's axis).
    Fault(Vec<(String, FaultPlan)>),
}

impl Sweep {
    /// Number of sweep points (0 for [`Sweep::None`]).
    pub fn len(&self) -> usize {
        match self {
            Sweep::None => 0,
            Sweep::Nodes(v) => v.len(),
            Sweep::Theta(v) => v.len(),
            Sweep::OpsPerTxn { counts, .. } => counts.len(),
            Sweep::RecordSize(v) => v.len(),
            Sweep::Shards(v) => v.len(),
            Sweep::OfferedTps(v) => v.len(),
            Sweep::ClosedClients(v) => v.len(),
            Sweep::ThinkTimeUs(v) => v.len(),
            Sweep::MaxOutstanding(v) => v.len(),
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
            Sweep::Nodes(v) => format!("{} nodes", v[i]),
            Sweep::Theta(v) => format!("theta={:.1}", v[i]),
            Sweep::OpsPerTxn { counts, .. } => format!("{} ops/txn", counts[i]),
            Sweep::RecordSize(v) => format!("{} B", v[i]),
            Sweep::Shards(v) => format!("{} shards", v[i]),
            Sweep::OfferedTps(v) => format!("{} tps", v[i]),
            Sweep::ClosedClients(v) => format!("{} clients", v[i]),
            Sweep::ThinkTimeUs(v) => format!("think={} µs", v[i]),
            Sweep::MaxOutstanding(v) => format!("outstanding={}", v[i]),
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
            Sweep::Nodes(v) => spec.nodes = Some(v[i]),
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
            Sweep::OfferedTps(v) => {
                driver.offered_tps = v[i];
                // An explicit open-loop spec tracks the sweep too; other
                // specs keep their own arrival parameters.
                if let Some(ArrivalSpec::OpenLoop { offered_tps }) = &mut driver.arrival {
                    *offered_tps = v[i];
                }
            }
            Sweep::ClosedClients(v) => match &mut driver.arrival {
                Some(ArrivalSpec::ClosedLoop { clients, .. }) => *clients = v[i],
                other => {
                    panic!("Sweep::ClosedClients needs a ClosedLoop arrival spec, got {other:?}")
                }
            },
            Sweep::ThinkTimeUs(v) => match &mut driver.arrival {
                Some(ArrivalSpec::ClosedLoop { think_time_us, .. }) => *think_time_us = v[i],
                other => {
                    panic!("Sweep::ThinkTimeUs needs a ClosedLoop arrival spec, got {other:?}")
                }
            },
            Sweep::MaxOutstanding(v) => match &mut driver.arrival {
                Some(ArrivalSpec::ClosedLoop {
                    max_outstanding, ..
                }) => *max_outstanding = v[i],
                other => {
                    panic!("Sweep::MaxOutstanding needs a ClosedLoop arrival spec, got {other:?}")
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
        sanitize_fault_plans(&mut plan);
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
    let open_loop_span = |offered_tps: f64| {
        (offered_tps > 0.0).then(|| (driver.transactions as f64 / offered_tps * 1e6).ceil() as u64)
    };
    match &driver.arrival {
        None => open_loop_span(driver.offered_tps),
        Some(ArrivalSpec::OpenLoop { offered_tps }) => open_loop_span(*offered_tps),
        Some(ArrivalSpec::ClosedLoop { .. })
        | Some(ArrivalSpec::Phased { .. })
        | Some(ArrivalSpec::Mixed { .. }) => None,
    }
}

/// Sanitize every probe's fault schedule at plan-expansion time (a chaos
/// satellite): overlapping same-node crash windows merge into one (`S002`),
/// and faults scheduled at/after the probe's arrival horizon — they could
/// never dent the arrival stream — are dropped (`S001`). Each adjustment is
/// recorded as a structured [`Diagnostic`] with its plan locus on
/// `plan.diagnostics` (where `repro lint` re-reads it) and rendered on
/// stderr; stdout (the report and its JSON) stays byte-identical.
fn sanitize_fault_plans(plan: &mut ExperimentPlan) {
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
            for diag in found {
                let diag = diag.at_plan(plan.id, row.label.clone(), system.label());
                eprintln!("warning: {}", diag.render());
                diags.push(diag);
            }
            system.faults = Some(sanitized);
        }
    }
    plan.diagnostics.extend(diags);
}

/// Everything a probe produced, before column extraction.
///
/// This is the unit of deduplication and caching: two probes with the same
/// [`probe_key_bytes`] share one `ProbeResult`, and a persistent
/// [`ProbeCache`] round-trips it through the in-repo binary codec
/// ([`Encode`]/[`Decode`](dichotomy_common::Decode)). Column extraction
/// ([`ColumnSpec`]) happens per report slot *after* the result exists, so
/// probes that differ only in the columns they read still share one
/// execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeResult {
    /// The run's aggregate metrics (driving probes; default otherwise).
    pub metrics: Metrics,
    /// The system's storage footprint after the run.
    pub footprint: StorageBreakdown,
    /// Records/transactions driven (denominator for per-record metrics).
    pub records: u64,
    /// Probe-computed named values ([`Metric::Extra`]), in insertion order.
    pub extras: Vec<(String, f64)>,
    /// Windowed time series (driving probes only), with the probe's label.
    pub series: Option<RowSeries>,
}
codec!(Encode + Decode for struct ProbeResult { metrics, footprint, records, extras, series });

/// The canonical content key of a probe: a tag byte plus the binary
/// encoding of every input that determines the probe's result — the full
/// [`SystemSpec`] (nodes, shards, consensus, block cutting, network, cost
/// model, fault schedule, seed, label), the [`WorkloadSpec`] knobs, and the
/// [`DriverConfig`] including its arrival spec and metrics mode. Two probes
/// with equal key bytes are the same measurement by construction; nothing
/// that can change the report is left out.
pub fn probe_key_bytes(probe: &Probe) -> Vec<u8> {
    probe.encode()
}

/// The **state group** of a probe: the canonical bytes of everything its
/// untimed preload can depend on — the system's
/// [`state_shape`](SystemSpec::state_shape) (what `load` may read of the
/// spec) and the workload's
/// [`initial_state_key`](WorkloadSpec::initial_state_key) (variant, record
/// count, record size; seed-free). Probes with equal keys start from
/// byte-identical loaded state, so [`run_plans_with`] loads it once per
/// batch and forks it. `None` for probes that load nothing (non-driving
/// probes, `preload: false`).
pub fn state_group_key(probe: &Probe) -> Option<Vec<u8>> {
    let Probe::Drive {
        system,
        workload,
        driver,
    } = probe
    else {
        return None;
    };
    if !driver.preload {
        return None;
    }
    let mut out = system.state_shape().encode();
    let (variant, records, record_size) = workload.initial_state_key();
    variant.encode_into(&mut out);
    records.encode_into(&mut out);
    record_size.encode_into(&mut out);
    Some(out)
}

/// 64-bit FNV-1a over a byte string (names cache entries; collisions are
/// guarded by comparing the full key bytes, never by trusting the hash).
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A persistent content-addressed store of probe results, keyed by the full
/// [`probe_key_bytes`]. Implementations must only return a result for an
/// exactly matching key (hash collisions, corruption and stale formats all
/// read as a miss, never as a wrong answer). `store` failures are silent —
/// a cache that cannot write still measures correctly.
pub trait ProbeCache: Sync {
    /// Look up the result of a previously executed probe.
    fn load(&self, key: &[u8]) -> Option<ProbeResult>;
    /// Record the result of a just-executed probe.
    fn store(&self, key: &[u8], result: &ProbeResult);
}

/// The scheduler's predicted relative cost of a probe (arbitrary wall-like
/// units: modeled microseconds of work, scaled). Driving probes use the
/// Section 5.6 forecast model — the system's taxonomy point priced by
/// [`forecast_txn_cost_us`] — times the transaction count and replica count;
/// when the forecast cannot price a point the fallback is the
/// `transactions × nodes` heuristic. Non-driving probes are near-free
/// constants. Used only to order the work queue longest-first; never part
/// of the report.
pub fn predicted_probe_cost(probe: &Probe) -> f64 {
    match probe {
        Probe::Drive {
            system,
            workload,
            driver,
        } => {
            let nodes = system.nodes.unwrap_or(4).max(1);
            let txns = driver.transactions.max(1) as f64;
            let taxonomy = system.taxonomy();
            let (record_size, ops) = match workload {
                WorkloadSpec::Ycsb(c) => (c.record_size, c.ops_per_txn.max(1)),
                // Smallbank procedures touch two accounts on average.
                WorkloadSpec::Smallbank(c) => (c.record_size, 2),
            };
            let spec = HybridSpec {
                name: system.label(),
                replication: taxonomy.replication,
                protocol: taxonomy.protocol,
                concurrency: taxonomy.concurrency,
                nodes,
                txn_bytes: (record_size * ops).max(1),
                batch_size: system.block_txns.unwrap_or(500).max(1),
            };
            let network = system
                .network
                .clone()
                .unwrap_or_else(NetworkConfig::lan_1gbps);
            let costs = system.costs.clone().unwrap_or_else(CostModel::calibrated);
            let per_txn_us = forecast_txn_cost_us(&spec, &network, &costs);
            let cost = txns * nodes as f64 * per_txn_us;
            if cost.is_finite() && cost > 0.0 {
                cost
            } else {
                txns * nodes as f64
            }
        }
        Probe::AdrOverhead { records, .. } => (*records).max(1) as f64,
        Probe::Forecast { .. } => 1.0,
    }
}

/// How [`run_plan_with`] executes a plan's probes.
///
/// Every probe drives its own engine + system pair (systems of one state
/// group start as forks of one loaded state, invisibly), so probes run on a
/// worker pool: results are reassembled in plan order and the report is
/// byte-identical to sequential execution for the same seed, whatever the
/// worker count.
#[derive(Clone, Copy, Default)]
pub struct ExecOptions<'a> {
    /// Worker threads. `0` (the default) resolves the `DICHOTOMY_JOBS`
    /// environment variable, falling back to
    /// [`std::thread::available_parallelism`]; `1` runs probes inline with
    /// no pool.
    pub jobs: usize,
    /// Invoked once per finished probe, in completion order, from the thread
    /// that called [`run_plan_with`] — live per-probe status for a CLI.
    pub progress: Option<&'a (dyn Fn(&ProbeStatus) + Sync)>,
    /// Stop starting new probes once one fails: probes already in flight
    /// finish, everything not yet started reports a labelled "skipped"
    /// failure with NaN columns instead of running. With more than one
    /// worker the skipped set depends on timing. `jobs = 1` is
    /// deterministic: batches run in order of their first probe and probes
    /// inside a batch in plan order (see [`run_plans_with`]), so the skipped
    /// slots are the failing probe's batch-mates after it in plan order plus
    /// every probe of every batch whose first probe comes after the failing
    /// batch's first — which can include slots *before* the failure in plan
    /// order, and never includes a batch-mate the failing batch already ran.
    pub fail_fast: bool,
    /// Persistent result cache consulted before executing each distinct
    /// probe and fed after each successful execution. `None` (the default)
    /// measures everything; in-run deduplication applies either way.
    pub cache: Option<&'a dyn ProbeCache>,
}

impl ExecOptions<'_> {
    /// Options with an explicit worker count and no progress callback.
    pub fn with_jobs(jobs: usize) -> Self {
        ExecOptions {
            jobs,
            progress: None,
            fail_fast: false,
            cache: None,
        }
    }

    /// The worker count this configuration resolves to.
    pub fn effective_jobs(&self) -> usize {
        if self.jobs > 0 {
            return self.jobs;
        }
        std::env::var("DICHOTOMY_JOBS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&j| j > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    }
}

/// Live status of one finished probe, delivered to [`ExecOptions::progress`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeStatus {
    /// Index of the plan the probe belongs to in the executed batch (always
    /// 0 for single-plan runs; [`run_plans_with`] batches share one pool
    /// across experiments).
    pub plan: usize,
    /// Plan-order index of the probe within its plan (stable across worker
    /// counts).
    pub index: usize,
    /// Total probes across the whole batch.
    pub total: usize,
    /// Probes finished so far across the batch, including this one
    /// (completion order).
    pub done: usize,
    /// Label of the row the probe contributes to.
    pub row: String,
    /// The probe's label.
    pub probe: String,
    /// The panic message, if the probe failed.
    pub error: Option<String>,
    /// Whether the result came from the persistent [`ProbeCache`].
    pub cached: bool,
    /// Whether this probe shared another identical probe's execution
    /// (in-run deduplication) instead of running itself.
    pub deduped: bool,
}

/// Best-effort text of a panic payload: `&str` and `String` payloads carry
/// their message through; anything else keeps a fixed marker (the caller
/// supplies the attribution — probe label, row, experiment id).
pub fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panicked (non-string payload)".to_string()
    }
}

// Plans cross thread boundaries wholesale (workers borrow them), so
// everything a plan carries must be Send + Sync. Compile-time audit; the
// system *models* themselves are exempt — each worker builds its own from
// the spec and never ships it anywhere.
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = {
    _assert_send_sync::<ExperimentPlan>();
    _assert_send_sync::<Probe>();
    _assert_send_sync::<SystemRegistry>();
};

/// Execute a plan with the built-in system registry and default execution
/// options (worker count from `DICHOTOMY_JOBS` / available parallelism).
pub fn run_plan(plan: &ExperimentPlan) -> ExperimentReport {
    run_plan_with(
        plan,
        &SystemRegistry::with_builtins(),
        &ExecOptions::default(),
    )
}

/// One probe's result, before reassembly into rows.
struct ProbeOutcome {
    values: Vec<(String, f64)>,
    series: Option<RowSeries>,
    error: Option<String>,
    /// Wall-clock milliseconds spent executing the probe (0 for skipped
    /// probes). Feeds [`PlanOutcome::probe_wall_ms`] and the calibration
    /// records; never part of the deterministic report itself.
    wall_ms: f64,
}

/// A probe flattened out of the row grid, with the labels that attribute it.
struct FlatProbe<'p> {
    /// Index of the owning plan in the executed batch.
    plan: usize,
    /// Plan-order probe index within that plan.
    index: usize,
    run: &'p PlannedRun,
    row_label: &'p str,
    probe_label: String,
}

/// Predicted-vs-actual wall for one executed probe: the forecast
/// calibration datum the `benchmark/` harness reads per plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeCalibration {
    /// The probe's label.
    pub probe: String,
    /// The scheduler's [`predicted_probe_cost`] (modeled µs of work).
    pub predicted: f64,
    /// Measured wall-clock milliseconds of the actual execution.
    pub wall_ms: f64,
}

/// One plan's result from a (possibly batched) execution.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanOutcome {
    /// The deterministic report.
    pub report: ExperimentReport,
    /// Summed wall-clock milliseconds the pool's workers spent inside this
    /// plan's probes (probes of different plans overlap on a shared pool, so
    /// this is worker time, not elapsed time).
    pub probe_wall_ms: f64,
    /// Probes the plan scheduled.
    pub probes: usize,
    /// Distinct probe keys whose representative slot lives in this plan
    /// (summed over a batch this counts every executed-or-cached key once).
    pub distinct_probes: usize,
    /// Distinct keys answered from the persistent [`ProbeCache`].
    pub cache_hits: usize,
    /// Wall-clock milliseconds in-run deduplication saved this plan: the
    /// representative's measured wall, once per duplicate slot.
    pub dedup_saved_ms: f64,
    /// Predicted-vs-actual wall per actually executed probe (cache hits and
    /// failures carry no calibration signal), in completion order.
    pub calibration: Vec<ProbeCalibration>,
}

/// Execute a plan, building systems through `registry`, on a worker pool of
/// `options.effective_jobs()` threads (a channel-fed queue of probe indexes;
/// rows are reassembled in plan order, so output does not depend on the
/// worker count).
///
/// Each probe runs under its own panic boundary: a panicking probe — unknown
/// profile, unregistered builder, a model bug — reports NaN for its columns
/// plus a labelled [`ProbeFailure`], and every other probe still completes.
pub fn run_plan_with(
    plan: &ExperimentPlan,
    registry: &SystemRegistry,
    options: &ExecOptions,
) -> ExperimentReport {
    run_plans_with(&[plan], registry, options)
        .pop()
        .expect("one plan in, one report out")
        .report
}

/// Message given to every probe slot skipped by fail-fast queue draining.
const SKIPPED_MESSAGE: &str = "skipped: an earlier probe failed (fail-fast)";

/// Longest-predicted-first (LPT) schedule: indexes of `costs` sorted by
/// descending cost, ties broken by position. On a greedy worker pool this
/// keeps the expensive stragglers off the queue's tail, shrinking the
/// makespan versus arrival order (classic LPT list scheduling).
pub fn lpt_order(costs: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by(|&a, &b| {
        costs[b]
            .partial_cmp(&costs[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.cmp(&b))
    });
    order
}

/// A unit of actual work: one distinct probe key, the flat slots that share
/// its result (first slot is the representative that defines it), and the
/// scheduler's predicted cost.
struct WorkItem {
    key: Vec<u8>,
    slots: Vec<usize>,
    cost: f64,
}

/// A unit of scheduling: work items one worker executes back to back, in
/// plan order, on forks of one loaded state (or a single item that loads
/// nothing).
#[derive(Debug, PartialEq)]
struct Batch {
    items: Vec<usize>,
    cost: f64,
}

/// What the first executed probe of a batch leaves for the later ones,
/// owned by the worker running the batch and dropped with it.
enum GroupState {
    /// The first system's frozen substrates: later systems adopt forks.
    Shared(SharedState),
    /// The model does not share (`TransactionalSystem::share_state`'s
    /// default): later systems are loaded from the same initial records.
    Records(Vec<(Key, Value)>),
}

/// What one work item produced, fanned out to every slot by the collector.
struct ItemOutcome {
    result: Result<ProbeResult, String>,
    wall_ms: f64,
    cache_hit: bool,
}

/// Per-plan throughput-layer accounting, accumulated by the collector.
#[derive(Default)]
struct PlanAccounting {
    distinct: usize,
    cache_hits: usize,
    dedup_saved_ms: f64,
    calibration: Vec<ProbeCalibration>,
}

/// Partition work items (given as `(state group, predicted cost)` in
/// first-occurrence order) into [`Batch`]es for `jobs` workers.
///
/// Items of one state group form one batch, so the group's state is loaded
/// once; items without a group are batches of their own. A group predicted
/// to cost more than a worker's fair share (`total / jobs`) would serialize
/// the pool behind one worker, so it is split into ⌈cost / fair share⌉
/// batches (each loading its own copy), items dealt in plan order to the
/// lightest batch so far. Batches come back ordered by first item; with one
/// worker nothing is ever split. Splitting adds at most `jobs` batches in
/// total, since the shares sum to the whole.
fn plan_batches(items: &[(Option<Vec<u8>>, f64)], jobs: usize) -> Vec<Batch> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut group_of_key: BTreeMap<&[u8], usize> = BTreeMap::new();
    for (index, (key, _)) in items.iter().enumerate() {
        let group = match key {
            Some(key) => *group_of_key.entry(key).or_insert(groups.len()),
            None => groups.len(),
        };
        if group == groups.len() {
            groups.push(Vec::new());
        }
        groups[group].push(index);
    }
    let fair_share = items.iter().map(|(_, cost)| cost).sum::<f64>() / jobs.max(1) as f64;
    let mut batches = Vec::new();
    for members in groups {
        let cost: f64 = members.iter().map(|&i| items[i].1).sum();
        let parts = if cost > fair_share && fair_share > 0.0 {
            ((cost / fair_share).ceil() as usize).min(members.len())
        } else {
            1
        };
        let mut split: Vec<Batch> = (0..parts)
            .map(|_| Batch {
                items: Vec::new(),
                cost: 0.0,
            })
            .collect();
        for index in members {
            let lightest = split
                .iter_mut()
                .min_by(|a, b| a.cost.total_cmp(&b.cost))
                .expect("parts >= 1");
            lightest.items.push(index);
            lightest.cost += items[index].1;
        }
        batches.extend(split);
    }
    batches
}

/// Execute several plans on **one shared worker pool**: the probes of every
/// plan go into a single queue, so workers stay busy across experiment
/// boundaries instead of draining at each experiment's tail (`repro all`
/// goes through this). Reports come back in plan order and are byte-identical
/// to running each plan alone with the same seed, whatever the worker count.
///
/// The queue is **deduplicated, grouped and scheduled** before anything runs:
///
/// 1. every probe is keyed by [`probe_key_bytes`]; slots with equal keys
///    collapse into one `WorkItem` executed once, its [`ProbeResult`]
///    fanned out to every slot (column extraction stays per slot, so the
///    reports are byte-identical to executing each slot separately);
/// 2. work items are batched by [`state_group_key`]: one worker runs a
///    batch's items in plan order, generates the workload's initial records
///    once, loads the first system, and starts every later system as a fork
///    of that loaded state (`TransactionalSystem::share_state` /
///    `adopt_state`; a model that does not share is loaded from the same
///    records instead). The state is owned by the batch and dropped with it.
///    A group costlier than a worker's fair share is split (`plan_batches`);
/// 3. with a cache configured ([`ExecOptions::cache`]), each distinct item
///    is answered from the cache when possible and stored after executing;
///    a batch whose items all hit never builds its state;
/// 4. with more than one worker the batch queue is ordered
///    longest-predicted-first (summed [`predicted_probe_cost`]) to shrink
///    the pool's makespan; one worker keeps first-occurrence order so
///    fail-fast skips stay deterministic ([`ExecOptions::fail_fast`]).
///
/// A probe's measured wall ([`ProbeCalibration::wall_ms`]) covers whatever
/// it executed: the first executed probe of a batch pays the record
/// generation and the load, its batch-mates only a fork.
pub fn run_plans_with(
    plans: &[&ExperimentPlan],
    registry: &SystemRegistry,
    options: &ExecOptions,
) -> Vec<PlanOutcome> {
    let flat: Vec<FlatProbe> = plans
        .iter()
        .enumerate()
        .flat_map(|(plan_idx, plan)| {
            plan.rows
                .iter()
                .flat_map(|row| row.runs.iter().map(move |run| (run, row.label.as_str())))
                .enumerate()
                .map(move |(index, (run, row_label))| FlatProbe {
                    plan: plan_idx,
                    index,
                    run,
                    row_label,
                    probe_label: run.probe.label(),
                })
        })
        .collect();
    let total = flat.len();

    // Collapse identical probes into work items. Items are keyed by the
    // canonical content hash; the full key bytes break (hypothetical)
    // hash collisions, so equal items are equal measurements.
    let mut items: Vec<WorkItem> = Vec::new();
    let mut by_hash: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (flat_index, probe) in flat.iter().enumerate() {
        let key = probe_key_bytes(&probe.run.probe);
        let candidates = by_hash.entry(fnv1a_64(&key)).or_default();
        if let Some(&existing) = candidates.iter().find(|&&i| items[i].key == key) {
            items[existing].slots.push(flat_index);
        } else {
            candidates.push(items.len());
            items.push(WorkItem {
                key,
                slots: vec![flat_index],
                cost: 0.0,
            });
        }
    }
    for item in &mut items {
        item.cost = predicted_probe_cost(&flat[item.slots[0]].run.probe);
    }
    let probe_of = |item: &WorkItem| &flat[item.slots[0]].run.probe;
    let jobs = options.effective_jobs();
    let batches = plan_batches(
        &items
            .iter()
            .map(|item| (state_group_key(probe_of(item)), item.cost))
            .collect::<Vec<_>>(),
        jobs,
    );
    let jobs = jobs.min(batches.len().max(1));

    // Longest-predicted-first ordering (ties broken by first occurrence)
    // keeps the big batches off the pool's tail; a single worker runs every
    // batch anyway, so it keeps first-occurrence order for deterministic
    // fail-fast.
    let order: Vec<usize> = if jobs > 1 {
        lpt_order(&batches.iter().map(|b| b.cost).collect::<Vec<_>>())
    } else {
        (0..batches.len()).collect()
    };

    let abort = std::sync::atomic::AtomicBool::new(false);
    // `group` is the executing batch's state (built by its first executed
    // probe); `share` says whether a later item of the batch could use it.
    let execute_item =
        |item: &WorkItem, group: &mut Option<GroupState>, share: bool| -> ItemOutcome {
            if options.fail_fast && abort.load(std::sync::atomic::Ordering::Relaxed) {
                return ItemOutcome {
                    result: Err(SKIPPED_MESSAGE.to_string()),
                    wall_ms: 0.0,
                    cache_hit: false,
                };
            }
            if let Some(cache) = options.cache {
                if let Some(result) = cache.load(&item.key) {
                    return ItemOutcome {
                        result: Ok(result),
                        wall_ms: 0.0,
                        cache_hit: true,
                    };
                }
            }
            #[expect(
                clippy::disallowed_methods,
                reason = "wall-clock probe timing for the stderr summary and the benchmark/ \
                          harness; never enters a report or a cache key"
            )]
            let started = std::time::Instant::now();
            let observed = catch_unwind(AssertUnwindSafe(|| {
                observe(probe_of(item), registry, group, share)
            }));
            let result = match observed {
                Ok(result) => Ok(result),
                Err(payload) => Err(panic_text(payload.as_ref())),
            };
            let wall_ms = started.elapsed().as_secs_f64() * 1e3;
            match &result {
                Ok(result) => {
                    if let Some(cache) = options.cache {
                        cache.store(&item.key, result);
                    }
                }
                Err(_) => abort.store(true, std::sync::atomic::Ordering::Relaxed),
            }
            ItemOutcome {
                result,
                wall_ms,
                cache_hit: false,
            }
        };
    // One batch on the calling thread: items in plan order over one group
    // state, each outcome reported as it lands. Stops early, returning
    // `false`, once `report` says nobody is listening any more.
    let run_batch = |batch: &Batch, report: &mut dyn FnMut(usize, ItemOutcome) -> bool| {
        let mut group = None;
        batch.items.iter().enumerate().all(|(pos, &item_index)| {
            let share = pos + 1 < batch.items.len();
            report(
                item_index,
                execute_item(&items[item_index], &mut group, share),
            )
        })
    };

    // The collector: fan one item's outcome out to every slot that shares
    // it. Column extraction is per slot (slots may read different columns
    // off the same result); the representative slot carries the measured
    // wall, duplicate slots carry 0 and credit the saving to their plan.
    let absorb = |item_index: usize,
                  outcome: ItemOutcome,
                  outcomes: &mut [Option<ProbeOutcome>],
                  accounting: &mut [PlanAccounting],
                  done: &mut usize| {
        let item = &items[item_index];
        let rep = &flat[item.slots[0]];
        accounting[rep.plan].distinct += 1;
        if outcome.cache_hit {
            accounting[rep.plan].cache_hits += 1;
        } else if outcome.result.is_ok() {
            accounting[rep.plan].calibration.push(ProbeCalibration {
                probe: rep.probe_label.clone(),
                predicted: item.cost,
                wall_ms: outcome.wall_ms,
            });
        }
        for (pos, &flat_index) in item.slots.iter().enumerate() {
            let probe = &flat[flat_index];
            if pos > 0 {
                accounting[probe.plan].dedup_saved_ms += outcome.wall_ms;
            }
            let slot = match &outcome.result {
                Ok(result) => ProbeOutcome {
                    values: probe
                        .run
                        .columns
                        .iter()
                        .map(|c| (c.name.clone(), extract(result, &c.metric)))
                        .collect(),
                    series: result.series.clone(),
                    error: None,
                    wall_ms: if pos == 0 { outcome.wall_ms } else { 0.0 },
                },
                // A failed (or fail-fast-skipped) item keeps every slot's
                // column shape: NaN values (JSON null) plus the message.
                Err(message) => ProbeOutcome {
                    values: probe
                        .run
                        .columns
                        .iter()
                        .map(|c| (c.name.clone(), f64::NAN))
                        .collect(),
                    series: None,
                    error: Some(message.clone()),
                    wall_ms: if pos == 0 { outcome.wall_ms } else { 0.0 },
                },
            };
            *done += 1;
            if let Some(progress) = options.progress {
                progress(&ProbeStatus {
                    plan: probe.plan,
                    index: probe.index,
                    total,
                    done: *done,
                    row: probe.row_label.to_string(),
                    probe: probe.probe_label.clone(),
                    error: slot.error.clone(),
                    cached: outcome.cache_hit,
                    deduped: pos > 0,
                });
            }
            outcomes[flat_index] = Some(slot);
        }
    };

    let mut done = 0usize;
    let mut outcomes: Vec<Option<ProbeOutcome>> = (0..total).map(|_| None).collect();
    let mut accounting: Vec<PlanAccounting> =
        plans.iter().map(|_| PlanAccounting::default()).collect();
    if jobs <= 1 {
        for &batch_index in &order {
            run_batch(&batches[batch_index], &mut |item_index, outcome| {
                absorb(
                    item_index,
                    outcome,
                    &mut outcomes,
                    &mut accounting,
                    &mut done,
                );
                true
            });
        }
    } else {
        // The work queue: batch indexes in scheduled order, shared through a
        // mutex so idle workers pull the next batch as they finish. Results
        // come back item by item over a second channel; the collector fans
        // them out and runs the progress callback.
        let (job_tx, job_rx) = mpsc::channel::<usize>();
        for &batch_index in &order {
            let _ = job_tx.send(batch_index);
        }
        drop(job_tx);
        let job_rx = Arc::new(Mutex::new(job_rx));
        let (result_tx, result_rx) = mpsc::channel::<(usize, ItemOutcome)>();
        let batches_ref = &batches;
        let run_ref = &run_batch;
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                let job_rx = Arc::clone(&job_rx);
                let result_tx = result_tx.clone();
                scope.spawn(move || loop {
                    // Probes unwind-catch their panics, so the lock can
                    // only be poisoned by a bug in this loop itself; a
                    // worker that finds it poisoned stops cleanly rather
                    // than panicking outside the catch_unwind boundary
                    // (which would abort the whole scope).
                    let Ok(queue) = job_rx.lock() else { break };
                    let next = queue.recv();
                    drop(queue);
                    let Ok(batch_index) = next else { break };
                    let delivered = run_ref(&batches_ref[batch_index], &mut |index, outcome| {
                        result_tx.send((index, outcome)).is_ok()
                    });
                    if !delivered {
                        break;
                    }
                });
            }
            drop(result_tx);
            while let Ok((item_index, outcome)) = result_rx.recv() {
                absorb(
                    item_index,
                    outcome,
                    &mut outcomes,
                    &mut accounting,
                    &mut done,
                );
            }
        });
    }

    let mut outcomes = outcomes.into_iter();
    plans
        .iter()
        .zip(accounting)
        .map(|(plan, accounting)| {
            let mut failures = Vec::new();
            let mut probe_wall_ms = 0.0;
            let mut index = 0usize;
            let rows = plan
                .rows
                .iter()
                .map(|row| {
                    let mut values = Vec::new();
                    let mut series = Vec::new();
                    for run in &row.runs {
                        let outcome = outcomes
                            .next()
                            .flatten()
                            .expect("every scheduled probe reports an outcome");
                        values.extend(outcome.values);
                        series.extend(outcome.series);
                        probe_wall_ms += outcome.wall_ms;
                        if let Some(message) = outcome.error {
                            failures.push(ProbeFailure {
                                row: row.label.clone(),
                                probe: run.probe.label(),
                                index,
                                message,
                            });
                        }
                        index += 1;
                    }
                    Row {
                        label: row.label.clone(),
                        values,
                        series,
                    }
                })
                .collect();
            PlanOutcome {
                report: ExperimentReport {
                    id: plan.id,
                    title: plan.title,
                    rows,
                    failures,
                    text: plan.text.clone(),
                },
                probe_wall_ms,
                probes: plan.probe_count(),
                distinct_probes: accounting.distinct,
                cache_hits: accounting.cache_hits,
                dedup_saved_ms: accounting.dedup_saved_ms,
                calibration: accounting.calibration,
            }
        })
        .collect()
}

/// Run one probe to its [`ProbeResult`] (panics propagate to the caller's
/// unwind boundary).
///
/// A preloading probe starts from its batch's `group` state when there is
/// one — as a fork of the shared substrates, or loaded from the retained
/// records when the model does not share — and builds that state itself
/// when it is the batch's first (`share` says whether any later probe could
/// use it).
fn observe(
    probe: &Probe,
    registry: &SystemRegistry,
    group: &mut Option<GroupState>,
    share: bool,
) -> ProbeResult {
    match probe {
        Probe::Drive {
            system,
            workload,
            driver,
        } => {
            let mut sys = registry
                .build(system)
                .unwrap_or_else(|e| panic!("cannot build {}: {e}", system.label()));
            let mut wl = workload.build();
            if driver.preload {
                match group {
                    Some(GroupState::Shared(state)) => {
                        // Declined only by a registry that builds different
                        // models for one state shape: load that one afresh.
                        if !sys.adopt_state(state) {
                            sys.load(&wl.initial_records());
                        }
                    }
                    Some(GroupState::Records(records)) => sys.load(records),
                    None => {
                        let records = wl.initial_records();
                        sys.load(&records);
                        if share {
                            *group = Some(match sys.share_state() {
                                Some(state) => GroupState::Shared(state),
                                None => GroupState::Records(records),
                            });
                        }
                    }
                }
            }
            let stats = drive(sys.as_mut(), wl.as_mut(), driver);
            // A violated invariant is a model bug, not a measurement: panic
            // inside the probe boundary so it surfaces as a labelled
            // ProbeFailure and the rest of the grid still completes.
            if let Some(v) = stats.oracles.violations().next() {
                panic!(
                    "oracle '{}' violated: {}",
                    v.name,
                    v.violation.as_deref().unwrap_or("unspecified")
                );
            }
            ProbeResult {
                metrics: stats.metrics,
                footprint: sys.footprint(),
                records: driver.transactions,
                extras: Vec::new(),
                series: Some(RowSeries {
                    name: system.label(),
                    events_clamped: stats.events_clamped,
                    oracles: stats.oracles,
                    series: stats.series,
                }),
            }
        }
        Probe::AdrOverhead {
            records,
            record_size,
        } => {
            let mut mbt = MerkleBucketTree::fabric_default();
            let mut mpt = MerklePatriciaTrie::new();
            let value = Value::filler(*record_size);
            for i in 0..*records {
                // 16-byte keys, as in the paper's setup.
                let key = Key::new(&Hash::of(&i.to_be_bytes()).0[..16]);
                mbt.put(&key, &value);
                mpt.insert(&key, &value);
            }
            let per_rec = |fp: StorageBreakdown| fp.total() as f64 / (*records).max(1) as f64;
            let extras = vec![
                (
                    "mbt_b_per_rec".to_string(),
                    *record_size as f64 + per_rec(mbt.footprint()),
                ),
                ("mpt_b_per_rec".to_string(), per_rec(mpt.footprint())),
            ];
            ProbeResult {
                metrics: Metrics::default(),
                footprint: StorageBreakdown::default(),
                records: *records,
                extras,
                series: None,
            }
        }
        Probe::Forecast { profile } => {
            let profiles = all_systems();
            let p = profiles
                .iter()
                .find(|s| s.name == *profile)
                .unwrap_or_else(|| panic!("unknown Table 2 profile '{profile}'"));
            let spec = HybridSpec::from_profile(p);
            let forecast =
                forecast_throughput(&spec, &NetworkConfig::lan_1gbps(), &CostModel::calibrated());
            let extras = vec![
                ("band".to_string(), spec.band() as u8 as f64),
                ("forecast_tps".to_string(), forecast),
                (
                    "reported_tps".to_string(),
                    p.reported_tps.unwrap_or(f64::NAN),
                ),
            ];
            ProbeResult {
                metrics: Metrics::default(),
                footprint: StorageBreakdown::default(),
                records: 0,
                extras,
                series: None,
            }
        }
    }
}

fn extract(obs: &ProbeResult, metric: &Metric) -> f64 {
    let phase = |name: &str| obs.metrics.phase_means_us.get(name).copied().unwrap_or(0.0);
    let records = obs.records.max(1) as f64;
    match metric {
        Metric::ThroughputTps => obs.metrics.throughput_tps,
        Metric::AbortPercent => obs.metrics.abort_rate_percent(),
        Metric::AbortSharePercent(reason) => obs.metrics.abort_share_percent(*reason),
        Metric::LatencyMeanMs => obs.metrics.latency.mean_us / 1000.0,
        Metric::LatencyP99Ms => obs.metrics.latency.p99_us as f64 / 1000.0,
        Metric::PhaseMeanMs(name) => phase(name) / 1000.0,
        Metric::PhaseMeanUs(name) => phase(name),
        Metric::StateBytesPerRecord => {
            (obs.footprint.payload_bytes + obs.footprint.index_bytes) as f64 / records
        }
        Metric::HistoryBytesPerRecord => obs.footprint.history_bytes as f64 / records,
        Metric::TotalBytesPerRecord => obs.footprint.total() as f64 / records,
        Metric::Extra(key) => obs
            .extras
            .iter()
            .find(|(name, _)| name == key)
            .map(|(_, v)| *v)
            .unwrap_or(f64::NAN),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dichotomy_common::Decode;
    use dichotomy_systems::SystemKind;
    use dichotomy_workload::YcsbMix;

    fn tiny_scenario(seed: u64) -> Scenario {
        Scenario {
            id: "T",
            title: "tiny",
            systems: vec![SystemEntry {
                spec: SystemSpec::new(SystemKind::Etcd),
                columns: vec![
                    ColumnSpec::new("tps", Metric::ThroughputTps),
                    ColumnSpec::new("abort_%", Metric::AbortPercent),
                ],
            }],
            workload: WorkloadSpec::ycsb(YcsbMix::UpdateOnly).with_records(500),
            driver: DriverConfig::saturating(150),
            sweep: Sweep::None,
            row_labels: None,
            faults: None,
            seed,
        }
    }

    #[test]
    fn sweepless_scenarios_have_one_row_per_system() {
        let report = run_plan(&tiny_scenario(1).plan());
        assert_eq!(report.rows.len(), 1);
        assert_eq!(report.rows[0].label, "etcd");
        assert!(report.value("etcd", "tps").unwrap() > 0.0);
        assert_eq!(report.value("etcd", "abort_%").unwrap(), 0.0);
    }

    #[test]
    fn sweeps_expand_to_one_row_per_point() {
        let mut scenario = tiny_scenario(1);
        scenario.sweep = Sweep::Theta(vec![0.0, 0.5, 1.0]);
        let plan = scenario.plan();
        assert_eq!(plan.rows.len(), 3);
        assert_eq!(plan.rows[1].label, "theta=0.5");
        assert_eq!(plan.probe_count(), 3);
        let report = run_plan(&plan);
        assert!(report.value("theta=1.0", "tps").unwrap() > 0.0);
    }

    #[test]
    fn row_label_overrides_win() {
        let mut scenario = tiny_scenario(1);
        scenario.sweep = Sweep::Nodes(vec![3, 5]);
        scenario.row_labels = Some(vec!["small".into(), "large".into()]);
        let plan = scenario.plan();
        assert_eq!(plan.rows[0].label, "small");
        assert_eq!(plan.rows[1].label, "large");
    }

    #[test]
    fn node_sweeps_reach_the_built_system() {
        let mut scenario = tiny_scenario(1);
        scenario.sweep = Sweep::Nodes(vec![3, 7]);
        let plan = scenario.plan();
        match &plan.rows[1].runs[0].probe {
            Probe::Drive { system, .. } => assert_eq!(system.nodes, Some(7)),
            _ => panic!("expected a drive probe"),
        }
    }

    #[test]
    fn ops_sweep_keeps_total_payload_constant() {
        let mut scenario = tiny_scenario(1);
        scenario.sweep = Sweep::OpsPerTxn {
            counts: vec![1, 4],
            payload_bytes: Some(1000),
        };
        let plan = scenario.plan();
        match &plan.rows[1].runs[0].probe {
            Probe::Drive { workload, .. } => match workload {
                WorkloadSpec::Ycsb(c) => {
                    assert_eq!(c.ops_per_txn, 4);
                    assert_eq!(c.record_size, 250);
                }
                _ => panic!("expected YCSB"),
            },
            _ => panic!("expected a drive probe"),
        }
    }

    #[test]
    fn same_seed_reproduces_and_seeds_thread_through() {
        let a = run_plan(&tiny_scenario(42).plan());
        let b = run_plan(&tiny_scenario(42).plan());
        assert_eq!(a.rows[0].values, b.rows[0].values);
        match &tiny_scenario(42).plan().rows[0].runs[0].probe {
            Probe::Drive {
                system,
                workload,
                driver,
            } => {
                assert_eq!(system.seed, Some(42));
                assert_eq!(workload.seed(), 42);
                assert_eq!(driver.seed, 42);
            }
            _ => panic!("expected a drive probe"),
        }
    }

    #[test]
    fn forecast_and_adr_probes_fill_extras() {
        let plan = ExperimentPlan {
            id: "X",
            title: "probes",
            rows: vec![
                PlannedRow {
                    label: "Veritas".into(),
                    runs: vec![PlannedRun {
                        probe: Probe::Forecast { profile: "Veritas" },
                        columns: vec![
                            ColumnSpec::new("forecast_tps", Metric::Extra("forecast_tps")),
                            ColumnSpec::new("reported_tps", Metric::Extra("reported_tps")),
                        ],
                    }],
                },
                PlannedRow {
                    label: "100 B".into(),
                    runs: vec![PlannedRun {
                        probe: Probe::AdrOverhead {
                            records: 200,
                            record_size: 100,
                        },
                        columns: vec![
                            ColumnSpec::new("MBT_B/rec", Metric::Extra("mbt_b_per_rec")),
                            ColumnSpec::new("MPT_B/rec", Metric::Extra("mpt_b_per_rec")),
                        ],
                    }],
                },
            ],
            text: None,
            diagnostics: Vec::new(),
        };
        let report = run_plan(&plan);
        assert!(report.value("Veritas", "forecast_tps").unwrap() > 0.0);
        assert_eq!(report.value("Veritas", "reported_tps").unwrap(), 29_000.0);
        let mbt = report.value("100 B", "MBT_B/rec").unwrap();
        let mpt = report.value("100 B", "MPT_B/rec").unwrap();
        assert!(mpt > mbt);
    }

    fn kind_scenario(kind: SystemKind) -> Scenario {
        Scenario {
            id: "P",
            title: "parallel determinism",
            systems: vec![SystemEntry {
                spec: SystemSpec::new(kind),
                columns: vec![
                    ColumnSpec::new("tps", Metric::ThroughputTps),
                    ColumnSpec::new("abort_%", Metric::AbortPercent),
                    ColumnSpec::new("lat_ms", Metric::LatencyMeanMs),
                ],
            }],
            workload: WorkloadSpec::ycsb(YcsbMix::UpdateOnly).with_records(500),
            driver: DriverConfig::saturating(120),
            sweep: Sweep::Theta(vec![0.0, 0.8]),
            row_labels: None,
            faults: None,
            seed: 7,
        }
    }

    #[test]
    fn parallel_execution_matches_sequential_for_every_kind_and_fault01() {
        // The acceptance bar for the worker pool: for a fixed seed, jobs=1
        // and jobs=8 produce identical reports — values, windowed series and
        // the per-probe clamp counters (all covered by ExperimentReport's
        // PartialEq) — across one experiment per system kind plus the fault
        // scenario.
        let registry = SystemRegistry::with_builtins();
        let mut plans: Vec<ExperimentPlan> = SystemKind::ALL
            .iter()
            .map(|&kind| kind_scenario(kind).plan())
            .collect();
        plans.push(crate::experiments::fault01_plan(120, 7));
        for plan in &plans {
            let sequential = run_plan_with(plan, &registry, &ExecOptions::with_jobs(1));
            let parallel = run_plan_with(plan, &registry, &ExecOptions::with_jobs(8));
            assert_eq!(sequential, parallel, "{}", plan.id);
            assert!(sequential.failures.is_empty(), "{}", plan.id);
            for row in &sequential.rows {
                for s in &row.series {
                    assert_eq!(s.events_clamped, 0, "{} {}", plan.id, row.label);
                }
            }
        }
    }

    #[test]
    fn a_panicking_probe_is_isolated_and_labelled() {
        fn bomb(_spec: &SystemSpec) -> Box<dyn dichotomy_systems::TransactionalSystem> {
            // A non-string payload: the failure must still be attributable.
            std::panic::panic_any(42u32)
        }
        let mut registry = SystemRegistry::with_builtins();
        registry.register(SystemKind::Tikv, bomb);
        let scenario = Scenario {
            systems: vec![
                SystemEntry {
                    spec: SystemSpec::new(SystemKind::Etcd),
                    columns: vec![ColumnSpec::new("tps", Metric::ThroughputTps)],
                },
                SystemEntry {
                    spec: SystemSpec::new(SystemKind::Tikv),
                    columns: vec![ColumnSpec::new("tps", Metric::ThroughputTps)],
                },
            ],
            ..tiny_scenario(1)
        };
        for jobs in [1, 4] {
            let report = run_plan_with(&scenario.plan(), &registry, &ExecOptions::with_jobs(jobs));
            // The sibling probe still completes...
            assert!(report.value("etcd", "tps").unwrap() > 0.0, "jobs={jobs}");
            // ...the failed probe keeps its column shape (NaN → JSON null)...
            assert!(report.value("TiKV", "tps").unwrap().is_nan(), "jobs={jobs}");
            // ...and the failure is labelled with row and probe.
            assert_eq!(report.failures.len(), 1, "jobs={jobs}");
            let failure = &report.failures[0];
            assert_eq!(failure.row, "TiKV");
            assert_eq!(failure.probe, "TiKV");
            assert_eq!(failure.index, 1);
            assert_eq!(failure.message, "panicked (non-string payload)");
            let rendered = report.render();
            assert!(rendered.contains("!! probe 'TiKV' on row 'TiKV' failed"));
        }
    }

    #[test]
    fn progress_reports_every_probe_in_completion_order() {
        let mut scenario = tiny_scenario(1);
        scenario.sweep = Sweep::Theta(vec![0.0, 0.5, 1.0]);
        let plan = scenario.plan();
        for jobs in [1, 4] {
            let statuses: Mutex<Vec<ProbeStatus>> = Mutex::new(Vec::new());
            let record = |s: &ProbeStatus| statuses.lock().unwrap().push(s.clone());
            let options = ExecOptions {
                jobs,
                progress: Some(&record),
                ..ExecOptions::default()
            };
            run_plan_with(&plan, &SystemRegistry::with_builtins(), &options);
            let statuses = statuses.into_inner().unwrap();
            assert_eq!(statuses.len(), 3, "jobs={jobs}");
            // `done` counts completions 1..=total; indexes cover the plan.
            assert_eq!(
                statuses.iter().map(|s| s.done).collect::<Vec<_>>(),
                vec![1, 2, 3]
            );
            let mut indexes: Vec<usize> = statuses.iter().map(|s| s.index).collect();
            indexes.sort_unstable();
            assert_eq!(indexes, vec![0, 1, 2]);
            assert!(statuses.iter().all(|s| s.total == 3 && s.error.is_none()));
            assert!(statuses.iter().all(|s| s.probe == "etcd"));
        }
    }

    #[test]
    fn an_empty_sweep_or_empty_plan_yields_an_empty_report() {
        // An axis with zero points expands to zero rows (regression: this
        // used to fall back to the sweepless one-row-per-system grid).
        let mut scenario = tiny_scenario(1);
        scenario.sweep = Sweep::Theta(Vec::new());
        let plan = scenario.plan();
        assert_eq!(plan.rows.len(), 0);
        assert_eq!(plan.probe_count(), 0);
        let report = run_plan(&plan);
        assert!(report.rows.is_empty() && report.failures.is_empty());
        assert!(report.render().starts_with("== T"));
        // A scenario with no systems behaves the same way.
        let mut empty = tiny_scenario(1);
        empty.systems.clear();
        let report = run_plan(&empty.plan());
        assert!(report.rows.is_empty());
    }

    #[test]
    fn effective_jobs_prefers_explicit_over_env_and_detects_by_default() {
        assert_eq!(ExecOptions::with_jobs(3).effective_jobs(), 3);
        // jobs=0 resolves DICHOTOMY_JOBS or available parallelism — either
        // way, at least one worker.
        assert!(ExecOptions::default().effective_jobs() >= 1);
    }

    #[test]
    fn a_shared_pool_batch_matches_per_plan_execution_exactly() {
        // The cross-experiment pool: running several plans through one
        // run_plans_with batch must reproduce the per-plan reports byte for
        // byte (values, series, failures), sequentially and in parallel, and
        // attribute every probe to its plan in the progress stream.
        let registry = SystemRegistry::with_builtins();
        let mut sweep_scenario = tiny_scenario(5);
        sweep_scenario.sweep = Sweep::Theta(vec![0.0, 0.9]);
        let plans = [
            tiny_scenario(5).plan(),
            sweep_scenario.plan(),
            crate::experiments::fault01_plan(80, 5),
        ];
        let refs: Vec<&ExperimentPlan> = plans.iter().collect();
        let solo: Vec<ExperimentReport> = plans
            .iter()
            .map(|p| run_plan_with(p, &registry, &ExecOptions::with_jobs(1)))
            .collect();
        for jobs in [1, 4] {
            let statuses: Mutex<Vec<ProbeStatus>> = Mutex::new(Vec::new());
            let record = |s: &ProbeStatus| statuses.lock().unwrap().push(s.clone());
            let options = ExecOptions {
                jobs,
                progress: Some(&record),
                ..ExecOptions::default()
            };
            let batch = run_plans_with(&refs, &registry, &options);
            assert_eq!(batch.len(), 3, "jobs={jobs}");
            for (outcome, expected) in batch.iter().zip(&solo) {
                assert_eq!(&outcome.report, expected, "jobs={jobs}");
                assert!(outcome.probe_wall_ms >= 0.0);
            }
            let statuses = statuses.into_inner().unwrap();
            let total = plans.iter().map(|p| p.probe_count()).sum::<usize>();
            assert_eq!(statuses.len(), total, "jobs={jobs}");
            // Every status names its plan; `done` counts the whole batch.
            let mut per_plan = vec![0usize; plans.len()];
            for s in &statuses {
                assert_eq!(s.total, total);
                per_plan[s.plan] += 1;
            }
            assert_eq!(
                per_plan,
                plans.iter().map(|p| p.probe_count()).collect::<Vec<_>>()
            );
            assert_eq!(
                statuses.iter().map(|s| s.done).collect::<Vec<_>>(),
                (1..=total).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn duplicate_probes_execute_once_and_fan_out() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static BUILDS: AtomicUsize = AtomicUsize::new(0);
        fn counting(spec: &SystemSpec) -> Box<dyn dichotomy_systems::TransactionalSystem> {
            BUILDS.fetch_add(1, Ordering::Relaxed);
            SystemRegistry::with_builtins().build(spec).unwrap()
        }
        let mut registry = SystemRegistry::with_builtins();
        registry.register(SystemKind::Etcd, counting);
        // Two byte-identical probes reading *different* columns, plus one
        // labelled-distinct probe: dedup must execute two systems, not
        // three, and still give every slot its own column extraction.
        let scenario = Scenario {
            systems: vec![
                SystemEntry {
                    spec: SystemSpec::new(SystemKind::Etcd),
                    columns: vec![ColumnSpec::new("tps", Metric::ThroughputTps)],
                },
                SystemEntry {
                    spec: SystemSpec::new(SystemKind::Etcd),
                    columns: vec![
                        ColumnSpec::new("tps", Metric::ThroughputTps),
                        ColumnSpec::new("lat_ms", Metric::LatencyMeanMs),
                    ],
                },
                SystemEntry {
                    spec: SystemSpec::new(SystemKind::Etcd).with_label("etcd-b"),
                    columns: vec![ColumnSpec::new("tps", Metric::ThroughputTps)],
                },
            ],
            ..tiny_scenario(3)
        };
        let plan = scenario.plan();
        for jobs in [1, 4] {
            BUILDS.store(0, Ordering::Relaxed);
            let statuses: Mutex<Vec<ProbeStatus>> = Mutex::new(Vec::new());
            let record = |s: &ProbeStatus| statuses.lock().unwrap().push(s.clone());
            let options = ExecOptions {
                jobs,
                progress: Some(&record),
                ..ExecOptions::default()
            };
            let outcome = run_plans_with(&[&plan], &registry, &options).pop().unwrap();
            assert_eq!(BUILDS.load(Ordering::Relaxed), 2, "jobs={jobs}");
            assert_eq!(outcome.probes, 3, "jobs={jobs}");
            assert_eq!(outcome.distinct_probes, 2, "jobs={jobs}");
            assert_eq!(outcome.cache_hits, 0);
            assert!(outcome.dedup_saved_ms > 0.0, "jobs={jobs}");
            assert_eq!(outcome.calibration.len(), 2, "jobs={jobs}");
            // The shared result reaches both slots; the distinct probe ran
            // on its own.
            let rows = &outcome.report.rows;
            assert_eq!(rows[0].values[0], rows[1].values[0]);
            assert_eq!(rows[1].values.len(), 2);
            assert!(rows[2].values[0].1 > 0.0);
            // Progress saw all three slots, exactly one marked deduped.
            let statuses = statuses.into_inner().unwrap();
            assert_eq!(statuses.len(), 3, "jobs={jobs}");
            assert_eq!(statuses.iter().filter(|s| s.deduped).count(), 1);
            assert!(statuses.iter().all(|s| !s.cached));
        }
    }

    /// An in-memory [`ProbeCache`] that round-trips results through the
    /// binary codec — the same serialization path the on-disk cache uses.
    #[derive(Default)]
    struct MemCache {
        map: Mutex<std::collections::BTreeMap<Vec<u8>, Vec<u8>>>,
    }

    impl ProbeCache for MemCache {
        fn load(&self, key: &[u8]) -> Option<ProbeResult> {
            let bytes = self.map.lock().unwrap().get(key).cloned()?;
            Some(ProbeResult::decode(&bytes).expect("stored entries decode"))
        }
        fn store(&self, key: &[u8], result: &ProbeResult) {
            self.map
                .lock()
                .unwrap()
                .insert(key.to_vec(), result.encode());
        }
    }

    #[test]
    fn a_probe_cache_round_trips_every_kind_and_mode_byte_identically() {
        use crate::metrics::MetricsMode;
        // Every system kind under both metrics modes, plus the fault
        // scenario: a cold run through an (empty) cache and a warm run
        // through the filled cache must produce identical reports — the
        // codec round-trip is exact, not approximate.
        let registry = SystemRegistry::with_builtins();
        let cache = MemCache::default();
        let mut plans: Vec<ExperimentPlan> = Vec::new();
        for &kind in SystemKind::ALL.iter() {
            for mode in [MetricsMode::Exact, MetricsMode::Streaming] {
                let mut scenario = kind_scenario(kind);
                scenario.driver.metrics = mode;
                plans.push(scenario.plan());
            }
        }
        plans.push(crate::experiments::fault01_plan(80, 7));
        let refs: Vec<&ExperimentPlan> = plans.iter().collect();
        let options = ExecOptions {
            jobs: 4,
            cache: Some(&cache),
            ..ExecOptions::default()
        };
        let cold = run_plans_with(&refs, &registry, &options);
        assert!(cold.iter().all(|o| o.cache_hits == 0), "cache started cold");
        let warm = run_plans_with(&refs, &registry, &options);
        for (c, w) in cold.iter().zip(&warm) {
            assert_eq!(c.report, w.report, "{}", c.report.id);
        }
        let distinct: usize = warm.iter().map(|o| o.distinct_probes).sum();
        let hits: usize = warm.iter().map(|o| o.cache_hits).sum();
        assert_eq!(hits, distinct, "every distinct probe hits the warm cache");
        assert!(warm.iter().all(|o| o.calibration.is_empty()));
    }

    #[test]
    fn probe_keys_track_every_input_that_changes_the_measurement() {
        use crate::metrics::MetricsMode;
        use dichotomy_simnet::NodeFault;
        let probe_of = |s: &Scenario| s.plan().rows[0].runs[0].probe.clone();
        let base = tiny_scenario(1);
        let key = probe_key_bytes(&probe_of(&base));
        // Re-expanding the identical scenario reproduces the key.
        assert_eq!(key, probe_key_bytes(&probe_of(&tiny_scenario(1))));
        // Seed, workload knob, metrics mode and fault schedule all reach it.
        assert_ne!(key, probe_key_bytes(&probe_of(&tiny_scenario(2))));
        let mut theta = tiny_scenario(1);
        theta.workload = theta.workload.with_theta(0.42);
        assert_ne!(key, probe_key_bytes(&probe_of(&theta)));
        let mut streaming = tiny_scenario(1);
        streaming.driver.metrics = MetricsMode::Streaming;
        assert_ne!(key, probe_key_bytes(&probe_of(&streaming)));
        let mut faulted = tiny_scenario(1);
        let mut faults = dichotomy_simnet::FaultPlan::none();
        faults.add(NodeFault::crash_until(dichotomy_common::NodeId(0), 10, 20));
        faulted.faults = Some(faults);
        assert_ne!(key, probe_key_bytes(&probe_of(&faulted)));
        // The content hash follows the key.
        assert_ne!(
            fnv1a_64(&key),
            fnv1a_64(&probe_key_bytes(&probe_of(&tiny_scenario(2))))
        );
        // Non-driving probes key on their own parameters.
        let adr = |records, record_size| Probe::AdrOverhead {
            records,
            record_size,
        };
        assert_eq!(probe_key_bytes(&adr(10, 64)), probe_key_bytes(&adr(10, 64)));
        assert_ne!(probe_key_bytes(&adr(10, 64)), probe_key_bytes(&adr(10, 65)));
    }

    #[test]
    fn longest_first_scheduling_beats_arrival_order_on_a_skewed_plan() {
        // A synthetic skewed plan: seven quick probes followed by one heavy
        // straggler (50× the transactions). Arrival order puts the
        // straggler last, so one worker grinds it alone at the tail; the
        // LPT schedule starts it first.
        let quick = DriverConfig::saturating(100);
        let heavy = DriverConfig::saturating(5_000);
        let probe = |driver: &DriverConfig| Probe::Drive {
            system: SystemSpec::new(SystemKind::Etcd),
            workload: WorkloadSpec::ycsb(YcsbMix::UpdateOnly),
            driver: driver.clone(),
        };
        let mut probes: Vec<Probe> = (0..7).map(|_| probe(&quick)).collect();
        probes.push(probe(&heavy));
        let costs: Vec<f64> = probes.iter().map(predicted_probe_cost).collect();
        assert!(
            costs[7] > costs[0] * 10.0,
            "predicted cost scales with transactions: {costs:?}"
        );
        let order = lpt_order(&costs);
        assert_eq!(order[0], 7, "the straggler is scheduled first");

        // Greedy two-worker pool simulation: each item goes to the
        // earliest-free worker, makespan is the latest finish.
        fn makespan(order: &[usize], costs: &[f64], workers: usize) -> f64 {
            let mut load = vec![0.0f64; workers];
            for &i in order {
                let w = (0..workers)
                    .min_by(|&a, &b| load[a].partial_cmp(&load[b]).unwrap())
                    .unwrap();
                load[w] += costs[i];
            }
            load.into_iter().fold(0.0, f64::max)
        }
        let arrival: Vec<usize> = (0..costs.len()).collect();
        let m_arrival = makespan(&arrival, &costs, 2);
        let m_lpt = makespan(&order, &costs, 2);
        assert!(
            m_lpt < m_arrival,
            "LPT makespan {m_lpt:.0} must beat arrival order {m_arrival:.0}"
        );
    }

    #[test]
    fn fail_fast_drains_the_queue_after_the_first_failure() {
        fn bomb(_spec: &SystemSpec) -> Box<dyn dichotomy_systems::TransactionalSystem> {
            panic!("intentional probe failure")
        }
        let mut registry = SystemRegistry::with_builtins();
        registry.register(SystemKind::Tikv, bomb);
        let entry = |spec: SystemSpec| SystemEntry {
            spec,
            columns: vec![ColumnSpec::new("tps", Metric::ThroughputTps)],
        };
        // Plan order: Fabric (ok), TiKV (bomb), Fabric-b (same state group as
        // Fabric), etcd (would be ok). One worker runs batches in order of
        // their first probe and a batch's probes in plan order: Fabric,
        // Fabric-b, then TiKV fails, then etcd is skipped — so Fabric-b runs
        // although it follows the failure in plan order, and only the batch
        // that starts after the failing one is drained.
        let scenario = Scenario {
            systems: vec![
                entry(SystemSpec::new(SystemKind::Fabric)),
                entry(SystemSpec::new(SystemKind::Tikv)),
                entry(SystemSpec::new(SystemKind::Fabric).with_label("Fabric-b")),
                entry(SystemSpec::new(SystemKind::Etcd)),
            ],
            ..tiny_scenario(1)
        };
        let statuses: Mutex<Vec<ProbeStatus>> = Mutex::new(Vec::new());
        let record = |s: &ProbeStatus| statuses.lock().unwrap().push(s.clone());
        let options = ExecOptions {
            jobs: 1,
            fail_fast: true,
            progress: Some(&record),
            ..ExecOptions::default()
        };
        let report = run_plan_with(&scenario.plan(), &registry, &options);
        assert!(report.value("Fabric", "tps").unwrap() > 0.0);
        assert!(
            report.value("Fabric-b", "tps").unwrap() > 0.0,
            "a batch-mate of an earlier probe runs before the failing batch"
        );
        assert!(report.value("TiKV", "tps").unwrap().is_nan());
        assert!(report.value("etcd", "tps").unwrap().is_nan());
        assert_eq!(report.failures.len(), 2);
        assert_eq!(report.failures[0].message, "intentional probe failure");
        assert_eq!(
            report.failures[1].message,
            "skipped: an earlier probe failed (fail-fast)"
        );
        // Completion order is batch order, and `done` stays monotone.
        let statuses = statuses.into_inner().unwrap();
        assert_eq!(
            statuses.iter().map(|s| s.index).collect::<Vec<_>>(),
            vec![0, 2, 1, 3]
        );
        assert_eq!(
            statuses.iter().map(|s| s.done).collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );
        // Without fail_fast the trailing probe still runs.
        let report = run_plan_with(&scenario.plan(), &registry, &ExecOptions::with_jobs(1));
        assert!(report.value("etcd", "tps").unwrap() > 0.0);
        assert_eq!(report.failures.len(), 1);
    }

    #[test]
    fn state_group_keys_follow_the_state_shape_and_the_initial_records_only() {
        use dichotomy_simnet::NodeFault;
        let drive = |system: SystemSpec, workload: WorkloadSpec, driver: DriverConfig| {
            state_group_key(&Probe::Drive {
                system,
                workload,
                driver,
            })
        };
        let workload = || WorkloadSpec::ycsb(YcsbMix::UpdateOnly).with_records(400);
        let driver = || DriverConfig::saturating(100);
        let key = drive(SystemSpec::new(SystemKind::TiDb), workload(), driver());
        assert!(key.is_some());
        // Nothing `load` may not read, and nothing about the driven
        // transactions, moves a probe to another group.
        let mut faults = FaultPlan::none();
        faults.add(NodeFault::crash_until(dichotomy_common::NodeId(0), 10, 20));
        let elsewhere = SystemSpec::new(SystemKind::TiDb)
            .with_label("other")
            .with_nodes(9)
            .with_frontends(2)
            .with_consensus(dichotomy_consensus::ProtocolKind::Pbft)
            .with_blocks(7, 7)
            .with_faults(faults)
            .with_seed(99);
        let skewed = workload().with_theta(0.99).with_ops_per_txn(5).with_seed(3);
        let closed = DriverConfig::unsaturated(7).with_seed(5).with_window(10);
        assert_eq!(key, drive(elsewhere, skewed, closed));
        // The state shape and the initial records do.
        for other in [
            drive(SystemSpec::new(SystemKind::Tikv), workload(), driver()),
            drive(
                SystemSpec::new(SystemKind::TiDb).with_shards(4),
                workload(),
                driver(),
            ),
            drive(
                SystemSpec::new(SystemKind::TiDb),
                workload().with_records(401),
                driver(),
            ),
            drive(
                SystemSpec::new(SystemKind::TiDb),
                workload().with_record_size(9),
                driver(),
            ),
            drive(
                SystemSpec::new(SystemKind::TiDb),
                WorkloadSpec::smallbank().with_records(400),
                driver(),
            ),
        ] {
            assert!(other.is_some());
            assert_ne!(key, other);
        }
        // etcd ignores a shard count, so it cannot split its group.
        assert_eq!(
            drive(SystemSpec::new(SystemKind::Etcd), workload(), driver()),
            drive(
                SystemSpec::new(SystemKind::Etcd).with_shards(4),
                workload(),
                driver()
            ),
        );
        // Probes that load nothing belong to no group.
        let unloaded = DriverConfig {
            preload: false,
            ..driver()
        };
        assert_eq!(
            drive(SystemSpec::new(SystemKind::TiDb), workload(), unloaded),
            None
        );
        assert_eq!(
            state_group_key(&Probe::Forecast { profile: "Veritas" }),
            None
        );
    }

    #[test]
    fn batches_follow_state_groups_and_split_only_past_a_fair_share() {
        let key = |k: u8| Some(vec![k]);
        let batch = |items: &[usize], cost: f64| Batch {
            items: items.to_vec(),
            cost,
        };
        // Plan order: a0 b0 - a1 b1 a2 (`-` loads nothing).
        let items = [
            (key(b'a'), 1.0),
            (key(b'b'), 1.0),
            (None, 1.0),
            (key(b'a'), 1.0),
            (key(b'b'), 1.0),
            (key(b'a'), 1.0),
        ];
        // One worker: one batch per group in first-occurrence order, items in
        // plan order; different keys never share a batch.
        assert_eq!(
            plan_batches(&items, 1),
            vec![
                batch(&[0, 3, 5], 3.0),
                batch(&[1, 4], 2.0),
                batch(&[2], 1.0)
            ]
        );
        // Two workers, fair share 3.0: nothing exceeds it, nothing splits.
        assert_eq!(plan_batches(&items, 2), plan_batches(&items, 1));
        // A group dominating the queue is split into ⌈cost / share⌉ batches,
        // items dealt in plan order to the lightest batch.
        let skewed = [
            (key(b'a'), 4.0),
            (key(b'a'), 1.0),
            (key(b'b'), 1.0),
            (key(b'a'), 2.0),
            (key(b'a'), 2.0),
        ];
        assert_eq!(
            plan_batches(&skewed, 2),
            vec![batch(&[0], 4.0), batch(&[1, 3, 4], 5.0), batch(&[2], 1.0)]
        );
        // Never more batches than items, and never more than `jobs` extra.
        let lone = [(key(b'a'), 5.0)];
        assert_eq!(plan_batches(&lone, 8), vec![batch(&[0], 5.0)]);
        assert_eq!(plan_batches(&[], 4), vec![]);
    }
}
