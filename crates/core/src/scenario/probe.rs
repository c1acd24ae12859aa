//! One probe to one result: the content keys that deduplicate, group and
//! cache probes, and the execution of a single probe.

use dichotomy_common::size::{StorageBreakdown, StorageFootprint};
use dichotomy_common::{codec, Encode, Hash, Key, Value};
use dichotomy_hybrid::{all_systems, forecast_throughput, forecast_txn_cost_us, HybridSpec};
use dichotomy_merkle::{MerkleBucketTree, MerklePatriciaTrie};
use dichotomy_simnet::{CostModel, NetworkConfig};
use dichotomy_systems::{SharedState, SystemRegistry};
use dichotomy_workload::WorkloadSpec;

use super::{Metric, Probe};
use crate::driver::drive;
use crate::experiments::RowSeries;
use crate::metrics::Metrics;

/// Everything a probe produced, before column extraction.
///
/// This is the unit of deduplication and caching: two probes with the same
/// [`probe_key_bytes`] share one `ProbeResult`, and a persistent
/// [`ProbeCache`] round-trips it through the in-repo binary codec
/// ([`Encode`]/[`Decode`](dichotomy_common::Decode)). Column extraction
/// ([`ColumnSpec`](super::ColumnSpec)) happens per report slot *after* the
/// result exists, so probes that differ only in the columns they read still
/// share one execution.
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
/// [`SystemSpec`](dichotomy_systems::SystemSpec) (nodes, shards, consensus,
/// block cutting, network, cost model, fault schedule, seed, label), the
/// [`WorkloadSpec`] knobs and the [`DriverConfig`](crate::driver::DriverConfig)
/// with its arrival spec and metrics mode. Equal key bytes are the same
/// measurement by construction: nothing that can change the report is left out.
pub fn probe_key_bytes(probe: &Probe) -> Vec<u8> {
    probe.encode()
}

/// The **state group** of a probe: the canonical bytes of everything its
/// untimed preload can depend on — the system's
/// [`state_shape`](dichotomy_systems::SystemSpec::state_shape) (what `load`
/// may read of the spec) and the workload's
/// [`initial_state_key`](WorkloadSpec::initial_state_key) (variant, record
/// count, record size; seed-free). Probes with equal keys start from
/// byte-identical loaded state, so [`run_plans_with`](super::run_plans_with)
/// loads it once per batch and forks it. `None` for probes that load nothing
/// (non-driving probes, `preload: false`).
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
            let txns = driver.transactions.max(1) as f64;
            let (record_size, ops) = match workload {
                WorkloadSpec::Ycsb(c) => (c.record_size, c.ops_per_txn.max(1)),
                // Smallbank procedures touch two accounts on average.
                WorkloadSpec::Smallbank(c) => (c.record_size, 2),
            };
            let mut spec = system.hybrid_spec(record_size, ops);
            spec.nodes = spec.nodes.max(1);
            spec.txn_bytes = spec.txn_bytes.max(1);
            spec.batch_size = spec.batch_size.max(1);
            let costs = system.costs.clone().unwrap_or_else(CostModel::calibrated);
            let per_txn_us = forecast_txn_cost_us(&spec, &NetworkConfig::lan_1gbps(), &costs);
            let cost = txns * spec.nodes as f64 * per_txn_us;
            if cost.is_finite() && cost > 0.0 {
                cost
            } else {
                txns * spec.nodes as f64
            }
        }
        Probe::AdrOverhead { records, .. } => (*records).max(1) as f64,
        Probe::Forecast { .. } => 1.0,
    }
}

/// What the first executed probe of a batch leaves for the later ones,
/// owned by the worker running the batch and dropped with it.
pub(super) enum GroupState {
    /// The first system's frozen substrates: later systems adopt forks.
    Shared(SharedState),
    /// The model does not share (`TransactionalSystem::share_state`'s
    /// default): later systems are loaded from the same initial records.
    Records(Vec<(Key, Value)>),
}

/// Run one probe to its [`ProbeResult`] (panics propagate to the caller's
/// unwind boundary).
///
/// A preloading probe starts from its batch's `group` state when there is
/// one — as a fork of the shared substrates, or loaded from the retained
/// records when the model does not share — and builds that state itself
/// when it is the batch's first (`share` says whether any later probe could
/// use it).
pub(super) fn observe(
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

pub(super) fn extract(obs: &ProbeResult, metric: &Metric) -> f64 {
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
