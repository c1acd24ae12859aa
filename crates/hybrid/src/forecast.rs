//! The Figure 15 forecast framework.
//!
//! Section 5.6 reduces a hybrid's expected peak throughput to two factors:
//! the **replication model** (transaction-based replication restricts
//! concurrency and caps throughput below storage-based designs) and the
//! **failure model** (CFT ordering is cheaper than BFT, especially when the
//! CFT protocol is a shared log). The framework places a design into a
//! throughput *band* (low / medium / high) and produces a numeric
//! back-of-the-envelope estimate from the replication profile, which the
//! Figure 15 plan (`fig15_plan`) compares against the systems' reported
//! numbers (Veritas 29 k vs ChainifyDB 6.1 k, etc.).

use std::fmt;

use dichotomy_consensus::{FailureModel, ProtocolKind, ReplicationProfile};
use dichotomy_simnet::{CostModel, NetworkConfig};

use crate::taxonomy::{ConcurrencyChoice, ReplicationModel, SystemProfile};

/// Why a forecast request was rejected before (or after) evaluation.
///
/// `forecast_txn_cost_us` clamps its denominator, but `forecast_throughput`
/// itself can emit `NaN` for degenerate specs (a zero batch divided by a
/// zero occupancy). Comparators downstream — the explorer's pruning pass
/// sorts candidates by forecast — must never see a non-finite score, so the
/// checked API rejects degenerate inputs with a structured error instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForecastError {
    /// `nodes == 0`: no replica participates in ordering.
    ZeroNodes,
    /// `batch_size == 0`: the ordering layer never cuts a batch.
    ZeroBatch,
    /// `txn_bytes == 0`: transactions carry no payload to cost.
    ZeroTxnBytes,
    /// The inputs validated but the model still produced a non-finite rate.
    NonFinite,
}

impl fmt::Display for ForecastError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ForecastError::ZeroNodes => write!(f, "spec has zero ordering nodes"),
            ForecastError::ZeroBatch => write!(f, "spec has a zero ordering batch size"),
            ForecastError::ZeroTxnBytes => write!(f, "spec has zero-byte transactions"),
            ForecastError::NonFinite => write!(f, "forecast evaluated to a non-finite rate"),
        }
    }
}

/// The qualitative bands of Figure 15.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ThroughputBand {
    Low,
    Medium,
    High,
}

/// A prospective hybrid design (the input to the forecast).
#[derive(Debug, Clone)]
pub struct HybridSpec {
    /// Name for reports.
    pub name: String,
    /// Replication model.
    pub replication: ReplicationModel,
    /// Ordering protocol.
    pub protocol: ProtocolKind,
    /// Concurrency choice.
    pub concurrency: ConcurrencyChoice,
    /// Number of replicas participating in ordering.
    pub nodes: usize,
    /// Average transaction size in bytes.
    pub txn_bytes: usize,
    /// Transactions per ordering batch.
    pub batch_size: usize,
}

impl HybridSpec {
    /// Build a spec from a Table 2 profile with default deployment numbers.
    pub fn from_profile(p: &SystemProfile) -> Self {
        HybridSpec {
            name: p.name.to_string(),
            replication: p.replication,
            protocol: p.protocol,
            concurrency: p.concurrency,
            nodes: 4,
            txn_bytes: 1_100,
            batch_size: 500,
        }
    }

    /// Reject degenerate deployment numbers before they reach the model.
    /// Zero nodes, a zero batch or zero-byte transactions make the
    /// occupancy/rate divisions meaningless (and can surface as `NaN`).
    pub fn validate(&self) -> Result<(), ForecastError> {
        if self.nodes == 0 {
            return Err(ForecastError::ZeroNodes);
        }
        if self.batch_size == 0 {
            return Err(ForecastError::ZeroBatch);
        }
        if self.txn_bytes == 0 {
            return Err(ForecastError::ZeroTxnBytes);
        }
        Ok(())
    }

    /// The qualitative Figure 15 band: replication model first, then failure
    /// model.
    pub fn band(&self) -> ThroughputBand {
        match (self.replication, self.protocol.failure_model()) {
            (ReplicationModel::StorageBased, FailureModel::Crash) => ThroughputBand::High,
            (ReplicationModel::StorageBased, FailureModel::Byzantine) => ThroughputBand::Medium,
            (ReplicationModel::TransactionBased, FailureModel::Crash) => ThroughputBand::Medium,
            (ReplicationModel::TransactionBased, FailureModel::Byzantine) => ThroughputBand::Low,
        }
    }
}

/// A numeric back-of-the-envelope throughput estimate in transactions per
/// second.
///
/// The ordering layer's sustainable rate is `batch_size / occupancy`; the
/// execution layer's rate depends on the concurrency choice: serial
/// execution caps it at one transaction per average execution time, while
/// concurrent designs scale with the node count. The estimate is the minimum
/// of the two — the pipeline's bottleneck.
pub fn forecast_throughput(spec: &HybridSpec, network: &NetworkConfig, costs: &CostModel) -> f64 {
    let profile =
        ReplicationProfile::new(spec.protocol, spec.nodes, network.clone(), costs.clone());
    let batch_bytes = spec.txn_bytes * spec.batch_size;
    // Ordering-layer rate. Pipelined CFT orderers (Raft, shared log) sustain
    // one batch per leader-occupancy period; BFT protocols run their rounds
    // back to back per block (Tendermint/IBFT), so the commit latency itself
    // bounds the batch rate; PoW is bounded by the block interval.
    let per_batch_us = match spec.protocol.failure_model() {
        FailureModel::Crash => profile.leader_occupancy_us(batch_bytes),
        FailureModel::Byzantine => profile
            .leader_occupancy_us(batch_bytes)
            .max(profile.commit_latency_us(batch_bytes)),
    };
    let ordering_rate = spec.batch_size as f64 / (per_batch_us as f64 / 1e6);

    // Per-transaction execution/commit cost on the state storage. Designs
    // that tolerate Byzantine failures re-verify client signatures at every
    // replica before applying effects.
    let byzantine_verify = match spec.protocol.failure_model() {
        FailureModel::Byzantine => costs.verify_signatures_us(1),
        FailureModel::Crash => 0,
    };
    let exec_us = (match spec.replication {
        // Transaction-based: full smart-contract execution and (for ledger
        // systems) authenticated-index maintenance at every replica.
        ReplicationModel::TransactionBased => {
            costs.evm_exec_us(spec.txn_bytes)
                + costs.adr_update_us(9, spec.txn_bytes)
                + costs.storage_put_us(spec.txn_bytes)
        }
        // Storage-based: just apply the write.
        ReplicationModel::StorageBased => costs.storage_put_us(spec.txn_bytes),
    } + byzantine_verify) as f64;
    let execution_rate = match spec.concurrency {
        ConcurrencyChoice::Serial => 1e6 / exec_us,
        ConcurrencyChoice::ConcurrentExecutionSerialCommit => {
            // Execution parallelizes; the serial commit re-checks versions and
            // persists, which is cheaper than execution.
            1e6 / (costs.storage_put_us(spec.txn_bytes) as f64 + 40.0 + byzantine_verify as f64)
        }
        ConcurrencyChoice::Concurrent => spec.nodes as f64 * 1e6 / exec_us,
    };
    ordering_rate.min(execution_rate)
}

/// The forecast inverted into a per-transaction cost in microseconds.
///
/// `forecast_throughput` predicts a design's sustainable rate; dividing it
/// into one second gives the modeled wall-clock cost of pushing one
/// transaction through the pipeline. The measurement scheduler uses this to
/// order probes longest-predicted-first: a probe's predicted wall is
/// `transactions × nodes × forecast_txn_cost_us`. Clamped below by 1 tps so
/// a degenerate forecast can never return a non-finite cost.
pub fn forecast_txn_cost_us(spec: &HybridSpec, network: &NetworkConfig, costs: &CostModel) -> f64 {
    1e6 / forecast_throughput(spec, network, costs).max(1.0)
}

/// [`forecast_throughput`] with input validation: degenerate specs (zero
/// nodes/batch/bytes) and non-finite model outputs come back as a
/// [`ForecastError`] instead of `NaN`, so ordering comparators downstream
/// only ever see finite positive rates.
pub fn try_forecast_throughput(
    spec: &HybridSpec,
    network: &NetworkConfig,
    costs: &CostModel,
) -> Result<f64, ForecastError> {
    spec.validate()?;
    let tps = forecast_throughput(spec, network, costs);
    if tps.is_finite() && tps > 0.0 {
        Ok(tps)
    } else {
        Err(ForecastError::NonFinite)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taxonomy::all_systems;

    fn defaults() -> (NetworkConfig, CostModel) {
        (NetworkConfig::lan_1gbps(), CostModel::calibrated())
    }

    #[test]
    fn bands_follow_replication_then_failure_model() {
        let (_, _) = defaults();
        let mk = |replication, protocol| HybridSpec {
            name: "x".into(),
            replication,
            protocol,
            concurrency: ConcurrencyChoice::Concurrent,
            nodes: 4,
            txn_bytes: 1000,
            batch_size: 100,
        };
        assert_eq!(
            mk(ReplicationModel::StorageBased, ProtocolKind::SharedLog).band(),
            ThroughputBand::High
        );
        assert_eq!(
            mk(ReplicationModel::StorageBased, ProtocolKind::Tendermint).band(),
            ThroughputBand::Medium
        );
        assert_eq!(
            mk(ReplicationModel::TransactionBased, ProtocolKind::SharedLog).band(),
            ThroughputBand::Medium
        );
        assert_eq!(
            mk(ReplicationModel::TransactionBased, ProtocolKind::Pbft).band(),
            ThroughputBand::Low
        );
    }

    #[test]
    fn veritas_outranks_chainifydb_like_section_5_6() {
        let (net, costs) = defaults();
        let systems = all_systems();
        let veritas = systems.iter().find(|s| s.name == "Veritas").unwrap();
        let chainify = systems.iter().find(|s| s.name == "ChainifyDB").unwrap();
        let f_veritas = forecast_throughput(&HybridSpec::from_profile(veritas), &net, &costs);
        let f_chainify = forecast_throughput(&HybridSpec::from_profile(chainify), &net, &costs);
        assert!(
            f_veritas > f_chainify,
            "Veritas {f_veritas:.0} vs ChainifyDB {f_chainify:.0}"
        );
        // And the bands agree with the reported ordering.
        assert!(
            HybridSpec::from_profile(veritas).band() >= HybridSpec::from_profile(chainify).band()
        );
    }

    #[test]
    fn bft_hybrids_forecast_below_cft_hybrids() {
        let (net, costs) = defaults();
        let systems = all_systems();
        let bigchain = systems.iter().find(|s| s.name == "BigchainDB").unwrap();
        let brd = systems.iter().find(|s| s.name == "BRD").unwrap();
        let f_bigchain = forecast_throughput(&HybridSpec::from_profile(bigchain), &net, &costs);
        let f_brd = forecast_throughput(&HybridSpec::from_profile(brd), &net, &costs);
        assert!(
            f_brd > f_bigchain,
            "BRD {f_brd:.0} vs BigchainDB {f_bigchain:.0}"
        );
    }

    #[test]
    fn forecast_ranking_matches_reported_ranking_for_most_hybrids() {
        let (net, costs) = defaults();
        let hybrids: Vec<_> = all_systems()
            .into_iter()
            .filter(|s| s.reported_tps.is_some())
            .filter(|s| {
                matches!(
                    s.category,
                    crate::taxonomy::SystemCategory::OutOfBlockchainDatabase
                        | crate::taxonomy::SystemCategory::OutOfDatabaseBlockchain
                )
            })
            .collect();
        let mut agreements = 0usize;
        let mut pairs = 0usize;
        for i in 0..hybrids.len() {
            for j in i + 1..hybrids.len() {
                let (a, b) = (&hybrids[i], &hybrids[j]);
                let fa = forecast_throughput(&HybridSpec::from_profile(a), &net, &costs);
                let fb = forecast_throughput(&HybridSpec::from_profile(b), &net, &costs);
                let reported = a.reported_tps.unwrap() > b.reported_tps.unwrap();
                let forecast = fa > fb;
                pairs += 1;
                if reported == forecast {
                    agreements += 1;
                }
            }
        }
        // The framework is back-of-the-envelope: require a clear majority of
        // pairwise orderings to agree, not perfection.
        assert!(
            agreements * 2 > pairs,
            "only {agreements}/{pairs} pairwise orderings agree"
        );
    }

    #[test]
    fn txn_cost_is_the_finite_inverse_of_the_forecast() {
        let (net, costs) = defaults();
        for profile in all_systems() {
            let spec = HybridSpec::from_profile(&profile);
            let cost = forecast_txn_cost_us(&spec, &net, &costs);
            assert!(cost.is_finite() && cost > 0.0, "{}: {cost}", spec.name);
            let tps = forecast_throughput(&spec, &net, &costs);
            if tps >= 1.0 {
                assert!((cost - 1e6 / tps).abs() < 1e-6, "{}", spec.name);
            }
        }
    }

    #[test]
    fn degenerate_specs_return_structured_errors_not_nan() {
        let (net, costs) = defaults();
        let good = HybridSpec {
            name: "good".into(),
            replication: ReplicationModel::StorageBased,
            protocol: ProtocolKind::Raft,
            concurrency: ConcurrencyChoice::Concurrent,
            nodes: 4,
            txn_bytes: 1_000,
            batch_size: 500,
        };
        assert!(good.validate().is_ok());
        let tps = try_forecast_throughput(&good, &net, &costs).unwrap();
        assert_eq!(tps, forecast_throughput(&good, &net, &costs));

        let zero_nodes = HybridSpec {
            nodes: 0,
            ..good.clone()
        };
        assert_eq!(
            try_forecast_throughput(&zero_nodes, &net, &costs),
            Err(ForecastError::ZeroNodes)
        );
        let zero_batch = HybridSpec {
            batch_size: 0,
            ..good.clone()
        };
        assert_eq!(
            try_forecast_throughput(&zero_batch, &net, &costs),
            Err(ForecastError::ZeroBatch)
        );
        let zero_bytes = HybridSpec {
            txn_bytes: 0,
            ..good.clone()
        };
        assert_eq!(
            try_forecast_throughput(&zero_bytes, &net, &costs),
            Err(ForecastError::ZeroTxnBytes)
        );
        // Errors render something actionable for diagnostics.
        assert!(ForecastError::ZeroBatch.to_string().contains("batch"));
    }

    #[test]
    fn serial_execution_caps_transaction_based_designs() {
        let (net, costs) = defaults();
        let serial = HybridSpec {
            name: "serial".into(),
            replication: ReplicationModel::TransactionBased,
            protocol: ProtocolKind::Raft,
            concurrency: ConcurrencyChoice::Serial,
            nodes: 4,
            txn_bytes: 1000,
            batch_size: 200,
        };
        let concurrent = HybridSpec {
            concurrency: ConcurrencyChoice::Concurrent,
            name: "concurrent".into(),
            ..serial.clone()
        };
        assert!(
            forecast_throughput(&concurrent, &net, &costs)
                > forecast_throughput(&serial, &net, &costs)
        );
    }
}
