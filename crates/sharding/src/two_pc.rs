//! Two-phase commit for cross-shard transactions (Section 3.4.2).
//!
//! The protocol is the textbook one: the coordinator sends PREPARE to every
//! participant shard, collects votes, and sends COMMIT (all yes) or ABORT
//! (any no); both phases cost the same whichever way the votes go. The
//! taxonomy's distinction is *who the coordinator is*:
//!
//! * a single trusted node (databases — cheap but a blocking single point of
//!   failure), or
//! * a BFT-replicated state machine running in its own shard (AHL, Eth2's
//!   beacon chain) — every coordinator step is itself a consensus decision,
//!   adding a BFT round per phase but removing the trust assumption.
//!
//! The module computes when the coordinator knows the decision, which the
//! sharded system models in `dichotomy-systems` use for Figure 14 and the
//! operation-count experiment.

use dichotomy_common::Timestamp;
use dichotomy_consensus::{ProtocolKind, ReplicationProfile};
use dichotomy_simnet::{CostModel, NetworkConfig};

/// Who drives the two-phase commit.
#[derive(Debug, Clone)]
pub enum CoordinatorKind {
    /// A single trusted coordinator node (TiDB, Spanner).
    Trusted,
    /// A coordinator implemented as a replicated state machine inside a shard
    /// running the given consensus protocol (AHL: PBFT with `n` replicas).
    Replicated {
        /// Consensus protocol of the coordinator shard.
        protocol: ProtocolKind,
        /// Replicas in the coordinator shard.
        n: usize,
    },
}

/// The 2PC latency model.
#[derive(Debug, Clone)]
pub struct TwoPhaseCommit {
    coordinator: CoordinatorKind,
    network: NetworkConfig,
    costs: CostModel,
}

impl TwoPhaseCommit {
    /// Build a 2PC engine.
    pub fn new(coordinator: CoordinatorKind, network: NetworkConfig, costs: CostModel) -> Self {
        TwoPhaseCommit {
            coordinator,
            network,
            costs,
        }
    }

    fn hop_us(&self, bytes: usize) -> u64 {
        self.network.base_latency_us
            + (bytes as f64 / self.network.bandwidth_bytes_per_us) as u64
            + self.network.jitter_us / 2
    }

    /// Extra latency each coordinator *step* pays when the coordinator is a
    /// replicated state machine: its decision must itself reach consensus.
    fn coordinator_step_overhead_us(&self) -> u64 {
        match &self.coordinator {
            CoordinatorKind::Trusted => 0,
            CoordinatorKind::Replicated { protocol, n } => {
                ReplicationProfile::new(*protocol, *n, self.network.clone(), self.costs.clone())
                    .commit_latency_us(256)
            }
        }
    }

    /// When the coordinator knows the decision of a 2PC round started at
    /// `start` across `participants` shards. Single-shard transactions
    /// short-circuit: no 2PC is needed.
    pub fn decided_at(
        &self,
        start: Timestamp,
        participants: usize,
        payload_bytes: usize,
    ) -> Timestamp {
        if participants <= 1 {
            return start;
        }
        // Phase 1: PREPARE out (with the writes) + votes back.
        let phase1 = self.hop_us(payload_bytes) + self.hop_us(64);
        // Phase 2: decision out + acks back.
        let phase2 = self.hop_us(64) + self.hop_us(64);
        // A replicated coordinator reaches consensus once per phase.
        let coordinator_overhead = 2 * self.coordinator_step_overhead_us();
        // Participant-side prepare work (lock/write-intent persistence).
        let participant_work = self.costs.storage_put_us(payload_bytes);
        start + phase1 + phase2 + coordinator_overhead + participant_work
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trusted() -> TwoPhaseCommit {
        TwoPhaseCommit::new(
            CoordinatorKind::Trusted,
            NetworkConfig::lan_1gbps(),
            CostModel::calibrated(),
        )
    }

    fn bft() -> TwoPhaseCommit {
        TwoPhaseCommit::new(
            CoordinatorKind::Replicated {
                protocol: ProtocolKind::Pbft,
                n: 4,
            },
            NetworkConfig::lan_1gbps(),
            CostModel::calibrated(),
        )
    }

    #[test]
    fn single_shard_transactions_skip_2pc() {
        assert_eq!(trusted().decided_at(100, 1, 1000), 100);
        assert_eq!(trusted().decided_at(100, 0, 1000), 100);
    }

    #[test]
    fn bft_coordinator_costs_more_than_a_trusted_one() {
        let t = trusted().decided_at(0, 2, 1000);
        let b = bft().decided_at(0, 2, 1000);
        // Even a trusted coordinator pays both phases.
        assert!(t > 1000, "trusted {t}");
        assert!(b > t + 1000, "trusted {t} bft {b}");
    }
}
