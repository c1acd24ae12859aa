//! Replication profiles: the closed-form cost of each ordering/replication
//! protocol, plugged into the transaction pipelines in `dichotomy-systems`.
//!
//! A system model needs two numbers per replicated batch: how long until
//! the batch commits (latency), and how long the leader/primary is busy and
//! therefore unavailable for the next batch (occupancy — this is what caps
//! throughput). [`ReplicationProfile`] computes both from the protocol's
//! message pattern, the network configuration and the CPU cost model. These
//! formulas are the only description of what replication costs: there is no
//! message-level simulation to check them against, so the tests below check
//! the orderings Section 3.1 states (BFT above CFT, BFT's cost growing faster
//! with the cluster, a shared log flat in its consumers).

use dichotomy_simnet::{CostModel, NetworkConfig};

/// Crash vs Byzantine fault tolerance (the failure-model row of Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureModel {
    /// Crash fault tolerant: f+1 (sync) or 2f+1 (async) replicas.
    Crash,
    /// Byzantine fault tolerant: 3f+1 replicas, O(N²) messages.
    Byzantine,
}

/// Which ordering/replication machinery a system uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolKind {
    /// Raft / Paxos style majority consensus (CFT).
    Raft,
    /// PBFT-family three-phase consensus (BFT).
    Pbft,
    /// IBFT — PBFT tuned for blockchains (BFT, no checkpoints).
    Ibft,
    /// Tendermint — BFT consensus with rotating proposers, used by
    /// FalconDB/BigchainDB.
    Tendermint,
    /// Kafka-like shared log (CFT, ordering decoupled from replication).
    SharedLog,
    /// Proof of work (Byzantine-tolerant, probabilistic).
    ProofOfWork,
    /// Primary-backup without consensus (H-Store, Cassandra, DynamoDB).
    PrimaryBackup,
}
dichotomy_common::codec!(Encode for enum ProtocolKind {
    Raft = 0,
    Pbft = 1,
    Ibft = 2,
    Tendermint = 3,
    SharedLog = 4,
    ProofOfWork = 5,
    PrimaryBackup = 6,
});

impl ProtocolKind {
    /// The failure model a protocol addresses.
    pub fn failure_model(&self) -> FailureModel {
        match self {
            ProtocolKind::Raft | ProtocolKind::SharedLog | ProtocolKind::PrimaryBackup => {
                FailureModel::Crash
            }
            ProtocolKind::Pbft
            | ProtocolKind::Ibft
            | ProtocolKind::Tendermint
            | ProtocolKind::ProofOfWork => FailureModel::Byzantine,
        }
    }

    /// Replicas required to tolerate `f` failures (asynchronous network,
    /// Section 3.1.3).
    pub fn replicas_for(&self, f: usize) -> usize {
        match self.failure_model() {
            FailureModel::Crash => 2 * f + 1,
            FailureModel::Byzantine => 3 * f + 1,
        }
    }

    /// Failures tolerated by a cluster of `n` replicas.
    pub fn tolerated_failures(&self, n: usize) -> usize {
        match self.failure_model() {
            FailureModel::Crash => n.saturating_sub(1) / 2,
            FailureModel::Byzantine => n.saturating_sub(1) / 3,
        }
    }

    /// Human-readable protocol name.
    pub fn name(&self) -> &'static str {
        match self {
            ProtocolKind::Raft => "Raft",
            ProtocolKind::Pbft => "PBFT",
            ProtocolKind::Ibft => "IBFT",
            ProtocolKind::Tendermint => "Tendermint",
            ProtocolKind::SharedLog => "shared log (Kafka)",
            ProtocolKind::ProofOfWork => "PoW",
            ProtocolKind::PrimaryBackup => "primary-backup",
        }
    }
}

/// The per-batch costs of running one protocol instance over a given cluster.
#[derive(Debug, Clone)]
pub struct ReplicationProfile {
    /// Protocol in use.
    pub kind: ProtocolKind,
    /// Cluster size participating in ordering.
    pub n: usize,
    /// Network the replicas share.
    pub network: NetworkConfig,
    /// CPU cost model.
    pub costs: CostModel,
    /// Mean PoW block interval (only used by [`ProtocolKind::ProofOfWork`]).
    pub pow_interval_us: u64,
}

impl ReplicationProfile {
    /// Build a profile.
    pub fn new(kind: ProtocolKind, n: usize, network: NetworkConfig, costs: CostModel) -> Self {
        ReplicationProfile {
            kind,
            n: n.max(1),
            network,
            costs,
            pow_interval_us: 15_000_000,
        }
    }

    fn hop_us(&self, bytes: usize) -> u64 {
        self.network.base_latency_us
            + (bytes as f64 / self.network.bandwidth_bytes_per_us) as u64
            + self.network.jitter_us / 2
    }

    /// Time from handing a batch of `payload_bytes` to the leader/primary
    /// until it is durably committed/ordered cluster-wide.
    pub fn commit_latency_us(&self, payload_bytes: usize) -> u64 {
        match self.kind {
            ProtocolKind::Raft => {
                // AppendEntries with payload + ack, plus leader log append.
                self.costs.log_append_us(1) + self.hop_us(payload_bytes) + self.hop_us(64)
            }
            ProtocolKind::Pbft | ProtocolKind::Ibft | ProtocolKind::Tendermint => {
                // Pre-prepare with payload, then two all-to-all small phases;
                // each phase also pays the quorum's signature verifications.
                let quorum = 2 * self.kind.tolerated_failures(self.n) + 1;
                self.hop_us(payload_bytes)
                    + 2 * self.hop_us(96)
                    + 2 * self.costs.verify_signatures_us(quorum)
            }
            ProtocolKind::SharedLog => {
                // Producer -> broker, broker replication round, ack.
                self.hop_us(payload_bytes) + 2 * self.hop_us(64) + self.hop_us(64)
            }
            ProtocolKind::ProofOfWork => self.pow_interval_us + self.hop_us(payload_bytes),
            ProtocolKind::PrimaryBackup => {
                // Primary forwards to backups and waits for the slowest ack.
                self.hop_us(payload_bytes) + self.hop_us(64)
            }
        }
        .max(1)
    }

    /// How long the leader/primary (the serial bottleneck of the protocol) is
    /// occupied per batch: this bounds the rate at which batches can be
    /// started, i.e. peak ordering throughput ≈ 1e6 / occupancy.
    pub fn leader_occupancy_us(&self, payload_bytes: usize) -> u64 {
        let peers = self.n.saturating_sub(1) as f64;
        let serialization = payload_bytes as f64 / self.network.bandwidth_bytes_per_us;
        match self.kind {
            ProtocolKind::Raft => {
                // The leader serializes one copy per follower on its uplink
                // and appends to its log.
                (peers * serialization) as u64 + self.costs.log_append_us(1)
            }
            ProtocolKind::Pbft | ProtocolKind::Ibft | ProtocolKind::Tendermint => {
                // Same dissemination cost, plus processing 2 quorums of
                // signed votes.
                let quorum = 2 * self.kind.tolerated_failures(self.n) + 1;
                (peers * serialization) as u64
                    + self.costs.verify_signatures_us(2 * quorum)
                    + self.costs.log_append_us(1)
            }
            ProtocolKind::SharedLog => {
                // The broker pool ingests the batch once; producers are not
                // the bottleneck.
                serialization as u64 + self.costs.log_append_us(1)
            }
            ProtocolKind::ProofOfWork => {
                // Producing a block occupies the winning miner for the
                // propagation time only; the interval dominates latency, not
                // occupancy.
                serialization as u64 * peers as u64
            }
            ProtocolKind::PrimaryBackup => (peers * serialization) as u64,
        }
        .max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(kind: ProtocolKind, n: usize) -> ReplicationProfile {
        ReplicationProfile::new(kind, n, NetworkConfig::lan_1gbps(), CostModel::calibrated())
    }

    #[test]
    fn replica_requirements_match_section_3_1_3() {
        assert_eq!(ProtocolKind::Raft.replicas_for(1), 3);
        assert_eq!(ProtocolKind::Raft.replicas_for(2), 5);
        assert_eq!(ProtocolKind::Pbft.replicas_for(1), 4);
        assert_eq!(ProtocolKind::Pbft.replicas_for(2), 7);
        assert_eq!(ProtocolKind::Ibft.tolerated_failures(7), 2);
        assert_eq!(ProtocolKind::Raft.tolerated_failures(7), 3);
    }

    #[test]
    fn bft_latency_exceeds_cft_latency() {
        let raft = profile(ProtocolKind::Raft, 7).commit_latency_us(10_000);
        let ibft = profile(ProtocolKind::Ibft, 7).commit_latency_us(10_000);
        assert!(ibft > raft);
    }

    #[test]
    fn shared_log_occupancy_is_independent_of_consumer_count() {
        let small = profile(ProtocolKind::SharedLog, 3).leader_occupancy_us(50_000);
        let large = profile(ProtocolKind::SharedLog, 19).leader_occupancy_us(50_000);
        assert_eq!(small, large);
        // Whereas Raft's leader occupancy grows with followers.
        let raft_small = profile(ProtocolKind::Raft, 3).leader_occupancy_us(50_000);
        let raft_large = profile(ProtocolKind::Raft, 19).leader_occupancy_us(50_000);
        assert!(raft_large > raft_small * 4);
        // And IBFT's grows faster still (Section 3.1): on top of Raft's
        // dissemination it verifies two quorums of votes, 2f+1 each.
        let bft_gap = |n| {
            let raft = profile(ProtocolKind::Raft, n).leader_occupancy_us(50_000);
            let ibft = profile(ProtocolKind::Ibft, n).leader_occupancy_us(50_000);
            assert!(ibft > raft, "n={n}: ibft {ibft} raft {raft}");
            ibft - raft
        };
        let (gap4, gap19) = (bft_gap(4), bft_gap(19));
        assert!(gap19 > gap4 * 4, "gap {gap4} -> {gap19}");
    }

    #[test]
    fn pow_latency_is_dominated_by_the_block_interval() {
        let p = profile(ProtocolKind::ProofOfWork, 8);
        assert!(p.commit_latency_us(1000) >= p.pow_interval_us);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(ProtocolKind::Raft.name(), "Raft");
        assert_eq!(ProtocolKind::SharedLog.name(), "shared log (Kafka)");
        assert_eq!(ProtocolKind::ProofOfWork.name(), "PoW");
    }
}
