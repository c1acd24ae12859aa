//! Tables 1 and 2 of the paper as typed, queryable data: every system's
//! position along the four design dimensions.

use dichotomy_consensus::{FailureModel, ProtocolKind};

/// The unit of replication (the first row of Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicationModel {
    /// The ordered log of transactions is replicated (blockchains).
    TransactionBased,
    /// The ordered log of storage operations is replicated (databases).
    StorageBased,
}

/// The concurrency dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConcurrencyChoice {
    /// Transactions execute strictly one at a time.
    Serial,
    /// Transactions execute concurrently (any CC scheme).
    Concurrent,
    /// Fabric-style: concurrent execution, serial commit/validation.
    ConcurrentExecutionSerialCommit,
}

/// Whether an append-only, hash-protected ledger is part of the storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LedgerSupport {
    Yes,
    No,
}

/// The state index (the "Index (Storage Engine)" column of Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageIndex {
    /// LSM tree without an authenticated index.
    Lsm,
    /// LSM tree plus a Merkle Patricia Trie.
    LsmWithMpt,
    /// LSM tree plus a Merkle Bucket Tree.
    LsmWithMbt,
    /// B/B+ tree without an authenticated index.
    BTree,
    /// B tree plus an external authenticated structure (FalconDB/IntegriDB).
    BTreeWithMerkle,
    /// Skip list (Redis) without an authenticated index.
    SkipList,
}

/// Whether the system shards and runs 2PC across shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardingSupport {
    None,
    TwoPcTrustedCoordinator,
    TwoPcBftCoordinator,
}

/// Table 2's row groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemCategory {
    PermissionlessBlockchain,
    PermissionedBlockchain,
    NewSqlDatabase,
    NoSqlDatabase,
    OutOfBlockchainDatabase,
    OutOfDatabaseBlockchain,
}

/// One row of Table 2.
#[derive(Debug, Clone)]
pub struct SystemProfile {
    /// System name as used in the paper.
    pub name: &'static str,
    /// Which row group it belongs to.
    pub category: SystemCategory,
    /// Replication model.
    pub replication: ReplicationModel,
    /// Ordering/replication machinery.
    pub protocol: ProtocolKind,
    /// Concurrency choice.
    pub concurrency: ConcurrencyChoice,
    /// Ledger abstraction present?
    pub ledger: LedgerSupport,
    /// State index.
    pub index: StorageIndex,
    /// Sharding support.
    pub sharding: ShardingSupport,
    /// Reported peak throughput (tps) where the paper or the system's own
    /// publications state one; used by the Figure 15 comparison.
    pub reported_tps: Option<f64>,
}

impl SystemProfile {
    /// The failure model implied by the protocol.
    pub fn failure_model(&self) -> FailureModel {
        self.protocol.failure_model()
    }

    /// Whether the design is security-oriented on the replication dimension
    /// (transaction-based replication), the red/blue colouring of Table 2.
    pub fn security_oriented_replication(&self) -> bool {
        self.replication == ReplicationModel::TransactionBased
    }
}

/// Every system classified in Table 2 (the benchmarked ones and the hybrids).
pub fn all_systems() -> Vec<SystemProfile> {
    use ConcurrencyChoice::*;
    use LedgerSupport::*;
    use ReplicationModel::*;
    use StorageIndex::*;
    use SystemCategory::*;
    vec![
        SystemProfile {
            name: "Ethereum",
            category: PermissionlessBlockchain,
            replication: TransactionBased,
            protocol: ProtocolKind::ProofOfWork,
            concurrency: Serial,
            ledger: Yes,
            index: LsmWithMpt,
            sharding: ShardingSupport::None,
            reported_tps: Some(15.0),
        },
        SystemProfile {
            name: "Quorum v2.2",
            category: PermissionedBlockchain,
            replication: TransactionBased,
            protocol: ProtocolKind::Raft,
            concurrency: Serial,
            ledger: Yes,
            index: LsmWithMpt,
            sharding: ShardingSupport::None,
            reported_tps: Some(245.0),
        },
        SystemProfile {
            name: "Fabric v2.2",
            category: PermissionedBlockchain,
            replication: TransactionBased,
            protocol: ProtocolKind::SharedLog,
            concurrency: ConcurrentExecutionSerialCommit,
            ledger: Yes,
            index: Lsm,
            sharding: ShardingSupport::None,
            reported_tps: Some(1294.0),
        },
        SystemProfile {
            name: "Fabric v0.6",
            category: PermissionedBlockchain,
            replication: TransactionBased,
            protocol: ProtocolKind::Pbft,
            concurrency: Serial,
            ledger: Yes,
            index: LsmWithMbt,
            sharding: ShardingSupport::None,
            reported_tps: None,
        },
        SystemProfile {
            name: "TiDB v4.0",
            category: NewSqlDatabase,
            replication: StorageBased,
            protocol: ProtocolKind::Raft,
            concurrency: Concurrent,
            ledger: No,
            index: Lsm,
            sharding: ShardingSupport::TwoPcTrustedCoordinator,
            reported_tps: Some(5159.0),
        },
        SystemProfile {
            name: "CockroachDB",
            category: NewSqlDatabase,
            replication: StorageBased,
            protocol: ProtocolKind::Raft,
            concurrency: Concurrent,
            ledger: No,
            index: Lsm,
            sharding: ShardingSupport::TwoPcTrustedCoordinator,
            reported_tps: None,
        },
        SystemProfile {
            name: "Spanner",
            category: NewSqlDatabase,
            replication: StorageBased,
            protocol: ProtocolKind::Raft,
            concurrency: Concurrent,
            ledger: No,
            index: Lsm,
            sharding: ShardingSupport::TwoPcTrustedCoordinator,
            reported_tps: None,
        },
        SystemProfile {
            name: "etcd v3.3",
            category: NoSqlDatabase,
            replication: StorageBased,
            protocol: ProtocolKind::Raft,
            concurrency: Serial,
            ledger: No,
            index: BTree,
            sharding: ShardingSupport::None,
            reported_tps: Some(16781.0),
        },
        SystemProfile {
            name: "BlockchainDB",
            category: OutOfBlockchainDatabase,
            replication: StorageBased,
            protocol: ProtocolKind::ProofOfWork,
            concurrency: Serial,
            ledger: Yes,
            index: LsmWithMpt,
            sharding: ShardingSupport::TwoPcTrustedCoordinator,
            reported_tps: Some(200.0),
        },
        SystemProfile {
            name: "Veritas",
            category: OutOfBlockchainDatabase,
            replication: StorageBased,
            protocol: ProtocolKind::SharedLog,
            concurrency: ConcurrentExecutionSerialCommit,
            ledger: Yes,
            index: SkipList,
            sharding: ShardingSupport::None,
            reported_tps: Some(29_000.0),
        },
        SystemProfile {
            name: "FalconDB",
            category: OutOfBlockchainDatabase,
            replication: StorageBased,
            protocol: ProtocolKind::Tendermint,
            concurrency: ConcurrentExecutionSerialCommit,
            ledger: Yes,
            index: BTreeWithMerkle,
            sharding: ShardingSupport::None,
            reported_tps: Some(2_000.0),
        },
        SystemProfile {
            name: "BRD",
            category: OutOfDatabaseBlockchain,
            replication: TransactionBased,
            protocol: ProtocolKind::SharedLog,
            concurrency: Concurrent,
            ledger: Yes,
            index: BTree,
            sharding: ShardingSupport::None,
            reported_tps: Some(2_700.0),
        },
        SystemProfile {
            name: "ChainifyDB",
            category: OutOfDatabaseBlockchain,
            replication: TransactionBased,
            protocol: ProtocolKind::SharedLog,
            concurrency: Concurrent,
            ledger: Yes,
            index: BTree,
            sharding: ShardingSupport::None,
            reported_tps: Some(6_100.0),
        },
        SystemProfile {
            name: "BigchainDB",
            category: OutOfDatabaseBlockchain,
            replication: TransactionBased,
            protocol: ProtocolKind::Tendermint,
            concurrency: Concurrent,
            ledger: Yes,
            index: BTree,
            sharding: ShardingSupport::None,
            reported_tps: Some(300.0),
        },
    ]
}

/// Render Table 2 as a fixed-width text table (the text of the Table 2 plan,
/// `tab02_plan`).
pub fn render_table2() -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<14} {:<26} {:<12} {:<12} {:<34} {:<7} {:<10}\n",
        "System", "Category", "Replication", "Protocol", "Concurrency", "Ledger", "Sharding"
    ));
    for s in all_systems() {
        out.push_str(&format!(
            "{:<14} {:<26} {:<12} {:<12} {:<34} {:<7} {:<10}\n",
            s.name,
            format!("{:?}", s.category),
            match s.replication {
                ReplicationModel::TransactionBased => "txn",
                ReplicationModel::StorageBased => "storage",
            },
            s.protocol.name(),
            format!("{:?}", s.concurrency),
            match s.ledger {
                LedgerSupport::Yes => "yes",
                LedgerSupport::No => "no",
            },
            format!("{:?}", s.sharding),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_contains_the_four_benchmarked_systems() {
        let names: Vec<&str> = all_systems().iter().map(|s| s.name).collect();
        for expected in ["Quorum v2.2", "Fabric v2.2", "TiDB v4.0", "etcd v3.3"] {
            assert!(names.contains(&expected), "missing {expected}");
        }
    }

    #[test]
    fn blockchains_replicate_transactions_databases_replicate_storage() {
        for s in all_systems() {
            match s.category {
                SystemCategory::PermissionedBlockchain
                | SystemCategory::PermissionlessBlockchain
                | SystemCategory::OutOfDatabaseBlockchain => {
                    assert_eq!(
                        s.replication,
                        ReplicationModel::TransactionBased,
                        "{}",
                        s.name
                    )
                }
                SystemCategory::NewSqlDatabase
                | SystemCategory::NoSqlDatabase
                | SystemCategory::OutOfBlockchainDatabase => {
                    assert_eq!(s.replication, ReplicationModel::StorageBased, "{}", s.name)
                }
            }
        }
    }

    #[test]
    fn only_ledger_systems_use_authenticated_indexes() {
        for s in all_systems() {
            if matches!(
                s.index,
                StorageIndex::LsmWithMpt | StorageIndex::LsmWithMbt | StorageIndex::BTreeWithMerkle
            ) {
                assert_eq!(s.ledger, LedgerSupport::Yes, "{}", s.name);
            }
        }
    }

    #[test]
    fn failure_models_follow_the_protocols() {
        let systems = all_systems();
        let quorum = systems.iter().find(|s| s.name == "Quorum v2.2").unwrap();
        assert_eq!(quorum.failure_model(), FailureModel::Crash);
        let bigchain = systems.iter().find(|s| s.name == "BigchainDB").unwrap();
        assert_eq!(bigchain.failure_model(), FailureModel::Byzantine);
        assert!(quorum.security_oriented_replication());
        let tidb = systems.iter().find(|s| s.name == "TiDB v4.0").unwrap();
        assert!(!tidb.security_oriented_replication());
    }

    #[test]
    fn table_rendering_mentions_every_system() {
        let rendered = render_table2();
        for s in all_systems() {
            assert!(
                rendered.contains(s.name),
                "{} missing from rendering",
                s.name
            );
        }
    }
}
