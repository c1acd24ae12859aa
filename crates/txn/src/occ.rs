//! Fabric-style optimistic concurrency control (execute-order-validate).
//!
//! The lifecycle mirrors Section 5.3.1's description:
//!
//! 1. **Simulate**: the transaction executes against the current committed
//!    state, producing a versioned read set and a write set. In Fabric this
//!    happens on the endorsing peers before ordering.
//! 2. **Order**: (outside this module) the batch gets a position in the
//!    ledger.
//! 3. **Validate & commit**: in ledger order, each transaction's read set is
//!    checked against the *now*-current versions; if any read key has been
//!    overwritten since simulation, the transaction is marked invalid
//!    (`ReadWriteConflict`) and its writes are discarded.
//!
//! Figure 10b's other abort, the **inconsistent read**, is not modelled
//! here: the Fabric model draws it from its endorsement-divergence
//! probability before a transaction reaches ordering.

use dichotomy_common::{AbortReason, Key, Transaction, Value, Version};
use dichotomy_storage::MvccStore;

/// The result of simulating a transaction against a snapshot.
#[derive(Debug, Clone)]
pub struct SimulationResult {
    /// (key, version read) pairs; version 0 means "key did not exist".
    pub read_set: Vec<(Key, Version)>,
    /// (key, value) pairs to write if the transaction commits.
    pub write_set: Vec<(Key, Value)>,
}

/// Phase 1: simulate `txn` against the latest committed state of `store`.
pub fn simulate(txn: &Transaction, store: &MvccStore) -> SimulationResult {
    let mut read_set = Vec::new();
    for op in txn.ops().iter().filter(|op| op.reads()) {
        let version = store.latest_key_version(&op.key).unwrap_or(0);
        read_set.push((op.key.clone(), version));
    }
    // Blind writes still record the key's current version in the read set
    // (Fabric includes written keys' versions for phantom protection).
    for op in txn.ops().iter().filter(|op| op.writes() && !op.reads()) {
        let version = store.latest_key_version(&op.key).unwrap_or(0);
        read_set.push((op.key.clone(), version));
    }
    let write_set = effective_writes(txn);
    SimulationResult {
        read_set,
        write_set,
    }
}

/// The (key, value) pairs `txn` writes. A read-modify-write writes its
/// operation's payload whatever it read, which keeps the sizes the
/// workloads set; a write with no payload writes an empty value.
fn effective_writes(txn: &Transaction) -> Vec<(Key, Value)> {
    txn.ops()
        .iter()
        .filter(|op| op.writes())
        .map(|op| {
            let value = op.value.clone().unwrap_or_else(|| Value::new(Vec::new()));
            (op.key.clone(), value)
        })
        .collect()
}

/// Phase 3: validate a simulation against the current store and commit its
/// writes if every read version is still current.
pub fn validate_and_commit(
    sim: &SimulationResult,
    store: &mut MvccStore,
) -> Result<Version, AbortReason> {
    for (key, version_read) in &sim.read_set {
        let current = store.latest_key_version(key).unwrap_or(0);
        if current != *version_read {
            return Err(AbortReason::ReadWriteConflict);
        }
    }
    let commit_version = store.begin_commit();
    for (key, value) in &sim.write_set {
        store.commit_write(key.clone(), commit_version, Some(value.clone()));
    }
    Ok(commit_version)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dichotomy_common::{ClientId, Operation, TxnId};

    fn rmw(seq: u64, key: &str) -> Transaction {
        Transaction::new(
            TxnId::new(ClientId(1), seq),
            vec![Operation::read_modify_write(
                Key::from_str(key),
                Value::filler(8),
            )],
        )
    }

    fn seed(store: &mut MvccStore, keys: &[&str]) {
        let v = store.begin_commit();
        for k in keys {
            store.commit_write(Key::from_str(k), v, Some(Value::filler(4)));
        }
    }

    /// A Fabric block: every transaction simulated against the pre-block
    /// state, then validated and committed in order.
    fn execute_block(
        txns: &[Transaction],
        store: &mut MvccStore,
    ) -> Vec<Result<Version, AbortReason>> {
        let sims: Vec<SimulationResult> = txns.iter().map(|t| simulate(t, store)).collect();
        sims.iter()
            .map(|sim| validate_and_commit(sim, store))
            .collect()
    }

    #[test]
    fn non_conflicting_transactions_all_commit() {
        let mut store = MvccStore::new();
        seed(&mut store, &["a", "b", "c"]);
        let txns = vec![rmw(1, "a"), rmw(2, "b"), rmw(3, "c")];
        let results = execute_block(&txns, &mut store);
        assert!(results.iter().all(Result::is_ok));
    }

    #[test]
    fn conflicting_transactions_in_one_block_abort_all_but_the_first() {
        let mut store = MvccStore::new();
        seed(&mut store, &["hot"]);
        let txns = vec![rmw(1, "hot"), rmw(2, "hot"), rmw(3, "hot")];
        let results = execute_block(&txns, &mut store);
        assert!(results[0].is_ok());
        assert_eq!(results[1], Err(AbortReason::ReadWriteConflict));
        assert_eq!(results[2], Err(AbortReason::ReadWriteConflict));
    }

    #[test]
    fn stale_simulation_aborts_after_interleaved_commit() {
        let mut store = MvccStore::new();
        seed(&mut store, &["x"]);
        let sim = simulate(&rmw(1, "x"), &store);
        // Another transaction commits to "x" between simulation and validation.
        let v = store.begin_commit();
        store.commit_write(Key::from_str("x"), v, Some(Value::filler(9)));
        assert_eq!(
            validate_and_commit(&sim, &mut store),
            Err(AbortReason::ReadWriteConflict)
        );
    }

    #[test]
    fn aborted_transactions_leave_no_trace() {
        let mut store = MvccStore::new();
        seed(&mut store, &["x"]);
        let before = store.latest_version();
        let sim = simulate(&rmw(1, "x"), &store);
        let v = store.begin_commit();
        store.commit_write(Key::from_str("x"), v, Some(Value::filler(9)));
        let _ = validate_and_commit(&sim, &mut store);
        // Only the interleaved write advanced the version.
        assert_eq!(store.latest_version(), before + 1);
        assert_eq!(store.get_latest(&Key::from_str("x")).unwrap().len(), 9);
    }

    #[test]
    fn blind_writes_conflict_too() {
        let mut store = MvccStore::new();
        seed(&mut store, &["w"]);
        let blind = Transaction::new(
            TxnId::new(ClientId(1), 1),
            vec![Operation::write(Key::from_str("w"), Value::filler(8))],
        );
        let sim = simulate(&blind, &store);
        let v = store.begin_commit();
        store.commit_write(Key::from_str("w"), v, Some(Value::filler(7)));
        assert_eq!(
            validate_and_commit(&sim, &mut store),
            Err(AbortReason::ReadWriteConflict)
        );
    }

    #[test]
    fn reads_of_missing_keys_validate_against_version_zero() {
        let mut store = MvccStore::new();
        let sim = simulate(&rmw(1, "new"), &store);
        assert_eq!(sim.read_set[0].1, 0);
        assert!(validate_and_commit(&sim, &mut store).is_ok());
    }
}
