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
//! The module also models the **inconsistent read** abort of Figure 10b: when
//! several endorsers simulate against different snapshots, the client detects
//! mismatching results and gives up before ordering.

use dichotomy_common::{AbortReason, Key, Transaction, Value, Version};
use dichotomy_storage::MvccStore;

use crate::effective_writes;

/// The result of simulating a transaction against a snapshot.
#[derive(Debug, Clone)]
pub struct SimulationResult {
    /// (key, version read) pairs; version 0 means "key did not exist".
    pub read_set: Vec<(Key, Version)>,
    /// Values read (returned to the client / used by RMW logic).
    pub reads: Vec<(Key, Option<Value>)>,
    /// (key, value) pairs to write if the transaction commits.
    pub write_set: Vec<(Key, Value)>,
    /// Snapshot version the simulation ran against.
    pub snapshot: Version,
}

/// The OCC executor: stateless apart from statistics.
#[derive(Debug, Default)]
pub struct OccExecutor {
    committed: u64,
    aborted: u64,
}

impl OccExecutor {
    /// A fresh executor.
    pub fn new() -> Self {
        OccExecutor::default()
    }

    /// Transactions committed so far.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Transactions aborted so far.
    pub fn aborted(&self) -> u64 {
        self.aborted
    }

    /// Phase 1: simulate `txn` against the latest committed state of `store`.
    pub fn simulate(&self, txn: &Transaction, store: &MvccStore) -> SimulationResult {
        let snapshot = store.latest_version();
        let mut read_set = Vec::new();
        let mut reads = Vec::new();
        for op in txn.ops().iter().filter(|op| op.reads()) {
            let version = store.latest_key_version(&op.key).unwrap_or(0);
            read_set.push((op.key.clone(), version));
            reads.push((op.key.clone(), store.get_latest(&op.key)));
        }
        // Blind writes still record the key's current version in the read set
        // (Fabric includes written keys' versions for phantom protection).
        for op in txn.ops().iter().filter(|op| op.writes() && !op.reads()) {
            let version = store.latest_key_version(&op.key).unwrap_or(0);
            read_set.push((op.key.clone(), version));
        }
        let write_set = effective_writes(txn, &reads);
        SimulationResult {
            read_set,
            reads,
            write_set,
            snapshot,
        }
    }

    /// Client-side endorsement comparison: with `endorsers` peers simulating
    /// independently, peers whose snapshots lag behind the freshest one by
    /// more than zero versions on any read key return different results, and
    /// the client aborts with `InconsistentRead`. `staleness` carries each
    /// endorser's snapshot version.
    pub fn check_endorsements(&mut self, results: &[SimulationResult]) -> Result<(), AbortReason> {
        if results.len() <= 1 {
            return Ok(());
        }
        let reference = &results[0];
        for other in &results[1..] {
            if other.read_set != reference.read_set {
                self.aborted += 1;
                return Err(AbortReason::InconsistentRead);
            }
        }
        Ok(())
    }

    /// Phase 3: validate a simulation against the current store and commit
    /// its writes if every read version is still current.
    pub fn validate_and_commit(
        &mut self,
        sim: &SimulationResult,
        store: &mut MvccStore,
    ) -> Result<Version, AbortReason> {
        for (key, version_read) in &sim.read_set {
            let current = store.latest_key_version(key).unwrap_or(0);
            if current != *version_read {
                self.aborted += 1;
                return Err(AbortReason::ReadWriteConflict);
            }
        }
        let commit_version = store.begin_commit();
        for (key, value) in &sim.write_set {
            store.commit_write(key.clone(), commit_version, Some(value.clone()));
        }
        self.committed += 1;
        Ok(commit_version)
    }

    /// Convenience: run the full simulate → validate → commit pipeline for a
    /// batch that was simulated upfront and then committed in order — the
    /// exact pattern a Fabric block goes through. Returns per-transaction
    /// outcomes.
    pub fn execute_block(
        &mut self,
        txns: &[Transaction],
        store: &mut MvccStore,
    ) -> Vec<Result<Version, AbortReason>> {
        // All transactions in the block were simulated before ordering, i.e.
        // against (approximately) the same pre-block state.
        let sims: Vec<SimulationResult> = txns.iter().map(|t| self.simulate(t, store)).collect();
        sims.iter()
            .map(|sim| self.validate_and_commit(sim, store))
            .collect()
    }
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

    #[test]
    fn non_conflicting_transactions_all_commit() {
        let mut store = MvccStore::new();
        seed(&mut store, &["a", "b", "c"]);
        let mut occ = OccExecutor::new();
        let txns = vec![rmw(1, "a"), rmw(2, "b"), rmw(3, "c")];
        let results = occ.execute_block(&txns, &mut store);
        assert!(results.iter().all(Result::is_ok));
        assert_eq!(occ.committed(), 3);
        assert_eq!(occ.aborted(), 0);
    }

    #[test]
    fn conflicting_transactions_in_one_block_abort_all_but_the_first() {
        let mut store = MvccStore::new();
        seed(&mut store, &["hot"]);
        let mut occ = OccExecutor::new();
        let txns = vec![rmw(1, "hot"), rmw(2, "hot"), rmw(3, "hot")];
        let results = occ.execute_block(&txns, &mut store);
        assert!(results[0].is_ok());
        assert_eq!(results[1], Err(AbortReason::ReadWriteConflict));
        assert_eq!(results[2], Err(AbortReason::ReadWriteConflict));
        assert_eq!(occ.committed(), 1);
        assert_eq!(occ.aborted(), 2);
    }

    #[test]
    fn stale_simulation_aborts_after_interleaved_commit() {
        let mut store = MvccStore::new();
        seed(&mut store, &["x"]);
        let mut occ = OccExecutor::new();
        let sim = occ.simulate(&rmw(1, "x"), &store);
        // Another transaction commits to "x" between simulation and validation.
        let v = store.begin_commit();
        store.commit_write(Key::from_str("x"), v, Some(Value::filler(9)));
        assert_eq!(
            occ.validate_and_commit(&sim, &mut store),
            Err(AbortReason::ReadWriteConflict)
        );
    }

    #[test]
    fn aborted_transactions_leave_no_trace() {
        let mut store = MvccStore::new();
        seed(&mut store, &["x"]);
        let before = store.latest_version();
        let mut occ = OccExecutor::new();
        let sim = occ.simulate(&rmw(1, "x"), &store);
        let v = store.begin_commit();
        store.commit_write(Key::from_str("x"), v, Some(Value::filler(9)));
        let _ = occ.validate_and_commit(&sim, &mut store);
        // Only the interleaved write advanced the version.
        assert_eq!(store.latest_version(), before + 1);
        assert_eq!(store.get_latest(&Key::from_str("x")).unwrap().len(), 9);
    }

    #[test]
    fn blind_writes_conflict_too() {
        let mut store = MvccStore::new();
        seed(&mut store, &["w"]);
        let mut occ = OccExecutor::new();
        let blind = Transaction::new(
            TxnId::new(ClientId(1), 1),
            vec![Operation::write(Key::from_str("w"), Value::filler(8))],
        );
        let sim = occ.simulate(&blind, &store);
        let v = store.begin_commit();
        store.commit_write(Key::from_str("w"), v, Some(Value::filler(7)));
        assert_eq!(
            occ.validate_and_commit(&sim, &mut store),
            Err(AbortReason::ReadWriteConflict)
        );
    }

    #[test]
    fn reads_of_missing_keys_validate_against_version_zero() {
        let mut store = MvccStore::new();
        let mut occ = OccExecutor::new();
        let sim = occ.simulate(&rmw(1, "new"), &store);
        assert_eq!(sim.read_set[0].1, 0);
        assert!(occ.validate_and_commit(&sim, &mut store).is_ok());
    }

    #[test]
    fn mismatching_endorsements_abort_with_inconsistent_read() {
        let mut store = MvccStore::new();
        seed(&mut store, &["k"]);
        let mut occ = OccExecutor::new();
        let txn = rmw(1, "k");
        let sim_fresh = occ.simulate(&txn, &store);
        // A second endorser simulates against a *newer* state (its peer
        // committed another block already).
        let mut lagging_store = MvccStore::new();
        seed(&mut lagging_store, &["k"]);
        let v = lagging_store.begin_commit();
        lagging_store.commit_write(Key::from_str("k"), v, Some(Value::filler(6)));
        let sim_stale = occ.simulate(&txn, &lagging_store);
        assert_eq!(
            occ.check_endorsements(&[sim_fresh.clone(), sim_stale]),
            Err(AbortReason::InconsistentRead)
        );
        // Identical endorsements pass.
        assert!(occ
            .check_endorsements(&[sim_fresh.clone(), sim_fresh])
            .is_ok());
    }
}
