//! Percolator-style transactions, the scheme TiDB layers over TiKV.
//!
//! A transaction reads at a start-timestamp snapshot, then commits in two
//! phases: **prewrite** locks every written key (choosing one *primary* lock
//! whose fate decides the whole transaction) and fails on write-write
//! conflicts — either a newer committed version than the snapshot or a lock
//! held by another transaction — and **commit** publishes the writes at a
//! commit timestamp and releases the locks.
//!
//! Two behaviours matter for the paper's figures:
//!
//! * write-write conflict aborts grow with skew and with the number of keys
//!   touched (Figures 9b, 10b), and
//! * under high contention the coordinator spends its time on lock conflicts
//!   and retries on the primary key rather than on useful work, which is the
//!   mechanism behind TiDB's 90 % throughput collapse at θ = 1 even though
//!   only 30 % of transactions abort (Section 5.3.1). The executor therefore
//!   reports, per transaction, how many lock-conflict rounds it went through.

use std::collections::BTreeMap;

use dichotomy_common::{AbortReason, Key, Transaction, TxnId, Value, Version};
use dichotomy_storage::MvccStore;

use crate::effective_writes;

/// An in-flight lock.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Lock {
    owner: TxnId,
    /// The transaction's primary key (lock resolution chases this).
    primary: Key,
    start_ts: Version,
}

/// Outcome of a successful commit.
#[derive(Debug, Clone)]
pub struct PercolatorOutcome {
    /// Snapshot the transaction read at.
    pub start_ts: Version,
    /// Commit timestamp.
    pub commit_ts: Version,
    /// Values read.
    pub reads: Vec<(Key, Option<Value>)>,
    /// How many prewrite attempts hit a lock conflict before succeeding or
    /// giving up (each costs the coordinator a round of conflict resolution).
    pub lock_conflict_rounds: u32,
}

/// The Percolator executor: the lock table is shared state of the storage
/// layer (TiKV's lock column family).
#[derive(Debug, Default)]
pub struct PercolatorExecutor {
    locks: BTreeMap<Key, Lock>,
}

impl PercolatorExecutor {
    /// A fresh executor with an empty lock table.
    pub fn new() -> Self {
        PercolatorExecutor::default()
    }

    /// Locks currently held (the lock-leak tests check it drains to zero).
    pub fn locks_held(&self) -> usize {
        self.locks.len()
    }

    /// Execute a full transaction: snapshot read, prewrite, commit. Aborts
    /// with `WriteWriteConflict` when a written key has a committed version
    /// newer than the snapshot, and with `LockConflict` when another
    /// transaction holds a lock on a written key (after `max_lock_retries`
    /// rounds of waiting for it to clear).
    pub fn execute(
        &mut self,
        txn: &Transaction,
        store: &mut MvccStore,
        max_lock_retries: u32,
    ) -> Result<PercolatorOutcome, (AbortReason, u32)> {
        let start_ts = store.latest_version();
        // Snapshot reads.
        let reads: Vec<(Key, Option<Value>)> = txn
            .ops()
            .iter()
            .filter(|op| op.reads())
            .map(|op| (op.key.clone(), store.get_at(&op.key, start_ts)))
            .collect();
        let writes = effective_writes(txn, &reads);
        if writes.is_empty() {
            // Read-only transactions commit trivially at the snapshot.
            return Ok(PercolatorOutcome {
                start_ts,
                commit_ts: start_ts,
                reads,
                lock_conflict_rounds: 0,
            });
        }
        let primary = writes[0].0.clone();

        // Prewrite with bounded lock-conflict retries.
        let mut conflict_rounds = 0u32;
        loop {
            match self.try_prewrite(txn.id(), &primary, &writes, start_ts, store) {
                Ok(()) => break,
                Err(AbortReason::LockConflict) if conflict_rounds < max_lock_retries => {
                    conflict_rounds += 1;
                    // In a real system the coordinator would wait and resolve
                    // the blocking lock; in this deterministic model the
                    // blocking transaction has either committed (releasing
                    // the lock) by the next attempt or we eventually abort.
                    continue;
                }
                Err(reason) => {
                    return Err((reason, conflict_rounds));
                }
            }
        }

        // Commit: publish writes and release locks.
        let commit_ts = store.begin_commit();
        for (key, value) in &writes {
            store.commit_write(key.clone(), commit_ts, Some(value.clone()));
            self.locks.remove(key);
        }
        Ok(PercolatorOutcome {
            start_ts,
            commit_ts,
            reads,
            lock_conflict_rounds: conflict_rounds,
        })
    }

    fn try_prewrite(
        &mut self,
        id: TxnId,
        primary: &Key,
        writes: &[(Key, Value)],
        start_ts: Version,
        store: &MvccStore,
    ) -> Result<(), AbortReason> {
        // Check conflicts on every written key first (no partial locking).
        for (key, _) in writes {
            if let Some(lock) = self.locks.get(key) {
                if lock.owner != id {
                    return Err(AbortReason::LockConflict);
                }
            }
            if store.latest_key_version(key).unwrap_or(0) > start_ts {
                return Err(AbortReason::WriteWriteConflict);
            }
        }
        // Acquire all locks.
        for (key, _) in writes {
            self.locks.insert(
                key.clone(),
                Lock {
                    owner: id,
                    primary: primary.clone(),
                    start_ts,
                },
            );
        }
        Ok(())
    }

    /// Abort an in-flight transaction (release its locks without writing).
    /// Used by the system models when a 2PC participant votes no.
    pub fn release_locks(&mut self, id: TxnId) {
        self.locks.retain(|_, lock| lock.owner != id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dichotomy_common::{ClientId, Operation};

    fn txn(client: u64, seq: u64, keys: &[&str]) -> Transaction {
        Transaction::new(
            TxnId::new(ClientId(client), seq),
            keys.iter()
                .map(|k| Operation::read_modify_write(Key::from_str(k), Value::filler(8)))
                .collect(),
        )
    }

    fn seed(store: &mut MvccStore, keys: &[&str]) {
        let v = store.begin_commit();
        for k in keys {
            store.commit_write(Key::from_str(k), v, Some(Value::filler(4)));
        }
    }

    #[test]
    fn sequential_transactions_commit() {
        let mut store = MvccStore::new();
        seed(&mut store, &["a", "b"]);
        let mut exec = PercolatorExecutor::new();
        for seq in 1..=5 {
            let out = exec
                .execute(&txn(1, seq, &["a", "b"]), &mut store, 3)
                .unwrap();
            assert!(out.commit_ts > out.start_ts);
            assert_eq!(out.lock_conflict_rounds, 0);
        }
        assert_eq!(exec.locks_held(), 0);
    }

    #[test]
    fn write_write_conflict_when_snapshot_is_stale() {
        let mut store = MvccStore::new();
        seed(&mut store, &["hot"]);
        let mut exec = PercolatorExecutor::new();
        // Take a snapshot, then someone else commits a newer version.
        let t = txn(1, 1, &["hot"]);
        let start_ts = store.latest_version();
        let v = store.begin_commit();
        store.commit_write(Key::from_str("hot"), v, Some(Value::filler(9)));
        assert!(store.latest_version() > start_ts);
        // Re-running execute takes a fresh snapshot, so emulate the stale one
        // by interleaving: first prewrite manually via execute on a store
        // whose latest moved after the snapshot was taken inside execute.
        // Simplest deterministic check: two transactions writing the same key
        // where the first commits between the second's snapshot and prewrite
        // cannot happen in this single-threaded API, so assert the direct
        // conflict path instead.
        let writes = vec![(Key::from_str("hot"), Value::filler(8))];
        let err = exec
            .try_prewrite(t.id(), &Key::from_str("hot"), &writes, start_ts, &store)
            .unwrap_err();
        assert_eq!(err, AbortReason::WriteWriteConflict);
    }

    #[test]
    fn lock_conflict_aborts_after_retries() {
        let mut store = MvccStore::new();
        seed(&mut store, &["hot"]);
        let mut exec = PercolatorExecutor::new();
        // Transaction A prewrites but never commits (simulating a stalled
        // coordinator holding the primary lock).
        let a = txn(1, 1, &["hot"]);
        let writes = vec![(Key::from_str("hot"), Value::filler(8))];
        exec.try_prewrite(
            a.id(),
            &Key::from_str("hot"),
            &writes,
            store.latest_version(),
            &store,
        )
        .unwrap();
        assert_eq!(exec.locks_held(), 1);
        // Transaction B now conflicts on the lock and eventually aborts.
        let b = txn(2, 1, &["hot"]);
        let (reason, rounds) = exec.execute(&b, &mut store, 3).unwrap_err();
        assert_eq!(reason, AbortReason::LockConflict);
        assert_eq!(rounds, 3);
        // Once A's locks are resolved, B retries successfully.
        exec.release_locks(a.id());
        assert!(exec.execute(&b, &mut store, 3).is_ok());
    }

    #[test]
    fn read_only_transactions_never_conflict() {
        let mut store = MvccStore::new();
        seed(&mut store, &["r"]);
        let mut exec = PercolatorExecutor::new();
        let read = Transaction::new(
            TxnId::new(ClientId(3), 1),
            vec![Operation::read(Key::from_str("r"))],
        );
        let out = exec.execute(&read, &mut store, 3).unwrap();
        assert_eq!(out.start_ts, out.commit_ts);
        assert_eq!(out.reads[0].1.as_ref().unwrap().len(), 4);
    }

    #[test]
    fn snapshot_reads_ignore_later_writes() {
        let mut store = MvccStore::new();
        seed(&mut store, &["k"]);
        // The snapshot is taken inside execute; a later write (applied by the
        // same executor) must not be visible to an earlier snapshot read.
        let mut exec = PercolatorExecutor::new();
        let w = txn(1, 1, &["k"]);
        exec.execute(&w, &mut store, 3).unwrap();
        let r = Transaction::new(
            TxnId::new(ClientId(2), 1),
            vec![Operation::read(Key::from_str("k"))],
        );
        let out = exec.execute(&r, &mut store, 3).unwrap();
        assert_eq!(out.reads[0].1.as_ref().unwrap().len(), 8);
    }

    #[test]
    fn multi_key_transactions_lock_all_or_nothing() {
        let mut store = MvccStore::new();
        seed(&mut store, &["a", "b", "c"]);
        let mut exec = PercolatorExecutor::new();
        // Hold a lock on "b".
        let blocker = txn(9, 1, &["b"]);
        exec.try_prewrite(
            blocker.id(),
            &Key::from_str("b"),
            &[(Key::from_str("b"), Value::filler(8))],
            store.latest_version(),
            &store,
        )
        .unwrap();
        // A transaction touching a, b, c must not leave partial locks behind.
        let t = txn(1, 1, &["a", "b", "c"]);
        assert!(exec.execute(&t, &mut store, 1).is_err());
        assert_eq!(exec.locks_held(), 1, "only the blocker's lock remains");
    }
}
