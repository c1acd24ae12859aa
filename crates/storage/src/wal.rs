//! A write-ahead log.
//!
//! Section 3.3.1 of the paper contrasts the database storage model — current
//! state plus a WAL that exists only for recovery and is periodically pruned
//! — with the blockchain ledger that keeps all history forever. This module
//! is the database half: an append-only sequence of records with checksums,
//! replay, and truncation (checkpointing), whose footprint counts as
//! `history_bytes`.

use dichotomy_common::codec;
use dichotomy_common::hash::Hash;
use dichotomy_common::size::{encoded_bytes, StorageBreakdown, StorageFootprint};
use dichotomy_common::{Key, Value};

/// One logical WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A write of `key` to `value`.
    Put { key: Key, value: Value },
    /// A deletion of `key`.
    Delete { key: Key },
    /// A commit marker for a transaction (sequence number).
    Commit { txn_seq: u64 },
}
// The on-disk format of a record, which the footprint accounting charges for.
codec!(Encode for enum WalRecord { Put { key, value } = 0, Delete { key } = 1, Commit { txn_seq } = 2 });

impl WalRecord {
    fn checksum(&self) -> Hash {
        match self {
            WalRecord::Put { key, value } => {
                Hash::of_parts(&[b"put", key.as_bytes(), value.as_bytes()])
            }
            WalRecord::Delete { key } => Hash::of_parts(&[b"del", key.as_bytes()]),
            WalRecord::Commit { txn_seq } => Hash::of_parts(&[b"commit", &txn_seq.to_be_bytes()]),
        }
    }
}

/// An entry as stored: record + checksum + log sequence number.
#[derive(Debug, Clone)]
struct WalEntry {
    lsn: u64,
    record: WalRecord,
    checksum: Hash,
}

/// The write-ahead log.
#[derive(Debug, Default)]
pub struct WriteAheadLog {
    entries: Vec<WalEntry>,
    next_lsn: u64,
    /// LSN below which entries have been checkpointed away.
    truncated_below: u64,
}

impl WriteAheadLog {
    /// An empty log.
    pub fn new() -> Self {
        WriteAheadLog::default()
    }

    /// Append a record, returning its log sequence number.
    pub fn append(&mut self, record: WalRecord) -> u64 {
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        let checksum = record.checksum();
        self.entries.push(WalEntry {
            lsn,
            record,
            checksum,
        });
        lsn
    }

    /// Next LSN to be assigned.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Number of retained (non-truncated) entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the retained log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Replay retained records in order, verifying checksums. Corrupt entries
    /// stop the replay (as a real recovery would).
    pub fn replay(&self) -> Vec<&WalRecord> {
        let mut out = Vec::with_capacity(self.entries.len());
        for e in &self.entries {
            if e.record.checksum() != e.checksum {
                break;
            }
            out.push(&e.record);
        }
        out
    }

    /// Drop every entry with `lsn < up_to` (checkpoint), reclaiming history
    /// space the way the paper notes WALs are "periodically pruned".
    pub fn truncate(&mut self, up_to: u64) {
        self.entries.retain(|e| e.lsn >= up_to);
        self.truncated_below = self.truncated_below.max(up_to);
    }

    /// LSN below which entries were truncated.
    pub fn truncated_below(&self) -> u64 {
        self.truncated_below
    }

    /// Corrupt the checksum of the entry holding `lsn` (test hook for the
    /// recovery path).
    #[doc(hidden)]
    pub fn corrupt_for_test(&mut self, lsn: u64) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.lsn == lsn) {
            e.checksum = Hash::ZERO;
        }
    }
}

impl StorageFootprint for WriteAheadLog {
    fn footprint(&self) -> StorageBreakdown {
        // Per entry: the encoded record plus a 32-byte checksum and an
        // 8-byte LSN.
        let history = encoded_bytes(self.entries.iter().map(|e| &e.record))
            + self.entries.len() as u64 * (32 + 8);
        StorageBreakdown {
            payload_bytes: 0,
            index_bytes: 0,
            history_bytes: history,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dichotomy_common::Encode;

    fn put(k: &str, n: usize) -> WalRecord {
        WalRecord::Put {
            key: Key::from_str(k),
            value: Value::filler(n),
        }
    }

    #[test]
    fn append_assigns_monotonic_lsns() {
        let mut wal = WriteAheadLog::new();
        assert_eq!(wal.append(put("a", 4)), 0);
        assert_eq!(wal.append(put("b", 4)), 1);
        assert_eq!(wal.append(WalRecord::Commit { txn_seq: 1 }), 2);
        assert_eq!(wal.next_lsn(), 3);
        assert_eq!(wal.len(), 3);
    }

    #[test]
    fn replay_returns_records_in_order() {
        let mut wal = WriteAheadLog::new();
        wal.append(put("a", 1));
        wal.append(WalRecord::Delete {
            key: Key::from_str("a"),
        });
        wal.append(WalRecord::Commit { txn_seq: 9 });
        let replayed = wal.replay();
        assert_eq!(replayed.len(), 3);
        assert!(matches!(replayed[0], WalRecord::Put { .. }));
        assert!(matches!(replayed[1], WalRecord::Delete { .. }));
        assert!(matches!(replayed[2], WalRecord::Commit { txn_seq: 9 }));
    }

    #[test]
    fn corruption_stops_replay() {
        let mut wal = WriteAheadLog::new();
        wal.append(put("a", 1));
        let bad = wal.append(put("b", 1));
        wal.append(put("c", 1));
        wal.corrupt_for_test(bad);
        assert_eq!(wal.replay().len(), 1);
    }

    #[test]
    fn truncation_prunes_history_bytes() {
        let mut wal = WriteAheadLog::new();
        for i in 0..10 {
            wal.append(put(&format!("k{i}"), 100));
        }
        let before = wal.footprint().history_bytes;
        wal.truncate(5);
        let after = wal.footprint().history_bytes;
        assert_eq!(wal.len(), 5);
        assert!(after < before);
        assert_eq!(wal.truncated_below(), 5);
        // Replay only sees retained entries.
        assert_eq!(wal.replay().len(), 5);
    }

    #[test]
    fn footprint_is_pure_history() {
        let mut wal = WriteAheadLog::new();
        wal.append(put("k", 50));
        let fp = wal.footprint();
        assert_eq!(fp.payload_bytes, 0);
        assert_eq!(fp.index_bytes, 0);
        // The history charge is the canonical encoding plus the 40-byte
        // checksum + LSN overhead.
        assert_eq!(fp.history_bytes, put("k", 50).encoded_len() as u64 + 40);
    }
}
