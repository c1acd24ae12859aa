//! The append-only, hash-chained ledger (Section 3.3.1).
//!
//! Every blockchain model in the workspace commits blocks into a [`Ledger`]:
//! a chain whose integrity can be re-verified end to end and whose storage
//! footprint counts as *history* (this is the "significant storage overhead"
//! of Figure 12). Each block keeps every transaction envelope (a signed one
//! is counted with its signature bytes) and one validation flag per
//! transaction, which is what that history costs; the ledger answers no
//! historical queries.
//!
//! The ledger hashes on demand. No simulated cost depends on when a block's
//! hashes are computed, so a block ([`Ledger::append_txns`]) is stored as its
//! header fields, body and flags, unsealed. Its transactions digest
//! ([`digest_txns`]) and header hash ([`BlockHeader::hash`]) are computed,
//! forward from the last sealed block, and memoised when
//! [`Ledger::tip_hash`] or [`Ledger::verify_chain`] first needs them; they
//! are the hashes of hashing each block as it is appended.
//! `verify_chain` recomputes every body digest and link and compares them
//! with every seal, so it catches an edit to any block whose hash was read.

#![forbid(unsafe_code)]

mod block;

use std::sync::OnceLock;

use dichotomy_common::size::{StorageBreakdown, StorageFootprint};
use dichotomy_common::{Hash, NodeId, Timestamp, Transaction};

pub use block::{digest_txns, BlockHeader};

/// Validation outcome recorded next to each transaction in a block (Fabric
/// marks invalid transactions in the block rather than removing them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnValidationFlag {
    /// The transaction's effects were applied to the state.
    Valid,
    /// The transaction was recorded but its effects were discarded
    /// (e.g. MVCC validation failure in Fabric).
    Invalid,
}

/// A committed block: the header fields that are not hashes, the body, the
/// per-transaction validation flags and, once computed, the hashes. Its
/// height is its index in the chain.
#[derive(Debug)]
struct CommittedBlock {
    state_root: Option<Hash>,
    proposer: NodeId,
    timestamp: Timestamp,
    txns: Vec<Transaction>,
    /// One flag per transaction, same order as `txns`.
    flags: Vec<TxnValidationFlag>,
    /// Set when a hash is first read. Sealed blocks form a prefix of the
    /// chain: sealing a block needs its predecessor's hash.
    seal: OnceLock<Seal>,
}

/// The hashes of a committed block's header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Seal {
    txns_digest: Hash,
    /// The header hash, which the next block's `prev_hash` points to.
    hash: Hash,
}

impl CommittedBlock {
    /// The hashes this block's body and fields produce at `height` on top of
    /// a block hashing to `prev_hash`.
    fn compute_seal(&self, height: u64, prev_hash: Hash) -> Seal {
        let txns_digest = digest_txns(&self.txns);
        let header = BlockHeader {
            height,
            prev_hash,
            txns_digest,
            state_root: self.state_root,
            proposer: self.proposer,
            timestamp: self.timestamp,
        };
        Seal {
            txns_digest,
            hash: header.hash(),
        }
    }
}

/// Errors returned when appending to the ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LedgerError {
    /// The number of flags does not match the number of transactions.
    FlagMismatch,
}

impl std::fmt::Display for LedgerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LedgerError::FlagMismatch => write!(f, "validation flag count mismatch"),
        }
    }
}

impl std::error::Error for LedgerError {}

/// The hash-chained ledger of one node.
#[derive(Debug)]
pub struct Ledger {
    /// Genesis first; a block's height is its index.
    blocks: Vec<CommittedBlock>,
    /// Total committed transactions (valid + invalid).
    txn_count: u64,
    valid_txn_count: u64,
}

impl Default for Ledger {
    fn default() -> Self {
        Self::new(NodeId(0))
    }
}

impl Ledger {
    /// A ledger holding only the genesis block produced by `proposer`.
    pub fn new(proposer: NodeId) -> Self {
        let mut ledger = Ledger {
            blocks: Vec::new(),
            txn_count: 0,
            valid_txn_count: 0,
        };
        ledger.push(CommittedBlock {
            state_root: None,
            proposer,
            timestamp: 0,
            txns: Vec::new(),
            flags: Vec::new(),
            seal: OnceLock::new(),
        });
        ledger
    }

    /// Height of the chain tip.
    pub fn tip_height(&self) -> u64 {
        self.blocks.len() as u64 - 1
    }

    /// Hash of the chain tip. Seals every block appended since the last read.
    pub fn tip_hash(&self) -> Hash {
        let (unsealed, mut prev_hash) = self
            .blocks
            .iter()
            .enumerate()
            .rev()
            .find_map(|(height, b)| b.seal.get().map(|seal| (height + 1, seal.hash)))
            .unwrap_or((0, Hash::ZERO));
        for (height, block) in self.blocks.iter().enumerate().skip(unsealed) {
            prev_hash = block
                .seal
                .get_or_init(|| block.compute_seal(height as u64, prev_hash))
                .hash;
        }
        prev_hash
    }

    /// Total transactions recorded (valid and invalid).
    pub fn txn_count(&self) -> u64 {
        self.txn_count
    }

    /// Transactions recorded as valid.
    pub fn valid_txn_count(&self) -> u64 {
        self.valid_txn_count
    }

    /// Append a block of `txns` with one validation flag each, proposed by
    /// `proposer` at `time`, optionally committing a state root. The ledger
    /// builds the block itself, so it is at the next height and linked to
    /// the tip by construction; nothing is hashed until a hash is read.
    pub fn append_txns(
        &mut self,
        txns: Vec<Transaction>,
        flags: Vec<TxnValidationFlag>,
        proposer: NodeId,
        time: Timestamp,
        state_root: Option<Hash>,
    ) -> Result<(), LedgerError> {
        if flags.len() != txns.len() {
            return Err(LedgerError::FlagMismatch);
        }
        self.push(CommittedBlock {
            state_root,
            proposer,
            timestamp: time,
            txns,
            flags,
            seal: OnceLock::new(),
        });
        Ok(())
    }

    fn push(&mut self, block: CommittedBlock) {
        self.txn_count += block.txns.len() as u64;
        self.valid_txn_count += block
            .flags
            .iter()
            .filter(|f| **f == TxnValidationFlag::Valid)
            .count() as u64;
        self.blocks.push(block);
    }

    /// Re-verify the whole chain: every body digest and hash link is
    /// recomputed from genesis and compared with the block's seal, and an
    /// unsealed block is sealed with what was computed. Returns the height of
    /// the first broken block, or `None` if intact.
    pub fn verify_chain(&self) -> Option<u64> {
        let mut prev_hash = Hash::ZERO;
        for (height, block) in self.blocks.iter().enumerate() {
            let seal = block.compute_seal(height as u64, prev_hash);
            if *block.seal.get_or_init(|| seal) != seal {
                return Some(height as u64);
            }
            prev_hash = seal.hash;
        }
        None
    }

    /// Test hook: publish the chain, then tamper with a stored transaction to
    /// demonstrate that [`verify_chain`](Self::verify_chain) catches it.
    /// Publishing is reading the tip hash, which seals every block: before
    /// that, no hash commits to a body, and an edit is not a tamper. The
    /// first transaction at `height` is replaced by an envelope with the same
    /// id and no operations.
    #[cfg(test)]
    fn tamper_for_test(&mut self, height: u64) {
        self.tip_hash();
        let first = self
            .blocks
            .get_mut(height as usize)
            .and_then(|b| b.txns.first_mut());
        if let Some(txn) = first {
            *txn = Transaction::new(txn.id(), Vec::new());
        }
    }
}

impl StorageFootprint for Ledger {
    fn footprint(&self) -> StorageBreakdown {
        // Blocks (headers + full transaction envelopes + per-txn flag byte)
        // are pure history: the state they produce lives in the state storage
        // of the system that owns this ledger.
        let history: u64 = self
            .blocks
            .iter()
            .map(|b| {
                let body: usize = b.txns.iter().map(Transaction::wire_bytes).sum();
                (BlockHeader::WIRE_BYTES + body + b.flags.len()) as u64
            })
            .sum();
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
    use dichotomy_common::{ClientId, Key, Operation, TxnId, Value};

    fn valid(n: usize) -> Vec<TxnValidationFlag> {
        vec![TxnValidationFlag::Valid; n]
    }

    fn txn(seq: u64, size: usize) -> Transaction {
        Transaction::new(
            TxnId::new(ClientId(1), seq),
            vec![Operation::write(
                Key::from_str(&format!("k{seq}")),
                Value::filler(size),
            )],
        )
    }

    #[test]
    fn genesis_only_ledger() {
        let l = Ledger::new(NodeId(0));
        assert_eq!(l.tip_height(), 0);
        assert_eq!(l.txn_count(), 0);
        assert_eq!(l.verify_chain(), None);
    }

    #[test]
    fn append_txns_grows_the_chain() {
        let mut l = Ledger::new(NodeId(0));
        l.append_txns(vec![txn(1, 10), txn(2, 10)], valid(2), NodeId(0), 100, None)
            .unwrap();
        l.append_txns(vec![txn(3, 10)], valid(1), NodeId(1), 200, None)
            .unwrap();
        assert_eq!(l.tip_height(), 2);
        assert_eq!(l.txn_count(), 3);
        assert_eq!(l.valid_txn_count(), 3);
        assert_eq!(l.verify_chain(), None);
    }

    /// Recorded at the commit before `append` stopped re-hashing the body
    /// `append_txns` had just assembled.
    #[test]
    fn appended_chain_matches_golden_tip_hash() {
        let mut l = Ledger::new(NodeId(0));
        l.append_txns(
            vec![txn(1, 10), txn(2, 1_000), txn(3, 10)],
            valid(3),
            NodeId(0),
            100,
            Some(Hash::of(b"root")),
        )
        .unwrap();
        l.append_txns(vec![txn(4, 64)], valid(1), NodeId(1), 200, None)
            .unwrap();
        assert_eq!(
            l.tip_hash().to_hex(),
            "a1830b3a3f57fdc59031091b2a0b629421a82758f98e1dbf1956f0da79b9b3c8"
        );
        assert_eq!(l.verify_chain(), None);
    }

    #[test]
    fn invalid_flags_are_counted_separately() {
        let mut l = Ledger::new(NodeId(0));
        l.append_txns(
            vec![txn(1, 10), txn(2, 10)],
            vec![TxnValidationFlag::Valid, TxnValidationFlag::Invalid],
            NodeId(0),
            0,
            None,
        )
        .unwrap();
        assert_eq!(l.txn_count(), 2);
        assert_eq!(l.valid_txn_count(), 1);
    }

    /// A chain of `blocks` one-transaction blocks built by `append_txns`.
    fn chain(blocks: u64) -> Ledger {
        let mut l = Ledger::new(NodeId(0));
        for i in 1..=blocks {
            l.append_txns(vec![txn(i, 50)], valid(1), NodeId(0), i * 100, None)
                .unwrap();
        }
        l
    }

    #[test]
    fn verify_chain_detects_tampering() {
        let mut l = chain(5);
        assert_eq!(l.verify_chain(), None);
        l.tamper_for_test(3);
        assert_eq!(l.verify_chain(), Some(3));

        for height in [1, 5] {
            let mut l = chain(5);
            l.tamper_for_test(height);
            assert_eq!(l.verify_chain(), Some(height), "tampered at {height}");
        }

        // Blocks appended after the tip was read are sealed by the hook's
        // own read, and an edit to one of them is caught like any other.
        let mut l = chain(5);
        l.tip_hash();
        for i in 6..=8 {
            l.append_txns(vec![txn(i, 50)], valid(1), NodeId(0), i * 100, None)
                .unwrap();
        }
        l.tamper_for_test(7);
        assert_eq!(l.verify_chain(), Some(7));
    }

    #[test]
    fn append_txns_rejects_flag_mismatch() {
        let mut l = Ledger::new(NodeId(0));
        assert_eq!(
            l.append_txns(vec![txn(1, 10)], valid(2), NodeId(0), 0, None),
            Err(LedgerError::FlagMismatch)
        );
        assert_eq!(l.tip_height(), 0);
    }

    #[test]
    fn footprint_is_history_and_grows_with_record_size() {
        let mut small = Ledger::new(NodeId(0));
        let mut large = Ledger::new(NodeId(0));
        for i in 1..=10 {
            small
                .append_txns(vec![txn(i, 10)], valid(1), NodeId(0), i, None)
                .unwrap();
            large
                .append_txns(vec![txn(i, 5000)], valid(1), NodeId(0), i, None)
                .unwrap();
        }
        let fs = small.footprint();
        let fl = large.footprint();
        assert_eq!(fs.payload_bytes, 0);
        assert!(fl.history_bytes > fs.history_bytes + 10 * 4900);
    }
}
