//! The append-only, hash-chained ledger (Section 3.3.1).
//!
//! Every blockchain model in the workspace commits blocks into a [`Ledger`]:
//! a chain whose integrity can be re-verified end to end and whose storage
//! footprint counts as *history* (this is the "significant storage overhead"
//! of Figure 12). Each block keeps every transaction envelope (client
//! signature included) and one validation flag per transaction, which is
//! what that history costs; the ledger answers no historical queries.

#![forbid(unsafe_code)]

use dichotomy_common::size::{StorageBreakdown, StorageFootprint};
use dichotomy_common::{Block, Hash, NodeId, Timestamp, Transaction};

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

/// A committed block plus the per-transaction validation flags.
#[derive(Debug)]
struct CommittedBlock {
    /// The block as agreed by consensus.
    block: Block,
    /// One flag per transaction, same order as `block.txns()`.
    flags: Vec<TxnValidationFlag>,
}

/// Errors returned when appending to the ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LedgerError {
    /// The block's `prev_hash` does not match the current tip.
    BrokenChain { expected: Hash, found: Hash },
    /// The block height is not `tip_height + 1`.
    WrongHeight { expected: u64, found: u64 },
    /// The block body does not match its header digest.
    BadTxnsDigest,
    /// The number of flags does not match the number of transactions.
    FlagMismatch,
}

impl std::fmt::Display for LedgerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LedgerError::BrokenChain { expected, found } => {
                write!(
                    f,
                    "broken chain: expected prev {expected:?}, found {found:?}"
                )
            }
            LedgerError::WrongHeight { expected, found } => {
                write!(f, "wrong height: expected {expected}, found {found}")
            }
            LedgerError::BadTxnsDigest => write!(f, "block body does not match header digest"),
            LedgerError::FlagMismatch => write!(f, "validation flag count mismatch"),
        }
    }
}

impl std::error::Error for LedgerError {}

/// The hash-chained ledger of one node.
#[derive(Debug)]
pub struct Ledger {
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
        Ledger {
            blocks: vec![CommittedBlock {
                block: Block::genesis(proposer),
                flags: Vec::new(),
            }],
            txn_count: 0,
            valid_txn_count: 0,
        }
    }

    /// Height of the chain tip.
    pub fn tip_height(&self) -> u64 {
        self.blocks
            .last()
            .expect("genesis always present")
            .block
            .header
            .height
    }

    /// Hash of the chain tip.
    pub fn tip_hash(&self) -> Hash {
        self.blocks
            .last()
            .expect("genesis always present")
            .block
            .hash()
    }

    /// Total transactions recorded (valid and invalid).
    pub fn txn_count(&self) -> u64 {
        self.txn_count
    }

    /// Transactions recorded as valid.
    pub fn valid_txn_count(&self) -> u64 {
        self.valid_txn_count
    }

    /// Append a block with its validation flags, enforcing chain integrity.
    pub fn append(
        &mut self,
        block: Block,
        flags: Vec<TxnValidationFlag>,
    ) -> Result<(), LedgerError> {
        let expected_height = self.tip_height() + 1;
        if block.header.height != expected_height {
            return Err(LedgerError::WrongHeight {
                expected: expected_height,
                found: block.header.height,
            });
        }
        let expected_prev = self.tip_hash();
        if block.header.prev_hash != expected_prev {
            return Err(LedgerError::BrokenChain {
                expected: expected_prev,
                found: block.header.prev_hash,
            });
        }
        if !block.verify_txns_digest() {
            return Err(LedgerError::BadTxnsDigest);
        }
        if flags.len() != block.txn_count() {
            return Err(LedgerError::FlagMismatch);
        }
        self.txn_count += block.txn_count() as u64;
        self.valid_txn_count += flags
            .iter()
            .filter(|f| **f == TxnValidationFlag::Valid)
            .count() as u64;
        self.blocks.push(CommittedBlock { block, flags });
        Ok(())
    }

    /// Convenience: assemble and append a block of `txns` (all flagged valid)
    /// proposed by `proposer` at `time`, optionally committing a state root.
    pub fn append_txns(
        &mut self,
        txns: Vec<Transaction>,
        proposer: NodeId,
        time: Timestamp,
        state_root: Option<Hash>,
    ) -> Result<(), LedgerError> {
        let flags = vec![TxnValidationFlag::Valid; txns.len()];
        let block = Block::assemble(
            self.tip_height() + 1,
            self.tip_hash(),
            txns,
            proposer,
            time,
            state_root,
        );
        self.append(block, flags)
    }

    /// Re-verify the whole chain: heights, hash links and body digests.
    /// Returns the height of the first broken block, or `None` if intact.
    pub fn verify_chain(&self) -> Option<u64> {
        for w in self.blocks.windows(2) {
            let (prev, next) = (&w[0].block, &w[1].block);
            if next.header.height != prev.header.height + 1
                || next.header.prev_hash != prev.hash()
                || !next.verify_txns_digest()
            {
                return Some(next.header.height);
            }
        }
        None
    }

    /// Test hook: tamper with a stored transaction to demonstrate that
    /// [`verify_chain`](Self::verify_chain) catches it. Neither a block's body
    /// nor a transaction can be edited in place, so the first transaction is
    /// replaced by an envelope with its operations dropped and its original
    /// signature, and the stored block by one with the old header over that
    /// body.
    #[cfg(test)]
    fn tamper_for_test(&mut self, height: u64) {
        if let Some(cb) = self.blocks.get_mut(height as usize) {
            let mut txns = cb.block.txns().to_vec();
            if let Some(txn) = txns.first_mut() {
                *txn =
                    Transaction::from_parts(txn.id(), Vec::new(), txn.submit_time, txn.signature());
            }
            cb.block = Block::from_parts(cb.block.header.clone(), txns);
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
            .map(|cb| cb.block.wire_bytes() as u64 + cb.flags.len() as u64)
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
        l.append_txns(vec![txn(1, 10), txn(2, 10)], NodeId(0), 100, None)
            .unwrap();
        l.append_txns(vec![txn(3, 10)], NodeId(1), 200, None)
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
            NodeId(0),
            100,
            Some(Hash::of(b"root")),
        )
        .unwrap();
        l.append_txns(vec![txn(4, 64)], NodeId(1), 200, None)
            .unwrap();
        assert_eq!(
            l.tip_hash().to_hex(),
            "a1830b3a3f57fdc59031091b2a0b629421a82758f98e1dbf1956f0da79b9b3c8"
        );
        assert_eq!(l.verify_chain(), None);
    }

    #[test]
    fn append_rejects_wrong_height_and_broken_chain() {
        let mut l = Ledger::new(NodeId(0));
        let bogus = Block::assemble(5, l.tip_hash(), vec![], NodeId(0), 0, None);
        assert!(matches!(
            l.append(bogus, vec![]),
            Err(LedgerError::WrongHeight {
                expected: 1,
                found: 5
            })
        ));
        let unlinked = Block::assemble(1, Hash::of(b"nope"), vec![], NodeId(0), 0, None);
        assert!(matches!(
            l.append(unlinked, vec![]),
            Err(LedgerError::BrokenChain { .. })
        ));
    }

    #[test]
    fn append_rejects_tampered_body_and_flag_mismatch() {
        let mut l = Ledger::new(NodeId(0));
        let header = Block::assemble(1, l.tip_hash(), vec![txn(1, 10)], NodeId(0), 0, None).header;
        let block = Block::from_parts(header, vec![txn(1, 10), txn(2, 10)]);
        assert_eq!(
            l.append(block, vec![TxnValidationFlag::Valid; 2]),
            Err(LedgerError::BadTxnsDigest)
        );

        let ok_block = Block::assemble(1, l.tip_hash(), vec![txn(1, 10)], NodeId(0), 0, None);
        assert_eq!(l.append(ok_block, vec![]), Err(LedgerError::FlagMismatch));
    }

    #[test]
    fn invalid_flags_are_counted_separately() {
        let mut l = Ledger::new(NodeId(0));
        let block = Block::assemble(
            1,
            l.tip_hash(),
            vec![txn(1, 10), txn(2, 10)],
            NodeId(0),
            0,
            None,
        );
        l.append(
            block,
            vec![TxnValidationFlag::Valid, TxnValidationFlag::Invalid],
        )
        .unwrap();
        assert_eq!(l.txn_count(), 2);
        assert_eq!(l.valid_txn_count(), 1);
    }

    #[test]
    fn verify_chain_detects_tampering() {
        let mut l = Ledger::new(NodeId(0));
        for i in 1..=5 {
            l.append_txns(vec![txn(i, 50)], NodeId(0), i * 100, None)
                .unwrap();
        }
        assert_eq!(l.verify_chain(), None);
        l.tamper_for_test(3);
        assert_eq!(l.verify_chain(), Some(3));
    }

    #[test]
    fn footprint_is_history_and_grows_with_record_size() {
        let mut small = Ledger::new(NodeId(0));
        let mut large = Ledger::new(NodeId(0));
        for i in 1..=10 {
            small
                .append_txns(vec![txn(i, 10)], NodeId(0), i, None)
                .unwrap();
            large
                .append_txns(vec![txn(i, 5000)], NodeId(0), i, None)
                .unwrap();
        }
        let fs = small.footprint();
        let fl = large.footprint();
        assert_eq!(fs.payload_bytes, 0);
        assert!(fl.history_bytes > fs.history_bytes + 10 * 4900);
    }
}
