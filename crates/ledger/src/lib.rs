//! The append-only, hash-chained ledger (Section 3.3.1).
//!
//! Every blockchain model in the workspace commits blocks into a [`Ledger`]:
//! a chain whose integrity can be re-verified end to end and whose storage
//! footprint counts as *history* (this is the "significant storage overhead"
//! of Figure 12). Each block keeps every transaction envelope (client
//! signature included) and one validation flag per transaction, which is
//! what that history costs; the ledger answers no historical queries.
//!
//! The ledger hashes on demand. The simulator charges block hashing in
//! *simulated* time from the cost model, so a block the ledger builds itself
//! ([`Ledger::append_txns`]) is stored as its header fields, body and flags,
//! unsealed. Its transactions digest and header hash are computed, forward
//! from the last sealed block, and memoised when [`Ledger::tip_hash`] or
//! [`Ledger::verify_chain`] first needs them; they are the hashes eager
//! assembly produces. A block built elsewhere goes through
//! [`Ledger::append`], which still checks its height, link, body digest and
//! flag count before storing it, sealed with the header it checked.
//! `verify_chain` recomputes every body digest and link and compares them
//! with every seal, so it catches an edit to any block whose hash was read.

#![forbid(unsafe_code)]

use std::sync::OnceLock;

use dichotomy_common::size::{StorageBreakdown, StorageFootprint};
use dichotomy_common::{Block, BlockHeader, Hash, NodeId, Timestamp, Transaction};

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
    /// Set when a hash is first read, or by `append` from the header it
    /// checked. Sealed blocks form a prefix of the chain: sealing a block
    /// needs its predecessor's hash.
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
        let txns_digest = Block::digest_txns(&self.txns);
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

    /// Append a block built elsewhere with its validation flags, enforcing
    /// chain integrity: its height, its link to the tip (which reads the tip
    /// hash), its body digest and its flag count are checked here, and it is
    /// stored sealed with the header it was checked against.
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
        let BlockHeader {
            txns_digest,
            state_root,
            proposer,
            timestamp,
            ..
        } = block.header;
        let seal = Seal {
            txns_digest,
            hash: block.hash(),
        };
        self.push(CommittedBlock {
            state_root,
            proposer,
            timestamp,
            txns: block.into_txns(),
            flags,
            seal: OnceLock::from(seal),
        });
        Ok(())
    }

    /// Append a block of `txns` with one validation flag each, proposed by
    /// `proposer` at `time`, optionally committing a state root. The ledger
    /// builds this block itself, so it is at the next height and linked to
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
    /// first transaction at `height` is replaced by an envelope with its
    /// operations dropped and its original signature.
    #[cfg(test)]
    fn tamper_for_test(&mut self, height: u64) {
        self.tip_hash();
        let first = self
            .blocks
            .get_mut(height as usize)
            .and_then(|b| b.txns.first_mut());
        if let Some(txn) = first {
            *txn = Transaction::from_parts(txn.id(), Vec::new(), txn.submit_time, txn.signature());
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
    fn verify_chain_detects_tampering_of_an_appended_block() {
        let mut l = chain(2);
        for i in 3..=4 {
            let block = Block::assemble(
                i,
                l.tip_hash(),
                vec![txn(i, 50), txn(i + 100, 50)],
                NodeId(1),
                i * 100,
                Some(Hash::of(b"root")),
            );
            l.append(block, valid(2)).unwrap();
        }
        assert_eq!(l.verify_chain(), None);
        l.tamper_for_test(3);
        assert_eq!(l.verify_chain(), Some(3));
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
