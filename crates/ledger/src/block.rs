//! The block header every ledger-based system model chains.
//!
//! A block is an ordered batch of transactions plus a [`BlockHeader`] that
//! links it to its predecessor by hash and commits to the batch through
//! [`digest_txns`] and (optionally) a global state root. Quorum fills
//! `state_root` with the Merkle Patricia Trie root, Fabric leaves it empty
//! (Fabric ≥ v1 has no authenticated state index), and the Fabric-v0.6 / AHL
//! models fill it with the Merkle Bucket Tree root.

use dichotomy_common::{Hash, Hasher, NodeId, Timestamp, Transaction};

/// Block header: the part that is hashed and chained.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockHeader {
    /// Height of this block in the chain (genesis = 0).
    pub height: u64,
    /// Hash of the previous block's header (`Hash::ZERO` for genesis).
    pub prev_hash: Hash,
    /// Digest over the ordered transaction list.
    pub txns_digest: Hash,
    /// Root of the authenticated state index after applying this block, if
    /// the system maintains one.
    pub state_root: Option<Hash>,
    /// Proposer / primary that assembled the block.
    pub proposer: NodeId,
    /// Simulated time at which the block was proposed.
    pub timestamp: Timestamp,
}

impl BlockHeader {
    /// Approximate serialized size of a header in bytes (height, two hashes,
    /// an optional state root, proposer and timestamp).
    pub const WIRE_BYTES: usize = 8 + 32 + 32 + 33 + 8 + 8;

    /// Hash of the header; this is "the block hash" that the next block's
    /// `prev_hash` points to.
    pub fn hash(&self) -> Hash {
        let mut h = Hasher::new();
        h.update(&self.height.to_be_bytes());
        h.update(&self.prev_hash.0);
        h.update(&self.txns_digest.0);
        match &self.state_root {
            Some(root) => {
                h.update(&[1]);
                h.update(&root.0);
            }
            None => h.update(&[0]),
        }
        h.update(&self.proposer.0.to_be_bytes());
        h.update(&self.timestamp.to_be_bytes());
        h.finalize()
    }
}

/// Digest over an ordered transaction batch (binary Merkle-style fold;
/// order-sensitive, as required for a ledger).
pub fn digest_txns(txns: &[Transaction]) -> Hash {
    if txns.is_empty() {
        return Hash::ZERO;
    }
    let mut level: Vec<Hash> = txns.iter().map(Transaction::digest).collect();
    while level.len() > 1 {
        level = level
            .chunks(2)
            .map(|pair| {
                if pair.len() == 2 {
                    Hash::combine(&pair[0], &pair[1])
                } else {
                    // Odd node is promoted (Bitcoin-style duplication would
                    // also work; promotion keeps proofs slightly smaller).
                    pair[0]
                }
            })
            .collect();
    }
    level[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ledger;
    use dichotomy_common::{ClientId, Key, Operation, TxnId, Value};

    fn sample_txn(seq: u64, payload: usize) -> Transaction {
        Transaction::new(
            TxnId::new(ClientId(7), seq),
            vec![Operation::write(
                Key::from_str(&format!("key{seq}")),
                Value::filler(payload),
            )],
        )
    }

    /// The header of `txns` at `height` on top of `prev_hash`.
    fn header(
        height: u64,
        prev_hash: Hash,
        txns: &[Transaction],
        state_root: Option<Hash>,
    ) -> BlockHeader {
        BlockHeader {
            height,
            prev_hash,
            txns_digest: digest_txns(txns),
            state_root,
            proposer: NodeId(0),
            timestamp: 0,
        }
    }

    /// A ledger's genesis is the empty block at height 0 on the zero hash.
    #[test]
    fn genesis_has_height_zero_and_zero_parent() {
        let genesis = header(0, Hash::ZERO, &[], None);
        assert_eq!(genesis.txns_digest, Hash::ZERO);
        let ledger = Ledger::new(NodeId(0));
        assert_eq!(ledger.tip_height(), 0);
        assert_eq!(ledger.tip_hash(), genesis.hash());
    }

    #[test]
    fn chaining_links_by_header_hash() {
        let g = header(0, Hash::ZERO, &[], None);
        let b1 = header(1, g.hash(), &[sample_txn(1, 10)], None);
        assert_eq!(b1.prev_hash, g.hash());
        assert_ne!(b1.hash(), g.hash());
    }

    #[test]
    fn txns_digest_is_order_sensitive() {
        let a = sample_txn(1, 10);
        let b = sample_txn(2, 10);
        let d1 = digest_txns(&[a.clone(), b.clone()]);
        let d2 = digest_txns(&[b, a]);
        assert_ne!(d1, d2);
    }

    #[test]
    fn digest_handles_odd_batches() {
        let txns: Vec<_> = (0..5).map(|i| sample_txn(i, 10)).collect();
        let d = digest_txns(&txns);
        assert_ne!(d, Hash::ZERO);
        // Deterministic.
        assert_eq!(d, digest_txns(&txns));
    }

    /// Recorded at the commit before the body was sealed behind one digest
    /// per block: five signed transactions fold 5 → 3 → 2 → 1, promoting the
    /// odd node twice.
    #[test]
    fn assembled_block_matches_golden_digests() {
        let txns: Vec<_> = (1..=5)
            .map(|seq| {
                let mut t = Transaction::client_signed(
                    TxnId::new(ClientId(seq % 2), seq),
                    vec![
                        Operation::read(Key::from_str(&format!("user{seq:012}"))),
                        Operation::write(Key::from_str("user000000000042"), Value::filler(100)),
                    ],
                );
                t.submit_time = seq * 10;
                t
            })
            .collect();
        let header = BlockHeader {
            height: 3,
            prev_hash: Hash::of(b"parent"),
            txns_digest: digest_txns(&txns),
            state_root: Some(Hash::of(b"root")),
            proposer: NodeId(2),
            timestamp: 1_234,
        };
        assert_eq!(
            header.txns_digest.to_hex(),
            "9900b62657e800d02956bbecc54ebe68d8188ac2d92b8dae29fc1a30133c6855"
        );
        assert_eq!(
            header.hash().to_hex(),
            "2d69ba1724d9bddccbdf1ece2d7898e78026312016fcf7c801b1235483ca0003"
        );
    }

    #[test]
    fn state_root_contributes_to_block_hash() {
        let txns = [sample_txn(1, 10)];
        let without = header(1, Hash::ZERO, &txns, None);
        let with = header(1, Hash::ZERO, &txns, Some(Hash::of(b"root")));
        assert_ne!(without.hash(), with.hash());
    }
}
