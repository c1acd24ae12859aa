//! The block format shared by all ledger-based system models.
//!
//! A [`Block`] is an ordered batch of transactions plus a [`BlockHeader`]
//! that chains it to its predecessor by hash and commits to the batch via a
//! Merkle-style transactions digest and (optionally) a global state root.
//! Quorum fills `state_root` with the Merkle Patricia Trie root, Fabric
//! leaves it empty (Fabric ≥ v1 has no authenticated state index), and the
//! Fabric-v0.6 / AHL models fill it with the Merkle Bucket Tree root.

use crate::codec;
use crate::codec::Encode;
use crate::hash::{Hash, Hasher};
use crate::txn::Transaction;
use crate::types::{NodeId, Timestamp};

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
codec!(Encode for struct BlockHeader { height, prev_hash, txns_digest, state_root, proposer, timestamp });

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

/// A block: header plus the transaction batch it commits. The body is sealed:
/// a constructor sets and digests it, and it cannot change afterwards, so
/// [`verify_txns_digest`](Self::verify_txns_digest) compares two hashes and no
/// validator re-hashes a body. A different body is a different `Block`.
///
/// This eager seal serves blocks built elsewhere (a peer, storage) that a
/// ledger must check before accepting. A ledger that builds a block from its
/// own batch stores the fields and the body instead, and digests them only
/// when a hash is first read (`dichotomy-ledger`'s `append_txns`).
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// The chained header.
    pub header: BlockHeader,
    txns: Vec<Transaction>,
    /// `digest_txns(&txns)`, computed once at construction.
    body_digest: Hash,
}

impl Block {
    /// Assemble a block at `height` on top of `prev_hash` from an ordered
    /// transaction batch.
    pub fn assemble(
        height: u64,
        prev_hash: Hash,
        txns: Vec<Transaction>,
        proposer: NodeId,
        timestamp: Timestamp,
        state_root: Option<Hash>,
    ) -> Self {
        let body_digest = Self::digest_txns(&txns);
        Block {
            header: BlockHeader {
                height,
                prev_hash,
                txns_digest: body_digest,
                state_root,
                proposer,
                timestamp,
            },
            txns,
            body_digest,
        }
    }

    /// A block from a header produced elsewhere (a peer, storage) and the body
    /// that came with it. The body is digested here; `verify_txns_digest`
    /// tells whether the header commits to it.
    pub fn from_parts(header: BlockHeader, txns: Vec<Transaction>) -> Self {
        let body_digest = Self::digest_txns(&txns);
        Block {
            header,
            txns,
            body_digest,
        }
    }

    /// The genesis block of a chain.
    pub fn genesis(proposer: NodeId) -> Self {
        Block::assemble(0, Hash::ZERO, Vec::new(), proposer, 0, None)
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

    /// Hash of the block (header hash).
    pub fn hash(&self) -> Hash {
        self.header.hash()
    }

    /// The ordered transactions.
    pub fn txns(&self) -> &[Transaction] {
        &self.txns
    }

    /// Take the transactions out of the block.
    pub fn into_txns(self) -> Vec<Transaction> {
        self.txns
    }

    /// Number of transactions in the block.
    pub fn txn_count(&self) -> usize {
        self.txns.len()
    }

    /// Whether the header's transactions digest matches the body. Validators
    /// check this before committing a block received from the network.
    pub fn verify_txns_digest(&self) -> bool {
        self.header.txns_digest == self.body_digest
    }

    /// Approximate serialized size of the block in bytes: header plus every
    /// transaction envelope. Used for the storage accounting of Figure 12 and
    /// the bandwidth model.
    pub fn wire_bytes(&self) -> usize {
        BlockHeader::WIRE_BYTES + self.txns.iter().map(Transaction::wire_bytes).sum::<usize>()
    }
}

// Hand-written: `body_digest` is derived from `txns` and stays off the wire
// (`from_parts` recomputes it), so the wire form is not the field list.
impl Encode for Block {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.header.encode_into(out);
        self.txns.encode_into(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::Operation;
    use crate::types::{ClientId, Key, TxnId, Value};

    fn sample_txn(seq: u64, payload: usize) -> Transaction {
        Transaction::new(
            TxnId::new(ClientId(7), seq),
            vec![Operation::write(
                Key::from_str(&format!("key{seq}")),
                Value::filler(payload),
            )],
        )
    }

    #[test]
    fn genesis_has_height_zero_and_zero_parent() {
        let g = Block::genesis(NodeId(0));
        assert_eq!(g.header.height, 0);
        assert_eq!(g.header.prev_hash, Hash::ZERO);
        assert_eq!(g.txn_count(), 0);
        assert!(g.verify_txns_digest());
    }

    #[test]
    fn chaining_links_by_header_hash() {
        let g = Block::genesis(NodeId(0));
        let b1 = Block::assemble(1, g.hash(), vec![sample_txn(1, 10)], NodeId(0), 100, None);
        assert_eq!(b1.header.prev_hash, g.hash());
        assert_ne!(b1.hash(), g.hash());
    }

    #[test]
    fn txns_digest_is_order_sensitive() {
        let a = sample_txn(1, 10);
        let b = sample_txn(2, 10);
        let d1 = Block::digest_txns(&[a.clone(), b.clone()]);
        let d2 = Block::digest_txns(&[b, a]);
        assert_ne!(d1, d2);
    }

    #[test]
    fn digest_handles_odd_batches() {
        let txns: Vec<_> = (0..5).map(|i| sample_txn(i, 10)).collect();
        let d = Block::digest_txns(&txns);
        assert_ne!(d, Hash::ZERO);
        // Deterministic.
        assert_eq!(d, Block::digest_txns(&txns));
    }

    #[test]
    fn tampered_body_fails_digest_check() {
        let b = Block::assemble(
            1,
            Hash::ZERO,
            vec![sample_txn(1, 10), sample_txn(2, 10)],
            NodeId(0),
            0,
            None,
        );
        assert!(b.verify_txns_digest());
        // The same header over a shortened body.
        let header = b.header.clone();
        let mut txns = b.into_txns();
        txns.pop();
        assert!(!Block::from_parts(header, txns).verify_txns_digest());
        // And the same body under a header that commits to something else.
        let mut b = Block::assemble(1, Hash::ZERO, vec![sample_txn(1, 10)], NodeId(0), 0, None);
        b.header.txns_digest = Hash::of(b"forged");
        assert!(!b.verify_txns_digest());
    }

    /// Recorded at the commit before the body was sealed behind one digest
    /// per block: five signed transactions fold 5 → 3 → 2 → 1, promoting the
    /// odd node twice.
    #[test]
    fn assembled_block_matches_golden_digests() {
        let txns: Vec<_> = (1..=5)
            .map(|seq| {
                Transaction::signed(
                    TxnId::new(ClientId(seq % 2), seq),
                    vec![
                        Operation::read(Key::from_str(&format!("user{seq:012}"))),
                        Operation::write(Key::from_str("user000000000042"), Value::filler(100)),
                    ],
                    seq * 10,
                    &crate::crypto::KeyPair::for_client(seq % 2),
                )
            })
            .collect();
        let b = Block::assemble(
            3,
            Hash::of(b"parent"),
            txns,
            NodeId(2),
            1_234,
            Some(Hash::of(b"root")),
        );
        assert!(b.verify_txns_digest());
        assert_eq!(
            b.header.txns_digest.to_hex(),
            "9900b62657e800d02956bbecc54ebe68d8188ac2d92b8dae29fc1a30133c6855"
        );
        assert_eq!(
            b.hash().to_hex(),
            "2d69ba1724d9bddccbdf1ece2d7898e78026312016fcf7c801b1235483ca0003"
        );
    }

    #[test]
    fn state_root_contributes_to_block_hash() {
        let txns = vec![sample_txn(1, 10)];
        let without = Block::assemble(1, Hash::ZERO, txns.clone(), NodeId(0), 0, None);
        let with = Block::assemble(1, Hash::ZERO, txns, NodeId(0), 0, Some(Hash::of(b"root")));
        assert_ne!(without.hash(), with.hash());
    }

    #[test]
    fn wire_bytes_grows_with_payload() {
        let small = Block::assemble(1, Hash::ZERO, vec![sample_txn(1, 10)], NodeId(0), 0, None);
        let large = Block::assemble(1, Hash::ZERO, vec![sample_txn(1, 5000)], NodeId(0), 0, None);
        assert!(large.wire_bytes() > small.wire_bytes() + 4900);
    }
}
