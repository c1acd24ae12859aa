//! Authenticated data structures (Section 3.3.2 of the paper).
//!
//! Blockchains compute a content-unique digest over their state so that a
//! light client can verify any returned value against the block header. The
//! two structures the paper measures (Figure 13) are implemented here from
//! scratch:
//!
//! * [`MerklePatriciaTrie`] — Ethereum/Quorum's hexary prefix trie. Every
//!   node is stored in a hash-addressed node store; updates write new nodes
//!   and (in archival mode, the geth default) never delete the old ones,
//!   which is exactly why the paper measures **over 1 KB of overhead per
//!   record** regardless of record size.
//! * [`MerkleBucketTree`] — Hyperledger Fabric v0.6's fixed-size structure: a
//!   configurable number of buckets, records hashed into buckets, and a
//!   fixed-fan-out Merkle tree over the bucket hashes. Its per-record
//!   overhead is a few tens of bytes (the paper reports **+24 B**).
//!
//! Each structure exposes its root digest, byte-accurate
//! [`StorageFootprint`](dichotomy_common::size::StorageFootprint) accounting,
//! and per-update structural statistics ([`UpdateStats`]) that the simulator
//! multiplies by the cost model's constants to charge CPU time (Section
//! 5.3.3's 56 µs → 2.5 ms MPT reconstruction growth). The trie also proves
//! membership ([`MerklePatriciaTrie::prove`],
//! [`MerklePatriciaTrie::verify_proof`]).

#![forbid(unsafe_code)]

pub mod bucket_tree;
pub mod mpt;

pub use bucket_tree::MerkleBucketTree;
pub use mpt::{MerklePatriciaTrie, MptProof};

/// Structural statistics of one authenticated-index update, consumed by the
/// cost model (`CostModel::adr_update_us`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UpdateStats {
    /// How many index nodes were created or rewritten.
    pub nodes_touched: usize,
    /// Bytes of leaf payload re-encoded and re-hashed.
    pub leaf_bytes: usize,
}
