//! Differential test: a chain the ledger hashes on demand (`append_txns`)
//! must be indistinguishable from the same chain hashed eagerly, each block's
//! header built and hashed as it is appended (`digest_txns` of the body,
//! `BlockHeader::hash` on the previous header's hash).
//!
//! Seeded chains mix empty blocks with blocks of up to 200 transactions of
//! 10 B to 5 KB values, random `Invalid` flags and some state roots. The
//! on-demand chain is sealed three ways: by tip reads at random heights along
//! the way, by one tip read at the end, or by `verify_chain` before any read.

use dichotomy_common::rng::{derive_seed, seeded, Rng, StdRng};
use dichotomy_common::size::StorageFootprint;
use dichotomy_common::{ClientId, Hash, Key, NodeId, Operation, Transaction, TxnId, Value};
use dichotomy_ledger::{digest_txns, BlockHeader, Ledger, TxnValidationFlag};

const CASES: u64 = 6;
const BLOCKS: u64 = 12;

/// One block's contents, drawn from `rng`.
struct Draw {
    txns: Vec<Transaction>,
    flags: Vec<TxnValidationFlag>,
    proposer: NodeId,
    state_root: Option<Hash>,
}

fn draw(rng: &mut StdRng, height: u64) -> Draw {
    let count = if rng.gen_ratio(1, 5) {
        0
    } else {
        rng.gen_range(1..=200usize)
    };
    let mut txns = Vec::with_capacity(count);
    let mut flags = Vec::with_capacity(count);
    for seq in 0..count as u64 {
        let id = TxnId::new(ClientId(rng.gen_range(0..64u64)), height * 1_000 + seq);
        let key = Key::from_str(&format!("user{:012}", rng.gen_range(0..10_000u64)));
        let mut ops = vec![Operation::write(
            key.clone(),
            Value::filler(rng.gen_range(10..=5_000usize)),
        )];
        if rng.gen_ratio(1, 3) {
            ops.insert(0, Operation::read(key));
        }
        txns.push(if rng.gen_ratio(1, 2) {
            Transaction::client_signed(id, ops)
        } else {
            Transaction::new(id, ops)
        });
        flags.push(if rng.gen_ratio(1, 4) {
            TxnValidationFlag::Invalid
        } else {
            TxnValidationFlag::Valid
        });
    }
    let state_root = rng.gen_ratio(1, 3).then(|| Hash::of(&height.to_be_bytes()));
    Draw {
        txns,
        flags,
        proposer: NodeId(rng.gen_range(0..4u64)),
        state_root,
    }
}

/// When the on-demand chain's hashes are first read.
#[derive(Clone, Copy, PartialEq)]
enum Reads {
    /// `tip_hash` at random heights, each read compared with the eager tip.
    AlongTheWay,
    /// `tip_hash` once all blocks are in.
    AtTheEnd,
    /// `verify_chain` once all blocks are in, then `tip_hash`.
    VerifyFirst,
}

/// The eager chain: every header hashed as its block is appended, and the
/// history and counts the ledger reports, summed as they grow.
struct Eager {
    tip_height: u64,
    tip_hash: Hash,
    history_bytes: u64,
    txn_count: u64,
    valid_txn_count: u64,
}

impl Eager {
    /// The chain holding only the genesis block produced by `proposer`.
    fn new(proposer: NodeId) -> Self {
        let mut chain = Eager {
            tip_height: 0,
            tip_hash: Hash::ZERO,
            history_bytes: 0,
            txn_count: 0,
            valid_txn_count: 0,
        };
        chain.append(0, &[], &[], proposer, 0, None);
        chain
    }

    /// Append the block at `height`, hashing its header now.
    fn append(
        &mut self,
        height: u64,
        txns: &[Transaction],
        flags: &[TxnValidationFlag],
        proposer: NodeId,
        timestamp: u64,
        state_root: Option<Hash>,
    ) {
        let header = BlockHeader {
            height,
            prev_hash: self.tip_hash,
            txns_digest: digest_txns(txns),
            state_root,
            proposer,
            timestamp,
        };
        self.tip_height = height;
        self.tip_hash = header.hash();
        let body: usize = txns.iter().map(Transaction::wire_bytes).sum();
        self.history_bytes += (BlockHeader::WIRE_BYTES + body + flags.len()) as u64;
        self.txn_count += txns.len() as u64;
        self.valid_txn_count += flags
            .iter()
            .filter(|f| **f == TxnValidationFlag::Valid)
            .count() as u64;
    }
}

/// Build both chains from `seed` and compare every observable of the two.
fn run(seed: u64, reads: Reads) {
    let mut rng = seeded(seed);
    let mut on_demand = Ledger::new(NodeId(0));
    let mut eager = Eager::new(NodeId(0));
    for height in 1..=BLOCKS {
        let Draw {
            txns,
            flags,
            proposer,
            state_root,
        } = draw(&mut rng, height);
        let time = height * 1_000 + rng.gen_range(0..1_000u64);
        eager.append(height, &txns, &flags, proposer, time, state_root);
        on_demand
            .append_txns(txns, flags, proposer, time, state_root)
            .unwrap();
        if reads == Reads::AlongTheWay && rng.gen_ratio(1, 3) {
            assert_eq!(
                on_demand.tip_hash(),
                eager.tip_hash,
                "seed {seed}, height {height}"
            );
        }
    }
    if reads == Reads::VerifyFirst {
        assert_eq!(on_demand.verify_chain(), None, "seed {seed}");
    }
    assert_eq!(on_demand.tip_height(), eager.tip_height);
    assert_eq!(on_demand.tip_hash(), eager.tip_hash, "seed {seed}");
    assert_eq!(on_demand.verify_chain(), None, "seed {seed}");
    let footprint = on_demand.footprint();
    assert_eq!(footprint.history_bytes, eager.history_bytes, "seed {seed}");
    assert_eq!(footprint.total(), footprint.history_bytes, "seed {seed}");
    assert_eq!(on_demand.txn_count(), eager.txn_count);
    assert_eq!(on_demand.valid_txn_count(), eager.valid_txn_count);
}

#[test]
fn on_demand_chain_matches_eager_chain_read_along_the_way() {
    for case in 0..CASES {
        run(derive_seed(case, "ledger-read-along"), Reads::AlongTheWay);
    }
}

#[test]
fn on_demand_chain_matches_eager_chain_read_at_the_end() {
    for case in 0..CASES {
        run(derive_seed(case, "ledger-read-at-end"), Reads::AtTheEnd);
    }
}

#[test]
fn on_demand_chain_sealed_by_verify_chain_matches_eager_chain() {
    for case in 0..CASES / 2 {
        run(derive_seed(case, "ledger-verify-first"), Reads::VerifyFirst);
    }
}
