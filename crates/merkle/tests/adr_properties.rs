//! Property-style tests of the authenticated data structures: roots are
//! content-determined, proofs verify exactly for the data they were issued
//! for, and the two state indexes agree with a reference map.
//!
//! Instead of `proptest`, cases are generated by deterministic seeded loops
//! (`dichotomy_common::rng::derive_seed`), so the workspace stays free of
//! external dependencies and every failure is reproducible from the case
//! seed printed in the assertion message.

use std::collections::BTreeMap;

use dichotomy_common::rng::{derive_seed, seeded, Rng, StdRng};
use dichotomy_common::size::StorageFootprint;
use dichotomy_common::{Hash, Key, Value};
use dichotomy_merkle::{MerkleBucketTree, MerklePatriciaTrie};

const CASES: u64 = 48;

/// A random write batch: up to 150 (key-index, value-length) pairs, the same
/// distribution the original proptest strategy produced.
fn arb_kv(rng: &mut StdRng) -> Vec<(u16, u8)> {
    let len = rng.gen_range(1..150usize);
    (0..len)
        .map(|_| (rng.gen::<u16>(), rng.gen_range(1..200u8)))
        .collect()
}

fn key_of(i: u16) -> Key {
    Key::new(&Hash::of(&i.to_be_bytes()).0[..16])
}

fn for_each_case(label: &str, mut check: impl FnMut(u64, &mut StdRng)) {
    for case in 0..CASES {
        let seed = derive_seed(derive_seed(0xAD5, label), &case.to_string());
        check(seed, &mut seeded(seed));
    }
}

/// Roots and the MPT footprint of three fixed records, captured at the commit
/// before the SHA-256 kernel and `put_node` changed: the properties below hold
/// under any self-consistent hash, these constants only under SHA-256.
#[test]
fn roots_and_footprint_match_golden_values() {
    let mut mpt = MerklePatriciaTrie::new();
    let mut mbt = MerkleBucketTree::fabric_default();
    for (key, len) in [
        ("user00000001", 10),
        ("user00000002", 100),
        ("account-7", 1000),
    ] {
        mpt.insert(&Key::from_str(key), &Value::filler(len));
        mbt.put(&Key::from_str(key), &Value::filler(len));
    }
    assert_eq!(
        mpt.root_hash().to_hex(),
        "5d3517ed24ca31324366d40b803f95d2d6d86d33af202d233fd2524d5a24189e"
    );
    assert_eq!(
        mbt.root_hash().to_hex(),
        "85d86f09033eb67c5060a48780f2f70ea52fa9e3d7db22d7f9e0c59769095a7b"
    );
    let footprint = mpt.footprint();
    assert_eq!(
        (footprint.payload_bytes, footprint.index_bytes),
        (1110, 562)
    );
}

#[test]
fn mpt_matches_reference_map() {
    for_each_case("mpt-reference", |seed, rng| {
        let writes = arb_kv(rng);
        let mut trie = MerklePatriciaTrie::new();
        let mut reference: BTreeMap<u16, u8> = BTreeMap::new();
        for (k, len) in writes {
            trie.insert(&key_of(k), &Value::filler(len as usize));
            reference.insert(k, len);
        }
        assert_eq!(trie.len(), reference.len(), "seed {seed}");
        for (k, len) in &reference {
            assert_eq!(
                trie.get(&key_of(*k)).unwrap().len(),
                *len as usize,
                "seed {seed}"
            );
        }
    });
}

#[test]
fn mpt_root_depends_only_on_content() {
    for_each_case("mpt-root-content", |seed, rng| {
        // Building with the same final content in two different orders (and
        // with intermediate overwrites) must give the same root (the root
        // never depends on history).
        let writes = arb_kv(rng);
        let mut final_content: BTreeMap<u16, u8> = BTreeMap::new();
        for (k, len) in &writes {
            final_content.insert(*k, *len);
        }
        let mut a = MerklePatriciaTrie::new();
        for (k, len) in &writes {
            a.insert(&key_of(*k), &Value::filler(*len as usize));
        }
        let mut b = MerklePatriciaTrie::new();
        for (k, len) in &final_content {
            b.insert(&key_of(*k), &Value::filler(*len as usize));
        }
        assert_eq!(a.root_hash(), b.root_hash(), "seed {seed}");
    });
}

#[test]
fn mpt_proofs_verify_for_every_key() {
    for_each_case("mpt-proofs", |seed, rng| {
        let writes = arb_kv(rng);
        let mut trie = MerklePatriciaTrie::new();
        let mut reference: BTreeMap<u16, u8> = BTreeMap::new();
        for (k, len) in writes {
            trie.insert(&key_of(k), &Value::filler(len as usize));
            reference.insert(k, len);
        }
        let root = trie.root_hash();
        for k in reference.keys() {
            let proof = trie.prove(&key_of(*k)).unwrap();
            assert!(
                MerklePatriciaTrie::verify_proof(root, &key_of(*k), &proof),
                "seed {seed}"
            );
            assert!(
                !MerklePatriciaTrie::verify_proof(Hash::of(b"bogus"), &key_of(*k), &proof),
                "seed {seed}"
            );
        }
    });
}

#[test]
fn mbt_authenticates_exactly_the_written_values() {
    for_each_case("mbt-authenticate", |seed, rng| {
        let writes = arb_kv(rng);
        let mut mbt = MerkleBucketTree::new(128, 4);
        let mut reference: BTreeMap<u16, u8> = BTreeMap::new();
        for (k, len) in writes {
            mbt.put(&key_of(k), &Value::filler(len as usize));
            reference.insert(k, len);
        }
        assert_eq!(mbt.len(), reference.len(), "seed {seed}");
        for (k, len) in &reference {
            assert!(
                mbt.authenticate(&key_of(*k), &Value::filler(*len as usize)),
                "seed {seed}"
            );
            assert!(
                !mbt.authenticate(&key_of(*k), &Value::filler(*len as usize + 1)),
                "seed {seed}"
            );
        }
    });
}

/// Four key shapes: YCSB and Smallbank keys (long shared prefixes, digit
/// fan-out), hashed 16-byte keys (`Probe::AdrOverhead`), and byte strings of
/// 1–40 bytes cut from one digest per eight indices, so some are prefixes of
/// others (values on branches) and some exceed 32 bytes.
fn golden_key(i: u64) -> Key {
    match i % 4 {
        0 => Key::from_str(&format!("user{i:012}")),
        1 => Key::new(&Hash::of(&i.to_be_bytes()).0[..16]),
        2 => {
            let digest = Hash::of(&(i / 8).to_be_bytes()).0;
            let bytes = [digest, digest].concat();
            Key::new(&bytes[..1 + (i as usize * 7) % 40])
        }
        _ => Key::from_str(&format!("chk:{i:09}")),
    }
}

/// A fixed 2 000-key insert / overwrite / re-split history. Every constant was
/// recorded at the commit before the node store held each node once, leaf and
/// branch values became shared `Value`s and the old-value lookup moved into
/// the insert recursion: archival node identity, accounting and proofs must
/// not notice any of that.
#[test]
fn mpt_archival_history_matches_golden_values() {
    let mut trie = MerklePatriciaTrie::new();
    for i in 0..2_000u64 {
        let value = if i % 5 == 0 {
            Value::new(Hash::of(&i.to_le_bytes()).0)
        } else {
            Value::filler(1 + (i as usize * 37) % 300)
        };
        trie.insert(&golden_key(i), &value);
    }
    // Overwrites: new sizes (archival garbage), then bytes a node already
    // holds (content-addressed: nothing new is stored).
    for i in (0..2_000u64).step_by(3) {
        trie.insert(&golden_key(i), &Value::filler(1 + (i as usize * 11) % 900));
    }
    for i in (0..2_000u64).step_by(21) {
        trie.insert(&golden_key(i), &Value::filler(1 + (i as usize * 11) % 900));
    }
    // Re-splits: keys that extend or cut short a stored key re-home its leaf
    // under a new branch, with the old value on the branch or beside it.
    for i in (0..2_000u64).step_by(10) {
        let stored = golden_key(i);
        let mut longer = stored.as_bytes().to_vec();
        longer.push(b'0' + (i % 10) as u8);
        trie.insert(&Key::new(longer), &Value::filler(1_000));
        let shorter = &stored.as_bytes()[..stored.len() - 1];
        trie.insert(&Key::new(shorter), &Value::filler(17));
    }
    let observed = |t: &MerklePatriciaTrie| {
        let fp = t.footprint();
        (
            t.root_hash().to_hex(),
            t.len(),
            t.stored_node_count(),
            (fp.payload_bytes, fp.index_bytes, fp.history_bytes),
        )
    };
    assert_eq!(
        observed(&trie),
        (
            "e47d86e386978d62fb536c4ba45ee3634b41a06d37939b972c01d30b2d8c8819".to_string(),
            2_400,
            21_460,
            (669_893, 4_648_476, 0)
        )
    );
    // (index, nodes on the path, proof bytes): one key of each shape.
    for (i, nodes, bytes) in [(0, 12, 2_123), (1, 5, 1_297), (2, 6, 1_336), (3, 11, 1_970)] {
        let proof = trie.prove(&golden_key(i)).unwrap();
        assert_eq!((proof.nodes.len(), proof.size_bytes()), (nodes, bytes));
        assert!(MerklePatriciaTrie::verify_proof(
            trie.root_hash(),
            &golden_key(i),
            &proof
        ));
    }
    assert_eq!(trie.get(&golden_key(30)).map(|v| v.len()), Some(331));
    // Identical (path suffix, value) leaves are one node, so the reachable
    // store is smaller than the payload it authenticates.
    assert_eq!(trie.prune(), 18_707);
    assert_eq!(
        observed(&trie),
        (
            "e47d86e386978d62fb536c4ba45ee3634b41a06d37939b972c01d30b2d8c8819".to_string(),
            2_400,
            2_753,
            (669_893, 0, 0)
        )
    );
}
