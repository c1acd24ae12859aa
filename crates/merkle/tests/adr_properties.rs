//! Property-style tests of the authenticated data structures: roots are
//! content-determined, proofs verify exactly for the data they were issued
//! for, and the two state indexes agree with a reference map.
//!
//! Instead of `proptest`, cases are generated by deterministic seeded loops
//! (`dichotomy_common::rng::derive_seed`), so the workspace stays free of
//! external dependencies and every failure is reproducible from the case
//! seed printed in the assertion message.

use std::collections::HashMap;

use dichotomy_common::rng::{derive_seed, seeded, Rng, StdRng};
use dichotomy_common::size::StorageFootprint;
use dichotomy_common::{Hash, Key, Value};
use dichotomy_merkle::{MerkleBucketTree, MerklePatriciaTrie, MerkleTree};

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
    Key::new(Hash::of(&i.to_be_bytes()).0[..16].to_vec())
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
        let mut reference: HashMap<u16, u8> = HashMap::new();
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
        let mut final_content: HashMap<u16, u8> = HashMap::new();
        for (k, len) in &writes {
            final_content.insert(*k, *len);
        }
        let mut a = MerklePatriciaTrie::new();
        for (k, len) in &writes {
            a.insert(&key_of(*k), &Value::filler(*len as usize));
        }
        let mut b = MerklePatriciaTrie::new();
        let mut items: Vec<_> = final_content.iter().collect();
        items.sort();
        for (k, len) in items {
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
        let mut reference: HashMap<u16, u8> = HashMap::new();
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
        let mut reference: HashMap<u16, u8> = HashMap::new();
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

#[test]
fn merkle_tree_proofs_bind_leaf_index_and_content() {
    for_each_case("merkle-inclusion", |seed, rng| {
        let n = rng.gen_range(1..200usize);
        let leaves: Vec<Hash> = (0..n)
            .map(|i| Hash::of(format!("leaf{i}").as_bytes()))
            .collect();
        let tree = MerkleTree::build(&leaves);
        let i = rng.gen_range(0..n);
        let proof = tree.prove(i).unwrap();
        assert!(proof.verify(leaves[i], tree.root()), "seed {seed}");
        assert!(
            !proof.verify(Hash::of(b"tampered"), tree.root()),
            "seed {seed}"
        );
    });
}
