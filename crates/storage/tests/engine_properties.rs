//! Property-style tests: every storage engine must behave like a reference
//! `BTreeMap` under arbitrary workloads, and the MVCC store must preserve
//! snapshot semantics under garbage collection.
//!
//! Cases are generated by deterministic seeded loops
//! (`dichotomy_common::rng::derive_seed`) instead of `proptest`, so the
//! workspace stays dependency-free and every failing case is reproducible
//! from the seed in the assertion message.

use dichotomy_common::rng::{derive_seed, seeded, Rng, StdRng};
use dichotomy_common::{Key, Value};
use dichotomy_storage::{BPlusTree, KvEngine, LsmTree, MvccStore};

const CASES: u64 = 64;

fn for_each_case(label: &str, mut check: impl FnMut(u64, &mut StdRng)) {
    for case in 0..CASES {
        let seed = derive_seed(derive_seed(0xE26, label), &case.to_string());
        check(seed, &mut seeded(seed));
    }
}

/// A random op sequence of up to 400 (op, key-number, value-length) triples,
/// matching the distribution of the original proptest strategy.
fn arb_ops(rng: &mut StdRng) -> Vec<(u8, u16, u16)> {
    let len = rng.gen_range(0..400usize);
    (0..len)
        .map(|_| (rng.gen::<u8>(), rng.gen::<u16>(), rng.gen::<u16>()))
        .collect()
}

/// Apply a random op sequence to an engine and a reference map, then compare.
fn run_against_reference(engine: &mut dyn KvEngine, ops: &[(u8, u16, u16)], seed: u64) {
    use std::collections::BTreeMap;
    let mut reference: BTreeMap<Key, Value> = BTreeMap::new();
    for &(op, kn, vn) in ops {
        let key = Key::from_str(&format!("key{:05}", kn % 300));
        match op % 4 {
            0..=2 => {
                let value = Value::filler((vn % 128) as usize + 1);
                reference.insert(key.clone(), value.clone());
                engine.put(key, value);
            }
            _ => {
                let expected = reference.remove(&key).is_some();
                assert_eq!(engine.delete(&key), expected, "seed {seed}");
            }
        }
    }
    assert_eq!(engine.len(), reference.len(), "seed {seed}");
    for (k, v) in &reference {
        assert_eq!(engine.get(k).as_ref(), Some(v), "seed {seed}");
    }
    let lo = Key::from_str("key00000");
    let hi = Key::from_str("key99999");
    let scanned = engine.scan(&lo, &hi);
    let expected: Vec<(Key, Value)> = reference
        .iter()
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    assert_eq!(scanned, expected, "seed {seed}");
}

#[test]
fn lsm_matches_reference() {
    for_each_case("lsm", |seed, rng| {
        let ops = arb_ops(rng);
        // A tiny memtable forces flushes and compactions mid-workload.
        let mut t = LsmTree::with_config(dichotomy_storage::lsm::LsmConfig {
            memtable_budget_bytes: 512,
            max_runs: 4,
        });
        run_against_reference(&mut t, &ops, seed);
    });
}

#[test]
fn btree_matches_reference() {
    for_each_case("btree", |seed, rng| {
        let ops = arb_ops(rng);
        let mut t = BPlusTree::new();
        run_against_reference(&mut t, &ops, seed);
    });
}

#[test]
fn mvcc_snapshots_are_stable_under_gc() {
    for_each_case("mvcc-gc", |seed, rng| {
        let write_count = rng.gen_range(1..200usize);
        let writes: Vec<(u16, u16)> = (0..write_count)
            .map(|_| (rng.gen_range(0..50u16), rng.gen_range(1..64u16)))
            .collect();
        let gc_fraction: f64 = rng.gen();
        let mut store = MvccStore::new();
        let mut commits: Vec<(u64, Key, usize)> = Vec::new();
        for (kn, len) in writes {
            let key = Key::from_str(&format!("k{kn:03}"));
            let v = store.begin_commit();
            store.commit_write(key.clone(), v, Some(Value::filler(len as usize)));
            commits.push((v, key, len as usize));
        }
        let latest = store.latest_version();
        let watermark = (latest as f64 * gc_fraction) as u64;
        // Snapshot visible at the watermark before GC...
        let expectations: Vec<(Key, Option<usize>)> = commits
            .iter()
            .map(|(_, key, _)| {
                (
                    key.clone(),
                    store.get_at(key, watermark.max(1)).map(|v| v.len()),
                )
            })
            .collect();
        store.gc(watermark.max(1));
        // ...must be identical after GC.
        for (key, expected_len) in expectations {
            assert_eq!(
                store.get_at(&key, watermark.max(1)).map(|v| v.len()),
                expected_len,
                "seed {seed}"
            );
        }
        // And the latest version of each key is always readable.
        for (v, key, len) in commits.iter().rev() {
            if store.latest_key_version(key) == Some(*v) {
                assert_eq!(store.get_latest(key).unwrap().len(), *len, "seed {seed}");
            }
        }
    });
}
