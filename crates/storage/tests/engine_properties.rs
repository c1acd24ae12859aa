//! Property-style tests: every storage engine must behave like a reference
//! `BTreeMap` under arbitrary workloads, and every MVCC snapshot read must
//! return the newest commit at or below the snapshot.
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
fn mvcc_snapshot_reads_match_the_commit_history() {
    for_each_case("mvcc-snapshots", |seed, rng| {
        let write_count = rng.gen_range(1..200usize);
        let mut store = MvccStore::new();
        // (version, key number, value length or `None` for a deletion).
        let mut commits: Vec<(u64, u16, Option<usize>)> = Vec::new();
        for _ in 0..write_count {
            let kn = rng.gen_range(0..50u16);
            let len = (!rng.gen_ratio(1, 5)).then(|| rng.gen_range(1..64usize));
            let v = store.begin_commit();
            store.commit_write(mvcc_key(kn), v, len.map(Value::filler));
            commits.push((v, kn, len));
        }
        let latest = store.latest_version();
        for snapshot in [0, rng.gen_range(0..=latest), latest] {
            for kn in 0..50u16 {
                let expected = commits
                    .iter()
                    .rev()
                    .find(|(v, k, _)| *k == kn && *v <= snapshot)
                    .and_then(|(_, _, len)| *len);
                assert_eq!(
                    store.get_at(&mvcc_key(kn), snapshot).map(|v| v.len()),
                    expected,
                    "seed {seed}, snapshot {snapshot}"
                );
                if snapshot == latest {
                    let newest = store.get_latest(&mvcc_key(kn)).map(|v| v.len());
                    assert_eq!(newest, expected, "seed {seed}, latest");
                }
            }
        }
    });
}

fn mvcc_key(kn: u16) -> Key {
    Key::from_str(&format!("k{kn:03}"))
}
