//! Differential tests: the LSM tree and the MVCC store keep their point maps
//! hash-indexed, and must be observationally identical to the same structures
//! over ordered `BTreeMap`s — same reads, scans, run structure, counts and
//! footprint — over seeded operation sequences that flush, compact, fork and
//! freeze.
//!
//! A run that came out unsorted would still hold every entry, so it shows
//! here as a read that misses (runs are binary-searched) and as a read
//! amplification that differs from the reference's; `LsmTree` also asserts
//! each run sorted as it is pushed, which every debug-build test checks.

use std::collections::BTreeMap;

use dichotomy_common::rng::{derive_seed, seeded, Rng, StdRng};
use dichotomy_common::size::{StorageBreakdown, StorageFootprint};
use dichotomy_common::{Key, Value, Version};
use dichotomy_storage::lsm::LsmConfig;
use dichotomy_storage::{KvEngine, LsmTree, MvccStore};

const CASES: u64 = 32;
const STEPS: usize = 200;

/// Forty keys in four shapes: YCSB-like, Smallbank-like, 16 raw bytes, and
/// keys too long to be stored inline.
fn key_space() -> Vec<Key> {
    (0..10u64)
        .flat_map(|i| {
            [
                Key::from_str(&format!("user{i:012}")),
                Key::from_str(&format!("chk:{i:09}")),
                Key::new(
                    i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .to_be_bytes()
                        .repeat(2),
                ),
                Key::from_str(&format!("a-key-longer-than-inline-{i:04}")),
            ]
        })
        .collect()
}

fn for_each_case(label: &str, mut check: impl FnMut(u64, &mut StdRng)) {
    for case in 0..CASES {
        let seed = derive_seed(derive_seed(0x0D1F, label), &case.to_string());
        check(seed, &mut seeded(seed));
    }
}

/// An entry: a live value or a tombstone (`None`).
type Slot = Option<Value>;

fn slot_bytes(slot: &Slot) -> usize {
    slot.as_ref().map_or(1, Value::len)
}

/// The LSM tree over an ordered memtable: the same budget accounting, flush
/// and compaction rules and footprint formula as [`LsmTree`], with order
/// kept at every step instead of imposed at flush and scan.
#[derive(Clone)]
struct OrderedLsm {
    config: LsmConfig,
    memtable: BTreeMap<Key, Slot>,
    memtable_bytes: usize,
    /// Sorted runs, newest last.
    runs: Vec<Vec<(Key, Slot)>>,
    live: usize,
    flushes: u64,
    compactions: u64,
}

impl OrderedLsm {
    fn new(config: LsmConfig) -> Self {
        OrderedLsm {
            config,
            memtable: BTreeMap::new(),
            memtable_bytes: 0,
            runs: Vec::new(),
            live: 0,
            flushes: 0,
            compactions: 0,
        }
    }

    fn newest(&self, key: &Key) -> Option<&Slot> {
        self.memtable.get(key).or_else(|| {
            self.runs.iter().rev().find_map(|run| {
                run.binary_search_by(|(k, _)| k.cmp(key))
                    .ok()
                    .map(|i| &run[i].1)
            })
        })
    }

    fn is_live(&self, key: &Key) -> bool {
        matches!(self.newest(key), Some(Some(_)))
    }

    fn write(&mut self, key: Key, slot: Slot) {
        match (self.is_live(&key), slot.is_some()) {
            (false, true) => self.live += 1,
            (true, false) => self.live -= 1,
            _ => {}
        }
        let added = key.len() + slot_bytes(&slot);
        if let Some(old) = self.memtable.insert(key, slot) {
            self.memtable_bytes = self.memtable_bytes.saturating_sub(slot_bytes(&old));
        }
        self.memtable_bytes += added;
        if self.memtable_bytes >= self.config.memtable_budget_bytes {
            self.flush();
        }
    }

    fn delete(&mut self, key: &Key) -> bool {
        let was_live = self.is_live(key);
        if was_live {
            self.write(key.clone(), None);
        }
        was_live
    }

    fn flush(&mut self) {
        if self.memtable.is_empty() {
            return;
        }
        self.runs
            .push(std::mem::take(&mut self.memtable).into_iter().collect());
        self.memtable_bytes = 0;
        self.flushes += 1;
        if self.runs.len() > self.config.max_runs {
            self.compact();
        }
    }

    fn compact(&mut self) {
        if self.runs.len() <= 1 {
            return;
        }
        let mut merged = BTreeMap::new();
        for (key, slot) in self.runs.iter().flatten() {
            merged.insert(key.clone(), slot.clone());
        }
        merged.retain(|_, slot| slot.is_some());
        self.runs = vec![merged.into_iter().collect()];
        self.compactions += 1;
    }

    fn scan(&self, start: &Key, end: &Key) -> Vec<(Key, Value)> {
        let mut merged = BTreeMap::new();
        let runs = self.runs.iter().flatten().map(|(key, slot)| (key, slot));
        for (key, slot) in runs.chain(&self.memtable) {
            if key >= start && key < end {
                merged.insert(key.clone(), slot.clone());
            }
        }
        merged
            .into_iter()
            .filter_map(|(key, slot)| Some((key, slot?)))
            .collect()
    }

    /// Probes until `key` is found: the memtable, then runs newest first.
    fn read_amplification(&self, key: &Key) -> usize {
        if self.memtable.contains_key(key) {
            return 1;
        }
        let mut newest_first = self.runs.iter().rev();
        let found = newest_first.position(|run| run.binary_search_by(|(k, _)| k.cmp(key)).is_ok());
        1 + found.map_or(self.runs.len(), |i| i + 1)
    }

    fn footprint(&self) -> StorageBreakdown {
        let bytes = |(key, slot): (&Key, &Slot)| (key.len() + slot_bytes(slot)) as u64;
        let runs = self.runs.iter().flatten().map(|(key, slot)| (key, slot));
        StorageBreakdown {
            payload_bytes: self.memtable.iter().chain(runs.clone()).map(bytes).sum(),
            index_bytes: self.memtable.len() as u64 * 32 + runs.count() as u64 * 12,
            history_bytes: 0,
        }
    }
}

fn assert_same_lsm(tree: &LsmTree, model: &OrderedLsm, keys: &[Key], what: &str) {
    for key in keys {
        let expected = model.newest(key).cloned().flatten();
        assert_eq!(tree.get(key), expected, "{what}: get {key:?}");
        assert_eq!(
            tree.read_amplification(key),
            model.read_amplification(key),
            "{what}: read amplification of {key:?}"
        );
    }
    assert_eq!(tree.len(), model.live, "{what}: len");
    assert_eq!(tree.run_count(), model.runs.len(), "{what}: run_count");
    assert_eq!(tree.flushes(), model.flushes, "{what}: flushes");
    assert_eq!(tree.compactions(), model.compactions, "{what}: compactions");
    assert_eq!(tree.footprint(), model.footprint(), "{what}: footprint");
    let (lo, hi) = (&keys[3], &keys[keys.len() - 5]);
    for (start, end) in [
        (Key::new([]), Key::new([0xff; 24])),
        (lo.clone(), hi.clone()),
    ] {
        assert_eq!(
            tree.scan(&start, &end),
            model.scan(&start, &end),
            "{what}: scan {start:?}..{end:?}"
        );
    }
}

#[test]
fn lsm_tree_matches_its_ordered_reference() {
    let keys = key_space();
    for_each_case("lsm", |seed, rng| {
        let config = LsmConfig {
            memtable_budget_bytes: rng.gen_range(64..=1_024),
            max_runs: rng.gen_range(1..=4),
        };
        // Every fork taken so far, each beside its reference; the one in
        // use is checked after every step, all of them at the end.
        let mut pairs = vec![(
            LsmTree::with_config(config.clone()),
            OrderedLsm::new(config),
        )];
        let mut at = 0;
        for step in 0..STEPS {
            let key = keys[rng.gen_range(0..keys.len())].clone();
            let (tree, model) = &mut pairs[at];
            match rng.gen_range(0..20u32) {
                0..=11 => {
                    let value = Value::filler(rng.gen_range(1..=120));
                    tree.put(key.clone(), value.clone());
                    model.write(key, Some(value));
                }
                12..=15 => assert_eq!(tree.delete(&key), model.delete(&key), "seed {seed}"),
                16 => {
                    tree.flush();
                    model.flush();
                }
                17 => {
                    tree.compact();
                    model.compact();
                }
                _ if pairs.len() < 4 => {
                    let fork = pairs[at].clone();
                    pairs.push(fork);
                    at = rng.gen_range(0..pairs.len());
                }
                _ => at = rng.gen_range(0..pairs.len()),
            }
            let (tree, model) = &pairs[at];
            assert_same_lsm(tree, model, &keys, &format!("seed {seed}, step {step}"));
        }
        for (i, (tree, model)) in pairs.iter().enumerate() {
            assert_same_lsm(tree, model, &keys, &format!("seed {seed}, fork {i}"));
        }
    });
}

/// The MVCC store over one ordered map with no base: every version a key
/// was ever given, ascending.
#[derive(Clone, Default)]
struct OrderedMvcc {
    versions: BTreeMap<Key, Vec<(Version, Option<Value>)>>,
    latest: Version,
}

impl OrderedMvcc {
    fn commit(&mut self, key: Key, version: Version, value: Option<Value>) {
        self.latest = self.latest.max(version);
        self.versions.entry(key).or_default().push((version, value));
    }

    fn read(&self, key: &Key, snapshot: Version) -> Option<(Version, Option<Value>)> {
        let history = self.versions.get(key)?;
        history.iter().rev().find(|(v, _)| *v <= snapshot).cloned()
    }

    fn footprint(&self) -> StorageBreakdown {
        let mut fp = StorageBreakdown::default();
        for (key, history) in &self.versions {
            fp.index_bytes += key.len() as u64 + 16;
            for (i, (_, value)) in history.iter().enumerate() {
                let bytes = value.as_ref().map_or(1, Value::len) as u64 + 8;
                if i + 1 == history.len() {
                    fp.payload_bytes += bytes;
                } else {
                    fp.history_bytes += bytes;
                }
            }
        }
        fp
    }
}

fn assert_same_mvcc(store: &MvccStore, model: &OrderedMvcc, keys: &[Key], what: &str) {
    let latest = model.latest;
    assert_eq!(store.latest_version(), latest, "{what}: latest_version");
    for key in keys {
        for snapshot in [0, latest / 3, latest / 2, latest.saturating_sub(1), latest] {
            let expected = model.read(key, snapshot);
            let value = expected.clone().and_then(|(_, value)| value);
            assert_eq!(
                store.read_versioned(key, snapshot),
                expected,
                "{what}: {key:?}"
            );
            assert_eq!(store.get_at(key, snapshot), value, "{what}: {key:?}");
        }
        let newest = model.versions.get(key).and_then(|h| h.last());
        assert_eq!(
            store.latest_key_version(key),
            newest.map(|(v, _)| *v),
            "{what}: latest_key_version {key:?}"
        );
        assert_eq!(
            store.get_latest(key),
            newest.and_then(|(_, value)| value.clone()),
            "{what}: get_latest {key:?}"
        );
    }
    let histories = model.versions.values();
    let live = histories
        .clone()
        .filter(|h| h.last().is_some_and(|(_, v)| v.is_some()));
    assert_eq!(store.key_count(), model.versions.len(), "{what}: key_count");
    assert_eq!(
        store.live_key_count(),
        live.count(),
        "{what}: live_key_count"
    );
    assert_eq!(
        store.version_count(),
        histories.map(Vec::len).sum::<usize>(),
        "{what}: version_count"
    );
    assert_eq!(store.footprint(), model.footprint(), "{what}: footprint");
}

#[test]
fn mvcc_store_matches_its_ordered_reference() {
    let keys = key_space();
    for_each_case("mvcc", |seed, rng| {
        let mut pairs = vec![(MvccStore::new(), OrderedMvcc::default())];
        let mut at = 0;
        for step in 0..STEPS {
            let (store, model) = &mut pairs[at];
            match rng.gen_range(0..16u32) {
                0..=9 => {
                    // One commit writing (or deleting) up to three keys.
                    let version = store.begin_commit();
                    for _ in 0..rng.gen_range(1..=3usize) {
                        let key = keys[rng.gen_range(0..keys.len())].clone();
                        let value =
                            (!rng.gen_ratio(1, 4)).then(|| Value::filler(rng.gen_range(1..=120)));
                        store.commit_write(key.clone(), version, value.clone());
                        model.commit(key, version, value);
                    }
                }
                10 => {
                    // A bulk load of records, repeated keys included.
                    let version = store.begin_commit();
                    let records: Vec<(Key, Value)> = (0..rng.gen_range(0..12usize))
                        .map(|_| {
                            let key = keys[rng.gen_range(0..keys.len())].clone();
                            (key, Value::filler(rng.gen_range(1..=120)))
                        })
                        .collect();
                    store.load(version, &records);
                    for (key, value) in records {
                        model.commit(key, version, Some(value));
                    }
                    model.latest = model.latest.max(version);
                }
                // Freezing a store with a base and commits of its own folds
                // the base back in (copying it when a sibling shares it).
                11 | 12 => store.freeze(),
                _ if pairs.len() < 4 => {
                    let fork = pairs[at].clone();
                    pairs.push(fork);
                    at = rng.gen_range(0..pairs.len());
                }
                _ => at = rng.gen_range(0..pairs.len()),
            }
            let (store, model) = &pairs[at];
            assert_same_mvcc(store, model, &keys, &format!("seed {seed}, step {step}"));
        }
        for (i, (store, model)) in pairs.iter().enumerate() {
            assert_same_mvcc(store, model, &keys, &format!("seed {seed}, fork {i}"));
        }
    });
}
