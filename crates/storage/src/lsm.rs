//! A log-structured merge tree modelled after LevelDB.
//!
//! Writes go to an in-memory **memtable** (and, logically, the WAL); when the
//! memtable exceeds its budget it is frozen into an immutable sorted **run**
//! (an SSTable). Reads probe the memtable first, then runs from newest to
//! oldest. A size-tiered **compaction** merges runs when there are too many,
//! discarding overwritten versions and tombstones of deleted keys.
//!
//! The memtable is a hash-indexed point map ([`KeyMap`]): a put, get or
//! delete finds its key by hash, never by walking key order. Order is
//! imposed only where it reaches a reader: [`flush`](LsmTree::flush) sorts
//! the memtable into its run, and [`scan`](KvEngine::scan) merges memtable
//! and runs through a `BTreeMap`. The footprint is an order-free sum.
//!
//! The model keeps everything in memory but preserves the structural
//! properties the experiments rely on: read amplification equals the number
//! of probed runs, storage footprint includes obsolete versions until
//! compaction reclaims them, and tombstones occupy space.

use std::collections::hash_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;

use dichotomy_common::size::{StorageBreakdown, StorageFootprint};
use dichotomy_common::{Key, KeyMap, Value};

use crate::engine::{EngineKind, KvEngine};

/// An entry in the tree: a live value or a tombstone.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Slot {
    Live(Value),
    Tombstone,
}

impl Slot {
    fn bytes(&self) -> usize {
        match self {
            Slot::Live(v) => v.len(),
            Slot::Tombstone => 1,
        }
    }
}

/// An immutable sorted run (SSTable model).
#[derive(Debug, Clone)]
struct Run {
    entries: Vec<(Key, Slot)>,
}

impl Run {
    fn get(&self, key: &Key) -> Option<&Slot> {
        self.entries
            .binary_search_by(|(k, _)| k.cmp(key))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    fn bytes(&self) -> u64 {
        self.entries
            .iter()
            .map(|(k, s)| (k.len() + s.bytes()) as u64)
            .sum()
    }

    /// Per-entry index overhead of the SSTable model: block index entry plus
    /// bloom-filter bits (LevelDB defaults ≈ 10 bits/key + restart points).
    fn index_bytes(&self) -> u64 {
        self.entries.len() as u64 * 12
    }
}

/// The newest slot for `key` in `runs` (newest last).
fn newest_in_runs<'a>(runs: &'a [Arc<Run>], key: &Key) -> Option<&'a Slot> {
    runs.iter().rev().find_map(|run| run.get(key))
}

/// Tuning knobs of the tree.
#[derive(Debug, Clone)]
pub struct LsmConfig {
    /// Memtable flush threshold in bytes.
    pub memtable_budget_bytes: usize,
    /// Compact when the number of runs exceeds this.
    pub max_runs: usize,
}

impl Default for LsmConfig {
    fn default() -> Self {
        LsmConfig {
            memtable_budget_bytes: 4 * 1024 * 1024,
            max_runs: 8,
        }
    }
}

/// The LSM tree.
///
/// Runs are immutable once written, so `clone()` shares them and copies only
/// the memtable (bounded by its flush budget); flushes and compactions on
/// either side build new runs and leave the shared ones intact.
#[derive(Debug, Clone)]
pub struct LsmTree {
    config: LsmConfig,
    /// Unordered (see the module docs for where order is imposed).
    memtable: KeyMap<Slot>,
    memtable_bytes: usize,
    /// Immutable runs, newest last.
    runs: Vec<Arc<Run>>,
    live_count: usize,
    /// Counters exposed for tests and ablations.
    flushes: u64,
    compactions: u64,
}

impl Default for LsmTree {
    fn default() -> Self {
        Self::new()
    }
}

impl LsmTree {
    /// A tree with default configuration.
    pub fn new() -> Self {
        Self::with_config(LsmConfig::default())
    }

    /// A tree with explicit configuration (tests use tiny budgets to force
    /// flushes and compactions).
    pub fn with_config(config: LsmConfig) -> Self {
        LsmTree {
            config,
            memtable: KeyMap::default(),
            memtable_bytes: 0,
            runs: Vec::new(),
            live_count: 0,
            flushes: 0,
            compactions: 0,
        }
    }

    /// Number of immutable runs currently on "disk".
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// How many memtable flushes have happened.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// How many compactions have happened.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Look up the newest slot for `key` across memtable and runs.
    fn newest_slot(&self, key: &Key) -> Option<&Slot> {
        self.memtable
            .get(key)
            .or_else(|| newest_in_runs(&self.runs, key))
    }

    fn write_slot(&mut self, key: Key, slot: Slot) {
        let is_live = matches!(slot, Slot::Live(_));
        let added = key.len() + slot.bytes();
        // One memtable probe: a key found there is replaced in place, any
        // other is looked up in the runs.
        let (was_live, replaced_bytes) = match self.memtable.entry(key) {
            Entry::Occupied(mut entry) => {
                let old = entry.insert(slot);
                (matches!(old, Slot::Live(_)), old.bytes())
            }
            Entry::Vacant(entry) => {
                let older = newest_in_runs(&self.runs, entry.key());
                let was_live = matches!(older, Some(Slot::Live(_)));
                entry.insert(slot);
                (was_live, 0)
            }
        };
        match (was_live, is_live) {
            (false, true) => self.live_count += 1,
            (true, false) => self.live_count -= 1,
            _ => {}
        }
        // Only the replaced slot's bytes come off: the key's bytes were
        // counted when it first entered the memtable and `added` counts them
        // again, so every overwrite of a memtable key brings the flush that
        // much closer. Subtracting them would move flush points, and with
        // them the seeded output.
        self.memtable_bytes = self.memtable_bytes.saturating_sub(replaced_bytes) + added;
        if self.memtable_bytes >= self.config.memtable_budget_bytes {
            self.flush();
        }
    }

    /// Freeze the memtable into a run.
    pub fn flush(&mut self) {
        if self.memtable.is_empty() {
            return;
        }
        // The memtable's entries move into the run: nothing is cloned. The
        // emptied table keeps its buckets for the next fill, so a tree that
        // flushes again does not regrow (and free) a table each time.
        let mut entries: Vec<_> = self.memtable.drain().collect();
        entries.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
        self.memtable_bytes = 0;
        self.push_run(entries);
    }

    /// Append a flushed run of sorted `entries`, compacting when that makes
    /// too many.
    fn push_run(&mut self, entries: Vec<(Key, Slot)>) {
        debug_assert!(
            entries.windows(2).all(|pair| pair[0].0 < pair[1].0),
            "a run must be sorted by key, each key once"
        );
        self.runs.push(Arc::new(Run { entries }));
        self.flushes += 1;
        if self.runs.len() > self.config.max_runs {
            self.compact();
        }
    }

    /// `records` cut where [`write_slot`](Self::write_slot) would flush them
    /// into an empty tree, each chunk sorted by key: every chunk but the last
    /// is a run, the last is the memtable. `None` when two records share a
    /// key, since an overwrite's accounting belongs to `write_slot`.
    fn sorted_chunks(&self, records: &[(Key, Value)]) -> Option<Vec<Vec<(Key, Slot)>>> {
        let mut chunks = vec![Vec::new()];
        let mut bytes = 0;
        for (key, value) in records {
            bytes += key.len() + value.len();
            let chunk = chunks.last_mut().expect("chunks starts non-empty");
            chunk.push((key.clone(), Slot::Live(value.clone())));
            if bytes >= self.config.memtable_budget_bytes {
                chunks.push(Vec::new());
                bytes = 0;
            }
        }
        for chunk in &mut chunks {
            chunk.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
        }
        for (i, chunk) in chunks.iter().enumerate() {
            if chunk.windows(2).any(|pair| pair[0].0 == pair[1].0) {
                return None;
            }
            let in_earlier = |key: &Key| {
                chunks[..i]
                    .iter()
                    .any(|earlier| earlier.binary_search_by(|(k, _)| k.cmp(key)).is_ok())
            };
            if chunk.iter().any(|(key, _)| in_earlier(key)) {
                return None;
            }
        }
        Some(chunks)
    }

    /// Merge all runs into one, dropping shadowed versions and tombstones.
    pub fn compact(&mut self) {
        if self.runs.len() <= 1 {
            return;
        }
        let mut merged: BTreeMap<Key, Slot> = BTreeMap::new();
        // Oldest first so newer runs overwrite.
        for run in &self.runs {
            for (k, s) in &run.entries {
                merged.insert(k.clone(), s.clone());
            }
        }
        // Drop tombstones entirely: after a full merge nothing older remains.
        merged.retain(|_, s| matches!(s, Slot::Live(_)));
        self.runs = vec![Arc::new(Run {
            entries: merged.into_iter().collect(),
        })];
        self.compactions += 1;
    }
}

impl StorageFootprint for LsmTree {
    fn footprint(&self) -> StorageBreakdown {
        let memtable_payload: u64 = self
            .memtable
            .iter()
            .map(|(k, s)| (k.len() + s.bytes()) as u64)
            .sum();
        let run_payload: u64 = self.runs.iter().map(|r| r.bytes()).sum();
        let run_index: u64 = self.runs.iter().map(|r| r.index_bytes()).sum();
        // Memtable skiplist/tree node overhead ≈ 32 B per entry.
        let memtable_index = self.memtable.len() as u64 * 32;
        StorageBreakdown {
            payload_bytes: memtable_payload + run_payload,
            index_bytes: memtable_index + run_index,
            history_bytes: 0,
        }
    }
}

impl KvEngine for LsmTree {
    fn put(&mut self, key: Key, value: Value) {
        self.write_slot(key, Slot::Live(value));
    }

    /// On an empty tree and pairwise distinct keys, the runs, memtable and
    /// counters the `put` loop would leave are built directly from sorted
    /// chunks; anything else runs the loop.
    fn load(&mut self, records: &[(Key, Value)]) {
        let empty = self.memtable.is_empty() && self.runs.is_empty();
        let Some(mut chunks) = empty.then(|| self.sorted_chunks(records)).flatten() else {
            for (key, value) in records {
                self.put(key.clone(), value.clone());
            }
            return;
        };
        let memtable = chunks.pop().expect("the last chunk is the memtable");
        for entries in chunks {
            self.push_run(entries);
        }
        self.memtable_bytes = memtable.iter().map(|(k, s)| k.len() + s.bytes()).sum();
        self.memtable = memtable.into_iter().collect();
        self.live_count += records.len();
    }

    fn get(&self, key: &Key) -> Option<Value> {
        match self.newest_slot(key) {
            Some(Slot::Live(v)) => Some(v.clone()),
            _ => None,
        }
    }

    fn delete(&mut self, key: &Key) -> bool {
        let was_live = matches!(self.newest_slot(key), Some(Slot::Live(_)));
        if was_live {
            self.write_slot(key.clone(), Slot::Tombstone);
        }
        was_live
    }

    fn len(&self) -> usize {
        self.live_count
    }

    fn scan(&self, start: &Key, end: &Key) -> Vec<(Key, Value)> {
        // Merge memtable and runs, newest version wins.
        let mut merged: BTreeMap<Key, Slot> = BTreeMap::new();
        for run in &self.runs {
            for (k, s) in &run.entries {
                if k >= start && k < end {
                    merged.insert(k.clone(), s.clone());
                }
            }
        }
        for (k, s) in &self.memtable {
            if k >= start && k < end {
                merged.insert(k.clone(), s.clone());
            }
        }
        merged
            .into_iter()
            .filter_map(|(k, s)| match s {
                Slot::Live(v) => Some((k, v)),
                Slot::Tombstone => None,
            })
            .collect()
    }

    fn kind(&self) -> EngineKind {
        EngineKind::Lsm
    }

    fn read_amplification(&self, key: &Key) -> usize {
        // Probe memtable, then runs newest→oldest until found.
        let mut probes = 1;
        if self.memtable.contains_key(key) {
            return probes;
        }
        for run in self.runs.iter().rev() {
            probes += 1;
            if run.get(key).is_some() {
                return probes;
            }
        }
        probes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::conformance;
    use dichotomy_common::rng::{derive_seed, seeded, Rng};

    fn tiny() -> LsmTree {
        LsmTree::with_config(LsmConfig {
            memtable_budget_bytes: 256,
            max_runs: 3,
        })
    }

    #[test]
    fn conformance_basic() {
        conformance::check_basic(&mut LsmTree::new());
    }

    #[test]
    fn conformance_basic_with_tiny_memtable() {
        conformance::check_basic(&mut tiny());
    }

    #[test]
    fn flush_happens_when_budget_exceeded() {
        let mut t = tiny();
        for i in 0..20 {
            t.put(Key::from_str(&format!("k{i:03}")), Value::filler(32));
        }
        assert!(t.flushes() > 0, "expected at least one flush");
        assert!(t.run_count() >= 1);
        // All keys still readable after flushes.
        for i in 0..20 {
            assert!(t.get(&Key::from_str(&format!("k{i:03}"))).is_some());
        }
    }

    #[test]
    fn compaction_caps_run_count_and_reclaims_space() {
        let mut t = tiny();
        // Write the same small key set repeatedly to create shadowed versions.
        for round in 0..30 {
            for i in 0..8 {
                t.put(
                    Key::from_str(&format!("k{i}")),
                    Value::filler(32 + (round % 3)),
                );
            }
        }
        t.flush();
        assert!(t.compactions() > 0);
        assert!(t.run_count() <= 3 + 1);
        assert_eq!(t.len(), 8);
        // After an explicit full compaction only the live versions remain.
        t.compact();
        let fp = t.footprint();
        let live_payload: u64 = (0..8)
            .map(|i| {
                (format!("k{i}").len() + t.get(&Key::from_str(&format!("k{i}"))).unwrap().len())
                    as u64
            })
            .sum();
        assert_eq!(fp.payload_bytes, live_payload);
    }

    #[test]
    fn tombstones_survive_flush_and_die_in_compaction() {
        let mut t = tiny();
        t.put(Key::from_str("gone"), Value::filler(16));
        t.flush();
        assert!(t.delete(&Key::from_str("gone")));
        t.flush();
        // Before compaction the old version and the tombstone both exist.
        assert_eq!(t.get(&Key::from_str("gone")), None);
        assert_eq!(t.len(), 0);
        t.compact();
        assert_eq!(t.get(&Key::from_str("gone")), None);
        assert_eq!(t.footprint().payload_bytes, 0);
    }

    #[test]
    fn flushes_and_compactions_after_a_clone_leave_the_shared_runs_intact() {
        let key = |i: usize| Key::from_str(&format!("k{i:03}"));
        let mut base = tiny();
        for i in 0..20 {
            base.put(key(i), Value::filler(32));
        }
        assert!(base.run_count() >= 1 && !base.memtable.is_empty());
        let snapshot = |t: &LsmTree| (t.scan(&key(0), &key(999)), t.footprint(), t.run_count());
        let before = snapshot(&base);
        let mut fork = base.clone();
        assert_eq!(snapshot(&fork), before);
        // Overwrite and delete through the fork until it has flushed and
        // compacted several times over the runs it shares with `base`.
        for round in 0..10 {
            for i in 0..20 {
                fork.put(key(i), Value::filler(40 + round));
            }
        }
        assert!(fork.delete(&key(0)));
        fork.flush();
        fork.compact();
        assert!(fork.compactions() > base.compactions());
        assert_eq!(fork.len(), 19);
        assert_eq!(fork.get(&key(5)).unwrap().len(), 49);
        assert_eq!(snapshot(&base), before, "the fork disturbed its origin");
        // And the other way round: the origin moving on does not reach the fork.
        base.put(key(5), Value::filler(7));
        base.flush();
        assert_eq!(fork.get(&key(5)).unwrap().len(), 49);
    }

    #[test]
    fn read_amplification_grows_with_runs() {
        let mut t = tiny();
        t.put(Key::from_str("old"), Value::filler(200));
        t.flush();
        t.put(Key::from_str("newer"), Value::filler(200));
        t.flush();
        // "old" now requires probing memtable + newest run + older run.
        assert!(t.read_amplification(&Key::from_str("old")) >= 3);
        // A missing key probes everything.
        assert!(t.read_amplification(&Key::from_str("missing")) >= 3);
    }

    #[test]
    fn delete_of_missing_key_is_a_noop() {
        let mut t = LsmTree::new();
        assert!(!t.delete(&Key::from_str("nothing")));
        assert_eq!(t.len(), 0);
        assert_eq!(t.footprint().total(), 0);
    }

    #[test]
    fn scan_merges_memtable_over_runs() {
        let mut t = tiny();
        t.put(Key::from_str("a"), Value::filler(4));
        t.put(Key::from_str("b"), Value::filler(4));
        t.flush();
        t.put(Key::from_str("b"), Value::filler(8)); // newer version in memtable
        t.put(Key::from_str("c"), Value::filler(4));
        let out = t.scan(&Key::from_str("a"), &Key::from_str("z"));
        assert_eq!(out.len(), 3);
        assert_eq!(out[1].1.len(), 8, "memtable version must win");
    }

    /// Everything a reader or the footprint can see of `a` and `b` must match.
    fn assert_same_tree(a: &LsmTree, b: &LsmTree, keys: &[Key], what: &str) {
        assert_eq!(a.footprint(), b.footprint(), "{what}: footprint");
        assert_eq!(a.run_count(), b.run_count(), "{what}: run_count");
        assert_eq!(a.flushes(), b.flushes(), "{what}: flushes");
        assert_eq!(a.compactions(), b.compactions(), "{what}: compactions");
        assert_eq!(a.len(), b.len(), "{what}: len");
        let (lo, hi) = (Key::from_str(""), Key::from_str("~"));
        assert_eq!(a.scan(&lo, &hi), b.scan(&lo, &hi), "{what}: scan");
        for key in keys.iter().chain([&Key::from_str("missing")]) {
            let amplification = |t: &LsmTree| t.read_amplification(key);
            assert_eq!(amplification(a), amplification(b), "{what}: {key:?}");
        }
    }

    /// `load` against the `put` loop it stands for, over every input shape,
    /// budgets from 64 B to 4 KB (half of them a whole number of equal-sized
    /// records) and `max_runs` 1 to 4, so runs flush and compact inside the
    /// bulk path; every seventh case loads into a non-empty tree.
    #[test]
    fn load_leaves_the_state_of_the_put_loop() {
        let mut compacted_in_load = 0;
        for case in 0..200u64 {
            let seed = derive_seed(0x15A, &case.to_string());
            let rng = &mut seeded(seed);
            let records = conformance::bulk_records(case, rng);
            let record_bytes = records.first().map(|(k, v)| k.len() + v.len());
            let budget = match record_bytes {
                Some(size) if rng.gen_bool(0.5) => {
                    size * rng.gen_range(64usize.div_ceil(size)..=4096 / size)
                }
                _ => rng.gen_range(64..=4096),
            };
            let mut bulk = LsmTree::with_config(LsmConfig {
                memtable_budget_bytes: budget,
                max_runs: rng.gen_range(1..=4),
            });
            if case % 7 == 0 {
                for i in 0..5 {
                    bulk.put(
                        Key::from_str(&format!("key{:05}", i * 3)),
                        Value::filler(40),
                    );
                }
            }
            let mut looped = bulk.clone();
            bulk.load(&records);
            for (key, value) in &records {
                looped.put(key.clone(), value.clone());
            }
            // Neither a non-empty tree nor a repeated key takes the bulk path.
            if bulk.compactions() > 0 && case % 7 != 0 && case % 5 != 3 {
                compacted_in_load += 1;
            }
            let mut keys: Vec<Key> = records.iter().map(|(k, _)| k.clone()).collect();
            assert_same_tree(&bulk, &looped, &keys, &format!("seed {seed}, loaded"));
            for _ in 0..50 {
                let key = Key::from_str(&format!("key{:05}", rng.gen_range(0..300u32)));
                if rng.gen_ratio(1, 4) {
                    assert_eq!(bulk.delete(&key), looped.delete(&key), "seed {seed}");
                } else {
                    let value = Value::filler(rng.gen_range(1..=300));
                    bulk.put(key.clone(), value.clone());
                    looped.put(key.clone(), value);
                }
                keys.push(key);
            }
            assert_same_tree(&bulk, &looped, &keys, &format!("seed {seed}, written"));
        }
        assert!(
            compacted_in_load > 0,
            "no case compacted inside the bulk path"
        );
    }
}
