//! A multi-version key-value store.
//!
//! The models that keep versioned state read it here: Fabric's optimistic
//! validation (`dichotomy-txn`) compares the version a transaction read
//! against the currently committed version; the TiDB model reads at a
//! snapshot timestamp and commits at the next version; the sharded database
//! models commit each write at a new version. The MVCC
//! store keeps, per key, the list of committed versions (a commit version
//! number plus the value or a deletion marker) and supports reads "as of" a
//! version.
//!
//! Both version maps, a store's own and its frozen base, are hash-indexed
//! point maps ([`KeyMap`]): every read and commit finds its key by hash.
//! Nothing reads them in key order; the counts and the footprint are
//! order-free sums over every key.

use std::sync::Arc;

use dichotomy_common::size::{StorageBreakdown, StorageFootprint};
use dichotomy_common::{Key, KeyMap, Value, Version};

/// One committed version of a key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionedValue {
    /// The commit version (monotonically increasing store-wide).
    pub version: Version,
    /// The value, or `None` for a deletion.
    pub value: Option<Value>,
}

/// Per key: committed versions in ascending version order.
type VersionMap = KeyMap<Vec<VersionedValue>>;

/// The multi-version store.
///
/// A store may sit on a shared immutable **base**: [`freeze`](Self::freeze)
/// moves every version committed so far behind an `Arc`, after which
/// `clone()` is a *fork* that shares the base and keeps only the versions it
/// appends itself. Forks never observe each other's commits, and every read
/// answers as an unshared store with the same history would.
#[derive(Debug, Clone, Default)]
pub struct MvccStore {
    /// Frozen history shared with other forks; `None` for an unshared store.
    base: Option<Arc<VersionMap>>,
    /// Versions committed through this store since the base was frozen (all
    /// of them when unshared); per key they continue the base's list.
    data: VersionMap,
    /// Highest version committed so far.
    latest_version: Version,
}

/// The newest of `versions` with `version <= snapshot`.
fn visible_at(versions: &[VersionedValue], snapshot: Version) -> Option<&VersionedValue> {
    versions[..versions.partition_point(|v| v.version <= snapshot)].last()
}

impl MvccStore {
    /// An empty store at version 0.
    pub fn new() -> Self {
        MvccStore::default()
    }

    /// Move every committed version into a shared immutable base, so that
    /// `clone()` forks this store without copying its history. Reads are
    /// unchanged.
    pub fn freeze(&mut self) {
        if self.base.is_some() && self.data.is_empty() {
            return;
        }
        self.materialise();
        self.base = Some(Arc::new(std::mem::take(&mut self.data)));
    }

    /// Fold the shared base back into this store's own map (copying it when
    /// other forks still hold it), leaving an unshared store.
    fn materialise(&mut self) {
        let Some(base) = self.base.take() else { return };
        let base = Arc::try_unwrap(base).unwrap_or_else(|shared| VersionMap::clone(&shared));
        for (key, appended) in std::mem::replace(&mut self.data, base) {
            self.data.entry(key).or_default().extend(appended);
        }
    }

    /// The base's versions of `key` (empty when unshared or never written).
    fn base_versions(&self, key: &Key) -> &[VersionedValue] {
        self.base
            .as_ref()
            .and_then(|base| base.get(key))
            .map_or(&[], Vec::as_slice)
    }

    /// This store's own versions of `key`.
    fn own_versions(&self, key: &Key) -> &[VersionedValue] {
        self.data.get(key).map_or(&[], Vec::as_slice)
    }

    /// The newest version of `key` across base and overlay.
    fn newest(&self, key: &Key) -> Option<&VersionedValue> {
        self.own_versions(key)
            .last()
            .or_else(|| self.base_versions(key).last())
    }

    /// Every key ever written with its version list split as (base part,
    /// own part), in no particular order. Either part may be empty, never
    /// both.
    fn histories(&self) -> impl Iterator<Item = (&Key, &[VersionedValue], &[VersionedValue])> {
        let base = self.base.iter().flat_map(|base| base.iter());
        let shared = base.map(|(key, versions)| (key, versions.as_slice(), self.own_versions(key)));
        let own_only = self
            .data
            .iter()
            .filter(|(key, _)| self.base_versions(key).is_empty())
            .map(|(key, versions)| (key, &[][..], versions.as_slice()));
        shared.chain(own_only)
    }

    /// Highest committed version.
    pub fn latest_version(&self) -> Version {
        self.latest_version
    }

    /// Allocate the next commit version (callers then pass it to
    /// [`commit_write`](Self::commit_write) for each key in the write set).
    pub fn begin_commit(&mut self) -> Version {
        self.latest_version += 1;
        self.latest_version
    }

    /// Record a committed write of `key` at `version`.
    ///
    /// Versions must be appended in non-decreasing order per key; this is
    /// guaranteed when versions come from [`begin_commit`](Self::begin_commit).
    pub fn commit_write(&mut self, key: Key, version: Version, value: Option<Value>) {
        self.latest_version = self.latest_version.max(version);
        debug_assert!(
            self.newest(&key).map_or(true, |v| v.version <= version),
            "versions must be appended in order"
        );
        // A history starts at one slot: most keys are written once, by the
        // preload, where `or_default` would reserve four.
        self.data
            .entry(key)
            .or_insert_with(|| Vec::with_capacity(1))
            .push(VersionedValue { version, value });
    }

    /// Commit every record's value at `version`, exactly as the same
    /// [`commit_write`](Self::commit_write)s in order: a key that appears
    /// more than once gets one version per appearance, all numbered
    /// `version`, in input order. The map is sized for the records once.
    pub fn load(&mut self, version: Version, records: &[(Key, Value)]) {
        self.data.reserve(records.len());
        for (key, value) in records {
            self.commit_write(key.clone(), version, Some(value.clone()));
        }
    }

    /// The latest committed version number of `key`, if the key has ever been
    /// written (deletions still count as versions — Fabric's validation
    /// treats a deleted key's version as its latest write).
    pub fn latest_key_version(&self, key: &Key) -> Option<Version> {
        self.newest(key).map(|v| v.version)
    }

    /// Read the latest committed value of `key`.
    pub fn get_latest(&self, key: &Key) -> Option<Value> {
        self.newest(key).and_then(|v| v.value.clone())
    }

    /// Read the value of `key` as of `snapshot` (the newest version with
    /// `version <= snapshot`).
    pub fn get_at(&self, key: &Key, snapshot: Version) -> Option<Value> {
        self.read_versioned(key, snapshot).and_then(|(_, v)| v)
    }

    /// Read the (version, value) pair visible at `snapshot`.
    pub fn read_versioned(&self, key: &Key, snapshot: Version) -> Option<(Version, Option<Value>)> {
        visible_at(self.own_versions(key), snapshot)
            .or_else(|| visible_at(self.base_versions(key), snapshot))
            .map(|v| (v.version, v.value.clone()))
    }

    /// Number of keys that have ever been written.
    pub fn key_count(&self) -> usize {
        self.histories().count()
    }

    /// Number of live keys (latest version is not a deletion).
    pub fn live_key_count(&self) -> usize {
        self.histories()
            .filter(|(_, base, own)| {
                own.last()
                    .or(base.last())
                    .is_some_and(|v| v.value.is_some())
            })
            .count()
    }

    /// Total number of stored versions across all keys.
    pub fn version_count(&self) -> usize {
        self.histories()
            .map(|(_, base, own)| base.len() + own.len())
            .sum()
    }
}

impl StorageFootprint for MvccStore {
    fn footprint(&self) -> StorageBreakdown {
        let mut payload = 0u64;
        let mut history = 0u64;
        let mut index = 0u64;
        for (key, base, own) in self.histories() {
            index += key.len() as u64 + 16;
            let count = base.len() + own.len();
            for (i, v) in base.iter().chain(own).enumerate() {
                let bytes = v.value.as_ref().map_or(1, Value::len) as u64 + 8;
                if i + 1 == count {
                    payload += bytes;
                } else {
                    history += bytes;
                }
            }
        }
        StorageBreakdown {
            payload_bytes: payload,
            index_bytes: index,
            history_bytes: history,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::conformance;
    use dichotomy_common::rng::{derive_seed, seeded, Rng};

    fn k(s: &str) -> Key {
        Key::from_str(s)
    }

    #[test]
    fn snapshot_reads_see_only_older_versions() {
        let mut s = MvccStore::new();
        let v1 = s.begin_commit();
        s.commit_write(k("a"), v1, Some(Value::filler(1)));
        let v2 = s.begin_commit();
        s.commit_write(k("a"), v2, Some(Value::filler(2)));

        assert_eq!(s.get_at(&k("a"), v1).unwrap().len(), 1);
        assert_eq!(s.get_at(&k("a"), v2).unwrap().len(), 2);
        assert_eq!(s.get_at(&k("a"), 0), None);
        assert_eq!(s.get_latest(&k("a")).unwrap().len(), 2);
        assert_eq!(s.latest_key_version(&k("a")), Some(v2));
    }

    #[test]
    fn deletions_are_versions() {
        let mut s = MvccStore::new();
        let v1 = s.begin_commit();
        s.commit_write(k("a"), v1, Some(Value::filler(4)));
        let v2 = s.begin_commit();
        s.commit_write(k("a"), v2, None);
        assert_eq!(s.get_latest(&k("a")), None);
        assert_eq!(s.get_at(&k("a"), v1).unwrap().len(), 4);
        assert_eq!(s.latest_key_version(&k("a")), Some(v2));
        assert_eq!(s.live_key_count(), 0);
        assert_eq!(s.key_count(), 1);
    }

    #[test]
    fn read_versioned_returns_the_version_read() {
        let mut s = MvccStore::new();
        let v1 = s.begin_commit();
        s.commit_write(k("x"), v1, Some(Value::filler(8)));
        let (ver, val) = s.read_versioned(&k("x"), v1 + 100).unwrap();
        assert_eq!(ver, v1);
        assert_eq!(val.unwrap().len(), 8);
        assert!(s.read_versioned(&k("missing"), 10).is_none());
    }

    #[test]
    fn footprint_splits_live_and_history() {
        let mut s = MvccStore::new();
        let v1 = s.begin_commit();
        s.commit_write(k("a"), v1, Some(Value::filler(100)));
        let v2 = s.begin_commit();
        s.commit_write(k("a"), v2, Some(Value::filler(200)));
        let fp = s.footprint();
        assert_eq!(fp.payload_bytes, 200 + 8);
        assert_eq!(fp.history_bytes, 100 + 8);
        assert!(fp.index_bytes > 0);
    }

    #[test]
    fn a_fork_reads_through_the_base_and_keeps_its_commits_to_itself() {
        let load = |s: &mut MvccStore| {
            let v = s.begin_commit();
            for name in ["a", "b", "c"] {
                s.commit_write(k(name), v, Some(Value::filler(10)));
            }
        };
        let mutate = |s: &mut MvccStore| {
            let v = s.begin_commit();
            s.commit_write(k("a"), v, Some(Value::filler(20)));
            s.commit_write(k("new"), v, Some(Value::filler(5)));
            let v = s.begin_commit();
            s.commit_write(k("b"), v, None);
        };
        let observe = |s: &MvccStore| {
            let reads: Vec<_> = ["a", "b", "c", "new", "missing"]
                .iter()
                .flat_map(|name| (0..=4).map(move |snap| (*name, snap)))
                .map(|(name, snap)| {
                    (
                        s.read_versioned(&k(name), snap),
                        s.get_at(&k(name), snap),
                        s.get_latest(&k(name)),
                        s.latest_key_version(&k(name)),
                    )
                })
                .collect();
            (
                reads,
                s.latest_version(),
                s.key_count(),
                s.live_key_count(),
                s.version_count(),
                s.footprint(),
            )
        };
        let mut fresh = MvccStore::new();
        load(&mut fresh);
        let mut base = MvccStore::new();
        load(&mut base);
        base.freeze();
        let untouched = observe(&base);
        let mut fork = base.clone();
        let sibling = base.clone();
        assert_eq!(observe(&fork), observe(&fresh));
        mutate(&mut fresh);
        mutate(&mut fork);
        assert_eq!(observe(&fork), observe(&fresh));
        assert_eq!(observe(&base), untouched);
        assert_eq!(observe(&sibling), untouched);
    }

    #[test]
    fn version_numbers_are_monotone() {
        let mut s = MvccStore::new();
        let a = s.begin_commit();
        let b = s.begin_commit();
        assert!(b > a);
        assert_eq!(s.latest_version(), b);
    }

    /// Everything a reader or the footprint can see of `a` and `b` must match.
    fn assert_same_store(a: &MvccStore, b: &MvccStore, keys: &[Key], what: &str) {
        assert_eq!(a.footprint(), b.footprint(), "{what}: footprint");
        assert_eq!(a.key_count(), b.key_count(), "{what}: key_count");
        assert_eq!(
            a.version_count(),
            b.version_count(),
            "{what}: version_count"
        );
        assert_eq!(
            a.latest_version(),
            b.latest_version(),
            "{what}: latest_version"
        );
        for key in keys.iter().chain([&k("missing")]) {
            let latest = |s: &MvccStore| (s.get_latest(key), s.latest_key_version(key));
            assert_eq!(latest(a), latest(b), "{what}: {key:?}");
        }
    }

    /// `load` against the `commit_write` loop it stands for, over every
    /// input shape (repeated keys included); every third case loads into a
    /// store that already holds commits of its own, every third into a fork
    /// whose commits all sit in the frozen base.
    #[test]
    fn load_leaves_the_state_of_the_commit_loop() {
        for case in 0..200u64 {
            let seed = derive_seed(0x3CC, &case.to_string());
            let rng = &mut seeded(seed);
            let records = conformance::bulk_records(case, rng);
            let mut bulk = MvccStore::new();
            if case % 3 != 0 {
                let v = bulk.begin_commit();
                for i in 0..5 {
                    bulk.commit_write(k(&format!("key{:05}", i * 3)), v, Some(Value::filler(40)));
                }
            }
            if case % 3 == 2 {
                bulk.freeze();
                bulk = bulk.clone();
            }
            let mut looped = bulk.clone();
            let version = bulk.begin_commit();
            bulk.load(version, &records);
            assert_eq!(looped.begin_commit(), version);
            for (key, value) in &records {
                looped.commit_write(key.clone(), version, Some(value.clone()));
            }
            let mut keys: Vec<Key> = records.iter().map(|(k, _)| k.clone()).collect();
            assert_same_store(&bulk, &looped, &keys, &format!("seed {seed}, loaded"));
            for _ in 0..50 {
                let key = k(&format!("key{:05}", rng.gen_range(0..300u32)));
                let value = (!rng.gen_ratio(1, 4)).then(|| Value::filler(rng.gen_range(1..=300)));
                for store in [&mut bulk, &mut looped] {
                    let v = store.begin_commit();
                    store.commit_write(key.clone(), v, value.clone());
                }
                keys.push(key);
            }
            assert_same_store(&bulk, &looped, &keys, &format!("seed {seed}, written"));
        }
    }
}
