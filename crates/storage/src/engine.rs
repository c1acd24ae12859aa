//! The common key-value engine interface.

use dichotomy_common::size::StorageFootprint;
use dichotomy_common::{Key, Value};

/// Which concrete engine a system uses; mirrors the "Index (Storage Engine)"
/// column of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// LSM tree (LevelDB / RocksDB / TiKV).
    Lsm,
    /// B+ tree (BoltDB / MySQL / PostgreSQL / MongoDB).
    BPlusTree,
}

impl EngineKind {
    /// Human-readable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            EngineKind::Lsm => "LSM tree",
            EngineKind::BPlusTree => "B+ tree",
        }
    }
}

/// A mutable key-value storage engine.
///
/// `scan` returns live key/value pairs in ascending key order within
/// `[start, end)`; engines that keep tombstones must filter them out.
pub trait KvEngine: StorageFootprint {
    /// Insert or overwrite `key` with `value`.
    fn put(&mut self, key: Key, value: Value);

    /// Write `records` in order, leaving exactly the state the same
    /// [`put`](Self::put)s would. The default is that loop; an engine whose
    /// loaded state does not depend on the order of its internal steps may
    /// build it in one pass instead (the LSM tree does, the B+ tree's node
    /// layout depends on the order of its splits).
    fn load(&mut self, records: &[(Key, Value)]) {
        for (key, value) in records {
            self.put(key.clone(), value.clone());
        }
    }

    /// Read the current value of `key`, if any.
    fn get(&self, key: &Key) -> Option<Value>;

    /// Delete `key`. Returns `true` if the key was live before the call.
    fn delete(&mut self, key: &Key) -> bool;

    /// Number of live records.
    fn len(&self) -> usize;

    /// Whether the engine holds no live records.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ordered range scan over live records in `[start, end)`.
    fn scan(&self, start: &Key, end: &Key) -> Vec<(Key, Value)>;

    /// Which kind of engine this is.
    fn kind(&self) -> EngineKind;

    /// Structural depth/levels touched by a point read of `key`: LSM = number
    /// of runs probed, B+ tree = tree height. Systems multiply this by the
    /// cost model's per-probe constants.
    fn read_amplification(&self, key: &Key) -> usize;
}

/// Construct a boxed engine of the requested kind with default parameters.
pub fn new_engine(kind: EngineKind) -> Box<dyn KvEngine> {
    match kind {
        EngineKind::Lsm => Box::new(crate::lsm::LsmTree::new()),
        EngineKind::BPlusTree => Box::new(crate::btree::BPlusTree::new()),
    }
}

/// Shared conformance test suite run against every engine (used by each
/// engine's test module).
#[cfg(test)]
pub mod conformance {
    use super::*;
    use dichotomy_common::rng::{Rng, SliceRandom, StdRng};

    /// Up to 200 records a bulk load must reproduce, in one of five key
    /// orders picked by `case`: ascending, descending, Smallbank's
    /// interleaved checking and savings keys, with repeats, shuffled. Every
    /// value is unique (its record's index, zero-padded); in half the cases
    /// all have one length, so a memtable budget can land exactly on a
    /// record boundary.
    pub fn bulk_records(case: u64, rng: &mut StdRng) -> Vec<(Key, Value)> {
        let n = rng.gen_range(0..=200u64);
        let key = |i: u64| Key::from_str(&format!("key{i:05}"));
        let keys: Vec<Key> = match case % 5 {
            0 => (0..n).map(key).collect(),
            1 => (0..n).rev().map(key).collect(),
            2 => (0..n)
                .map(|i| {
                    let account = if i % 2 == 0 { "chk" } else { "sav" };
                    Key::from_str(&format!("{account}:{:09}", i / 2))
                })
                .collect(),
            3 => (0..n).map(|_| key(rng.gen_range(0..=n / 2))).collect(),
            _ => {
                let mut keys: Vec<Key> = (0..n).map(key).collect();
                keys.shuffle(rng);
                keys
            }
        };
        let fixed = rng.gen_bool(0.5).then(|| rng.gen_range(3..=300usize));
        keys.into_iter()
            .enumerate()
            .map(|(i, k)| {
                let len = fixed.unwrap_or_else(|| rng.gen_range(3..=300));
                (k, Value::new(format!("{i:0>len$}")))
            })
            .collect()
    }

    /// Basic put/get/delete/scan behaviour every engine must satisfy.
    pub fn check_basic(engine: &mut dyn KvEngine) {
        assert!(engine.is_empty());
        let k = |s: &str| Key::from_str(s);
        let v = |s: &str| Value::new(s);

        engine.put(k("b"), v("2"));
        engine.put(k("a"), v("1"));
        engine.put(k("c"), v("3"));
        assert_eq!(engine.len(), 3);
        assert_eq!(engine.get(&k("a")), Some(v("1")));
        assert_eq!(engine.get(&k("zz")), None);

        // Overwrite does not grow the live count.
        engine.put(k("a"), v("1x"));
        assert_eq!(engine.len(), 3);
        assert_eq!(engine.get(&k("a")), Some(v("1x")));

        // Ordered scan, half-open interval.
        let scanned = engine.scan(&k("a"), &k("c"));
        assert_eq!(scanned.len(), 2);
        assert_eq!(scanned[0].0, k("a"));
        assert_eq!(scanned[1].0, k("b"));

        // Delete.
        assert!(engine.delete(&k("b")));
        assert!(!engine.delete(&k("b")));
        assert_eq!(engine.get(&k("b")), None);
        assert_eq!(engine.len(), 2);

        // Footprint accounts at least for the live payload.
        let fp = engine.footprint();
        assert!(fp.total() >= ("a".len() + "1x".len() + "c".len() + "3".len()) as u64);

        // Read amplification is at least one probe.
        assert!(engine.read_amplification(&k("a")) >= 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_kind_names() {
        assert_eq!(EngineKind::Lsm.name(), "LSM tree");
        assert_eq!(EngineKind::BPlusTree.name(), "B+ tree");
    }

    #[test]
    fn factory_builds_each_kind() {
        for kind in [EngineKind::Lsm, EngineKind::BPlusTree] {
            let mut e = new_engine(kind);
            assert_eq!(e.kind(), kind);
            conformance::check_basic(e.as_mut());
        }
    }
}
