//! A Merkle Bucket Tree (MBT), the authenticated state index of Hyperledger
//! Fabric v0.6 (and of the AHL sharded-blockchain model).
//!
//! The structure has a *fixed* scale, unlike the MPT: records are hashed into
//! one of `num_buckets` buckets, each bucket's content is digested, and a
//! Merkle tree with a fixed `fanout` is built over the bucket digests. With
//! the paper's configuration (1 000 buckets, fan-out 4) the tree depth is
//! capped at ⌈log₄ 1000⌉ = 5, so the per-record overhead stays at a few tens
//! of bytes (Figure 13 reports +24 B per record) — each record contributes
//! one fixed-size digest entry to its bucket while the interior tree is
//! amortized over all records.
//!
//! Digests are refreshed on demand: a write updates its bucket's entries and
//! marks the bucket stale, and [`root_hash`](MerkleBucketTree::root_hash)
//! re-digests every stale bucket, and each tree node above them, once. The
//! [`UpdateStats`] of a write still count the whole bucket-to-root path it
//! invalidates.

use std::sync::Mutex;

use dichotomy_common::size::{StorageBreakdown, StorageFootprint};
use dichotomy_common::{Hash, Key, Value};

use crate::UpdateStats;

/// Per-record entry kept inside a bucket: a truncated digest of the key and a
/// truncated digest of the value (24 bytes total, matching the overhead the
/// paper measures for Fabric v0.6's data nodes).
#[derive(Debug, Clone, PartialEq, Eq)]
struct BucketEntry {
    key_digest: [u8; 16],
    value_digest: [u8; 8],
}

/// Why the digest lock can be poisoned: nothing else holds it.
const REFRESH_PANICKED: &str = "a root refresh panicked";

/// The Merkle Bucket Tree.
#[derive(Debug)]
pub struct MerkleBucketTree {
    num_buckets: usize,
    fanout: usize,
    /// Bucket contents, each kept sorted by key digest.
    buckets: Vec<Vec<BucketEntry>>,
    /// The digest tree, brought up to date by `root_hash`.
    levels: Mutex<Levels>,
    len: usize,
    /// The last value digested and its digest: a run of writes of equal
    /// bytes digests them once.
    last_value: Option<(Value, [u8; 8])>,
}

/// The digest tree over the buckets.
#[derive(Debug, Clone)]
struct Levels {
    /// `hashes[0]` = bucket digests, last level = root.
    hashes: Vec<Vec<Hash>>,
    /// Buckets written since their digest was last computed, each listed
    /// once: `is_stale` flags the listed ones.
    stale: Vec<usize>,
    is_stale: Vec<bool>,
}

impl Levels {
    fn mark_stale(&mut self, bucket: usize) {
        if !std::mem::replace(&mut self.is_stale[bucket], true) {
            self.stale.push(bucket);
        }
    }

    /// Re-digest every stale bucket of `buckets`, then each tree node above
    /// one, once per node.
    fn refresh(&mut self, buckets: &[Vec<BucketEntry>], fanout: usize) {
        let mut stale = std::mem::take(&mut self.stale);
        stale.sort_unstable();
        for &b in &stale {
            self.hashes[0][b] = digest_bucket(&buckets[b]);
            self.is_stale[b] = false;
        }
        for level in 1..self.hashes.len() {
            for index in &mut stale {
                *index /= fanout;
            }
            stale.dedup();
            let (below, above) = self.hashes.split_at_mut(level);
            let below = &below[level - 1];
            for &index in &stale {
                let end = ((index + 1) * fanout).min(below.len());
                above[0][index] = digest_group(&below[index * fanout..end]);
            }
        }
    }
}

fn digest_bucket(entries: &[BucketEntry]) -> Hash {
    if entries.is_empty() {
        return Hash::ZERO;
    }
    let mut h = dichotomy_common::hash::Hasher::new();
    for e in entries {
        h.update(&e.key_digest);
        h.update(&e.value_digest);
    }
    h.finalize()
}

/// The digest of a tree node over its children's digests.
fn digest_group(group: &[Hash]) -> Hash {
    let mut h = dichotomy_common::hash::Hasher::new();
    for g in group {
        h.update(&g.0);
    }
    h.finalize()
}

impl MerkleBucketTree {
    /// The configuration used in the paper's experiments: 1 000 buckets with
    /// a Merkle fan-out of 4 (tree depth ⌈log₄ 1000⌉ = 5).
    pub fn fabric_default() -> Self {
        Self::new(1000, 4)
    }

    /// Build an empty tree with the given shape.
    pub fn new(num_buckets: usize, fanout: usize) -> Self {
        let num_buckets = num_buckets.max(1);
        let fanout = fanout.max(2);
        let mut hashes = vec![vec![Hash::ZERO; num_buckets]];
        let mut width = num_buckets;
        while width > 1 {
            width = width.div_ceil(fanout);
            hashes.push(vec![Hash::ZERO; width]);
        }
        MerkleBucketTree {
            num_buckets,
            fanout,
            buckets: vec![Vec::new(); num_buckets],
            // Every bucket stale: the first root read digests the whole tree.
            levels: Mutex::new(Levels {
                hashes,
                stale: (0..num_buckets).collect(),
                is_stale: vec![true; num_buckets],
            }),
            len: 0,
            last_value: None,
        }
    }

    /// Depth of the Merkle tree above the buckets (number of hashing levels,
    /// including the bucket-digest level).
    pub fn depth(&self) -> usize {
        self.levels.lock().expect(REFRESH_PANICKED).hashes.len()
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The root digest of the global state. Re-digests what the writes since
    /// the last read left stale.
    pub fn root_hash(&self) -> Hash {
        let mut levels = self.levels.lock().expect(REFRESH_PANICKED);
        levels.refresh(&self.buckets, self.fanout);
        levels
            .hashes
            .last()
            .and_then(|l| l.first())
            .copied()
            .unwrap_or(Hash::ZERO)
    }

    /// The bucket of `key` and the key digest its entry is filed under, both
    /// from one hash of the key.
    fn locate(&self, key: &Key) -> (usize, [u8; 16]) {
        let digest = Hash::of(key.as_bytes());
        let bucket = (digest.prefix_u64() % self.num_buckets as u64) as usize;
        (bucket, digest.0[..16].try_into().expect("16 bytes"))
    }

    fn value_digest(&self, value: &Value) -> [u8; 8] {
        match &self.last_value {
            Some((last, digest)) if last.as_bytes() == value.as_bytes() => *digest,
            _ => Hash::of(value.as_bytes()).0[..8]
                .try_into()
                .expect("8 bytes"),
        }
    }

    /// Mark `bucket` stale; returns the number of tree nodes the write
    /// invalidated (the bucket digest and every level above it).
    fn invalidate(&mut self, bucket: usize) -> usize {
        let levels = self.levels.get_mut().expect(REFRESH_PANICKED);
        levels.mark_stale(bucket);
        levels.hashes.len()
    }

    /// Insert or overwrite `key` with `value`, returning update statistics
    /// for CPU-cost charging.
    pub fn put(&mut self, key: &Key, value: &Value) -> UpdateStats {
        let (bucket, key_digest) = self.locate(key);
        let value_digest = self.value_digest(value);
        self.last_value = Some((value.clone(), value_digest));
        let entries = &mut self.buckets[bucket];
        match entries.binary_search_by(|e| e.key_digest.cmp(&key_digest)) {
            Ok(i) => entries[i].value_digest = value_digest,
            Err(i) => {
                entries.insert(
                    i,
                    BucketEntry {
                        key_digest,
                        value_digest,
                    },
                );
                self.len += 1;
            }
        }
        UpdateStats {
            nodes_touched: self.invalidate(bucket),
            leaf_bytes: value.len(),
        }
    }
}

impl Clone for MerkleBucketTree {
    fn clone(&self) -> Self {
        MerkleBucketTree {
            num_buckets: self.num_buckets,
            fanout: self.fanout,
            buckets: self.buckets.clone(),
            levels: Mutex::new(self.levels.lock().expect(REFRESH_PANICKED).clone()),
            len: self.len,
            last_value: self.last_value.clone(),
        }
    }
}

impl StorageFootprint for MerkleBucketTree {
    fn footprint(&self) -> StorageBreakdown {
        // 24 bytes per record entry + 32 bytes per interior/bucket hash.
        let entry_bytes: u64 = self.buckets.iter().map(|b| b.len() as u64 * 24).sum();
        let levels = self.levels.lock().expect(REFRESH_PANICKED);
        let tree_bytes: u64 = levels.hashes.iter().map(|l| l.len() as u64 * 32).sum();
        StorageBreakdown {
            payload_bytes: 0,
            index_bytes: entry_bytes + tree_bytes,
            history_bytes: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use dichotomy_common::rng::{derive_seed, seeded, Rng};

    use super::*;

    fn key(i: u64) -> Key {
        Key::new(&Hash::of(&i.to_be_bytes()).0[..16])
    }

    impl MerkleBucketTree {
        /// The eager reference: every level recomputed from the buckets, as
        /// a tree that digests on every write would hold it.
        fn rebuild_all_levels(&mut self) {
            let levels = self.levels.get_mut().unwrap();
            levels.hashes = vec![self.buckets.iter().map(|b| digest_bucket(b)).collect()];
            while levels.hashes.last().unwrap().len() > 1 {
                let next = levels
                    .hashes
                    .last()
                    .unwrap()
                    .chunks(self.fanout)
                    .map(digest_group)
                    .collect();
                levels.hashes.push(next);
            }
            levels.stale.clear();
            levels.is_stale.fill(false);
        }
    }

    #[test]
    fn fabric_default_depth_is_five_plus_root_levels() {
        let t = MerkleBucketTree::fabric_default();
        // 1000 → 250 → 63 → 16 → 4 → 1: six levels of hashes, i.e. the
        // ⌈log₄ 1000⌉ = 5 interior hashing steps the paper describes.
        assert_eq!(t.depth(), 6);
    }

    #[test]
    fn put_and_authenticate() {
        let mut t = MerkleBucketTree::fabric_default();
        t.put(&key(1), &Value::filler(100));
        t.put(&key(2), &Value::filler(200));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn root_changes_with_every_update() {
        let mut t = MerkleBucketTree::fabric_default();
        let r0 = t.root_hash();
        t.put(&key(1), &Value::filler(10));
        let r1 = t.root_hash();
        t.put(&key(1), &Value::filler(11));
        let r2 = t.root_hash();
        assert_ne!(r0, r1);
        assert_ne!(r1, r2);
    }

    #[test]
    fn incremental_path_refresh_matches_full_rebuild() {
        let mut t = MerkleBucketTree::new(64, 4);
        for i in 0..500 {
            t.put(&key(i), &Value::filler((i % 50 + 1) as usize));
        }
        let incremental_root = t.root_hash();
        t.rebuild_all_levels();
        assert_eq!(t.root_hash(), incremental_root);
    }

    /// The tree an eager implementation holds for `model`: every entry
    /// digested from scratch, every level rebuilt.
    fn eager(shape: (usize, usize), model: &BTreeMap<u64, Value>) -> MerkleBucketTree {
        let mut tree = MerkleBucketTree::new(shape.0, shape.1);
        for (&k, value) in model {
            let (bucket, key_digest) = tree.locate(&key(k));
            let value_digest = Hash::of(value.as_bytes()).0[..8].try_into().unwrap();
            tree.buckets[bucket].push(BucketEntry {
                key_digest,
                value_digest,
            });
        }
        for bucket in &mut tree.buckets {
            bucket.sort_by_key(|e| e.key_digest);
        }
        tree.len = model.len();
        tree.rebuild_all_levels();
        tree
    }

    /// Seeded put / clone interleavings, each tree beside a model
    /// of what it holds; every root read is checked against an eager tree
    /// built from the model, and clones refresh independently of their
    /// originals.
    #[test]
    fn lazy_roots_match_an_eager_rebuild_at_every_read() {
        for case in 0..24u64 {
            let mut rng = seeded(derive_seed(0x3B7, &case.to_string()));
            let shape = [(1, 2), (7, 3), (64, 4), (1000, 4)][case as usize % 4];
            let mut trees = vec![(MerkleBucketTree::new(shape.0, shape.1), BTreeMap::new())];
            for step in 0..400 {
                let t = rng.gen_range(0..trees.len());
                let may_clone = trees.len() < 4;
                let (tree, model) = &mut trees[t];
                match rng.gen_range(0..10u8) {
                    0..=4 => {
                        // Few distinct contents of few lengths, in fresh
                        // buffers: the value memo must go by content alone.
                        let len = [0, 1, 10, 10, 1000][rng.gen_range(0..5usize)];
                        let value = Value::new(vec![rng.gen_range(0..3u8); len]);
                        let k = rng.gen_range(0..80);
                        tree.put(&key(k), &value);
                        model.insert(k, value);
                    }
                    7 if may_clone => {
                        let clone = (tree.clone(), model.clone());
                        trees.push(clone);
                    }
                    _ => {
                        let mut eager = eager(shape, model);
                        let at = format!("case {case} step {step}");
                        assert_eq!(tree.root_hash(), eager.root_hash(), "{at}");
                        assert_eq!(tree.buckets, eager.buckets, "{at}");
                        assert_eq!(
                            tree.levels.get_mut().unwrap().hashes,
                            eager.levels.get_mut().unwrap().hashes,
                            "{at}"
                        );
                        assert_eq!(tree.len(), model.len(), "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn overwrite_does_not_grow_len() {
        let mut t = MerkleBucketTree::fabric_default();
        for _ in 0..10 {
            t.put(&key(7), &Value::filler(10));
        }
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn per_record_overhead_is_tens_of_bytes_like_figure_13() {
        let mut t = MerkleBucketTree::fabric_default();
        let n = 10_000u64;
        for i in 0..n {
            t.put(&key(i), &Value::filler(10));
        }
        let overhead = t.footprint().overhead_per_record(n);
        // 24 B per entry + amortized fixed tree (≈ 1333 hashes / 10 000 recs).
        assert!(
            overhead > 20.0 && overhead < 40.0,
            "overhead {overhead:.1} B/record"
        );
    }

    #[test]
    fn update_stats_depth_is_fixed() {
        let mut t = MerkleBucketTree::fabric_default();
        let stats = t.put(&key(9), &Value::filler(5000));
        assert_eq!(stats.nodes_touched, 6);
        assert_eq!(stats.leaf_bytes, 5000);
        // Depth does not grow with more records.
        for i in 0..1000 {
            t.put(&key(i), &Value::filler(10));
        }
        assert_eq!(t.put(&key(9), &Value::filler(10)).nodes_touched, 6);
    }
}
