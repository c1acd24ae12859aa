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

/// The Merkle Bucket Tree.
#[derive(Debug, Clone)]
pub struct MerkleBucketTree {
    num_buckets: usize,
    fanout: usize,
    /// Bucket contents, each kept sorted by key digest.
    buckets: Vec<Vec<BucketEntry>>,
    /// `levels[0]` = bucket digests, last level = root.
    levels: Vec<Vec<Hash>>,
    len: usize,
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
        let mut tree = MerkleBucketTree {
            num_buckets,
            fanout,
            buckets: vec![Vec::new(); num_buckets],
            levels: Vec::new(),
            len: 0,
        };
        tree.rebuild_all_levels();
        tree
    }

    /// Depth of the Merkle tree above the buckets (number of hashing levels,
    /// including the bucket-digest level).
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The root digest of the global state.
    pub fn root_hash(&self) -> Hash {
        self.levels
            .last()
            .and_then(|l| l.first())
            .copied()
            .unwrap_or(Hash::ZERO)
    }

    fn bucket_of(&self, key: &Key) -> usize {
        (Hash::of(key.as_bytes()).prefix_u64() % self.num_buckets as u64) as usize
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

    fn rebuild_all_levels(&mut self) {
        let bucket_digests: Vec<Hash> = self
            .buckets
            .iter()
            .map(|b| Self::digest_bucket(b))
            .collect();
        self.levels = vec![bucket_digests];
        while self.levels.last().expect("non-empty").len() > 1 {
            let prev = self.levels.last().expect("non-empty");
            let next: Vec<Hash> = prev
                .chunks(self.fanout)
                .map(|group| {
                    let mut h = dichotomy_common::hash::Hasher::new();
                    for g in group {
                        h.update(&g.0);
                    }
                    h.finalize()
                })
                .collect();
            self.levels.push(next);
        }
    }

    /// Recompute only the path from `bucket` to the root after that bucket
    /// changed. Returns the number of tree nodes rewritten.
    fn refresh_path(&mut self, bucket: usize) -> usize {
        let mut touched = 0;
        self.levels[0][bucket] = Self::digest_bucket(&self.buckets[bucket]);
        touched += 1;
        let mut idx = bucket;
        for level in 1..self.levels.len() {
            idx /= self.fanout;
            let start = idx * self.fanout;
            let end = (start + self.fanout).min(self.levels[level - 1].len());
            let mut h = dichotomy_common::hash::Hasher::new();
            for g in &self.levels[level - 1][start..end] {
                h.update(&g.0);
            }
            self.levels[level][idx] = h.finalize();
            touched += 1;
        }
        touched
    }

    /// Insert or overwrite `key` with `value`, returning update statistics
    /// for CPU-cost charging.
    pub fn put(&mut self, key: &Key, value: &Value) -> UpdateStats {
        let bucket = self.bucket_of(key);
        let key_digest: [u8; 16] = Hash::of(key.as_bytes()).0[..16]
            .try_into()
            .expect("16 bytes");
        let value_digest: [u8; 8] = Hash::of(value.as_bytes()).0[..8]
            .try_into()
            .expect("8 bytes");
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
        let nodes = self.refresh_path(bucket);
        UpdateStats {
            nodes_touched: nodes,
            leaf_bytes: value.len(),
        }
    }

    /// Whether `key` is present with exactly `value` (membership check a
    /// validator performs; MBT cannot return the value itself, it only
    /// authenticates what the state storage returned).
    pub fn authenticate(&self, key: &Key, value: &Value) -> bool {
        let bucket = self.bucket_of(key);
        let key_digest: [u8; 16] = Hash::of(key.as_bytes()).0[..16]
            .try_into()
            .expect("16 bytes");
        let value_digest: [u8; 8] = Hash::of(value.as_bytes()).0[..8]
            .try_into()
            .expect("8 bytes");
        self.buckets[bucket]
            .binary_search_by(|e| e.key_digest.cmp(&key_digest))
            .map(|i| self.buckets[bucket][i].value_digest == value_digest)
            .unwrap_or(false)
    }

    /// Remove `key`; returns `true` if it was present.
    pub fn delete(&mut self, key: &Key) -> bool {
        let bucket = self.bucket_of(key);
        let key_digest: [u8; 16] = Hash::of(key.as_bytes()).0[..16]
            .try_into()
            .expect("16 bytes");
        let entries = &mut self.buckets[bucket];
        if let Ok(i) = entries.binary_search_by(|e| e.key_digest.cmp(&key_digest)) {
            entries.remove(i);
            self.len -= 1;
            self.refresh_path(bucket);
            true
        } else {
            false
        }
    }
}

impl StorageFootprint for MerkleBucketTree {
    fn footprint(&self) -> StorageBreakdown {
        // 24 bytes per record entry + 32 bytes per interior/bucket hash.
        let entry_bytes: u64 = self.buckets.iter().map(|b| b.len() as u64 * 24).sum();
        let tree_bytes: u64 = self.levels.iter().map(|l| l.len() as u64 * 32).sum();
        StorageBreakdown {
            payload_bytes: 0,
            index_bytes: entry_bytes + tree_bytes,
            history_bytes: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> Key {
        Key::new(&Hash::of(&i.to_be_bytes()).0[..16])
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
        assert!(t.authenticate(&key(1), &Value::filler(100)));
        assert!(!t.authenticate(&key(1), &Value::filler(101)));
        assert!(!t.authenticate(&key(3), &Value::filler(100)));
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

    #[test]
    fn overwrite_does_not_grow_len() {
        let mut t = MerkleBucketTree::fabric_default();
        for _ in 0..10 {
            t.put(&key(7), &Value::filler(10));
        }
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn delete_removes_and_changes_root() {
        let mut t = MerkleBucketTree::fabric_default();
        t.put(&key(1), &Value::filler(10));
        let with = t.root_hash();
        assert!(t.delete(&key(1)));
        assert!(!t.delete(&key(1)));
        assert_ne!(t.root_hash(), with);
        assert_eq!(t.len(), 0);
        assert!(!t.authenticate(&key(1), &Value::filler(10)));
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
