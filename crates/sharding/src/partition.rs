//! Data partitioning: which shard owns a key.

use dichotomy_common::{Hash, Key, ShardId};

/// The data partitioner: the hash of a key modulo the shard count
/// (uniform and locality-blind).
#[derive(Debug, Clone)]
pub struct Partitioner {
    shards: u32,
}

impl Partitioner {
    /// A hash partitioner over `shards` shards.
    pub fn hash(shards: u32) -> Self {
        Partitioner {
            shards: shards.max(1),
        }
    }

    /// Which shard owns `key`.
    pub fn shard_of(&self, key: &Key) -> ShardId {
        ShardId((Hash::of(key.as_bytes()).prefix_u64() % self.shards as u64) as u32)
    }

    /// Which distinct shards a transaction touching `keys` spans.
    pub fn shards_of(&self, keys: &[&Key]) -> Vec<ShardId> {
        let mut shards: Vec<ShardId> = keys.iter().map(|k| self.shard_of(k)).collect();
        shards.sort();
        shards.dedup();
        shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_partitioning_is_deterministic_and_balanced() {
        let p = Partitioner::hash(8);
        let mut counts = vec![0u32; 8];
        for i in 0..8000 {
            let key = Key::from_str(&format!("user{i:08}"));
            let s = p.shard_of(&key);
            assert_eq!(s, p.shard_of(&key));
            counts[s.0 as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c > 700 && c < 1300), "{counts:?}");
    }

    #[test]
    fn cross_shard_detection() {
        let p = Partitioner::hash(4);
        let (a, b) = (Key::from_str("aaa"), Key::from_str("zzz42"));
        let same = p.shard_of(&a) == p.shard_of(&b);
        assert_eq!(p.shards_of(&[&a, &b]).len(), if same { 1 } else { 2 });
        assert_eq!(p.shards_of(&[&a, &a]).len(), 1);
    }
}
