//! Data partitioning and shard (re-)formation.

use dichotomy_common::rng::{self, SliceRandom};
use dichotomy_common::{Hash, Key, NodeId, ShardId};

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

/// How nodes are assigned to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardFormation {
    /// Administrator-chosen static placement (databases: no adversary).
    Static,
    /// Unbiased random assignment derived from PoW / trusted randomness
    /// (Elastico, OmniLedger, AHL); re-run at every reconfiguration epoch.
    SecureRandom {
        /// Length of an epoch between reconfigurations, in µs.
        epoch_us: u64,
    },
}

/// A concrete assignment of nodes to shards.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// `assignment[i]` = the nodes of shard `i`.
    pub assignment: Vec<Vec<NodeId>>,
    /// The formation policy that produced it.
    pub formation: ShardFormation,
    /// Epoch counter (increments at each reconfiguration).
    pub epoch: u64,
}

impl ShardPlan {
    /// Form shards of `shard_size` nodes from `nodes` under the given policy.
    /// Random formation shuffles with a seed derived from the epoch, so every
    /// epoch produces an independent assignment (the defence against adaptive
    /// adversaries discussed in Section 3.4.1).
    pub fn form(
        nodes: &[NodeId],
        shard_size: usize,
        formation: ShardFormation,
        epoch: u64,
        seed: u64,
    ) -> Self {
        let shard_size = shard_size.max(1);
        let mut pool: Vec<NodeId> = nodes.to_vec();
        if let ShardFormation::SecureRandom { .. } = formation {
            let mut rng = rng::seeded(rng::derive_seed(seed, &format!("shard-epoch-{epoch}")));
            pool.shuffle(&mut rng);
        }
        let assignment: Vec<Vec<NodeId>> = pool.chunks(shard_size).map(|c| c.to_vec()).collect();
        ShardPlan {
            assignment,
            formation,
            epoch,
        }
    }

    /// Number of shards formed.
    pub fn shard_count(&self) -> usize {
        self.assignment.len()
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

    #[test]
    fn secure_formation_reshuffles_every_epoch_static_does_not() {
        let nodes: Vec<NodeId> = (0..24).map(NodeId).collect();
        let secure0 = ShardPlan::form(
            &nodes,
            4,
            ShardFormation::SecureRandom { epoch_us: 1 },
            0,
            7,
        );
        let secure1 = ShardPlan::form(
            &nodes,
            4,
            ShardFormation::SecureRandom { epoch_us: 1 },
            1,
            7,
        );
        assert_eq!(secure0.shard_count(), 6);
        assert_ne!(secure0.assignment, secure1.assignment);
        let static0 = ShardPlan::form(&nodes, 4, ShardFormation::Static, 0, 7);
        let static1 = ShardPlan::form(&nodes, 4, ShardFormation::Static, 1, 7);
        assert_eq!(static0.assignment, static1.assignment);
        // Every node appears exactly once.
        let mut all: Vec<NodeId> = secure0.assignment.concat();
        all.sort();
        assert_eq!(all, nodes);
    }
}
