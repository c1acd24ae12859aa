//! A probabilistic skip list, the in-memory index Redis uses and therefore
//! the storage engine under the Veritas hybrid (Table 2), also the classic
//! memtable structure inside LevelDB.
//!
//! Towers are built with the usual p = 1/4 coin; the maximum height is capped
//! so footprint accounting stays bounded. Lookup walks from the top list
//! down, which gives the expected `O(log n)` probes that
//! [`read_amplification`](crate::engine::KvEngine::read_amplification)
//! reports.

use dichotomy_common::rng::{self, Rng, StdRng};
use dichotomy_common::size::{StorageBreakdown, StorageFootprint};
use dichotomy_common::{Key, Value};

use crate::engine::{EngineKind, KvEngine};

const MAX_LEVEL: usize = 16;
/// Probability numerator of promoting a node one level (1/4).
const P_NUM: u32 = 1;
const P_DEN: u32 = 4;

#[derive(Debug)]
struct SkipNode {
    key: Key,
    value: Value,
    /// `forward[l]` = index of the next node at level `l`, or usize::MAX.
    forward: Vec<usize>,
}

const NIL: usize = usize::MAX;

/// The skip list.
#[derive(Debug)]
pub struct SkipList {
    /// Arena of nodes; index 0 is the head sentinel.
    nodes: Vec<SkipNode>,
    level: usize,
    len: usize,
    rng: StdRng,
}

impl SkipList {
    /// An empty list whose tower heights are drawn from a seeded RNG.
    pub fn new(seed: u64) -> Self {
        SkipList {
            nodes: vec![SkipNode {
                key: Key::new(Vec::new()),
                value: Value::new(Vec::new()),
                forward: vec![NIL; MAX_LEVEL],
            }],
            level: 1,
            len: 0,
            rng: rng::seeded(rng::derive_seed(seed, "skiplist")),
        }
    }

    /// Current number of levels in use.
    pub fn levels(&self) -> usize {
        self.level
    }

    fn random_level(&mut self) -> usize {
        let mut lvl = 1;
        while lvl < MAX_LEVEL && self.rng.gen_ratio(P_NUM, P_DEN) {
            lvl += 1;
        }
        lvl
    }

    /// For each level, the index of the last node whose key is `< key`.
    fn find_predecessors(&self, key: &Key) -> ([usize; MAX_LEVEL], usize) {
        let mut update = [0usize; MAX_LEVEL];
        let mut x = 0usize;
        for l in (0..self.level).rev() {
            loop {
                let next = self.nodes[x].forward[l];
                if next != NIL && self.nodes[next].key < *key {
                    x = next;
                } else {
                    break;
                }
            }
            update[l] = x;
        }
        let candidate = self.nodes[x].forward[0];
        (update, candidate)
    }
}

impl StorageFootprint for SkipList {
    fn footprint(&self) -> StorageBreakdown {
        let mut payload = 0u64;
        let mut index = 0u64;
        for node in self.nodes.iter().skip(1) {
            payload += (node.key.len() + node.value.len()) as u64;
            // Each forward pointer is 8 bytes.
            index += node.forward.len() as u64 * 8;
        }
        index += MAX_LEVEL as u64 * 8; // head sentinel
        StorageBreakdown {
            payload_bytes: payload,
            index_bytes: index,
            history_bytes: 0,
        }
    }
}

impl KvEngine for SkipList {
    fn put(&mut self, key: Key, value: Value) {
        let (update, candidate) = self.find_predecessors(&key);
        if candidate != NIL && self.nodes[candidate].key == key {
            self.nodes[candidate].value = value;
            return;
        }
        let lvl = self.random_level();
        if lvl > self.level {
            self.level = lvl;
        }
        let new_idx = self.nodes.len();
        let mut forward = vec![NIL; lvl];
        for l in 0..lvl {
            let pred = if update[l] == 0 && l >= self.level {
                0
            } else {
                update[l]
            };
            forward[l] = self.nodes[pred].forward[l];
            self.nodes[pred].forward[l] = new_idx;
        }
        self.nodes.push(SkipNode {
            key,
            value,
            forward,
        });
        self.len += 1;
    }

    fn get(&self, key: &Key) -> Option<Value> {
        let (_, candidate) = self.find_predecessors(key);
        if candidate != NIL && self.nodes[candidate].key == *key {
            Some(self.nodes[candidate].value.clone())
        } else {
            None
        }
    }

    fn delete(&mut self, key: &Key) -> bool {
        let (update, candidate) = self.find_predecessors(key);
        if candidate == NIL || self.nodes[candidate].key != *key {
            return false;
        }
        for (l, &pred) in update.iter().enumerate().take(self.level) {
            if self.nodes[pred].forward.get(l) == Some(&candidate) {
                self.nodes[pred].forward[l] =
                    self.nodes[candidate].forward.get(l).copied().unwrap_or(NIL);
            }
        }
        // The node stays in the arena (like a freed Redis node awaiting
        // reclamation) but is unreachable; exclude it from the live count.
        self.nodes[candidate].forward.clear();
        self.nodes[candidate].value = Value::new(Vec::new());
        self.nodes[candidate].key = Key::new(Vec::new());
        self.len -= 1;
        true
    }

    fn len(&self) -> usize {
        self.len
    }

    fn scan(&self, start: &Key, end: &Key) -> Vec<(Key, Value)> {
        let (_, mut x) = self.find_predecessors(start);
        let mut out = Vec::new();
        while x != NIL {
            let node = &self.nodes[x];
            if node.key >= *end {
                break;
            }
            out.push((node.key.clone(), node.value.clone()));
            x = node.forward.first().copied().unwrap_or(NIL);
        }
        out
    }

    fn kind(&self) -> EngineKind {
        EngineKind::SkipList
    }

    fn read_amplification(&self, _key: &Key) -> usize {
        // Expected probes ≈ levels in use.
        self.level
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::conformance;

    #[test]
    fn conformance_basic() {
        conformance::check_basic(&mut SkipList::new(7));
    }

    #[test]
    fn many_inserts_stay_sorted_and_reachable() {
        let mut s = SkipList::new(3);
        let n = 3000;
        for i in (0..n).rev() {
            s.put(Key::from_str(&format!("k{i:06}")), Value::filler(8));
        }
        assert_eq!(s.len(), n);
        assert!(s.levels() > 3, "levels {}", s.levels());
        let all = s.scan(&Key::from_str("k000000"), &Key::from_str("k999999"));
        assert_eq!(all.len(), n);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn deleted_keys_disappear_from_scans() {
        let mut s = SkipList::new(5);
        for i in 0..100 {
            s.put(Key::from_str(&format!("k{i:03}")), Value::filler(4));
        }
        for i in (0..100).step_by(3) {
            assert!(s.delete(&Key::from_str(&format!("k{i:03}"))));
        }
        let all = s.scan(&Key::from_str("k000"), &Key::from_str("k999"));
        assert_eq!(all.len(), s.len());
        assert!(all.iter().all(|(k, _)| {
            let i: usize = k.to_string()[1..].parse().unwrap();
            i % 3 != 0
        }));
    }

    #[test]
    fn footprint_counts_pointer_overhead() {
        let mut s = SkipList::new(1);
        for i in 0..500 {
            s.put(Key::from_str(&format!("k{i:04}")), Value::filler(10));
        }
        let fp = s.footprint();
        assert_eq!(fp.payload_bytes, 500 * (5 + 10));
        // At least one 8-byte pointer per node.
        assert!(fp.index_bytes >= 500 * 8);
    }

    #[test]
    fn overwrite_keeps_single_copy() {
        let mut s = SkipList::new(2);
        for _ in 0..50 {
            s.put(Key::from_str("dup"), Value::filler(10));
        }
        assert_eq!(s.len(), 1);
        assert_eq!(s.scan(&Key::from_str("a"), &Key::from_str("z")).len(), 1);
    }

    #[test]
    fn determinism_under_same_seed() {
        let build = |seed| {
            let mut s = SkipList::new(seed);
            for i in 0..200 {
                s.put(Key::from_str(&format!("k{i}")), Value::filler(4));
            }
            s.levels()
        };
        assert_eq!(build(11), build(11));
    }
}
