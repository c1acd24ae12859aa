//! A B+ tree modelled after BoltDB (etcd's storage engine).
//!
//! Keys live in the leaves, which are chained for range scans; interior nodes
//! hold separator keys. Nodes split at a fixed fan-out. Deletion removes the
//! entry from its leaf without rebalancing (BoltDB similarly leaves pages
//! under-full until a rewrite), which keeps the structure simple while
//! preserving ordering, lookup and footprint behaviour.

use dichotomy_common::size::{StorageBreakdown, StorageFootprint};
use dichotomy_common::{Key, Value};

use crate::engine::{EngineKind, KvEngine};

/// Maximum number of entries in a leaf / children in an interior node before
/// it splits. BoltDB pages hold on the order of tens of small entries.
const FANOUT: usize = 32;

/// Deepest descent the fixed path array holds. The tree grows a level only
/// when a root of more than `FANOUT` children splits in two, so 16 levels
/// would take 2 × 16¹⁵ leaves.
const MAX_HEIGHT: usize = 16;

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        entries: Vec<(Key, Value)>,
    },
    Interior {
        /// `separators[i]` is the smallest key reachable under `children[i+1]`.
        separators: Vec<Key>,
        children: Vec<usize>,
    },
}

/// The B+ tree. Nodes are stored in an arena (`Vec<Node>`) the way pages live
/// in a page file; `root` indexes into it.
#[derive(Debug, Clone)]
pub struct BPlusTree {
    nodes: Vec<Node>,
    root: usize,
    len: usize,
}

impl Default for BPlusTree {
    fn default() -> Self {
        Self::new()
    }
}

impl BPlusTree {
    /// An empty tree.
    pub fn new() -> Self {
        BPlusTree {
            nodes: vec![Node::Leaf {
                entries: Vec::new(),
            }],
            root: 0,
            len: 0,
        }
    }

    /// Height of the tree (1 = a single leaf).
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut idx = self.root;
        loop {
            match &self.nodes[idx] {
                Node::Leaf { .. } => return h,
                Node::Interior { children, .. } => {
                    idx = children[0];
                    h += 1;
                }
            }
        }
    }

    /// Walk from the root to the leaf responsible for `key`, returning the
    /// node indices passed (root first, leaf last) and how many there are.
    fn path_to_leaf(&self, key: &Key) -> ([usize; MAX_HEIGHT], usize) {
        let mut path = [self.root; MAX_HEIGHT];
        let mut depth = 1;
        while let Node::Interior {
            separators,
            children,
        } = &self.nodes[path[depth - 1]]
        {
            // First child whose separator exceeds the key.
            path[depth] = children[separators.partition_point(|s| s <= key)];
            depth += 1;
        }
        (path, depth)
    }

    /// Split the node at `path.last()` if it is over-full, propagating splits
    /// upwards and growing a new root when necessary.
    fn split_if_needed(&mut self, mut path: &[usize]) {
        while let Some((&idx, parents)) = path.split_last() {
            path = parents;
            let (split_key, new_node) = match &mut self.nodes[idx] {
                Node::Leaf { entries } if entries.len() > FANOUT => {
                    let right = entries.split_off(entries.len() / 2);
                    let split_key = right[0].0.clone();
                    (split_key, Node::Leaf { entries: right })
                }
                Node::Interior {
                    separators,
                    children,
                } if children.len() > FANOUT => {
                    let mid = separators.len() / 2;
                    let right_seps = separators.split_off(mid + 1);
                    let split_key = separators.pop().expect("mid < len");
                    let right_children = children.split_off(mid + 1);
                    (
                        split_key,
                        Node::Interior {
                            separators: right_seps,
                            children: right_children,
                        },
                    )
                }
                _ => continue,
            };
            let new_idx = self.nodes.len();
            self.nodes.push(new_node);
            if let Some(&parent_idx) = path.last() {
                if let Node::Interior {
                    separators,
                    children,
                } = &mut self.nodes[parent_idx]
                {
                    let pos = separators.partition_point(|s| *s <= split_key);
                    separators.insert(pos, split_key);
                    children.insert(pos + 1, new_idx);
                } else {
                    unreachable!("parent of a split node must be interior");
                }
            } else {
                // The root itself split: grow the tree by one level.
                let new_root = Node::Interior {
                    separators: vec![split_key],
                    children: vec![idx, new_idx],
                };
                self.nodes.push(new_root);
                self.root = self.nodes.len() - 1;
            }
        }
    }

    /// In-order iterator over all live entries.
    fn collect_in_order(&self, idx: usize, out: &mut Vec<(Key, Value)>) {
        match &self.nodes[idx] {
            Node::Leaf { entries } => out.extend(entries.iter().cloned()),
            Node::Interior { children, .. } => {
                for &c in children {
                    self.collect_in_order(c, out);
                }
            }
        }
    }
}

impl StorageFootprint for BPlusTree {
    fn footprint(&self) -> StorageBreakdown {
        let mut payload = 0u64;
        let mut index = 0u64;
        for node in &self.nodes {
            match node {
                Node::Leaf { entries } => {
                    payload += entries
                        .iter()
                        .map(|(k, v)| (k.len() + v.len()) as u64)
                        .sum::<u64>();
                    // Per-entry leaf slot header (BoltDB leafPageElement = 16 B).
                    index += entries.len() as u64 * 16 + 16;
                }
                Node::Interior {
                    separators,
                    children,
                } => {
                    index += separators.iter().map(|s| s.len() as u64).sum::<u64>()
                        + children.len() as u64 * 8
                        + 16;
                }
            }
        }
        StorageBreakdown {
            payload_bytes: payload,
            index_bytes: index,
            history_bytes: 0,
        }
    }
}

impl KvEngine for BPlusTree {
    fn put(&mut self, key: Key, value: Value) {
        let (path, depth) = self.path_to_leaf(&key);
        if let Node::Leaf { entries } = &mut self.nodes[path[depth - 1]] {
            match entries.binary_search_by(|(k, _)| k.cmp(&key)) {
                Ok(i) => entries[i].1 = value,
                Err(i) => {
                    entries.insert(i, (key, value));
                    self.len += 1;
                }
            }
        } else {
            unreachable!("path_to_leaf must end at a leaf");
        }
        self.split_if_needed(&path[..depth]);
    }

    fn get(&self, key: &Key) -> Option<Value> {
        let (path, depth) = self.path_to_leaf(key);
        if let Node::Leaf { entries } = &self.nodes[path[depth - 1]] {
            entries
                .binary_search_by(|(k, _)| k.cmp(key))
                .ok()
                .map(|i| entries[i].1.clone())
        } else {
            None
        }
    }

    fn delete(&mut self, key: &Key) -> bool {
        let (path, depth) = self.path_to_leaf(key);
        if let Node::Leaf { entries } = &mut self.nodes[path[depth - 1]] {
            if let Ok(i) = entries.binary_search_by(|(k, _)| k.cmp(key)) {
                entries.remove(i);
                self.len -= 1;
                return true;
            }
        }
        false
    }

    fn len(&self) -> usize {
        self.len
    }

    fn scan(&self, start: &Key, end: &Key) -> Vec<(Key, Value)> {
        // A full in-order walk filtered to the range keeps the code simple;
        // the simulator charges scan cost through the cost model, not here.
        let mut all = Vec::new();
        self.collect_in_order(self.root, &mut all);
        all.into_iter()
            .filter(|(k, _)| k >= start && k < end)
            .collect()
    }

    fn kind(&self) -> EngineKind {
        EngineKind::BPlusTree
    }

    fn read_amplification(&self, _key: &Key) -> usize {
        self.height()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::conformance;

    #[test]
    fn conformance_basic() {
        conformance::check_basic(&mut BPlusTree::new());
    }

    #[test]
    fn splits_keep_all_keys_reachable() {
        let mut t = BPlusTree::new();
        let n = 2000;
        for i in 0..n {
            t.put(Key::from_str(&format!("user{i:06}")), Value::filler(16));
        }
        assert_eq!(t.len(), n);
        assert!(t.height() >= 3, "height {}", t.height());
        for i in 0..n {
            assert!(
                t.get(&Key::from_str(&format!("user{i:06}"))).is_some(),
                "missing key {i}"
            );
        }
    }

    #[test]
    fn reverse_and_random_insert_orders_work() {
        for seed in [1u64, 2, 3] {
            use dichotomy_common::rng::SliceRandom;
            let mut order: Vec<u32> = (0..500).collect();
            let mut rng = dichotomy_common::rng::seeded(seed);
            order.shuffle(&mut rng);
            let mut t = BPlusTree::new();
            for &i in &order {
                t.put(Key::from_str(&format!("k{i:05}")), Value::filler(8));
            }
            let scanned = t.scan(&Key::from_str("k00000"), &Key::from_str("k99999"));
            assert_eq!(scanned.len(), 500);
            // Scan output must be sorted.
            assert!(scanned.windows(2).all(|w| w[0].0 < w[1].0));
        }
    }

    #[test]
    fn overwrite_does_not_duplicate() {
        let mut t = BPlusTree::new();
        for _ in 0..100 {
            t.put(Key::from_str("same"), Value::filler(10));
        }
        assert_eq!(t.len(), 1);
        assert_eq!(t.height(), 1);
    }

    #[test]
    fn read_amplification_equals_height() {
        let mut t = BPlusTree::new();
        for i in 0..5000 {
            t.put(Key::from_str(&format!("k{i:06}")), Value::filler(4));
        }
        assert_eq!(t.read_amplification(&Key::from_str("k000000")), t.height());
        assert!(t.height() >= 3);
    }

    #[test]
    fn footprint_separates_payload_and_index() {
        let mut t = BPlusTree::new();
        for i in 0..200 {
            t.put(Key::from_str(&format!("k{i:04}")), Value::filler(100));
        }
        let fp = t.footprint();
        assert_eq!(fp.payload_bytes, 200 * (5 + 100) as u64);
        assert!(fp.index_bytes > 0);
        assert_eq!(fp.history_bytes, 0);
    }

    #[test]
    fn delete_across_splits() {
        let mut t = BPlusTree::new();
        for i in 0..300 {
            t.put(Key::from_str(&format!("k{i:04}")), Value::filler(8));
        }
        for i in (0..300).step_by(2) {
            assert!(t.delete(&Key::from_str(&format!("k{i:04}"))));
        }
        assert_eq!(t.len(), 150);
        for i in 0..300 {
            let present = t.get(&Key::from_str(&format!("k{i:04}"))).is_some();
            assert_eq!(present, i % 2 == 1, "key {i}");
        }
    }
}
