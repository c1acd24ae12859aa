//! Differential oracle for the hash-consed, lazily hashed
//! [`MerklePatriciaTrie`]: a straightforward trie that SHA-256s every node as
//! it stores it and files it under that digest, driven through the same
//! seeded histories. Every observable must agree after every step: roots,
//! lengths, node counts, footprints, per-insert update statistics and reads
//! (bytes *and* buffer identity).
//!
//! The reference has no shared base: a fork of it is a deep clone, which is
//! exactly what a fork of the real trie must be indistinguishable from.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use dichotomy_common::rng::{derive_seed, seeded, Rng, StdRng};
use dichotomy_common::size::{StorageBreakdown, StorageFootprint};
use dichotomy_common::{Hash, Key, Value};
use dichotomy_merkle::{MerklePatriciaTrie, UpdateStats};

/// Nibble path, one nibble per byte.
type Path = Vec<u8>;

#[derive(Debug)]
enum Node {
    Leaf {
        path: Path,
        value: Value,
    },
    Extension {
        path: Path,
        child: Hash,
    },
    Branch {
        children: BTreeMap<u8, Hash>,
        value: Option<Value>,
    },
}

impl Node {
    fn leaf(path: &[u8], value: &Value) -> Node {
        Node::Leaf {
            path: path.to_vec(),
            value: value.clone(),
        }
    }

    /// The trie's node encoding: tag, length-prefixed path (one byte below
    /// 255, else `0xFF` and a big-endian `u16`), then the value or the child
    /// digests (a branch: occupancy bitmap, occupied children in slot order,
    /// value bytes if any).
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let put_path = |out: &mut Vec<u8>, path: &Path| {
            if path.len() < 0xFF {
                out.push(path.len() as u8);
            } else {
                out.push(0xFF);
                out.extend_from_slice(&(path.len() as u16).to_be_bytes());
            }
            out.extend_from_slice(path);
        };
        match self {
            Node::Leaf { path, value } => {
                out.push(0);
                put_path(&mut out, path);
                out.extend_from_slice(value.as_bytes());
            }
            Node::Extension { path, child } => {
                out.push(1);
                put_path(&mut out, path);
                out.extend_from_slice(&child.0);
            }
            Node::Branch { children, value } => {
                out.push(2);
                let occupied = children.keys().fold(0u16, |bits, slot| bits | 1 << slot);
                out.extend_from_slice(&occupied.to_be_bytes());
                for child in children.values() {
                    out.extend_from_slice(&child.0);
                }
                if let Some(v) = value {
                    out.extend_from_slice(v.as_bytes());
                }
            }
        }
        out
    }
}

/// The reference trie: every node hashed when stored, the store keyed by
/// digest, the first node stored under a digest kept.
#[derive(Debug, Clone, Default)]
struct Reference {
    nodes: BTreeMap<Hash, Arc<Node>>,
    /// Σ (encoded size + 32) over `nodes`.
    bytes: u64,
    root: Option<Hash>,
    len: usize,
    live_value_bytes: u64,
}

fn nibbles(key: &Key) -> Path {
    key.as_bytes()
        .iter()
        .flat_map(|b| [b >> 4, b & 0x0f])
        .collect()
}

fn common_prefix_len(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

impl Reference {
    fn put_node(&mut self, node: Node) -> Hash {
        let encoded = node.encode();
        let h = Hash::of(&encoded);
        if let Entry::Vacant(slot) = self.nodes.entry(h) {
            slot.insert(Arc::new(node));
            self.bytes += encoded.len() as u64 + 32;
        }
        h
    }

    fn insert(&mut self, key: &Key, value: &Value) -> UpdateStats {
        let mut stats = UpdateStats {
            nodes_touched: 0,
            leaf_bytes: value.len(),
        };
        let mut replaced = None;
        let root = self.insert_at(self.root, &nibbles(key), value, &mut stats, &mut replaced);
        self.root = Some(root);
        match replaced {
            Some(old_len) => self.live_value_bytes -= old_len as u64,
            None => self.len += 1,
        }
        self.live_value_bytes += value.len() as u64;
        stats
    }

    fn insert_at(
        &mut self,
        at: Option<Hash>,
        path: &[u8],
        value: &Value,
        stats: &mut UpdateStats,
        replaced: &mut Option<usize>,
    ) -> Hash {
        stats.nodes_touched += 1;
        let Some(h) = at else {
            return self.put_node(Node::leaf(path, value));
        };
        let node = Arc::clone(&self.nodes[&h]);
        match &*node {
            Node::Leaf {
                path: leaf_path,
                value: leaf_value,
            } => {
                if leaf_path[..] == *path {
                    *replaced = Some(leaf_value.len());
                    return self.put_node(Node::leaf(path, value));
                }
                let cp = common_prefix_len(leaf_path, path);
                let mut children = BTreeMap::new();
                let mut branch_value = None;
                match leaf_path[cp..].split_first() {
                    None => branch_value = Some(leaf_value.clone()),
                    Some((&slot, rest)) => {
                        children.insert(slot, self.put_node(Node::leaf(rest, leaf_value)));
                        stats.nodes_touched += 1;
                    }
                }
                self.split_at(cp, children, branch_value, path, value, stats)
            }
            Node::Extension {
                path: ext_path,
                child,
            } => {
                let cp = common_prefix_len(ext_path, path);
                if cp == ext_path.len() {
                    let new_child =
                        self.insert_at(Some(*child), &path[cp..], value, stats, replaced);
                    return self.put_node(Node::Extension {
                        path: ext_path.clone(),
                        child: new_child,
                    });
                }
                let ext_rest = &ext_path[cp..];
                let under_ext = if ext_rest.len() == 1 {
                    *child
                } else {
                    stats.nodes_touched += 1;
                    self.put_node(Node::Extension {
                        path: ext_rest[1..].to_vec(),
                        child: *child,
                    })
                };
                let children = BTreeMap::from([(ext_rest[0], under_ext)]);
                self.split_at(cp, children, None, path, value, stats)
            }
            Node::Branch {
                children,
                value: branch_value,
            } => {
                let Some((&slot, rest)) = path.split_first() else {
                    *replaced = branch_value.as_ref().map(Value::len);
                    return self.put_node(Node::Branch {
                        children: children.clone(),
                        value: Some(value.clone()),
                    });
                };
                let new_child =
                    self.insert_at(children.get(&slot).copied(), rest, value, stats, replaced);
                let mut children = children.clone();
                children.insert(slot, new_child);
                self.put_node(Node::Branch {
                    children,
                    value: branch_value.clone(),
                })
            }
        }
    }

    fn split_at(
        &mut self,
        cp: usize,
        mut children: BTreeMap<u8, Hash>,
        mut branch_value: Option<Value>,
        path: &[u8],
        value: &Value,
        stats: &mut UpdateStats,
    ) -> Hash {
        match path[cp..].split_first() {
            None => branch_value = Some(value.clone()),
            Some((&slot, rest)) => {
                children.insert(slot, self.put_node(Node::leaf(rest, value)));
                stats.nodes_touched += 1;
            }
        }
        let branch = self.put_node(Node::Branch {
            children,
            value: branch_value,
        });
        stats.nodes_touched += 1;
        if cp == 0 {
            return branch;
        }
        stats.nodes_touched += 1;
        self.put_node(Node::Extension {
            path: path[..cp].to_vec(),
            child: branch,
        })
    }

    fn get(&self, key: &Key) -> Option<Value> {
        let path = nibbles(key);
        let mut path = &path[..];
        let mut current = self.root;
        while let Some(h) = current {
            current = match &*self.nodes[&h] {
                Node::Leaf {
                    path: leaf_path,
                    value,
                } => return (leaf_path[..] == *path).then(|| value.clone()),
                Node::Extension {
                    path: ext_path,
                    child,
                } => path.strip_prefix(&ext_path[..]).map(|rest| {
                    path = rest;
                    *child
                }),
                Node::Branch { children, value } => match path.split_first() {
                    None => return value.clone(),
                    Some((&slot, rest)) => {
                        path = rest;
                        children.get(&slot).copied()
                    }
                },
            };
        }
        None
    }

    fn root_hash(&self) -> Hash {
        self.root.unwrap_or(Hash::ZERO)
    }

    fn footprint(&self) -> StorageBreakdown {
        StorageBreakdown {
            payload_bytes: self.live_value_bytes,
            index_bytes: self.bytes.saturating_sub(self.live_value_bytes),
            history_bytes: 0,
        }
    }
}

/// The four key shapes of `adr_properties.rs`'s archival golden: YCSB and
/// Smallbank keys, hashed 16-byte keys, and 1–40-byte cuts of one digest per
/// eight indices (prefixes of each other, so values land on branches) — plus
/// keys of 128 to 200 bytes sharing long prefixes, whose paths need the
/// encoding's two-byte length, and keys of up to three bytes over a
/// three-byte alphabet, which land on branches that hold no value yet.
fn history_key(i: u64) -> Key {
    match i % 6 {
        0 => Key::from_str(&format!("user{i:012}")),
        1 => Key::new(&Hash::of(&i.to_be_bytes()).0[..16]),
        2 => {
            let digest = Hash::of(&(i / 8).to_be_bytes()).0;
            let bytes = [digest, digest].concat();
            Key::new(&bytes[..1 + (i as usize * 7) % 40])
        }
        3 => Key::from_str(&format!("chk:{i:09}")),
        4 => {
            let mut bytes = vec![0x5a; 128 + (i as usize * 13) % 73];
            let last = bytes.len() - 1;
            bytes[last] = (i % 7) as u8;
            Key::new(bytes)
        }
        _ => {
            let n = i / 6;
            let digits = [n / 4 % 3, n / 12 % 3, n / 36 % 3];
            let bytes = digits.map(|d| [0x00, 0x01, 0x10][d as usize]);
            Key::new(&bytes[..(n % 4) as usize])
        }
    }
}

/// A value from a small palette, in a fresh buffer every time: empty values
/// (a branch's `Some(empty)` encodes like `None`), repeated contents, and
/// overwrites that restore bytes a node already holds.
fn history_value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..6u8) {
        0 => Value::new([]),
        1 => Value::new(b"v"),
        2 => Value::new(Hash::of(&[rng.gen_range(0..4u8)]).0),
        3 => Value::filler(1 + rng.gen_range(0..3usize) * 100),
        _ => Value::new(vec![rng.gen_range(0..3u8); rng.gen_range(1..40usize)]),
    }
}

fn same_buffer(a: &Option<Value>, b: &Option<Value>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => std::ptr::eq(a.as_bytes(), b.as_bytes()),
        (None, None) => true,
        _ => false,
    }
}

/// Assert that `trie` and `reference` agree on every observable, over
/// `keys`.
#[track_caller]
fn assert_agree(trie: &MerklePatriciaTrie, reference: &Reference, keys: &[Key], at: &str) {
    assert_eq!(trie.root_hash(), reference.root_hash(), "root at {at}");
    assert_eq!(trie.len(), reference.len, "len at {at}");
    assert_eq!(
        trie.stored_node_count(),
        reference.nodes.len(),
        "node count at {at}"
    );
    assert_eq!(trie.footprint(), reference.footprint(), "footprint at {at}");
    for key in keys {
        let (got, expected) = (trie.get(key), reference.get(key));
        assert_eq!(got, expected, "get {key:?} at {at}");
        assert!(same_buffer(&got, &expected), "buffer of {key:?} at {at}");
    }
}

#[test]
fn seeded_histories_match_the_sha_keyed_reference() {
    for case in 0..16u64 {
        let mut rng = seeded(derive_seed(0x0EAC1E, &case.to_string()));
        // Each fork is a (trie, reference) pair with the same history.
        let mut forks = vec![(MerklePatriciaTrie::new(), Reference::default())];
        let key_space = 40 + case * 10;
        let mut touched: BTreeSet<u64> = BTreeSet::new();
        for step in 0..500 {
            let at = format!("case {case} step {step}");
            let f = rng.gen_range(0..forks.len());
            let fork_count = forks.len();
            let (trie, reference) = &mut forks[f];
            match rng.gen_range(0..40u8) {
                0 if fork_count < 4 => {
                    trie.freeze();
                    let fork = (trie.clone(), reference.clone());
                    forks.push(fork);
                }
                1..=5 => assert_eq!(trie.root_hash(), reference.root_hash(), "root at {at}"),
                6 => {
                    let keys: Vec<Key> = touched.iter().map(|&i| history_key(i)).collect();
                    assert_agree(trie, reference, &keys, &at);
                }
                _ => {
                    let i = rng.gen_range(0..key_space);
                    touched.insert(i);
                    let (key, value) = (history_key(i), history_value(&mut rng));
                    assert_eq!(
                        trie.insert(&key, &value),
                        reference.insert(&key, &value),
                        "stats at {at}"
                    );
                }
            }
        }
        let keys: Vec<Key> = touched.iter().map(|&i| history_key(i)).collect();
        for (f, (trie, reference)) in forks.iter().enumerate() {
            assert_agree(trie, reference, &keys, &format!("case {case} fork {f}"));
        }
    }
}

/// YCSB's traffic: `user…` keys preloaded with one shared filler buffer, then
/// updates that almost always store the bytes the record already holds —
/// mostly that same buffer, sometimes a fresh buffer of equal bytes — with a
/// few value-changing writes, inserts of new keys (which fork spines) and
/// forks of the trie. Every observable is compared after every step, so an
/// unchanged write that kept its nodes must leave exactly what the
/// reference's full rewrite leaves.
#[test]
fn ycsb_histories_match_the_sha_keyed_reference() {
    for case in 0..8u64 {
        let mut rng = seeded(derive_seed(0x0EAC1E, &format!("ycsb {case}")));
        let record_size = [1, 16, 17, 100, 1_024][case as usize % 5];
        let shared = Value::filler(record_size);
        let changed = Value::new(vec![b'y'; record_size]);
        let preload = 20 + case * 15;
        let key = |i: u64| Key::from_str(&format!("user{i:012}"));
        let mut forks = vec![(MerklePatriciaTrie::new(), Reference::default())];
        for i in 0..preload {
            let (trie, reference) = &mut forks[0];
            assert_eq!(
                trie.insert(&key(i), &shared),
                reference.insert(&key(i), &shared)
            );
        }
        let mut keys: Vec<Key> = (0..preload).map(key).collect();
        for step in 0..300 {
            let at = format!("ycsb case {case} step {step}");
            let f = rng.gen_range(0..forks.len());
            let fork_count = forks.len();
            let (trie, reference) = &mut forks[f];
            match rng.gen_range(0..50u8) {
                0 if fork_count < 4 => {
                    trie.freeze();
                    let fork = (trie.clone(), reference.clone());
                    forks.push(fork);
                }
                roll => {
                    // New keys land past the preload, splitting its spines.
                    let i = if roll < 3 {
                        preload + rng.gen_range(0..preload)
                    } else {
                        rng.gen_range(0..preload)
                    };
                    let value = match roll {
                        3..=5 => changed.clone(),
                        6..=11 => Value::filler(record_size),
                        _ => shared.clone(),
                    };
                    let k = key(i);
                    assert_eq!(
                        trie.insert(&k, &value),
                        reference.insert(&k, &value),
                        "stats at {at}"
                    );
                    if !keys.contains(&k) {
                        keys.push(k);
                    }
                }
            }
            let (trie, reference) = &forks[f];
            assert_agree(trie, reference, &keys, &at);
        }
        for (f, (trie, reference)) in forks.iter().enumerate() {
            assert_agree(
                trie,
                reference,
                &keys,
                &format!("ycsb case {case} fork {f}"),
            );
        }
    }
}
