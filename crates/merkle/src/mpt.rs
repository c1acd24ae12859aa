//! A Merkle Patricia Trie (MPT), the authenticated state index of Ethereum
//! and Quorum.
//!
//! Structure (matching the Ethereum yellow paper's trie at the level the
//! experiments need):
//!
//! * keys are split into 4-bit **nibbles**; every branch node has 16 child
//!   slots plus an optional value, so the depth can reach twice the key
//!   length in bytes (32 for the paper's 16-byte keys);
//! * **leaf** and **extension** nodes compress single-child runs of nibbles;
//! * every node is serialized and stored in a **hash-addressed node store**
//!   (the role LevelDB plays under geth); parents reference children by the
//!   32-byte hash of their encoding, and the root hash uniquely identifies
//!   the entire state.
//!
//! Updates create new nodes along the path from the root to the touched leaf.
//! In **archival mode** (the default here and in geth) the superseded nodes
//! stay in the node store, which is why the paper measures more than a
//! kilobyte of storage overhead per record for the MPT (Figure 13).
//! [`MerklePatriciaTrie::prune`] garbage-collects unreachable nodes so that
//! the difference can be quantified in an ablation.

// lint: allow(D003) -- hash-addressed node store on the insert hot path; all iterations fold order-insensitive sums
use std::collections::HashMap;
use std::sync::Arc;

use dichotomy_common::size::{StorageBreakdown, StorageFootprint};
use dichotomy_common::{Hash, Key, Value};

use crate::UpdateStats;

/// A trie node. The `Branch` variant dominates the enum's size, but nodes
/// live behind hashes in the node store, so the size gap is paid once per
/// stored node either way.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(clippy::large_enum_variant)]
enum Node {
    /// Terminal node holding the remaining path and the value.
    Leaf { path: Vec<u8>, value: Vec<u8> },
    /// Path compression node pointing at a single child.
    Extension { path: Vec<u8>, child: Hash },
    /// 16-way branch with an optional value for keys ending here.
    Branch {
        children: [Option<Hash>; 16],
        value: Option<Vec<u8>>,
    },
}

impl Node {
    /// Deterministic byte encoding, standing in for RLP. The encoding is what
    /// gets hashed (node identity) and what the footprint counts.
    fn encode(&self) -> Vec<u8> {
        match self {
            Node::Leaf { path, value } => {
                let mut out = Vec::with_capacity(2 + path.len() + value.len());
                out.push(0u8);
                out.push(path.len() as u8);
                out.extend_from_slice(path);
                out.extend_from_slice(value);
                out
            }
            Node::Extension { path, child } => {
                let mut out = Vec::with_capacity(2 + path.len() + 32);
                out.push(1u8);
                out.push(path.len() as u8);
                out.extend_from_slice(path);
                out.extend_from_slice(&child.0);
                out
            }
            Node::Branch { children, value } => {
                let mut out = Vec::with_capacity(3 + 16 * 32 + value.as_ref().map_or(0, Vec::len));
                out.push(2u8);
                let mut bitmap: u16 = 0;
                for (i, c) in children.iter().enumerate() {
                    if c.is_some() {
                        bitmap |= 1 << i;
                    }
                }
                out.extend_from_slice(&bitmap.to_be_bytes());
                for c in children.iter().flatten() {
                    out.extend_from_slice(&c.0);
                }
                if let Some(v) = value {
                    out.extend_from_slice(v);
                }
                out
            }
        }
    }
}

/// Split a byte key into nibbles (high nibble first).
fn to_nibbles(key: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(key.len() * 2);
    for b in key {
        out.push(b >> 4);
        out.push(b & 0x0f);
    }
    out
}

/// Length of the common prefix of two nibble slices.
fn common_prefix_len(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
}

/// A membership proof: the encodings of the nodes along the path from the
/// root to the key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MptProof {
    /// Node encodings, root first.
    pub nodes: Vec<Vec<u8>>,
    /// The value the proof claims for the key (`None` = proof of absence is
    /// not supported by this model; absent keys simply return no proof).
    pub value: Vec<u8>,
}

impl MptProof {
    /// Total proof size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.nodes.iter().map(Vec::len).sum()
    }
}

/// Hash-addressed nodes (the LevelDB role), each with its encoded size.
// lint: allow(D003) -- keyed by content hash; iterated only for retain and order-insensitive merges
type NodeMap = HashMap<Hash, (Node, usize)>;

/// A node store with its running footprint: what [`MerklePatriciaTrie`]
/// writes into, and — behind an `Arc` — the immutable base its forks share.
#[derive(Debug, Clone, Default)]
struct NodeStore {
    nodes: NodeMap,
    /// Σ (encoded size + 32-byte hash key) over `nodes`, kept current by
    /// every insert and retain so `footprint()` never walks the store.
    bytes: u64,
}

/// The Merkle Patricia Trie.
///
/// A trie may sit on a shared immutable **base**: [`freeze`](Self::freeze)
/// moves everything stored so far behind an `Arc`, after which `clone()` is a
/// *fork* — a second trie over the same base that pays only for its own
/// (initially empty) overlay. Forks never observe each other's writes, and
/// every accessor answers as an unshared trie with the same history would
/// (node identity is the content hash, so a node the base already holds is
/// never stored twice).
#[derive(Debug, Clone, Default)]
pub struct MerklePatriciaTrie {
    /// Frozen nodes shared with other forks; `None` for an unshared trie.
    base: Option<Arc<NodeStore>>,
    /// Nodes written by this trie (all of them when unshared), disjoint
    /// from `base`.
    store: NodeStore,
    root: Option<Hash>,
    /// Number of live key/value pairs.
    len: usize,
    /// Total bytes of raw values currently reachable (payload accounting).
    live_value_bytes: u64,
}

impl MerklePatriciaTrie {
    /// An empty trie.
    pub fn new() -> Self {
        MerklePatriciaTrie::default()
    }

    /// The state root (`Hash::ZERO` when empty). Placing this root in a block
    /// header is what gives blockchains state tamper evidence.
    pub fn root_hash(&self) -> Hash {
        self.root.unwrap_or(Hash::ZERO)
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the trie has no keys.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of nodes in the node store, including superseded (archival)
    /// nodes.
    pub fn stored_node_count(&self) -> usize {
        self.store.nodes.len() + self.base.as_ref().map_or(0, |b| b.nodes.len())
    }

    /// Move every node stored so far into a shared immutable base, so that
    /// `clone()` forks this trie in O(1) instead of copying the node store.
    /// Observable state (root, reads, proofs, footprint, node count) is
    /// unchanged.
    pub fn freeze(&mut self) {
        if self.base.is_some() && self.store.nodes.is_empty() {
            return;
        }
        self.materialise();
        self.base = Some(Arc::new(std::mem::take(&mut self.store)));
    }

    /// Fold the shared base back into this trie's own store (copying it when
    /// other forks still hold it), leaving an unshared trie.
    fn materialise(&mut self) {
        let Some(base) = self.base.take() else { return };
        let base = Arc::try_unwrap(base).unwrap_or_else(|shared| NodeStore::clone(&shared));
        let overlay = std::mem::replace(&mut self.store, base);
        self.store.nodes.extend(overlay.nodes);
        self.store.bytes += overlay.bytes;
    }

    fn put_node(&mut self, node: Node) -> Hash {
        let encoded = node.encode();
        let h = Hash::of(&encoded);
        if let Some(base) = &self.base {
            if base.nodes.contains_key(&h) {
                return h;
            }
        }
        if self.store.nodes.insert(h, (node, encoded.len())).is_none() {
            self.store.bytes += encoded.len() as u64 + 32;
        }
        h
    }

    fn get_node(&self, h: &Hash) -> Option<&Node> {
        self.store
            .nodes
            .get(h)
            .or_else(|| self.base.as_ref()?.nodes.get(h))
            .map(|(n, _)| n)
    }

    /// Insert or overwrite `key` with `value`, returning the structural
    /// update statistics (used for CPU-cost charging).
    pub fn insert(&mut self, key: &Key, value: &Value) -> UpdateStats {
        let nibbles = to_nibbles(key.as_bytes());
        let mut stats = UpdateStats {
            nodes_touched: 0,
            leaf_bytes: value.len(),
        };
        let existing = self.get(key);
        match &existing {
            Some(old) => {
                self.live_value_bytes =
                    self.live_value_bytes - old.len() as u64 + value.len() as u64
            }
            None => {
                self.len += 1;
                self.live_value_bytes += value.len() as u64;
            }
        }
        let root = self.root;
        let new_root = self.insert_at(root, &nibbles, value.as_bytes(), &mut stats);
        self.root = Some(new_root);
        stats
    }

    /// Recursive insert; returns the hash of the new node replacing
    /// `node_hash` for the remaining `path`.
    fn insert_at(
        &mut self,
        node_hash: Option<Hash>,
        path: &[u8],
        value: &[u8],
        stats: &mut UpdateStats,
    ) -> Hash {
        stats.nodes_touched += 1;
        let node = match node_hash {
            None => {
                return self.put_node(Node::Leaf {
                    path: path.to_vec(),
                    value: value.to_vec(),
                });
            }
            Some(h) => self
                .get_node(&h)
                .expect("child hash must resolve in the node store")
                .clone(),
        };
        match node {
            Node::Leaf {
                path: leaf_path,
                value: leaf_value,
            } => {
                if leaf_path == path {
                    return self.put_node(Node::Leaf {
                        path: path.to_vec(),
                        value: value.to_vec(),
                    });
                }
                let cp = common_prefix_len(&leaf_path, path);
                let mut children: [Option<Hash>; 16] = Default::default();
                let mut branch_value = None;

                // Re-home the existing leaf under the branch.
                let leaf_rest = &leaf_path[cp..];
                if leaf_rest.is_empty() {
                    branch_value = Some(leaf_value);
                } else {
                    let child = self.put_node(Node::Leaf {
                        path: leaf_rest[1..].to_vec(),
                        value: leaf_value,
                    });
                    stats.nodes_touched += 1;
                    children[leaf_rest[0] as usize] = Some(child);
                }
                // Place the new value.
                let new_rest = &path[cp..];
                if new_rest.is_empty() {
                    branch_value = Some(value.to_vec());
                } else {
                    let child = self.put_node(Node::Leaf {
                        path: new_rest[1..].to_vec(),
                        value: value.to_vec(),
                    });
                    stats.nodes_touched += 1;
                    children[new_rest[0] as usize] = Some(child);
                }
                let branch = self.put_node(Node::Branch {
                    children,
                    value: branch_value,
                });
                stats.nodes_touched += 1;
                if cp == 0 {
                    branch
                } else {
                    stats.nodes_touched += 1;
                    self.put_node(Node::Extension {
                        path: path[..cp].to_vec(),
                        child: branch,
                    })
                }
            }
            Node::Extension {
                path: ext_path,
                child,
            } => {
                let cp = common_prefix_len(&ext_path, path);
                if cp == ext_path.len() {
                    // Descend into the child with the remaining path.
                    let new_child = self.insert_at(Some(child), &path[cp..], value, stats);
                    return self.put_node(Node::Extension {
                        path: ext_path,
                        child: new_child,
                    });
                }
                // Split the extension at the divergence point.
                let mut children: [Option<Hash>; 16] = Default::default();
                let mut branch_value = None;
                let ext_rest = &ext_path[cp..];
                let under_ext = if ext_rest.len() == 1 {
                    child
                } else {
                    stats.nodes_touched += 1;
                    self.put_node(Node::Extension {
                        path: ext_rest[1..].to_vec(),
                        child,
                    })
                };
                children[ext_rest[0] as usize] = Some(under_ext);

                let new_rest = &path[cp..];
                if new_rest.is_empty() {
                    branch_value = Some(value.to_vec());
                } else {
                    stats.nodes_touched += 1;
                    let leaf = self.put_node(Node::Leaf {
                        path: new_rest[1..].to_vec(),
                        value: value.to_vec(),
                    });
                    children[new_rest[0] as usize] = Some(leaf);
                }
                let branch = self.put_node(Node::Branch {
                    children,
                    value: branch_value,
                });
                stats.nodes_touched += 1;
                if cp == 0 {
                    branch
                } else {
                    stats.nodes_touched += 1;
                    self.put_node(Node::Extension {
                        path: path[..cp].to_vec(),
                        child: branch,
                    })
                }
            }
            Node::Branch {
                mut children,
                value: branch_value,
            } => {
                if path.is_empty() {
                    return self.put_node(Node::Branch {
                        children,
                        value: Some(value.to_vec()),
                    });
                }
                let slot = path[0] as usize;
                let new_child = self.insert_at(children[slot], &path[1..], value, stats);
                children[slot] = Some(new_child);
                self.put_node(Node::Branch {
                    children,
                    value: branch_value,
                })
            }
        }
    }

    /// Read the value of `key`, if present.
    pub fn get(&self, key: &Key) -> Option<Value> {
        let nibbles = to_nibbles(key.as_bytes());
        let mut current = self.root?;
        let mut path: &[u8] = &nibbles;
        loop {
            match self.get_node(&current)? {
                Node::Leaf {
                    path: leaf_path,
                    value,
                } => {
                    return if leaf_path.as_slice() == path {
                        Some(Value::new(value.clone()))
                    } else {
                        None
                    };
                }
                Node::Extension {
                    path: ext_path,
                    child,
                } => {
                    if path.len() < ext_path.len() || &path[..ext_path.len()] != ext_path.as_slice()
                    {
                        return None;
                    }
                    path = &path[ext_path.len()..];
                    current = *child;
                }
                Node::Branch { children, value } => {
                    if path.is_empty() {
                        return value.clone().map(Value::new);
                    }
                    current = children[path[0] as usize]?;
                    path = &path[1..];
                }
            }
        }
    }

    /// Produce a membership proof for `key`: the encodings of the nodes from
    /// the root down to the key. Returns `None` if the key is absent.
    pub fn prove(&self, key: &Key) -> Option<MptProof> {
        let nibbles = to_nibbles(key.as_bytes());
        let mut nodes = Vec::new();
        let mut current = self.root?;
        let mut path: &[u8] = &nibbles;
        loop {
            let node = self.get_node(&current)?;
            nodes.push(node.encode());
            match node {
                Node::Leaf {
                    path: leaf_path,
                    value,
                } => {
                    return if leaf_path.as_slice() == path {
                        Some(MptProof {
                            nodes,
                            value: value.clone(),
                        })
                    } else {
                        None
                    };
                }
                Node::Extension {
                    path: ext_path,
                    child,
                } => {
                    if path.len() < ext_path.len() || &path[..ext_path.len()] != ext_path.as_slice()
                    {
                        return None;
                    }
                    path = &path[ext_path.len()..];
                    current = *child;
                }
                Node::Branch { children, value } => {
                    if path.is_empty() {
                        return value.as_ref().map(|v| MptProof {
                            nodes,
                            value: v.clone(),
                        });
                    }
                    current = children[path[0] as usize]?;
                    path = &path[1..];
                }
            }
        }
    }

    /// Verify a proof against a trusted root hash and the claimed key/value:
    /// the first node must hash to the root, every node must be the child the
    /// previous node references along the key's nibble path, and the terminal
    /// node must carry the claimed value.
    pub fn verify_proof(root: Hash, key: &Key, proof: &MptProof) -> bool {
        if proof.nodes.is_empty() {
            return false;
        }
        // Each node encoding must hash to the reference held by its parent.
        let mut expected = root;
        let nibbles = to_nibbles(key.as_bytes());
        let mut path: &[u8] = &nibbles;
        for (i, encoded) in proof.nodes.iter().enumerate() {
            if Hash::of(encoded) != expected {
                return false;
            }
            match Self::decode(encoded) {
                Some(Node::Leaf {
                    path: leaf_path,
                    value,
                }) => {
                    return i + 1 == proof.nodes.len()
                        && leaf_path.as_slice() == path
                        && value == proof.value;
                }
                Some(Node::Extension {
                    path: ext_path,
                    child,
                }) => {
                    if path.len() < ext_path.len() || &path[..ext_path.len()] != ext_path.as_slice()
                    {
                        return false;
                    }
                    path = &path[ext_path.len()..];
                    expected = child;
                }
                Some(Node::Branch { children, value }) => {
                    if path.is_empty() {
                        return i + 1 == proof.nodes.len()
                            && value.as_deref() == Some(&proof.value[..]);
                    }
                    match children[path[0] as usize] {
                        Some(c) => {
                            expected = c;
                            path = &path[1..];
                        }
                        None => return false,
                    }
                }
                None => return false,
            }
        }
        false
    }

    /// Decode a node encoding (inverse of [`Node::encode`]); `None` on
    /// malformed input.
    fn decode(bytes: &[u8]) -> Option<Node> {
        let (&tag, rest) = bytes.split_first()?;
        match tag {
            0 | 1 => {
                let (&plen, rest) = rest.split_first()?;
                let plen = plen as usize;
                if rest.len() < plen {
                    return None;
                }
                let path = rest[..plen].to_vec();
                let body = &rest[plen..];
                if tag == 0 {
                    Some(Node::Leaf {
                        path,
                        value: body.to_vec(),
                    })
                } else {
                    if body.len() != 32 {
                        return None;
                    }
                    Some(Node::Extension {
                        path,
                        child: Hash(body.try_into().ok()?),
                    })
                }
            }
            2 => {
                if rest.len() < 2 {
                    return None;
                }
                let bitmap = u16::from_be_bytes(rest[..2].try_into().ok()?);
                let mut body = &rest[2..];
                let mut children: [Option<Hash>; 16] = Default::default();
                for (i, child) in children.iter_mut().enumerate() {
                    if bitmap & (1 << i) != 0 {
                        if body.len() < 32 {
                            return None;
                        }
                        *child = Some(Hash(body[..32].try_into().ok()?));
                        body = &body[32..];
                    }
                }
                let value = if body.is_empty() {
                    None
                } else {
                    Some(body.to_vec())
                };
                Some(Node::Branch { children, value })
            }
            _ => None,
        }
    }

    /// Garbage-collect every node not reachable from the current root
    /// (switching from geth's archival behaviour to a pruned state trie).
    /// Returns the number of nodes dropped. A forked trie first copies the
    /// shared base into its own store: the base itself, and every other
    /// fork, is left untouched.
    pub fn prune(&mut self) -> usize {
        self.materialise();
        // lint: allow(D003) -- reachability membership set; order never observed
        let mut reachable = std::collections::HashSet::new();
        if let Some(root) = self.root {
            let mut stack = vec![root];
            while let Some(h) = stack.pop() {
                if !reachable.insert(h) {
                    continue;
                }
                match self.get_node(&h) {
                    Some(Node::Extension { child, .. }) => stack.push(*child),
                    Some(Node::Branch { children, .. }) => {
                        stack.extend(children.iter().flatten().copied())
                    }
                    _ => {}
                }
            }
        }
        let before = self.store.nodes.len();
        let mut bytes = 0;
        self.store.nodes.retain(|h, (_, len)| {
            let keep = reachable.contains(h);
            if keep {
                bytes += *len as u64 + 32;
            }
            keep
        });
        self.store.bytes = bytes;
        before - self.store.nodes.len()
    }
}

impl StorageFootprint for MerklePatriciaTrie {
    fn footprint(&self) -> StorageBreakdown {
        // Every stored node costs its encoding plus the 32-byte hash key under
        // which the node store (LevelDB) files it.
        let node_bytes = self.store.bytes + self.base.as_ref().map_or(0, |b| b.bytes);
        StorageBreakdown {
            payload_bytes: self.live_value_bytes,
            index_bytes: node_bytes.saturating_sub(self.live_value_bytes),
            history_bytes: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key16(i: u64) -> Key {
        // 16-byte keys, as in the paper's Figure 13 setup.
        let mut k = vec![0u8; 8];
        k.extend_from_slice(&Hash::of(&i.to_be_bytes()).0[..8]);
        Key::new(k)
    }

    #[test]
    fn empty_trie_has_zero_root() {
        let t = MerklePatriciaTrie::new();
        assert_eq!(t.root_hash(), Hash::ZERO);
        assert!(t.is_empty());
        assert_eq!(t.get(&key16(1)), None);
        assert!(t.prove(&key16(1)).is_none());
    }

    #[test]
    fn insert_get_roundtrip_many_keys() {
        let mut t = MerklePatriciaTrie::new();
        let n = 500;
        for i in 0..n {
            t.insert(&key16(i), &Value::filler((i % 100 + 1) as usize));
        }
        assert_eq!(t.len(), n as usize);
        for i in 0..n {
            assert_eq!(
                t.get(&key16(i)).unwrap().len(),
                (i % 100 + 1) as usize,
                "key {i}"
            );
        }
        assert_eq!(t.get(&key16(n + 1)), None);
    }

    #[test]
    fn overwrite_updates_value_and_keeps_len() {
        let mut t = MerklePatriciaTrie::new();
        t.insert(&key16(1), &Value::filler(10));
        let root1 = t.root_hash();
        t.insert(&key16(1), &Value::filler(20));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&key16(1)).unwrap().len(), 20);
        assert_ne!(t.root_hash(), root1);
    }

    #[test]
    fn root_is_deterministic_and_insertion_order_independent() {
        let build = |order: &[u64]| {
            let mut t = MerklePatriciaTrie::new();
            for &i in order {
                t.insert(&key16(i), &Value::filler((i + 1) as usize));
            }
            t.root_hash()
        };
        let a = build(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let b = build(&[8, 3, 1, 7, 5, 2, 6, 4]);
        assert_eq!(a, b);
    }

    #[test]
    fn different_contents_different_roots() {
        let mut a = MerklePatriciaTrie::new();
        let mut b = MerklePatriciaTrie::new();
        a.insert(&key16(1), &Value::filler(10));
        b.insert(&key16(1), &Value::filler(11));
        assert_ne!(a.root_hash(), b.root_hash());
    }

    #[test]
    fn proofs_verify_and_reject_tampering() {
        let mut t = MerklePatriciaTrie::new();
        for i in 0..200 {
            t.insert(&key16(i), &Value::filler(32));
        }
        let root = t.root_hash();
        for i in (0..200).step_by(17) {
            let proof = t.prove(&key16(i)).unwrap();
            assert!(MerklePatriciaTrie::verify_proof(root, &key16(i), &proof));
            // Claiming a different value must fail.
            let mut forged = proof.clone();
            forged.value = vec![0xde; 32];
            assert!(!MerklePatriciaTrie::verify_proof(root, &key16(i), &forged));
            // Proof does not transfer to another key.
            assert!(!MerklePatriciaTrie::verify_proof(
                root,
                &key16(i + 1),
                &proof
            ));
            // Proof does not verify against another root.
            assert!(!MerklePatriciaTrie::verify_proof(
                Hash::of(b"other"),
                &key16(i),
                &proof
            ));
        }
    }

    #[test]
    fn update_stats_report_path_length() {
        let mut t = MerklePatriciaTrie::new();
        for i in 0..1000 {
            t.insert(&key16(i), &Value::filler(10));
        }
        let stats = t.insert(&key16(5), &Value::filler(1000));
        assert!(stats.nodes_touched >= 2, "stats {stats:?}");
        assert_eq!(stats.leaf_bytes, 1000);
    }

    #[test]
    fn archival_mode_accumulates_nodes_and_prune_reclaims_them() {
        let mut t = MerklePatriciaTrie::new();
        for i in 0..200 {
            t.insert(&key16(i), &Value::filler(100));
        }
        let before_overwrites = t.stored_node_count();
        // Overwrite the same keys with new contents: archival mode keeps the
        // superseded versions of every rewritten path node.
        for i in 0..200 {
            t.insert(&key16(i), &Value::filler(120));
        }
        assert!(t.stored_node_count() > before_overwrites);
        let dropped = t.prune();
        assert!(dropped > 0);
        // Everything still readable after pruning.
        for i in 0..200 {
            assert!(t.get(&key16(i)).is_some());
        }
        // Pruning again drops nothing.
        assert_eq!(t.prune(), 0);
    }

    #[test]
    fn per_record_overhead_exceeds_one_kilobyte_like_figure_13() {
        // 10K records of 10 bytes with 16-byte keys: the paper reports an MPT
        // state-storage cost of ≈1 090 B per record (record + >1 KB index).
        let mut t = MerklePatriciaTrie::new();
        let n = 10_000u64;
        for i in 0..n {
            t.insert(&key16(i), &Value::filler(10));
        }
        let per_record = t.footprint().total() as f64 / n as f64;
        assert!(
            per_record > 1000.0,
            "per-record cost {per_record:.0} B should exceed 1 KB"
        );
    }

    /// Everything an observer can read off a trie, for fork-vs-fresh checks.
    fn observe(t: &MerklePatriciaTrie, keys: &[u64]) -> impl PartialEq + std::fmt::Debug {
        (
            t.root_hash(),
            t.len(),
            t.stored_node_count(),
            t.footprint(),
            keys.iter()
                .map(|&i| (t.get(&key16(i)), t.prove(&key16(i))))
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn a_fork_is_indistinguishable_from_an_unshared_trie_with_the_same_history() {
        let load = |t: &mut MerklePatriciaTrie| {
            for i in 0..300 {
                t.insert(&key16(i), &Value::filler(40));
            }
        };
        // Overwrites (archival garbage), a rewrite of the base's own bytes
        // (content-addressed: stores nothing new), fresh keys and re-splits.
        let mutate = |t: &mut MerklePatriciaTrie| {
            for i in (0..300).step_by(7) {
                t.insert(&key16(i), &Value::filler(64));
            }
            t.insert(&key16(3), &Value::filler(40));
            for i in 300..360 {
                t.insert(&key16(i), &Value::filler(12));
            }
        };
        let keys: Vec<u64> = (0..365).collect();
        let mut fresh = MerklePatriciaTrie::new();
        load(&mut fresh);
        let mut base = MerklePatriciaTrie::new();
        load(&mut base);
        base.freeze();
        let mut fork = base.clone();
        assert_eq!(observe(&fork, &keys), observe(&fresh, &keys));
        mutate(&mut fresh);
        mutate(&mut fork);
        assert_eq!(observe(&fork, &keys), observe(&fresh, &keys));
        let root = fork.root_hash();
        let proof = fork.prove(&key16(7)).unwrap();
        assert!(MerklePatriciaTrie::verify_proof(root, &key16(7), &proof));
        // A second freeze (fork of a fork) changes nothing observable either.
        fork.freeze();
        assert_eq!(observe(&fork.clone(), &keys), observe(&fresh, &keys));
    }

    #[test]
    fn forks_never_observe_each_other_and_prune_never_touches_the_base() {
        let mut base = MerklePatriciaTrie::new();
        for i in 0..200 {
            base.insert(&key16(i), &Value::filler(30));
        }
        base.freeze();
        let keys: Vec<u64> = (0..210).collect();
        let untouched = observe(&base, &keys);
        let mut a = base.clone();
        let mut b = base.clone();
        for i in 0..200 {
            a.insert(&key16(i), &Value::filler(50));
        }
        a.insert(&key16(205), &Value::filler(9));
        assert_eq!(observe(&b, &keys), untouched, "b saw a's writes");
        b.insert(&key16(1), &Value::filler(77));
        assert_eq!(a.get(&key16(1)).unwrap().len(), 50);
        // Pruning a: matches pruning an unshared trie with a's history, and
        // the base (and b on top of it) keeps every archival node.
        let mut fresh = MerklePatriciaTrie::new();
        for i in 0..200 {
            fresh.insert(&key16(i), &Value::filler(30));
        }
        for i in 0..200 {
            fresh.insert(&key16(i), &Value::filler(50));
        }
        fresh.insert(&key16(205), &Value::filler(9));
        assert_eq!(a.prune(), fresh.prune());
        assert_eq!(observe(&a, &keys), observe(&fresh, &keys));
        assert_eq!(observe(&base, &keys), untouched);
        assert_eq!(b.get(&key16(2)).unwrap().len(), 30);
        assert!(b.stored_node_count() > base.stored_node_count());
    }

    #[test]
    fn node_decode_roundtrip() {
        let leaf = Node::Leaf {
            path: vec![1, 2, 3],
            value: b"hello".to_vec(),
        };
        assert_eq!(MerklePatriciaTrie::decode(&leaf.encode()), Some(leaf));
        let ext = Node::Extension {
            path: vec![4, 5],
            child: Hash::of(b"child"),
        };
        assert_eq!(MerklePatriciaTrie::decode(&ext.encode()), Some(ext));
        let mut children: [Option<Hash>; 16] = Default::default();
        children[3] = Some(Hash::of(b"a"));
        children[15] = Some(Hash::of(b"b"));
        let branch = Node::Branch {
            children,
            value: Some(b"v".to_vec()),
        };
        assert_eq!(MerklePatriciaTrie::decode(&branch.encode()), Some(branch));
        assert_eq!(MerklePatriciaTrie::decode(&[9, 9, 9]), None);
    }
}
