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

use std::collections::hash_map::Entry;
#[expect(
    clippy::disallowed_types,
    reason = "hash-addressed node store on the insert hot path; all iterations fold order-insensitive sums"
)]
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::Arc;

use dichotomy_common::size::{StorageBreakdown, StorageFootprint};
use dichotomy_common::{Hash, Key, Value};

use crate::UpdateStats;

/// A nibble string, one nibble per byte as the node encoding stores it, in
/// the workspace's small byte string: up to 22 nibbles sit inline in the
/// node, longer ones in a buffer that rewritten nodes share.
type Path = Key;

/// The occupied child slots of a branch in slot order, plus their bitmap —
/// the shape of the encoding, so a sparse branch costs what it holds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Children {
    occupied: u16,
    hashes: Vec<Hash>,
}

impl Children {
    fn has(&self, slot: u8) -> bool {
        self.occupied & (1 << slot) != 0
    }

    /// Index into `hashes` of `slot`, whether or not it is occupied.
    fn rank(&self, slot: u8) -> usize {
        (self.occupied & ((1 << slot) - 1)).count_ones() as usize
    }

    fn get(&self, slot: u8) -> Option<Hash> {
        self.has(slot).then(|| self.hashes[self.rank(slot)])
    }

    fn set(&mut self, slot: u8, child: Hash) {
        let at = self.rank(slot);
        if self.has(slot) {
            self.hashes[at] = child;
        } else {
            self.occupied |= 1 << slot;
            self.hashes.insert(at, child);
        }
    }

    /// A copy with `slot` pointing at `child`.
    fn with(&self, slot: u8, child: Hash) -> Children {
        let len = self.hashes.len() + usize::from(!self.has(slot));
        let mut hashes = Vec::with_capacity(len);
        hashes.extend_from_slice(&self.hashes);
        let mut next = Children {
            occupied: self.occupied,
            hashes,
        };
        next.set(slot, child);
        next
    }
}

/// A trie node. Nodes are immutable once stored and are never cloned: the
/// store holds each behind an `Arc`, and a rewritten spine shares its values
/// (and long paths) with the nodes it supersedes.
#[derive(Debug, PartialEq, Eq)]
enum Node {
    /// Terminal node holding the remaining path and the value.
    Leaf { path: Path, value: Value },
    /// Path compression node pointing at a single child.
    Extension { path: Path, child: Hash },
    /// 16-way branch with an optional value for keys ending here.
    Branch {
        children: Children,
        value: Option<Value>,
    },
}

impl Node {
    fn leaf(path: &[u8], value: &Value) -> Node {
        Node::Leaf {
            path: Path::new(path),
            value: value.clone(),
        }
    }

    /// Deterministic byte encoding, standing in for RLP, written over `out`.
    /// The encoding is what gets hashed (node identity) and what the
    /// footprint counts.
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        match self {
            Node::Leaf { path, value } => {
                out.extend_from_slice(&[0u8, path.len() as u8]);
                out.extend_from_slice(path.as_bytes());
                out.extend_from_slice(value.as_bytes());
            }
            Node::Extension { path, child } => {
                out.extend_from_slice(&[1u8, path.len() as u8]);
                out.extend_from_slice(path.as_bytes());
                out.extend_from_slice(&child.0);
            }
            Node::Branch { children, value } => {
                out.push(2u8);
                out.extend_from_slice(&children.occupied.to_be_bytes());
                for c in &children.hashes {
                    out.extend_from_slice(&c.0);
                }
                if let Some(v) = value {
                    out.extend_from_slice(v.as_bytes());
                }
            }
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Length of the encoding, without producing it.
    fn encoded_len(&self) -> usize {
        match self {
            Node::Leaf { path, value } => 2 + path.len() + value.len(),
            Node::Extension { path, .. } => 2 + path.len() + 32,
            Node::Branch { children, value } => {
                3 + 32 * children.hashes.len() + value.as_ref().map_or(0, Value::len)
            }
        }
    }
}

/// The nibbles of a key (high nibble first): on the stack for keys of up to
/// 32 bytes, so a lookup or insert allocates nothing for its path.
struct Nibbles {
    stack: [u8; 64],
    heap: Vec<u8>,
    len: usize,
}

impl Nibbles {
    fn of(key: &[u8]) -> Self {
        let len = key.len() * 2;
        let mut stack = [0u8; 64];
        let mut heap = Vec::new();
        let buf = if len <= stack.len() {
            &mut stack[..len]
        } else {
            heap.resize(len, 0);
            &mut heap[..]
        };
        for (pair, b) in buf.chunks_exact_mut(2).zip(key) {
            pair[0] = b >> 4;
            pair[1] = b & 0x0f;
        }
        Nibbles { stack, heap, len }
    }

    fn as_slice(&self) -> &[u8] {
        if self.heap.is_empty() {
            &self.stack[..self.len]
        } else {
            &self.heap
        }
    }
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

/// The node store's hasher. Its keys are SHA-256 digests, uniform already,
/// so the first eight digest bytes are the table hash as they stand: no
/// second hash over the 32 bytes, and no per-process random state.
#[derive(Debug, Default)]
struct DigestPrefix(u64);

impl std::hash::Hasher for DigestPrefix {
    /// [`Hash`] hashes as its byte array: one call with the 32 digest bytes.
    fn write(&mut self, bytes: &[u8]) {
        let mut prefix = [0u8; 8];
        let n = bytes.len().min(8);
        prefix[..n].copy_from_slice(&bytes[..n]);
        self.0 = u64::from_le_bytes(prefix);
    }

    /// The array's length prefix, the same for every key.
    fn write_usize(&mut self, _len: usize) {}

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Hash-addressed nodes (the LevelDB role), each stored once.
#[expect(
    clippy::disallowed_types,
    reason = "keyed by content hash; iterated only for retain and order-insensitive merges"
)]
type NodeMap = HashMap<Hash, Arc<Node>, BuildHasherDefault<DigestPrefix>>;

/// A node store with its running footprint: what [`MerklePatriciaTrie`]
/// writes into, and — behind an `Arc` — the immutable base its forks share.
#[derive(Debug, Clone, Default)]
struct NodeStore {
    nodes: NodeMap,
    /// Σ (encoded size + 32-byte hash key) over `nodes`, kept current by
    /// every insert and retain so `footprint()` never walks the store.
    bytes: u64,
}

/// What one insert learns on its way down, beside the new root.
struct Insertion {
    stats: UpdateStats,
    /// Length of the value the key held before, if it held one.
    replaced: Option<usize>,
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
    /// The encoding of the node being stored; reused by every `put_node`.
    scratch: Vec<u8>,
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

    /// Fold the shared base back into this trie's own store (copying its
    /// table of node handles when other forks still hold it), leaving an
    /// unshared trie.
    fn materialise(&mut self) {
        let Some(base) = self.base.take() else { return };
        let base = Arc::try_unwrap(base).unwrap_or_else(|shared| NodeStore::clone(&shared));
        let overlay = std::mem::replace(&mut self.store, base);
        self.store.nodes.extend(overlay.nodes);
        self.store.bytes += overlay.bytes;
    }

    fn put_node(&mut self, node: Node) -> Hash {
        node.encode_into(&mut self.scratch);
        let h = Hash::of(&self.scratch);
        if let Some(base) = &self.base {
            if base.nodes.contains_key(&h) {
                return h;
            }
        }
        if let Entry::Vacant(slot) = self.store.nodes.entry(h) {
            slot.insert(Arc::new(node));
            self.store.bytes += self.scratch.len() as u64 + 32;
        }
        h
    }

    fn get_node(&self, h: &Hash) -> Option<&Arc<Node>> {
        self.store
            .nodes
            .get(h)
            .or_else(|| self.base.as_ref()?.nodes.get(h))
    }

    /// Insert or overwrite `key` with `value`, returning the structural
    /// update statistics (used for CPU-cost charging).
    pub fn insert(&mut self, key: &Key, value: &Value) -> UpdateStats {
        let nibbles = Nibbles::of(key.as_bytes());
        let mut insertion = Insertion {
            stats: UpdateStats {
                nodes_touched: 0,
                leaf_bytes: value.len(),
            },
            replaced: None,
        };
        let new_root = self.insert_at(self.root, nibbles.as_slice(), value, &mut insertion);
        self.root = Some(new_root);
        match insertion.replaced {
            Some(old_len) => self.live_value_bytes -= old_len as u64,
            None => self.len += 1,
        }
        self.live_value_bytes += value.len() as u64;
        insertion.stats
    }

    /// Recursive insert; returns the hash of the new node replacing
    /// `node_hash` for the remaining `path`.
    fn insert_at(
        &mut self,
        node_hash: Option<Hash>,
        path: &[u8],
        value: &Value,
        insertion: &mut Insertion,
    ) -> Hash {
        insertion.stats.nodes_touched += 1;
        let Some(h) = node_hash else {
            return self.put_node(Node::leaf(path, value));
        };
        // A second handle on the spine node, not a copy of it: the store can
        // then be written while the node is read.
        let node = Arc::clone(
            self.get_node(&h)
                .expect("child hash must resolve in the node store"),
        );
        match &*node {
            Node::Leaf {
                path: leaf_path,
                value: leaf_value,
            } => {
                let leaf_path = leaf_path.as_bytes();
                if leaf_path == path {
                    insertion.replaced = Some(leaf_value.len());
                    return self.put_node(Node::leaf(path, value));
                }
                let cp = common_prefix_len(leaf_path, path);
                let mut children = Children::default();
                let mut branch_value = None;
                // Re-home the existing leaf under the branch.
                match leaf_path[cp..].split_first() {
                    None => branch_value = Some(leaf_value.clone()),
                    Some((&slot, rest)) => {
                        let child = self.put_node(Node::leaf(rest, leaf_value));
                        insertion.stats.nodes_touched += 1;
                        children.set(slot, child);
                    }
                }
                self.split_at(cp, children, branch_value, path, value, insertion)
            }
            Node::Extension {
                path: ext_path,
                child,
            } => {
                let cp = common_prefix_len(ext_path.as_bytes(), path);
                if cp == ext_path.len() {
                    // Descend into the child with the remaining path.
                    let new_child = self.insert_at(Some(*child), &path[cp..], value, insertion);
                    return self.put_node(Node::Extension {
                        path: ext_path.clone(),
                        child: new_child,
                    });
                }
                // Split the extension at the divergence point.
                let ext_rest = &ext_path.as_bytes()[cp..];
                let under_ext = if ext_rest.len() == 1 {
                    *child
                } else {
                    insertion.stats.nodes_touched += 1;
                    self.put_node(Node::Extension {
                        path: Path::new(&ext_rest[1..]),
                        child: *child,
                    })
                };
                let mut children = Children::default();
                children.set(ext_rest[0], under_ext);
                self.split_at(cp, children, None, path, value, insertion)
            }
            Node::Branch {
                children,
                value: branch_value,
            } => {
                let Some((&slot, rest)) = path.split_first() else {
                    insertion.replaced = branch_value.as_ref().map(Value::len);
                    return self.put_node(Node::Branch {
                        children: children.clone(),
                        value: Some(value.clone()),
                    });
                };
                let new_child = self.insert_at(children.get(slot), rest, value, insertion);
                self.put_node(Node::Branch {
                    children: children.with(slot, new_child),
                    value: branch_value.clone(),
                })
            }
        }
    }

    /// Finish splitting a leaf or extension whose path leaves `path` after
    /// `cp` nibbles: `children` and `branch_value` already hold the re-homed
    /// old node; place the new value beside it, store the branch and, when
    /// the two share a prefix, the extension above it.
    fn split_at(
        &mut self,
        cp: usize,
        mut children: Children,
        mut branch_value: Option<Value>,
        path: &[u8],
        value: &Value,
        insertion: &mut Insertion,
    ) -> Hash {
        match path[cp..].split_first() {
            None => branch_value = Some(value.clone()),
            Some((&slot, rest)) => {
                let leaf = self.put_node(Node::leaf(rest, value));
                insertion.stats.nodes_touched += 1;
                children.set(slot, leaf);
            }
        }
        let branch = self.put_node(Node::Branch {
            children,
            value: branch_value,
        });
        insertion.stats.nodes_touched += 1;
        if cp == 0 {
            return branch;
        }
        insertion.stats.nodes_touched += 1;
        self.put_node(Node::Extension {
            path: Path::new(&path[..cp]),
            child: branch,
        })
    }

    /// Walk from the root towards `key`, handing every node on the way to
    /// `visit`, and return the value the key holds.
    fn walk(&self, key: &Key, mut visit: impl FnMut(&Node)) -> Option<&Value> {
        let nibbles = Nibbles::of(key.as_bytes());
        let mut path = nibbles.as_slice();
        let mut current = self.root?;
        loop {
            let node = &**self.get_node(&current)?;
            visit(node);
            match node {
                Node::Leaf {
                    path: leaf_path,
                    value,
                } => return (leaf_path.as_bytes() == path).then_some(value),
                Node::Extension {
                    path: ext_path,
                    child,
                } => {
                    path = path.strip_prefix(ext_path.as_bytes())?;
                    current = *child;
                }
                Node::Branch { children, value } => {
                    let Some((&slot, rest)) = path.split_first() else {
                        return value.as_ref();
                    };
                    current = children.get(slot)?;
                    path = rest;
                }
            }
        }
    }

    /// Read the value of `key`, if present.
    pub fn get(&self, key: &Key) -> Option<Value> {
        self.walk(key, |_| {}).cloned()
    }

    /// Produce a membership proof for `key`: the encodings of the nodes from
    /// the root down to the key. Returns `None` if the key is absent.
    pub fn prove(&self, key: &Key) -> Option<MptProof> {
        let mut nodes = Vec::new();
        let value = self.walk(key, |node| nodes.push(node.encode()))?;
        Some(MptProof {
            value: value.as_bytes().to_vec(),
            nodes,
        })
    }

    /// Verify a proof against a trusted root hash and the claimed key/value:
    /// the first node must hash to the root, every node must be the child the
    /// previous node references along the key's nibble path, and the terminal
    /// node must carry the claimed value.
    pub fn verify_proof(root: Hash, key: &Key, proof: &MptProof) -> bool {
        // Each node encoding must hash to the reference held by its parent.
        let mut expected = root;
        let nibbles = Nibbles::of(key.as_bytes());
        let mut path = nibbles.as_slice();
        for (i, encoded) in proof.nodes.iter().enumerate() {
            if Hash::of(encoded) != expected {
                return false;
            }
            let last = i + 1 == proof.nodes.len();
            match Self::decode(encoded) {
                Some(Node::Leaf {
                    path: leaf_path,
                    value,
                }) => {
                    return last && leaf_path.as_bytes() == path && value.as_bytes() == proof.value;
                }
                Some(Node::Extension {
                    path: ext_path,
                    child,
                }) => {
                    let Some(rest) = path.strip_prefix(ext_path.as_bytes()) else {
                        return false;
                    };
                    path = rest;
                    expected = child;
                }
                Some(Node::Branch { children, value }) => {
                    let Some((&slot, rest)) = path.split_first() else {
                        return last
                            && value.as_ref().map(Value::as_bytes) == Some(&proof.value[..]);
                    };
                    match children.get(slot) {
                        Some(c) => {
                            expected = c;
                            path = rest;
                        }
                        None => return false,
                    }
                }
                None => return false,
            }
        }
        false
    }

    /// Decode a node encoding (inverse of [`Node::encode_into`]); `None` on
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
                let (path, body) = rest.split_at(plen);
                let path = Path::new(path);
                if tag == 0 {
                    Some(Node::Leaf {
                        path,
                        value: Value::new(body),
                    })
                } else {
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
                let (bitmap, body) = rest.split_at(2);
                let occupied = u16::from_be_bytes(bitmap.try_into().ok()?);
                let child_bytes = 32 * occupied.count_ones() as usize;
                if body.len() < child_bytes {
                    return None;
                }
                let (hashes, value) = body.split_at(child_bytes);
                let hashes = hashes
                    .chunks_exact(32)
                    .map(|c| Some(Hash(c.try_into().ok()?)))
                    .collect::<Option<Vec<_>>>()?;
                Some(Node::Branch {
                    children: Children { occupied, hashes },
                    value: (!value.is_empty()).then(|| Value::new(value)),
                })
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
        #[expect(
            clippy::disallowed_types,
            reason = "reachability membership set; order never observed"
        )]
        let mut reachable = std::collections::HashSet::new();
        if let Some(root) = self.root {
            let mut stack = vec![root];
            while let Some(h) = stack.pop() {
                if !reachable.insert(h) {
                    continue;
                }
                match self.get_node(&h).map(|node| &**node) {
                    Some(Node::Extension { child, .. }) => stack.push(*child),
                    Some(Node::Branch { children, .. }) => stack.extend(&children.hashes),
                    _ => {}
                }
            }
        }
        let before = self.store.nodes.len();
        let mut bytes = 0;
        self.store.nodes.retain(|h, node| {
            let keep = reachable.contains(h);
            if keep {
                bytes += node.encoded_len() as u64 + 32;
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
        let roundtrip = |node: Node| {
            let encoded = node.encode();
            assert_eq!(node.encoded_len(), encoded.len());
            assert_eq!(MerklePatriciaTrie::decode(&encoded), Some(node));
        };
        roundtrip(Node::leaf(&[1, 2, 3], &Value::new(b"hello")));
        roundtrip(Node::Extension {
            path: Path::new([4, 5]),
            child: Hash::of(b"child"),
        });
        let mut children = Children::default();
        children.set(15, Hash::of(b"b"));
        children.set(3, Hash::of(b"a"));
        assert_eq!(children.hashes, [Hash::of(b"a"), Hash::of(b"b")]);
        assert_eq!(children.get(3), Some(Hash::of(b"a")));
        assert_eq!(children.get(4), None);
        assert_eq!(
            children.with(15, Hash::of(b"c")).get(15),
            Some(Hash::of(b"c"))
        );
        roundtrip(Node::Branch {
            children,
            value: Some(Value::new(b"v")),
        });
        assert_eq!(MerklePatriciaTrie::decode(&[9, 9, 9]), None);
        // A bitmap that promises more children than the body holds.
        assert_eq!(MerklePatriciaTrie::decode(&[2, 0xff, 0xff, 1, 2, 3]), None);
    }

    #[test]
    fn nibble_paths_of_long_keys_leave_the_stack() {
        let mut t = MerklePatriciaTrie::new();
        let long = |tail: u8| Key::new([[7u8; 40].as_slice(), &[tail]].concat());
        assert_eq!(
            Nibbles::of(long(0xab).as_bytes()).as_slice()[78..],
            [0, 7, 10, 11]
        );
        assert_eq!(Nibbles::of(&[0xab; 32]).as_slice().len(), 64);
        t.insert(&long(1), &Value::filler(3));
        t.insert(&long(2), &Value::filler(4));
        t.insert(&Key::new([7u8; 40]), &Value::filler(5));
        assert_eq!(t.get(&long(2)).unwrap().len(), 4);
        assert_eq!(t.get(&Key::new([7u8; 40])).unwrap().len(), 5);
        let proof = t.prove(&long(1)).unwrap();
        assert!(MerklePatriciaTrie::verify_proof(
            t.root_hash(),
            &long(1),
            &proof
        ));
    }
}
