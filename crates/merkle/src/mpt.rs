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
//! * every node has a deterministic byte **encoding** in which a parent names
//!   each child by the SHA-256 of the child's encoding, so the root hash
//!   uniquely identifies the entire state.
//!
//! A node's identity is its encoding. The node store (the role LevelDB plays
//! under geth) holds each distinct encoding once and charges it its bytes plus
//! a 32-byte hash key. The store is **hash-consed**: a node is interned under
//! a cheap structural key (tag, path, child ids, a value's length and end
//! bytes) and matched exactly, comparing children by id — in an interned
//! store, equal ids are equal encodings — so finding a node's identity needs
//! no digest. SHA-256 runs **on demand**: a node's digest is computed the
//! first time [`root_hash`](MerklePatriciaTrie::root_hash) reaches it, and
//! memoised. The stored node set, node count, footprint and update statistics
//! are those of a store keyed by the digests themselves.
//!
//! Updates create new nodes along the path from the root to the touched leaf.
//! In **archival mode** (the default here and in geth) the superseded nodes
//! stay in the node store, which is why the paper measures more than a kilobyte
//! of storage overhead per record for the MPT (Figure 13). A write of the bytes
//! the key already holds, which is what every YCSB update stores, keeps its
//! nodes: a leaf or branch value whose bytes would not change returns its own
//! id, and so does every node above it whose child came back unchanged, which
//! are the ids interning the rebuilt nodes would have found. The archival
//! history, node count and footprint are those of the full rewrite, and the
//! [`UpdateStats`] still count the whole path, so a model's simulated cost
//! charges it in full.

#[expect(
    clippy::disallowed_types,
    reason = "intern table on the insert hot path; looked up by key, never iterated into output"
)]
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::{Arc, OnceLock};

use dichotomy_common::size::{StorageBreakdown, StorageFootprint};
use dichotomy_common::{Hash, Key, Value};

use crate::UpdateStats;

/// A nibble string, one nibble per byte as the node encoding stores it, in
/// the workspace's small byte string: up to 22 nibbles sit inline in the
/// node, longer ones in a buffer that rewritten nodes share.
type Path = Key;

/// A node's place in the store. Children are always stored before their
/// parents, so a child's id is below its parent's; a fork's own nodes
/// continue after its base's.
type NodeId = u32;

/// Longest key [`MerklePatriciaTrie::insert`] accepts: its nibble path must
/// fit the encoding's two-byte length.
const MAX_KEY_BYTES: usize = u16::MAX as usize / 2;

/// Longest path whose length the encoding writes in one byte. A longer one
/// (a key of 128 bytes or more) is `0xFF` and a big-endian `u16`.
const SHORT_PATH: usize = 0xFE;

/// The occupied child slots of a branch in slot order, plus their bitmap —
/// the shape of the encoding, so a sparse branch costs what it holds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Children {
    occupied: u16,
    slots: Vec<NodeId>,
}

impl Children {
    fn has(&self, slot: u8) -> bool {
        self.occupied & (1 << slot) != 0
    }

    /// Index into `slots` of `slot`, whether or not it is occupied.
    fn rank(&self, slot: u8) -> usize {
        (self.occupied & ((1 << slot) - 1)).count_ones() as usize
    }

    fn get(&self, slot: u8) -> Option<NodeId> {
        self.has(slot).then(|| self.slots[self.rank(slot)])
    }

    fn set(&mut self, slot: u8, child: NodeId) {
        let at = self.rank(slot);
        if self.has(slot) {
            self.slots[at] = child;
        } else {
            self.occupied |= 1 << slot;
            self.slots.insert(at, child);
        }
    }
}

/// A trie node. Stored nodes are immutable; a rewritten spine shares its
/// values (and long paths) with the nodes it supersedes.
#[derive(Debug, Clone)]
enum Node {
    /// Terminal node holding the remaining path and the value.
    Leaf { path: Path, value: Value },
    /// Path compression node pointing at a single child.
    Extension { path: Path, child: NodeId },
    /// 16-way branch with an optional value for keys ending here.
    Branch {
        children: Children,
        value: Option<Value>,
    },
}

impl Node {
    fn leaf(path: &[u8], value: &Value) -> Self {
        Node::Leaf {
            path: Path::new(path),
            value: value.clone(),
        }
    }

    /// Deterministic byte encoding, standing in for RLP, appended to `out`;
    /// `child_hash` names each child by the digest of its own encoding. The
    /// encoding is what gets hashed and what the footprint counts.
    fn encode_into(&self, out: &mut Vec<u8>, mut child_hash: impl FnMut(NodeId) -> Hash) {
        match self {
            Node::Leaf { path, value } => {
                out.push(0);
                put_path(out, path);
                out.extend_from_slice(value.as_bytes());
            }
            Node::Extension { path, child } => {
                out.push(1);
                put_path(out, path);
                out.extend_from_slice(&child_hash(*child).0);
            }
            Node::Branch { children, value } => {
                out.push(2);
                out.extend_from_slice(&children.occupied.to_be_bytes());
                for &c in &children.slots {
                    out.extend_from_slice(&child_hash(c).0);
                }
                out.extend_from_slice(branch_value(value));
            }
        }
    }

    /// Length of the encoding, without producing it.
    fn encoded_len(&self) -> usize {
        let path_len = |path: &Path| 1 + usize::from(path.len() > SHORT_PATH) * 2 + path.len();
        match self {
            Node::Leaf { path, value } => 1 + path_len(path) + value.len(),
            Node::Extension { path, .. } => 1 + path_len(path) + 32,
            Node::Branch { children, value } => {
                3 + 32 * children.slots.len() + branch_value(value).len()
            }
        }
    }

    /// Whether `self` and `other` encode to the same bytes. Children compare
    /// by id, which in an interned store is comparing their encodings; a
    /// branch's `Some(empty)` value encodes like `None`.
    fn same_encoding(&self, other: &Node) -> bool {
        match (self, other) {
            (Node::Leaf { path, value }, Node::Leaf { path: p, value: v }) => {
                path == p && value == v
            }
            (Node::Extension { path, child }, Node::Extension { path: p, child: c }) => {
                path == p && child == c
            }
            (
                Node::Branch { children, value },
                Node::Branch {
                    children: c,
                    value: v,
                },
            ) => children == c && branch_value(value) == branch_value(v),
            _ => false,
        }
    }

    /// The intern key: a deterministic 64-bit digest of what
    /// [`same_encoding`](Self::same_encoding) compares, with a value
    /// [sampled](KeyMix::add_sampled) rather than read whole. Equal encodings
    /// get equal keys; two values that differ only in the middle share one,
    /// and cost the lookup one more step along the chain.
    fn intern_key(&self) -> u64 {
        let mut key = KeyMix::default();
        match self {
            Node::Leaf { path, value } => {
                key.add(0);
                key.add_bytes(path.as_bytes());
                key.add_sampled(value.as_bytes());
            }
            Node::Extension { path, child } => {
                key.add(1);
                key.add_bytes(path.as_bytes());
                key.add(u64::from(*child));
            }
            Node::Branch { children, value } => {
                key.add(2 | u64::from(children.occupied) << 8);
                for &c in &children.slots {
                    key.add(u64::from(c));
                }
                key.add_sampled(branch_value(value));
            }
        }
        key.finish()
    }
}

/// The bytes a branch value contributes to the encoding (none for `None`).
fn branch_value(value: &Option<Value>) -> &[u8] {
    value.as_ref().map_or(&[], Value::as_bytes)
}

/// Append a length-prefixed nibble path: one length byte up to
/// [`SHORT_PATH`], else `0xFF` and a big-endian `u16`.
fn put_path(out: &mut Vec<u8>, path: &Path) {
    match u8::try_from(path.len()) {
        Ok(len) if usize::from(len) <= SHORT_PATH => out.push(len),
        _ => {
            let len = u16::try_from(path.len()).expect("insert bounds the key length");
            out.push(0xFF);
            out.extend_from_slice(&len.to_be_bytes());
        }
    }
    out.extend_from_slice(path.as_bytes());
}

/// FxHash's rotate-xor-multiply word mix (rustc's own table hasher):
/// deterministic, and cheap over the short paths and id lists a key covers.
#[derive(Default)]
struct KeyMix(u64);

impl KeyMix {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    /// A byte string, length first, eight bytes at a time.
    fn add_bytes(&mut self, bytes: &[u8]) {
        self.add(bytes.len() as u64);
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        let mut tail = [0u8; 8];
        tail[..words.remainder().len()].copy_from_slice(words.remainder());
        self.add(u64::from_le_bytes(tail));
    }

    /// A value: its length and its first and last eight bytes, or all of it
    /// up to 16 bytes. Reading a 1 KB value whole would cost more than the
    /// rest of the key.
    fn add_sampled(&mut self, bytes: &[u8]) {
        if bytes.len() <= 16 {
            return self.add_bytes(bytes);
        }
        let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
        self.add(bytes.len() as u64);
        self.add(word(0));
        self.add(word(bytes.len() - 8));
    }

    /// Fold the high bits, where the multiply leaves its entropy, into the
    /// low bits a hash table indexes by.
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// The intern table's hasher: its keys are [`KeyMix`] digests already, so a
/// key is its own table hash.
#[derive(Debug, Default)]
struct KeyIsHash(u64);

impl std::hash::Hasher for KeyIsHash {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Intern key → the newest stored node with that key.
#[expect(
    clippy::disallowed_types,
    reason = "keyed by a deterministic digest; iterated only to merge a base with its overlay"
)]
type InternTable = HashMap<u64, NodeId, BuildHasherDefault<KeyIsHash>>;

/// A stored node.
#[derive(Debug, Clone)]
struct Stored {
    node: Node,
    /// SHA-256 of the encoding, once a root has needed it.
    hash: OnceLock<Hash>,
    /// The next older stored node with the same intern key.
    same_key: Option<NodeId>,
}

/// A node store with its running footprint: what [`MerklePatriciaTrie`]
/// writes into, and — behind an `Arc` — the immutable base its forks share,
/// digest memo included.
#[derive(Debug, Clone, Default)]
struct NodeStore {
    /// Nodes in id order, from the store's first id.
    nodes: Vec<Stored>,
    /// Heads of the same-key chains. An overlay's chains run on into its
    /// base's, so an overlay head supersedes the base's for its key.
    index: InternTable,
    /// Σ (encoded size + 32-byte hash key) over `nodes`, kept current by
    /// every insert so `footprint()` never walks the store.
    bytes: u64,
}

impl NodeStore {
    /// Append `stored`, whose encoding no stored node has, as node `id`,
    /// heading the chain of intern key `key`.
    fn push(&mut self, id: NodeId, key: u64, stored: Stored) {
        self.bytes += stored.node.encoded_len() as u64 + 32;
        self.index.insert(key, id);
        self.nodes.push(stored);
    }
}

/// What one insert learns on its way down, beside the new root.
struct Insertion {
    stats: UpdateStats,
    /// Length of the value the key held before, if it held one.
    replaced: Option<usize>,
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

/// The Merkle Patricia Trie.
///
/// A trie may sit on a shared immutable **base**: [`freeze`](Self::freeze)
/// moves everything stored so far behind an `Arc`, after which `clone()` is a
/// *fork* — a second trie over the same base that pays only for its own
/// (initially empty) overlay. Forks never observe each other's writes, share
/// the base's digest memo, and answer every accessor as an unshared trie with
/// the same history would (a node the base already holds is never stored
/// twice).
#[derive(Debug, Clone, Default)]
pub struct MerklePatriciaTrie {
    /// Frozen nodes shared with other forks; `None` for an unshared trie.
    base: Option<Arc<NodeStore>>,
    /// Nodes written by this trie (all of them when unshared), disjoint
    /// from `base`; their ids continue after the base's.
    store: NodeStore,
    root: Option<NodeId>,
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
    /// header is what gives blockchains state tamper evidence. Hashes every
    /// node the root reaches that no earlier root has hashed.
    pub fn root_hash(&self) -> Hash {
        self.root.map_or(Hash::ZERO, |root| self.hash_of(root))
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
        self.base_nodes().len() + self.store.nodes.len()
    }

    /// Move every node stored so far into a shared immutable base, so that
    /// `clone()` forks this trie in O(1) instead of copying the node store.
    /// Observable state (root, reads, footprint, node count) is unchanged.
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
        self.store.index.extend(overlay.index);
        self.store.bytes += overlay.bytes;
    }

    fn base_nodes(&self) -> &[Stored] {
        self.base.as_deref().map_or(&[], |base| &base.nodes)
    }

    fn stored(&self, id: NodeId) -> &Stored {
        let base = self.base_nodes();
        let id = id as usize;
        base.get(id)
            .unwrap_or_else(|| &self.store.nodes[id - base.len()])
    }

    fn node(&self, id: NodeId) -> &Node {
        &self.stored(id).node
    }

    /// SHA-256 of node `id`'s encoding, computed — with every child digest
    /// not yet known — the first time it is asked for.
    fn hash_of(&self, id: NodeId) -> Hash {
        let stored = self.stored(id);
        *stored
            .hash
            .get_or_init(|| Hash::of(&self.encode(&stored.node)))
    }

    fn encode(&self, node: &Node) -> Vec<u8> {
        let mut out = Vec::with_capacity(node.encoded_len());
        node.encode_into(&mut out, |child| self.hash_of(child));
        out
    }

    /// The id of the stored node encoding as `node` does, storing `node` when
    /// there is none. The first node stored with an encoding is the one every
    /// later equal node resolves to, value buffer and all.
    fn put_node(&mut self, node: Node) -> NodeId {
        let key = node.intern_key();
        let head = self
            .store
            .index
            .get(&key)
            .or_else(|| self.base.as_ref()?.index.get(&key))
            .copied();
        let mut next = head;
        while let Some(id) = next {
            let stored = self.stored(id);
            if stored.node.same_encoding(&node) {
                return id;
            }
            next = stored.same_key;
        }
        let id = NodeId::try_from(self.stored_node_count()).expect("fewer than 2^32 stored nodes");
        let stored = Stored {
            node,
            hash: OnceLock::new(),
            same_key: head,
        };
        self.store.push(id, key, stored);
        id
    }

    /// Insert or overwrite `key` with `value`, returning the structural
    /// update statistics (used for CPU-cost charging).
    ///
    /// # Panics
    ///
    /// If `key` is longer than 32 767 bytes, beyond what a node encoding
    /// records of its path.
    pub fn insert(&mut self, key: &Key, value: &Value) -> UpdateStats {
        assert!(
            key.len() <= MAX_KEY_BYTES,
            "MPT keys are at most {MAX_KEY_BYTES} bytes"
        );
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

    /// Recursive insert; returns the id of the new node replacing `at` for
    /// the remaining `path`. A rewrite that would encode like the node it
    /// replaces returns that node's id, which is what interning it would find.
    fn insert_at(
        &mut self,
        at: Option<NodeId>,
        path: &[u8],
        value: &Value,
        insertion: &mut Insertion,
    ) -> NodeId {
        insertion.stats.nodes_touched += 1;
        let Some(id) = at else {
            return self.put_node(Node::leaf(path, value));
        };
        // The spine node's handles (paths and values are shared buffers), so
        // the store can be written while the node is rewritten.
        match self.node(id).clone() {
            Node::Leaf {
                path: leaf_path,
                value: leaf_value,
            } => {
                let leaf_path = leaf_path.as_bytes();
                if leaf_path == path {
                    insertion.replaced = Some(leaf_value.len());
                    if leaf_value == *value {
                        return id;
                    }
                    return self.put_node(Node::leaf(path, value));
                }
                let cp = common_prefix_len(leaf_path, path);
                let mut children = Children::default();
                let mut branch_value = None;
                // Re-home the existing leaf under the branch.
                match leaf_path[cp..].split_first() {
                    None => branch_value = Some(leaf_value),
                    Some((&slot, rest)) => {
                        let child = self.put_node(Node::leaf(rest, &leaf_value));
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
                    let new_child = self.insert_at(Some(child), &path[cp..], value, insertion);
                    if new_child == child {
                        return id;
                    }
                    return self.put_node(Node::Extension {
                        path: ext_path,
                        child: new_child,
                    });
                }
                // Split the extension at the divergence point.
                let ext_rest = &ext_path.as_bytes()[cp..];
                let under_ext = if ext_rest.len() == 1 {
                    child
                } else {
                    insertion.stats.nodes_touched += 1;
                    self.put_node(Node::Extension {
                        path: Path::new(&ext_rest[1..]),
                        child,
                    })
                };
                let mut children = Children::default();
                children.set(ext_rest[0], under_ext);
                self.split_at(cp, children, None, path, value, insertion)
            }
            Node::Branch {
                mut children,
                value: old_value,
            } => {
                let Some((&slot, rest)) = path.split_first() else {
                    insertion.replaced = old_value.as_ref().map(Value::len);
                    if branch_value(&old_value) == value.as_bytes() {
                        return id;
                    }
                    return self.put_node(Node::Branch {
                        children,
                        value: Some(value.clone()),
                    });
                };
                let old_child = children.get(slot);
                let new_child = self.insert_at(old_child, rest, value, insertion);
                if old_child == Some(new_child) {
                    return id;
                }
                children.set(slot, new_child);
                self.put_node(Node::Branch {
                    children,
                    value: old_value,
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
    ) -> NodeId {
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

    /// Read the value of `key`, if present.
    pub fn get(&self, key: &Key) -> Option<Value> {
        let nibbles = Nibbles::of(key.as_bytes());
        let mut path = nibbles.as_slice();
        let mut current = self.root?;
        loop {
            match self.node(current) {
                Node::Leaf {
                    path: leaf_path,
                    value,
                } => return (leaf_path.as_bytes() == path).then(|| value.clone()),
                Node::Extension {
                    path: ext_path,
                    child,
                } => {
                    path = path.strip_prefix(ext_path.as_bytes())?;
                    current = *child;
                }
                Node::Branch { children, value } => {
                    let Some((&slot, rest)) = path.split_first() else {
                        return value.clone();
                    };
                    current = children.get(slot)?;
                    path = rest;
                }
            }
        }
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
    fn archival_mode_accumulates_nodes() {
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
        for i in 0..200 {
            assert_eq!(t.get(&key16(i)).unwrap().len(), 120);
        }
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
            keys.iter().map(|&i| t.get(&key16(i))).collect::<Vec<_>>(),
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
        // (an encoding the base holds: stores nothing new), fresh keys and
        // re-splits.
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
        // A second freeze (fork of a fork) changes nothing observable either.
        fork.freeze();
        assert_eq!(observe(&fork.clone(), &keys), observe(&fresh, &keys));
    }

    #[test]
    fn forks_never_observe_each_other() {
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
        // a answers as an unshared trie with its history would, and the base
        // (and b on top of it) keeps every archival node.
        let mut fresh = MerklePatriciaTrie::new();
        for i in 0..200 {
            fresh.insert(&key16(i), &Value::filler(30));
        }
        for i in 0..200 {
            fresh.insert(&key16(i), &Value::filler(50));
        }
        fresh.insert(&key16(205), &Value::filler(9));
        assert_eq!(observe(&a, &keys), observe(&fresh, &keys));
        assert_eq!(observe(&base, &keys), untouched);
        assert_eq!(b.get(&key16(2)).unwrap().len(), 30);
        assert!(b.stored_node_count() > base.stored_node_count());
    }

    #[test]
    fn an_unchanged_write_on_a_fork_keeps_its_nodes_and_its_stats() {
        let mut base = MerklePatriciaTrie::new();
        for i in 0..300 {
            base.insert(&key16(i), &Value::filler(40));
        }
        base.freeze();
        let keys: Vec<u64> = (0..300).collect();
        let loaded = observe(&base, &keys);
        let (mut same, mut changed) = (base.clone(), base.clone());
        // Equal bytes in a fresh buffer, then a write of other bytes of the
        // same length to the same key.
        let unchanged_stats = same.insert(&key16(42), &Value::filler(40));
        let changed_stats = changed.insert(&key16(42), &Value::new([b'y'; 40]));
        assert_eq!(observe(&same, &keys), loaded);
        assert_eq!(unchanged_stats, changed_stats);
        assert!(unchanged_stats.nodes_touched >= 2, "{unchanged_stats:?}");
        assert!(changed.stored_node_count() > same.stored_node_count());
    }

    /// An unchanged write returns the ids it walked without interning
    /// anything. With the intern table emptied, any node the write rebuilt
    /// would be stored a second time, so the node count shows it.
    #[test]
    fn an_unchanged_write_never_reaches_the_intern_table() {
        let mut t = MerklePatriciaTrie::new();
        // A root branch without a value over slots 1, 2 and 3; slot 3 holds
        // an extension over a second branch.
        for key in [&[0x10][..], &[0x20], &[0x30, 0x01], &[0x30, 0x02]] {
            t.insert(&Key::new(key), &Value::new(key));
        }
        let unchanged = |t: &mut MerklePatriciaTrie, key: &[u8], value: &[u8]| {
            t.store.index.clear();
            let (count, root) = (t.stored_node_count(), t.root_hash());
            t.insert(&Key::new(key), &Value::new(value));
            assert_eq!(t.stored_node_count(), count, "{key:?} <- {value:?}");
            assert_eq!(t.root_hash(), root, "{key:?} <- {value:?}");
        };
        // Leaves under the root branch and under the extension.
        unchanged(&mut t, &[0x10], &[0x10]);
        unchanged(&mut t, &[0x30, 0x02], &[0x30, 0x02]);
        // An empty value on the value-less root branch encodes like none.
        unchanged(&mut t, &[], &[]);
        // A branch value rewritten with its own bytes.
        t.insert(&Key::new([]), &Value::new(b"v"));
        unchanged(&mut t, &[], b"v");
    }

    /// Interning's exact match is encoding equality (children by id, read
    /// through an injective id → digest map), and equal encodings always
    /// share an intern key. Seeded histories rarely meet an intern-key
    /// collision, so the comparison is checked here directly, values that
    /// differ only past the sampled bytes included.
    #[test]
    fn same_encoding_is_encoding_equality() {
        // 40 bytes each, equal in their first and last eight.
        let middle = |fill: u8| [&[7; 8][..], &[fill; 24], &[9; 8]].concat();
        let (middle_a, middle_b) = (middle(1), middle(2));
        let leaf = |path: &[u8], value: &[u8]| Node::leaf(path, &Value::new(value));
        let branch = |slots: &[(u8, NodeId)], value: Option<&[u8]>| {
            let mut children = Children::default();
            for &(slot, child) in slots {
                children.set(slot, child);
            }
            Node::Branch {
                children,
                value: value.map(Value::new),
            }
        };
        let nodes = [
            leaf(&[1, 2], b"ab"),
            leaf(&[1, 2], b"ab"),
            leaf(&[1, 2], b"ba"),
            leaf(&[1, 2], b""),
            leaf(&[1, 2, 0], b"ab"),
            leaf(&[5; 300], b"ab"),
            Node::Extension {
                path: Path::new([1]),
                child: 7,
            },
            Node::Extension {
                path: Path::new([1]),
                child: 8,
            },
            Node::Extension {
                path: Path::new([1, 2]),
                child: 7,
            },
            branch(&[(3, 7)], None),
            branch(&[(3, 7)], Some(b"")),
            branch(&[(3, 7)], Some(b"v")),
            branch(&[(3, 8)], None),
            branch(&[(3, 7), (4, 7)], None),
            leaf(&[1, 2], &middle_a),
            leaf(&[1, 2], &middle_b),
            branch(&[(3, 7)], Some(&middle_a)),
            branch(&[(3, 7)], Some(&middle_b)),
        ];
        let encode = |node: &Node| {
            let mut out = Vec::new();
            node.encode_into(&mut out, |id| Hash::of(&id.to_be_bytes()));
            out
        };
        for a in &nodes {
            assert_eq!(a.encoded_len(), encode(a).len(), "{a:?}");
            for b in &nodes {
                assert_eq!(a.same_encoding(b), encode(a) == encode(b), "{a:?} / {b:?}");
                if a.same_encoding(b) {
                    assert_eq!(a.intern_key(), b.intern_key(), "{a:?} / {b:?}");
                }
            }
        }
        // The sampled key cannot tell the middles apart; the exact match can.
        for pair in nodes[nodes.len() - 4..].chunks(2) {
            assert_eq!(pair[0].intern_key(), pair[1].intern_key());
            assert!(!pair[0].same_encoding(&pair[1]));
        }
        // So one path overwritten with the other value stores both leaves.
        let mut t = MerklePatriciaTrie::new();
        let key = Key::from_str("k");
        t.insert(&key, &Value::new(&middle_a));
        t.insert(&key, &Value::new(&middle_b));
        let leaves = (0..t.stored_node_count())
            .filter(|&id| matches!(t.node(id as NodeId), Node::Leaf { .. }))
            .count();
        assert_eq!(leaves, 2);
        assert_eq!(t.get(&key), Some(Value::new(&middle_b)));
    }

    #[test]
    fn keys_of_128_bytes_or_more_insert_and_read() {
        let mut t = MerklePatriciaTrie::new();
        // Shared prefixes put long paths on extensions as well as leaves.
        let long = |len: usize, tail: u8| {
            let mut bytes = vec![0xa5; len];
            bytes[len - 1] = tail;
            Key::new(bytes)
        };
        let keys = [
            long(127, 1),
            long(128, 2),
            long(130, 3),
            long(130, 4),
            long(200, 5),
        ];
        for (i, key) in keys.iter().enumerate() {
            t.insert(key, &Value::filler(10 + i));
        }
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(t.get(key).map(|v| v.len()), Some(10 + i));
        }
        // A 256-nibble leaf's path length no longer wraps to zero, so it
        // cannot share an encoding with the empty-path leaf holding its
        // path and value as one value.
        let key = Key::new([0x11; 128]);
        let mut single = MerklePatriciaTrie::new();
        single.insert(&key, &Value::new(b"v"));
        let mut alias = MerklePatriciaTrie::new();
        let smuggled = [Nibbles::of(key.as_bytes()).as_slice(), b"v"].concat();
        alias.insert(&Key::new([]), &Value::new(smuggled));
        assert_ne!(single.root_hash(), alias.root_hash());
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
    }
}
