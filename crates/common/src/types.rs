//! Core scalar identifiers and the key/value vocabulary shared by every
//! substrate and system model in the workspace.

use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use crate::codec;
use crate::codec::Encode;

/// A logical node (replica/peer/orderer/server) in a simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u64);
codec!(Encode for struct NodeId(id));

impl NodeId {
    /// Convenience constructor used throughout tests and benches.
    pub const fn new(id: u64) -> Self {
        NodeId(id)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node-{}", self.0)
    }
}

/// A client issuing transactions against one of the systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClientId(pub u64);
codec!(Encode for struct ClientId(id));

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "client-{}", self.0)
    }
}

/// A shard (data partition) identifier used by the sharding substrate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardId(pub u32);
codec!(Encode for struct ShardId(id));

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard-{}", self.0)
    }
}

/// Globally unique transaction identifier (client id, client sequence).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId {
    /// Which client issued the transaction.
    pub client: ClientId,
    /// Per-client monotonically increasing sequence number.
    pub seq: u64,
}
codec!(Encode for struct TxnId { client, seq });

impl TxnId {
    /// Build a transaction id from a client and its sequence counter.
    pub const fn new(client: ClientId, seq: u64) -> Self {
        TxnId { client, seq }
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn-{}.{}", self.client.0, self.seq)
    }
}

/// Simulated time, in microseconds since the start of the run.
///
/// Microsecond granularity is enough to capture every constant the paper
/// reports (the smallest is the 15–16 µs SQL-compile / storage-get latencies
/// of Figure 8b) while keeping arithmetic in `u64`.
pub type Timestamp = u64;

/// A version number attached to a record by MVCC-style storage. In Fabric
/// this is the (block, txn) height of the last write; in TiDB it is the
/// commit timestamp; we use a single monotonically increasing counter.
pub type Version = u64;

/// Longest key stored inline; one byte more would grow [`Key`] past 24 bytes.
const INLINE_KEY_BYTES: usize = 22;

/// Record key. Keys are opaque byte strings; YCSB-style workloads use
/// `user<zero-padded-number>` keys, Smallbank uses `acct:<n>:<field>`.
///
/// Cloning never allocates or copies a heap payload: keys of up to 22 bytes
/// (every generated key) live inline in the 24-byte handle, longer ones share
/// one immutable buffer. Equality, ordering and hashing are those of the byte
/// string, whichever representation holds it.
#[derive(Clone)]
pub struct Key(KeyRepr);

#[derive(Clone)]
enum KeyRepr {
    /// `bytes[len..]` is always zero, which makes (`bytes`, `len`) order
    /// exactly as the byte strings do: two inline keys compare as fixed-size
    /// arrays, with no length-dependent loop.
    Inline {
        len: u8,
        bytes: [u8; INLINE_KEY_BYTES],
    },
    Shared(Arc<[u8]>),
}

impl Key {
    /// Construct a key from anything byte-like.
    pub fn new(bytes: impl AsRef<[u8]>) -> Self {
        let bytes = bytes.as_ref();
        Key(if bytes.len() <= INLINE_KEY_BYTES {
            let mut inline = [0u8; INLINE_KEY_BYTES];
            inline[..bytes.len()].copy_from_slice(bytes);
            KeyRepr::Inline {
                len: bytes.len() as u8,
                bytes: inline,
            }
        } else {
            KeyRepr::Shared(bytes.into())
        })
    }

    /// Construct a key from a UTF-8 string slice. Unlike `FromStr` this is
    /// infallible, hence the inherent method.
    #[expect(
        clippy::should_implement_trait,
        reason = "infallible, so `FromStr` and its `Result` would only add an unwrap"
    )]
    pub fn from_str(s: &str) -> Self {
        Key::new(s)
    }

    /// View the key as a byte slice.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            KeyRepr::Inline { len, bytes } => &bytes[..*len as usize],
            KeyRepr::Shared(bytes) => bytes,
        }
    }

    /// Length of the key in bytes.
    pub fn len(&self) -> usize {
        match &self.0 {
            KeyRepr::Inline { len, .. } => *len as usize,
            KeyRepr::Shared(bytes) => bytes.len(),
        }
    }

    /// Whether the key is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        match (&self.0, &other.0) {
            (KeyRepr::Inline { len, bytes }, KeyRepr::Inline { len: l, bytes: b }) => {
                inline_words(*len, bytes).cmp(&inline_words(*l, b))
            }
            _ => self.as_bytes().cmp(other.as_bytes()),
        }
    }
}

/// An inline key as three big-endian words — its zero-padded bytes, then its
/// length — which order as the byte strings do: a shorter key that is a prefix
/// reads zeros where the longer one has bytes (less, or equal and then the
/// length decides).
fn inline_words(len: u8, bytes: &[u8; INLINE_KEY_BYTES]) -> [u64; 3] {
    let word = |at: usize| u64::from_be_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    let mut tail = [0u8; 8];
    tail[..6].copy_from_slice(&bytes[16..]);
    tail[7] = len;
    [word(0), word(8), u64::from_be_bytes(tail)]
}

impl std::hash::Hash for Key {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

/// A table from [`Key`] that serves point lookups and inserts only.
///
/// Nothing may iterate one into output unsorted: a caller that needs order
/// sorts the entries (or merges them through a `BTreeMap`), and any other
/// walk must be an order-free sum such as a footprint or a count.
#[expect(
    clippy::disallowed_types,
    reason = "point lookups on the transaction path; a seedless hasher, and never iterated into output unsorted"
)]
pub type KeyMap<V> = std::collections::HashMap<Key, V, BuildHasherDefault<KeyHasher>>;

/// The [`KeyMap`] hasher: one multiply-rotate step per 8-byte word of the
/// length-prefixed byte string [`Key`]'s `Hash` writes, then a full-avalanche
/// finaliser. The table indexes buckets by the low bits and filters probes
/// by the top seven, so both must depend on every key byte; a finaliser that
/// only rotated would leave the tag bits of `user…` keys nearly constant and
/// turn every probe into a key comparison. Seedless: keys are the program's
/// own, never outside input.
#[derive(Default)]
pub struct KeyHasher(u64);

impl KeyHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(23) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.mix(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            // Zero padding cannot collide: the length was written first.
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.mix(u64::from_le_bytes(last));
        }
    }

    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }

    /// MurmurHash3's 64-bit finaliser: every output bit depends on every
    /// input bit.
    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        h ^ (h >> 33)
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Key").field(&self.as_bytes()).finish()
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_bytes_as_ascii(self.as_bytes(), f)
    }
}

/// Record value: an opaque byte payload whose size is one of the paper's
/// experiment knobs (Table 3: 10–5000 bytes).
///
/// The payload is one shared immutable buffer: `clone()` bumps a reference
/// count, so a value travels from the generator through every store to the
/// receipt without being copied.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Value(Arc<[u8]>);

impl Value {
    /// Construct a value from anything byte-like.
    pub fn new(bytes: impl AsRef<[u8]>) -> Self {
        Value(bytes.as_ref().into())
    }

    /// A value consisting of `len` filler bytes, used by the workload
    /// generators when only the size matters.
    pub fn filler(len: usize) -> Self {
        Value(std::iter::repeat(b'x').take(len).collect())
    }

    /// View the value as a byte slice.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Length of the value in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the value is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_bytes_as_ascii(&self.0, f)
    }
}

// Hand-written: the wire form is the byte string, not the inline-or-shared
// representation holding it.
impl Encode for Key {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.as_bytes().encode_into(out);
    }
    fn encoded_len(&self) -> usize {
        4 + self.len()
    }
}

// Hand-written: the wire form is the byte string behind the `Arc`.
impl Encode for Value {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.0.encode_into(out);
    }
    fn encoded_len(&self) -> usize {
        4 + self.len()
    }
}

/// Shared `Display` body for byte-string wrappers: print as ASCII when
/// possible, otherwise as a hex prefix.
fn fmt_bytes_as_ascii(bytes: &[u8], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if let Ok(s) = std::str::from_utf8(bytes) {
        if s.len() <= 48 {
            return write!(f, "{s}");
        }
        return write!(f, "{}…({}B)", &s[..45], bytes.len());
    }
    for b in bytes.iter().take(16) {
        write!(f, "{b:02x}")?;
    }
    if bytes.len() > 16 {
        write!(f, "…({}B)", bytes.len())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display_and_accessors() {
        let n = NodeId::new(7);
        assert_eq!(n.to_string(), "node-7");
    }

    #[test]
    fn txn_id_ordering_is_client_then_seq() {
        let a = TxnId::new(ClientId(1), 5);
        let b = TxnId::new(ClientId(1), 6);
        let c = TxnId::new(ClientId(2), 0);
        assert!(a < b);
        assert!(b < c);
        assert_eq!(a.to_string(), "txn-1.5");
    }

    #[test]
    fn key_constructors_agree() {
        assert_eq!(Key::from_str("user42"), Key::new(b"user42"));
        assert_eq!(Key::from_str("user42").len(), 6);
        assert!(!Key::from_str("user42").is_empty());
        assert!(Key::new(Vec::new()).is_empty());
    }

    /// The hash under SipHash with its fixed (zero) key.
    fn sip<T: std::hash::Hash + ?Sized>(value: &T) -> u64 {
        use std::hash::Hasher;
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        value.hash(&mut hasher);
        hasher.finish()
    }

    /// Byte strings on both sides of the inline/shared boundary: every length
    /// of interest, plus equal, prefix-of (also by a zero byte, which inline
    /// padding must not confuse) and differ-in-last-byte neighbours.
    fn contract_strings() -> Vec<Vec<u8>> {
        let mut strings: Vec<Vec<u8>> = [0usize, 1, 15, 16, 22, 23, 24, 64, 1_000]
            .iter()
            .map(|&len| (0..len).map(|i| b'a' + (i % 26) as u8).collect())
            .collect();
        for len in [21usize, 22, 23] {
            let base: Vec<u8> = (0..len).map(|i| b'a' + (i % 26) as u8).collect();
            let mut last_differs = base.clone();
            *last_differs.last_mut().unwrap() ^= 1;
            let mut zero_extended = base.clone();
            zero_extended.push(0);
            strings.extend([base.clone(), base, last_differs, zero_extended]);
        }
        strings.extend([vec![0], vec![0, 0], vec![0xff; 22], vec![0xff; 23]]);
        strings
    }

    #[test]
    fn key_behaves_as_the_byte_string_it_was_built_from() {
        assert!(std::mem::size_of::<Key>() <= 24);
        let strings = contract_strings();
        for a in &strings {
            let key = Key::new(a);
            assert_eq!(key.as_bytes(), a.as_slice());
            assert_eq!((key.len(), key.is_empty()), (a.len(), a.is_empty()));
            assert_eq!(key.clone().as_bytes(), a.as_slice());
            assert_eq!(sip(&key), sip(a), "hash of {a:?}");
            assert_eq!(key.encode(), a.encode());
            assert_eq!(key.encoded_len(), a.encoded_len());
            assert_eq!(format!("{key:?}"), format!("Key({a:?})"));
            for b in &strings {
                let other = Key::new(b);
                assert_eq!(key.cmp(&other), a.cmp(b), "{a:?} vs {b:?}");
                assert_eq!(key.partial_cmp(&other), a.partial_cmp(b));
                assert_eq!(key == other, a == b, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn key_display_is_that_of_its_bytes_on_either_side_of_the_boundary() {
        let ascii =
            |len: usize| -> String { (0..len).map(|i| (b'a' + (i % 26) as u8) as char).collect() };
        for len in [0, 1, 16, 22, 23, 48] {
            assert_eq!(Key::from_str(&ascii(len)).to_string(), ascii(len));
        }
        assert_eq!(
            Key::from_str(&ascii(64)).to_string(),
            format!("{}…(64B)", ascii(45))
        );
        assert_eq!(Key::new([0xff, 0x00, 0x12]).to_string(), "ff0012");
        assert_eq!(
            Key::new([0xffu8; 23]).to_string(),
            format!("{}…(23B)", "ff".repeat(16))
        );
    }

    #[test]
    fn a_value_clone_is_the_same_buffer_and_encodes_as_its_bytes() {
        for bytes in contract_strings() {
            let value = Value::new(&bytes);
            let clone = value.clone();
            assert!(std::ptr::eq(value.as_bytes(), clone.as_bytes()));
            assert_eq!(clone, value);
            assert_eq!(value.as_bytes(), bytes.as_slice());
            assert_eq!(value.encode(), bytes.encode());
            assert_eq!(value.encoded_len(), bytes.encoded_len());
            assert_eq!(sip(&value), sip(&bytes));
            assert_eq!(format!("{value:?}"), format!("Value({bytes:?})"));
        }
        assert_eq!(Value::filler(1_000), Value::new(vec![b'x'; 1_000]));
    }

    #[test]
    fn value_filler_has_requested_size() {
        let v = Value::filler(1000);
        assert_eq!(v.len(), 1000);
        assert!(v.as_bytes().iter().all(|&b| b == b'x'));
    }

    #[test]
    fn display_truncates_long_ascii() {
        let v = Value::filler(100);
        let s = v.to_string();
        assert!(s.contains("…(100B)"));
    }

    #[test]
    fn display_hexes_non_utf8() {
        let v = Value::new(vec![0xff, 0x00, 0x12]);
        assert_eq!(v.to_string(), "ff0012");
    }
}
