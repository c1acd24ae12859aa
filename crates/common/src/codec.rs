//! A minimal in-repo wire encoding.
//!
//! The seed of this reproduction derived `serde::{Serialize, Deserialize}` on
//! the shared data types, but nothing ever serialized through serde — the
//! derives existed only to mark "this type crosses a wire or sits on disk".
//! Because the workspace builds offline with no crates.io dependencies, that
//! role is filled by this hand-rolled [`Encode`] trait instead: a canonical,
//! deterministic byte encoding (big-endian fixed-width scalars, u32
//! length-prefixed byte strings, one tag byte per enum variant) whose primary
//! consumers are the byte-level storage accounting in [`crate::size`], the
//! canonical probe-content hashes of the measurement layer, and — through the
//! mirroring [`Decode`] trait — the persistent probe-result cache.
//!
//! A type whose wire form is its field list states that list once, in a
//! [`codec!`](crate::codec!) declaration next to the type; the impls are
//! generated. Only a type whose bytes are *not* its field list (a raw digest,
//! a byte string, a derived field) writes `impl Encode` by hand.

use std::collections::{BTreeMap, BTreeSet};

/// Types with a canonical byte encoding.
///
/// The encoding is deterministic — equal values encode to equal bytes — so
/// `encoded_len` is usable for storage and bandwidth accounting, and encoded
/// forms are usable as hashing inputs.
pub trait Encode {
    /// Append the canonical encoding of `self` to `out`.
    fn encode_into(&self, out: &mut Vec<u8>);

    /// Size of the canonical encoding in bytes.
    fn encoded_len(&self) -> usize {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf.len()
    }

    /// The canonical encoding as an owned buffer.
    fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }
}

macro_rules! impl_encode_scalar {
    ($($t:ty),*) => {$(
        impl Encode for $t {
            fn encode_into(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_be_bytes());
            }
            fn encoded_len(&self) -> usize {
                std::mem::size_of::<$t>()
            }
        }
    )*};
}
impl_encode_scalar!(u8, u16, u32, u64);

/// Counts and sizes travel as `u64`, so the bytes do not depend on the
/// architecture's pointer width.
impl Encode for usize {
    fn encode_into(&self, out: &mut Vec<u8>) {
        (*self as u64).encode_into(out);
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

impl Encode for f64 {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_be_bytes());
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

impl Encode for bool {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

/// Byte strings are u32 length-prefixed (4 GiB is far beyond any record the
/// experiments produce).
impl Encode for [u8] {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u32).to_be_bytes());
        out.extend_from_slice(self);
    }
    fn encoded_len(&self) -> usize {
        4 + self.len()
    }
}

impl Encode for &str {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.as_bytes().encode_into(out);
    }
    fn encoded_len(&self) -> usize {
        4 + self.len()
    }
}

/// `None` is a single 0 tag byte; `Some(v)` is a 1 tag byte plus `v`.
impl<T: Encode> Encode for Option<T> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode_into(out);
            }
        }
    }
    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Encode::encoded_len)
    }
}

/// Sequences of encodable values are u32 count-prefixed.
impl<T: Encode> Encode for Vec<T> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u32).to_be_bytes());
        for item in self {
            item.encode_into(out);
        }
    }
    fn encoded_len(&self) -> usize {
        4 + self.iter().map(Encode::encoded_len).sum::<usize>()
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.0.encode_into(out);
        self.1.encode_into(out);
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len()
    }
}

impl Encode for String {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.as_str().encode_into(out);
    }
    fn encoded_len(&self) -> usize {
        4 + self.len()
    }
}

/// Ordered maps are u32 count-prefixed `(key, value)` pairs in key order.
impl<K: Encode, V: Encode> Encode for BTreeMap<K, V> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u32).to_be_bytes());
        for (key, value) in self {
            key.encode_into(out);
            value.encode_into(out);
        }
    }
    fn encoded_len(&self) -> usize {
        4 + self
            .iter()
            .map(|(k, v)| k.encoded_len() + v.encoded_len())
            .sum::<usize>()
    }
}

/// Ordered sets are u32 count-prefixed, in element order.
impl<T: Encode> Encode for BTreeSet<T> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u32).to_be_bytes());
        for item in self {
            item.encode_into(out);
        }
    }
    fn encoded_len(&self) -> usize {
        4 + self.iter().map(Encode::encoded_len).sum::<usize>()
    }
}

/// Types that can be reconstructed from their canonical [`Encode`] bytes.
///
/// `decode_from` consumes the value's encoding off the front of `input`
/// (advancing the slice) and returns `None` on truncated or malformed
/// input — a decoder never panics and never trusts lengths it has not
/// bounds-checked, so corrupted cache entries degrade to a miss rather than
/// an abort.
pub trait Decode: Sized {
    /// Decode one value off the front of `input`, advancing it.
    fn decode_from(input: &mut &[u8]) -> Option<Self>;

    /// Append a description of the layout `decode_from` reads: type names,
    /// field names and tags, nested types spelled out in full. Stored bytes
    /// are valid for a reader exactly while this string is unchanged, so
    /// the persistent probe cache names its directory after a hash of it.
    fn schema(out: &mut String);

    /// Decode a value that must consume `bytes` exactly.
    fn decode(bytes: &[u8]) -> Option<Self> {
        let mut input = bytes;
        let value = Self::decode_from(&mut input)?;
        input.is_empty().then_some(value)
    }
}

fn take<'a>(input: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if input.len() < n {
        return None;
    }
    let (head, tail) = input.split_at(n);
    *input = tail;
    Some(head)
}

macro_rules! impl_decode_scalar {
    ($($t:ty),*) => {$(
        impl Decode for $t {
            fn decode_from(input: &mut &[u8]) -> Option<Self> {
                let bytes = take(input, std::mem::size_of::<$t>())?;
                Some(<$t>::from_be_bytes(bytes.try_into().ok()?))
            }
            fn schema(out: &mut String) {
                out.push_str(stringify!($t));
            }
        }
    )*};
}
impl_decode_scalar!(u8, u16, u32, u64);

impl Decode for f64 {
    fn decode_from(input: &mut &[u8]) -> Option<Self> {
        Some(f64::from_bits(u64::decode_from(input)?))
    }
    fn schema(out: &mut String) {
        out.push_str("f64");
    }
}

impl Decode for bool {
    fn decode_from(input: &mut &[u8]) -> Option<Self> {
        match u8::decode_from(input)? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
    fn schema(out: &mut String) {
        out.push_str("bool");
    }
}

/// A u32 length-prefixed UTF-8 string, borrowed from the input.
fn take_str<'a>(input: &mut &'a [u8]) -> Option<&'a str> {
    let len = u32::decode_from(input)? as usize;
    std::str::from_utf8(take(input, len)?).ok()
}

impl Decode for String {
    fn decode_from(input: &mut &[u8]) -> Option<Self> {
        take_str(input).map(str::to_owned)
    }
    fn schema(out: &mut String) {
        out.push_str("str");
    }
}

/// Fixed-vocabulary names (phases, oracle labels) are `&'static str`
/// literals on the encode side; decoding [`intern`]s them back.
impl Decode for &'static str {
    fn decode_from(input: &mut &[u8]) -> Option<Self> {
        take_str(input).map(intern)
    }
    fn schema(out: &mut String) {
        out.push_str("str");
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode_from(input: &mut &[u8]) -> Option<Self> {
        match u8::decode_from(input)? {
            0 => Some(None),
            1 => Some(Some(T::decode_from(input)?)),
            _ => None,
        }
    }
    fn schema(out: &mut String) {
        out.push_str("Option<");
        T::schema(out);
        out.push('>');
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode_from(input: &mut &[u8]) -> Option<Self> {
        let count = u32::decode_from(input)? as usize;
        // Guard the pre-allocation against hostile counts: every element is
        // at least one byte of input, so a count beyond the remaining input
        // is malformed by construction.
        if count > input.len() {
            return None;
        }
        let mut items = Vec::with_capacity(count);
        for _ in 0..count {
            items.push(T::decode_from(input)?);
        }
        Some(items)
    }
    fn schema(out: &mut String) {
        out.push('[');
        T::schema(out);
        out.push(']');
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode_from(input: &mut &[u8]) -> Option<Self> {
        Some((A::decode_from(input)?, B::decode_from(input)?))
    }
    fn schema(out: &mut String) {
        out.push('(');
        A::schema(out);
        out.push(',');
        B::schema(out);
        out.push(')');
    }
}

/// Keys must arrive strictly ascending, as the encoder writes them: bytes
/// with a duplicate or out-of-order key are not the encoding of any map.
impl<K: Decode + Ord, V: Decode> Decode for BTreeMap<K, V> {
    fn decode_from(input: &mut &[u8]) -> Option<Self> {
        let count = u32::decode_from(input)?;
        let mut map = BTreeMap::new();
        for _ in 0..count {
            let (key, value) = <(K, V)>::decode_from(input)?;
            if map.last_key_value().is_some_and(|(last, _)| *last >= key) {
                return None;
            }
            map.insert(key, value);
        }
        Some(map)
    }
    fn schema(out: &mut String) {
        out.push('{');
        K::schema(out);
        out.push(':');
        V::schema(out);
        out.push('}');
    }
}

/// [`codec!`](crate::codec!)'s stand-in for a field while a layout is being
/// described: appends `T`'s schema, where `T` is whatever the caller later
/// moves the (always absent) value into.
pub fn describe<T: Decode>(out: &mut String) -> Option<T> {
    T::schema(out);
    None
}

/// Declare a type's wire form as its field list, once.
///
/// `codec!(Encode for …)` generates [`Encode`] (`encode_into` plus an
/// `encoded_len` that is the sum of the fields' — never the
/// allocate-and-measure default); `codec!(Encode + Decode for …)` also
/// generates [`Decode`], whose [`schema`](Decode::schema) spells the
/// declaration out. Fields travel in the order listed; an enum variant
/// travels as its tag byte, then its fields.
///
/// ```
/// use dichotomy_common::{codec, Decode, Encode};
///
/// #[derive(Debug, PartialEq)]
/// struct Lease { holder: u64, ttl_us: Option<u64> }
/// codec!(Encode + Decode for struct Lease { holder, ttl_us });
///
/// #[derive(Debug, PartialEq)]
/// enum Event { Tick, Grant { lease: Lease }, Revoke(u64) }
/// codec!(Encode + Decode for enum Event { Tick = 0, Grant { lease } = 1, Revoke(holder) = 4 });
///
/// let grant = Event::Grant { lease: Lease { holder: 7, ttl_us: None } };
/// assert_eq!(grant.encode(), [1, 0, 0, 0, 0, 0, 0, 0, 7, 0]);
/// assert_eq!(grant.encoded_len(), 10);
/// assert_eq!(Event::decode(&grant.encode()), Some(grant));
/// assert_eq!(Event::decode(&[2]), None);
/// let mut schema = String::new();
/// Event::schema(&mut schema);
/// assert_eq!(
///     schema,
///     "Event<Tick=0{},Grant=1{lease:Lease{holder:u64,ttl_us:Option<u64>,},},Revoke=4{holder:u64,},>"
/// );
/// ```
///
/// A tuple struct lists a name per position (`struct ShardId(id)`), as a
/// tuple variant does.
///
/// The declaration cannot drift from the type. Encoding destructures the
/// value without `..` and decoding builds it with a plain literal, so a
/// field missing from the list does not compile:
///
/// ```compile_fail
/// struct Lease { holder: u64, ttl_us: Option<u64> }
/// dichotomy_common::codec!(Encode for struct Lease { holder });
/// ```
///
/// nor does a missing variant:
///
/// ```compile_fail
/// enum Event { Tick, Revoke(u64) }
/// dichotomy_common::codec!(Encode for enum Event { Tick = 0 });
/// ```
///
/// nor `Decode` for a field that cannot be decoded:
///
/// ```compile_fail
/// struct Lease { holder: dichotomy_common::Key }
/// dichotomy_common::codec!(Encode + Decode for struct Lease { holder });
/// ```
#[macro_export]
macro_rules! codec {
    (Encode + Decode for $($decl:tt)+) => {
        $crate::codec!(Encode for $($decl)+);
        $crate::codec!(Decode for $($decl)+);
    };

    // The three surface forms, each reduced to `[constructor pattern] fields…`.
    ($trait:ident for struct $name:ident { $($field:ident),* $(,)? }) => {
        $crate::codec!(@$trait struct $name [Self { $($field),* }] $($field)*);
    };
    ($trait:ident for struct $name:ident ( $($field:ident),* $(,)? )) => {
        $crate::codec!(@$trait struct $name [Self ( $($field),* )] $($field)*);
    };
    ($trait:ident for enum $name:ident { $(
        $variant:ident $({ $($named:ident),* $(,)? })? $(( $($positional:ident),* $(,)? ))? = $tag:literal
    ),* $(,)? }) => {
        $crate::codec!(@$trait enum $name $(
            $variant = $tag
            [Self::$variant $({ $($named),* })? $(( $($positional),* ))?]
            [$($($named)*)? $($($positional)*)?]
        )*);
    };

    (@Encode struct $name:ident [$($shape:tt)*] $($field:ident)*) => {
        impl $crate::codec::Encode for $name {
            fn encode_into(&self, out: &mut Vec<u8>) {
                let $($shape)* = self;
                $( $crate::codec::Encode::encode_into($field, out); )*
            }
            fn encoded_len(&self) -> usize {
                let $($shape)* = self;
                0 $( + $crate::codec::Encode::encoded_len($field) )*
            }
        }
    };
    (@Encode enum $name:ident $(
        $variant:ident = $tag:literal [$($shape:tt)*] [$($field:ident)*]
    )*) => {
        impl $crate::codec::Encode for $name {
            fn encode_into(&self, out: &mut Vec<u8>) {
                match self {
                    $( $($shape)* => {
                        out.push($tag);
                        $( $crate::codec::Encode::encode_into($field, out); )*
                    } )*
                }
            }
            fn encoded_len(&self) -> usize {
                match self {
                    $( $($shape)* => 1 $( + $crate::codec::Encode::encoded_len($field) )*, )*
                }
            }
        }
    };

    (@Decode struct $name:ident [$($shape:tt)*] $($field:ident)*) => {
        impl $crate::codec::Decode for $name {
            fn decode_from(input: &mut &[u8]) -> Option<Self> {
                $( let $field = $crate::codec::Decode::decode_from(input)?; )*
                Some($($shape)*)
            }
            fn schema(out: &mut String) {
                out.push_str(concat!(stringify!($name), "{"));
                $crate::codec!(@describe out [$($shape)*] $($field)*);
                out.push('}');
            }
        }
    };
    (@Decode enum $name:ident $(
        $variant:ident = $tag:literal [$($shape:tt)*] [$($field:ident)*]
    )*) => {
        impl $crate::codec::Decode for $name {
            fn decode_from(input: &mut &[u8]) -> Option<Self> {
                Some(match <u8 as $crate::codec::Decode>::decode_from(input)? {
                    $( $tag => {
                        $( let $field = $crate::codec::Decode::decode_from(input)?; )*
                        $($shape)*
                    } )*
                    _ => return None,
                })
            }
            fn schema(out: &mut String) {
                out.push_str(concat!(stringify!($name), "<"));
                $(
                    out.push_str(concat!(stringify!($variant), "=", stringify!($tag), "{"));
                    $crate::codec!(@describe out [$($shape)*] $($field)*);
                    out.push_str("},");
                )*
                out.push('>');
            }
        }
    };
    // `name:layout,` per field. The closure never runs: moving each
    // stand-in into its field is what tells `describe` the field's type.
    (@describe $out:ident [$($shape:tt)*] $($field:ident)*) => {{
        $(
            $out.push_str(concat!(stringify!($field), ":"));
            let $field = $crate::codec::describe($out);
            $out.push(',');
        )*
        let _ = || Some({ $( let $field = $field?; )* $($shape)* });
    }};
}

/// Intern a string, returning a `&'static str` with the same content.
///
/// Several metric types key maps by `&'static str` (phase names, oracle
/// labels, probe extras) — a small fixed vocabulary the models declare as
/// literals. Decoding those types from cached bytes needs a `'static`
/// lifetime back, so novel strings are leaked exactly once into a global
/// table and every later request returns the same allocation. Leakage is
/// bounded by the vocabulary actually decoded, not by the number of decode
/// calls.
pub fn intern(s: &str) -> &'static str {
    use std::collections::BTreeSet;
    use std::sync::{Mutex, OnceLock};
    static TABLE: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    let mut table = TABLE
        .get_or_init(|| Mutex::new(BTreeSet::new()))
        .lock()
        .expect("intern table poisoned");
    if let Some(existing) = table.get(s) {
        return existing;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    table.insert(leaked);
    leaked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_are_fixed_width_big_endian() {
        assert_eq!(0x0102u16.encode(), vec![1, 2]);
        assert_eq!(1u64.encode(), vec![0, 0, 0, 0, 0, 0, 0, 1]);
        assert_eq!(1u64.encoded_len(), 8);
        assert_eq!(true.encode(), vec![1]);
        assert_eq!(1.5f64.encode(), 1.5f64.to_bits().to_be_bytes().to_vec());
    }

    #[test]
    fn byte_strings_are_length_prefixed() {
        let v: Vec<u8> = b"abc".to_vec();
        assert_eq!(v.encode(), vec![0, 0, 0, 3, b'a', b'b', b'c']);
        assert_eq!(v.encoded_len(), 7);
        assert_eq!("xy".encode(), vec![0, 0, 0, 2, b'x', b'y']);
    }

    #[test]
    fn options_carry_a_tag_byte() {
        assert_eq!(Option::<u8>::None.encode(), vec![0]);
        assert_eq!(Some(7u8).encode(), vec![1, 7]);
        assert_eq!(Some(7u8).encoded_len(), 2);
    }

    #[test]
    fn sequences_are_count_prefixed() {
        let v = vec![1u16, 2, 3];
        assert_eq!(v.encode(), vec![0, 0, 0, 3, 0, 1, 0, 2, 0, 3]);
        assert_eq!(v.encoded_len(), v.encode().len());
    }

    #[test]
    fn encoded_len_matches_encode_for_composites() {
        let pair = (42u64, Some(b"payload".to_vec()));
        assert_eq!(pair.encoded_len(), pair.encode().len());
    }

    #[test]
    fn distinct_values_encode_distinctly() {
        // Length prefixes keep (["ab"], ["c"]) apart from (["a"], ["bc"]).
        let a = (b"ab".to_vec(), b"c".to_vec()).encode();
        let b = (b"a".to_vec(), b"bc".to_vec()).encode();
        assert_ne!(a, b);
    }

    #[test]
    fn decode_round_trips_every_base_type() {
        assert_eq!(u8::decode(&7u8.encode()), Some(7));
        assert_eq!(u16::decode(&0x0102u16.encode()), Some(0x0102));
        assert_eq!(u32::decode(&9u32.encode()), Some(9));
        assert_eq!(u64::decode(&u64::MAX.encode()), Some(u64::MAX));
        assert_eq!(bool::decode(&true.encode()), Some(true));
        assert_eq!(f64::decode(&1.5f64.encode()), Some(1.5));
        // NaN round-trips bit-exactly (cache hits must be byte-identical).
        let nan_bits = f64::NAN.to_bits();
        assert_eq!(
            f64::decode(&f64::NAN.encode()).map(f64::to_bits),
            Some(nan_bits)
        );
        assert_eq!(
            String::decode(&"hello".to_string().encode()),
            Some("hello".to_string())
        );
        assert_eq!(Option::<u64>::decode(&Some(4u64).encode()), Some(Some(4)));
        assert_eq!(Option::<u64>::decode(&None::<u64>.encode()), Some(None));
        let v = vec![(1u64, 2.5f64), (3, 4.5)];
        assert_eq!(Vec::<(u64, f64)>::decode(&v.encode()), Some(v));
    }

    #[test]
    fn decode_rejects_truncated_and_malformed_input() {
        assert_eq!(u64::decode(&[0, 0, 0]), None);
        // Trailing garbage after a complete value is malformed too.
        assert_eq!(u8::decode(&[1, 2]), None);
        assert_eq!(bool::decode(&[2]), None);
        assert_eq!(Option::<u8>::decode(&[9]), None);
        // A count prefix larger than the remaining input cannot be honest.
        assert_eq!(Vec::<u64>::decode(&[0xFF, 0xFF, 0xFF, 0xFF]), None);
        // Invalid UTF-8 is a decode failure, not a panic.
        assert_eq!(String::decode(&[0, 0, 0, 1, 0xFF]), None);
        // Map keys must be strictly ascending: a duplicate or swapped pair
        // is not the encoding of any map (it would re-encode differently).
        let map = BTreeMap::from([(1u8, 10u8), (2, 20)]);
        assert_eq!(map.encode(), [0, 0, 0, 2, 1, 10, 2, 20]);
        assert_eq!(BTreeMap::decode(&map.encode()), Some(map));
        assert_eq!(
            BTreeMap::<u8, u8>::decode(&[0, 0, 0, 2, 1, 10, 1, 20]),
            None
        );
        assert_eq!(
            BTreeMap::<u8, u8>::decode(&[0, 0, 0, 2, 2, 20, 1, 10]),
            None
        );
        // A hostile count runs out of input instead of allocating.
        assert_eq!(
            BTreeMap::<u8, u8>::decode(&[0xFF, 0xFF, 0xFF, 0xFF, 1, 1]),
            None
        );
    }

    #[test]
    fn declared_enums_reject_unknown_tags_and_truncated_payloads() {
        #[derive(Debug, PartialEq)]
        enum Step {
            Idle,
            Move { dx: u16, dy: u16 },
            Say(String),
        }
        codec!(Encode + Decode for enum Step { Idle = 0, Move { dx, dy } = 1, Say(text) = 7 });

        let all = [
            Step::Idle,
            Step::Move { dx: 3, dy: 0x0102 },
            Step::Say("hi".to_string()),
        ];
        assert_eq!(all[1].encode(), [1, 0, 3, 1, 2]);
        for step in all {
            let bytes = step.encode();
            assert_eq!(step.encoded_len(), bytes.len());
            for cut in 0..bytes.len() {
                assert_eq!(Step::decode(&bytes[..cut]), None, "{step:?} cut at {cut}");
            }
            assert_eq!(Step::decode(&bytes), Some(step));
        }
        // Tags between and beyond the declared ones.
        for tag in [2u8, 6, 8, 255] {
            assert_eq!(Step::decode(&[tag]), None);
            assert_eq!(Step::decode(&[tag, 0, 3, 1, 2]), None);
        }
    }

    #[test]
    fn usize_and_sets_encode_like_their_u64_and_vec_forms() {
        assert_eq!(7usize.encode(), 7u64.encode());
        assert_eq!(Some(7usize).encoded_len(), 9);
        let set = BTreeSet::from([3u16, 1, 2]);
        assert_eq!(set.encode(), vec![1u16, 2, 3].encode());
        assert_eq!(set.encoded_len(), set.encode().len());
    }

    #[test]
    fn intern_returns_one_allocation_per_content() {
        let a = intern("decode-phase-name");
        let b = intern(&String::from("decode-phase-name"));
        assert_eq!(a, "decode-phase-name");
        assert!(std::ptr::eq(a, b));
    }
}
