//! Exhaustive Encode⇄Decode round-trip over every `Decode`-bearing type
//! `dichotomy-common` defines: scalars, `f64`, `bool`, `String`,
//! `Option<T>`, `Vec<T>`, tuples, `AbortReason` and `StorageBreakdown`.
//! (The higher-level codec types — metrics, probe results, series — live in
//! `dichotomy-core`; `crates/core/tests/codec_roundtrip.rs` covers those.)
//!
//! Per value: `decode(encode(v)) == v`, re-encoding the decoded value
//! reproduces the original bytes exactly — the property the content-addressed
//! probe cache depends on — and truncated or mutated bytes never panic and
//! never decode to something that encodes differently.

use dichotomy_common::rng::{self, Rng};
use dichotomy_common::size::StorageBreakdown;
use dichotomy_common::{AbortReason, Decode, Encode};

/// Round-trip one value and prove byte-stability of the re-encoding, then
/// turn the encoding hostile: every strict prefix must decode to `None`, and
/// every single-byte mutation must decode — without panicking — to `None` or
/// to a value whose encoding is exactly the mutated bytes (no accepted byte
/// string is non-canonical).
fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(value: T) {
    let bytes = value.encode();
    let decoded = T::decode(&bytes).expect("decode of a canonical encoding");
    assert_eq!(decoded, value);
    assert_eq!(decoded.encode(), bytes, "re-encoding must be byte-stable");
    assert_eq!(value.encoded_len(), bytes.len());

    for cut in 0..bytes.len() {
        assert!(T::decode(&bytes[..cut]).is_none(), "prefix of {cut} bytes");
    }
    // Every position of an encoding up to 256 bytes (between them those
    // samples hold every kind of tag and count byte), 256 seeded positions
    // of a longer one; all 255 other values at each.
    let positions: Vec<usize> = if bytes.len() <= 256 {
        (0..bytes.len()).collect()
    } else {
        let mut rng = rng::seeded(bytes.len() as u64);
        (0..256).map(|_| rng.gen_range(0..bytes.len())).collect()
    };
    let mut hostile = bytes.clone();
    for pos in positions {
        for delta in 1..=255u8 {
            hostile[pos] = bytes[pos].wrapping_add(delta);
            if let Some(accepted) = T::decode(&hostile) {
                assert_eq!(accepted.encode(), hostile, "byte {pos} + {delta}");
            }
        }
        hostile[pos] = bytes[pos];
    }
}

#[test]
fn scalars() {
    for v in [0u8, 1, 127, u8::MAX] {
        roundtrip(v);
    }
    for v in [0u16, 1, 0x1234, u16::MAX] {
        roundtrip(v);
    }
    for v in [0u32, 1, 0xdead_beef, u32::MAX] {
        roundtrip(v);
    }
    for v in [0u64, 1, 1 << 63, u64::MAX] {
        roundtrip(v);
    }
}

#[test]
fn floats() {
    for v in [
        0.0f64,
        -0.0,
        1.5,
        -123.456,
        f64::MIN,
        f64::MAX,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ] {
        roundtrip(v);
    }
    // NaN != NaN, so compare the round-trip at the bit level.
    let bytes = f64::NAN.encode();
    let back = f64::decode(&bytes).unwrap();
    assert_eq!(back.to_bits(), f64::NAN.to_bits());
}

#[test]
fn bools_and_strings() {
    roundtrip(true);
    roundtrip(false);
    roundtrip(String::new());
    roundtrip("ascii".to_string());
    roundtrip("μs — micro-seconds, ünïcode".to_string());
}

#[test]
fn options_vecs_tuples() {
    roundtrip(Option::<u64>::None);
    roundtrip(Some(42u64));
    roundtrip(Vec::<u32>::new());
    roundtrip(vec![1u64, 2, 3]);
    roundtrip(("phase".to_string(), 480.5f64));
    // Nesting: the shape `Vec<(String, f64)>` is exactly ProbeResult.extras.
    roundtrip(vec![("a".to_string(), 1.0f64), ("b".to_string(), -2.5)]);
    roundtrip(vec![Some("x".to_string()), None]);
}

/// Every `AbortReason` variant. The `match` makes this list provably
/// exhaustive: adding a variant without extending it fails to compile.
fn all_abort_reasons() -> Vec<AbortReason> {
    let all = vec![
        AbortReason::ReadWriteConflict,
        AbortReason::InconsistentRead,
        AbortReason::WriteWriteConflict,
        AbortReason::LockConflict,
        AbortReason::CrossShardAbort,
        AbortReason::Overload,
        AbortReason::ApplicationConstraint,
    ];
    for reason in &all {
        match reason {
            AbortReason::ReadWriteConflict
            | AbortReason::InconsistentRead
            | AbortReason::WriteWriteConflict
            | AbortReason::LockConflict
            | AbortReason::CrossShardAbort
            | AbortReason::Overload
            | AbortReason::ApplicationConstraint => {}
        }
    }
    all
}

#[test]
fn abort_reason_every_variant() {
    let all = all_abort_reasons();
    for reason in all.clone() {
        roundtrip(reason);
    }
    // Each variant must encode distinctly — the tag byte is the identity.
    let mut encodings: Vec<Vec<u8>> = all.iter().map(Encode::encode).collect();
    encodings.sort();
    encodings.dedup();
    assert_eq!(encodings.len(), all.len());
}

#[test]
fn storage_breakdown() {
    roundtrip(StorageBreakdown::default());
    roundtrip(StorageBreakdown {
        payload_bytes: 1_000_000,
        index_bytes: 250_000,
        history_bytes: u64::MAX / 2,
    });
}

#[test]
fn truncated_input_decodes_to_none() {
    let bytes = ("key".to_string(), 1.25f64).encode();
    for cut in 0..bytes.len() {
        assert_eq!(<(String, f64)>::decode(&bytes[..cut]), None, "cut at {cut}");
    }
}
