//! The `KeyMap` hasher must spread every generated key shape over both parts
//! of the hash the table reads: the low bits pick a bucket, and the top seven
//! are the tag a probe compares before it compares keys. Keys that share
//! their tags make every probe a key comparison (a finaliser that only
//! rotates leaves them nearly constant on `user…` keys); keys that share
//! their low bits make probe chains long.

use std::collections::BTreeSet;
use std::hash::BuildHasher;

use dichotomy_common::{Hash, Key, KeyMap};
use dichotomy_workload::{SmallbankWorkload, YcsbWorkload};

const KEYS: u64 = 10_000;

/// Low bits of a table sized for [`KEYS`] entries at hashbrown's 7/8 load.
const BUCKET_BITS: u32 = 14;

/// (distinct top-7-bit tags, distinct low-`BUCKET_BITS`-bit buckets).
fn spread(keys: &[Key]) -> (usize, usize) {
    let map = KeyMap::<()>::default();
    let hashes: Vec<u64> = keys.iter().map(|key| map.hasher().hash_one(key)).collect();
    let tags: BTreeSet<u64> = hashes.iter().map(|h| h >> 57).collect();
    let buckets: BTreeSet<u64> = hashes
        .iter()
        .map(|h| h & ((1 << BUCKET_BITS) - 1))
        .collect();
    (tags.len(), buckets.len())
}

#[test]
fn every_generated_key_shape_spreads_over_tags_and_buckets() {
    let shapes: [(&str, Vec<Key>); 3] = [
        ("ycsb", (0..KEYS).map(YcsbWorkload::key_for).collect()),
        (
            "smallbank",
            (0..KEYS / 2)
                .flat_map(|c| {
                    [
                        SmallbankWorkload::checking_key(c),
                        SmallbankWorkload::savings_key(c),
                    ]
                })
                .collect(),
        ),
        (
            "hash16",
            (0..KEYS)
                .map(|i| Key::new(&Hash::of(&i.to_be_bytes()).0[..16]))
                .collect(),
        ),
    ];
    // Distinct buckets that uniform hashes of KEYS keys would fill.
    let slots = f64::from(1u32 << BUCKET_BITS);
    let uniform = slots * (1.0 - (-(KEYS as f64) / slots).exp());
    for (shape, keys) in &shapes {
        assert_eq!(keys.len() as u64, KEYS, "{shape}");
        let (tags, buckets) = spread(keys);
        assert!(tags >= 100, "{shape}: only {tags} of 128 tags used");
        assert!(
            buckets as f64 >= 0.9 * uniform,
            "{shape}: {buckets} distinct buckets, uniform hashing fills {uniform:.0}"
        );
    }
}
