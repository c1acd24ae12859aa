//! The persistent, content-addressed probe-result cache behind
//! `repro --cache`.
//!
//! Layout: `.repro-cache/<schema-tag>/<key-hash>.bin`, one file per distinct
//! probe key. The schema tag folds the binary layout of [`ProbeResult`]
//! (its [`Decode::schema`], generated from the `codec!` declarations of the
//! result and everything nested in it) together with [`CACHE_EPOCH`], so a
//! codec change or a deliberate epoch bump retires every old entry at once —
//! stale formats land in a different directory and read as misses, never as
//! wrong answers.
//!
//! Entry format (all integers big-endian):
//!
//! ```text
//! magic   4 bytes  "RPC1"
//! epoch   u32      CACHE_EPOCH at write time
//! key     u32 len + bytes   the full probe key (not just its hash)
//! result  the Encode'd ProbeResult, to end of file
//! ```
//!
//! `load` verifies magic, epoch and the *full key bytes* before decoding:
//! a hash collision, a truncated write or hand-edited garbage is a miss.
//! `store` writes to a temp file and renames it into place, so concurrent
//! writers (the worker pool) can never expose a half-written entry. All
//! cache failures are silent misses — a cache that cannot read or write
//! still measures correctly.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use dichotomy_core::common::{Decode, Encode};
use dichotomy_core::scenario::{fnv1a_64, ProbeCache, ProbeResult};

/// Bumped to retire every existing cache entry when the probe semantics
/// change without the serialized layout changing (e.g. a model fix that
/// alters what a probe measures). Layout changes move the schema tag by
/// themselves.
pub const CACHE_EPOCH: u32 = 2;

/// Entry-file magic.
const MAGIC: &[u8; 4] = b"RPC1";

/// The versioned directory name entries of the current format live under.
pub fn schema_tag() -> String {
    let mut schema = String::new();
    ProbeResult::schema(&mut schema);
    format!("v{CACHE_EPOCH}-{:016x}", fnv1a_64(schema.as_bytes()))
}

/// The on-disk probe-result cache (see the module docs for the layout).
pub struct DiskCache {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
}

impl DiskCache {
    /// Open (creating if needed) the cache under `root` — typically
    /// `.repro-cache` in the repository root. Entries live in the current
    /// schema-tag subdirectory; other tags' entries are left alone.
    pub fn open(root: &Path) -> std::io::Result<DiskCache> {
        let dir = root.join(schema_tag());
        fs::create_dir_all(&dir)?;
        Ok(DiskCache {
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
        })
    }

    fn entry_path(&self, key: &[u8]) -> PathBuf {
        self.dir.join(format!("{:016x}.bin", fnv1a_64(key)))
    }

    /// Parse and verify one entry file's bytes against the expected key.
    fn parse_entry(bytes: &[u8], key: &[u8]) -> Option<ProbeResult> {
        fn take<'a>(input: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
            if input.len() < n {
                return None;
            }
            let (head, rest) = input.split_at(n);
            *input = rest;
            Some(head)
        }
        let mut input = bytes;
        if take(&mut input, 4)? != MAGIC {
            return None;
        }
        if u32::decode_from(&mut input)? != CACHE_EPOCH {
            return None;
        }
        let stored_len = u32::decode_from(&mut input)? as usize;
        if take(&mut input, stored_len)? != key {
            return None;
        }
        ProbeResult::decode(input)
    }

    /// Cache lookups answered from disk so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache lookups that missed (absent, stale or corrupt entries).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries written so far.
    pub fn stores(&self) -> u64 {
        self.stores.load(Ordering::Relaxed)
    }
}

impl ProbeCache for DiskCache {
    fn load(&self, key: &[u8]) -> Option<ProbeResult> {
        let loaded = fs::read(self.entry_path(key))
            .ok()
            .and_then(|bytes| Self::parse_entry(&bytes, key));
        match &loaded {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        loaded
    }

    fn store(&self, key: &[u8], result: &ProbeResult) {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        CACHE_EPOCH.encode_into(&mut bytes);
        (key.len() as u32).encode_into(&mut bytes);
        bytes.extend_from_slice(key);
        result.encode_into(&mut bytes);
        // Atomic publish: write a temp file, rename into place. Failures
        // are silent — the run still measured correctly.
        let path = self.entry_path(key);
        let tmp = path.with_extension(format!("tmp{}", std::process::id()));
        if fs::write(&tmp, &bytes).is_ok() {
            if fs::rename(&tmp, &path).is_ok() {
                self.stores.fetch_add(1, Ordering::Relaxed);
            } else {
                let _ = fs::remove_file(&tmp);
            }
        }
    }
}

/// What `repro cache stats` reports, per schema-tag directory.
#[derive(Debug, Clone, PartialEq)]
pub struct TagStats {
    /// The directory name (`v<epoch>-<schema-hash>`).
    pub tag: String,
    /// Whether this is the tag current binaries read and write.
    pub current: bool,
    /// Entry files in the directory.
    pub entries: usize,
    /// Their summed size in bytes.
    pub bytes: u64,
}

/// Scan `root` (the `.repro-cache` directory) and report every tag
/// directory. A missing root is an empty cache, not an error.
pub fn stats(root: &Path) -> Vec<TagStats> {
    let current = schema_tag();
    let Ok(dirs) = fs::read_dir(root) else {
        return Vec::new();
    };
    let mut tags: Vec<TagStats> = dirs
        .flatten()
        .filter(|d| d.path().is_dir())
        .map(|d| {
            let tag = d.file_name().to_string_lossy().into_owned();
            let (mut entries, mut bytes) = (0usize, 0u64);
            if let Ok(files) = fs::read_dir(d.path()) {
                for f in files.flatten() {
                    if let Ok(meta) = f.metadata() {
                        if meta.is_file() {
                            entries += 1;
                            bytes += meta.len();
                        }
                    }
                }
            }
            TagStats {
                current: tag == current,
                tag,
                entries,
                bytes,
            }
        })
        .collect();
    tags.sort_by(|a, b| a.tag.cmp(&b.tag));
    tags
}

/// Delete the whole cache (`repro cache clear`). A missing root is already
/// clear.
pub fn clear(root: &Path) -> std::io::Result<()> {
    match fs::remove_dir_all(root) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dichotomy_core::scenario::{probe_key_bytes, run_plans_with, ExecOptions, Probe};
    use dichotomy_core::systems::SystemRegistry;
    use dichotomy_core::Scenario;

    /// A unique temp root per test (no wall clock: keyed by test name + pid).
    fn temp_root(name: &str) -> PathBuf {
        let root = std::env::temp_dir().join(format!(
            "dichotomy-cache-test-{name}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&root);
        root
    }

    fn tiny_plan(seed: u64) -> dichotomy_core::ExperimentPlan {
        let scenario = Scenario {
            id: "C",
            title: "cache",
            systems: vec![dichotomy_core::scenario::SystemEntry {
                spec: dichotomy_core::systems::SystemSpec::new(
                    dichotomy_core::systems::SystemKind::Etcd,
                ),
                columns: vec![dichotomy_core::scenario::ColumnSpec::new(
                    "tps",
                    dichotomy_core::scenario::Metric::ThroughputTps,
                )],
            }],
            workload: dichotomy_core::workload::WorkloadSpec::ycsb(
                dichotomy_core::workload::YcsbMix::UpdateOnly,
            )
            .with_records(300),
            driver: dichotomy_core::DriverConfig::saturating(100),
            sweep: dichotomy_core::Sweep::None,
            row_labels: None,
            faults: None,
            seed,
        };
        scenario.plan()
    }

    #[test]
    fn cold_then_warm_runs_are_byte_identical_through_the_disk_cache() {
        let root = temp_root("roundtrip");
        let registry = SystemRegistry::with_builtins();
        let plan = tiny_plan(7);
        let cold_cache = DiskCache::open(&root).unwrap();
        let options = |cache| ExecOptions {
            jobs: 1,
            cache: Some(cache),
            ..ExecOptions::default()
        };
        let cold = run_plans_with(&[&plan], &registry, &options(&cold_cache))
            .pop()
            .unwrap();
        assert_eq!(cold_cache.hits(), 0);
        assert_eq!(cold_cache.stores(), 1);
        // A fresh handle over the same directory: the warm run decodes what
        // the cold run encoded, and the serialized reports match exactly.
        let warm_cache = DiskCache::open(&root).unwrap();
        let warm = run_plans_with(&[&plan], &registry, &options(&warm_cache))
            .pop()
            .unwrap();
        assert_eq!(warm_cache.hits(), 1);
        assert_eq!(warm.cache_hits, 1);
        assert_eq!(
            crate::json::report("c", &cold.report),
            crate::json::report("c", &warm.report),
            "cache hit must be byte-identical to the cold run"
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_stale_and_mismatched_entries_read_as_misses() {
        let root = temp_root("corrupt");
        let registry = SystemRegistry::with_builtins();
        let plan = tiny_plan(9);
        let key = probe_key_bytes(&plan.rows[0].runs[0].probe);
        let cache = DiskCache::open(&root).unwrap();
        run_plans_with(
            &[&plan],
            &registry,
            &ExecOptions {
                jobs: 1,
                cache: Some(&cache),
                ..ExecOptions::default()
            },
        );
        let path = cache.entry_path(&key);
        let good = fs::read(&path).unwrap();
        assert!(cache.load(&key).is_some(), "pristine entry loads");

        // Truncated: cut the payload short.
        fs::write(&path, &good[..good.len() - 3]).unwrap();
        assert!(cache.load(&key).is_none(), "truncated entry is a miss");
        // Corrupted magic.
        let mut bad = good.clone();
        bad[0] ^= 0xff;
        fs::write(&path, &bad).unwrap();
        assert!(cache.load(&key).is_none(), "bad magic is a miss");
        // Stale epoch.
        let mut stale = good.clone();
        stale[7] ^= 0xff;
        fs::write(&path, &stale).unwrap();
        assert!(cache.load(&key).is_none(), "stale epoch is a miss");
        // Key mismatch (a hash collision in effigy): same file, other key.
        fs::write(&path, &good).unwrap();
        let other_key = probe_key_bytes(&tiny_plan(10).rows[0].runs[0].probe);
        let collided = fs::read(cache.entry_path(&key)).unwrap();
        fs::write(cache.entry_path(&other_key), &collided).unwrap();
        assert!(
            cache.load(&other_key).is_none(),
            "an entry whose stored key differs is a miss"
        );
        // Trailing garbage after a valid result.
        let mut padded = good.clone();
        padded.push(0);
        fs::write(&path, &padded).unwrap();
        assert!(cache.load(&key).is_none(), "trailing bytes are a miss");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn non_driving_probes_cache_too() {
        let root = temp_root("nondriving");
        let cache = DiskCache::open(&root).unwrap();
        let plan = dichotomy_core::ExperimentPlan {
            id: "X",
            title: "adr",
            rows: vec![dichotomy_core::scenario::PlannedRow {
                label: "r".into(),
                runs: vec![dichotomy_core::scenario::PlannedRun {
                    probe: Probe::AdrOverhead {
                        records: 50,
                        record_size: 32,
                    },
                    columns: vec![dichotomy_core::scenario::ColumnSpec::new(
                        "mbt",
                        dichotomy_core::scenario::Metric::Extra("mbt_b_per_rec"),
                    )],
                }],
            }],
            text: None,
            diagnostics: Vec::new(),
        };
        let registry = SystemRegistry::with_builtins();
        let options = ExecOptions {
            jobs: 1,
            cache: Some(&cache),
            ..ExecOptions::default()
        };
        let cold = run_plans_with(&[&plan], &registry, &options).pop().unwrap();
        let warm = run_plans_with(&[&plan], &registry, &options).pop().unwrap();
        assert_eq!(warm.cache_hits, 1);
        assert_eq!(cold.report, warm.report);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn stats_and_clear_see_the_tag_directories() {
        let root = temp_root("stats");
        assert!(stats(&root).is_empty(), "missing root is an empty cache");
        let cache = DiskCache::open(&root).unwrap();
        let plan = tiny_plan(11);
        run_plans_with(
            &[&plan],
            &SystemRegistry::with_builtins(),
            &ExecOptions {
                jobs: 1,
                cache: Some(&cache),
                ..ExecOptions::default()
            },
        );
        // A stale-tag directory from an older epoch sits alongside.
        fs::create_dir_all(root.join("v0-deadbeef")).unwrap();
        fs::write(root.join("v0-deadbeef/0.bin"), b"old").unwrap();
        let all = stats(&root);
        assert_eq!(all.len(), 2);
        let current = all.iter().find(|t| t.current).unwrap();
        assert_eq!(current.tag, schema_tag());
        assert_eq!(current.entries, 1);
        assert!(current.bytes > 0);
        let stale = all.iter().find(|t| !t.current).unwrap();
        assert_eq!(stale.entries, 1);
        clear(&root).unwrap();
        assert!(stats(&root).is_empty());
        clear(&root).unwrap(); // idempotent
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn the_schema_tag_pins_epoch_and_descriptor() {
        let tag = schema_tag();
        assert!(tag.starts_with(&format!("v{CACHE_EPOCH}-")));
        assert_eq!(tag, schema_tag(), "deterministic");
        assert_eq!(
            tag.len(),
            format!("v{CACHE_EPOCH}-").len() + 16,
            "16 hex digits of the descriptor hash"
        );
    }
}
