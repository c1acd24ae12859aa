//! Per-layer measurements the decorators cannot see.
//!
//! `run_workload` owns its event queue, metrics fold and oracles, so no
//! trait object exposes them. They are measured here by replaying the traced
//! run's inputs — its receipts, its event count and mean event gap, its
//! probe results — through each layer's public functions, in isolation. The
//! substrate figures use the record sizes of the `substrate_state` workload.
//! All times are host time; fixed work sizes keep runs comparable.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use dichotomy_bench::cache::{self, DiskCache};
use dichotomy_core::chaos::{OracleContext, OracleSet};
use dichotomy_core::common::{sha256, Decode, Encode, Hash, Key, Value};
use dichotomy_core::merkle::{MerkleBucketTree, MerklePatriciaTrie};
use dichotomy_core::metrics::{Metrics, StreamingAggregator, TimeSeries};
use dichotomy_core::scenario::{predicted_probe_cost, ExperimentPlan, ProbeCache, ProbeResult};
use dichotomy_core::simnet::{EventQueue, SimEngine};
use dichotomy_core::storage::engine::new_engine;
use dichotomy_core::storage::EngineKind;
use dichotomy_core::workload::ZipfianGenerator;

use crate::stats::median;
use crate::trace::PassFacts;

/// Median host nanoseconds of three runs of `work`.
fn median_ns<R>(mut work: impl FnMut() -> R) -> f64 {
    let runs: Vec<f64> = (0..3)
        .map(|_| {
            let started = Instant::now();
            black_box(work());
            started.elapsed().as_nanos() as f64
        })
        .collect();
    median(&runs)
}

/// A fixed spin loop: the same arithmetic on every host and commit, so its
/// time witnesses host noise (a slow value means the whole run was slowed).
pub fn calib_spin_ms() -> f64 {
    median_ns(|| {
        let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
        for _ in 0..20_000_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        x
    }) / 1e6
}

/// Measure every isolated layer figure into `set(name, value)`.
pub fn measure(
    facts: &PassFacts,
    results: &[(Vec<u8>, ProbeResult)],
    plans: &[(&'static str, ExperimentPlan)],
    scratch: &Path,
    mut set: impl FnMut(&str, f64),
) {
    // workload: one Zipfian draw at the run's own skew and record count.
    const DRAWS: u64 = 1_000_000;
    let (theta, records) = facts.zipf_shape.unwrap_or((0.0, 10_000));
    let mut zipf = ZipfianGenerator::new(records.max(2), theta, 7);
    let ns = median_ns(|| (0..DRAWS).fold(0u64, |acc, _| acc.wrapping_add(zipf.next())));
    set("workload.zipf_ns_per_sample", ns / DRAWS as f64);

    // simnet: the wheel queue and the engine at the run's mean event gap,
    // with a steady backlog so every pop schedules a replacement.
    const BACKLOG: u64 = 1_024;
    let events = facts.events_delivered.clamp(10_000, 1_000_000);
    let gap = (facts.sim_makespan_us / facts.events_delivered.max(1)).max(1);
    let ns = median_ns(|| {
        let mut queue: EventQueue<u64> = EventQueue::new();
        for i in 0..BACKLOG {
            queue.schedule_at(i * gap, i);
        }
        for i in 0..events {
            let (t, _) = queue.pop().expect("the backlog never drains");
            queue.schedule_at(t + BACKLOG * gap, i);
        }
        queue.delivered()
    });
    set("simnet.queue_ns_per_op", ns / events as f64);
    let ns = median_ns(|| {
        let mut engine: SimEngine<u64> = SimEngine::new();
        let process = engine.add_process("bench", 1);
        for i in 0..BACKLOG {
            engine.schedule_at(i * gap, i);
        }
        for i in 0..events {
            let (t, _) = engine.pop().expect("the backlog never drains");
            let (_, finish) = engine.service(process, t, gap / 2);
            engine.schedule_at(finish + BACKLOG * gap, i);
        }
        engine.delivered()
    });
    set("simnet.engine_ns_per_event", ns / events as f64);

    // core::metrics / core::chaos on the receipts the decorator kept.
    let kept: usize = facts.samples.iter().map(|s| s.receipts.len()).sum();
    let per_receipt = |ns: f64| if kept == 0 { 0.0 } else { ns / kept as f64 };
    let ns = median_ns(|| {
        for sample in &facts.samples {
            black_box(Metrics::from_receipts(&sample.receipts));
            black_box(TimeSeries::from_receipts(
                &sample.receipts,
                sample.window_us,
                0,
            ));
        }
    });
    set("metrics.exact_ns_per_receipt", per_receipt(ns));
    let ns = median_ns(|| {
        for sample in &facts.samples {
            let mut fold = StreamingAggregator::new(sample.window_us, 0);
            for receipt in &sample.receipts {
                fold.observe(receipt);
            }
            black_box(fold.finish(0));
        }
    });
    set("metrics.streaming_ns_per_receipt", per_receipt(ns));
    let ns = median_ns(|| {
        for sample in &facts.samples {
            let mut oracles = OracleSet::standard();
            oracles.observe_all(&sample.receipts);
            black_box(oracles.finish(OracleContext {
                arrivals_issued: sample.receipts.len() as u64,
                events_clamped: 0,
            }));
        }
    });
    set("chaos.oracles_ns_per_receipt", per_receipt(ns));

    // Substrates: hashing, the two authenticated indexes, the two engines.
    let block = vec![0xA5u8; 1 << 20];
    let ns = median_ns(|| (0..16).fold(0u8, |acc, _| acc ^ sha256(black_box(&block)).0[0]));
    set("common.sha256_mb_per_s", 16.0 / (ns / 1e9));
    const RECORDS: u64 = 4_000;
    let record = |i: u64| {
        (
            Key::new(Hash::of(&i.to_be_bytes()).0[..16].to_vec()),
            Value::filler(1_000),
        )
    };
    let pairs: Vec<(Key, Value)> = (0..RECORDS).map(record).collect();
    let ns = median_ns(|| {
        let mut mpt = MerklePatriciaTrie::new();
        for (key, value) in &pairs {
            mpt.insert(key, value);
        }
        mpt.root_hash()
    });
    set("merkle.mpt_insert_ns", ns / RECORDS as f64);
    let ns = median_ns(|| {
        let mut mbt = MerkleBucketTree::fabric_default();
        for (key, value) in &pairs {
            mbt.put(key, value);
        }
        mbt.root_hash()
    });
    set("merkle.mbt_put_ns", ns / RECORDS as f64);
    for (name, kind) in [
        ("storage.lsm_put_ns", EngineKind::Lsm),
        ("storage.btree_put_ns", EngineKind::BPlusTree),
    ] {
        let ns = median_ns(|| {
            let mut engine = new_engine(kind);
            for (key, value) in &pairs {
                engine.put(key.clone(), value.clone());
            }
            engine.len()
        });
        set(name, ns / RECORDS as f64);
    }

    // common::codec and bench::cache on the run's own probe results.
    let mut encoded = Vec::new();
    let ns = median_ns(|| {
        encoded.clear();
        for (_, result) in results {
            result.encode_into(&mut encoded);
        }
        encoded.len()
    });
    let bytes = encoded.len().max(1) as f64;
    set("codec.encode_ns_per_byte", ns / bytes);
    let ns = median_ns(|| {
        let mut input = encoded.as_slice();
        while !input.is_empty() {
            black_box(ProbeResult::decode_from(&mut input).expect("just encoded"));
        }
    });
    set("codec.decode_ns_per_byte", ns / bytes);
    let root = scratch.join("cache-isolated");
    let _ = std::fs::remove_dir_all(&root);
    if let Ok(disk) = DiskCache::open(&root) {
        let probes = results.len().max(1) as f64;
        let started = Instant::now();
        for (key, result) in results {
            disk.store(key, result);
        }
        set(
            "bench.cache_store_us_per_probe",
            started.elapsed().as_secs_f64() * 1e6 / probes,
        );
        let ns = median_ns(|| {
            for (key, _) in results {
                black_box(disk.load(key));
            }
        });
        set("bench.cache_load_us_per_probe", ns / 1e3 / probes);
        let stored: u64 = cache::stats(&root).iter().map(|t| t.bytes).sum();
        set("bench.cache_bytes", stored as f64);
    }
    let _ = std::fs::remove_dir_all(&root);

    // hybrid: the forecast behind the scheduler's cost prediction.
    let probes: Vec<_> = plans
        .iter()
        .flat_map(|(_, plan)| &plan.rows)
        .flat_map(|row| &row.runs)
        .map(|run| &run.probe)
        .collect();
    if !probes.is_empty() {
        let rounds = (20_000 / probes.len()).max(1);
        let ns = median_ns(|| {
            let mut total = 0.0;
            for _ in 0..rounds {
                for probe in &probes {
                    total += predicted_probe_cost(black_box(probe));
                }
            }
            total
        });
        set(
            "hybrid.forecast_ns_per_call",
            ns / (rounds * probes.len()) as f64,
        );
    }
}
