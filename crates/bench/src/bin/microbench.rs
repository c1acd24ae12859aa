//! Microbenchmarks over the substrates the system models are built from:
//! hashing, authenticated-index updates, storage-engine writes, OCC
//! validation, consensus-profile commit latencies and the end-to-end
//! per-transaction pipelines of a blockchain vs a database (a miniature
//! Figure 4).
//!
//! ```text
//! cargo run -p dichotomy-bench --release --bin microbench
//! cargo run -p dichotomy-bench --release --bin microbench -- mpt lsm
//! cargo run -p dichotomy-bench --release --bin microbench -- --smoke
//! ```
//!
//! This is a dependency-free replacement for the Criterion bench the seed
//! shipped: each benchmark runs a warmup pass, then times `iters` iterations
//! with `std::time::Instant`, excluding per-iteration setup. Arguments select
//! every benchmark whose name contains one of them (none selected is a usage
//! error, exit 2); `--smoke` scales the iteration counts down so CI can run
//! every case as an engine-hot-path regression check in seconds. It is a
//! developer tool: it prints ns/op and records nothing — the repo's
//! performance record is `benchmark/` (`BENCHMARK.json`).

#![forbid(unsafe_code)]

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use dichotomy_core::chaos::{OracleContext, OracleSet};
use dichotomy_core::common::rng;
use dichotomy_core::common::size::{StorageBreakdown, StorageFootprint};
use dichotomy_core::common::{
    hash, ClientId, Key, NodeId, Operation, Transaction, TxnId, TxnReceipt, Value,
};
use dichotomy_core::consensus::{ProtocolKind, ReplicationProfile};
use dichotomy_core::driver::{run_workload, ArrivalSpec, DriverConfig};
use dichotomy_core::experiments::{SCALE01_THINK_US, SCALE01_WINDOW_US};
use dichotomy_core::ledger::{Ledger, TxnValidationFlag};
use dichotomy_core::merkle::{MerkleBucketTree, MerklePatriciaTrie};
use dichotomy_core::metrics::{LatencyEstimator, LatencySummary, MetricsMode, StreamingLatency};
use dichotomy_core::scenario::{
    run_plan_with, ColumnSpec, ExecOptions, Metric, Scenario, Sweep, SystemEntry,
};
use dichotomy_core::simnet::{CostModel, EventQueue, NetworkConfig, SimEngine};
use dichotomy_core::storage::{BPlusTree, KvEngine, LsmTree, MvccStore};
use dichotomy_core::systems::{
    drive_arrivals, Completion, Engine, Etcd, Quorum, ReceiptLog, SystemKind, SystemRegistry,
    SystemSpec, TransactionalSystem,
};
use dichotomy_core::txn::occ;
use dichotomy_core::workload::Workload;
use dichotomy_core::workload::{WorkloadSpec, YcsbConfig, YcsbMix, YcsbWorkload};

/// Whether `--smoke` was passed: scale iteration counts down for CI.
static SMOKE: AtomicBool = AtomicBool::new(false);

/// The name filters given on the command line; none runs every benchmark.
static FILTERS: OnceLock<Vec<String>> = OnceLock::new();

/// How many benchmarks the filters selected.
static SELECTED: AtomicUsize = AtomicUsize::new(0);

/// Whether benchmark `name` runs: its name contains one of the filters, or
/// there are none. Counts the benchmarks that do.
fn selected(name: &str) -> bool {
    let filters = FILTERS.get().map_or(&[][..], Vec::as_slice);
    let run = filters.is_empty() || filters.iter().any(|f| name.contains(f.as_str()));
    if run {
        SELECTED.fetch_add(1, Ordering::Relaxed);
    }
    run
}

fn effective_iters(iters: u32) -> u32 {
    if SMOKE.load(Ordering::Relaxed) {
        (iters / 20).max(2)
    } else {
        iters
    }
}

/// Time `routine` over `iters` fresh states from `setup`, excluding setup
/// time, and print a mean ns/op line.
fn bench_batched<S, R>(
    name: &str,
    iters: u32,
    setup: impl FnMut() -> S,
    routine: impl FnMut(S) -> R,
) {
    bench_batched_ops(name, iters, 1, setup, routine)
}

/// [`bench_batched`] for a routine that performs `ops` operations per call:
/// an operation far cheaper than the timer is timed a thousand at a go.
fn bench_batched_ops<S, R>(
    name: &str,
    iters: u32,
    ops: u32,
    mut setup: impl FnMut() -> S,
    mut routine: impl FnMut(S) -> R,
) {
    if !selected(name) {
        return;
    }
    let iters = effective_iters(iters);
    for _ in 0..(iters / 10).max(1) {
        black_box(routine(setup()));
    }
    let mut total = Duration::ZERO;
    for _ in 0..iters {
        let state = setup();
        #[expect(
            clippy::disallowed_methods,
            reason = "a wall-clock microbenchmark; its timings are printed, never simulated"
        )]
        let start = Instant::now();
        let result = routine(state);
        total += start.elapsed();
        black_box(result);
    }
    let ns_per_op = total.as_nanos() as f64 / iters as f64 / ops as f64;
    println!("{name:<36} {iters:>7} iters {ns_per_op:>14.0} ns/op");
}

/// Time a self-contained routine (no per-iteration setup).
fn bench<R>(name: &str, iters: u32, mut routine: impl FnMut() -> R) {
    bench_batched(name, iters, || (), |()| routine());
}

fn bench_hashing() {
    // 64 bytes is one block plus a padding block: the short-message path
    // that header hashing and hash combining take. 1 KB is the bulk
    // path of payload and node-encoding digests.
    let data = vec![0xabu8; 1024];
    bench("sha256_64b", 20_000, || {
        hash::sha256(black_box(&data[..64]))
    });
    bench("sha256_1kb", 2_000, || hash::sha256(black_box(&data)));
}

fn bench_authenticated_indexes() {
    // One write and the root after it, on an index whose root was read
    // before: both hash on demand, so a fresh index would also time digesting
    // everything already in it.
    bench_batched(
        "mpt_insert_1kb",
        300,
        || {
            let mut mpt = MerklePatriciaTrie::new();
            for i in 0..500u64 {
                mpt.insert(&Key::from_str(&format!("user{i:08}")), &Value::filler(100));
            }
            mpt.root_hash();
            mpt
        },
        |mut mpt| {
            mpt.insert(&Key::from_str("user00000042"), &Value::filler(1024));
            mpt.root_hash()
        },
    );
    // A YCSB update into the suite's loaded state: the record's own filler
    // bytes, so the write keeps every node it walks and leaves the trie as it
    // was. The loaded trie is therefore built once, outside the timing.
    const OVERWRITES: u32 = 1_000;
    let filler = Value::filler(1_024);
    let mut loaded = MerklePatriciaTrie::new();
    for i in 0..5_000 {
        loaded.insert(&YcsbWorkload::key_for(i), &filler);
    }
    loaded.root_hash();
    let overwritten: Vec<Key> = (0..u64::from(OVERWRITES))
        .map(|i| YcsbWorkload::key_for(i * 5))
        .collect();
    bench_batched_ops(
        "mpt_overwrite_unchanged_5k_1kb",
        50,
        OVERWRITES,
        || (),
        |()| {
            for key in &overwritten {
                loaded.insert(key, &filler);
                black_box(loaded.root_hash());
            }
        },
    );
    bench_batched(
        "mbt_put_1kb",
        300,
        || {
            let mbt = MerkleBucketTree::fabric_default();
            mbt.root_hash();
            mbt
        },
        |mut mbt| {
            mbt.put(&Key::from_str("user42"), &Value::filler(1024));
            mbt.root_hash()
        },
    );
    // The Figure 13 probe (`Probe::AdrOverhead`) at one point: 10 000 hashed
    // 16-byte keys of 1 KB into both indexes, then both footprints. No root
    // is read, as in the probe.
    let keys: Vec<Key> = (0..10_000u64)
        .map(|i| Key::new(&hash::sha256(&i.to_be_bytes()).0[..16]))
        .collect();
    let value = Value::filler(1024);
    bench("adr_probe_10k_1kb", 20, || {
        let mut mbt = MerkleBucketTree::fabric_default();
        let mut mpt = MerklePatriciaTrie::new();
        for key in &keys {
            mbt.put(key, &value);
            mpt.insert(key, &value);
        }
        (mbt.footprint(), mpt.footprint())
    });
}

fn bench_ledger() {
    // The block Fabric and Quorum commit at their default cut: 100
    // transactions of one 1 KB write each. Appending it hashes nothing; the
    // transactions digest and header hash are paid once, when the tip is read
    // (here over 100 such blocks).
    let value = Value::filler(1_024);
    let block = |height: u64| -> Vec<Transaction> {
        (0..100)
            .map(|seq| {
                Transaction::client_signed(
                    TxnId::new(ClientId(seq % 64), height * 100 + seq),
                    vec![Operation::write(YcsbWorkload::key_for(seq), value.clone())],
                )
            })
            .collect()
    };
    let valid = || vec![TxnValidationFlag::Valid; 100];
    bench_batched(
        "ledger_append_block_100x1kb",
        2_000,
        || (Ledger::new(NodeId(0)), block(1)),
        |(mut ledger, txns)| {
            ledger
                .append_txns(txns, valid(), NodeId(0), 1, None)
                .expect("one flag per transaction");
            ledger
        },
    );
    bench_batched(
        "ledger_tip_hash_100_blocks",
        20,
        || {
            let mut ledger = Ledger::new(NodeId(0));
            for height in 1..=100 {
                ledger
                    .append_txns(block(height), valid(), NodeId(0), height, None)
                    .expect("one flag per transaction");
            }
            ledger
        },
        |ledger| {
            let tip = ledger.tip_hash();
            (ledger, tip)
        },
    );
}

fn bench_storage_engines() {
    bench_batched("lsm_put_1kb", 2_000, LsmTree::new, |mut t| {
        t.put(Key::from_str("k1"), Value::filler(1024))
    });
    bench_batched("btree_put_1kb", 2_000, BPlusTree::new, |mut t| {
        t.put(Key::from_str("k1"), Value::filler(1024))
    });
    // A model's preload, one record set into a new LSM tree (one 4 MB run
    // and a memtable) and into a new MVCC store at one version.
    let value = Value::filler(1024);
    let records: Vec<(Key, Value)> = (0..5_000)
        .map(|i| (YcsbWorkload::key_for(i), value.clone()))
        .collect();
    bench_batched("lsm_load_5k_1kb", 50, LsmTree::new, |mut t| {
        t.load(&records);
        t
    });
    bench_batched("mvcc_load_5k_1kb", 50, MvccStore::new, |mut s| {
        let version = s.begin_commit();
        s.load(version, &records);
        s
    });
    // The transaction path's storage work on those stores once loaded: a
    // read of a record, then a write of it, over 1 000 distinct records
    // (ns per read + write).
    let point_keys: Vec<&Key> = (0..1_000)
        .map(|i| &records[i * 7_919 % records.len()].0)
        .collect();
    let loaded_lsm = || {
        let mut t = LsmTree::new();
        t.load(&records);
        t
    };
    bench_batched_ops("lsm_point_ops_5k_1kb", 50, 1_000, loaded_lsm, |mut t| {
        for &key in &point_keys {
            black_box(t.get(key));
            t.put(key.clone(), value.clone());
        }
        t
    });
    let loaded_mvcc = || {
        let mut s = MvccStore::new();
        let version = s.begin_commit();
        s.load(version, &records);
        s
    };
    bench_batched_ops("mvcc_point_ops_5k", 50, 1_000, loaded_mvcc, |mut s| {
        for &key in &point_keys {
            black_box(s.get_latest(key));
            let version = s.begin_commit();
            s.commit_write(key.clone(), version, Some(value.clone()));
        }
        s
    });
}

fn bench_occ_validation() {
    bench_batched(
        "occ_simulate_validate_commit",
        1_000,
        || {
            let mut store = MvccStore::new();
            let v = store.begin_commit();
            for i in 0..200u64 {
                store.commit_write(Key::from_str(&format!("k{i}")), v, Some(Value::filler(64)));
            }
            store
        },
        |mut store| {
            let txn = Transaction::new(
                TxnId::new(ClientId(1), 1),
                vec![Operation::read_modify_write(
                    Key::from_str("k7"),
                    Value::filler(64),
                )],
            );
            let sim = occ::simulate(&txn, &store);
            occ::validate_and_commit(&sim, &mut store).unwrap()
        },
    );
}

fn bench_consensus_profiles() {
    for (name, kind) in [
        ("profile_raft_commit_latency", ProtocolKind::Raft),
        ("profile_pbft_commit_latency", ProtocolKind::Pbft),
    ] {
        let profile =
            ReplicationProfile::new(kind, 7, NetworkConfig::lan_1gbps(), CostModel::default());
        bench(name, 10_000, || profile.commit_latency_us(black_box(4096)));
    }
}

fn bench_metric_sketches() {
    // The two latency estimators of the one receipt fold over the identical
    // sample set: folding 100k latencies into the three P² sketches of a
    // `StreamingLatency` vs sorting the same vector for exact order
    // statistics, as `ExactLatency` does. The per-sample sketch cost is what
    // streaming metrics pay per receipt; the exact case additionally scales
    // its O(n log n) sort with window population, which is the memory/time
    // trade `MetricsMode::Streaming` removes.
    const SAMPLES: usize = 100_000;
    let generate = || {
        let mut x = 0x853C_49E6_748F_EA9Bu64;
        (0..SAMPLES)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % 250_000
            })
            .collect::<Vec<u64>>()
    };
    bench_batched("latency_sketch_stream_100k", 50, generate, |samples| {
        let mut sketch = StreamingLatency::default();
        for &s in &samples {
            sketch.observe(s);
        }
        sketch.summary()
    });
    bench_batched("latency_exact_sort_100k", 50, generate, LatencySummary::of);
}

fn bench_event_engine() {
    // The engine hot path: schedule N events with scattered timestamps and
    // drain them in order.
    bench("event_queue_schedule_pop_10k", 200, || {
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..10_000u64 {
            q.schedule_at(i ^ 0x2a5a, i);
        }
        let mut acc = 0u64;
        while let Some((t, _)) = q.pop() {
            acc = acc.wrapping_add(t);
        }
        acc
    });
    // Steady-state churn at closed-loop scale: 256k events stay pending
    // while every pop schedules a replacement at a pseudo-random offset
    // from a fixed xorshift stream. This is the shape of the `scale01`
    // million-client run.
    const CHURN: u64 = 1 << 18;
    let prefill_times = |seed: u64| {
        let mut x = seed;
        std::iter::repeat_with(move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % 1_000_000
        })
    };
    bench_batched(
        "event_queue_wheel_churn_256k",
        20,
        || {
            let mut q: EventQueue<u64> = EventQueue::new();
            for (i, t) in prefill_times(0x9E37_79B9).take(CHURN as usize).enumerate() {
                q.schedule_at(t, i as u64);
            }
            q
        },
        |mut q| {
            let mut acc = 0u64;
            for (i, dt) in prefill_times(0xD1B5_4A32).take(CHURN as usize).enumerate() {
                let (t, _) = q.pop().expect("queue stays full");
                acc = acc.wrapping_add(t);
                q.schedule_at(q.now() + dt, i as u64);
            }
            acc
        },
    );
    // Far-future timers with few pending: 64 closed-loop clients thinking
    // about a second each, so every pop cascades down the wheel's levels.
    const SPARSE_POPS: u32 = 100_000;
    let mut r = rng::seeded(0x5BA2);
    let delays: Vec<u64> = (0..SPARSE_POPS + 64)
        .map(|_| rng::exp_delay_us(&mut r, 1e6))
        .collect();
    bench_batched_ops(
        "event_queue_sparse_far_timers",
        50,
        SPARSE_POPS,
        || {
            let mut q: EventQueue<u64> = EventQueue::new();
            for &d in &delays[..64] {
                q.schedule_at(d, d);
            }
            q
        },
        |mut q| {
            for &d in &delays[64..] {
                q.pop().expect("64 timers stay pending");
                q.schedule_in(d, d);
            }
            q
        },
    );
    // A synthetic service pipeline on the engine: every event books work on
    // one of two processes and reschedules a follow-up stage.
    bench("engine_two_stage_pipeline_5k", 200, || {
        let mut e: SimEngine<(u32, u64)> = SimEngine::new();
        let front = e.add_process("front", 4);
        let back = e.add_process("back", 1);
        for i in 0..5_000u64 {
            e.schedule_at(i * 3, (0, i));
        }
        let mut finished = 0u64;
        while let Some((now, (stage, token))) = e.pop() {
            match stage {
                0 => {
                    let (_, done) = e.service(front, now, 5);
                    e.schedule_at(done, (1, token));
                }
                _ => {
                    e.service(back, now, 2);
                    finished += 1;
                }
            }
        }
        finished
    });
    // The full event loop end to end: driver arrivals + etcd stage events.
    bench("engine_loop_etcd_update_300", 10, || {
        let mut system = Etcd::new(&SystemSpec::new(SystemKind::Etcd));
        let mut workload = YcsbWorkload::new(YcsbConfig {
            record_count: 500,
            record_size: 200,
            mix: YcsbMix::UpdateOnly,
            ..YcsbConfig::default()
        });
        run_workload(&mut system, &mut workload, &DriverConfig::saturating(300))
    });
    // The driver loop with no model behind it: scale01's closed loop over a
    // system that commits every arrival as it arrives, so one event per
    // transaction and the time is the driver's, the wheel's, the arrival
    // ledger's, workload generation's, the streaming fold's and the
    // oracles'. Printed per transaction. At 200 000 clients (scale01's
    // largest population) almost every transaction waits cold in the wheel.
    const NULL_TXNS: u64 = 200_000;
    for (name, clients) in [
        ("driver_loop_null_closed_200k", 8_192),
        ("driver_loop_null_closed_200k_clients", 200_000),
    ] {
        let config = DriverConfig {
            transactions: NULL_TXNS,
            arrival: ArrivalSpec::ClosedLoop {
                clients,
                think_time_us: SCALE01_THINK_US,
            },
            window_us: Some(SCALE01_WINDOW_US),
            metrics: MetricsMode::Streaming,
            ..DriverConfig::default()
        };
        bench_batched_ops(
            name,
            10,
            NULL_TXNS as u32,
            || {
                let workload = YcsbWorkload::new(YcsbConfig {
                    record_count: 64,
                    record_size: 1,
                    mix: YcsbMix::UpdateOnly,
                    ..YcsbConfig::default()
                });
                (NullSystem::default(), workload)
            },
            |(mut system, mut workload)| run_workload(&mut system, &mut workload, &config),
        );
    }
}

/// A model that commits every arrival the instant it arrives.
#[derive(Default)]
struct NullSystem(ReceiptLog);

impl TransactionalSystem for NullSystem {
    fn kind(&self) -> SystemKind {
        SystemKind::Etcd
    }

    fn load(&mut self, _records: &[(Key, Value)]) {}

    fn on_arrival(&mut self, txn: Transaction, engine: &mut Engine) {
        let receipt = TxnReceipt::committed(txn.id(), txn.submit_time, engine.now());
        self.0.push_back(receipt);
    }

    fn drain_completions(&mut self, buf: &mut Vec<Completion>) {
        self.0.swap_completions(buf);
    }

    fn drain_receipts_into(&mut self, buf: &mut Vec<TxnReceipt>) {
        self.0.swap_receipts(buf);
    }

    fn footprint(&self) -> StorageBreakdown {
        StorageBreakdown::default()
    }

    fn node_count(&self) -> usize {
        1
    }
}

fn bench_oracles() {
    // The invariant oracles over one run's receipts: 250 000 distinct ids
    // in scale01's shape (200 000 clients, seqs counting up), each checked
    // against the dedup set and inserted. Printed per receipt.
    const RECEIPTS: u32 = 250_000;
    let receipts: Vec<TxnReceipt> = (0..u64::from(RECEIPTS))
        .map(|i| {
            let id = TxnId::new(ClientId(i % 200_000), i / 200_000 + 1);
            TxnReceipt::committed(id, i, i + 10)
        })
        .collect();
    bench_batched_ops(
        "oracle_observe_250k",
        20,
        RECEIPTS,
        || (),
        |()| {
            let mut oracles = OracleSet::standard();
            oracles.observe_all(&receipts);
            oracles.finish(OracleContext {
                arrivals_issued: u64::from(RECEIPTS),
                events_clamped: 0,
            })
        },
    );
}

fn bench_plan_executor() {
    // The plan executor end to end: an 8-probe etcd θ-sweep, sequentially
    // (`jobs=1`) vs on the worker pool (`jobs=0` → all cores). Same seed,
    // byte-identical reports; the delta is the pool's win on this machine.
    let plan = Scenario {
        id: "B",
        title: "plan executor microbench",
        systems: vec![SystemEntry {
            spec: SystemSpec::new(SystemKind::Etcd),
            columns: vec![ColumnSpec::new("tps", Metric::ThroughputTps)],
        }],
        workload: WorkloadSpec::ycsb(YcsbMix::UpdateOnly).with_records(500),
        driver: DriverConfig::saturating(150),
        sweep: Sweep::Theta(vec![0.0, 0.2, 0.4, 0.5, 0.6, 0.8, 0.9, 1.0]),
        row_labels: None,
        faults: None,
        seed: 7,
    }
    .plan();
    let registry = SystemRegistry::with_builtins();
    bench("plan_sequential_8probe_etcd", 6, || {
        run_plan_with(&plan, &registry, &ExecOptions::with_jobs(1))
    });
    bench("plan_parallel_8probe_etcd", 6, || {
        run_plan_with(&plan, &registry, &ExecOptions::default())
    });
}

fn bench_end_to_end() {
    bench("end_to_end_quorum_update_200", 10, || {
        let mut system = Quorum::new(&SystemSpec::new(SystemKind::Quorum).with_blocks(50, 50_000));
        let mut workload = YcsbWorkload::new(YcsbConfig {
            record_count: 500,
            record_size: 200,
            mix: YcsbMix::UpdateOnly,
            ..YcsbConfig::default()
        });
        run_workload(&mut system, &mut workload, &DriverConfig::saturating(200))
    });
    bench("end_to_end_etcd_update_200", 10, || {
        let mut system = Etcd::new(&SystemSpec::new(SystemKind::Etcd));
        let mut workload = YcsbWorkload::new(YcsbConfig {
            record_count: 500,
            record_size: 200,
            mix: YcsbMix::UpdateOnly,
            ..YcsbConfig::default()
        });
        run_workload(&mut system, &mut workload, &DriverConfig::saturating(200))
    });
}

fn bench_state_sharing() {
    // What the plan executor pays per probe of a state group: the first
    // probe loads (MPT + LSM inserts of every record), every later one forks
    // the frozen state. The suite's YCSB shape: 5 000 records of 1 KB.
    let records = YcsbWorkload::new(YcsbConfig {
        record_count: 5_000,
        record_size: 1_024,
        ..YcsbConfig::default()
    })
    .initial_records();
    // A load ends with the first block's commit, which reads the state root
    // and so hashes every node the load left reachable; timing the load
    // without it would report deferred hashing as a saving.
    let (key, value) = records[0].clone();
    let first_block = [(
        Transaction::new(
            TxnId::new(ClientId(1), 1),
            vec![Operation::write(key, value)],
        ),
        10,
    )];
    bench("quorum_load_5k_1kb", 10, || {
        let mut system = Quorum::new(&SystemSpec::new(SystemKind::Quorum));
        system.load(&records);
        drive_arrivals(&mut system, first_block.clone());
        system
    });
    let mut loaded = Quorum::new(&SystemSpec::new(SystemKind::Quorum));
    loaded.load(&records);
    let shared = loaded.share_state().expect("Quorum shares its state");
    bench("quorum_fork_5k_1kb", 200, || {
        let mut system = Quorum::new(&SystemSpec::new(SystemKind::Quorum));
        assert!(system.adopt_state(&shared));
        system
    });
}

fn bench_payload_ownership() {
    // What a payload costs as it moves between layers: a key handle, a value
    // handle, one generated transaction (a key rendered on the stack plus the
    // generator's one shared filler; nothing is hashed) and freezing a full
    // 4 MB memtable into a run (its entries move; nothing is cloned).
    fn bench_clone<T: Clone>(name: &str, handle: &T) {
        const CLONES: u32 = 1_000;
        bench_batched_ops(
            name,
            2_000,
            CLONES,
            || (),
            |()| (0..CLONES).for_each(|_| drop(black_box(black_box(handle).clone()))),
        );
    }
    bench_clone("key_clone_16b", &YcsbWorkload::key_for(42));
    let value = Value::filler(1_024);
    bench_clone("value_clone_1kb", &value);
    let mut workload = YcsbWorkload::new(YcsbConfig {
        record_count: 100_000,
        record_size: 1_024,
        ..YcsbConfig::default()
    });
    let mut seq = 0;
    bench("ycsb_next_txn_1kb", 20_000, || {
        seq += 1;
        workload.next_transaction(ClientId(seq % 64), seq)
    });
    // scale01's transaction (one 64-byte update) generated into a batch kept
    // live, the way the driver holds transactions in flight; the batch is
    // dropped outside the timing.
    const BATCH: usize = 1_000;
    let mut scale01 = YcsbWorkload::new(YcsbConfig {
        record_count: 5_000,
        record_size: 64,
        ..YcsbConfig::default()
    });
    bench_batched_ops(
        "ycsb_next_transaction_1op",
        2_000,
        BATCH as u32,
        || Vec::with_capacity(BATCH),
        |mut batch| {
            for _ in 0..BATCH {
                seq += 1;
                batch.push(scale01.next_transaction(ClientId(seq % 64), seq));
            }
            batch
        },
    );
    bench_batched(
        "lsm_flush_4mb",
        20,
        || {
            // Default budget: 4 MB. 4 000 records stay just under it.
            let mut t = LsmTree::new();
            for i in 0..4_000 {
                t.put(YcsbWorkload::key_for(i), value.clone());
            }
            t
        },
        |mut t| {
            t.flush();
            t
        },
    );
}

fn main() {
    let mut filters: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            SMOKE.store(true, Ordering::Relaxed);
        } else if arg.starts_with("--") {
            eprintln!("unknown flag '{arg}'\nusage: microbench [--smoke] [FILTER...]");
            std::process::exit(2);
        } else {
            filters.push(arg);
        }
    }
    // Every number this run prints depends on the hash kernel; name the lane.
    eprintln!("sha256 kernel: {}", hash::kernel_name());
    let filters = FILTERS.get_or_init(|| filters);
    for group in [
        bench_hashing,
        bench_authenticated_indexes,
        bench_ledger,
        bench_storage_engines,
        bench_occ_validation,
        bench_consensus_profiles,
        bench_metric_sketches,
        bench_event_engine,
        bench_oracles,
        bench_plan_executor,
        bench_state_sharing,
        bench_payload_ownership,
        bench_end_to_end,
    ] {
        group();
    }
    if SELECTED.load(Ordering::Relaxed) == 0 {
        eprintln!("no benchmark name contains any of {filters:?}");
        std::process::exit(2);
    }
}
