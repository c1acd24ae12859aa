//! Tracing from outside the program: spans around the calls into each layer.
//!
//! The simulator bans wall clocks in its sim-clock crates (lint D004), so the
//! timers live here and wrap the two trait-object boundaries a probe crosses:
//! [`TimedSystem`] decorates `dyn TransactionalSystem`, [`TimedWorkload`]
//! decorates `dyn Workload`. [`traced_pass`] is a mirror of
//! `core::scenario::observe` (which is private) that executes each distinct
//! probe of a workload once with the decorators in place. Its results are
//! handed back to the *real* `run_plans_with` through an in-memory
//! [`ProbeCache`], so report assembly, rendering and JSON emission still run
//! the production code and the output digest can be compared with an
//! undecorated run — the decorators cannot perturb results unnoticed and the
//! mirror cannot drift from the real path unnoticed.
//!
//! Phase-level spans (name, start, end, parent, probe) are kept in memory;
//! per-call boundaries — millions per run — are folded into a count and a
//! total. A layer's self time is its spans' duration minus their children.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use dichotomy_core::common::size::{StorageBreakdown, StorageFootprint};
use dichotomy_core::common::{ClientId, Hash, Key, Transaction, TxnReceipt, Value};
use dichotomy_core::driver::run_workload;
use dichotomy_core::experiments::RowSeries;
use dichotomy_core::hybrid::{all_systems, forecast_throughput, HybridSpec};
use dichotomy_core::merkle::{MerkleBucketTree, MerklePatriciaTrie};
use dichotomy_core::metrics::Metrics;
use dichotomy_core::scenario::{probe_key_bytes, ExperimentPlan, Probe, ProbeCache, ProbeResult};
use dichotomy_core::simnet::engine::StageEvent;
use dichotomy_core::simnet::{CostModel, NetworkConfig};
use dichotomy_core::systems::pipeline::{Completion, Engine};
use dichotomy_core::systems::{SystemKind, SystemRegistry, SystemSpec, TransactionalSystem};
use dichotomy_core::workload::Workload;

use crate::jsonio::Json;

/// One recorded interval. Folded spans stand for `count` calls whose
/// durations sum to `end_ns - start_ns`; only their total is meaningful.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name (`systems.load`, `driver.run_workload`, …).
    pub name: &'static str,
    /// Start, in nanoseconds since the trace's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace's origin.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Index of the distinct probe the span belongs to (its shared id).
    pub probe: Option<usize>,
    /// Calls folded into this span (1 for a plain span).
    pub count: u64,
}

fn since(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

/// The in-memory span store of one traced run.
pub struct Trace {
    origin: Instant,
    /// Every span recorded so far.
    pub spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Trace {
    /// Nanoseconds since the trace began.
    pub fn now(&self) -> u64 {
        since(self.origin)
    }

    /// Record a finished span and return its id.
    pub fn push(
        &mut self,
        name: &'static str,
        (start_ns, end_ns): (u64, u64),
        parent: Option<usize>,
        probe: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            probe,
            count: 1,
        });
        self.spans.len() - 1
    }

    /// Record `folded` as a child of `parent` (skipped when nothing ran).
    fn push_folded(&mut self, name: &'static str, folded: Folded, parent: usize, probe: usize) {
        if folded.count > 0 {
            let start_ns = self.spans[parent].start_ns;
            let id = self.push(
                name,
                (start_ns, start_ns + folded.total_ns),
                Some(parent),
                Some(probe),
            );
            self.spans[id].count = folded.count;
        }
    }

    /// Open a span now; [`close`](Self::close) stamps its end.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        probe: Option<usize>,
    ) -> usize {
        let now = self.now();
        self.push(name, (now, now), parent, probe)
    }

    /// Close a span opened with [`open`](Self::open).
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Seconds of self time per span name: duration minus children.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut own: Vec<i128> = self
            .spans
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as i128)
            .collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] -= (span.end_ns - span.start_ns) as i128;
            }
        }
        let mut by_name = BTreeMap::new();
        for (span, ns) in self.spans.iter().zip(own) {
            *by_name.entry(span.name).or_insert(0.0) += ns as f64 / 1e9;
        }
        by_name
    }

    /// Seconds of total duration of the spans named `name`.
    pub fn total_seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |total, s| total + (s.end_ns - s.start_ns) as f64 / 1e9)
    }

    /// The spans as a JSON array (written to `out/trace-<workload>.json`).
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("probe", s.probe.map_or(Json::Null, |p| Json::Num(p as f64))),
                        ("count", Json::Num(s.count as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// A per-call boundary folded into a call count and a total duration.
#[derive(Debug, Clone, Copy, Default)]
pub struct Folded {
    /// Calls observed.
    pub count: u64,
    /// Summed duration of the calls (ns).
    pub total_ns: u64,
}

impl Folded {
    fn time<R>(&mut self, call: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let result = call();
        self.total_ns += started.elapsed().as_nanos() as u64;
        self.count += 1;
        result
    }
}

/// Timing decorator around a boxed system model.
struct TimedSystem {
    inner: Box<dyn TransactionalSystem>,
    origin: Instant,
    load: Option<(u64, u64)>,
    records_loaded: u64,
    on_arrival: Folded,
    on_stage: Folded,
    on_drain: Folded,
    receipts_seen: u64,
    /// The first receipts the run surfaced, kept for the metrics/oracle
    /// replays (bounded, so a million-transaction run stays O(1) here).
    sample: Vec<TxnReceipt>,
    sample_room: usize,
}

impl TimedSystem {
    fn keep(&mut self, receipts: &[TxnReceipt]) {
        self.receipts_seen += receipts.len() as u64;
        let take = receipts.len().min(self.sample_room);
        self.sample.extend_from_slice(&receipts[..take]);
        self.sample_room -= take;
    }
}

impl TransactionalSystem for TimedSystem {
    fn kind(&self) -> SystemKind {
        self.inner.kind()
    }

    fn load(&mut self, records: &[(Key, Value)]) {
        let start = since(self.origin);
        self.inner.load(records);
        self.load = Some((start, since(self.origin)));
        self.records_loaded += records.len() as u64;
    }

    fn attach(&mut self, engine: &mut Engine) {
        self.inner.attach(engine);
    }

    fn on_arrival(&mut self, txn: Transaction, engine: &mut Engine) {
        let inner = &mut self.inner;
        self.on_arrival.time(|| inner.on_arrival(txn, engine));
    }

    fn on_stage(&mut self, event: StageEvent, engine: &mut Engine) {
        let inner = &mut self.inner;
        self.on_stage.time(|| inner.on_stage(event, engine));
    }

    fn on_drain(&mut self, engine: &mut Engine) {
        let inner = &mut self.inner;
        self.on_drain.time(|| inner.on_drain(engine));
    }

    fn drain_receipts(&mut self) -> Vec<TxnReceipt> {
        let receipts = self.inner.drain_receipts();
        self.keep(&receipts);
        receipts
    }

    fn take_completions(&mut self) -> Vec<Completion> {
        self.inner.take_completions()
    }

    // The two swap-drains forward to the model's own implementation, so the
    // allocation-free hot path the driver relies on stays in place.
    fn drain_completions(&mut self, buf: &mut Vec<Completion>) {
        self.inner.drain_completions(buf);
    }

    fn drain_receipts_into(&mut self, buf: &mut Vec<TxnReceipt>) {
        self.inner.drain_receipts_into(buf);
        if !buf.is_empty() {
            self.keep(buf);
        }
    }

    fn footprint(&self) -> StorageBreakdown {
        self.inner.footprint()
    }

    fn node_count(&self) -> usize {
        self.inner.node_count()
    }
}

/// Events dispatched to models built by [`counting`]'s registry.
static EVENTS: AtomicU64 = AtomicU64::new(0);

/// A model that counts the events dispatched to it and nothing else.
struct CountedSystem(Box<dyn TransactionalSystem>);

impl TransactionalSystem for CountedSystem {
    fn kind(&self) -> SystemKind {
        self.0.kind()
    }
    fn load(&mut self, records: &[(Key, Value)]) {
        self.0.load(records);
    }
    fn attach(&mut self, engine: &mut Engine) {
        self.0.attach(engine);
    }
    fn on_arrival(&mut self, txn: Transaction, engine: &mut Engine) {
        // A statistic: nothing is published through the counter.
        EVENTS.fetch_add(1, Ordering::Relaxed);
        self.0.on_arrival(txn, engine);
    }
    fn on_stage(&mut self, event: StageEvent, engine: &mut Engine) {
        EVENTS.fetch_add(1, Ordering::Relaxed);
        self.0.on_stage(event, engine);
    }
    fn on_drain(&mut self, engine: &mut Engine) {
        self.0.on_drain(engine);
    }
    fn drain_receipts(&mut self) -> Vec<TxnReceipt> {
        self.0.drain_receipts()
    }
    fn take_completions(&mut self) -> Vec<Completion> {
        self.0.take_completions()
    }
    fn drain_completions(&mut self, buf: &mut Vec<Completion>) {
        self.0.drain_completions(buf);
    }
    fn drain_receipts_into(&mut self, buf: &mut Vec<TxnReceipt>) {
        self.0.drain_receipts_into(buf);
    }
    fn footprint(&self) -> StorageBreakdown {
        self.0.footprint()
    }
    fn node_count(&self) -> usize {
        self.0.node_count()
    }
}

fn build_counted(spec: &SystemSpec) -> Box<dyn TransactionalSystem> {
    let built = SystemRegistry::with_builtins()
        .build(spec)
        .expect("only built-in kinds are registered for counting");
    Box::new(CountedSystem(built))
}

/// Run `work` against a registry whose models count the events dispatched to
/// them, and return that count with `work`'s result. Every engine pop is one
/// `on_arrival` or `on_stage` call, so the count equals the summed
/// `RunStats::events_delivered` of the probes `work` executed — through the
/// real `run_plans_with`, on however many workers. Registry builders are
/// plain `fn` pointers, hence the process-wide counter; concurrent callers
/// take turns.
pub fn counting<R>(work: impl FnOnce(&SystemRegistry) -> R) -> (R, u64) {
    static TURN: Mutex<()> = Mutex::new(());
    let _turn = TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let mut registry = SystemRegistry::new();
    for kind in SystemKind::ALL {
        registry.register(kind, build_counted);
    }
    EVENTS.store(0, Ordering::Relaxed);
    let result = work(&registry);
    (result, EVENTS.load(Ordering::Relaxed))
}

/// Timing decorator around a boxed workload generator.
struct TimedWorkload {
    inner: Box<dyn Workload>,
    origin: Instant,
    initial_records: Cell<Option<(u64, u64)>>,
    next_txn: Folded,
}

impl Workload for TimedWorkload {
    fn initial_records(&self) -> Vec<(Key, Value)> {
        let start = since(self.origin);
        let records = self.inner.initial_records();
        self.initial_records.set(Some((start, since(self.origin))));
        records
    }

    fn next_transaction(&mut self, client: ClientId, seq: u64) -> Transaction {
        let inner = &mut self.inner;
        self.next_txn.time(|| inner.next_transaction(client, seq))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// An in-memory [`ProbeCache`]: how the traced pass hands its results to the
/// real `run_plans_with`.
#[derive(Default)]
pub struct MemCache {
    results: Mutex<HashMap<Vec<u8>, ProbeResult>>,
}

impl MemCache {
    /// Every stored `(key, result)` pair, in key order (stable across runs).
    pub fn entries(&self) -> Vec<(Vec<u8>, ProbeResult)> {
        let mut entries: Vec<_> = self
            .results
            .lock()
            .expect("no panic while the cache lock is held")
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries
    }
}

impl ProbeCache for MemCache {
    fn load(&self, key: &[u8]) -> Option<ProbeResult> {
        self.results
            .lock()
            .expect("no panic while the cache lock is held")
            .get(key)
            .cloned()
    }

    fn store(&self, key: &[u8], result: &ProbeResult) {
        self.results
            .lock()
            .expect("no panic while the cache lock is held")
            .insert(key.to_vec(), result.clone());
    }
}

/// The receipts one probe surfaced (a bounded prefix), with what the
/// metrics layer needs to replay them.
pub struct ReceiptSample {
    /// The receipts, in surfacing order.
    pub receipts: Vec<TxnReceipt>,
    /// The window width the probe's time series used (µs).
    pub window_us: u64,
}

/// What a traced pass learned, besides its spans.
#[derive(Default)]
pub struct PassFacts {
    /// Results of every probe that succeeded, keyed by probe content.
    pub cache: MemCache,
    /// Distinct probes executed.
    pub probes_distinct: u64,
    /// Simulated events the engines delivered (exact, seeded).
    pub events_delivered: u64,
    /// Simulated events clamped to the clock (exact; 0 on healthy runs).
    pub events_clamped: u64,
    /// Summed simulated makespan of the driving probes (µs).
    pub sim_makespan_us: u64,
    /// Receipts the runs surfaced (exact).
    pub receipts: u64,
    /// Records bulk-loaded by `TransactionalSystem::load`.
    pub records_loaded: u64,
    /// `Workload::next_transaction` calls.
    pub next_txn_calls: u64,
    /// Bounded receipt samples, one per driving probe that had any.
    pub samples: Vec<ReceiptSample>,
    /// Host seconds in `load`, per system kind slug.
    pub load_s_by_kind: BTreeMap<&'static str, f64>,
    /// Host seconds in `on_arrival` + `on_stage` + `on_drain`, per kind slug.
    pub handler_s_by_kind: BTreeMap<&'static str, f64>,
    /// Host seconds of probe wall per experiment key.
    pub wall_s_by_experiment: BTreeMap<&'static str, f64>,
    /// A sample driving probe's YCSB skew and record count (for the
    /// isolated Zipf measurement).
    pub zipf_shape: Option<(f64, u64)>,
}

/// Receipts kept per pass for the metrics/oracle replays.
pub const RECEIPT_SAMPLE_CAP: usize = 200_000;

/// Execute every distinct probe of `plans` once, decorated, recording spans
/// under `parent`. `sample_cap` bounds the receipts retained (0 keeps none —
/// the untraced warm-up uses that so it adds nothing to peak memory).
///
/// A probe that panics is left out of the cache, so the real
/// `run_plans_with` re-executes it and reports the failure the production
/// way.
pub fn traced_pass(
    plans: &[(&'static str, ExperimentPlan)],
    registry: &SystemRegistry,
    trace: &mut Trace,
    parent: usize,
    sample_cap: usize,
) -> PassFacts {
    let mut facts = PassFacts::default();
    let mut sample_room = sample_cap;
    for (experiment, plan) in plans {
        for run in plan.rows.iter().flat_map(|row| &row.runs) {
            let key = probe_key_bytes(&run.probe);
            if facts.cache.load(&key).is_some() {
                continue;
            }
            let probe_id = facts.probes_distinct as usize;
            facts.probes_distinct += 1;
            let span = trace.open("harness.probe", Some(parent), Some(probe_id));
            let result = catch_unwind(AssertUnwindSafe(|| {
                observe(
                    &run.probe,
                    registry,
                    trace,
                    (span, probe_id),
                    &mut facts,
                    &mut sample_room,
                )
            }));
            trace.close(span);
            let wall = &trace.spans[span];
            *facts.wall_s_by_experiment.entry(experiment).or_insert(0.0) +=
                (wall.end_ns - wall.start_ns) as f64 / 1e9;
            if let Ok(result) = result {
                facts.cache.store(&key, &result);
            }
        }
    }
    facts
}

/// The mirror of `core::scenario::observe`, with the decorators in place.
/// Keep it in step with that function; `tests/fidelity.rs` and the digest
/// check of every benchmark run fail when it drifts.
fn observe(
    probe: &Probe,
    registry: &SystemRegistry,
    trace: &mut Trace,
    (parent, probe_id): (usize, usize),
    facts: &mut PassFacts,
    sample_room: &mut usize,
) -> ProbeResult {
    let at = (Some(parent), Some(probe_id));
    match probe {
        Probe::Drive {
            system,
            workload,
            driver,
        } => {
            let span = trace.open("systems.build", at.0, at.1);
            let built = registry
                .build(system)
                .unwrap_or_else(|e| panic!("cannot build {}: {e}", system.label()));
            trace.close(span);
            let span = trace.open("workload.build", at.0, at.1);
            let generator = workload.build();
            trace.close(span);

            let run_span = trace.open("driver.run_workload", at.0, at.1);
            let mut sys = TimedSystem {
                inner: built,
                origin: trace.origin,
                load: None,
                records_loaded: 0,
                on_arrival: Folded::default(),
                on_stage: Folded::default(),
                on_drain: Folded::default(),
                receipts_seen: 0,
                sample: Vec::new(),
                sample_room: *sample_room,
            };
            let mut wl = TimedWorkload {
                inner: generator,
                origin: trace.origin,
                initial_records: Cell::new(None),
                next_txn: Folded::default(),
            };
            let stats = run_workload(&mut sys, &mut wl, driver);
            trace.close(run_span);
            if let Some(times) = wl.initial_records.get() {
                trace.push("workload.initial_records", times, Some(run_span), at.1);
            }
            if let Some(times) = sys.load {
                trace.push("systems.load", times, Some(run_span), at.1);
            }
            trace.push_folded("systems.on_arrival", sys.on_arrival, run_span, probe_id);
            trace.push_folded("systems.on_stage", sys.on_stage, run_span, probe_id);
            trace.push_folded("systems.drain", sys.on_drain, run_span, probe_id);
            trace.push_folded("workload.next_txn", wl.next_txn, run_span, probe_id);

            if let Some(v) = stats.oracles.violations().next() {
                panic!(
                    "oracle '{}' violated: {}",
                    v.name,
                    v.violation.as_deref().unwrap_or("unspecified")
                );
            }
            let span = trace.open("systems.footprint", at.0, at.1);
            let footprint = sys.inner.footprint();
            trace.close(span);
            // Tearing the model's state down is the model's cost too; the
            // real `observe` pays it when its `sys` goes out of scope.
            let span = trace.open("systems.drop", at.0, at.1);
            drop(sys.inner);
            trace.close(span);

            let slug = system.kind.slug();
            let seconds = |ns: u64| ns as f64 / 1e9;
            *facts.load_s_by_kind.entry(slug).or_insert(0.0) +=
                sys.load.map_or(0.0, |(s, e)| seconds(e - s));
            *facts.handler_s_by_kind.entry(slug).or_insert(0.0) +=
                seconds(sys.on_arrival.total_ns + sys.on_stage.total_ns + sys.on_drain.total_ns);
            facts.events_delivered += stats.events_delivered;
            facts.events_clamped += stats.events_clamped;
            facts.sim_makespan_us += stats.makespan_us;
            facts.receipts += sys.receipts_seen;
            facts.records_loaded += sys.records_loaded;
            facts.next_txn_calls += wl.next_txn.count;
            *sample_room = sys.sample_room;
            if !sys.sample.is_empty() {
                facts.samples.push(ReceiptSample {
                    receipts: sys.sample,
                    window_us: stats.series.window_us,
                });
            }
            if let dichotomy_core::workload::WorkloadSpec::Ycsb(config) = workload {
                facts
                    .zipf_shape
                    .get_or_insert((config.zipf_theta, config.record_count));
            }
            ProbeResult {
                metrics: stats.metrics,
                footprint,
                records: driver.transactions,
                extras: Vec::new(),
                series: Some(RowSeries {
                    name: system.label(),
                    events_clamped: stats.events_clamped,
                    oracles: stats.oracles,
                    series: stats.series,
                }),
            }
        }
        Probe::AdrOverhead {
            records,
            record_size,
        } => {
            let span = trace.open("merkle.adr_probe", at.0, at.1);
            let mut mbt = MerkleBucketTree::fabric_default();
            let mut mpt = MerklePatriciaTrie::new();
            for i in 0..*records {
                let key = Key::new(Hash::of(&i.to_be_bytes()).0[..16].to_vec());
                let value = Value::filler(*record_size);
                mbt.put(&key, &value);
                mpt.insert(&key, &value);
            }
            let per_rec = |fp: StorageBreakdown| fp.total() as f64 / (*records).max(1) as f64;
            let extras = vec![
                (
                    "mbt_b_per_rec".to_string(),
                    *record_size as f64 + per_rec(mbt.footprint()),
                ),
                ("mpt_b_per_rec".to_string(), per_rec(mpt.footprint())),
            ];
            trace.close(span);
            ProbeResult {
                metrics: Metrics::default(),
                footprint: StorageBreakdown::default(),
                records: *records,
                extras,
                series: None,
            }
        }
        Probe::Forecast { profile } => {
            let span = trace.open("hybrid.forecast_probe", at.0, at.1);
            let profiles = all_systems();
            let p = profiles
                .iter()
                .find(|s| s.name == *profile)
                .unwrap_or_else(|| panic!("unknown Table 2 profile '{profile}'"));
            let spec = HybridSpec::from_profile(p);
            let forecast =
                forecast_throughput(&spec, &NetworkConfig::lan_1gbps(), &CostModel::calibrated());
            let extras = vec![
                ("band".to_string(), spec.band() as u8 as f64),
                ("forecast_tps".to_string(), forecast),
                (
                    "reported_tps".to_string(),
                    p.reported_tps.unwrap_or(f64::NAN),
                ),
            ];
            trace.close(span);
            ProbeResult {
                metrics: Metrics::default(),
                footprint: StorageBreakdown::default(),
                records: 0,
                extras,
                series: None,
            }
        }
    }
}
