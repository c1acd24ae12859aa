//! The plan executor loads each distinct state once: over the `--quick`
//! plans of every experiment, `TransactionalSystem::load` runs exactly once
//! per state group on one worker, at most once per batch on several, and
//! never for a probe the cache answers.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use dichotomy_bench::{plan_for, RunOptions, EXPERIMENTS};
use dichotomy_core::common::size::StorageBreakdown;
use dichotomy_core::common::{sha256, Encode, Key, Transaction, TxnReceipt, Value};
use dichotomy_core::scenario::{
    probe_key_bytes, run_plans_with, state_group_key, ExecOptions, ExperimentPlan, PlanOutcome,
    Probe, ProbeCache, ProbeResult,
};
use dichotomy_core::simnet::StageEvent;
use dichotomy_core::systems::{
    Completion, Engine, SharedState, SystemKind, SystemRegistry, SystemSpec, TransactionalSystem,
};
use dichotomy_explore::{run_explore, ExploreSpec};

static LOADS: AtomicU64 = AtomicU64::new(0);
static RECORDS: AtomicU64 = AtomicU64::new(0);

/// Counts `load` calls and records; unlike the benchmark harness's
/// decorators it forwards `share_state`/`adopt_state`, so the models behind
/// it share state the way undecorated ones do.
struct CountingLoads(Box<dyn TransactionalSystem>);

impl TransactionalSystem for CountingLoads {
    fn kind(&self) -> SystemKind {
        self.0.kind()
    }
    fn load(&mut self, records: &[(Key, Value)]) {
        LOADS.fetch_add(1, Ordering::Relaxed);
        RECORDS.fetch_add(records.len() as u64, Ordering::Relaxed);
        self.0.load(records);
    }
    fn share_state(&mut self) -> Option<SharedState> {
        self.0.share_state()
    }
    fn adopt_state(&mut self, state: &SharedState) -> bool {
        self.0.adopt_state(state)
    }
    fn attach(&mut self, engine: &mut Engine) {
        self.0.attach(engine);
    }
    fn on_arrival(&mut self, txn: Transaction, engine: &mut Engine) {
        self.0.on_arrival(txn, engine);
    }
    fn on_stage(&mut self, event: StageEvent, engine: &mut Engine) {
        self.0.on_stage(event, engine);
    }
    fn on_drain(&mut self, engine: &mut Engine) {
        self.0.on_drain(engine);
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

fn build_counting(spec: &SystemSpec) -> Box<dyn TransactionalSystem> {
    Box::new(CountingLoads(
        SystemRegistry::with_builtins().build(spec).unwrap(),
    ))
}

#[derive(Default)]
struct MemCache(Mutex<BTreeMap<Vec<u8>, ProbeResult>>);

impl ProbeCache for MemCache {
    fn load(&self, key: &[u8]) -> Option<ProbeResult> {
        self.0.lock().unwrap().get(key).cloned()
    }
    fn store(&self, key: &[u8], result: &ProbeResult) {
        self.0.lock().unwrap().insert(key.to_vec(), result.clone());
    }
}

/// `(loads, records loaded, outcomes)` of one execution of `plans`.
fn counted(plans: &[&ExperimentPlan], options: &ExecOptions) -> (u64, u64, Vec<PlanOutcome>) {
    let mut registry = SystemRegistry::new();
    for kind in SystemKind::ALL {
        registry.register(kind, build_counting);
    }
    LOADS.store(0, Ordering::Relaxed);
    RECORDS.store(0, Ordering::Relaxed);
    let outcomes = run_plans_with(plans, &registry, options);
    assert!(outcomes.iter().all(|o| o.report.failures.is_empty()));
    (
        LOADS.load(Ordering::Relaxed),
        RECORDS.load(Ordering::Relaxed),
        outcomes,
    )
}

/// SHA-256 (hex) over the concatenation of `parts`.
fn digest(parts: impl Iterator<Item = Vec<u8>>) -> String {
    sha256(&parts.flatten().collect::<Vec<u8>>()).to_hex()
}

// One test: the counters are process-wide (registry builders are plain `fn`
// pointers), so the phases must not overlap.
#[test]
fn the_quick_suite_loads_each_distinct_state_once() {
    let opts = RunOptions {
        seed: 7,
        ..RunOptions::quick()
    };
    let plans: Vec<ExperimentPlan> = EXPERIMENTS
        .iter()
        .map(|id| plan_for(id, &opts).unwrap())
        .collect();
    let refs: Vec<&ExperimentPlan> = plans.iter().collect();

    // What the suite asks for, from the plans alone.
    let probes = || {
        plans
            .iter()
            .flat_map(|p| &p.rows)
            .flat_map(|r| &r.runs)
            .map(|run| &run.probe)
    };
    let records_of = |probe: &Probe| match probe {
        Probe::Drive { workload, .. } => workload.build().initial_records().len() as u64,
        _ => 0,
    };
    let distinct: BTreeSet<Vec<u8>> = probes().map(probe_key_bytes).collect();
    let mut preloading_probes: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
    let mut groups: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
    for probe in probes() {
        if let Some(group) = state_group_key(probe) {
            preloading_probes.insert(probe_key_bytes(probe), records_of(probe));
            groups.insert(group, records_of(probe));
        }
    }
    // Loading per distinct probe, as the executor did before state groups
    // (Smallbank pre-loads two records per account).
    assert_eq!(preloading_probes.len(), 192);
    assert_eq!(preloading_probes.values().sum::<u64>(), 1_065_000);
    assert_eq!(groups.len(), 51);
    assert_eq!(groups.values().sum::<u64>(), 360_000);

    // Byte goldens, recorded at 6dc1462: every probe's identity in plan
    // order. A reordered, retyped or dropped field in any spec's codec
    // declaration moves a digest. The probe keys were re-recorded when
    // `DriverConfig`, `ArrivalSpec::ClosedLoop` and `SystemSpec` dropped
    // the fields every plan left at one value.
    assert_eq!(
        digest(probes().map(probe_key_bytes)),
        "cffbe29bd4c0323810882feae3b77789f07810a0526b58e8a99427482a45c1eb"
    );
    assert_eq!(
        digest(probes().filter_map(state_group_key)),
        "acc2f539aba54f08fd4657bcb2b37ed6c8a9cd242977fba9fc7fcc3b174cca21"
    );

    // One worker, cold cache: one load per group, and every executed probe
    // still reports its own wall (the first of a batch carries the build).
    let cache = MemCache::default();
    let cached = |jobs| ExecOptions {
        jobs,
        cache: Some(&cache),
        ..ExecOptions::default()
    };
    let (loads, records, cold) = counted(&refs, &cached(1));
    assert_eq!((loads, records), (51, 360_000));
    let calibrated: usize = cold.iter().map(|o| o.calibration.len()).sum();
    assert_eq!(calibrated, distinct.len());
    assert!(cold
        .iter()
        .flat_map(|o| &o.calibration)
        .all(|c| c.wall_ms > 0.0));
    // The third golden: the `Encode` bytes of every result the suite
    // produced (what the persistent cache stores), in probe-key order.
    let results = cache.0.lock().unwrap();
    assert_eq!(results.len(), distinct.len());
    assert_eq!(
        digest(results.values().map(Encode::encode)),
        "55cab5488015421924ccb1fcac24fbd2f087edc6374623c94b2e7f072f55e9ca"
    );
    drop(results);

    // Warm cache: nothing executes, so no state is ever built.
    let (loads, _, warm) = counted(&refs, &cached(1));
    assert_eq!(loads, 0);
    assert!(warm.iter().all(|o| o.calibration.is_empty()));
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(c.report, w.report);
    }

    // Several workers: a group over its fair share is split, each batch
    // loading its own copy — at most `jobs` extra batches in total.
    for jobs in [2u64, 4] {
        let (loads, _, pooled) = counted(&refs, &ExecOptions::with_jobs(jobs as usize));
        assert!(
            (51..=51 + jobs).contains(&loads),
            "jobs={jobs}: {loads} loads"
        );
        for (c, p) in cold.iter().zip(&pooled) {
            assert_eq!(c.report, p.report, "jobs={jobs}");
        }
        let calibrated: usize = pooled.iter().map(|o| o.calibration.len()).sum();
        assert_eq!(calibrated, distinct.len());
    }
}

/// The fourth golden, recorded at 62d9962: the `Encode` bytes of every result
/// the quick explorer measures, in probe-key order. Its 4-node etcd, TiKV,
/// Fabric, TiDB, Spanner-like, AHL and Raft-Quorum deployments are built
/// nowhere in the quick suite, so this pins how those specs become models.
#[test]
fn the_quick_explorer_measures_the_same_bytes() {
    let cache = MemCache::default();
    let options = ExecOptions {
        jobs: 1,
        cache: Some(&cache),
        ..ExecOptions::default()
    };
    let spec = ExploreSpec::quick(300, 7);
    let outcome = run_explore(&spec, &SystemRegistry::with_builtins(), &options).unwrap();
    assert!(!outcome.designs.is_empty());
    let results = cache.0.lock().unwrap();
    assert_eq!(results.len(), 20);
    assert_eq!(
        digest(results.values().map(Encode::encode)),
        "ee3834c4cbdb787684aca0c882b99b4252a7a7396beb0e42cb73a40f0f4bc776"
    );
}
