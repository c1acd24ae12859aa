//! Metamorphic relation behind the state-grouped executor: a probe measured
//! on a *fork* of a shared loaded state produces exactly the bytes it
//! produces on a freshly built and loaded system — for every model, workload
//! family and fault setting, for the system that built the shared state as
//! well as for its adopters, and whether or not a model shares at all.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use dichotomy_common::size::StorageBreakdown;
use dichotomy_common::{Encode, Key, NodeId, Transaction, TxnReceipt, Value};
use dichotomy_core::scenario::{
    probe_key_bytes, run_plan_with, ExperimentPlan, PlannedRow, PlannedRun, Probe, ProbeCache,
    ProbeResult,
};
use dichotomy_core::{ArrivalSpec, DriverConfig, ExecOptions};
use dichotomy_simnet::{FaultPlan, NodeFault, StageEvent};
use dichotomy_systems::{
    Completion, Engine, SystemKind, SystemRegistry, SystemSpec, TransactionalSystem,
};
use dichotomy_workload::{WorkloadSpec, YcsbMix};

/// Captures every executed probe's canonical result bytes, by probe key.
#[derive(Default)]
struct Capture(Mutex<BTreeMap<Vec<u8>, Vec<u8>>>);

impl ProbeCache for Capture {
    fn load(&self, _key: &[u8]) -> Option<ProbeResult> {
        None
    }
    fn store(&self, key: &[u8], result: &ProbeResult) {
        let previous = self.0.lock().unwrap().insert(key.to_vec(), result.encode());
        assert!(previous.is_none(), "a probe executed twice");
    }
}

/// Execute `probes` as one plan on one worker; result bytes by probe key.
fn measure(probes: &[Probe], registry: &SystemRegistry) -> BTreeMap<Vec<u8>, Vec<u8>> {
    let plan = ExperimentPlan {
        id: "M",
        title: "shared vs fresh",
        rows: probes
            .iter()
            .enumerate()
            .map(|(i, probe)| PlannedRow {
                label: format!("row {i}"),
                runs: vec![PlannedRun {
                    probe: probe.clone(),
                    columns: Vec::new(),
                }],
            })
            .collect(),
        text: None,
        diagnostics: Vec::new(),
    };
    let capture = Capture::default();
    let options = ExecOptions {
        jobs: 1,
        cache: Some(&capture),
        ..ExecOptions::default()
    };
    let report = run_plan_with(&plan, registry, &options);
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    capture.0.into_inner().unwrap()
}

/// Three probes of one state group that differ in everything else a sweep
/// varies: seed, skew, replica count — the first builds the shared state and
/// keeps running on it, the other two adopt it.
fn group(kind: SystemKind, workload: &WorkloadSpec, faults: &FaultPlan) -> Vec<Probe> {
    let driver = DriverConfig {
        transactions: 120,
        arrival: ArrivalSpec::OpenLoop {
            offered_tps: 20_000.0,
        },
        ..DriverConfig::default()
    };
    [(11, 0.0, 3), (12, 0.6, 5), (13, 0.99, 4)]
        .into_iter()
        .map(|(seed, theta, nodes)| Probe::Drive {
            system: SystemSpec::new(kind)
                .with_nodes(nodes)
                .with_faults(faults.clone())
                .with_seed(seed),
            workload: workload.clone().with_theta(theta).with_seed(seed),
            driver: driver.clone().with_seed(seed),
        })
        .collect()
}

#[test]
fn a_forked_system_measures_exactly_what_a_freshly_loaded_one_does() {
    let registry = SystemRegistry::with_builtins();
    let workloads = [
        WorkloadSpec::ycsb(YcsbMix::UpdateOnly)
            .with_records(300)
            .with_record_size(120),
        WorkloadSpec::ycsb(YcsbMix::Mixed { read_fraction: 0.5 })
            .with_records(300)
            .with_ops_per_txn(3),
        WorkloadSpec::smallbank().with_records(150),
    ];
    // The arrival horizon is 6 ms; the primary is down for the middle third.
    let mut crash = FaultPlan::none();
    crash.add(NodeFault::crash_until(NodeId(0), 2_000, 4_000));
    for kind in SystemKind::ALL {
        for workload in &workloads {
            for faults in [FaultPlan::none(), crash.clone()] {
                let probes = group(kind, workload, &faults);
                let shared = measure(&probes, &registry);
                assert_eq!(shared.len(), 3);
                for probe in &probes {
                    let fresh = measure(std::slice::from_ref(probe), &registry);
                    let key = probe_key_bytes(probe);
                    assert!(
                        shared[&key] == fresh[&key],
                        "{kind:?} / {} / faults={}: a shared state changed the result",
                        workload.name(),
                        !faults.is_empty()
                    );
                }
            }
        }
    }
}

static LOADS: AtomicU64 = AtomicU64::new(0);

/// A decorator in the style of the benchmark harness's: it forwards the
/// required methods only, so the two defaulted sharing methods decline and
/// every probe behind it must be loaded for itself.
struct Opaque(Box<dyn TransactionalSystem>);

impl TransactionalSystem for Opaque {
    fn kind(&self) -> SystemKind {
        self.0.kind()
    }
    fn load(&mut self, records: &[(Key, Value)]) {
        LOADS.fetch_add(1, Ordering::Relaxed);
        self.0.load(records);
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

#[test]
fn a_model_that_does_not_share_is_loaded_per_probe_with_the_same_results() {
    fn opaque(spec: &SystemSpec) -> Box<dyn TransactionalSystem> {
        Box::new(Opaque(spec.build().unwrap()))
    }
    let mut registry = SystemRegistry::with_builtins();
    registry.register(SystemKind::Quorum, opaque);
    let workload = WorkloadSpec::ycsb(YcsbMix::UpdateOnly).with_records(200);
    let probes = group(SystemKind::Quorum, &workload, &FaultPlan::none());
    let behind_the_decorator = measure(&probes, &registry);
    assert_eq!(LOADS.load(Ordering::Relaxed), 3);
    assert!(
        behind_the_decorator == measure(&probes, &SystemRegistry::with_builtins()),
        "loading per probe changed a result"
    );
}
