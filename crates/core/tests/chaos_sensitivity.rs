//! Oracle-sensitivity tests: each corruption a buggy model could commit is
//! injected into an otherwise-healthy receipt stream and must be caught by
//! exactly the invariant oracle built to see it, as a labelled probe failure.
//!
//! The vehicle is a wrapper [`TransactionalSystem`] that delegates every
//! callback to a real etcd model and applies one corruption to a batch its
//! [`drain_receipts_into`](TransactionalSystem::drain_receipts_into) returns
//! — so everything the driver measures is genuine queueing, and only the
//! receipt stream lies. Each case runs under both metrics modes: exact runs
//! drain the receipts once, at the end, and streaming runs drain them in
//! small batches while the run is live.

use dichotomy_core::scenario::{ColumnSpec, Metric, Probe, Scenario, Sweep, SystemEntry};
use dichotomy_core::{run_plan_with, ExecOptions, MetricsMode};
use dichotomy_simnet::StageEvent;
use dichotomy_systems::{
    Completion, Engine, SystemKind, SystemRegistry, SystemSpec, TransactionalSystem,
};
use dichotomy_workload::{WorkloadSpec, YcsbMix};

use dichotomy_common::size::StorageBreakdown;
use dichotomy_common::{Key, Transaction, TxnReceipt, Value};
use dichotomy_core::DriverConfig;

/// Which lie the wrapper tells about its receipt stream.
#[derive(Clone, Copy)]
enum Corruption {
    /// Drop the last receipt: a transaction silently vanishes.
    DropLast,
    /// Replace the last receipt of a batch with a copy of the first receipt
    /// drained (from this batch if it holds two, else from an earlier one):
    /// the count is conserved (so `receipt-conservation` stays quiet) but one
    /// transaction is receipted twice.
    DuplicateFirst,
    /// Rewind one receipt's finish time to before its submission: the
    /// outcome claims to precede its cause.
    BreakCausality,
}

/// A [`TransactionalSystem`] that runs a real etcd model underneath and
/// corrupts its drained receipt stream exactly once.
struct Corrupting {
    kind: SystemKind,
    inner: Box<dyn TransactionalSystem>,
    mode: Corruption,
    applied: bool,
    /// The first receipt drained: the copy `DuplicateFirst` plants.
    first: Option<TxnReceipt>,
}

impl Corrupting {
    fn boxed(spec: &SystemSpec, mode: Corruption) -> Box<dyn TransactionalSystem> {
        let inner = SystemRegistry::with_builtins()
            .build(&SystemSpec::new(SystemKind::Etcd))
            .expect("etcd is a builtin");
        Box::new(Corrupting {
            kind: spec.kind,
            inner,
            mode,
            applied: false,
            first: None,
        })
    }

    /// Apply the corruption to a drained batch; returns whether it landed (a
    /// batch can be too small or lack a usable victim — then it waits for
    /// the next one).
    fn apply(&mut self, receipts: &mut Vec<TxnReceipt>) -> bool {
        match self.mode {
            Corruption::DropLast => receipts.pop().is_some(),
            Corruption::DuplicateFirst => {
                let Some(head) = receipts.first() else {
                    return false;
                };
                let in_this_batch = self.first.is_none();
                let first = self.first.get_or_insert_with(|| head.clone()).clone();
                if in_this_batch && receipts.len() < 2 {
                    return false;
                }
                *receipts.last_mut().expect("non-empty") = first;
                true
            }
            Corruption::BreakCausality => {
                // A victim needs submit > 0 so the rewind lands strictly
                // before.
                match receipts.iter_mut().find(|r| r.submit_time > 0) {
                    Some(victim) => {
                        victim.finish_time = victim.submit_time - 1;
                        true
                    }
                    None => false,
                }
            }
        }
    }
}

impl TransactionalSystem for Corrupting {
    fn kind(&self) -> SystemKind {
        self.kind
    }

    fn load(&mut self, records: &[(Key, Value)]) {
        self.inner.load(records);
    }

    fn attach(&mut self, engine: &mut Engine) {
        self.inner.attach(engine);
    }

    fn on_arrival(&mut self, txn: Transaction, engine: &mut Engine) {
        self.inner.on_arrival(txn, engine);
    }

    fn on_stage(&mut self, event: StageEvent, engine: &mut Engine) {
        self.inner.on_stage(event, engine);
    }

    fn on_drain(&mut self, engine: &mut Engine) {
        self.inner.on_drain(engine);
    }

    fn drain_completions(&mut self, buf: &mut Vec<Completion>) {
        self.inner.drain_completions(buf);
    }

    fn drain_receipts_into(&mut self, buf: &mut Vec<TxnReceipt>) {
        self.inner.drain_receipts_into(buf);
        if !self.applied {
            self.applied = self.apply(buf);
        }
    }

    fn footprint(&self) -> StorageBreakdown {
        self.inner.footprint()
    }

    fn node_count(&self) -> usize {
        self.inner.node_count()
    }
}

fn build_dropping(spec: &SystemSpec) -> Box<dyn TransactionalSystem> {
    Corrupting::boxed(spec, Corruption::DropLast)
}

fn build_duplicating(spec: &SystemSpec) -> Box<dyn TransactionalSystem> {
    Corrupting::boxed(spec, Corruption::DuplicateFirst)
}

fn build_rewinding(spec: &SystemSpec) -> Box<dyn TransactionalSystem> {
    Corrupting::boxed(spec, Corruption::BreakCausality)
}

/// One healthy etcd probe plus one corrupted probe, on a registry where
/// `corrupt_kind`'s builder is replaced by the corrupting wrapper.
fn run_corrupted(
    corrupt_kind: SystemKind,
    builder: fn(&SystemSpec) -> Box<dyn TransactionalSystem>,
    metrics: MetricsMode,
) -> dichotomy_core::experiments::ExperimentReport {
    let mut registry = SystemRegistry::with_builtins();
    registry.register(corrupt_kind, builder);
    let scenario = Scenario {
        id: "CS",
        title: "oracle sensitivity",
        systems: vec![
            SystemEntry {
                spec: SystemSpec::new(SystemKind::Etcd),
                columns: vec![ColumnSpec::new("tps", Metric::ThroughputTps)],
            },
            SystemEntry {
                spec: SystemSpec::new(corrupt_kind),
                columns: vec![ColumnSpec::new("tps", Metric::ThroughputTps)],
            },
        ],
        workload: WorkloadSpec::ycsb(YcsbMix::UpdateOnly).with_records(200),
        driver: DriverConfig {
            metrics,
            ..DriverConfig::saturating(150)
        },
        sweep: Sweep::None,
        row_labels: None,
        faults: None,
        seed: 11,
    };
    run_plan_with(&scenario.plan(), &registry, &ExecOptions::with_jobs(1))
}

/// The shared shape of every sensitivity case: the corrupted probe fails
/// with the expected oracle's label, the healthy sibling still completes
/// with all oracles passing.
fn assert_tripped(
    corrupt_kind: SystemKind,
    report: &dichotomy_core::experiments::ExperimentReport,
    oracle: &str,
    detail: &str,
) {
    assert!(
        report.value("etcd", "tps").unwrap() > 0.0,
        "the healthy probe must survive its corrupted sibling"
    );
    assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
    let failure = &report.failures[0];
    assert_eq!(failure.probe, corrupt_kind.name());
    let prefix = format!("oracle '{oracle}' violated: ");
    assert!(
        failure.message.starts_with(&prefix),
        "expected {prefix:?}, got {:?}",
        failure.message
    );
    assert!(
        failure.message.contains(detail),
        "expected detail {detail:?} in {:?}",
        failure.message
    );
    // The healthy row's oracle report is the positive witness.
    let healthy = report
        .rows
        .iter()
        .find(|r| r.label == "etcd")
        .expect("healthy row");
    for series in &healthy.series {
        assert!(series.oracles.passed(), "{:?}", series.oracles);
        assert_eq!(series.oracles.outcomes.len(), 4);
    }
}

/// Both ways a run drains receipts: once at the end, or live in batches.
const MODES: [MetricsMode; 2] = [MetricsMode::Exact, MetricsMode::Streaming];

#[test]
fn a_dropped_receipt_is_caught_by_receipt_conservation() {
    for metrics in MODES {
        let report = run_corrupted(SystemKind::Tikv, build_dropping, metrics);
        assert_tripped(SystemKind::Tikv, &report, "receipt-conservation", "lost");
    }
}

#[test]
fn a_duplicated_receipt_is_caught_by_the_duplicate_oracle() {
    for metrics in MODES {
        let report = run_corrupted(SystemKind::TiDb, build_duplicating, metrics);
        assert_tripped(
            SystemKind::TiDb,
            &report,
            "no-duplicate-receipt",
            "receipted more than once",
        );
    }
}

#[test]
fn a_causality_breaking_receipt_is_caught_by_commit_order_monotonic() {
    for metrics in MODES {
        let report = run_corrupted(SystemKind::Fabric, build_rewinding, metrics);
        assert_tripped(
            SystemKind::Fabric,
            &report,
            "commit-order-monotonic",
            "before its submission",
        );
    }
}

#[test]
fn the_corruptions_themselves_are_probe_local() {
    // Three corrupted kinds in one plan: three labelled failures, each
    // attributable, and the grid still renders.
    let mut registry = SystemRegistry::with_builtins();
    registry.register(SystemKind::Tikv, build_dropping);
    registry.register(SystemKind::TiDb, build_duplicating);
    registry.register(SystemKind::Fabric, build_rewinding);
    let scenario = Scenario {
        id: "CS3",
        title: "all three corruptions at once",
        systems: [
            SystemKind::Etcd,
            SystemKind::Tikv,
            SystemKind::TiDb,
            SystemKind::Fabric,
        ]
        .iter()
        .map(|&kind| SystemEntry {
            spec: SystemSpec::new(kind),
            columns: vec![ColumnSpec::new("tps", Metric::ThroughputTps)],
        })
        .collect(),
        workload: WorkloadSpec::ycsb(YcsbMix::UpdateOnly).with_records(200),
        driver: DriverConfig::saturating(150),
        sweep: Sweep::None,
        row_labels: None,
        faults: None,
        seed: 11,
    };
    for jobs in [1, 4] {
        let report = run_plan_with(&scenario.plan(), &registry, &ExecOptions::with_jobs(jobs));
        assert_eq!(report.failures.len(), 3, "jobs={jobs}");
        let mut oracles: Vec<&str> = report
            .failures
            .iter()
            .map(|f| {
                f.message
                    .split('\'')
                    .nth(1)
                    .expect("oracle label quoted in message")
            })
            .collect();
        oracles.sort_unstable();
        assert_eq!(
            oracles,
            [
                "commit-order-monotonic",
                "no-duplicate-receipt",
                "receipt-conservation"
            ],
            "jobs={jobs}"
        );
        assert!(report.value("etcd", "tps").unwrap() > 0.0, "jobs={jobs}");
        assert!(!report.render().is_empty());
    }
}

// Sanity check on the vehicle itself: the sensitivity scenarios carry no
// FaultPlan, so the injected corruption is the only anomaly and any tripped
// oracle is attributable to it alone.
#[test]
fn the_sensitivity_scenarios_carry_no_fault_plans() {
    let plan = Scenario {
        id: "CS0",
        title: "plumbing check",
        systems: vec![SystemEntry {
            spec: SystemSpec::new(SystemKind::Etcd),
            columns: vec![ColumnSpec::new("tps", Metric::ThroughputTps)],
        }],
        workload: WorkloadSpec::ycsb(YcsbMix::UpdateOnly).with_records(200),
        driver: DriverConfig::saturating(150),
        sweep: Sweep::None,
        row_labels: None,
        faults: None,
        seed: 11,
    }
    .plan();
    for row in &plan.rows {
        for run in &row.runs {
            if let Probe::Drive { system, .. } = &run.probe {
                assert!(system.faults.as_ref().is_none_or(|f| f.is_empty()));
            }
        }
    }
}
