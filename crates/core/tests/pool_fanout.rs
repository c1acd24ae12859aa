//! A deduplicated probe runs once and its outcome fans out to every slot that
//! shares it, a failed run too, at one worker and at several: each slot keeps
//! its own column shape and gets its own labelled failure.

use std::sync::Mutex;

use dichotomy_core::scenario::{
    run_plans_with, ColumnSpec, ExecOptions, Metric, ProbeStatus, Scenario, Sweep, SystemEntry,
};
use dichotomy_core::DriverConfig;
use dichotomy_systems::{SystemKind, SystemRegistry, SystemSpec, TransactionalSystem};
use dichotomy_workload::{WorkloadSpec, YcsbMix};

#[test]
fn a_failed_duplicate_probe_fails_every_slot_with_its_own_columns() {
    fn bomb(_spec: &SystemSpec) -> Box<dyn TransactionalSystem> {
        panic!("intentional probe failure")
    }
    let mut registry = SystemRegistry::with_builtins();
    registry.register(SystemKind::Etcd, bomb);
    registry.register(SystemKind::Tikv, bomb);
    // Two byte-identical probes reading different column lists, plus a third
    // in another state group so that four jobs really start two workers.
    let scenario = Scenario {
        id: "F",
        title: "failed fan-out",
        systems: vec![
            SystemEntry {
                spec: SystemSpec::new(SystemKind::Etcd),
                columns: vec![ColumnSpec::new("tps", Metric::ThroughputTps)],
            },
            SystemEntry {
                spec: SystemSpec::new(SystemKind::Etcd),
                columns: vec![
                    ColumnSpec::new("tps", Metric::ThroughputTps),
                    ColumnSpec::new("lat_ms", Metric::LatencyMeanMs),
                ],
            },
            SystemEntry {
                spec: SystemSpec::new(SystemKind::Tikv),
                columns: vec![ColumnSpec::new("tps", Metric::ThroughputTps)],
            },
        ],
        workload: WorkloadSpec::ycsb(YcsbMix::UpdateOnly).with_records(500),
        driver: DriverConfig::saturating(150),
        sweep: Sweep::None,
        row_labels: Some(vec!["a".into(), "b".into(), "c".into()]),
        faults: None,
        seed: 3,
    };
    let plan = scenario.plan();
    for jobs in [1, 4] {
        let statuses: Mutex<Vec<ProbeStatus>> = Mutex::new(Vec::new());
        let record = |s: &ProbeStatus| statuses.lock().unwrap().push(s.clone());
        let options = ExecOptions {
            jobs,
            progress: Some(&record),
            ..ExecOptions::default()
        };
        let outcome = run_plans_with(&[&plan], &registry, &options).pop().unwrap();
        let rows = &outcome.report.rows;
        let widths: Vec<_> = rows.iter().map(|r| r.values.len()).collect();
        assert_eq!(widths, [1, 2, 1], "jobs={jobs}");
        assert!(
            rows.iter().flat_map(|r| &r.values).all(|(_, v)| v.is_nan()),
            "jobs={jobs}"
        );
        let failures = &outcome.report.failures;
        let slots: Vec<_> = failures.iter().map(|f| (f.row.as_str(), f.index)).collect();
        assert_eq!(slots, [("a", 0), ("b", 1), ("c", 2)], "jobs={jobs}");
        assert!(failures
            .iter()
            .all(|f| f.message == "intentional probe failure"));
        let statuses = statuses.into_inner().unwrap();
        assert_eq!(statuses.len(), 3, "jobs={jobs}");
        assert!(statuses.iter().all(|s| s.error.is_some()), "jobs={jobs}");
        assert_eq!(statuses.iter().filter(|s| s.deduped).count(), 1);
        assert_eq!(outcome.distinct_probes, 2, "jobs={jobs}");
        assert!(outcome.calibration.is_empty(), "jobs={jobs}");
    }
}
