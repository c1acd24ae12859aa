use std::sync::Mutex;

use dichotomy_common::{Decode, Encode, NodeId};
use dichotomy_simnet::NodeFault;
use dichotomy_systems::{SystemKind, SystemRegistry};
use dichotomy_workload::{YcsbConfig, YcsbMix};

use super::pool::{plan_batches, Batch};
use super::*;
use crate::experiments::ExperimentReport;

fn tiny_scenario(seed: u64) -> Scenario {
    Scenario {
        id: "T",
        title: "tiny",
        systems: vec![SystemEntry {
            spec: SystemSpec::new(SystemKind::Etcd),
            columns: vec![
                ColumnSpec::new("tps", Metric::ThroughputTps),
                ColumnSpec::new("abort_%", Metric::AbortPercent),
            ],
        }],
        workload: WorkloadSpec::ycsb(YcsbMix::UpdateOnly).with_records(500),
        driver: DriverConfig::saturating(150),
        sweep: Sweep::None,
        row_labels: None,
        faults: None,
        seed,
    }
}

#[test]
fn sweepless_scenarios_have_one_row_per_system() {
    let report = run_plan(&tiny_scenario(1).plan());
    assert_eq!(report.rows.len(), 1);
    assert_eq!(report.rows[0].label, "etcd");
    assert!(report.value("etcd", "tps").unwrap() > 0.0);
    assert_eq!(report.value("etcd", "abort_%").unwrap(), 0.0);
}

#[test]
fn sweeps_expand_to_one_row_per_point() {
    let mut scenario = tiny_scenario(1);
    scenario.sweep = Sweep::Theta(vec![0.0, 0.5, 1.0]);
    let plan = scenario.plan();
    assert_eq!(plan.rows.len(), 3);
    assert_eq!(plan.rows[1].label, "theta=0.5");
    assert_eq!(plan.probe_count(), 3);
    let report = run_plan(&plan);
    assert!(report.value("theta=1.0", "tps").unwrap() > 0.0);
}

#[test]
fn row_label_overrides_win() {
    let mut scenario = tiny_scenario(1);
    scenario.sweep = Sweep::Shards(vec![1, 4]);
    scenario.row_labels = Some(vec!["small".into(), "large".into()]);
    let plan = scenario.plan();
    assert_eq!(plan.rows[0].label, "small");
    assert_eq!(plan.rows[1].label, "large");
}

#[test]
fn every_sweep_axis_writes_its_point_into_the_probe() {
    let mut crash = FaultPlan::none();
    crash.add(NodeFault::crash_until(NodeId(0), 100, 200));
    let open = DriverConfig::saturating(150);
    let closed = DriverConfig {
        arrival: ArrivalSpec::ClosedLoop {
            clients: 1,
            think_time_us: 0,
        },
        ..DriverConfig::saturating(150)
    };
    // Per axis: two points, the driver regime it needs, and what the second
    // point must read back from the expanded probe.
    type Read = fn(&SystemSpec, &YcsbConfig, &DriverConfig) -> String;
    let axes: Vec<(Sweep, &DriverConfig, Read, String)> = vec![
        (
            Sweep::Theta(vec![0.0, 0.7]),
            &open,
            |_, w, _| w.zipf_theta.to_string(),
            "0.7".into(),
        ),
        (
            Sweep::OpsPerTxn {
                counts: vec![1, 3],
                payload_bytes: None,
            },
            &open,
            |_, w, _| w.ops_per_txn.to_string(),
            "3".into(),
        ),
        (
            Sweep::RecordSize(vec![10, 300]),
            &open,
            |_, w, _| w.record_size.to_string(),
            "300".into(),
        ),
        (
            Sweep::Shards(vec![1, 4]),
            &open,
            |s, _, _| format!("{:?}", s.shards),
            "Some(4)".into(),
        ),
        (
            Sweep::ClosedClients(vec![1, 9]),
            &closed,
            |_, _, d| format!("{:?}", d.arrival),
            "ClosedLoop { clients: 9, think_time_us: 0 }".into(),
        ),
        (
            Sweep::Fault(vec![
                ("none".into(), FaultPlan::none()),
                ("crash".into(), crash.clone()),
            ]),
            &open,
            |s, _, _| format!("{:?}", s.faults.as_ref().map(FaultPlan::faults)),
            format!("{:?}", Some(crash.faults())),
        ),
    ];
    for (sweep, driver, read, expected) in axes {
        let mut scenario = tiny_scenario(1);
        scenario.sweep = sweep.clone();
        scenario.driver = driver.clone();
        let plan = scenario.plan();
        let points: Vec<String> = plan
            .rows
            .iter()
            .map(|row| match &row.runs[0].probe {
                Probe::Drive {
                    system,
                    workload: WorkloadSpec::Ycsb(w),
                    driver,
                } => read(system, w, driver),
                other => panic!("expected a YCSB drive probe, got {other:?}"),
            })
            .collect();
        assert_eq!(points.len(), 2, "{sweep:?}");
        assert_eq!(points[1], expected, "{sweep:?}");
        assert_ne!(points[0], expected, "{sweep:?}: the point, not a constant");
    }
}

#[test]
fn ops_sweep_keeps_total_payload_constant() {
    let mut scenario = tiny_scenario(1);
    scenario.sweep = Sweep::OpsPerTxn {
        counts: vec![1, 4],
        payload_bytes: Some(1000),
    };
    let plan = scenario.plan();
    match &plan.rows[1].runs[0].probe {
        Probe::Drive { workload, .. } => match workload {
            WorkloadSpec::Ycsb(c) => {
                assert_eq!(c.ops_per_txn, 4);
                assert_eq!(c.record_size, 250);
            }
            _ => panic!("expected YCSB"),
        },
        _ => panic!("expected a drive probe"),
    }
}

#[test]
fn same_seed_reproduces_and_seeds_thread_through() {
    let a = run_plan(&tiny_scenario(42).plan());
    let b = run_plan(&tiny_scenario(42).plan());
    assert_eq!(a.rows[0].values, b.rows[0].values);
    match &tiny_scenario(42).plan().rows[0].runs[0].probe {
        Probe::Drive {
            system,
            workload,
            driver,
        } => {
            assert_eq!(system.seed, Some(42));
            assert_eq!(workload.seed(), 42);
            assert_eq!(driver.seed, 42);
        }
        _ => panic!("expected a drive probe"),
    }
}

#[test]
fn forecast_and_adr_probes_fill_extras() {
    let plan = ExperimentPlan {
        id: "X",
        title: "probes",
        rows: vec![
            PlannedRow {
                label: "Veritas".into(),
                runs: vec![PlannedRun {
                    probe: Probe::Forecast { profile: "Veritas" },
                    columns: vec![
                        ColumnSpec::new("forecast_tps", Metric::Extra("forecast_tps")),
                        ColumnSpec::new("reported_tps", Metric::Extra("reported_tps")),
                    ],
                }],
            },
            PlannedRow {
                label: "100 B".into(),
                runs: vec![PlannedRun {
                    probe: Probe::AdrOverhead {
                        records: 200,
                        record_size: 100,
                    },
                    columns: vec![
                        ColumnSpec::new("MBT_B/rec", Metric::Extra("mbt_b_per_rec")),
                        ColumnSpec::new("MPT_B/rec", Metric::Extra("mpt_b_per_rec")),
                    ],
                }],
            },
        ],
        text: None,
        diagnostics: Vec::new(),
    };
    let report = run_plan(&plan);
    assert!(report.value("Veritas", "forecast_tps").unwrap() > 0.0);
    assert_eq!(report.value("Veritas", "reported_tps").unwrap(), 29_000.0);
    let mbt = report.value("100 B", "MBT_B/rec").unwrap();
    let mpt = report.value("100 B", "MPT_B/rec").unwrap();
    assert!(mpt > mbt);
}

fn kind_scenario(kind: SystemKind) -> Scenario {
    Scenario {
        id: "P",
        title: "parallel determinism",
        systems: vec![SystemEntry {
            spec: SystemSpec::new(kind),
            columns: vec![
                ColumnSpec::new("tps", Metric::ThroughputTps),
                ColumnSpec::new("abort_%", Metric::AbortPercent),
                ColumnSpec::new("lat_ms", Metric::LatencyMeanMs),
            ],
        }],
        workload: WorkloadSpec::ycsb(YcsbMix::UpdateOnly).with_records(500),
        driver: DriverConfig::saturating(120),
        sweep: Sweep::Theta(vec![0.0, 0.8]),
        row_labels: None,
        faults: None,
        seed: 7,
    }
}

#[test]
fn parallel_execution_matches_sequential_for_every_kind_and_fault01() {
    // The acceptance bar for the worker pool: for a fixed seed, jobs=1
    // and jobs=8 produce identical reports — values, windowed series and
    // the per-probe clamp counters (all covered by ExperimentReport's
    // PartialEq) — across one experiment per system kind plus the fault
    // scenario.
    let registry = SystemRegistry::with_builtins();
    let mut plans: Vec<ExperimentPlan> = SystemKind::ALL
        .iter()
        .map(|&kind| kind_scenario(kind).plan())
        .collect();
    plans.push(crate::experiments::fault01_plan(120, 7));
    for plan in &plans {
        let sequential = run_plan_with(plan, &registry, &ExecOptions::with_jobs(1));
        let parallel = run_plan_with(plan, &registry, &ExecOptions::with_jobs(8));
        assert_eq!(sequential, parallel, "{}", plan.id);
        assert!(sequential.failures.is_empty(), "{}", plan.id);
        for row in &sequential.rows {
            for s in &row.series {
                assert_eq!(s.events_clamped, 0, "{} {}", plan.id, row.label);
            }
        }
    }
}

#[test]
fn a_panicking_probe_is_isolated_and_labelled() {
    fn bomb(_spec: &SystemSpec) -> Box<dyn dichotomy_systems::TransactionalSystem> {
        // A non-string payload: the failure must still be attributable.
        std::panic::panic_any(42u32)
    }
    let mut registry = SystemRegistry::with_builtins();
    registry.register(SystemKind::Tikv, bomb);
    let scenario = Scenario {
        systems: vec![
            SystemEntry {
                spec: SystemSpec::new(SystemKind::Etcd),
                columns: vec![ColumnSpec::new("tps", Metric::ThroughputTps)],
            },
            SystemEntry {
                spec: SystemSpec::new(SystemKind::Tikv),
                columns: vec![ColumnSpec::new("tps", Metric::ThroughputTps)],
            },
        ],
        ..tiny_scenario(1)
    };
    for jobs in [1, 4] {
        let report = run_plan_with(&scenario.plan(), &registry, &ExecOptions::with_jobs(jobs));
        // The sibling probe still completes...
        assert!(report.value("etcd", "tps").unwrap() > 0.0, "jobs={jobs}");
        // ...the failed probe keeps its column shape (NaN → JSON null)...
        assert!(report.value("TiKV", "tps").unwrap().is_nan(), "jobs={jobs}");
        // ...and the failure is labelled with row and probe.
        assert_eq!(report.failures.len(), 1, "jobs={jobs}");
        let failure = &report.failures[0];
        assert_eq!(failure.row, "TiKV");
        assert_eq!(failure.probe, "TiKV");
        assert_eq!(failure.index, 1);
        assert_eq!(failure.message, "panicked (non-string payload)");
        let rendered = report.render();
        assert!(rendered.contains("!! probe 'TiKV' on row 'TiKV' failed"));
    }
}

/// More distinct keys per YCSB transaction than records: the probe fails,
/// naming both numbers, instead of redrawing keys forever on its worker.
#[test]
fn an_unsatisfiable_ycsb_shape_fails_its_probe_instead_of_hanging() {
    let scenario = Scenario {
        workload: WorkloadSpec::ycsb(YcsbMix::UpdateOnly)
            .with_records(3)
            .with_ops_per_txn(4),
        ..tiny_scenario(1)
    };
    let report = run_plan(&scenario.plan());
    assert_eq!(report.failures.len(), 1);
    let failure = &report.failures[0];
    assert_eq!(failure.row, "etcd");
    assert!(
        failure
            .message
            .contains("cannot draw 4 distinct keys per transaction from 3 records"),
        "{}",
        failure.message
    );
}

#[test]
fn progress_reports_every_probe_in_completion_order() {
    let mut scenario = tiny_scenario(1);
    scenario.sweep = Sweep::Theta(vec![0.0, 0.5, 1.0]);
    let plan = scenario.plan();
    for jobs in [1, 4] {
        let statuses: Mutex<Vec<ProbeStatus>> = Mutex::new(Vec::new());
        let record = |s: &ProbeStatus| statuses.lock().unwrap().push(s.clone());
        let options = ExecOptions {
            jobs,
            progress: Some(&record),
            ..ExecOptions::default()
        };
        run_plan_with(&plan, &SystemRegistry::with_builtins(), &options);
        let statuses = statuses.into_inner().unwrap();
        assert_eq!(statuses.len(), 3, "jobs={jobs}");
        // `done` counts completions 1..=total; indexes cover the plan.
        assert_eq!(
            statuses.iter().map(|s| s.done).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        let mut indexes: Vec<usize> = statuses.iter().map(|s| s.index).collect();
        indexes.sort_unstable();
        assert_eq!(indexes, vec![0, 1, 2]);
        assert!(statuses.iter().all(|s| s.total == 3 && s.error.is_none()));
        assert!(statuses.iter().all(|s| s.probe == "etcd"));
    }
}

#[test]
fn an_empty_sweep_or_empty_plan_yields_an_empty_report() {
    // An axis with zero points expands to zero rows (regression: this
    // used to fall back to the sweepless one-row-per-system grid).
    let mut scenario = tiny_scenario(1);
    scenario.sweep = Sweep::Theta(Vec::new());
    let plan = scenario.plan();
    assert_eq!(plan.rows.len(), 0);
    assert_eq!(plan.probe_count(), 0);
    let report = run_plan(&plan);
    assert!(report.rows.is_empty() && report.failures.is_empty());
    assert!(report.render().starts_with("== T"));
    // A scenario with no systems behaves the same way.
    let mut empty = tiny_scenario(1);
    empty.systems.clear();
    let report = run_plan(&empty.plan());
    assert!(report.rows.is_empty());
}

#[test]
fn effective_jobs_prefers_explicit_over_env_and_detects_by_default() {
    assert_eq!(ExecOptions::with_jobs(3).effective_jobs(), 3);
    // jobs=0 resolves the available parallelism: at least one worker.
    assert!(ExecOptions::default().effective_jobs() >= 1);
}

#[test]
fn a_shared_pool_batch_matches_per_plan_execution_exactly() {
    // The cross-experiment pool: running several plans through one
    // run_plans_with batch must reproduce the per-plan reports byte for
    // byte (values, series, failures), sequentially and in parallel, and
    // attribute every probe to its plan in the progress stream.
    let registry = SystemRegistry::with_builtins();
    let mut sweep_scenario = tiny_scenario(5);
    sweep_scenario.sweep = Sweep::Theta(vec![0.0, 0.9]);
    let plans = [
        tiny_scenario(5).plan(),
        sweep_scenario.plan(),
        crate::experiments::fault01_plan(80, 5),
    ];
    let refs: Vec<&ExperimentPlan> = plans.iter().collect();
    let solo: Vec<ExperimentReport> = plans
        .iter()
        .map(|p| run_plan_with(p, &registry, &ExecOptions::with_jobs(1)))
        .collect();
    for jobs in [1, 4] {
        let statuses: Mutex<Vec<ProbeStatus>> = Mutex::new(Vec::new());
        let record = |s: &ProbeStatus| statuses.lock().unwrap().push(s.clone());
        let options = ExecOptions {
            jobs,
            progress: Some(&record),
            ..ExecOptions::default()
        };
        let batch = run_plans_with(&refs, &registry, &options);
        assert_eq!(batch.len(), 3, "jobs={jobs}");
        for (outcome, expected) in batch.iter().zip(&solo) {
            assert_eq!(&outcome.report, expected, "jobs={jobs}");
            assert!(outcome.probe_wall_ms >= 0.0);
        }
        let statuses = statuses.into_inner().unwrap();
        let total = plans.iter().map(|p| p.probe_count()).sum::<usize>();
        assert_eq!(statuses.len(), total, "jobs={jobs}");
        // Every status names its plan; `done` counts the whole batch.
        let mut per_plan = vec![0usize; plans.len()];
        for s in &statuses {
            assert_eq!(s.total, total);
            per_plan[s.plan] += 1;
        }
        assert_eq!(
            per_plan,
            plans.iter().map(|p| p.probe_count()).collect::<Vec<_>>()
        );
        assert_eq!(
            statuses.iter().map(|s| s.done).collect::<Vec<_>>(),
            (1..=total).collect::<Vec<_>>()
        );
    }
}

#[test]
fn duplicate_probes_execute_once_and_fan_out() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static BUILDS: AtomicUsize = AtomicUsize::new(0);
    fn counting(spec: &SystemSpec) -> Box<dyn dichotomy_systems::TransactionalSystem> {
        BUILDS.fetch_add(1, Ordering::Relaxed);
        SystemRegistry::with_builtins().build(spec).unwrap()
    }
    let mut registry = SystemRegistry::with_builtins();
    registry.register(SystemKind::Etcd, counting);
    // Two byte-identical probes reading *different* columns, plus one
    // labelled-distinct probe: dedup must execute two systems, not
    // three, and still give every slot its own column extraction.
    let scenario = Scenario {
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
                spec: SystemSpec::new(SystemKind::Etcd).with_label("etcd-b"),
                columns: vec![ColumnSpec::new("tps", Metric::ThroughputTps)],
            },
        ],
        ..tiny_scenario(3)
    };
    let plan = scenario.plan();
    for jobs in [1, 4] {
        BUILDS.store(0, Ordering::Relaxed);
        let statuses: Mutex<Vec<ProbeStatus>> = Mutex::new(Vec::new());
        let record = |s: &ProbeStatus| statuses.lock().unwrap().push(s.clone());
        let options = ExecOptions {
            jobs,
            progress: Some(&record),
            ..ExecOptions::default()
        };
        let outcome = run_plans_with(&[&plan], &registry, &options).pop().unwrap();
        assert_eq!(BUILDS.load(Ordering::Relaxed), 2, "jobs={jobs}");
        assert_eq!(outcome.probes, 3, "jobs={jobs}");
        assert_eq!(outcome.distinct_probes, 2, "jobs={jobs}");
        assert_eq!(outcome.cache_hits, 0);
        assert!(outcome.dedup_saved_ms > 0.0, "jobs={jobs}");
        assert_eq!(outcome.calibration.len(), 2, "jobs={jobs}");
        // The shared result reaches both slots; the distinct probe ran
        // on its own.
        let rows = &outcome.report.rows;
        assert_eq!(rows[0].values[0], rows[1].values[0]);
        assert_eq!(rows[1].values.len(), 2);
        assert!(rows[2].values[0].1 > 0.0);
        // Progress saw all three slots, exactly one marked deduped.
        let statuses = statuses.into_inner().unwrap();
        assert_eq!(statuses.len(), 3, "jobs={jobs}");
        assert_eq!(statuses.iter().filter(|s| s.deduped).count(), 1);
        assert!(statuses.iter().all(|s| !s.cached));
    }
}

/// An in-memory [`ProbeCache`] that round-trips results through the
/// binary codec — the same serialization path the on-disk cache uses.
#[derive(Default)]
struct MemCache {
    map: Mutex<std::collections::BTreeMap<Vec<u8>, Vec<u8>>>,
}

impl ProbeCache for MemCache {
    fn load(&self, key: &[u8]) -> Option<ProbeResult> {
        let bytes = self.map.lock().unwrap().get(key).cloned()?;
        Some(ProbeResult::decode(&bytes).expect("stored entries decode"))
    }
    fn store(&self, key: &[u8], result: &ProbeResult) {
        self.map
            .lock()
            .unwrap()
            .insert(key.to_vec(), result.encode());
    }
}

#[test]
fn a_probe_cache_round_trips_every_kind_and_mode_byte_identically() {
    use crate::metrics::MetricsMode;
    // Every system kind under both metrics modes, plus the fault
    // scenario: a cold run through an (empty) cache and a warm run
    // through the filled cache must produce identical reports — the
    // codec round-trip is exact, not approximate.
    let registry = SystemRegistry::with_builtins();
    let cache = MemCache::default();
    let mut plans: Vec<ExperimentPlan> = Vec::new();
    for &kind in SystemKind::ALL.iter() {
        for mode in [MetricsMode::Exact, MetricsMode::Streaming] {
            let mut scenario = kind_scenario(kind);
            scenario.driver.metrics = mode;
            plans.push(scenario.plan());
        }
    }
    plans.push(crate::experiments::fault01_plan(80, 7));
    let refs: Vec<&ExperimentPlan> = plans.iter().collect();
    let options = ExecOptions {
        jobs: 4,
        cache: Some(&cache),
        ..ExecOptions::default()
    };
    let cold = run_plans_with(&refs, &registry, &options);
    assert!(cold.iter().all(|o| o.cache_hits == 0), "cache started cold");
    let warm = run_plans_with(&refs, &registry, &options);
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(c.report, w.report, "{}", c.report.id);
    }
    let distinct: usize = warm.iter().map(|o| o.distinct_probes).sum();
    let hits: usize = warm.iter().map(|o| o.cache_hits).sum();
    assert_eq!(hits, distinct, "every distinct probe hits the warm cache");
    assert!(warm.iter().all(|o| o.calibration.is_empty()));
}

#[test]
fn probe_keys_track_every_input_that_changes_the_measurement() {
    use crate::metrics::MetricsMode;
    let probe_of = |s: &Scenario| s.plan().rows[0].runs[0].probe.clone();
    let base = tiny_scenario(1);
    let key = probe_key_bytes(&probe_of(&base));
    // Re-expanding the identical scenario reproduces the key.
    assert_eq!(key, probe_key_bytes(&probe_of(&tiny_scenario(1))));
    // Seed, workload knob, metrics mode and fault schedule all reach it.
    assert_ne!(key, probe_key_bytes(&probe_of(&tiny_scenario(2))));
    let mut theta = tiny_scenario(1);
    theta.workload = theta.workload.with_theta(0.42);
    assert_ne!(key, probe_key_bytes(&probe_of(&theta)));
    let mut streaming = tiny_scenario(1);
    streaming.driver.metrics = MetricsMode::Streaming;
    assert_ne!(key, probe_key_bytes(&probe_of(&streaming)));
    let mut faulted = tiny_scenario(1);
    let mut faults = dichotomy_simnet::FaultPlan::none();
    faults.add(NodeFault::crash_until(NodeId(0), 10, 20));
    faulted.faults = Some(faults);
    assert_ne!(key, probe_key_bytes(&probe_of(&faulted)));
    // The content hash follows the key.
    assert_ne!(
        fnv1a_64(&key),
        fnv1a_64(&probe_key_bytes(&probe_of(&tiny_scenario(2))))
    );
    // Non-driving probes key on their own parameters.
    let adr = |records, record_size| Probe::AdrOverhead {
        records,
        record_size,
    };
    assert_eq!(probe_key_bytes(&adr(10, 64)), probe_key_bytes(&adr(10, 64)));
    assert_ne!(probe_key_bytes(&adr(10, 64)), probe_key_bytes(&adr(10, 65)));
}

#[test]
fn longest_first_scheduling_beats_arrival_order_on_a_skewed_plan() {
    // A synthetic skewed plan: seven quick probes followed by one heavy
    // straggler (50× the transactions). Arrival order puts the
    // straggler last, so one worker grinds it alone at the tail; the
    // LPT schedule starts it first.
    let quick = DriverConfig::saturating(100);
    let heavy = DriverConfig::saturating(5_000);
    let probe = |driver: &DriverConfig| Probe::Drive {
        system: SystemSpec::new(SystemKind::Etcd),
        workload: WorkloadSpec::ycsb(YcsbMix::UpdateOnly),
        driver: driver.clone(),
    };
    let mut probes: Vec<Probe> = (0..7).map(|_| probe(&quick)).collect();
    probes.push(probe(&heavy));
    let costs: Vec<f64> = probes.iter().map(predicted_probe_cost).collect();
    assert!(
        costs[7] > costs[0] * 10.0,
        "predicted cost scales with transactions: {costs:?}"
    );
    let order = lpt_order(&costs);
    assert_eq!(order[0], 7, "the straggler is scheduled first");

    // Greedy two-worker pool simulation: each item goes to the
    // earliest-free worker, makespan is the latest finish.
    fn makespan(order: &[usize], costs: &[f64], workers: usize) -> f64 {
        let mut load = vec![0.0f64; workers];
        for &i in order {
            let w = (0..workers)
                .min_by(|&a, &b| load[a].partial_cmp(&load[b]).unwrap())
                .unwrap();
            load[w] += costs[i];
        }
        load.into_iter().fold(0.0, f64::max)
    }
    let arrival: Vec<usize> = (0..costs.len()).collect();
    let m_arrival = makespan(&arrival, &costs, 2);
    let m_lpt = makespan(&order, &costs, 2);
    assert!(
        m_lpt < m_arrival,
        "LPT makespan {m_lpt:.0} must beat arrival order {m_arrival:.0}"
    );
}

#[test]
fn fail_fast_drains_the_queue_after_the_first_failure() {
    fn bomb(_spec: &SystemSpec) -> Box<dyn dichotomy_systems::TransactionalSystem> {
        panic!("intentional probe failure")
    }
    let mut registry = SystemRegistry::with_builtins();
    registry.register(SystemKind::Tikv, bomb);
    let entry = |spec: SystemSpec| SystemEntry {
        spec,
        columns: vec![ColumnSpec::new("tps", Metric::ThroughputTps)],
    };
    // Plan order: Fabric (ok), TiKV (bomb), Fabric-b (same state group as
    // Fabric), etcd (would be ok). One worker runs batches in order of
    // their first probe and a batch's probes in plan order: Fabric,
    // Fabric-b, then TiKV fails, then etcd is skipped — so Fabric-b runs
    // although it follows the failure in plan order, and only the batch
    // that starts after the failing one is drained.
    let scenario = Scenario {
        systems: vec![
            entry(SystemSpec::new(SystemKind::Fabric)),
            entry(SystemSpec::new(SystemKind::Tikv)),
            entry(SystemSpec::new(SystemKind::Fabric).with_label("Fabric-b")),
            entry(SystemSpec::new(SystemKind::Etcd)),
        ],
        ..tiny_scenario(1)
    };
    let statuses: Mutex<Vec<ProbeStatus>> = Mutex::new(Vec::new());
    let record = |s: &ProbeStatus| statuses.lock().unwrap().push(s.clone());
    let options = ExecOptions {
        jobs: 1,
        fail_fast: true,
        progress: Some(&record),
        ..ExecOptions::default()
    };
    let report = run_plan_with(&scenario.plan(), &registry, &options);
    assert!(report.value("Fabric", "tps").unwrap() > 0.0);
    assert!(
        report.value("Fabric-b", "tps").unwrap() > 0.0,
        "a batch-mate of an earlier probe runs before the failing batch"
    );
    assert!(report.value("TiKV", "tps").unwrap().is_nan());
    assert!(report.value("etcd", "tps").unwrap().is_nan());
    assert_eq!(report.failures.len(), 2);
    assert_eq!(report.failures[0].message, "intentional probe failure");
    assert_eq!(
        report.failures[1].message,
        "skipped: an earlier probe failed (fail-fast)"
    );
    // Completion order is batch order, and `done` stays monotone.
    let statuses = statuses.into_inner().unwrap();
    assert_eq!(
        statuses.iter().map(|s| s.index).collect::<Vec<_>>(),
        vec![0, 2, 1, 3]
    );
    assert_eq!(
        statuses.iter().map(|s| s.done).collect::<Vec<_>>(),
        vec![1, 2, 3, 4]
    );
    // Without fail_fast the trailing probe still runs.
    let report = run_plan_with(&scenario.plan(), &registry, &ExecOptions::with_jobs(1));
    assert!(report.value("etcd", "tps").unwrap() > 0.0);
    assert_eq!(report.failures.len(), 1);
}

#[test]
fn state_group_keys_follow_the_state_shape_and_the_initial_records_only() {
    let drive = |system: SystemSpec, workload: WorkloadSpec, driver: DriverConfig| {
        state_group_key(&Probe::Drive {
            system,
            workload,
            driver,
        })
    };
    let workload = || WorkloadSpec::ycsb(YcsbMix::UpdateOnly).with_records(400);
    let driver = || DriverConfig::saturating(100);
    let key = drive(SystemSpec::new(SystemKind::TiDb), workload(), driver());
    assert!(key.is_some());
    // Nothing `load` may not read, and nothing about the driven
    // transactions, moves a probe to another group.
    let mut faults = FaultPlan::none();
    faults.add(NodeFault::crash_until(NodeId(0), 10, 20));
    let elsewhere = SystemSpec::new(SystemKind::TiDb)
        .with_label("other")
        .with_nodes(9)
        .with_frontends(2)
        .with_consensus(dichotomy_consensus::ProtocolKind::Pbft)
        .with_blocks(7, 7)
        .with_faults(faults)
        .with_seed(99);
    let skewed = workload().with_theta(0.99).with_ops_per_txn(5).with_seed(3);
    let closed = DriverConfig::unsaturated(7).with_seed(5).with_window(10);
    assert_eq!(key, drive(elsewhere, skewed, closed));
    // The state shape and the initial records do.
    for other in [
        drive(SystemSpec::new(SystemKind::Tikv), workload(), driver()),
        drive(
            SystemSpec::new(SystemKind::TiDb).with_shards(4),
            workload(),
            driver(),
        ),
        drive(
            SystemSpec::new(SystemKind::TiDb),
            workload().with_records(401),
            driver(),
        ),
        drive(
            SystemSpec::new(SystemKind::TiDb),
            workload().with_record_size(9),
            driver(),
        ),
        drive(
            SystemSpec::new(SystemKind::TiDb),
            WorkloadSpec::smallbank().with_records(400),
            driver(),
        ),
    ] {
        assert!(other.is_some());
        assert_ne!(key, other);
    }
    // etcd ignores a shard count, so it cannot split its group.
    assert_eq!(
        drive(SystemSpec::new(SystemKind::Etcd), workload(), driver()),
        drive(
            SystemSpec::new(SystemKind::Etcd).with_shards(4),
            workload(),
            driver()
        ),
    );
    // Probes that load nothing belong to no group.
    let unloaded = DriverConfig {
        preload: false,
        ..driver()
    };
    assert_eq!(
        drive(SystemSpec::new(SystemKind::TiDb), workload(), unloaded),
        None
    );
    assert_eq!(
        state_group_key(&Probe::Forecast { profile: "Veritas" }),
        None
    );
}

#[test]
fn batches_follow_state_groups_and_split_only_past_a_fair_share() {
    let key = |k: u8| Some(vec![k]);
    let batch = |items: &[usize], cost: f64| Batch {
        items: items.to_vec(),
        cost,
    };
    // Plan order: a0 b0 - a1 b1 a2 (`-` loads nothing).
    let items = [
        (key(b'a'), 1.0),
        (key(b'b'), 1.0),
        (None, 1.0),
        (key(b'a'), 1.0),
        (key(b'b'), 1.0),
        (key(b'a'), 1.0),
    ];
    // One worker: one batch per group in first-occurrence order, items in
    // plan order; different keys never share a batch.
    assert_eq!(
        plan_batches(&items, 1),
        vec![
            batch(&[0, 3, 5], 3.0),
            batch(&[1, 4], 2.0),
            batch(&[2], 1.0)
        ]
    );
    // Two workers, fair share 3.0: nothing exceeds it, nothing splits.
    assert_eq!(plan_batches(&items, 2), plan_batches(&items, 1));
    // A group dominating the queue is split into ⌈cost / share⌉ batches,
    // items dealt in plan order to the lightest batch.
    let skewed = [
        (key(b'a'), 4.0),
        (key(b'a'), 1.0),
        (key(b'b'), 1.0),
        (key(b'a'), 2.0),
        (key(b'a'), 2.0),
    ];
    assert_eq!(
        plan_batches(&skewed, 2),
        vec![batch(&[0], 4.0), batch(&[1, 3, 4], 5.0), batch(&[2], 1.0)]
    );
    // Never more batches than items, and never more than `jobs` extra.
    let lone = [(key(b'a'), 5.0)];
    assert_eq!(plan_batches(&lone, 8), vec![batch(&[0], 5.0)]);
    assert_eq!(plan_batches(&[], 4), vec![]);
}
