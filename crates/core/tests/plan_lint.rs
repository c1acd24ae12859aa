//! Every live semantic plan-lint code (`S0xx`) proven against the expansion
//! of a synthetic scenario, plus the zero-finding baseline a well-formed scenario must hit.
//! The real experiments are covered end-to-end by `repro lint` in ci.sh;
//! these tests pin the *detectors* themselves.

use dichotomy_core::common::{Diagnostic, NodeId, Severity};
use dichotomy_core::scenario::{ColumnSpec, Metric, Probe, Scenario, SystemEntry};
use dichotomy_core::simnet::{FaultPlan, NodeFault};
use dichotomy_core::systems::{SystemKind, SystemSpec};
use dichotomy_core::workload::{WorkloadSpec, YcsbMix};
use dichotomy_core::{lint_plan, ArrivalSpec, DriverConfig, Sweep};

/// A minimal healthy scenario: one system, a short saturating open-loop run.
/// `saturating(100)` keeps the arrival horizon tiny (100 txns at 200 K tps
/// ≈ 500 µs), which the fault/window tests exploit.
fn base_scenario() -> Scenario {
    Scenario {
        id: "lint-test",
        title: "synthetic lint scenario",
        systems: vec![SystemEntry {
            spec: SystemSpec::new(SystemKind::Etcd).with_nodes(3),
            columns: vec![ColumnSpec::new("tps", Metric::ThroughputTps)],
        }],
        workload: WorkloadSpec::ycsb(YcsbMix::UpdateOnly),
        driver: DriverConfig::saturating(100),
        sweep: Sweep::None,
        row_labels: None,
        faults: None,
        seed: 7,
    }
}

fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.code).collect()
}

#[test]
fn well_formed_scenario_is_clean() {
    assert_eq!(
        codes(&lint_plan(&base_scenario().plan())),
        Vec::<&str>::new()
    );
}

#[test]
fn s001_fault_past_horizon() {
    let mut scenario = base_scenario();
    let mut faults = FaultPlan::none();
    // The horizon is ~500 µs; a crash at 1 s never happens.
    faults.add(NodeFault::crash(NodeId(1), 1_000_000));
    scenario.faults = Some(faults);

    let diags = lint_plan(&scenario.plan());
    assert_eq!(codes(&diags), vec!["S001"]);
    assert_eq!(diags[0].severity, Severity::Warn);
    assert!(diags[0].message.contains("horizon"), "{}", diags[0].message);
}

#[test]
fn s001_surfaces_identically_via_plan_diagnostics_and_fresh_validation() {
    // The bugfix under test: `Scenario::plan()` records expansion-time
    // warnings on `plan.diagnostics`, and `lint_plan` re-validates
    // hand-built plans. Both paths must report the same finding once.
    let mut scenario = base_scenario();
    let mut faults = FaultPlan::none();
    faults.add(NodeFault::crash(NodeId(1), 1_000_000));
    scenario.faults = Some(faults);

    let plan = scenario.plan();
    assert_eq!(codes(&plan.diagnostics), vec!["S001"]);

    // lint_plan must not double-report what expansion already sanitized.
    assert_eq!(codes(&lint_plan(&plan)), vec!["S001"]);
}

#[test]
fn s002_overlapping_crash_windows() {
    let mut scenario = base_scenario();
    let mut faults = FaultPlan::none();
    faults.add(NodeFault::crash_until(NodeId(1), 100, 300));
    faults.add(NodeFault::crash_until(NodeId(1), 200, 400));
    scenario.faults = Some(faults);

    let diags = lint_plan(&scenario.plan());
    assert_eq!(codes(&diags), vec!["S002"]);
    assert_eq!(diags[0].severity, Severity::Warn);
    assert!(diags[0].message.contains("merged"), "{}", diags[0].message);
}

#[test]
fn s003_duplicate_sweep_points() {
    let mut scenario = base_scenario();
    scenario.sweep = Sweep::Theta(vec![0.5, 0.9, 0.5]);

    let diags = lint_plan(&scenario.plan());
    // The expanded row whose probe carries the same content key as an
    // earlier one.
    assert!(!diags.is_empty());
    assert!(diags
        .iter()
        .all(|d| d.code == "S003" && d.severity == Severity::Warn));
    assert!(
        diags.iter().any(|d| d.message.contains("content key")),
        "plan-level duplicate not reported: {:?}",
        codes(&diags)
    );
}

#[test]
fn phased_final_phase_keeps_faults_past_the_summed_durations() {
    // Two 1 ms phases, but the final one runs until the 100-transaction
    // budget is spent: at 10 tps that is seconds, so a crash at 5 s lands
    // inside the run and must not be dropped as past the horizon.
    let open = |offered_tps| ArrivalSpec::OpenLoop { offered_tps };
    let mut scenario = base_scenario();
    scenario.driver.arrival = ArrivalSpec::Phased {
        phases: vec![(1_000, open(1_000.0)), (1_000, open(10.0))],
    };
    let crash = NodeFault::crash(NodeId(1), 5_000_000);
    let mut faults = FaultPlan::none();
    faults.add(crash.clone());
    scenario.faults = Some(faults);

    assert_eq!(codes(&lint_plan(&scenario.plan())), Vec::<&str>::new());
    let plan = scenario.plan();
    let Probe::Drive { system, .. } = &plan.rows[0].runs[0].probe else {
        panic!("a scenario row is a drive probe");
    };
    let kept = system.faults.as_ref().expect("the scenario's schedule");
    assert_eq!(kept.faults(), [crash]);
}

#[test]
fn s006_window_wider_than_horizon() {
    let mut scenario = base_scenario();
    // Horizon ≈ 500 µs, window 1 s: the time series degenerates.
    scenario.driver.window_us = Some(1_000_000);

    let diags = lint_plan(&scenario.plan());
    assert_eq!(codes(&diags), vec!["S006"]);
    assert_eq!(diags[0].severity, Severity::Warn);
}

#[test]
fn s007_zero_probe_plan() {
    let mut scenario = base_scenario();
    // An axis with zero points legitimately expands to a zero-row plan —
    // but with no text to render it reports nothing at all.
    scenario.sweep = Sweep::Theta(vec![]);

    let diags = lint_plan(&scenario.plan());
    assert_eq!(codes(&diags), vec!["S007"]);
    assert_eq!(diags[0].severity, Severity::Note);
    assert!(
        diags[0].message.contains("empty sweep"),
        "{}",
        diags[0].message
    );
}
