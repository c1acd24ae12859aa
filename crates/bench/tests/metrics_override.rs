//! `repro --metrics exact|streaming` (`RunOptions::metrics`): the override
//! swaps the latency estimator of every driving probe and touches nothing
//! else, so the columns that are exact under both estimators — throughput
//! and mean latency — come out bit for bit the same either way.

use dichotomy_bench::{plan_for, run_report, RunOptions};
use dichotomy_core::metrics::MetricsMode;
use dichotomy_core::scenario::Probe;

fn seeded(metrics: Option<MetricsMode>) -> RunOptions {
    RunOptions {
        seed: 7,
        metrics,
        ..RunOptions::quick()
    }
}

#[test]
fn the_override_rewrites_every_driving_probe_and_nothing_else() {
    let own = plan_for("closed01", &seeded(None)).unwrap();
    let mut overridden = plan_for("closed01", &seeded(Some(MetricsMode::Streaming))).unwrap();
    let mut drives = 0;
    for run in overridden.rows.iter_mut().flat_map(|row| &mut row.runs) {
        let Probe::Drive { driver, .. } = &mut run.probe else {
            panic!("closed01 only drives");
        };
        assert_eq!(driver.metrics, MetricsMode::Streaming);
        // Undo the override: what is left must be the plan's own probe.
        driver.metrics = MetricsMode::Exact;
        drives += 1;
    }
    assert_eq!(drives, 7, "one driving probe per client count");
    assert_eq!(format!("{overridden:?}"), format!("{own:?}"));
}

/// `(row, tps, lat_ms)` of every row of a `--quick --seed 7` run, the
/// values as bit patterns.
fn exact_columns(id: &str, metrics: Option<MetricsMode>) -> Vec<(String, u64, u64)> {
    let report = run_report(id, &seeded(metrics)).unwrap();
    assert!(report.failures.is_empty());
    let bits = |row: &str, column: &str| report.value(row, column).unwrap().to_bits();
    report
        .rows
        .iter()
        .map(|row| {
            let label = &row.label;
            (label.clone(), bits(label, "tps"), bits(label, "lat_ms"))
        })
        .collect()
}

#[test]
fn streaming_closed01_matches_its_exact_run_bit_for_bit() {
    let exact = exact_columns("closed01", None);
    assert_eq!(exact.len(), 7);
    assert_eq!(
        exact_columns("closed01", Some(MetricsMode::Streaming)),
        exact
    );
}

#[test]
fn exact_scale01_matches_its_streaming_run_bit_for_bit() {
    let streaming = exact_columns("scale01", None);
    assert_eq!(streaming.len(), 3);
    assert_eq!(
        exact_columns("scale01", Some(MetricsMode::Exact)),
        streaming
    );
}
