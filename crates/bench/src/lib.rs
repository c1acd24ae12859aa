//! The benchmark harness crate.
//!
//! * `cargo run -p dichotomy-bench --release --bin repro -- <experiment>`
//!   runs one experiment, or `all` of them ([`EXPERIMENTS`]; `repro --list`
//!   prints each with its title), printing the same rows the paper reports.
//!   `--txns`/`--seed` rescale and reseed the runs, and `--json PATH` writes
//!   every report as a machine-readable document (see [`json`]).
//! * `cargo run -p dichotomy-bench --release --bin microbench` runs the
//!   dependency-free microbenchmarks over the substrates (hashing, MPT/MBT
//!   updates, OCC validation, consensus profiles).
//!
//! The experiment *plans* live in [`dichotomy_core::experiments`]; this
//! crate scales them (quick vs full), executes them through the generic
//! `run_plan` engine and serializes the reports.

#![forbid(unsafe_code)]

pub mod cache;
pub mod claims;
pub mod json;

use dichotomy_core::experiments::{self as exp, ExperimentReport};
use dichotomy_core::metrics::MetricsMode;
use dichotomy_core::scenario::{run_plan, ExperimentPlan, Probe};

/// Every experiment the harness can run, with its identifier.
pub const EXPERIMENTS: &[&str] = &[
    "fig04", "fig05", "fig06", "fig07", "fig08", "fig09", "fig10", "fig11", "fig12", "fig13",
    "fig14", "fig15", "tab02", "tab04", "tab05", "fault01", "closed01", "ramp01", "scale01",
    "chaos01",
];

/// How to scale and seed a run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Scale the transaction counts down for smoke runs.
    pub quick: bool,
    /// Override the per-experiment transaction/record count.
    pub txns: Option<u64>,
    /// RNG seed threaded through systems, workloads and the driver.
    pub seed: u64,
    /// Replace the metrics mode of every driving probe
    /// (`repro --metrics exact|streaming`). `None` keeps each plan's own
    /// choice: Exact everywhere except `scale01`.
    pub metrics: Option<MetricsMode>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            quick: false,
            txns: None,
            seed: dichotomy_core::common::rng::DEFAULT_SEED,
            metrics: None,
        }
    }
}

impl RunOptions {
    /// Quick-mode options.
    pub fn quick() -> Self {
        RunOptions {
            quick: true,
            ..RunOptions::default()
        }
    }

    /// The driven transaction count: the override, or the mode default.
    fn txns(&self) -> u64 {
        self.txns.unwrap_or(if self.quick { 300 } else { 2_000 })
    }

    /// The record count for the storage experiment (fig12).
    fn storage_records(&self) -> u64 {
        self.txns.unwrap_or(if self.quick { 500 } else { 2_000 })
    }

    /// The record count for the authenticated-index experiment (fig13).
    fn adr_records(&self) -> u64 {
        self.txns.unwrap_or(if self.quick { 2_000 } else { 10_000 })
    }

    /// The per-row transaction budget of the engine-scale experiment
    /// (scale01): large enough in full mode that every one of the million
    /// top-row clients issues at least one transaction.
    fn scale_txns(&self) -> u64 {
        self.txns
            .unwrap_or(if self.quick { 4_000 } else { 1_200_000 })
    }

    /// The client populations scale01 sweeps: the full million-client ladder,
    /// or a three-row miniature with the same knee shape for smoke runs.
    fn scale_clients(&self) -> Vec<u64> {
        if self.quick {
            vec![8, 64, 2_000]
        } else {
            exp::SCALE01_CLIENTS.to_vec()
        }
    }
}

/// Build the plan for one experiment id under the given options. Returns
/// `None` for unknown ids.
pub fn plan_for(id: &str, opts: &RunOptions) -> Option<ExperimentPlan> {
    let n = opts.txns();
    let seed = opts.seed;
    let plan = match id {
        "fig04" => exp::fig04_plan(n, seed),
        "fig05" => exp::fig05_plan(n / 4, seed),
        "fig06" => exp::fig06_plan(n, seed),
        "fig07" => exp::fig07_plan(n, seed),
        "fig08" => exp::fig08_plan(n, seed),
        "fig09" => exp::fig09_plan(n, &[0.0, 0.2, 0.4, 0.6, 0.8, 1.0], seed),
        "fig10" => exp::fig10_plan(n, &[1, 2, 4, 6, 8, 10], seed),
        "fig11" => exp::fig11_plan(n, &[10, 100, 1000, 5000], seed),
        "fig12" => exp::fig12_plan(opts.storage_records(), &[10, 100, 1000, 5000], seed),
        "fig13" => exp::fig13_plan(opts.adr_records(), &[10, 100, 1000, 5000]),
        "fig14" => exp::fig14_plan(n, &[1, 4, 8, 16], seed),
        "fig15" => exp::fig15_plan(),
        "tab02" => exp::tab02_plan(),
        "tab04" => exp::tab04_plan(n, &[3, 7, 11, 15, 19], seed),
        "tab05" => exp::tab05_plan(n / 2, &[3, 7, 11], seed),
        "fault01" => exp::fault01_plan(n, seed),
        "closed01" => exp::closed01_plan(n, seed),
        "ramp01" => exp::ramp01_plan(n, seed),
        "scale01" => exp::scale01_plan(opts.scale_txns(), &opts.scale_clients(), seed),
        // The fault schedules derive from the plan's arrival span, which
        // derives from `n` — so `--quick` (and `--txns`) rescale the fault
        // timestamps together with the shortened run.
        "chaos01" => exp::chaos01_plan(n, seed),
        _ => return None,
    };
    Some(apply_metrics_override(plan, opts.metrics))
}

/// Rewrite every driving probe's metrics mode per the override (no-op
/// without one).
fn apply_metrics_override(mut plan: ExperimentPlan, over: Option<MetricsMode>) -> ExperimentPlan {
    let Some(mode) = over else { return plan };
    for row in &mut plan.rows {
        for run in &mut row.runs {
            if let Probe::Drive { driver, .. } = &mut run.probe {
                driver.metrics = mode;
            }
        }
    }
    plan
}

/// Run one experiment by id and return its structured report.
pub fn run_report(id: &str, opts: &RunOptions) -> Option<ExperimentReport> {
    plan_for(id, opts).map(|plan| run_plan(&plan))
}

/// Whether any driving probe of the plan carries a non-empty fault schedule
/// (the `repro --list` `[faults]` marker).
pub fn plan_has_faults(plan: &ExperimentPlan) -> bool {
    plan.rows.iter().any(|row| {
        row.runs.iter().any(|run| match &run.probe {
            Probe::Drive { system, .. } => system.faults.as_ref().is_some_and(|f| !f.is_empty()),
            _ => false,
        })
    })
}

/// (id, report id, title, carries faults) for every experiment, for
/// `repro --list`.
pub fn list_experiments() -> Vec<(&'static str, &'static str, &'static str, bool)> {
    let opts = RunOptions::quick();
    EXPERIMENTS
        .iter()
        .filter_map(|id| {
            plan_for(id, &opts).map(|plan| (*id, plan.id, plan.title, plan_has_faults(&plan)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repro_all_contains_duplicate_probes_the_engine_dedups() {
        // `repro all` runs every plan on one pool; probes are deduplicated
        // by content key across ALL of them. The suite genuinely contains
        // duplicates (e.g. fig04/fig11 share baseline cells), so the
        // distinct-key count must come in strictly below the probe count —
        // if this ever fails the dedup layer has nothing to dedup and the
        // `dedup_saved_ms` accounting is vacuous.
        use dichotomy_core::scenario::probe_key_bytes;
        use std::collections::BTreeSet;
        let opts = RunOptions::quick();
        let mut total = 0usize;
        let mut distinct: BTreeSet<Vec<u8>> = BTreeSet::new();
        for id in EXPERIMENTS {
            let plan = plan_for(id, &opts).expect("known experiment");
            if *id == "tab02" {
                // The only text-only plan: zero probes, excluded from bench
                // timings by `repro` (the 0-row/0-ms history-noise fix).
                assert_eq!(plan.probe_count(), 0);
            }
            for row in &plan.rows {
                for run in &row.runs {
                    total += 1;
                    distinct.insert(probe_key_bytes(&run.probe));
                }
            }
        }
        assert!(
            distinct.len() < total,
            "expected duplicate probes across `repro all`: {total} probes, {} distinct",
            distinct.len()
        );
        assert!(total > 0 && !distinct.is_empty());
    }

    #[test]
    fn closed01_and_ramp01_are_dispatchable_and_windowed() {
        let closed = run_report("closed01", &RunOptions::quick()).unwrap();
        assert_eq!(closed.rows.len(), 7);
        assert!(closed.failures.is_empty());
        let ramp = run_report("ramp01", &RunOptions::quick()).unwrap();
        assert_eq!(ramp.rows.len(), 1);
        assert!(ramp.failures.is_empty());
        let series = &ramp.rows[0].series[0].series;
        assert!(!series.is_empty());
        // The offered side of the windows carries the ramp.
        assert!(series.windows.iter().any(|w| w.submitted > 0));
    }

    #[test]
    fn fault01_smoke_run_reports_a_windowed_series() {
        let report = run_report("fault01", &RunOptions::quick()).expect("known experiment");
        assert_eq!(report.rows.len(), 1);
        let series = &report.rows[0].series;
        assert_eq!(series.len(), 1);
        assert!(!series[0].series.is_empty());
        // The crash dip: at least one interior window with zero commits.
        assert!(series[0].series.windows.iter().any(|w| w.committed == 0));
    }

    #[test]
    fn every_experiment_has_a_plan_and_a_listing() {
        let listed = list_experiments();
        assert_eq!(listed.len(), EXPERIMENTS.len());
        for (key, id, title, _) in &listed {
            assert!(EXPERIMENTS.contains(key));
            assert!(!id.is_empty() && !title.is_empty());
        }
        // The fault marker: schedules-carrying experiments flag it, the
        // fault-free grids don't.
        let has_faults = |key: &str| {
            listed
                .iter()
                .find(|(k, ..)| *k == key)
                .map(|&(.., f)| f)
                .unwrap()
        };
        assert!(has_faults("fault01"));
        assert!(has_faults("chaos01"));
        assert!(!has_faults("fig04"));
        assert!(!has_faults("scale01"));
    }

    #[test]
    fn chaos01_quick_mode_scales_the_fault_timestamps_with_the_run() {
        // Satellite check: under --quick the arrival span shrinks, and the
        // crash window must shrink with it instead of outrunning the run.
        let quick = plan_for("chaos01", &RunOptions::quick()).unwrap();
        let span = dichotomy_core::experiments::chaos01_span_us(RunOptions::quick().txns());
        let crash_row = quick
            .rows
            .iter()
            .find(|r| r.label == "primary-crash")
            .unwrap();
        for run in &crash_row.runs {
            let Probe::Drive { system, .. } = &run.probe else {
                panic!("chaos01 drives");
            };
            let faults = system.faults.as_ref().unwrap();
            assert_eq!(faults.faults().len(), 1);
            assert_eq!(faults.faults()[0].from, span / 3);
            assert!(faults.faults()[0].until <= Some(span));
        }
        // A txns override rescales the schedule the same way.
        let opts = RunOptions {
            txns: Some(60),
            ..RunOptions::quick()
        };
        let tiny = plan_for("chaos01", &opts).unwrap();
        let tiny_span = dichotomy_core::experiments::chaos01_span_us(60);
        let row = tiny
            .rows
            .iter()
            .find(|r| r.label == "primary-crash")
            .unwrap();
        let Probe::Drive { system, .. } = &row.runs[0].probe else {
            panic!("chaos01 drives");
        };
        assert_eq!(
            system.faults.as_ref().unwrap().faults()[0].from,
            tiny_span / 3
        );
    }

    #[test]
    fn txns_override_rescales_the_plans() {
        let opts = RunOptions {
            txns: Some(42),
            ..RunOptions::quick()
        };
        let plan = plan_for("fig13", &opts).unwrap();
        // fig13 drives `records` inserts per row; the override reaches it.
        match &plan.rows[0].runs[0].probe {
            dichotomy_core::scenario::Probe::AdrOverhead { records, .. } => {
                assert_eq!(*records, 42)
            }
            _ => panic!("expected the ADR probe"),
        }
    }

    #[test]
    fn seed_threads_from_options_into_the_plan() {
        let opts = RunOptions {
            seed: 777,
            ..RunOptions::quick()
        };
        let plan = plan_for("fig06", &opts).unwrap();
        match &plan.rows[0].runs[0].probe {
            dichotomy_core::scenario::Probe::Drive { driver, .. } => assert_eq!(driver.seed, 777),
            _ => panic!("expected a drive probe"),
        }
    }
}
