//! From survivors to a report: the measurement plan, the measured designs,
//! the Pareto front and the calibration summary.
//!
//! Each surviving candidate becomes one plan row backed by two probes:
//!
//! * a **perf probe** — the candidate driven under its own arrival knob,
//!   contributing the `tps` and `p99_ms` columns;
//! * a **chaos probe** — the same system with a primary-crash schedule
//!   (the chaos grid's `primary-crash` row) under a windowed 1 000 tps
//!   open loop, contributing the fault-recovery time read off the stalled
//!   windows of its time series.
//!
//! The plan runs through [`run_plans_with`], so probe deduplication, the
//! persistent result cache and LPT scheduling all apply — re-exploring a
//! grid is warm-cache cheap, and output is byte-identical across worker
//! counts.

use std::fmt::Write as _;

use dichotomy_common::NodeId;
use dichotomy_core::experiments::chaos01_span_us;
use dichotomy_core::metrics::TimeSeries;
use dichotomy_core::scenario::{
    predicted_probe_cost, run_plans_with, ColumnSpec, ExecOptions, ExperimentPlan, Metric,
    PlanOutcome, PlannedRow, PlannedRun, Probe,
};
use dichotomy_core::{ArrivalSpec, DriverConfig};
use dichotomy_simnet::{FaultPlan, NodeFault};
use dichotomy_systems::SystemRegistry;

use crate::calib::{kendall_tau, per_cell_calibration, CellCalibration};
use crate::pareto::pareto_front;
use crate::spec::{enumerate, prune, ArrivalKnob, Candidate, EnumerateError, ExploreSpec};

/// Plan id under which the explorer's probes run (and cache).
pub const PLAN_ID: &str = "Explore 1";

/// One measured design point.
#[derive(Debug, Clone, PartialEq)]
pub struct Design {
    /// The candidate's deterministic name.
    pub name: String,
    /// Taxonomy cell, `replication|protocol|concurrency`.
    pub cell: String,
    /// The forecast that let it through the prune.
    pub forecast_tps: f64,
    /// Measured throughput (tps); NaN if the probe failed.
    pub measured_tps: f64,
    /// Measured p99 latency (ms); NaN if the probe failed.
    pub p99_ms: f64,
    /// Fault-recovery time (ms): the span of the stalled windows under the
    /// primary-crash schedule, 0 when the design never stalls.
    pub recovery_ms: f64,
    /// Whether the design is Pareto-optimal over
    /// (max tps, min p99, min recovery).
    pub on_front: bool,
}

/// A candidate the forecast cut before execution.
#[derive(Debug, Clone, PartialEq)]
pub struct CutDesign {
    /// The candidate's name.
    pub name: String,
    /// Its forecast throughput.
    pub forecast_tps: f64,
    /// The best forecast in its workload group — what dominated it.
    pub group_best_tps: f64,
}

/// Everything `repro explore` reports.
#[derive(Debug, Clone)]
pub struct ExploreOutcome {
    /// Grid size before tail sampling.
    pub grid_points: usize,
    /// Grid points dropped by the seeded tail sampling.
    pub sampled_out: usize,
    /// Candidates the forecast pruned (never executed), in enumeration
    /// order — the cut is logged, never silent.
    pub cut: Vec<CutDesign>,
    /// The measured designs, in enumeration order.
    pub designs: Vec<Design>,
    /// Kendall's τ between forecast and measured throughput rankings
    /// (NaN below two measured designs).
    pub kendall_tau: f64,
    /// Per-taxonomy-cell forecast error and fitted correction.
    pub cells: Vec<CellCalibration>,
    /// `(probe label, predicted cost)` for every scheduled probe, in plan
    /// order — the deterministic half of the scheduler's calibration feed
    /// (the measured walls live in [`PlanOutcome::calibration`]).
    pub scheduling: Vec<(String, f64)>,
    /// The underlying plan execution: wall, dedup/cache counters and the
    /// scheduler's predicted-vs-actual probe calibration.
    pub plan: PlanOutcome,
}

/// The primary-crash fault schedule the chaos probes run: the chaos grid's
/// `primary-crash` row over the same arrival span.
fn primary_crash(span: u64) -> FaultPlan {
    let mut plan = FaultPlan::none();
    plan.add(NodeFault::crash_until(NodeId(0), span / 3, 2 * span / 3));
    plan
}

/// Build the measurement plan: one row per survivor, a perf probe and a
/// chaos probe each.
pub fn measurement_plan(survivors: &[Candidate], txns: u64, seed: u64) -> ExperimentPlan {
    let span = chaos01_span_us(txns);
    let rows = survivors
        .iter()
        .map(|c| {
            let arrival = match c.arrival {
                ArrivalKnob::Open { offered_tps } => ArrivalSpec::OpenLoop { offered_tps },
                ArrivalKnob::Closed { clients } => ArrivalSpec::ClosedLoop {
                    clients,
                    think_time_us: 1_000,
                },
            };
            let perf = PlannedRun {
                probe: Probe::Drive {
                    system: c.system.clone(),
                    workload: c.workload.clone(),
                    driver: DriverConfig {
                        transactions: txns,
                        ..DriverConfig::default()
                    }
                    .with_seed(seed)
                    .with_arrival(arrival),
                },
                columns: vec![
                    ColumnSpec::new("tps", Metric::ThroughputTps),
                    ColumnSpec::new("p99_ms", Metric::LatencyP99Ms),
                ],
            };
            let chaos = PlannedRun {
                probe: Probe::Drive {
                    system: c
                        .system
                        .clone()
                        .with_label(format!("{}#chaos", c.name))
                        .with_faults(primary_crash(span)),
                    workload: c.workload.clone(),
                    driver: DriverConfig {
                        transactions: txns,
                        ..DriverConfig::default()
                    }
                    .with_seed(seed)
                    .with_arrival(ArrivalSpec::OpenLoop {
                        offered_tps: 1_000.0,
                    })
                    .with_window((span / 12).max(1)),
                },
                columns: Vec::new(),
            };
            PlannedRow {
                label: c.name.clone(),
                runs: vec![perf, chaos],
            }
        })
        .collect();
    ExperimentPlan {
        id: PLAN_ID,
        title: "design-space exploration: forecast-pruned survivors, measured",
        rows,
        text: None,
        diagnostics: Vec::new(),
    }
}

/// Fault-recovery time off a chaos probe's windowed series: the span from
/// the first to the last *stalled* window (offered load arriving, nothing
/// committing), in milliseconds. A design that never stalls recovers in 0.
pub fn recovery_time_ms(series: &TimeSeries) -> f64 {
    let mut stalled = series
        .windows
        .iter()
        .filter(|w| w.submitted > 0 && w.committed == 0);
    match stalled.next() {
        None => 0.0,
        Some(first) => {
            let last = stalled.next_back().unwrap_or(first);
            (last.end_us.saturating_sub(first.start_us)) as f64 / 1_000.0
        }
    }
}

/// Enumerate, prune, measure and report. The spec's full pipeline; `repro
/// explore` is a thin flag-parser around this.
pub fn run_explore(
    spec: &ExploreSpec,
    registry: &SystemRegistry,
    options: &ExecOptions,
) -> Result<ExploreOutcome, EnumerateError> {
    let enumeration = enumerate(spec)?;
    let pruned = prune(&enumeration.candidates, &spec.prune);
    let plan = measurement_plan(&pruned.survivors, spec.txns, spec.seed);
    let scheduling: Vec<(String, f64)> = plan
        .rows
        .iter()
        .flat_map(|r| &r.runs)
        .map(|run| (run.probe.label(), predicted_probe_cost(&run.probe)))
        .collect();
    let outcome = run_plans_with(&[&plan], registry, options)
        .pop()
        .expect("one plan in, one outcome out");

    let mut designs: Vec<Design> = pruned
        .survivors
        .iter()
        .zip(&outcome.report.rows)
        .map(|(c, row)| {
            let value = |name: &str| {
                row.values
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|&(_, v)| v)
                    .unwrap_or(f64::NAN)
            };
            // The chaos probe is the row's only windowed one, so it owns the
            // row's single series; a failed chaos probe leaves none.
            let recovery_ms = row
                .series
                .first()
                .map(|s| recovery_time_ms(&s.series))
                .unwrap_or(f64::NAN);
            Design {
                name: c.name.clone(),
                cell: c.cell.clone(),
                forecast_tps: c.forecast_tps,
                measured_tps: value("tps"),
                p99_ms: value("p99_ms"),
                recovery_ms,
                on_front: false,
            }
        })
        .collect();

    let points: Vec<Vec<f64>> = designs
        .iter()
        .map(|d| vec![d.measured_tps, -d.p99_ms, -d.recovery_ms])
        .collect();
    for i in pareto_front(&points) {
        designs[i].on_front = true;
    }

    let samples: Vec<(String, f64, f64)> = designs
        .iter()
        .map(|d| (d.cell.clone(), d.forecast_tps, d.measured_tps))
        .collect();
    let measured: Vec<&Design> = designs
        .iter()
        .filter(|d| d.measured_tps.is_finite())
        .collect();
    let tau = kendall_tau(
        &measured.iter().map(|d| d.forecast_tps).collect::<Vec<_>>(),
        &measured.iter().map(|d| d.measured_tps).collect::<Vec<_>>(),
    );

    Ok(ExploreOutcome {
        grid_points: enumeration.grid_points,
        sampled_out: enumeration.sampled_out,
        cut: pruned
            .cut
            .into_iter()
            .map(|(c, best)| CutDesign {
                name: c.name,
                forecast_tps: c.forecast_tps,
                group_best_tps: best,
            })
            .collect(),
        designs,
        kendall_tau: tau,
        cells: per_cell_calibration(&samples),
        scheduling,
        plan: outcome,
    })
}

impl ExploreOutcome {
    /// Fixed-width text report: the funnel counts, the measured designs
    /// (front members starred), and the calibration summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let surveyed = self.grid_points - self.sampled_out;
        let _ = writeln!(
            out,
            "== {PLAN_ID} — grid {} / sampled {} / pruned {} / measured {} ==",
            self.grid_points,
            surveyed,
            self.cut.len(),
            self.designs.len()
        );
        for cut in &self.cut {
            let _ = writeln!(
                out,
                "   pruned {:<44} forecast {:>12.1} vs group best {:>12.1}",
                cut.name, cut.forecast_tps, cut.group_best_tps
            );
        }
        let _ = writeln!(
            out,
            "{:<46}{:>14}{:>14}{:>10}{:>13}  front",
            "design", "forecast_tps", "tps", "p99_ms", "recovery_ms"
        );
        for d in &self.designs {
            let _ = writeln!(
                out,
                "{:<46}{:>14.1}{:>14.1}{:>10.2}{:>13.1}  {}",
                d.name,
                d.forecast_tps,
                d.measured_tps,
                d.p99_ms,
                d.recovery_ms,
                if d.on_front { "*" } else { "" }
            );
        }
        let _ = writeln!(
            out,
            "forecast rank agreement: kendall_tau={:.3}",
            self.kendall_tau
        );
        for c in &self.cells {
            let _ = writeln!(
                out,
                "cell {:<44} designs {:>2}  mean_abs_rel_err {:>7.3}  correction {:>7.3}",
                c.cell, c.designs, c.mean_abs_rel_err, c.correction
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dichotomy_core::metrics::{LatencySummary, TimeWindow};

    fn window(start_us: u64, end_us: u64, submitted: u64, committed: u64) -> TimeWindow {
        TimeWindow {
            start_us,
            end_us,
            submitted,
            committed,
            aborted: 0,
            offered_tps: 0.0,
            throughput_tps: 0.0,
            abort_rate_percent: 0.0,
            latency: LatencySummary::default(),
        }
    }

    #[test]
    fn recovery_spans_the_stalled_windows() {
        let healthy = TimeSeries {
            windows: vec![window(0, 10, 5, 5), window(10, 20, 5, 4)],
            ..TimeSeries::default()
        };
        assert_eq!(recovery_time_ms(&healthy), 0.0);

        let faulted = TimeSeries {
            windows: vec![
                window(0, 1_000, 5, 5),
                window(1_000, 2_000, 5, 0), // dip starts
                window(2_000, 3_000, 0, 0), // idle window: not a stall
                window(3_000, 4_000, 5, 0), // still stalled
                window(4_000, 5_000, 5, 9), // backlog drains
            ],
            ..TimeSeries::default()
        };
        assert_eq!(recovery_time_ms(&faulted), 3.0);
    }

    #[test]
    fn plan_rows_mirror_the_survivors() {
        let spec = ExploreSpec::quick(300, 7);
        let enumeration = enumerate(&spec).unwrap();
        let pruned = prune(&enumeration.candidates, &spec.prune);
        let plan = measurement_plan(&pruned.survivors, spec.txns, spec.seed);
        assert_eq!(plan.rows.len(), pruned.survivors.len());
        for (row, c) in plan.rows.iter().zip(&pruned.survivors) {
            assert_eq!(row.label, c.name);
            assert_eq!(row.runs.len(), 2, "perf + chaos probes");
            match (&row.runs[0].probe, &row.runs[1].probe) {
                (
                    Probe::Drive { driver: perf, .. },
                    Probe::Drive {
                        system,
                        driver: chaos,
                        ..
                    },
                ) => {
                    assert!(perf.window_us.is_none());
                    assert!(chaos.window_us.is_some());
                    assert_eq!(system.label(), format!("{}#chaos", c.name));
                }
                other => panic!("unexpected probes: {other:?}"),
            }
        }
    }
}
