//! The **semantic plan linter**. (Source-level determinism rules are
//! clippy's: `clippy.toml` and `[workspace.lints]` at the workspace root.)
//!
//! `repro lint [ids…]` expands every experiment to its
//! [`ExperimentPlan`](crate::ExperimentPlan) *without executing a single
//! probe* and diagnoses plan-level mistakes statically — in the spirit of
//! static robustness analysis over declarative transaction templates: the
//! [`Scenario`](crate::Scenario) spec is declarative enough that a whole
//! class of misconfigurations is decidable before any simulation runs.
//!
//! Codes (`S0xx`, in the [`Diagnostic`] model of `dichotomy-common`):
//!
//! | code | severity | finding |
//! |------|----------|---------|
//! | S001 | warn | fault event at/past the arrival horizon (dropped) |
//! | S002 | warn | overlapping crash windows merged |
//! | S003 | warn | duplicate probes in one plan (wasted dedup slots) |
//! | S004 | deny | `Sweep::OfferedTps` over a non-open-loop arrival |
//! | S005 | deny | `Mixed` population share rounds to zero transactions |
//! | S006 | warn | `window_us` wider than the run's arrival horizon |
//! | S007 | note | zero-probe experiment riding a bench set |
//! | S008 | deny | zero-survivor exploration (lives in `dichotomy-explore::lint_spec`; `repro lint explore` surfaces it) |
//!
//! S001/S002 originate in [`FaultPlan::validate`] during plan expansion
//! (`sanitize_fault_plans` records them on `plan.diagnostics`); the linter
//! re-validates hand-built plans too, so both construction paths report
//! identical findings.

use std::collections::BTreeMap;

use dichotomy_common::{Diagnostic, Severity};

use crate::driver::{mixed_shares, ArrivalSpec};
use crate::scenario::{arrival_horizon_us, probe_key_bytes, ExperimentPlan, Probe, Scenario};
use crate::Sweep;

/// Lint a fully expanded plan. Includes the expansion-time findings carried
/// on `plan.diagnostics` (S001/S002 from `Scenario::plan()`), a fresh fault
/// re-validation for hand-built plans, and the plan-shape checks
/// (S003/S005/S006/S007). The experiment field of each locus is the plan id;
/// callers that know the repro key can rewrite it via
/// [`Diagnostic::for_experiment`].
pub fn lint_plan(plan: &ExperimentPlan) -> Vec<Diagnostic> {
    let mut diags = plan.diagnostics.clone();

    // Fresh fault validation: plans built through `Scenario::plan()` are
    // already sanitized (re-validation finds nothing, the findings sit on
    // `plan.diagnostics`), but hand-assembled plans never ran it.
    for row in &plan.rows {
        for run in &row.runs {
            let Probe::Drive { system, driver, .. } = &run.probe else {
                continue;
            };
            if let Some(faults) = &system.faults {
                if !faults.is_empty() {
                    let (_, found) = faults.validate(arrival_horizon_us(driver));
                    diags.extend(
                        found
                            .into_iter()
                            .map(|d| d.at_plan(plan.id, row.label.clone(), system.label())),
                    );
                }
            }

            // S005: a Mixed population whose weight largest-remainder-rounds
            // to a zero transaction share never submits anything — dead
            // configuration, almost certainly a weight typo.
            if let Some(ArrivalSpec::Mixed { populations }) = &driver.arrival {
                let shares = mixed_shares(populations, driver.transactions);
                for (i, ((weight, _), share)) in populations.iter().zip(&shares).enumerate() {
                    if *share == 0 {
                        diags.push(
                            Diagnostic::new(
                                "S005",
                                Severity::Deny,
                                format!(
                                    "mixed population {i} (weight {weight}) \
                                     largest-remainder-rounds to a zero transaction share \
                                     out of {}: it never submits",
                                    driver.transactions
                                ),
                            )
                            .with_help("raise the weight or the transaction budget")
                            .at_plan(
                                plan.id,
                                row.label.clone(),
                                system.label(),
                            ),
                        );
                    }
                }
            }

            // S006: a metrics window wider than the whole arrival horizon
            // collapses the time series to a single window — dips, stalls
            // and recovery bursts become invisible.
            if let (Some(window), Some(horizon)) = (driver.window_us, arrival_horizon_us(driver)) {
                if window > horizon {
                    diags.push(
                        Diagnostic::new(
                            "S006",
                            Severity::Warn,
                            format!(
                                "window_us ({window} µs) exceeds the run's arrival horizon \
                                 ({horizon} µs): the time series degenerates to one window"
                            ),
                        )
                        .with_help("shrink window_us or extend the run")
                        .at_plan(
                            plan.id,
                            row.label.clone(),
                            system.label(),
                        ),
                    );
                }
            }
        }
    }

    // S003: duplicate probes inside one plan. Cross-plan duplicates are the
    // dedup layer's win; *intra*-plan duplicates usually mean a sweep point
    // or row was listed twice.
    let mut seen: BTreeMap<Vec<u8>, (usize, usize)> = BTreeMap::new();
    for (ri, row) in plan.rows.iter().enumerate() {
        for run in &row.runs {
            let key = probe_key_bytes(&run.probe);
            match seen.get(&key) {
                Some(&(first_row, _)) => {
                    diags.push(
                        Diagnostic::new(
                            "S003",
                            Severity::Warn,
                            format!(
                                "probe duplicates row '{}' exactly (same content key); \
                                 the dedup layer will execute it once, but the plan \
                                 lists it twice",
                                plan.rows[first_row].label
                            ),
                        )
                        .with_help("drop the duplicate sweep point or row")
                        .at_plan(
                            plan.id,
                            row.label.clone(),
                            run.probe.label(),
                        ),
                    );
                }
                None => {
                    seen.insert(key, (ri, 0));
                }
            }
        }
    }

    // S007: zero probes — legitimate for text-only experiments (Table 2),
    // but worth a note when the plan rides a bench set: it contributes no
    // timings and an accidental empty sweep looks identical.
    if plan.probe_count() == 0 {
        diags.push(
            Diagnostic::new(
                "S007",
                Severity::Note,
                if plan.text.is_some() {
                    "plan schedules zero probes (text-only experiment)".to_string()
                } else {
                    "plan schedules zero probes and renders no text: empty sweep?".to_string()
                },
            )
            .at_plan(plan.id, "", ""),
        );
    }

    diags
}

/// Lint a scenario *before* expansion: scenario-level mistakes that are
/// invisible in the expanded plan (S004, duplicate sweep values), then
/// everything [`lint_plan`] finds on the expansion itself.
pub fn lint_scenario(scenario: &Scenario) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    // S004: Sweep::OfferedTps writes `driver.offered_tps` and pins the
    // arrival spec to an open loop only when none is set; over an explicit
    // closed-loop (or phased/mixed) arrival the swept knob is simply never
    // read — every sweep point measures the same thing.
    if let Sweep::OfferedTps(points) = &scenario.sweep {
        match &scenario.driver.arrival {
            Some(ArrivalSpec::ClosedLoop { .. }) => {
                diags.push(
                    Diagnostic::new(
                        "S004",
                        Severity::Deny,
                        format!(
                            "Sweep::OfferedTps ({} points) over a closed-loop arrival: \
                             closed loops pace on completions, the swept offered_tps is \
                             never read",
                            points.len()
                        ),
                    )
                    .with_help("sweep ClosedClients/ThinkTimeUs instead, or drop the arrival spec")
                    .at_plan(scenario.id, "", ""),
                );
            }
            Some(ArrivalSpec::Phased { .. }) | Some(ArrivalSpec::Mixed { .. }) => {
                diags.push(
                    Diagnostic::new(
                        "S004",
                        Severity::Deny,
                        format!(
                            "Sweep::OfferedTps ({} points) over a phased/mixed arrival: \
                             the arrival spec overrides the swept offered_tps",
                            points.len()
                        ),
                    )
                    .with_help("encode the load axis in the arrival spec itself")
                    .at_plan(scenario.id, "", ""),
                );
            }
            None | Some(ArrivalSpec::OpenLoop { .. }) => {}
        }
    }

    // S003 (scenario form): duplicate sweep values expand to byte-identical
    // probes; report them at the source rather than per expanded row.
    for (a, b) in duplicate_sweep_points(&scenario.sweep) {
        diags.push(
            Diagnostic::new(
                "S003",
                Severity::Warn,
                format!("sweep point {b} duplicates point {a}: identical rows"),
            )
            .with_help("drop the duplicate sweep value")
            .at_plan(scenario.id, "", ""),
        );
    }

    diags.extend(lint_plan(&scenario.plan()));
    diags
}

/// Indices `(first, dup)` of sweep points equal to an earlier point.
/// Float axes compare by bit pattern — exactly the equality the probe
/// content key sees after `Encode`.
fn duplicate_sweep_points(sweep: &Sweep) -> Vec<(usize, usize)> {
    fn dups<T, K: Ord>(items: &[T], key: impl Fn(&T) -> K) -> Vec<(usize, usize)> {
        let mut first: BTreeMap<K, usize> = BTreeMap::new();
        let mut out = Vec::new();
        for (i, item) in items.iter().enumerate() {
            match first.get(&key(item)) {
                Some(&j) => out.push((j, i)),
                None => {
                    first.insert(key(item), i);
                }
            }
        }
        out
    }
    match sweep {
        Sweep::None | Sweep::Fault(_) => Vec::new(),
        Sweep::Nodes(v) => dups(v, |&n| n),
        Sweep::Theta(v) => dups(v, |&t| t.to_bits()),
        Sweep::OpsPerTxn { counts, .. } => dups(counts, |&c| c),
        Sweep::RecordSize(v) => dups(v, |&s| s),
        Sweep::Shards(v) => dups(v, |&s| s),
        Sweep::OfferedTps(v) => dups(v, |&t| t.to_bits()),
        Sweep::ClosedClients(v) | Sweep::ThinkTimeUs(v) | Sweep::MaxOutstanding(v) => {
            dups(v, |&x| x)
        }
    }
}
