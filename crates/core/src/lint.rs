//! The **semantic plan linter**. (Source-level determinism rules are
//! clippy's: `clippy.toml` and `[workspace.lints]` at the workspace root.)
//!
//! `repro lint [ids…]` expands every experiment to its [`ExperimentPlan`]
//! *without executing a single probe* and diagnoses plan-level mistakes
//! statically — in the spirit of static robustness analysis over declarative
//! transaction templates: the [`Scenario`](crate::Scenario) spec is
//! declarative enough that a whole class of misconfigurations is decidable
//! before any simulation runs.
//!
//! Codes (`S0xx`, in the [`Diagnostic`] model of `dichotomy-common`):
//!
//! | code | severity | finding |
//! |------|----------|---------|
//! | S001 | warn | fault event at/past the arrival horizon (dropped) |
//! | S002 | warn | overlapping crash windows merged |
//! | S003 | warn | duplicate probes in one plan (wasted dedup slots) |
//! | S004 | — | retired with the sweep axes an arrival spec could leave unread; not reused |
//! | S005 | — | retired with the `Mixed` arrival population it checked; not reused |
//! | S006 | warn | `window_us` wider than the run's arrival horizon |
//! | S007 | note | zero-probe experiment riding a bench set |
//! | S008 | deny | zero-survivor exploration (lives in `dichotomy-explore::lint_spec`; `repro lint explore` surfaces it) |
//!
//! S001/S002 originate in
//! [`FaultPlan::validate`](dichotomy_simnet::FaultPlan::validate) during plan
//! expansion (`sanitize_fault_plans` returns them onto `plan.diagnostics`);
//! the linter runs the same function on a clone of a hand-built plan, so
//! both construction paths report identical findings.

use std::collections::BTreeMap;

use dichotomy_common::{Diagnostic, Severity};

use crate::scenario::{
    arrival_horizon_us, probe_key_bytes, sanitize_fault_plans, ExperimentPlan, Probe,
};

/// Lint a fully expanded plan. Includes the expansion-time findings carried
/// on `plan.diagnostics` (S001/S002 from `Scenario::plan()`), a fresh fault
/// re-validation for hand-built plans, and the plan-shape checks
/// (S003/S006/S007). The experiment field of each locus is the plan id;
/// callers that know the repro key can rewrite it via
/// [`Diagnostic::for_experiment`].
pub fn lint_plan(plan: &ExperimentPlan) -> Vec<Diagnostic> {
    let mut diags = plan.diagnostics.clone();

    // Fresh fault validation: plans built through `Scenario::plan()` are
    // already sanitized (re-validation finds nothing, the findings sit on
    // `plan.diagnostics`), but hand-assembled plans never ran it.
    diags.extend(sanitize_fault_plans(&mut plan.clone()));

    for row in &plan.rows {
        for run in &row.runs {
            let Probe::Drive { system, driver, .. } = &run.probe else {
                continue;
            };

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
