//! The claims table (`dichotomy_bench::claims`) against fresh runs of every
//! experiment at the default seed: no probe may fail, every report must
//! carry rows or text, and every row must evaluate to exactly the status the
//! table records for that size.
//!
//! Model mutations the table must catch, each checked on a throwaway copy of
//! the tree, with the rows that caught it:
//! - Outage windows off (`MultiResource::schedule` ignores its `Outages`, so
//!   AHL's reconfigurations never land and no crash stalls a station):
//!   `fig14.ahl-reconfig-costs` at full size, `fault01.dip-and-recovery` and
//!   `chaos01.survives-faults` at both sizes.
//! - AHL's periodic reconfiguration term alone off:
//!   `fig14.ahl-reconfig-costs` at full size.
//! - TiDB judging write conflicts at arrival instead of at `sql_done`, so a
//!   holder that finished before the coordinator reached the key still
//!   costs contention rounds: `tab05.sql-layer-scales` at quick size (it
//!   holds again); no full-size row. The unit test
//!   `tidb::tests::a_conflict_cleared_by_the_coordinators_decision_costs_nothing`
//!   catches it.

use dichotomy_bench::claims::CLAIMS;
use dichotomy_bench::{plan_for, RunOptions, EXPERIMENTS};
use dichotomy_core::scenario::{run_plans_with, ExecOptions};
use dichotomy_core::systems::SystemRegistry;

fn claims_match_their_status(opts: &RunOptions) {
    let plans: Vec<_> = EXPERIMENTS
        .iter()
        .map(|id| plan_for(id, opts).expect("known experiment"))
        .collect();
    let outcomes = run_plans_with(
        &plans.iter().collect::<Vec<_>>(),
        &SystemRegistry::with_builtins(),
        &ExecOptions::with_jobs(2),
    );
    let mut problems = Vec::new();
    for (id, outcome) in EXPERIMENTS.iter().zip(&outcomes) {
        let report = &outcome.report;
        if !report.failures.is_empty() {
            problems.push(format!("{id}: failed probes {:?}", report.failures));
        }
        if report.rows.is_empty() && report.text.is_none() {
            problems.push(format!("{id}: empty report"));
        }
        for claim in CLAIMS.iter().filter(|claim| claim.experiment == *id) {
            if let Err(why) = claim.verify(report, opts.quick) {
                problems.push(why);
            }
        }
    }
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}

#[test]
fn quick_claims_match_their_status() {
    claims_match_their_status(&RunOptions::quick());
}

#[test]
#[ignore = "full size: scripts/ci.sh runs it in release"]
fn full_claims_match_their_status() {
    claims_match_their_status(&RunOptions::default());
}
