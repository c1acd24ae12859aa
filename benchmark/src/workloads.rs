//! The benchmark's workloads: what each one runs, and one iteration of it.
//!
//! Every workload is a batch job built from the same public entry points
//! `repro` uses (`dichotomy_bench::plan_for`, `scenario::run_plans_with`,
//! `explore::run_explore`, `json::document`, `cache::DiskCache`). The seed
//! reaches the simulator only through the plans generated here.

use std::time::Instant;

use dichotomy_bench::{json, plan_for, RunOptions, EXPERIMENTS};
use dichotomy_core::common::Hash;
use dichotomy_core::experiments::{self as exp, ExperimentReport};
use dichotomy_core::scenario::{
    run_plans_with, ExecOptions, ExperimentPlan, PlannedRun, Probe, ProbeCache,
};
use dichotomy_core::systems::SystemRegistry;
use dichotomy_explore::{lint_spec, run_explore, ExploreSpec};

use crate::trace::Trace;

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadDef {
    /// The name `--workload` takes and `BENCHMARK.json` lists.
    pub name: &'static str,
    /// Worker threads of the probe pool during measured iterations.
    pub jobs: usize,
    /// Whether measured iterations are answered from a `DiskCache` filled
    /// during set-up (nothing simulates).
    pub replay: bool,
    /// Whether `BENCHMARK.json` lists the workload, i.e. whether the bounds
    /// gate it. `warm_replay` is reported but ungated: its millisecond
    /// iterations are all allocation and file reads, which this host slows
    /// by up to a half for tens of seconds at a time (see README.md).
    pub gated: bool,
}

/// Every workload, in reporting order. Why each exists: see README.md and
/// the `why` lines of `BENCHMARK.json`.
pub const WORKLOADS: [WorkloadDef; 7] = [
    WorkloadDef {
        name: "suite_quick",
        jobs: 1,
        replay: false,
        gated: true,
    },
    WorkloadDef {
        name: "suite_quick_j2",
        jobs: 2,
        replay: false,
        gated: true,
    },
    WorkloadDef {
        name: "scale_closed",
        jobs: 1,
        replay: false,
        gated: true,
    },
    WorkloadDef {
        name: "open_exact",
        jobs: 1,
        replay: false,
        gated: true,
    },
    WorkloadDef {
        name: "substrate_state",
        jobs: 1,
        replay: false,
        gated: true,
    },
    WorkloadDef {
        name: "explore_full",
        jobs: 1,
        replay: false,
        gated: true,
    },
    WorkloadDef {
        name: "warm_replay",
        jobs: 1,
        replay: true,
        gated: false,
    },
];

/// The workload named `name`.
pub fn workload(name: &str) -> Option<WorkloadDef> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// What a workload executes.
pub enum Body {
    /// Experiment plans on one shared pool, then render + `json::document`.
    Plans {
        /// The `repro` experiment key of each plan.
        keys: Vec<&'static str>,
        /// The expanded plans.
        plans: Vec<ExperimentPlan>,
        /// `quick` / `txns` as `json::document` records them.
        quick: bool,
        /// See `quick`.
        txns: Option<u64>,
    },
    /// The design-space explorer, as `repro explore` builds it.
    Explore(ExploreSpec),
}

/// A workload with its inputs generated from the seed.
pub struct Prepared {
    /// Which workload.
    pub def: WorkloadDef,
    /// The seed the inputs were generated from.
    pub seed: u64,
    /// What to run.
    pub body: Body,
}

const THETAS: [f64; 6] = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0];
const RECORD_SIZES: [usize; 4] = [10, 100, 1000, 5000];

/// Generate a workload's inputs. `smoke` shrinks every workload to well
/// under a second (`check.sh`, the test suite); the sizes otherwise are the
/// ones `BENCHMARK.json` describes.
///
/// `inject_failure` appends a probe that cannot succeed (an unknown Table 2
/// profile) to the first plan — how `check.sh` proves a failed probe is
/// counted and fails the run.
pub fn prepare(def: WorkloadDef, seed: u64, smoke: bool, inject_failure: bool) -> Prepared {
    let suite = || {
        let opts = RunOptions {
            seed,
            txns: smoke.then_some(40),
            ..RunOptions::quick()
        };
        let plans = EXPERIMENTS
            .iter()
            .map(|id| plan_for(id, &opts).expect("EXPERIMENTS lists only known ids"))
            .collect();
        Body::Plans {
            keys: EXPERIMENTS.to_vec(),
            plans,
            quick: true,
            txns: opts.txns,
        }
    };
    let mut body = match def.name {
        "suite_quick" | "suite_quick_j2" | "warm_replay" => suite(),
        "scale_closed" => {
            let (txns, clients): (u64, &[u64]) = if smoke {
                (3_000, &[8, 64, 2_000])
            } else {
                (250_000, &[64, 8_192, 200_000])
            };
            Body::Plans {
                keys: vec!["scale01"],
                plans: vec![exp::scale01_plan(txns, clients, seed)],
                quick: smoke,
                txns: Some(txns),
            }
        }
        "open_exact" => {
            let (fig04, fig09) = if smoke { (600, 200) } else { (20_000, 5_000) };
            Body::Plans {
                keys: vec!["fig04", "fig09"],
                plans: vec![
                    exp::fig04_plan(fig04, seed),
                    exp::fig09_plan(fig09, &THETAS, seed),
                ],
                quick: smoke,
                txns: Some(fig04),
            }
        }
        "substrate_state" => {
            let (fig12, fig13) = if smoke { (100, 300) } else { (2_000, 10_000) };
            Body::Plans {
                keys: vec!["fig12", "fig13"],
                plans: vec![
                    exp::fig12_plan(fig12, &RECORD_SIZES, seed),
                    exp::fig13_plan(fig13, &RECORD_SIZES),
                ],
                quick: smoke,
                txns: None,
            }
        }
        "explore_full" => {
            let spec = if smoke {
                ExploreSpec::quick(100, seed)
            } else {
                // The full grid without its candidate cap: the cap samples
                // the grid's tail by seed, so each seed would measure a
                // different set of designs and elapsed time would vary by a
                // fifth between seeds. Uncapped, the seed reaches only the
                // probes.
                ExploreSpec {
                    max_candidates: None,
                    ..ExploreSpec::full(2_000, seed)
                }
            };
            // `repro explore` gates on the spec lints before running.
            assert!(
                !dichotomy_core::common::diag::has_deny(&lint_spec(&spec)),
                "the explore spec lints clean"
            );
            Body::Explore(spec)
        }
        other => panic!("unknown workload '{other}'"),
    };
    if let (true, Body::Plans { plans, .. }) = (smoke, &mut body) {
        // Preload dominates the small plans and scales with the record
        // count, not the transaction count: shrink that too.
        for run in plans
            .iter_mut()
            .flat_map(|plan| &mut plan.rows)
            .flat_map(|row| &mut row.runs)
        {
            if let Probe::Drive {
                workload, driver, ..
            } = &mut run.probe
            {
                if driver.preload {
                    *workload = workload.clone().with_records(200);
                }
            }
        }
    }
    if inject_failure {
        let Body::Plans { plans, .. } = &mut body else {
            panic!("--inject probe needs a plan workload");
        };
        plans[0].rows[0].runs.push(PlannedRun {
            probe: Probe::Forecast {
                profile: "injected-failure",
            },
            columns: Vec::new(),
        });
    }
    Prepared { def, seed, body }
}

/// The plans whose probes a workload executes.
pub struct Expanded {
    /// `(repro experiment key, plan)`, in execution order.
    pub plans: Vec<(&'static str, ExperimentPlan)>,
    /// Explorer candidates enumerated (0 for plan workloads).
    pub candidates: usize,
    /// Explorer candidates that survived the forecast prune.
    pub survivors: usize,
}

impl Prepared {
    /// The plans whose probes this workload executes. The explorer's
    /// measurement plan is derived the way `run_explore` derives it, with
    /// the two funnel stages recorded as spans under `parent`.
    pub fn expand(&self, trace: &mut Trace, parent: usize) -> Expanded {
        match &self.body {
            Body::Plans { keys, plans, .. } => Expanded {
                plans: keys.iter().copied().zip(plans.iter().cloned()).collect(),
                candidates: 0,
                survivors: 0,
            },
            Body::Explore(spec) => {
                let span = trace.open("explore.enumerate", Some(parent), None);
                let candidates = dichotomy_explore::enumerate(spec)
                    .expect("the spec passed its lints")
                    .candidates;
                trace.close(span);
                let span = trace.open("explore.prune", Some(parent), None);
                let survivors = dichotomy_explore::prune(&candidates, &spec.prune).survivors;
                trace.close(span);
                Expanded {
                    plans: vec![(
                        "explore",
                        dichotomy_explore::measurement_plan(&survivors, spec.txns, spec.seed),
                    )],
                    candidates: candidates.len(),
                    survivors: survivors.len(),
                }
            }
        }
    }
}

/// What one plan of an iteration cost, from the public `PlanOutcome` fields.
#[derive(Debug, Clone, Default)]
pub struct PlanStats {
    /// Summed worker time inside the plan's probes (ms).
    pub worker_ms: f64,
    /// Distinct probe keys represented in this plan.
    pub distinct: usize,
    /// Wall of every executed probe (ms).
    pub walls_ms: Vec<f64>,
}

/// Everything one iteration produced.
pub struct Output {
    /// The rendered reports, as `repro` prints them.
    pub rendered: String,
    /// The `--json` document.
    pub json: String,
    /// Probes scheduled.
    pub probes: usize,
    /// Probes that failed (oracle violations surface as failures too).
    pub failures: usize,
    /// Per-plan accounting.
    pub plans: Vec<PlanStats>,
    /// Host seconds executing the plans (`run_plans_with`/`run_explore`).
    pub exec_s: f64,
    /// Host seconds rendering the reports.
    pub render_s: f64,
    /// Host seconds emitting the JSON document.
    pub json_s: f64,
}

impl Output {
    /// Host wall of the whole iteration.
    pub fn elapsed_s(&self) -> f64 {
        self.exec_s + self.render_s + self.json_s
    }

    /// Whether `other` rendered the same reports and the same document.
    pub fn same_as(&self, other: &Output) -> bool {
        self.rendered == other.rendered && self.json == other.json
    }

    /// SHA-256 over the rendered reports and the JSON document.
    pub fn digest(&self) -> String {
        Hash::of_parts(&[self.rendered.as_bytes(), self.json.as_bytes()]).to_hex()
    }
}

/// Run one iteration: execute the plans on a pool of `jobs` workers
/// (optionally answering probes from `cache`), render every report and emit
/// the JSON document — what `repro … --json` does, minus the file write.
pub fn run_iteration(
    prepared: &Prepared,
    registry: &SystemRegistry,
    jobs: usize,
    cache: Option<&dyn ProbeCache>,
) -> Output {
    let exec = ExecOptions {
        jobs,
        progress: None,
        fail_fast: false,
        cache,
    };
    let stats = |o: &dichotomy_core::scenario::PlanOutcome| PlanStats {
        worker_ms: o.probe_wall_ms,
        distinct: o.distinct_probes,
        walls_ms: o.calibration.iter().map(|c| c.wall_ms).collect(),
    };
    match &prepared.body {
        Body::Plans {
            keys,
            plans,
            quick,
            txns,
        } => {
            let started = Instant::now();
            let refs: Vec<&ExperimentPlan> = plans.iter().collect();
            let outcomes = run_plans_with(&refs, registry, &exec);
            let exec_s = started.elapsed().as_secs_f64();

            let started = Instant::now();
            let mut rendered = String::new();
            for outcome in &outcomes {
                rendered.push_str(&outcome.report.render());
                rendered.push('\n');
            }
            let render_s = started.elapsed().as_secs_f64();

            let plan_stats = outcomes.iter().map(stats).collect();
            let probes = outcomes.iter().map(|o| o.probes).sum();
            let failures = outcomes.iter().map(|o| o.report.failures.len()).sum();
            let completed: Vec<(String, ExperimentReport)> = keys
                .iter()
                .zip(outcomes)
                .map(|(key, o)| (key.to_string(), o.report))
                .collect();
            let started = Instant::now();
            let json = json::document(*quick, *txns, prepared.seed, &completed);
            let json_s = started.elapsed().as_secs_f64();
            Output {
                rendered,
                json,
                probes,
                failures,
                plans: plan_stats,
                exec_s,
                render_s,
                json_s,
            }
        }
        Body::Explore(spec) => {
            let started = Instant::now();
            let outcome = run_explore(spec, registry, &exec).expect("the spec passed its lints");
            let exec_s = started.elapsed().as_secs_f64();

            let started = Instant::now();
            let rendered = outcome.render();
            let render_s = started.elapsed().as_secs_f64();

            let started = Instant::now();
            // Predictions only, no measured walls: the default document
            // `repro explore --json` writes, byte-stable across runs.
            let scheduling: Vec<(String, f64, Option<f64>)> = outcome
                .scheduling
                .iter()
                .map(|(probe, predicted)| (probe.clone(), *predicted, None))
                .collect();
            let json = json::explore_document(false, spec.txns, spec.seed, &outcome, &scheduling);
            let json_s = started.elapsed().as_secs_f64();
            Output {
                rendered,
                json,
                probes: outcome.plan.probes,
                failures: outcome.plan.report.failures.len(),
                plans: vec![stats(&outcome.plan)],
                exec_s,
                render_s,
                json_s,
            }
        }
    }
}
