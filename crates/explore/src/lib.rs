//! Design-space explorer: guided search over the dichotomy's system ×
//! workload grid.
//!
//! The paper's taxonomy (Section 2) and forecast model (Section 5.6) turn
//! "which design should I deploy?" from a measurement campaign into a
//! guided search. This crate is that search, as four pure stages:
//!
//! 1. **Enumeration** ([`ExploreSpec`], [`enumerate`]) — a deterministic
//!    generator over every [`SystemKind`](dichotomy_systems::SystemKind)
//!    crossed with deployment knobs (replicas, shards, block cut,
//!    consensus) and workload axes (record size, Zipf θ, arrival process),
//!    with seeded sampling of the combinatorial tail.
//! 2. **Pruning** ([`PruneSpec`], [`prune`]) — each candidate maps through
//!    its taxonomy point into the forecast model and designs dominated by
//!    a same-workload rival's forecast are cut *before* execution. Every
//!    cut is reported; nothing is silently dropped.
//! 3. **Measurement** ([`measurement_plan`], [`run_explore`]) — survivors
//!    become one `ExperimentPlan` executed by the scenario engine's worker
//!    pool, inheriting probe dedup, the persistent result cache and LPT
//!    scheduling.
//! 4. **Reporting** ([`ExploreOutcome`]) — the Pareto front over measured
//!    throughput / p99 latency / fault-recovery time, plus a calibration
//!    report: Kendall's τ rank agreement and per-taxonomy-cell error with
//!    a fitted correction factor ([`calib`]).
//!
//! `repro explore` is the CLI face; `repro lint` checks explore specs with
//! the `S008` zero-survivor deny ([`lint_spec`]).

#![forbid(unsafe_code)]

pub mod calib;
pub mod pareto;
pub mod report;
pub mod spec;

pub use calib::{kendall_tau, per_cell_calibration, CellCalibration};
pub use pareto::pareto_front;
pub use report::{
    measurement_plan, recovery_time_ms, run_explore, CutDesign, Design, ExploreOutcome, PLAN_ID,
};
pub use spec::{
    enumerate, lint_spec, prune, ArrivalKnob, Candidate, EnumerateError, Enumeration, ExploreSpec,
    PruneSpec, Pruned,
};
