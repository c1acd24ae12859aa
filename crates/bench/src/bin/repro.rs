//! Regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run -p dichotomy-bench --release --bin repro -- all
//! cargo run -p dichotomy-bench --release --bin repro -- fig09
//! cargo run -p dichotomy-bench --release --bin repro -- --quick fig04 fig14
//! cargo run -p dichotomy-bench --release --bin repro -- --list
//! cargo run -p dichotomy-bench --release --bin repro -- --quick --seed 7 --json out.json all
//! ```
//!
//! Flags:
//!
//! * `--quick` — scale transaction counts down for smoke runs;
//! * `--list` — print every experiment id with its report title and exit;
//!   experiments whose probes carry a declarative fault schedule are marked
//!   `[faults]`;
//! * `--txns N` — override the per-experiment transaction/record count
//!   (N ≥ 1: a zero-transaction run is a usage error, not an all-zero table);
//! * `--seed S` — reseed every run (same seed ⇒ bit-identical output);
//! * `--jobs N` — worker threads for the probe pool (default: all available
//!   cores). One pool is shared across *all* requested experiments, so
//!   workers stay busy over experiment boundaries. Output is byte-identical
//!   whatever the worker count;
//! * `--progress` — live per-probe status lines on stderr as probes finish;
//! * `--fail-fast` — stop scheduling probes after the first failure (queued
//!   probes report a labelled "skipped" failure instead of running);
//! * `--metrics exact|streaming` — override every driving probe's metrics
//!   mode: `exact` retains receipts and computes order-statistic
//!   percentiles (the default of every experiment except `scale01`),
//!   `streaming` folds receipts into per-window P² sketches in O(windows)
//!   memory;
//! * `--json PATH` — additionally write all completed reports as JSON. Each
//!   row of a driving experiment carries its windowed time series (`series`:
//!   per-window offered/achieved tps, abort %, p50/p95/p99 latency) — see
//!   `dichotomy_bench::json` for the schema;
//! * `--cache` — answer probes from the persistent content-addressed result
//!   cache at `.repro-cache/` and store misses back into it. A hit is
//!   byte-identical to a cold run: results are keyed by a hash of every
//!   input that reaches the measurement (system, workload, driver, arrival,
//!   metrics mode, faults, seed, transaction count) and round-trip through
//!   the in-repo codec. `--no-cache` (the default) turns it back off;
//! * `repro cache stats` / `repro cache clear` — inspect or delete the
//!   cache (per schema-tag entry counts and sizes);
//! * `repro lint [FLAGS] [ID…|explore]` (flags: `LINT_FLAGS` below) —
//!   expand the requested experiments (default: all) **without executing
//!   them** and report semantic plan diagnostics (`S0xx`): out-of-horizon
//!   faults, duplicate sweep points, sweep axes the arrival spec never reads,
//!   measurement windows longer than the run, zero-probe experiments. The
//!   pseudo-id `explore` (part of `all`) lints the design-space explorer's
//!   spec instead (`S008`: a prune configuration that eliminates every
//!   candidate). Exit 1 when any deny-level finding survives;
//! * `repro explore [FLAGS]` (flags: `EXPLORE_FLAGS` below) — the
//!   design-space explorer: enumerate the system × workload grid, prune
//!   forecast-dominated candidates (every cut is reported), measure the
//!   survivors on the shared probe pool (dedup, cache and LPT scheduling
//!   apply), and report the Pareto front over throughput / p99 latency /
//!   fault-recovery time plus the forecast-calibration summary (Kendall's
//!   τ, per-taxonomy-cell error and correction). Stdout and the `--json`
//!   document are byte-identical across `--jobs` counts and cache states.
//!
//! Whatever the flags, duplicate probes *within* a run execute once and fan
//! out to every table cell that needs them, and the deduplicated queue is
//! ordered longest-predicted-first (the `dichotomy-hybrid` forecast model)
//! to shrink the worker pool's makespan. The run prints a dedup summary —
//! `probes: N scheduled, K distinct, D cache hits; worker time … ms, dedup
//! saved … ms` — on stderr. Wall-clock performance is not recorded here: the
//! repo's performance record is `benchmark/` (`BENCHMARK.json`).
//!
//! Usage errors — an unknown flag or experiment id, a value that does not
//! parse, `--txns 0` — exit 2 before anything runs, after printing the usage
//! line generated from the command's flag table. An
//! `all` run continues past failures at *probe* granularity: a panicking
//! probe reports NaN columns plus a failure line naming the experiment, row
//! and probe, completed rows are kept, and the run exits nonzero at the end.
//! A panic outside any probe (plan construction itself) is still caught per
//! experiment.

#![forbid(unsafe_code)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use dichotomy_bench::{cache, json, list_experiments, plan_for, RunOptions, EXPERIMENTS};
use dichotomy_core::experiments::ExperimentReport;
use dichotomy_core::metrics::MetricsMode;
use dichotomy_core::scenario::{
    panic_text, run_plans_with, ExecOptions, ExperimentPlan, ProbeCache, ProbeStatus,
};
use dichotomy_core::systems::SystemRegistry;

/// Where `--cache` keeps its entries, relative to the working directory.
const CACHE_ROOT: &str = ".repro-cache";

struct Cli {
    flags: Shared,
    options: RunOptions,
    fail_fast: bool,
    list: bool,
    targets: Vec<String>,
}

/// One requested experiment: its plan, or why it has none.
enum Planned {
    Ready(ExperimentPlan),
    Failed(String),
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("cache") {
        std::process::exit(cache_command(&raw[1..]));
    }
    if raw.first().map(String::as_str) == Some("lint") {
        std::process::exit(lint_command(&raw[1..]));
    }
    if raw.first().map(String::as_str) == Some("explore") {
        std::process::exit(explore_command(&raw[1..]));
    }
    let cli = parse_args(&raw);

    if cli.list {
        for (key, id, title, has_faults) in list_experiments() {
            let marker = if has_faults { " [faults]" } else { "" };
            println!("{key:<8} {id:<10} {title}{marker}");
        }
        return;
    }

    let targets: Vec<&str> = if cli.targets.is_empty() || cli.targets.iter().any(|t| t == "all") {
        EXPERIMENTS.to_vec()
    } else {
        cli.targets.iter().map(String::as_str).collect()
    };
    let total = targets.len();

    // Expand every plan first (plan construction can panic — e.g. malformed
    // sweeps — and must not take the other experiments down), then run all
    // ready plans on ONE shared worker pool.
    let planned: Vec<(&str, Planned)> = targets
        .iter()
        .map(|&id| {
            let plan = match catch_unwind(AssertUnwindSafe(|| plan_for(id, &cli.options))) {
                Ok(Some(plan)) => Planned::Ready(plan),
                Ok(None) => Planned::Failed("not in the dispatch table".to_string()),
                Err(panic) => Planned::Failed(panic_text(panic.as_ref())),
            };
            (id, plan)
        })
        .collect();
    let ready: Vec<(&str, &ExperimentPlan)> = planned
        .iter()
        .filter_map(|(id, p)| match p {
            Planned::Ready(plan) => Some((*id, plan)),
            Planned::Failed(_) => None,
        })
        .collect();

    let progress = |s: &ProbeStatus| {
        let id = ready.get(s.plan).map(|(id, _)| *id).unwrap_or("?");
        let origin = if s.cached {
            " [cached]"
        } else if s.deduped {
            " [dedup]"
        } else {
            ""
        };
        match &s.error {
            Some(e) => eprintln!(
                "[{id}] probe {}/{} '{}' / '{}': FAILED: {e}",
                s.done, s.total, s.row, s.probe
            ),
            None => eprintln!(
                "[{id}] probe {}/{} '{}' / '{}'{origin}",
                s.done, s.total, s.row, s.probe
            ),
        }
    };
    let disk_cache = if cli.flags.cache {
        match cache::DiskCache::open(Path::new(CACHE_ROOT)) {
            Ok(c) => Some(c),
            Err(e) => {
                // A cache that cannot open still measures correctly.
                eprintln!("cannot open {CACHE_ROOT} (running uncached): {e}");
                None
            }
        }
    } else {
        None
    };
    let exec = ExecOptions {
        jobs: cli.flags.jobs,
        progress: if cli.flags.progress {
            Some(&progress)
        } else {
            None
        },
        fail_fast: cli.fail_fast,
        cache: disk_cache.as_ref().map(|c| c as &dyn ProbeCache),
    };
    let plans: Vec<&ExperimentPlan> = ready.iter().map(|(_, plan)| *plan).collect();
    let mut outcomes = run_plans_with(&plans, &SystemRegistry::with_builtins(), &exec).into_iter();

    let mut completed: Vec<(String, ExperimentReport)> = Vec::new();
    let mut failures: Vec<(&str, String)> = Vec::new();
    let (mut sum_probes, mut sum_distinct, mut sum_hits) = (0usize, 0usize, 0usize);
    let (mut sum_wall_ms, mut sum_saved_ms) = (0.0f64, 0.0f64);
    for (id, plan) in planned {
        match plan {
            Planned::Ready(_) => {
                let outcome = outcomes.next().expect("one outcome per ready plan");
                let report = outcome.report;
                println!("{}", report.render());
                // Per-probe failures: attributable even when many probes ran
                // in parallel — every line names experiment, row and probe.
                for f in &report.failures {
                    failures.push((
                        id,
                        format!("row '{}' probe '{}': {}", f.row, f.probe, f.message),
                    ));
                }
                sum_probes += outcome.probes;
                sum_distinct += outcome.distinct_probes;
                sum_hits += outcome.cache_hits;
                sum_wall_ms += outcome.probe_wall_ms;
                sum_saved_ms += outcome.dedup_saved_ms;
                completed.push((id.to_string(), report));
            }
            Planned::Failed(message) => failures.push((id, message)),
        }
    }
    eprintln!(
        "probes: {sum_probes} scheduled, {sum_distinct} distinct, {sum_hits} cache hits; \
         worker time {sum_wall_ms:.0} ms, dedup saved {sum_saved_ms:.0} ms"
    );

    // Write the document before deciding the exit code: a broken --json
    // path must not swallow the failure summary.
    let mut write_failed = false;
    if let Some(path) = &cli.flags.json_path {
        let doc = json::document(
            cli.options.quick,
            cli.options.txns,
            cli.options.seed,
            &completed,
        );
        match std::fs::write(path, doc) {
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                write_failed = true;
            }
            Ok(()) => eprintln!("wrote {} report(s) to {path}", completed.len()),
        }
    }

    if !failures.is_empty() {
        eprintln!(
            "{} failure(s) across {} experiments:",
            failures.len(),
            total
        );
        for (id, msg) in &failures {
            eprintln!("  {id}: {msg}");
        }
    }
    if !failures.is_empty() || write_failed {
        std::process::exit(1);
    }
}

/// A flag a command accepts and, when it takes a value, the value's
/// placeholder in the usage line. A command's table is both what its parser
/// accepts and what its usage line prints.
type FlagSpec = (&'static str, Option<&'static str>);

const RUN_FLAGS: &[FlagSpec] = &[
    ("--quick", None),
    ("--list", None),
    ("--progress", None),
    ("--fail-fast", None),
    ("--cache", None),
    ("--no-cache", None),
    ("--txns", Some("N")),
    ("--seed", Some("S")),
    ("--jobs", Some("N")),
    ("--metrics", Some("exact|streaming")),
    ("--json", Some("PATH")),
];

const EXPLORE_FLAGS: &[FlagSpec] = &[
    ("--quick", None),
    ("--txns", Some("N")),
    ("--seed", Some("S")),
    ("--jobs", Some("N")),
    ("--progress", None),
    ("--cache", None),
    ("--no-cache", None),
    ("--keep-frac", Some("F")),
    ("--min-forecast-tps", Some("T")),
    ("--max-candidates", Some("N")),
    ("--json", Some("PATH")),
];

const LINT_FLAGS: &[FlagSpec] = &[
    ("--quick", None),
    ("--txns", Some("N")),
    ("--seed", Some("S")),
    ("--keep-frac", Some("F")),
    ("--min-forecast-tps", Some("T")),
    ("--json", Some("PATH")),
];

/// The flags more than one of `repro`, `repro explore` and `repro lint`
/// take, parsed once ([`Shared::set`]) whichever command they were given to.
struct Shared {
    quick: bool,
    txns: Option<u64>,
    seed: u64,
    jobs: usize,
    progress: bool,
    cache: bool,
    json_path: Option<String>,
    keep_frac: Option<f64>,
    min_forecast_tps: Option<f64>,
}

impl Shared {
    /// Record one occurrence of a shared flag; `false` when `flag` is not
    /// one (it is then the command's own).
    fn set(&mut self, flag: &str, v: &str, bad_usage: &mut Vec<String>) -> bool {
        match flag {
            "--quick" => self.quick = true,
            "--progress" => self.progress = true,
            "--cache" => self.cache = true,
            "--no-cache" => self.cache = false,
            "--txns" => {
                // Zero transactions would print an all-zero table (or rank
                // designs on 0.0 tps) and exit 0: a wrong number, not a run.
                let ok = |n: &u64| *n >= 1;
                self.txns = parsed(flag, v, "a transaction count ≥ 1", ok, bad_usage).or(self.txns);
            }
            "--seed" => {
                self.seed = parsed(flag, v, "a u64", |_| true, bad_usage).unwrap_or(self.seed)
            }
            "--jobs" => {
                let ok = |n: &usize| *n >= 1;
                self.jobs =
                    parsed(flag, v, "a worker count ≥ 1", ok, bad_usage).unwrap_or(self.jobs);
            }
            "--json" => self.json_path = Some(v.to_string()),
            "--keep-frac" => {
                let ok = |f: &f64| (0.0..=1.0).contains(f);
                self.keep_frac =
                    parsed(flag, v, "a fraction in [0,1]", ok, bad_usage).or(self.keep_frac);
            }
            "--min-forecast-tps" => {
                let ok = |t: &f64| *t >= 0.0 && t.is_finite();
                self.min_forecast_tps =
                    parsed(flag, v, "a rate ≥ 0", ok, bad_usage).or(self.min_forecast_tps);
            }
            _ => return false,
        }
        true
    }

    /// The spec `repro explore` runs and `repro lint explore` checks: built
    /// in one place so the linted configuration is the one that would run.
    fn explore_spec(&self) -> dichotomy_explore::ExploreSpec {
        let txns = self.txns.unwrap_or(if self.quick { 300 } else { 2_000 });
        let mut spec = if self.quick {
            dichotomy_explore::ExploreSpec::quick(txns, self.seed)
        } else {
            dichotomy_explore::ExploreSpec::full(txns, self.seed)
        };
        if let Some(f) = self.keep_frac {
            spec.prune.keep_frac = f;
        }
        if let Some(t) = self.min_forecast_tps {
            spec.prune.min_forecast_tps = t;
        }
        spec
    }
}

/// `v` as a `T` that passes `ok`, or `None` after recording the usage error
/// `FLAG: 'v' is not WHAT`.
fn parsed<T: std::str::FromStr>(
    flag: &str,
    v: &str,
    what: &str,
    ok: impl Fn(&T) -> bool,
    bad_usage: &mut Vec<String>,
) -> Option<T> {
    let value = v.parse::<T>().ok().filter(|n| ok(n));
    if value.is_none() {
        bad_usage.push(format!("{flag}: '{v}' is not {what}"));
    }
    value
}

/// Parse `args` against a command's `accepted` table. Shared flags land in
/// the returned [`Shared`], the command's own flags are handed to `own` with
/// their value (`""` for a flag that takes none), and arguments that are not
/// flags are returned in order. Both `--flag value` and `--flag=value` are
/// accepted. Every problem is recorded in `bad_usage`; nothing runs or exits
/// here.
fn parse_flags(
    args: &[String],
    accepted: &[FlagSpec],
    bad_usage: &mut Vec<String>,
    mut own: impl FnMut(&str, &str, &mut Vec<String>),
) -> (Shared, Vec<String>) {
    let mut shared = Shared {
        quick: false,
        txns: None,
        seed: dichotomy_core::common::rng::DEFAULT_SEED,
        jobs: 0,
        progress: false,
        cache: false,
        json_path: None,
        keep_frac: None,
        min_forecast_tps: None,
    };
    let mut positionals = Vec::new();
    let mut args = args.iter().cloned().peekable();
    while let Some(arg) = args.next() {
        if !arg.starts_with("--") {
            positionals.push(arg);
            continue;
        }
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (arg.as_str(), None),
        };
        let value = match accepted.iter().find(|(name, _)| *name == flag) {
            None => {
                bad_usage.push(format!("unknown flag '{flag}'"));
                continue;
            }
            Some((_, None)) if inline.is_some() => {
                bad_usage.push(format!("flag '{flag}' takes no value"));
                continue;
            }
            Some((_, None)) => String::new(),
            Some((_, Some(_))) => match value_of(flag, inline, &mut args, bad_usage) {
                Some(v) => v,
                None => continue,
            },
        };
        if !shared.set(flag, &value, bad_usage) {
            own(flag, &value, bad_usage);
        }
    }
    (shared, positionals)
}

/// Print a command's usage errors and the usage line generated from its
/// flag table. The caller exits 2.
fn report_usage(command: &str, bad_usage: &[String], accepted: &[FlagSpec], positionals: &str) {
    for msg in bad_usage {
        eprintln!("{command}: {msg}");
    }
    let flags: Vec<String> = accepted
        .iter()
        .map(|(flag, value)| match value {
            Some(v) => format!("[{flag} {v}]"),
            None => format!("[{flag}]"),
        })
        .collect();
    eprintln!("usage: {command} {}{positionals}", flags.join(" "));
}

fn parse_args(args: &[String]) -> Cli {
    let mut bad_usage = Vec::new();
    let mut list = false;
    let mut fail_fast = false;
    let mut metrics: Option<MetricsMode> = None;
    let (flags, targets) =
        parse_flags(
            args,
            RUN_FLAGS,
            &mut bad_usage,
            |flag, v, bad_usage| match flag {
                "--list" => list = true,
                "--fail-fast" => fail_fast = true,
                "--metrics" => match v {
                    "exact" => metrics = Some(MetricsMode::Exact),
                    "streaming" => metrics = Some(MetricsMode::Streaming),
                    _ => bad_usage.push(format!("--metrics: '{v}' is not exact|streaming")),
                },
                _ => unreachable!("'{flag}' is in RUN_FLAGS but has no parser"),
            },
        );

    for id in &targets {
        if id != "all" && !EXPERIMENTS.contains(&id.as_str()) {
            bad_usage.push(format!("unknown experiment '{id}'"));
        }
    }
    if !bad_usage.is_empty() {
        report_usage("repro", &bad_usage, RUN_FLAGS, " [all|ID...]");
        eprintln!("subcommands: cache stats|clear, explore, lint");
        eprintln!("valid experiments: all {}", EXPERIMENTS.join(" "));
        std::process::exit(2);
    }
    Cli {
        options: RunOptions {
            quick: flags.quick,
            txns: flags.txns,
            seed: flags.seed,
            metrics,
        },
        flags,
        fail_fast,
        list,
        targets,
    }
}

/// `repro cache stats|clear`: inspect or delete the persistent result
/// cache. Returns the process exit code.
fn cache_command(args: &[String]) -> i32 {
    let root = Path::new(CACHE_ROOT);
    match (args.first().map(String::as_str), args.len()) {
        (Some("stats"), 1) => {
            let tags = cache::stats(root);
            if tags.is_empty() {
                println!("cache {CACHE_ROOT}: empty");
            } else {
                for t in &tags {
                    println!(
                        "{}{:<28} {:>6} entries {:>12} bytes",
                        if t.current { "* " } else { "  " },
                        t.tag,
                        t.entries,
                        t.bytes
                    );
                }
                println!("(*: the schema tag current binaries read and write)");
            }
            0
        }
        (Some("clear"), 1) => match cache::clear(root) {
            Ok(()) => {
                println!("cleared {CACHE_ROOT}");
                0
            }
            Err(e) => {
                eprintln!("cannot clear {CACHE_ROOT}: {e}");
                1
            }
        },
        _ => {
            eprintln!("usage: repro cache stats|clear");
            2
        }
    }
}

/// `repro explore` — run the design-space explorer: enumerate the
/// `ExploreSpec` grid, prune by forecast, measure the survivors on the
/// shared probe pool, and report the Pareto front plus the forecast
/// calibration. Exit status: 0 on success, 1 when the spec lints deny
/// (`S008` zero-survivor), a probe fails, or an output path cannot be
/// written, 2 on usage errors.
fn explore_command(args: &[String]) -> i32 {
    let mut bad_usage = Vec::new();
    let mut max_candidates: Option<usize> = None;
    let (flags, positionals) = parse_flags(
        args,
        EXPLORE_FLAGS,
        &mut bad_usage,
        |flag, v, bad_usage| match flag {
            "--max-candidates" => {
                max_candidates = parsed(flag, v, "a count", |_| true, bad_usage).or(max_candidates)
            }
            _ => unreachable!("'{flag}' is in EXPLORE_FLAGS but has no parser"),
        },
    );
    for arg in &positionals {
        bad_usage.push(format!("unknown argument '{arg}'"));
    }
    if !bad_usage.is_empty() {
        report_usage("repro explore", &bad_usage, EXPLORE_FLAGS, "");
        return 2;
    }

    let mut spec = flags.explore_spec();
    if let Some(n) = max_candidates {
        spec.max_candidates = if n == 0 { None } else { Some(n) };
    }

    // Gate on the spec lints before anything executes: an exploration that
    // would measure nothing (S008) is a configuration bug, not an empty
    // result.
    let diags = dichotomy_explore::lint_spec(&spec);
    if dichotomy_core::common::diag::has_deny(&diags) {
        for d in &diags {
            eprintln!("{}", d.render());
        }
        return 1;
    }

    let progress_fn = |s: &ProbeStatus| {
        let origin = if s.cached {
            " [cached]"
        } else if s.deduped {
            " [dedup]"
        } else {
            ""
        };
        match &s.error {
            Some(e) => eprintln!(
                "[explore] probe {}/{} '{}' / '{}': FAILED: {e}",
                s.done, s.total, s.row, s.probe
            ),
            None => eprintln!(
                "[explore] probe {}/{} '{}' / '{}'{origin}",
                s.done, s.total, s.row, s.probe
            ),
        }
    };
    let disk_cache = if flags.cache {
        match cache::DiskCache::open(Path::new(CACHE_ROOT)) {
            Ok(c) => Some(c),
            Err(e) => {
                eprintln!("cannot open {CACHE_ROOT} (running uncached): {e}");
                None
            }
        }
    } else {
        None
    };
    let exec = ExecOptions {
        jobs: flags.jobs,
        progress: if flags.progress {
            Some(&progress_fn)
        } else {
            None
        },
        fail_fast: false,
        cache: disk_cache.as_ref().map(|c| c as &dyn ProbeCache),
    };
    let outcome =
        match dichotomy_explore::run_explore(&spec, &SystemRegistry::with_builtins(), &exec) {
            Ok(o) => o,
            Err(e) => {
                // Unreachable after the lint gate, but a belt to its braces.
                eprintln!("repro explore: {e}");
                return 1;
            }
        };

    print!("{}", outcome.render());
    eprintln!(
        "probes: {} scheduled, {} distinct, {} cache hits; worker time {:.0} ms, \
         dedup saved {:.0} ms",
        outcome.plan.probes,
        outcome.plan.distinct_probes,
        outcome.plan.cache_hits,
        outcome.plan.probe_wall_ms,
        outcome.plan.dedup_saved_ms
    );
    for f in &outcome.plan.report.failures {
        eprintln!(
            "repro explore: row '{}' probe '{}': {}",
            f.row, f.probe, f.message
        );
    }

    let mut write_failed = false;
    if let Some(path) = &flags.json_path {
        // The scheduling calibration feed carries the deterministic
        // predictions only: walls vary run to run, and the document is
        // compared byte-for-byte across worker counts and cache states.
        let sched: Vec<(String, f64, Option<f64>)> = outcome
            .scheduling
            .iter()
            .map(|(probe, predicted)| (probe.clone(), *predicted, None))
            .collect();
        let doc = json::explore_document(flags.quick, spec.txns, spec.seed, &outcome, &sched);
        match std::fs::write(path, doc) {
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                write_failed = true;
            }
            Ok(()) => eprintln!(
                "wrote the exploration report ({} designs) to {path}",
                outcome.designs.len()
            ),
        }
    }

    if !outcome.plan.report.failures.is_empty() || write_failed {
        1
    } else {
        0
    }
}

/// `repro lint` — expand experiments without executing them and report
/// semantic plan diagnostics (the `S0xx` codes of `dichotomy_core::lint`).
///
/// Loci are keyed by the repro experiment id (`fig04`, `tab02`, …) so the
/// output lines up with `repro --list` and the run commands. The pseudo-id
/// `explore` (included in `all`) lints the `repro explore` spec instead of
/// a plan — `S008` denies a zero-survivor exploration; `--keep-frac` and
/// `--min-forecast-tps` mirror the explore flags so the exact configuration
/// about to run is what gets checked. Exit status: 0 clean (notes/warnings
/// allowed), 1 on any deny-level finding, 2 on usage errors.
fn lint_command(args: &[String]) -> i32 {
    let mut bad_usage = Vec::new();
    let (flags, targets) = parse_flags(args, LINT_FLAGS, &mut bad_usage, |flag, _, _| {
        unreachable!("'{flag}' is in LINT_FLAGS but is not a shared flag")
    });
    if !bad_usage.is_empty() {
        report_usage("repro lint", &bad_usage, LINT_FLAGS, " [ID...|explore]");
        return 2;
    }
    let opts = RunOptions {
        quick: flags.quick,
        txns: flags.txns,
        seed: flags.seed,
        ..RunOptions::default()
    };

    let all = targets.is_empty() || targets.iter().any(|t| t == "all");
    let want_explore = all || targets.iter().any(|t| t == "explore");
    let ids: Vec<&str> = if all {
        EXPERIMENTS.to_vec()
    } else {
        targets
            .iter()
            .map(String::as_str)
            .filter(|t| *t != "explore")
            .collect()
    };

    let mut diags = Vec::new();
    let mut expanded = 0usize;
    for id in &ids {
        let plan = match catch_unwind(AssertUnwindSafe(|| plan_for(id, &opts))) {
            Ok(Some(plan)) => plan,
            Ok(None) => {
                eprintln!("repro lint: unknown experiment '{id}' (try --list)");
                return 2;
            }
            Err(payload) => {
                eprintln!(
                    "repro lint: expanding '{id}' panicked: {}",
                    panic_text(payload.as_ref())
                );
                return 2;
            }
        };
        expanded += 1;
        diags.extend(dichotomy_core::lint_plan(&plan).into_iter().map(|mut d| {
            // Key loci by the repro id (`fig04`, `tab02`, …), not the plan's
            // report title, so findings line up with the run commands.
            if let dichotomy_core::common::Locus::Plan { experiment, .. } = &mut d.locus {
                *experiment = (*id).to_string();
            }
            d.for_experiment(id)
        }));
    }

    if want_explore {
        let spec = flags.explore_spec();
        expanded += 1;
        diags.extend(dichotomy_explore::lint_spec(&spec));
    }

    for diag in &diags {
        println!("{}", diag.render());
    }
    let denies = diags
        .iter()
        .filter(|d| d.severity == dichotomy_core::common::Severity::Deny)
        .count();
    println!(
        "repro lint: {} experiment{} expanded, {} finding{} ({} deny)",
        expanded,
        if expanded == 1 { "" } else { "s" },
        diags.len(),
        if diags.len() == 1 { "" } else { "s" },
        denies
    );

    if let Some(path) = flags.json_path {
        let doc = format!(
            "{{\"generator\":\"repro-lint\",\"experiments\":{},\"findings\":{},\"deny\":{},\"diagnostics\":{}}}\n",
            expanded,
            diags.len(),
            denies,
            dichotomy_core::common::diag::to_json_array(&diags)
        );
        if let Err(err) = std::fs::write(&path, doc) {
            eprintln!("repro lint: writing {path}: {err}");
            return 2;
        }
    }

    if dichotomy_core::common::diag::has_deny(&diags) {
        1
    } else {
        0
    }
}

/// The value of `--flag value` / `--flag=value`, or `None` after recording a
/// usage error. A following `--…` token is another flag, never a value.
fn value_of(
    flag: &str,
    inline: Option<String>,
    args: &mut std::iter::Peekable<impl Iterator<Item = String>>,
    bad_usage: &mut Vec<String>,
) -> Option<String> {
    let next_is_value = args.peek().is_some_and(|a| !a.starts_with("--"));
    match inline.or_else(|| if next_is_value { args.next() } else { None }) {
        Some(v) => Some(v),
        None => {
            bad_usage.push(format!("flag '{flag}' needs a value"));
            None
        }
    }
}
