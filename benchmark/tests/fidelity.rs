//! The benchmark cannot be trusted further than these hold:
//!
//! * the traced mirror of `scenario::observe` produces the same output as
//!   the real `run_plans_with` path on every workload (so the decorators do
//!   not perturb results and the mirror has not drifted);
//! * the harness's `suite_quick` document is byte-equal to what
//!   `repro --quick --seed 7 --jobs 1 --json` writes;
//! * the seed reaches the program (same seed ⇒ same digest and event count,
//!   another seed ⇒ another digest), and the harness refuses more worker
//!   threads than cores and records the host in its header.
//!
//! Run with `cargo test --release`; the debug profile works but is slow.

use std::path::{Path, PathBuf};
use std::process::Command;

use dichotomy_benchmark::jsonio::Json;
use dichotomy_benchmark::run::{check_jobs, end_to_end_defs, per_layer_defs, run, Inject, Options};
use dichotomy_benchmark::trace::{counting, traced_pass, Trace};
use dichotomy_benchmark::workloads::{prepare, run_iteration, workload, WORKLOADS};
use dichotomy_core::scenario::ProbeCache;
use dichotomy_core::systems::SystemRegistry;

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `(mirror digest, real digest, events delivered)` of one smoke workload.
fn digests(name: &str, seed: u64) -> (String, String, u64) {
    let registry = SystemRegistry::with_builtins();
    let prepared = prepare(workload(name).unwrap(), seed, true, false);
    let mut trace = Trace::default();
    let root = trace.open("harness.iteration", None, None);
    let expanded = prepared.expand(&mut trace, root);
    let facts = traced_pass(&expanded.plans, &registry, &mut trace, root, 1_000);
    let cache: &dyn ProbeCache = &facts.cache;
    let mirrored = run_iteration(&prepared, &registry, 1, Some(cache));
    let (real, counted) = counting(|counted| run_iteration(&prepared, counted, 1, None));
    assert_eq!(
        mirrored.failures + real.failures,
        0,
        "{name}: a probe failed"
    );
    assert_eq!(
        counted, facts.events_delivered,
        "{name}: dispatched calls and RunStats::events_delivered disagree"
    );
    assert_eq!(
        facts.probes_distinct as usize,
        real.plans.iter().map(|p| p.distinct).sum::<usize>(),
        "{name}: the mirror executes exactly the distinct probes"
    );
    (mirrored.digest(), real.digest(), facts.events_delivered)
}

#[test]
fn the_traced_mirror_matches_the_real_path_on_every_workload() {
    for def in WORKLOADS {
        let (mirrored, real, events) = digests(def.name, 7);
        assert_eq!(mirrored, real, "{}: mirror drifted from observe", def.name);
        assert!(events > 0, "{}: nothing simulated", def.name);
    }
    // The three suite workloads run identical plans.
    let suite = digests("suite_quick", 7).1;
    assert_eq!(suite, digests("suite_quick_j2", 7).1);
    assert_eq!(suite, digests("warm_replay", 7).1);
}

#[test]
fn worker_count_never_changes_the_output() {
    let registry = SystemRegistry::with_builtins();
    let prepared = prepare(workload("suite_quick_j2").unwrap(), 7, true, false);
    let one = run_iteration(&prepared, &registry, 1, None);
    let two = run_iteration(&prepared, &registry, 2, None);
    assert_eq!(one.digest(), two.digest());
}

#[test]
fn the_seed_reaches_the_program_only_through_the_inputs() {
    let first = digests("open_exact", 7);
    assert_eq!(first, digests("open_exact", 7), "same seed, same run");
    let other = digests("open_exact", 8);
    assert_ne!(first.1, other.1, "another seed must change the output");
}

#[test]
fn more_workers_than_cores_is_refused() {
    assert!(check_jobs(2, 2).is_ok());
    let refusal = check_jobs(3, 2).unwrap_err();
    assert!(refusal.contains("3 worker threads"), "{refusal}");
}

fn smoke(name: &str, trace: bool, inject: Option<Inject>) -> Options {
    Options {
        workload: workload(name).unwrap(),
        seed: 7,
        seconds: 0.2,
        trace,
        smoke: true,
        inject,
    }
}

#[test]
fn a_run_reports_every_metric_and_the_host_header() {
    let dir = scratch("report");
    let untraced = run(&smoke("warm_replay", false, None), &dir).unwrap();
    assert!(untraced.correct && untraced.failed == 0 && untraced.attempted > 0);
    let names: Vec<String> = untraced.metrics.iter().map(|m| m.name.clone()).collect();
    let expected: Vec<String> = end_to_end_defs().into_iter().map(|d| d.name).collect();
    assert_eq!(names, expected);
    assert!(untraced
        .metrics
        .iter()
        .all(|m| m.value.is_finite() && m.value > 0.0));
    assert!(untraced.host.nproc >= 1 && untraced.host.calib_spin_ms > 0.0);
    let line = Json::parse(&untraced.contract_line()).unwrap();
    let keys: Vec<&str> = line.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);

    let traced = run(&smoke("explore_full", true, None), &dir).unwrap();
    assert!(traced.correct);
    let names: Vec<String> = traced.metrics.iter().map(|m| m.name.clone()).collect();
    let expected: Vec<String> = per_layer_defs().into_iter().map(|d| d.name).collect();
    assert_eq!(names, expected);
    assert!(traced.metrics.iter().all(|m| m.value.is_finite()));
    let spans = std::fs::read_to_string(dir.join("trace-explore_full.json")).unwrap();
    assert!(!Json::parse(&spans)
        .unwrap()
        .get("spans")
        .unwrap()
        .items()
        .is_empty());
    // Same seed ⇒ the exact counts repeat between the two modes.
    let again = run(&smoke("explore_full", false, None), &dir).unwrap();
    assert!(again.exact.iter().all(|count| traced.exact.contains(count)));
    assert_eq!(again.output_digest, traced.output_digest);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn injected_faults_are_counted_and_fail_the_run() {
    let dir = scratch("inject");
    for inject in [Inject::Digest, Inject::Probe] {
        let report = run(&smoke("substrate_state", false, Some(inject)), &dir).unwrap();
        assert!(!report.correct, "{inject:?} must fail the run");
        assert!(report.failed > 0 && report.failed_share() > 0.0);
    }
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn benchmark_json_lists_exactly_the_metrics_and_workloads_the_harness_has() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let listed = |section: &str| -> Vec<(String, String, String)> {
        doc.get(section)
            .unwrap()
            .items()
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    };
    let have = |defs: Vec<dichotomy_benchmark::run::MetricDef>| -> Vec<(String, String, String)> {
        defs.into_iter()
            .map(|d| (d.name, d.unit.to_string(), d.better.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), have(end_to_end_defs()));
    assert_eq!(listed("per_layer"), have(per_layer_defs()));
    let workloads: Vec<String> = listed("workloads").into_iter().map(|w| w.0).collect();
    let gated: Vec<&str> = WORKLOADS
        .iter()
        .filter(|w| w.gated)
        .map(|w| w.name)
        .collect();
    assert_eq!(workloads, gated);
}

/// Builds the root workspace's `repro` (into the root `target/`, which the
/// root `.gitignore` already covers) and compares documents byte for byte.
#[test]
fn suite_quick_json_is_byte_equal_to_repro() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let dir = scratch("repro");
    let json = dir.join("repro.json");
    let status = Command::new(env!("CARGO"))
        .current_dir(&root)
        .env_remove("CARGO_TARGET_DIR")
        .args(["run", "--release", "--offline", "--quiet"])
        .args(["-p", "dichotomy-bench", "--bin", "repro", "--"])
        .args(["--quick", "--seed", "7", "--jobs", "1", "--json"])
        .arg(&json)
        .arg("all")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("cargo runs");
    assert!(status.success(), "repro failed");
    let prepared = prepare(workload("suite_quick").unwrap(), 7, false, false);
    let ours = run_iteration(&prepared, &SystemRegistry::with_builtins(), 1, None);
    let theirs = std::fs::read_to_string(&json).unwrap();
    assert!(
        ours.json == theirs,
        "the harness's suite_quick document differs from repro's"
    );
    std::fs::remove_dir_all(dir).unwrap();
}
