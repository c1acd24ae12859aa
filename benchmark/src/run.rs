//! One benchmark run of one workload: untraced (the end-to-end metrics) or
//! traced (the per-layer metrics).
//!
//! Host time and simulated time are never mixed: every timing here is host
//! wall time. Simulated statistics only enter through the output digest and
//! the exact seeded counts (events delivered, receipts).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use dichotomy_bench::cache::DiskCache;
use dichotomy_bench::EXPERIMENTS;
use dichotomy_core::scenario::{ProbeCache, ProbeResult};
use dichotomy_core::systems::{SystemKind, SystemRegistry};

use crate::jsonio::Json;
use crate::layers;
use crate::stats::{iqr, median, percentile};
use crate::trace::{counting, traced_pass, PassFacts, Trace, RECEIPT_SAMPLE_CAP};
use crate::workloads::{prepare, run_iteration, Body, Expanded, Output, Prepared, WorkloadDef};

/// A metric the benchmark reports: its name, unit and better direction, as
/// `BENCHMARK.json` lists them.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// The metric's name.
    pub name: String,
    /// Its unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

fn def(name: impl Into<String>, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
    }
}

/// The end-to-end metrics (`--trace 0`). `failed_share` is not among them:
/// it must be 0, and the contract carries failures as `failed`/`attempted`.
pub fn end_to_end_defs() -> Vec<MetricDef> {
    vec![
        def("elapsed_s", "s", "lower"),
        def("events_per_s", "1/s", "higher"),
        def("probes_per_s", "1/s", "higher"),
        def("peak_rss_mb", "MB", "lower"),
        def("setup_s", "s", "lower"),
    ]
}

/// The per-layer metrics (`--trace 1`), grouped by the crate/module they
/// measure. Counts carry `lower` (less work) by convention; none is gated.
pub fn per_layer_defs() -> Vec<MetricDef> {
    let mut defs = vec![
        def("scenario.plan_expand_ms", "ms", "lower"),
        def("scenario.probes_scheduled", "count", "lower"),
        def("scenario.probes_distinct", "count", "lower"),
        def("scenario.worker_time_s", "s", "lower"),
        def("scenario.pool_overhead_s", "s", "lower"),
        def("scenario.pool_speedup_j2", "ratio", "higher"),
        def("scenario.probe_wall_p50_ms", "ms", "lower"),
        def("scenario.probe_wall_p95_ms", "ms", "lower"),
        def("scenario.probe_wall_max_ms", "ms", "lower"),
        def("scenario.assemble_ms", "ms", "lower"),
        def("systems.build_s", "s", "lower"),
        def("systems.load_s", "s", "lower"),
        def("systems.load_ns_per_record", "ns/op", "lower"),
        def("systems.on_arrival_s", "s", "lower"),
        def("systems.on_stage_s", "s", "lower"),
        def("systems.drain_s", "s", "lower"),
        def("systems.handler_ns_per_event", "ns/op", "lower"),
        def("systems.footprint_ms", "ms", "lower"),
        def("systems.drop_s", "s", "lower"),
    ];
    for kind in SystemKind::ALL {
        defs.push(def(format!("systems.load_s.{}", kind.slug()), "s", "lower"));
    }
    for kind in SystemKind::ALL {
        defs.push(def(
            format!("systems.handler_s.{}", kind.slug()),
            "s",
            "lower",
        ));
    }
    defs.extend([
        def("workload.build_ms", "ms", "lower"),
        def("workload.initial_records_s", "s", "lower"),
        def("workload.next_txn_s", "s", "lower"),
        def("workload.next_txn_calls", "count", "lower"),
        def("workload.next_txn_ns_per_call", "ns/op", "lower"),
        def("workload.zipf_ns_per_sample", "ns/op", "lower"),
        def("driver.run_workload_s", "s", "lower"),
        def("driver.residual_s", "s", "lower"),
        def("driver.residual_ns_per_event", "ns/op", "lower"),
        def("simnet.events_delivered", "count", "lower"),
        def("simnet.events_clamped", "count", "lower"),
        def("simnet.queue_ns_per_op", "ns/op", "lower"),
        def("simnet.engine_ns_per_event", "ns/op", "lower"),
        def("metrics.receipts", "count", "lower"),
        def("metrics.exact_ns_per_receipt", "ns/op", "lower"),
        def("metrics.streaming_ns_per_receipt", "ns/op", "lower"),
        def("chaos.oracles_ns_per_receipt", "ns/op", "lower"),
        def("common.sha256_mb_per_s", "MB/s", "higher"),
        def("merkle.mpt_insert_ns", "ns/op", "lower"),
        def("merkle.mbt_put_ns", "ns/op", "lower"),
        def("storage.lsm_put_ns", "ns/op", "lower"),
        def("storage.btree_put_ns", "ns/op", "lower"),
        def("merkle.adr_probe_s", "s", "lower"),
        def("bench.render_ms", "ms", "lower"),
        def("bench.json_emit_ms", "ms", "lower"),
        def("bench.json_bytes", "bytes", "lower"),
        def("bench.cache_store_us_per_probe", "us/op", "lower"),
        def("bench.cache_load_us_per_probe", "us/op", "lower"),
        def("bench.cache_bytes", "bytes", "lower"),
        def("codec.encode_ns_per_byte", "ns/B", "lower"),
        def("codec.decode_ns_per_byte", "ns/B", "lower"),
    ]);
    for id in EXPERIMENTS.iter().filter(|id| **id != "tab02") {
        defs.push(def(format!("bench.exp_wall_s.{id}"), "s", "lower"));
    }
    defs.extend([
        def("bench.traced_elapsed_s", "s", "lower"),
        def("bench.untraced_elapsed_s", "s", "lower"),
        def("bench.trace_overhead_ratio", "ratio", "lower"),
        def("bench.trace_coverage_ratio", "ratio", "higher"),
        def("bench.calib_spin_ms", "ms", "lower"),
        def("explore.enumerate_ms", "ms", "lower"),
        def("explore.prune_ms", "ms", "lower"),
        def("explore.measure_s", "s", "lower"),
        def("explore.report_ms", "ms", "lower"),
        def("explore.candidates", "count", "lower"),
        def("explore.survivors", "count", "lower"),
        def("hybrid.forecast_probe_ms", "ms", "lower"),
        def("hybrid.forecast_ns_per_call", "ns/op", "lower"),
    ]);
    defs
}

/// A deliberate fault, for `check.sh` to prove failures are counted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Inject {
    /// Corrupt the digest of the second measured iteration.
    Digest,
    /// Schedule a probe that cannot succeed.
    Probe,
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: WorkloadDef,
    /// Seed the inputs are generated from.
    pub seed: u64,
    /// Seconds of measured iterations (untraced runs).
    pub seconds: f64,
    /// Traced (per-layer) or untraced (end-to-end) run.
    pub trace: bool,
    /// Shrink the workload to well under a second.
    pub smoke: bool,
    /// A deliberate fault.
    pub inject: Option<Inject>,
}

/// The machine the run happened on.
#[derive(Debug, Clone)]
pub struct Host {
    /// Cores available to the process.
    pub nproc: usize,
    /// 1/5/15-minute load averages at start (0 where unreadable).
    pub loadavg: [f64; 3],
    /// The fixed spin loop's time: a host-noise witness.
    pub calib_spin_ms: f64,
}

impl Host {
    /// Probe the current host.
    pub fn probe() -> Host {
        let mut loadavg = [0.0; 3];
        if let Ok(text) = std::fs::read_to_string("/proc/loadavg") {
            for (slot, field) in loadavg.iter_mut().zip(text.split_whitespace()) {
                *slot = field.parse().unwrap_or(0.0);
            }
        }
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            loadavg,
            calib_spin_ms: layers::calib_spin_ms(),
        }
    }
}

/// Refuse to generate load from more worker threads than the host has cores.
pub fn check_jobs(jobs: usize, nproc: usize) -> Result<(), String> {
    if jobs > nproc {
        Err(format!(
            "workload needs {jobs} worker threads but the host has {nproc} core(s)"
        ))
    } else {
        Ok(())
    }
}

/// One reported value.
#[derive(Debug, Clone)]
pub struct Value {
    /// Metric name.
    pub name: String,
    /// The value (a median where several samples exist).
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Everything a run reports.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// The seed.
    pub seed: u64,
    /// Traced or untraced.
    pub trace: bool,
    /// Outputs were correct: no failed probe, every digest equal.
    pub correct: bool,
    /// Probes attempted over every iteration (warm-up included).
    pub attempted: u64,
    /// Failed probes + probes of iterations whose digest disagrees.
    pub failed: u64,
    /// SHA-256 over rendered reports + JSON document of one iteration.
    pub output_digest: String,
    /// `elapsed_s` of every measured iteration, in order (the one traced
    /// iteration on a traced run).
    pub elapsed_samples: Vec<f64>,
    /// The metrics: end-to-end when untraced, per-layer when traced.
    pub metrics: Vec<Value>,
    /// Exact seeded counts: `(name, count)`.
    pub exact: Vec<(&'static str, u64)>,
    /// Where it ran.
    pub host: Host,
}

impl Report {
    /// `failed / attempted`.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    fn metrics_json(&self) -> Json {
        Json::obj(self.metrics.iter().map(|m| {
            (
                m.name.clone(),
                Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
            )
        }))
    }

    /// The one-line result the benchmark contract asks for.
    pub fn contract_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics_json()),
        ])
        .render()
    }

    /// The full record (`out/<workload>-trace<0|1>.json`, and one element
    /// of the combined result document).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("seed", Json::Num(self.seed as f64)),
            ("trace", Json::Bool(self.trace)),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("failed_share", Json::Num(self.failed_share())),
            ("output_digest", Json::str(self.output_digest.clone())),
            (
                "elapsed_samples",
                Json::Arr(self.elapsed_samples.iter().map(|s| Json::Num(*s)).collect()),
            ),
            (
                "host",
                Json::obj([
                    ("nproc", Json::Num(self.host.nproc as f64)),
                    (
                        "loadavg",
                        Json::Arr(self.host.loadavg.iter().map(|v| Json::Num(*v)).collect()),
                    ),
                    ("calib_spin_ms", Json::Num(self.host.calib_spin_ms)),
                ]),
            ),
            (
                "exact",
                Json::obj(self.exact.iter().map(|(k, v)| (*k, Json::Num(*v as f64)))),
            ),
            ("metrics", self.metrics_json()),
        ])
    }

    /// Every metric by name with its unit, for a human.
    pub fn render(&self) -> String {
        let mut out = format!(
            "== {} (seed {}, {}) ==\nhost: nproc {} loadavg {:.2}/{:.2}/{:.2} calib_spin {:.2} ms\n\
             output_digest {}\nattempted {} failed {} failed_share {} correct {}\n",
            self.workload,
            self.seed,
            if self.trace { "traced" } else { "untraced" },
            self.host.nproc,
            self.host.loadavg[0],
            self.host.loadavg[1],
            self.host.loadavg[2],
            self.host.calib_spin_ms,
            self.output_digest,
            self.attempted,
            self.failed,
            self.failed_share(),
            self.correct,
        );
        if !self.trace {
            out.push_str(&format!(
                "elapsed_s: median of {} iterations, IQR {:.6} s, p95 {:.6} s\n",
                self.elapsed_samples.len(),
                iqr(&self.elapsed_samples),
                percentile(&self.elapsed_samples, 95.0)
            ));
        }
        for m in &self.metrics {
            out.push_str(&format!("{:<36} {:>16.6} {}\n", m.name, m.value, m.unit));
        }
        for (name, count) in &self.exact {
            out.push_str(&format!("{name:<36} {count:>16} count (exact)\n"));
        }
        out
    }
}

/// Set-up repetitions behind the `setup_s` median.
const SETUP_REPS: usize = 15;
/// Fewest measured iterations of an untraced run.
const MIN_ITERATIONS: usize = 2;
/// Untraced replay iterations behind a traced `warm_replay` reference.
const REPLAY_REFERENCE_ITERATIONS: usize = 20;

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A [`ProbeCache`] that times the loads of the cache it wraps.
struct TimedCache<'a> {
    inner: &'a dyn ProbeCache,
    load_ns: AtomicU64,
    loads: AtomicU64,
}

impl ProbeCache for TimedCache<'_> {
    fn load(&self, key: &[u8]) -> Option<ProbeResult> {
        let started = Instant::now();
        let result = self.inner.load(key);
        // Statistics only: nothing is published through these counters.
        self.load_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.loads.fetch_add(1, Ordering::Relaxed);
        result
    }

    fn store(&self, key: &[u8], result: &ProbeResult) {
        self.inner.store(key, result);
    }
}

/// Everything set-up produced.
struct Setup {
    registry: SystemRegistry,
    prepared: Prepared,
    disk: Option<(DiskCache, PathBuf)>,
    /// Seconds of each repetition: registry + plan expansion (+ cache open).
    seconds: Vec<f64>,
}

fn set_up(opts: &Options, out_dir: &Path) -> Result<Setup, String> {
    let cache_root = out_dir.join(format!("cache-{}", std::process::id()));
    let mut last = None;
    let mut seconds = Vec::new();
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        let registry = SystemRegistry::with_builtins();
        let prepared = prepare(
            opts.workload,
            opts.seed,
            opts.smoke,
            opts.inject == Some(Inject::Probe),
        );
        let disk = if opts.workload.replay {
            let disk = DiskCache::open(&cache_root)
                .map_err(|e| format!("cannot open {}: {e}", cache_root.display()))?;
            Some((disk, cache_root.clone()))
        } else {
            None
        };
        seconds.push(started.elapsed().as_secs_f64());
        last = Some((registry, prepared, disk));
    }
    let (registry, prepared, disk) = last.expect("SETUP_REPS > 0");
    Ok(Setup {
        registry,
        prepared,
        disk,
        seconds,
    })
}

/// A traced iteration: every distinct probe through the decorated mirror,
/// then report assembly, rendering and JSON emission through the real code
/// (all probes answered from the mirror's results).
struct Traced {
    trace: Trace,
    facts: PassFacts,
    expanded: Expanded,
    output: Output,
    elapsed_s: f64,
}

fn traced_iteration(setup: &Setup, sample_cap: usize) -> Traced {
    let mut trace = Trace::default();
    let root = trace.open("harness.iteration", None, None);
    let expanded = setup.prepared.expand(&mut trace, root);
    let facts = traced_pass(
        &expanded.plans,
        &setup.registry,
        &mut trace,
        root,
        sample_cap,
    );
    let output = assemble(&mut trace, root, setup, &facts.cache);
    trace.close(root);
    let elapsed_s = trace.total_seconds("harness.iteration");
    Traced {
        trace,
        facts,
        expanded,
        output,
        elapsed_s,
    }
}

/// Run one iteration against `cache`, recording its three phases as spans.
fn assemble(trace: &mut Trace, root: usize, setup: &Setup, cache: &dyn ProbeCache) -> Output {
    let start = trace.now();
    let output = run_iteration(&setup.prepared, &setup.registry, 1, Some(cache));
    let ns = |s: f64| (s * 1e9) as u64;
    let exec_end = start + ns(output.exec_s);
    let render_end = exec_end + ns(output.render_s);
    let name = match setup.prepared.body {
        Body::Plans { .. } => "scenario.assemble",
        Body::Explore(_) => "explore.report",
    };
    trace.push(name, (start, exec_end), Some(root), None);
    trace.push("bench.render", (exec_end, render_end), Some(root), None);
    trace.push(
        "bench.json_emit",
        (render_end, render_end + ns(output.json_s)),
        Some(root),
        None,
    );
    output
}

/// Run one workload once, as `opts` says. `out_dir` receives the cache of
/// replay workloads (removed again) and, for traced runs, the span file.
pub fn run(opts: &Options, out_dir: &Path) -> Result<Report, String> {
    let host = Host::probe();
    check_jobs(opts.workload.jobs, host.nproc)?;
    std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let setup = set_up(opts, out_dir)?;
    let result = if opts.trace {
        run_traced(opts, &setup, host, out_dir)
    } else {
        Ok(run_untraced(opts, &setup, host))
    };
    if let Some((_, root)) = &setup.disk {
        let _ = std::fs::remove_dir_all(root);
    }
    result
}

fn run_untraced(opts: &Options, setup: &Setup, host: Host) -> Report {
    let cache = setup.disk.as_ref().map(|(disk, _)| disk as &dyn ProbeCache);
    let jobs = opts.workload.jobs;

    // The cold iteration: what one `repro` invocation does in a fresh
    // process (on a replay workload it also fills the cache). It is the
    // warm-up of the measured iterations, the bulk of `setup_s`, the
    // reference digest, and — read right after it, before repeated
    // iterations fragment the heap — the process's peak memory. Its models
    // count the events dispatched to them: the exact numerator of
    // `events_per_s`.
    let (cold, events) = counting(|registry| run_iteration(&setup.prepared, registry, jobs, cache));
    let setup_s = median(&setup.seconds) + cold.elapsed_s();
    let peak_rss_mb = peak_rss_mb();
    let probes = cold.probes as u64;
    let distinct = cold.plans.iter().map(|p| p.distinct).sum::<usize>() as u64;
    let mut attempted = probes;
    let mut failed = cold.failures as u64;

    let mut elapsed = Vec::new();
    let mut measured = 0.0;
    while elapsed.len() < MIN_ITERATIONS || measured < opts.seconds {
        let output = run_iteration(&setup.prepared, &setup.registry, jobs, cache);
        // Equal outputs have equal digests; comparing the bytes spares
        // hashing a megabyte per iteration of the replay workload.
        let agrees =
            output.same_as(&cold) && !(opts.inject == Some(Inject::Digest) && elapsed.len() == 1);
        attempted += probes;
        failed += output.failures as u64;
        if !agrees {
            failed += probes;
        }
        measured += output.elapsed_s();
        elapsed.push(output.elapsed_s());
    }

    let replayed = match &setup.disk {
        Some((disk, _)) => disk.hits() == distinct * elapsed.len() as u64,
        None => true,
    };

    let elapsed_s = median(&elapsed);
    let value = |name: &str, value: f64, unit| Value {
        name: name.to_string(),
        value,
        unit,
    };
    let metrics = vec![
        value("elapsed_s", elapsed_s, "s"),
        value("events_per_s", events as f64 / elapsed_s, "1/s"),
        value("probes_per_s", probes as f64 / elapsed_s, "1/s"),
        value("peak_rss_mb", peak_rss_mb, "MB"),
        value("setup_s", setup_s, "s"),
    ];
    Report {
        workload: opts.workload.name,
        seed: opts.seed,
        trace: false,
        correct: failed == 0 && replayed && events > 0,
        attempted,
        failed,
        output_digest: cold.digest(),
        elapsed_samples: elapsed,
        metrics,
        exact: vec![
            ("simnet.events_delivered", events),
            ("scenario.probes_distinct", distinct),
        ],
        host,
    }
}

fn run_traced(opts: &Options, setup: &Setup, host: Host, out_dir: &Path) -> Result<Report, String> {
    let mut layer = std::collections::BTreeMap::<String, f64>::new();
    let pass = traced_iteration(setup, RECEIPT_SAMPLE_CAP);
    if let Some((disk, _)) = &setup.disk {
        // The fill of a replay workload: the pass's results, stored.
        for (key, result) in pass.facts.cache.entries() {
            disk.store(&key, &result);
        }
    }
    let probes = pass.output.probes as u64;
    let mut attempted = probes;
    let mut failed = pass.output.failures as u64;
    let mut check = |output: &Output| {
        attempted += probes;
        failed += output.failures as u64;
        if !output.same_as(&pass.output) {
            failed += probes;
        }
    };

    // The traced iteration whose spans are reported. For a replay workload
    // that is a replay against the filled cache, not the fill itself.
    let (trace, traced_elapsed_s) = match &setup.disk {
        None => (pass.trace, pass.elapsed_s),
        Some((disk, _)) => {
            let timed = TimedCache {
                inner: disk,
                load_ns: AtomicU64::new(0),
                loads: AtomicU64::new(0),
            };
            let mut trace = Trace::default();
            let root = trace.open("harness.iteration", None, None);
            let output = assemble(&mut trace, root, setup, &timed);
            trace.close(root);
            check(&output);
            let assemble_span = trace
                .spans
                .iter()
                .position(|s| s.name == "scenario.assemble")
                .expect("replay workloads run plans");
            let start = trace.spans[assemble_span].start_ns;
            let id = trace.push(
                "bench.cache_load",
                (start, start + timed.load_ns.load(Ordering::Relaxed)),
                Some(assemble_span),
                None,
            );
            trace.spans[id].count = timed.loads.load(Ordering::Relaxed);
            let elapsed = trace.total_seconds("harness.iteration");
            (trace, elapsed)
        }
    };

    // Untraced references: one worker (the tracing overhead's base), and the
    // workload's own worker count when that differs (the pool metrics).
    let cache = setup.disk.as_ref().map(|(disk, _)| disk as &dyn ProbeCache);
    let reps = if opts.workload.replay {
        REPLAY_REFERENCE_ITERATIONS
    } else {
        1
    };
    let mut single = Vec::new();
    for _ in 0..reps {
        let output = run_iteration(&setup.prepared, &setup.registry, 1, cache);
        check(&output);
        single.push(output);
    }
    let untraced_elapsed_s = median(&single.iter().map(Output::elapsed_s).collect::<Vec<_>>());
    let single = single.pop().expect("reps > 0");
    let pooled = (opts.workload.jobs > 1).then(|| {
        let output = run_iteration(&setup.prepared, &setup.registry, opts.workload.jobs, cache);
        check(&output);
        output
    });

    // core::scenario, from the public `PlanOutcome` fields.
    let own = pooled.as_ref().unwrap_or(&single);
    let worker_s = own.plans.iter().map(|p| p.worker_ms).sum::<f64>() / 1e3;
    let walls: Vec<f64> = own.plans.iter().flat_map(|p| p.walls_ms.clone()).collect();
    layer.insert(
        "scenario.plan_expand_ms".into(),
        median(&setup.seconds) * 1e3,
    );
    layer.insert("scenario.probes_scheduled".into(), own.probes as f64);
    layer.insert(
        "scenario.probes_distinct".into(),
        own.plans.iter().map(|p| p.distinct).sum::<usize>() as f64,
    );
    layer.insert("scenario.worker_time_s".into(), worker_s);
    layer.insert(
        "scenario.pool_overhead_s".into(),
        opts.workload.jobs as f64 * own.exec_s - worker_s,
    );
    if let Some(pooled) = &pooled {
        layer.insert(
            "scenario.pool_speedup_j2".into(),
            single.elapsed_s() / pooled.elapsed_s(),
        );
    }
    layer.insert("scenario.probe_wall_p50_ms".into(), median(&walls));
    layer.insert(
        "scenario.probe_wall_p95_ms".into(),
        percentile(&walls, 95.0),
    );
    layer.insert(
        "scenario.probe_wall_max_ms".into(),
        percentile(&walls, 100.0),
    );

    // Self time per layer, from the spans: duration minus children.
    let own_s = trace.self_seconds();
    let self_s = |name: &str| own_s.get(name).copied().unwrap_or(0.0);
    let events = pass.facts.events_delivered.max(1) as f64;
    let handlers_s = self_s("systems.on_arrival") + self_s("systems.on_stage");
    for (metric, span, scale) in [
        ("scenario.assemble_ms", "scenario.assemble", 1e3),
        ("systems.build_s", "systems.build", 1.0),
        ("systems.load_s", "systems.load", 1.0),
        ("systems.on_arrival_s", "systems.on_arrival", 1.0),
        ("systems.on_stage_s", "systems.on_stage", 1.0),
        ("systems.drain_s", "systems.drain", 1.0),
        ("systems.footprint_ms", "systems.footprint", 1e3),
        ("systems.drop_s", "systems.drop", 1.0),
        ("workload.build_ms", "workload.build", 1e3),
        (
            "workload.initial_records_s",
            "workload.initial_records",
            1.0,
        ),
        ("workload.next_txn_s", "workload.next_txn", 1.0),
        ("driver.residual_s", "driver.run_workload", 1.0),
        ("merkle.adr_probe_s", "merkle.adr_probe", 1.0),
        ("hybrid.forecast_probe_ms", "hybrid.forecast_probe", 1e3),
        ("bench.render_ms", "bench.render", 1e3),
        ("bench.json_emit_ms", "bench.json_emit", 1e3),
        ("explore.enumerate_ms", "explore.enumerate", 1e3),
        ("explore.prune_ms", "explore.prune", 1e3),
    ] {
        layer.insert(metric.into(), self_s(span) * scale);
    }
    layer.insert(
        "driver.run_workload_s".into(),
        trace.total_seconds("driver.run_workload"),
    );
    // `run_explore` enumerates and prunes again before it assembles.
    layer.insert(
        "explore.report_ms".into(),
        (self_s("explore.report") - self_s("explore.enumerate") - self_s("explore.prune")).max(0.0)
            * 1e3,
    );
    if matches!(setup.prepared.body, Body::Explore(_)) {
        layer.insert(
            "explore.measure_s".into(),
            trace.total_seconds("harness.probe"),
        );
    }
    layer.insert("explore.candidates".into(), pass.expanded.candidates as f64);
    layer.insert("explore.survivors".into(), pass.expanded.survivors as f64);
    let traced_sim = !opts.workload.replay;
    let per = |total_s: f64, count: f64| {
        if count > 0.0 {
            total_s * 1e9 / count
        } else {
            0.0
        }
    };
    layer.insert(
        "systems.load_ns_per_record".into(),
        per(self_s("systems.load"), pass.facts.records_loaded as f64),
    );
    layer.insert(
        "systems.handler_ns_per_event".into(),
        per(handlers_s, events),
    );
    layer.insert(
        "workload.next_txn_ns_per_call".into(),
        per(
            self_s("workload.next_txn"),
            pass.facts.next_txn_calls as f64,
        ),
    );
    layer.insert(
        "driver.residual_ns_per_event".into(),
        per(self_s("driver.run_workload"), events),
    );
    if traced_sim {
        layer.insert(
            "workload.next_txn_calls".into(),
            pass.facts.next_txn_calls as f64,
        );
        for (slug, seconds) in &pass.facts.load_s_by_kind {
            layer.insert(format!("systems.load_s.{slug}"), *seconds);
        }
        for (slug, seconds) in &pass.facts.handler_s_by_kind {
            layer.insert(format!("systems.handler_s.{slug}"), *seconds);
        }
        for (id, seconds) in &pass.facts.wall_s_by_experiment {
            layer.insert(format!("bench.exp_wall_s.{id}"), *seconds);
        }
    }
    // Exact seeded counts. On a replay workload nothing simulates: these
    // are the events and receipts whose results the replay answers.
    layer.insert(
        "simnet.events_delivered".into(),
        pass.facts.events_delivered as f64,
    );
    layer.insert(
        "simnet.events_clamped".into(),
        pass.facts.events_clamped as f64,
    );
    layer.insert("metrics.receipts".into(), pass.facts.receipts as f64);
    layer.insert("bench.json_bytes".into(), single.json.len() as f64);

    let named_s: f64 = own_s
        .iter()
        .filter(|(name, _)| !name.starts_with("harness."))
        .map(|(_, s)| s)
        .sum();
    layer.insert("bench.traced_elapsed_s".into(), traced_elapsed_s);
    layer.insert("bench.untraced_elapsed_s".into(), untraced_elapsed_s);
    layer.insert(
        "bench.trace_overhead_ratio".into(),
        traced_elapsed_s / untraced_elapsed_s,
    );
    layer.insert(
        "bench.trace_coverage_ratio".into(),
        named_s / traced_elapsed_s,
    );
    layer.insert("bench.calib_spin_ms".into(), host.calib_spin_ms);

    layers::measure(
        &pass.facts,
        &pass.facts.cache.entries(),
        &pass.expanded.plans,
        out_dir,
        |name, value| {
            layer.insert(name.to_string(), value);
        },
    );

    let spans = Json::obj([
        ("workload", Json::str(opts.workload.name)),
        ("seed", Json::Num(opts.seed as f64)),
        ("spans", trace.to_json()),
    ]);
    let path = out_dir.join(format!("trace-{}.json", opts.workload.name));
    std::fs::write(&path, spans.render())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;

    let metrics = per_layer_defs()
        .into_iter()
        .map(|d| Value {
            value: layer.get(&d.name).copied().unwrap_or(0.0),
            name: d.name,
            unit: d.unit,
        })
        .collect();
    Ok(Report {
        workload: opts.workload.name,
        seed: opts.seed,
        trace: true,
        correct: failed == 0 && pass.facts.events_delivered > 0,
        attempted,
        failed,
        output_digest: pass.output.digest(),
        elapsed_samples: vec![traced_elapsed_s],
        metrics,
        exact: vec![
            ("simnet.events_delivered", pass.facts.events_delivered),
            ("scenario.probes_distinct", pass.facts.probes_distinct),
            ("metrics.receipts", pass.facts.receipts),
        ],
        host,
    })
}
