//! The benchmark driver: plays the role YCSB, OLTPBench and Caliper play in
//! the paper's setup (Section 4.2).
//!
//! The driver is an event loop on the shared simulation engine. Arrivals are
//! scheduled as events and interleave, on one clock, with the stage events
//! the system model schedules for itself — block cut timers, validation
//! completions, replication rounds. Backlog and saturation therefore emerge
//! from queueing on the model's service processes rather than from post-hoc
//! arithmetic.
//!
//! *How* arrivals are generated is data: an [`ArrivalSpec`] carried by
//! [`DriverConfig`] (mirroring how `SystemSpec`/`WorkloadSpec` describe the
//! system and the workload). The default is the paper's Section 5 open loop —
//! exponential inter-arrival gaps at a fixed offered rate, round-robin over
//! 32 clients — but closed-loop client populations (one request in flight
//! per client plus a think time, fed by the incremental completion channel
//! every `TransactionalSystem` exposes), and phased load (ramps, steps,
//! bursts) compose from the same three variants. Every variant is
//! seed-deterministic and emits globally unique, hence strictly
//! monotonically delivered, arrival times.
//!
//! This file is the event loop; `arrival` (the spec and its client models)
//! and `ledger` (the handed-out arrival timestamps) are private submodules.

mod arrival;
mod ledger;
#[cfg(test)]
mod tests;

use dichotomy_common::rng;
use dichotomy_common::{codec, ClientId, Timestamp};
use dichotomy_systems::{Engine, SysEvent, TransactionalSystem};
use dichotomy_workload::Workload;

pub use arrival::ArrivalSpec;
use ledger::TimestampLedger;

use crate::chaos::{OracleContext, OracleReport, OracleSet};
use crate::metrics::{
    ExactLatency, LatencyEstimator, Metrics, MetricsMode, ReceiptFold, StreamingLatency, TimeSeries,
};

/// Driver configuration.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Number of transactions to issue.
    pub transactions: u64,
    /// The arrival process (the default is an open loop at 50 000 tps).
    pub arrival: ArrivalSpec,
    /// Whether to pre-load the workload's initial records (Figure 4/5 do;
    /// storage-size experiments load their own data).
    pub preload: bool,
    /// Width of the windowed time-series buckets (µs). `None` derives a
    /// window from the run's makespan (≈ 20 windows) in exact metrics mode
    /// and uses one simulated second in streaming mode.
    pub window_us: Option<u64>,
    /// RNG seed for arrival jitter and think times.
    pub seed: u64,
    /// The latency estimator of the run's receipt fold. Under
    /// [`MetricsMode::Exact`] (the default) the system retains every receipt
    /// and the fold sorts exact percentiles once the run is over; under
    /// [`MetricsMode::Streaming`] receipts fold into P² sketches as they
    /// complete, making memory O(windows) instead of O(transactions) — and
    /// an unset [`window_us`](Self::window_us) one simulated second, since
    /// the makespan is not known yet.
    pub metrics: MetricsMode,
}
// One third of a probe's identity (alongside the system and workload specs):
// every knob that can change a measurement.
codec!(Encode for struct DriverConfig {
    transactions,
    arrival,
    preload,
    window_us,
    seed,
    metrics,
});

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            transactions: 2_000,
            arrival: ArrivalSpec::OpenLoop {
                offered_tps: 50_000.0,
            },
            preload: true,
            window_us: None,
            seed: rng::DEFAULT_SEED,
            metrics: MetricsMode::Exact,
        }
    }
}

impl DriverConfig {
    /// A configuration that saturates any of the modelled systems (peak
    /// throughput measurement): an open loop at 200 000 tps.
    pub fn saturating(transactions: u64) -> Self {
        DriverConfig {
            transactions,
            arrival: ArrivalSpec::OpenLoop {
                offered_tps: 200_000.0,
            },
            ..DriverConfig::default()
        }
    }

    /// A light load for unsaturated latency measurements: an open loop at
    /// 50 tps.
    pub fn unsaturated(transactions: u64) -> Self {
        DriverConfig {
            transactions,
            arrival: ArrivalSpec::OpenLoop { offered_tps: 50.0 },
            ..DriverConfig::default()
        }
    }

    /// Replace the RNG seed. `saturating`/`unsaturated` keep the workspace
    /// default seed; experiment plans and `repro --seed` thread their seed
    /// through this so that runs are reproducible *per seed* rather than
    /// always identical.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Fix the time-series window width.
    pub fn with_window(mut self, window_us: u64) -> Self {
        self.window_us = Some(window_us);
        self
    }

    /// Replace the arrival process.
    pub fn with_arrival(mut self, arrival: ArrivalSpec) -> Self {
        self.arrival = arrival;
        self
    }
}

/// The result of one driver run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Aggregated metrics.
    pub metrics: Metrics,
    /// Windowed time series of the same receipts (offered vs. achieved
    /// throughput, latency percentiles and abort rate per simulated-time
    /// window).
    pub series: TimeSeries,
    /// Simulated time of the last completion.
    pub makespan_us: Timestamp,
    /// Arrivals the driver actually issued (equals the configured
    /// transaction count unless a closed loop starved before the budget).
    pub arrivals_issued: u64,
    /// Events the engine delivered during the run (arrivals + stages).
    pub events_delivered: u64,
    /// Events that were scheduled in the past and clamped to the engine
    /// clock. Nonzero values point at causality bugs in a system model
    /// (timestamp underflow); normal runs report 0.
    pub events_clamped: u64,
    /// Verdicts of the invariant oracles ([`crate::chaos`]) fed with every
    /// receipt the run surfaced.
    pub oracles: OracleReport,
}

/// The driver-side bookkeeping around a client model: enforces the
/// transaction budget, assigns per-client sequence numbers, makes arrival
/// timestamps globally unique (bumping collisions forward by a microsecond),
/// and schedules the arrival events.
struct ArrivalBook {
    budget: u64,
    issued: u64,
    /// Per-client sequence counters as a flat slab indexed by client id. The
    /// spec's client span is known up front, so a million closed-loop
    /// clients cost one 8 MB vector instead of a million hash entries.
    seqs: Vec<u64>,
    used: TimestampLedger,
}

impl ArrivalBook {
    fn new(budget: u64, client_span: u64) -> Self {
        ArrivalBook {
            budget,
            issued: 0,
            seqs: vec![0; client_span as usize],
            used: TimestampLedger::default(),
        }
    }

    fn emit(
        &mut self,
        client: ClientId,
        at: Timestamp,
        engine: &mut Engine,
        workload: &mut dyn Workload,
    ) {
        if self.issued >= self.budget {
            return;
        }
        self.issued += 1;
        // Unique timestamps make delivery order strictly monotonic in time:
        // no arrival interleaving is ever left to heap tie-breaking.
        let t = self.used.claim(at, engine.now());
        // Every client model hands out ids inside its spec's client span.
        let seq = &mut self.seqs[client.0 as usize];
        *seq += 1;
        let mut txn = workload.next_transaction(client, *seq);
        txn.submit_time = t;
        engine.schedule_at(t, SysEvent::Arrival(txn));
    }
}

/// Run `workload` against `system` under the given driver configuration:
/// the untimed preload of the workload's initial records (when the
/// configuration asks for it), then [`drive`]. The plan executor calls
/// `drive` directly, because it replaces the preload with a shared state for
/// all but the first probe of a state group (`scenario::run_plans_with`).
pub fn run_workload(
    system: &mut dyn TransactionalSystem,
    workload: &mut dyn Workload,
    config: &DriverConfig,
) -> RunStats {
    if config.preload {
        system.load(&workload.initial_records());
    }
    drive(system, workload, config)
}

/// The second half of [`run_workload`]: drive `workload` against an already
/// loaded (or deliberately empty) `system`.
///
/// The event loop: the client model seeds its initial arrivals, events
/// dispatch in `(time, seq)` order — arrivals and stage events to the
/// system — and after every event the system's incremental completion
/// channel is polled so the model can react (open loops schedule their next
/// arrival per dispatch; closed loops per completion). The queue then
/// drains and the receipts aggregate.
pub fn drive(
    system: &mut dyn TransactionalSystem,
    workload: &mut dyn Workload,
    config: &DriverConfig,
) -> RunStats {
    // The one read of the metrics mode: it picks the latency estimator and
    // when receipts fold. Exact mode leaves every receipt in the system until
    // the run is over, so an unset window width comes from the makespan
    // (≈ 20 windows). Streaming mode folds receipts as they complete, before
    // the makespan is known, so an unset width is one simulated second.
    match config.metrics {
        MetricsMode::Exact => drive_with::<ExactLatency>(system, workload, config, None),
        MetricsMode::Streaming => {
            let window_us = config.window_us.unwrap_or(1_000_000);
            let fold = ReceiptFold::<StreamingLatency>::new(window_us, 0);
            drive_with(system, workload, config, Some(fold))
        }
    }
}

/// [`drive`] with the receipt fold chosen. A `live` fold takes receipts as
/// they complete, through one reused buffer, so the system never holds an
/// O(transactions) receipt vector; without one, the receipts fold once the
/// run is over.
fn drive_with<E: LatencyEstimator>(
    system: &mut dyn TransactionalSystem,
    workload: &mut dyn Workload,
    config: &DriverConfig,
    mut live: Option<ReceiptFold<E>>,
) -> RunStats {
    let mut engine = Engine::new();
    system.attach(&mut engine);

    let arrival = &config.arrival;
    let mut model = arrival.build(rng::derive_seed(config.seed, "driver"));
    let mut book = ArrivalBook::new(config.transactions, arrival.client_span());
    model.start(0, &mut |c, t| book.emit(c, t, &mut engine, workload));
    // One completions buffer for the whole run: each poll swap-drains the
    // system's internal vector into it (and hands the drained allocation
    // back), so the hot loop never allocates per event.
    let mut completions = Vec::new();
    let mut surfaced = Vec::new();
    // The invariant oracles see every receipt the run surfaces, in surfacing
    // order, regardless of metrics mode.
    let mut oracles = OracleSet::standard();
    loop {
        // Dispatch the next event, or let the system react to a dry queue.
        let dispatched = match engine.pop() {
            Some((_, SysEvent::Arrival(txn))) => {
                let client = txn.id().client;
                let at = txn.submit_time;
                system.on_arrival(txn, &mut engine);
                model.on_dispatch(client, at, &mut |c, t| {
                    book.emit(c, t, &mut engine, workload)
                });
                true
            }
            Some((_, SysEvent::Stage(stage))) => {
                system.on_stage(stage, &mut engine);
                true
            }
            None => {
                system.on_drain(&mut engine);
                false
            }
        };
        system.drain_completions(&mut completions);
        for completion in completions.drain(..) {
            model.on_completion(
                completion.client,
                completion.submitted,
                completion.finish,
                &mut |c, t| book.emit(c, t, &mut engine, workload),
            );
        }
        if let Some(fold) = live.as_mut() {
            system.drain_receipts_into(&mut surfaced);
            for r in surfaced.drain(..) {
                oracles.observe(&r);
                fold.observe(&r);
            }
        }
        if !dispatched && engine.is_empty() {
            break;
        }
    }

    // What the system still holds: a live fold's stragglers, or every
    // receipt of the run.
    let receipts = system.drain_receipts();
    oracles.observe_all(&receipts);
    let mut fold = live.unwrap_or_else(|| {
        let makespan_us = receipts.iter().map(|r| r.finish_time).max();
        let derived = (makespan_us.unwrap_or(engine.now()) / 20).max(1);
        ReceiptFold::new(config.window_us.unwrap_or(derived), 0)
    });
    receipts.iter().for_each(|r| fold.observe(r));
    let (metrics, series, makespan_us) = fold.finish(engine.now());
    let oracles = oracles.finish(OracleContext {
        arrivals_issued: book.issued,
        events_clamped: engine.clamped(),
    });
    RunStats {
        metrics,
        series,
        makespan_us,
        arrivals_issued: book.issued,
        events_delivered: engine.delivered(),
        events_clamped: engine.clamped(),
        oracles,
    }
}
