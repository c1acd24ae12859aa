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
//! exponential inter-arrival gaps at a fixed offered rate — but closed-loop
//! client populations (think time + outstanding-request caps, fed by the
//! incremental completion channel every `TransactionalSystem` exposes),
//! phased load (ramps, steps, bursts) and mixed populations compose from the
//! same four variants. Every variant is seed-deterministic and emits
//! globally unique, hence strictly monotonically delivered, arrival times.

use std::collections::BTreeMap;

use dichotomy_common::rng::{self, Rng};
use dichotomy_common::{codec, ClientId, Timestamp};
use dichotomy_systems::{Engine, SysEvent, TransactionalSystem};
use dichotomy_workload::Workload;

use crate::chaos::{OracleContext, OracleReport, OracleSet};
use crate::metrics::{
    ExactLatency, LatencyEstimator, Metrics, MetricsMode, ReceiptFold, StreamingLatency, TimeSeries,
};

/// How the driver turns the clock into client submissions.
///
/// The spec is plan data (like `SystemSpec` and `WorkloadSpec`): cloneable,
/// comparable, and expanded into a [`ClientModel`] only inside
/// [`run_workload`]. Composition nests — a phase can hold a mixed
/// population, a population can be phased.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalSpec {
    /// Open loop: Poisson arrivals at `offered_tps`, round-robin across the
    /// driver's `clients`, regardless of how the system keeps up. This is
    /// the historical driver behaviour, byte-identical for equal seeds.
    OpenLoop {
        /// Offered load in transactions per second of simulated time.
        offered_tps: f64,
    },
    /// Closed loop: `clients` independent clients, each keeping at most
    /// `max_outstanding` requests in flight and pausing an exponentially
    /// distributed think time (mean `think_time_us`, 0 = none) after each
    /// completion before submitting its next request. Throughput obeys
    /// Little's law: `tps ≈ clients / (think_time + mean latency)`.
    ClosedLoop {
        /// Number of closed-loop clients.
        clients: u64,
        /// Mean think time between a completion and the next submission (µs).
        think_time_us: u64,
        /// Maximum requests each client keeps in flight.
        max_outstanding: u64,
    },
    /// Load phases: each `(duration_us, spec)` runs in sequence (ramps,
    /// steps, bursts). The final phase is open-ended — it runs until the
    /// transaction budget is exhausted. An arrival a phase generates past
    /// its end is dropped and hands the timeline to the next phase at the
    /// boundary.
    Phased {
        /// The phases, in order.
        phases: Vec<(u64, ArrivalSpec)>,
    },
    /// Concurrent populations with disjoint client-id ranges. The weights
    /// apportion the run's transaction budget across the populations
    /// (largest-remainder rounding, ties to the earlier population).
    Mixed {
        /// `(weight, spec)` per population.
        populations: Vec<(f64, ArrivalSpec)>,
    },
}
codec!(Encode for enum ArrivalSpec {
    OpenLoop { offered_tps } = 0,
    ClosedLoop { clients, think_time_us, max_outstanding } = 1,
    Phased { phases } = 2,
    Mixed { populations } = 3,
});

impl ArrivalSpec {
    /// How many client ids the spec's populations occupy. Open loops draw
    /// on the driver-level `clients` knob; closed loops carry their own
    /// count; mixes stack their populations' ranges side by side.
    pub fn client_span(&self, driver_clients: u64) -> u64 {
        match self {
            ArrivalSpec::OpenLoop { .. } => driver_clients.max(1),
            ArrivalSpec::ClosedLoop { clients, .. } => (*clients).max(1),
            ArrivalSpec::Phased { phases } => phases
                .iter()
                .map(|(_, spec)| spec.client_span(driver_clients))
                .max()
                .unwrap_or(1),
            ArrivalSpec::Mixed { populations } => populations
                .iter()
                .map(|(_, spec)| spec.client_span(driver_clients))
                .sum::<u64>()
                .max(1),
        }
    }

    /// Expand the spec into its client model. `seed` is already
    /// driver-derived; children derive further (`phaseN` / `popN`) so
    /// sibling populations draw independent streams.
    fn build(&self, seed: u64, driver_clients: u64, budget: u64) -> Box<dyn ClientModel> {
        match self {
            ArrivalSpec::OpenLoop { offered_tps } => {
                Box::new(OpenLoopModel::new(seed, *offered_tps, driver_clients))
            }
            ArrivalSpec::ClosedLoop {
                clients,
                think_time_us,
                max_outstanding,
            } => Box::new(ClosedLoopModel::new(
                seed,
                *clients,
                *think_time_us,
                *max_outstanding,
            )),
            ArrivalSpec::Phased { phases } => {
                assert!(!phases.is_empty(), "Phased arrival spec with no phases");
                let mut cumulative: Timestamp = 0;
                let built = phases
                    .iter()
                    .enumerate()
                    .map(|(i, (duration_us, spec))| {
                        cumulative = cumulative.saturating_add((*duration_us).max(1));
                        // The final phase runs until the budget is spent.
                        let end = if i + 1 == phases.len() {
                            Timestamp::MAX
                        } else {
                            cumulative
                        };
                        let child_seed = rng::derive_seed(seed, &format!("phase{i}"));
                        (end, spec.build(child_seed, driver_clients, budget))
                    })
                    .collect();
                Box::new(PhasedModel {
                    phases: built,
                    active: 0,
                    active_start: 0,
                })
            }
            ArrivalSpec::Mixed { populations } => {
                assert!(
                    !populations.is_empty(),
                    "Mixed arrival spec with no populations"
                );
                let shares = mixed_shares(populations, budget);
                let mut base = 0u64;
                let pops = populations
                    .iter()
                    .zip(shares)
                    .enumerate()
                    .map(|(i, ((_, spec), share))| {
                        let span = spec.client_span(driver_clients);
                        let child_seed = rng::derive_seed(seed, &format!("pop{i}"));
                        let pop = Population {
                            model: spec.build(child_seed, driver_clients, share),
                            base,
                            span,
                            remaining: share,
                        };
                        base += span;
                        pop
                    })
                    .collect();
                Box::new(MixedModel { pops })
            }
        }
    }
}

/// Largest-remainder apportionment of a transaction `budget` across
/// [`ArrivalSpec::Mixed`] population weights: floor every quota, then hand
/// the leftover units to the largest fractional parts (ties to the earlier
/// population). Public because the plan linter (`repro lint`) reports
/// populations whose share rounds to zero — and the report is only sound if
/// the lint computes the exact shares the driver will execute.
pub fn mixed_shares(populations: &[(f64, ArrivalSpec)], budget: u64) -> Vec<u64> {
    let weight_sum: f64 = populations.iter().map(|(w, _)| w.max(0.0)).sum();
    let quotas: Vec<f64> = populations
        .iter()
        .map(|(w, _)| {
            let w = if weight_sum > 0.0 {
                w.max(0.0) / weight_sum
            } else {
                1.0 / populations.len() as f64
            };
            w * budget as f64
        })
        .collect();
    let mut shares: Vec<u64> = quotas.iter().map(|q| q.floor() as u64).collect();
    let mut by_fraction: Vec<usize> = (0..quotas.len()).collect();
    by_fraction.sort_by(|&a, &b| {
        let (fa, fb) = (quotas[a].fract(), quotas[b].fract());
        fb.partial_cmp(&fa)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut remainder = budget.saturating_sub(shares.iter().sum());
    for &i in &by_fraction {
        if remainder == 0 {
            break;
        }
        shares[i] += 1;
        remainder -= 1;
    }
    shares
}

/// The client-side half of the simulation: decides *when* each client
/// submits. Implementations emit `(client, timestamp)` pairs through the
/// `emit` sink; the driver turns each into a workload transaction, makes the
/// timestamp globally unique, and schedules the arrival event (dropping
/// emissions once the run's transaction budget is spent).
pub trait ClientModel {
    /// The run (or, under [`ArrivalSpec::Phased`], this model's phase)
    /// begins at `at`: emit the initial arrivals. An open loop emits its
    /// first arrival; a closed loop emits one arrival per client slot.
    fn start(&mut self, at: Timestamp, emit: &mut dyn FnMut(ClientId, Timestamp));

    /// The arrival previously emitted for `client` at `at` was dispatched
    /// into the system. Open-loop models emit the next arrival here.
    fn on_dispatch(
        &mut self,
        client: ClientId,
        at: Timestamp,
        emit: &mut dyn FnMut(ClientId, Timestamp),
    ) {
        let _ = (client, at, emit);
    }

    /// One of `client`'s transactions, submitted at `submitted`, finished —
    /// committed or aborted — at simulated time `finish`. Closed-loop models
    /// emit the next arrival at `finish + think_time` here; phased models
    /// use `submitted` to drop completions belonging to an earlier phase's
    /// population.
    fn on_completion(
        &mut self,
        client: ClientId,
        submitted: Timestamp,
        finish: Timestamp,
        emit: &mut dyn FnMut(ClientId, Timestamp),
    ) {
        let _ = (client, submitted, finish, emit);
    }
}

/// The open-loop arrival process: exponential inter-arrival gaps at the
/// offered rate, round-robin across clients, with a small per-arrival
/// jitter. Arrival timestamps are strictly monotonic — per client and across
/// clients — so event order never depends on heap tie-breaking.
struct OpenLoopModel {
    rng: rng::StdRng,
    mean_gap_us: f64,
    clients: u64,
    issued: u64,
    base: Timestamp,
    last_arrival: Timestamp,
}

impl OpenLoopModel {
    fn new(seed: u64, offered_tps: f64, clients: u64) -> Self {
        OpenLoopModel {
            rng: rng::seeded(seed),
            mean_gap_us: 1e6 / offered_tps.max(1e-6),
            clients: clients.max(1),
            issued: 0,
            base: 0,
            last_arrival: 0,
        }
    }

    fn next(&mut self) -> (ClientId, Timestamp) {
        let client_idx = self.issued % self.clients;
        self.issued += 1;
        // Exponential inter-arrival times approximate an open-loop Poisson
        // arrival process at the offered rate.
        self.base += rng::exp_delay_us(&mut self.rng, self.mean_gap_us).max(1);
        // Small per-arrival jitter so clients do not submit in lockstep. The
        // jitter does not accumulate into the base clock (it would bias the
        // offered rate), and the result is bumped past the previous arrival
        // so timestamps never tie — across clients included.
        let jitter = self.rng.gen_range(0..2u64);
        let at = (self.base + jitter).max(self.last_arrival + 1);
        self.last_arrival = at;
        (ClientId(client_idx), at)
    }
}

impl ClientModel for OpenLoopModel {
    fn start(&mut self, at: Timestamp, emit: &mut dyn FnMut(ClientId, Timestamp)) {
        self.base = at;
        self.last_arrival = at;
        let (client, t) = self.next();
        emit(client, t);
    }

    fn on_dispatch(
        &mut self,
        _client: ClientId,
        _at: Timestamp,
        emit: &mut dyn FnMut(ClientId, Timestamp),
    ) {
        // One arrival is scheduled ahead at a time; the driver drops
        // emissions beyond the transaction budget.
        let (client, t) = self.next();
        emit(client, t);
    }
}

/// The closed-loop client population: every completion of one of this
/// population's requests frees exactly one slot, which the owning client
/// reoccupies `think` later — so the per-client in-flight count never
/// exceeds `max_outstanding`. Think times are exponentially distributed
/// (mean `think_mean_us`); a zero mean submits immediately at the finish
/// time.
struct ClosedLoopModel {
    rng: rng::StdRng,
    clients: u64,
    think_mean_us: u64,
    max_outstanding: u64,
    /// Requests in flight per client: incremented per emission, decremented
    /// per completion. A completion that finds a client idle is foreign
    /// (not emitted by this population — its owner already dropped it) and
    /// must not trigger a submission.
    in_flight: Vec<u64>,
}

impl ClosedLoopModel {
    fn new(seed: u64, clients: u64, think_time_us: u64, max_outstanding: u64) -> Self {
        let clients = clients.max(1);
        ClosedLoopModel {
            rng: rng::seeded(seed),
            clients,
            think_mean_us: think_time_us,
            max_outstanding: max_outstanding.max(1),
            in_flight: vec![0; clients as usize],
        }
    }

    fn think(&mut self) -> u64 {
        if self.think_mean_us == 0 {
            0
        } else {
            rng::exp_delay_us(&mut self.rng, self.think_mean_us as f64)
        }
    }
}

impl ClientModel for ClosedLoopModel {
    fn start(&mut self, at: Timestamp, emit: &mut dyn FnMut(ClientId, Timestamp)) {
        // Fill every client's window: each slot opens after its own think
        // pause, so clients do not stampede the first microsecond.
        for _slot in 0..self.max_outstanding {
            for client in 0..self.clients {
                let t = at + self.think().max(1);
                self.in_flight[client as usize] += 1;
                emit(ClientId(client), t);
            }
        }
    }

    fn on_completion(
        &mut self,
        client: ClientId,
        _submitted: Timestamp,
        finish: Timestamp,
        emit: &mut dyn FnMut(ClientId, Timestamp),
    ) {
        match self.in_flight.get(client.0 as usize) {
            // Foreign completion (outside this population, or a client with
            // nothing of ours in flight): no slot frees up.
            None | Some(0) => return,
            Some(_) => {}
        }
        // The freed slot is reoccupied after the think pause, so the
        // in-flight count holds at its cap. Provenance filtering upstream —
        // client ranges in `Mixed`, submit-time in `Phased` — keeps other
        // populations' completions from ever reaching this point.
        let t = finish + self.think();
        emit(client, t);
    }
}

/// Sequential load phases. All child emissions funnel through
/// [`forward`](Self::forward): an emission that lands past the active
/// phase's end is dropped, and the next phase takes over at the boundary.
/// Each phase is its own population: completions of transactions submitted
/// before the active phase began (the previous population's backlog
/// draining) are dropped, never routed into the active model — otherwise a
/// closed-loop phase would mistake the leftovers for its own requests.
struct PhasedModel {
    /// `(exclusive end, model)` per phase; the final end is `Timestamp::MAX`.
    phases: Vec<(Timestamp, Box<dyn ClientModel>)>,
    active: usize,
    /// Inclusive start of the active phase (the previous phase's end, or
    /// the run start for phase 0).
    active_start: Timestamp,
}

impl PhasedModel {
    /// Forward buffered child emissions, advancing phases as emissions cross
    /// the active boundary (a hand-over calls the next phase's
    /// [`ClientModel::start`] at the boundary, whose own emissions join the
    /// queue — short phases may chain several hand-overs).
    fn forward(
        &mut self,
        buffered: Vec<(ClientId, Timestamp)>,
        emit: &mut dyn FnMut(ClientId, Timestamp),
    ) {
        let mut queue = std::collections::VecDeque::from(buffered);
        while let Some((client, t)) = queue.pop_front() {
            let end = self.phases[self.active].0;
            if t < end {
                emit(client, t);
                continue;
            }
            // Crossed the boundary: this emission is dropped, the next
            // phase starts where the active one ends.
            self.active += 1;
            self.active_start = end;
            let mut buf = Vec::new();
            self.phases[self.active]
                .1
                .start(end, &mut |c, t| buf.push((c, t)));
            queue.extend(buf);
        }
    }

    fn with_active(
        &mut self,
        f: impl FnOnce(&mut dyn ClientModel, &mut dyn FnMut(ClientId, Timestamp)),
        emit: &mut dyn FnMut(ClientId, Timestamp),
    ) {
        let mut buf = Vec::new();
        f(self.phases[self.active].1.as_mut(), &mut |c, t| {
            buf.push((c, t))
        });
        self.forward(buf, emit);
    }
}

impl ClientModel for PhasedModel {
    fn start(&mut self, at: Timestamp, emit: &mut dyn FnMut(ClientId, Timestamp)) {
        self.active_start = at;
        self.with_active(|model, sink| model.start(at, sink), emit);
    }

    fn on_dispatch(
        &mut self,
        client: ClientId,
        at: Timestamp,
        emit: &mut dyn FnMut(ClientId, Timestamp),
    ) {
        self.with_active(|model, sink| model.on_dispatch(client, at, sink), emit);
    }

    fn on_completion(
        &mut self,
        client: ClientId,
        submitted: Timestamp,
        finish: Timestamp,
        emit: &mut dyn FnMut(ClientId, Timestamp),
    ) {
        if submitted < self.active_start {
            // A previous phase's transaction draining: its population
            // retired at the boundary.
            return;
        }
        self.with_active(
            |model, sink| model.on_completion(client, submitted, finish, sink),
            emit,
        );
    }
}

/// One population of a [`MixedModel`]: the child model plus its client-id
/// window and its share of the transaction budget.
struct Population {
    model: Box<dyn ClientModel>,
    base: u64,
    span: u64,
    remaining: u64,
}

/// Concurrent populations over disjoint client-id ranges. Dispatch and
/// completion callbacks route to the owning population (translated into its
/// local id space); emissions translate back and stop once the population's
/// budget share is spent.
struct MixedModel {
    pops: Vec<Population>,
}

impl MixedModel {
    fn route(&self, client: ClientId) -> Option<usize> {
        self.pops
            .iter()
            .position(|p| client.0 >= p.base && client.0 < p.base + p.span)
    }

    fn forward(
        &mut self,
        k: usize,
        buffered: Vec<(ClientId, Timestamp)>,
        emit: &mut dyn FnMut(ClientId, Timestamp),
    ) {
        let pop = &mut self.pops[k];
        for (client, t) in buffered {
            if pop.remaining == 0 {
                break;
            }
            pop.remaining -= 1;
            emit(ClientId(pop.base + client.0), t);
        }
    }
}

impl ClientModel for MixedModel {
    fn start(&mut self, at: Timestamp, emit: &mut dyn FnMut(ClientId, Timestamp)) {
        for k in 0..self.pops.len() {
            let mut buf = Vec::new();
            self.pops[k].model.start(at, &mut |c, t| buf.push((c, t)));
            self.forward(k, buf, emit);
        }
    }

    fn on_dispatch(
        &mut self,
        client: ClientId,
        at: Timestamp,
        emit: &mut dyn FnMut(ClientId, Timestamp),
    ) {
        let Some(k) = self.route(client) else { return };
        let local = ClientId(client.0 - self.pops[k].base);
        let mut buf = Vec::new();
        self.pops[k]
            .model
            .on_dispatch(local, at, &mut |c, t| buf.push((c, t)));
        self.forward(k, buf, emit);
    }

    fn on_completion(
        &mut self,
        client: ClientId,
        submitted: Timestamp,
        finish: Timestamp,
        emit: &mut dyn FnMut(ClientId, Timestamp),
    ) {
        let Some(k) = self.route(client) else { return };
        let local = ClientId(client.0 - self.pops[k].base);
        let mut buf = Vec::new();
        self.pops[k]
            .model
            .on_completion(local, submitted, finish, &mut |c, t| buf.push((c, t)));
        self.forward(k, buf, emit);
    }
}

/// Driver configuration.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Number of transactions to issue.
    pub transactions: u64,
    /// Offered load in transactions per second of simulated time (the
    /// open-loop default; an explicit [`arrival`](Self::arrival) spec takes
    /// precedence).
    pub offered_tps: f64,
    /// Number of simulated clients the open loop spreads arrivals across.
    pub clients: u64,
    /// The arrival process. `None` is the historical open loop at
    /// [`offered_tps`](Self::offered_tps).
    pub arrival: Option<ArrivalSpec>,
    /// Whether to pre-load the workload's initial records (Figure 4/5 do;
    /// storage-size experiments load their own data).
    pub preload: bool,
    /// Width of the windowed time-series buckets (µs). `None` derives a
    /// window from the run's makespan (≈ 20 windows) in exact metrics mode
    /// and uses one simulated second in streaming mode.
    pub window_us: Option<u64>,
    /// Receipts finishing before this simulated time are trimmed from the
    /// time series (warm-up).
    pub warmup_us: Timestamp,
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
    offered_tps,
    clients,
    arrival,
    preload,
    window_us,
    warmup_us,
    seed,
    metrics,
});

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            transactions: 2_000,
            offered_tps: 50_000.0,
            clients: 32,
            arrival: None,
            preload: true,
            window_us: None,
            warmup_us: 0,
            seed: rng::DEFAULT_SEED,
            metrics: MetricsMode::Exact,
        }
    }
}

impl DriverConfig {
    /// A configuration that saturates any of the modelled systems (peak
    /// throughput measurement).
    pub fn saturating(transactions: u64) -> Self {
        DriverConfig {
            transactions,
            offered_tps: 200_000.0,
            ..DriverConfig::default()
        }
    }

    /// A light load for unsaturated latency measurements.
    pub fn unsaturated(transactions: u64) -> Self {
        DriverConfig {
            transactions,
            offered_tps: 50.0,
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
        self.arrival = Some(arrival);
        self
    }

    /// The effective arrival spec: the explicit one, or the open-loop
    /// default at [`offered_tps`](Self::offered_tps).
    pub fn arrival_spec(&self) -> ArrivalSpec {
        self.arrival.clone().unwrap_or(ArrivalSpec::OpenLoop {
            offered_tps: self.offered_tps,
        })
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

/// The driver-side bookkeeping around a [`ClientModel`]: enforces the
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

/// Microseconds per [`TimestampLedger`] page, as a power of two.
const PAGE_BITS: u32 = 16;
/// 64-bit words per page.
const PAGE_WORDS: usize = 1 << (PAGE_BITS - 6);

/// The set of already-claimed arrival timestamps as a paged bitmap: one bit
/// per microsecond, in pages of 2^16 µs keyed by `t >> PAGE_BITS`. A claim is
/// a word scan inside one page, and pages the run has moved past are dropped,
/// so memory is O(live window of the schedule), not O(transactions). The
/// pages sit in an ordered map so that a sparse or far-future timeline costs
/// one page per touched 65 ms, wherever it lies.
#[derive(Default)]
struct TimestampLedger {
    pages: BTreeMap<u64, Box<[u64; PAGE_WORDS]>>,
}

impl TimestampLedger {
    /// Claim the first free microsecond at or after `at` and mark it used —
    /// exactly the `while !used.insert(t) { t += 1 }` bump the driver has
    /// always performed. `now` is the engine clock: pages wholly behind both
    /// it and `at` are forgotten. Only a claim behind the clock can reach a
    /// forgotten page; the first to do so finds it empty, gets `at` itself
    /// and is clamped and counted by the engine, so every run with
    /// `events_clamped == 0` gets the timestamps the full set would give.
    fn claim(&mut self, at: Timestamp, now: Timestamp) -> Timestamp {
        let floor = at.min(now) >> PAGE_BITS;
        while self
            .pages
            .first_key_value()
            .is_some_and(|(&p, _)| p < floor)
        {
            self.pages.pop_first();
        }
        let mut page_no = at >> PAGE_BITS;
        let mut first_word = ((at >> 6) as usize) & (PAGE_WORDS - 1);
        // Bits below `at` in its own word are not candidates.
        let mut mask = !0u64 << (at & 63);
        loop {
            let page = self
                .pages
                .entry(page_no)
                .or_insert_with(|| Box::new([0; PAGE_WORDS]));
            for (w, word) in page.iter_mut().enumerate().skip(first_word) {
                let free = !*word & mask;
                if free != 0 {
                    let bit = free.trailing_zeros();
                    *word |= 1 << bit;
                    return (page_no << PAGE_BITS) | ((w as u64) << 6) | u64::from(bit);
                }
                mask = !0;
            }
            // Full from `at` to its end: the bump chain spills into the next page.
            assert!(
                page_no < Timestamp::MAX >> PAGE_BITS,
                "arrival timestamps exhausted"
            );
            page_no += 1;
            first_word = 0;
        }
    }
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
        let slot = client.0 as usize;
        if slot >= self.seqs.len() {
            // Client ids normally stay inside the spec's span; tolerate
            // models that hand out wider ids rather than indexing blind.
            self.seqs.resize(slot + 1, 0);
        }
        self.seqs[slot] += 1;
        let seq = self.seqs[slot];
        let mut txn = workload.next_transaction(client, seq);
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
            let fold = ReceiptFold::<StreamingLatency>::new(window_us, config.warmup_us);
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

    let clients = config.clients.max(1);
    let arrival = config.arrival_spec();
    let mut model = arrival.build(
        rng::derive_seed(config.seed, "driver"),
        clients,
        config.transactions,
    );
    let mut book = ArrivalBook::new(config.transactions, arrival.client_span(clients));
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
        ReceiptFold::new(config.window_us.unwrap_or(derived), config.warmup_us)
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

#[cfg(test)]
mod tests {
    use super::*;
    use dichotomy_common::TxnReceipt;
    use dichotomy_systems::{Completion, Etcd, Quorum, ReceiptLog, SystemKind, SystemSpec};
    use dichotomy_workload::{YcsbConfig, YcsbWorkload};

    fn small_ycsb(theta: f64) -> YcsbWorkload {
        YcsbWorkload::new(YcsbConfig {
            record_count: 1_000,
            record_size: 200,
            zipf_theta: theta,
            ..YcsbConfig::default()
        })
    }

    #[test]
    fn saturating_run_reports_positive_throughput_and_latency() {
        let mut system = Etcd::new(&SystemSpec::new(SystemKind::Etcd));
        let mut workload = small_ycsb(0.0);
        let stats = run_workload(&mut system, &mut workload, &DriverConfig::saturating(500));
        assert_eq!(stats.metrics.committed, 500);
        assert_eq!(stats.arrivals_issued, 500);
        assert!(stats.metrics.throughput_tps > 100.0);
        assert!(stats.metrics.latency.p95_us > 0);
        assert!(stats.makespan_us > 0);
        // Every arrival plus at least one stage event per write.
        assert!(stats.events_delivered > 500);
        assert_eq!(stats.events_clamped, 0, "no causality violations");
    }

    #[test]
    fn no_model_schedules_events_into_the_past() {
        // Drive every registered system kind through the event loop and
        // check the engine's clamp counter: a nonzero value means a model
        // scheduled a stage event before the current simulated time.
        for kind in SystemKind::ALL {
            let mut system = SystemSpec::new(kind).build().expect("builtin model");
            let mut workload = small_ycsb(0.4);
            let stats = run_workload(
                system.as_mut(),
                &mut workload,
                &DriverConfig::saturating(200),
            );
            assert_eq!(stats.events_clamped, 0, "{kind:?} clamped events");
        }
    }

    #[test]
    fn unsaturated_latency_is_lower_than_saturated_latency() {
        let build = || Quorum::new(&SystemSpec::new(SystemKind::Quorum).with_blocks(20, 50_000));
        let mut saturated_sys = build();
        let saturated = run_workload(
            &mut saturated_sys,
            &mut small_ycsb(0.0),
            &DriverConfig::saturating(300),
        );
        let mut unsaturated_sys = build();
        let unsaturated = run_workload(
            &mut unsaturated_sys,
            &mut small_ycsb(0.0),
            &DriverConfig {
                transactions: 50,
                offered_tps: 20.0,
                ..DriverConfig::default()
            },
        );
        assert!(
            unsaturated.metrics.latency.mean_us < saturated.metrics.latency.mean_us,
            "unsaturated {} vs saturated {}",
            unsaturated.metrics.latency.mean_us,
            saturated.metrics.latency.mean_us
        );
    }

    #[test]
    fn saturating_runs_produce_a_backlog_shaped_time_series() {
        // Offer far more load than Quorum's serial pipeline absorbs: the
        // windowed latency (queueing delay) climbs across the run.
        let mut system = Quorum::new(&SystemSpec::new(SystemKind::Quorum).with_blocks(50, 50_000));
        let stats = run_workload(
            &mut system,
            &mut small_ycsb(0.0),
            &DriverConfig::saturating(600),
        );
        let busy: Vec<_> = stats
            .series
            .windows
            .iter()
            .filter(|w| w.committed > 0)
            .collect();
        assert!(busy.len() >= 3, "expected several busy windows");
        let first = busy.first().unwrap();
        let last = busy.last().unwrap();
        assert!(
            last.latency.p50_us > first.latency.p50_us * 2,
            "backlog should inflate windowed latency: first p50 {} last p50 {}",
            first.latency.p50_us,
            last.latency.p50_us
        );
    }

    /// Records what the driver submits, completing everything `latency_us`
    /// later through the real completion channel: makes every arrival
    /// process directly observable.
    struct ArrivalRecorder {
        arrivals: Vec<Timestamp>,
        clients: Vec<u64>,
        latency_us: u64,
        receipts: ReceiptLog,
    }

    impl Default for ArrivalRecorder {
        fn default() -> Self {
            ArrivalRecorder {
                arrivals: Vec::new(),
                clients: Vec::new(),
                latency_us: 1,
                receipts: ReceiptLog::new(),
            }
        }
    }

    impl TransactionalSystem for ArrivalRecorder {
        fn kind(&self) -> dichotomy_systems::SystemKind {
            dichotomy_systems::SystemKind::Etcd
        }
        fn load(&mut self, _records: &[(dichotomy_common::Key, dichotomy_common::Value)]) {}
        fn on_arrival(&mut self, txn: dichotomy_common::Transaction, engine: &mut Engine) {
            let arrival = engine.now();
            self.arrivals.push(arrival);
            self.clients.push(txn.id().client.0);
            self.receipts
                .push_back(dichotomy_common::TxnReceipt::committed(
                    txn.id(),
                    arrival,
                    arrival + self.latency_us,
                ));
        }
        fn drain_receipts(&mut self) -> Vec<TxnReceipt> {
            self.receipts.drain()
        }
        fn take_completions(&mut self) -> Vec<Completion> {
            self.receipts.take_completions()
        }
        fn footprint(&self) -> dichotomy_common::size::StorageBreakdown {
            dichotomy_common::size::StorageBreakdown::default()
        }
        fn node_count(&self) -> usize {
            1
        }
    }

    fn record_arrivals(config: &DriverConfig) -> ArrivalRecorder {
        let mut recorder = ArrivalRecorder::default();
        let mut workload = small_ycsb(0.0);
        run_workload(&mut recorder, &mut workload, config);
        recorder
    }

    #[test]
    fn arrival_times_are_strictly_increasing() {
        let recorder = record_arrivals(&DriverConfig {
            transactions: 2_000,
            offered_tps: 10_000.0,
            ..DriverConfig::default()
        });
        assert_eq!(recorder.arrivals.len(), 2_000);
        assert!(
            recorder.arrivals.windows(2).all(|w| w[0] < w[1]),
            "open-loop arrivals must advance monotonically"
        );
    }

    #[test]
    fn arrivals_never_tie_even_at_extreme_offered_load() {
        // Regression for the per-client jitter: at a mean gap of ~1 µs the
        // old cumulative jitter let two clients submit at the same µs tick,
        // leaving the interleaving to heap tie-breaking. Arrivals must be
        // strictly monotonic globally (hence per client too) and identical
        // across equal-seed runs.
        let config = DriverConfig {
            transactions: 5_000,
            offered_tps: 1_000_000.0,
            ..DriverConfig::default()
        };
        let a = record_arrivals(&config);
        assert!(
            a.arrivals.windows(2).all(|w| w[0] < w[1]),
            "global strict monotonicity"
        );
        for client in 0..config.clients {
            let per_client: Vec<_> = a
                .arrivals
                .iter()
                .zip(&a.clients)
                .filter(|(_, c)| **c == client)
                .map(|(t, _)| *t)
                .collect();
            assert!(
                per_client.windows(2).all(|w| w[0] < w[1]),
                "client {client} arrivals must be strictly monotonic"
            );
        }
        let b = record_arrivals(&config);
        assert_eq!(a.arrivals, b.arrivals, "same seed, same schedule");
    }

    #[test]
    fn mean_inter_arrival_gap_tracks_the_offered_load() {
        for offered_tps in [1_000.0, 25_000.0] {
            let recorder = record_arrivals(&DriverConfig {
                transactions: 8_000,
                offered_tps,
                ..DriverConfig::default()
            });
            let span = (recorder.arrivals.last().unwrap() - recorder.arrivals[0]) as f64;
            let observed_gap = span / (recorder.arrivals.len() - 1) as f64;
            let expected_gap = 1e6 / offered_tps;
            assert!(
                (observed_gap - expected_gap).abs() < expected_gap * 0.1,
                "offered {offered_tps} tps: observed mean gap {observed_gap:.1} µs, \
                 expected ≈{expected_gap:.1} µs"
            );
        }
    }

    #[test]
    fn arrivals_cycle_round_robin_across_the_configured_clients() {
        let clients = 8u64;
        let transactions = 401u64;
        let recorder = record_arrivals(&DriverConfig {
            transactions,
            clients,
            ..DriverConfig::default()
        });
        // The i-th submission comes from client i mod `clients`, as the
        // DriverConfig docs promise.
        for (i, client) in recorder.clients.iter().enumerate() {
            assert_eq!(*client, i as u64 % clients, "submission {i}");
        }
        // Every client id in [0, clients) appears, and the spread is even to
        // within one transaction.
        let mut counts = vec![0u64; clients as usize];
        for client in &recorder.clients {
            counts[*client as usize] += 1;
        }
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(max - min <= 1, "uneven spread: {counts:?}");
    }

    #[test]
    fn driver_seed_changes_the_arrival_jitter() {
        let arrivals =
            |seed: u64| record_arrivals(&DriverConfig::saturating(500).with_seed(seed)).arrivals;
        assert_eq!(arrivals(7), arrivals(7));
        assert_ne!(arrivals(7), arrivals(8));
    }

    #[test]
    fn streaming_metrics_mode_matches_exact_counts_and_shape() {
        // The same seeded run under both metrics modes: the simulation is
        // identical (arrivals, events, makespan), exact-valued aggregates
        // (counts, means, maxima, window boundaries) agree exactly, and the
        // sketched percentiles land within the documented bounds.
        let run = |metrics| {
            let mut system = Etcd::new(&SystemSpec::new(SystemKind::Etcd));
            let mut workload = small_ycsb(0.6);
            let config = DriverConfig {
                window_us: Some(20_000),
                metrics,
                ..DriverConfig::saturating(300)
            };
            run_workload(&mut system, &mut workload, &config)
        };
        let exact = run(MetricsMode::Exact);
        let streamed = run(MetricsMode::Streaming);
        assert_eq!(streamed.arrivals_issued, exact.arrivals_issued);
        assert_eq!(streamed.events_delivered, exact.events_delivered);
        assert_eq!(streamed.makespan_us, exact.makespan_us);
        assert_eq!(streamed.metrics.committed, exact.metrics.committed);
        assert_eq!(streamed.metrics.aborts, exact.metrics.aborts);
        assert_eq!(streamed.metrics.duration_us, exact.metrics.duration_us);
        assert_eq!(
            streamed.metrics.latency.max_us,
            exact.metrics.latency.max_us
        );
        assert!(
            (streamed.metrics.latency.mean_us - exact.metrics.latency.mean_us).abs() < 1e-6,
            "means are exact in both modes"
        );
        let (p50s, p50e) = (
            streamed.metrics.latency.p50_us as f64,
            exact.metrics.latency.p50_us as f64,
        );
        assert!(
            (p50s - p50e).abs() <= (0.10 * p50e).max(1.0),
            "sketched p50 {p50s} strays from exact {p50e}"
        );
        assert_eq!(streamed.series.windows.len(), exact.series.windows.len());
        for (s, e) in streamed.series.windows.iter().zip(&exact.series.windows) {
            assert_eq!((s.start_us, s.end_us), (e.start_us, e.end_us));
            assert_eq!(s.submitted, e.submitted);
            assert_eq!(s.committed, e.committed);
            assert_eq!(s.aborted, e.aborted);
        }
    }

    #[test]
    fn same_seed_reproduces_identical_results() {
        let run = || {
            let mut system = Etcd::new(&SystemSpec::new(SystemKind::Etcd));
            let mut workload = small_ycsb(0.6);
            run_workload(&mut system, &mut workload, &DriverConfig::saturating(300))
        };
        let a = run();
        let b = run();
        assert_eq!(a.metrics.committed, b.metrics.committed);
        assert_eq!(a.metrics.latency.p50_us, b.metrics.latency.p50_us);
        assert_eq!(a.makespan_us, b.makespan_us);
        assert_eq!(a.events_delivered, b.events_delivered);
        assert_eq!(a.series, b.series);
    }

    #[test]
    fn open_loop_spec_matches_the_legacy_arrival_process_exactly() {
        // Three-way byte-identity pin for the refactor: (a) the implicit
        // open-loop default, (b) an explicit `ArrivalSpec::OpenLoop`, and
        // (c) an inline replay of the pre-refactor arrival arithmetic must
        // produce the same schedule, microsecond for microsecond.
        let config = DriverConfig {
            transactions: 1_000,
            offered_tps: 30_000.0,
            seed: 99,
            ..DriverConfig::default()
        };
        let implicit = record_arrivals(&config);
        let explicit = record_arrivals(&config.clone().with_arrival(ArrivalSpec::OpenLoop {
            offered_tps: 30_000.0,
        }));
        assert_eq!(implicit.arrivals, explicit.arrivals);
        assert_eq!(implicit.clients, explicit.clients);

        // The legacy `ArrivalProcess` arithmetic, replayed inline.
        let mut rng = rng::seeded(rng::derive_seed(config.seed, "driver"));
        let mean_gap_us = 1e6 / config.offered_tps;
        let (mut base, mut last) = (0u64, 0u64);
        let legacy: Vec<Timestamp> = (0..config.transactions)
            .map(|_| {
                base += rng::exp_delay_us(&mut rng, mean_gap_us).max(1);
                let jitter = rng.gen_range(0..2u64);
                let at = (base + jitter).max(last + 1);
                last = at;
                at
            })
            .collect();
        assert_eq!(implicit.arrivals, legacy);
    }

    #[test]
    fn closed_loop_waits_for_completion_plus_think_time() {
        // One request in flight per client and a fixed service latency: each
        // client's next arrival cannot predate its previous completion.
        let latency_us = 700u64;
        let mut recorder = ArrivalRecorder {
            latency_us,
            ..ArrivalRecorder::default()
        };
        let config = DriverConfig {
            transactions: 400,
            arrival: Some(ArrivalSpec::ClosedLoop {
                clients: 4,
                think_time_us: 300,
                max_outstanding: 1,
            }),
            ..DriverConfig::default()
        };
        run_workload(&mut recorder, &mut small_ycsb(0.0), &config);
        assert_eq!(recorder.arrivals.len(), 400, "budget fully issued");
        for client in 0..4u64 {
            let per_client: Vec<_> = recorder
                .arrivals
                .iter()
                .zip(&recorder.clients)
                .filter(|(_, c)| **c == client)
                .map(|(t, _)| *t)
                .collect();
            assert!(per_client.len() > 50, "client {client} starved");
            for pair in per_client.windows(2) {
                assert!(
                    pair[1] >= pair[0] + latency_us,
                    "client {client}: arrival {} predates completion of {}",
                    pair[1],
                    pair[0]
                );
            }
        }
    }

    /// Completes each transaction through a stage event `service_us` after
    /// arrival, so in-flight windows are real intervals on the engine clock.
    struct StagedRecorder {
        service_us: u64,
        /// (client, arrival, finish) per transaction, finish filled at the
        /// completion stage.
        spans: Vec<(u64, Timestamp, Timestamp)>,
        receipts: ReceiptLog,
        pending: Vec<dichotomy_common::TxnId>,
    }

    impl TransactionalSystem for StagedRecorder {
        fn kind(&self) -> dichotomy_systems::SystemKind {
            dichotomy_systems::SystemKind::Etcd
        }
        fn load(&mut self, _records: &[(dichotomy_common::Key, dichotomy_common::Value)]) {}
        fn on_arrival(&mut self, txn: dichotomy_common::Transaction, engine: &mut Engine) {
            let token = self.pending.len() as u64;
            self.spans.push((txn.id().client.0, engine.now(), 0));
            self.pending.push(txn.id());
            engine.schedule_at(engine.now() + self.service_us, SysEvent::stage(0, token));
        }
        fn on_stage(&mut self, event: dichotomy_simnet::StageEvent, engine: &mut Engine) {
            let id = self.pending[event.token as usize];
            let span = &mut self.spans[event.token as usize];
            span.2 = engine.now();
            self.receipts
                .push_back(TxnReceipt::committed(id, span.1, engine.now()));
        }
        fn drain_receipts(&mut self) -> Vec<TxnReceipt> {
            self.receipts.drain()
        }
        fn take_completions(&mut self) -> Vec<Completion> {
            self.receipts.take_completions()
        }
        fn footprint(&self) -> dichotomy_common::size::StorageBreakdown {
            dichotomy_common::size::StorageBreakdown::default()
        }
        fn node_count(&self) -> usize {
            1
        }
    }

    #[test]
    fn closed_loop_outstanding_cap_is_never_exceeded_and_is_reached() {
        let (clients, cap) = (3u64, 4u64);
        let mut recorder = StagedRecorder {
            service_us: 5_000,
            spans: Vec::new(),
            receipts: ReceiptLog::new(),
            pending: Vec::new(),
        };
        let config = DriverConfig {
            transactions: 600,
            arrival: Some(ArrivalSpec::ClosedLoop {
                clients,
                think_time_us: 200,
                max_outstanding: cap,
            }),
            ..DriverConfig::default()
        };
        run_workload(&mut recorder, &mut small_ycsb(0.0), &config);
        assert_eq!(recorder.spans.len(), 600);
        assert!(recorder.spans.iter().all(|(_, _, f)| *f > 0));
        // Recorder-based cap check: per client, count overlapping
        // [arrival, finish) spans at every arrival instant.
        let mut overall_max = 0u64;
        for client in 0..clients {
            let spans: Vec<_> = recorder
                .spans
                .iter()
                .filter(|(c, _, _)| *c == client)
                .map(|(_, a, f)| (*a, *f))
                .collect();
            let max_in_flight = spans
                .iter()
                .map(|(a, _)| spans.iter().filter(|(a2, f2)| a2 <= a && a < f2).count() as u64)
                .max()
                .unwrap_or(0);
            assert!(
                max_in_flight <= cap,
                "client {client} had {max_in_flight} > cap {cap} in flight"
            );
            overall_max = overall_max.max(max_in_flight);
        }
        assert_eq!(
            overall_max, cap,
            "with service ≫ think the cap should bind for some client"
        );
    }

    fn variant_specs() -> Vec<(&'static str, ArrivalSpec)> {
        vec![
            (
                "open",
                ArrivalSpec::OpenLoop {
                    offered_tps: 20_000.0,
                },
            ),
            (
                "closed",
                ArrivalSpec::ClosedLoop {
                    clients: 6,
                    think_time_us: 400,
                    max_outstanding: 2,
                },
            ),
            (
                "phased",
                ArrivalSpec::Phased {
                    phases: vec![
                        (
                            30_000,
                            ArrivalSpec::OpenLoop {
                                offered_tps: 2_000.0,
                            },
                        ),
                        (
                            30_000,
                            ArrivalSpec::OpenLoop {
                                offered_tps: 20_000.0,
                            },
                        ),
                    ],
                },
            ),
            (
                "mixed",
                ArrivalSpec::Mixed {
                    populations: vec![
                        (
                            3.0,
                            ArrivalSpec::OpenLoop {
                                offered_tps: 10_000.0,
                            },
                        ),
                        (
                            1.0,
                            ArrivalSpec::ClosedLoop {
                                clients: 2,
                                think_time_us: 250,
                                max_outstanding: 1,
                            },
                        ),
                    ],
                },
            ),
        ]
    }

    #[test]
    fn every_variant_is_seed_deterministic_and_seed_sensitive() {
        for (name, spec) in variant_specs() {
            let run = |seed: u64| {
                let config = DriverConfig {
                    transactions: 600,
                    seed,
                    arrival: Some(spec.clone()),
                    ..DriverConfig::default()
                };
                let r = record_arrivals(&config);
                (r.arrivals, r.clients)
            };
            assert_eq!(run(7), run(7), "{name}: same seed must reproduce");
            assert_ne!(run(7), run(8), "{name}: different seed must differ");
        }
    }

    #[test]
    fn every_variant_delivers_strictly_monotonic_unique_arrivals() {
        for (name, spec) in variant_specs() {
            let config = DriverConfig {
                transactions: 600,
                arrival: Some(spec),
                ..DriverConfig::default()
            };
            let r = record_arrivals(&config);
            assert_eq!(r.arrivals.len(), 600, "{name}: full budget issued");
            assert!(
                r.arrivals.windows(2).all(|w| w[0] < w[1]),
                "{name}: delivery-order arrival times must strictly increase"
            );
        }
    }

    #[test]
    fn phased_ramp_shifts_the_offered_rate_at_the_boundary() {
        let boundary = 100_000u64;
        let config = DriverConfig {
            transactions: 1_100,
            arrival: Some(ArrivalSpec::Phased {
                phases: vec![
                    (
                        boundary,
                        ArrivalSpec::OpenLoop {
                            offered_tps: 1_000.0,
                        },
                    ),
                    (
                        boundary,
                        ArrivalSpec::OpenLoop {
                            offered_tps: 10_000.0,
                        },
                    ),
                ],
            }),
            ..DriverConfig::default()
        };
        let r = record_arrivals(&config);
        let phase1 = r.arrivals.iter().filter(|t| **t < boundary).count();
        let phase2 = r
            .arrivals
            .iter()
            .filter(|t| **t >= boundary && **t < 2 * boundary)
            .count();
        // ≈ 100 arrivals in the slow phase, ≈ 1 000 in the fast one.
        assert!(
            (60..=140).contains(&phase1),
            "phase 1 carried {phase1} arrivals"
        );
        assert!(phase2 >= 700, "phase 2 carried {phase2} arrivals");
        assert!(
            phase2 > phase1 * 5,
            "the ramp must be visible: {phase1} vs {phase2}"
        );
    }

    #[test]
    fn a_closed_loop_phase_ignores_the_previous_phases_draining_backlog() {
        // Regression: an open-loop burst phase hands over to a closed-loop
        // phase while the slow system still holds the burst's backlog. The
        // backlog's completions were submitted before the closed phase began
        // and belong to a retired population — they must not trigger
        // closed-loop submissions, or the outstanding cap breaks.
        let boundary = 20_000u64;
        let (clients, cap) = (2u64, 1u64);
        let mut recorder = StagedRecorder {
            service_us: 50_000,
            spans: Vec::new(),
            receipts: ReceiptLog::new(),
            pending: Vec::new(),
        };
        let config = DriverConfig {
            transactions: 150,
            arrival: Some(ArrivalSpec::Phased {
                phases: vec![
                    (
                        boundary,
                        ArrivalSpec::OpenLoop {
                            offered_tps: 5_000.0,
                        },
                    ),
                    (
                        boundary,
                        ArrivalSpec::ClosedLoop {
                            clients,
                            think_time_us: 0,
                            max_outstanding: cap,
                        },
                    ),
                ],
            }),
            ..DriverConfig::default()
        };
        run_workload(&mut recorder, &mut small_ycsb(0.0), &config);
        // Everything submitted from the boundary on comes from the closed
        // population: its two clients only, never more than `cap` in flight.
        let phase2: Vec<_> = recorder
            .spans
            .iter()
            .filter(|(_, a, _)| *a >= boundary)
            .collect();
        assert!(phase2.len() > 10, "the closed phase must actually run");
        for (client, _, _) in &phase2 {
            assert!(
                *client < clients,
                "client {client} outside the closed population"
            );
        }
        for client in 0..clients {
            let spans: Vec<_> = phase2
                .iter()
                .filter(|(c, _, _)| *c == client)
                .map(|(_, a, f)| (*a, *f))
                .collect();
            let max_in_flight = spans
                .iter()
                .map(|(a, _)| spans.iter().filter(|(a2, f2)| a2 <= a && a < f2).count() as u64)
                .max()
                .unwrap_or(0);
            assert!(
                max_in_flight <= cap,
                "client {client}: the burst backlog inflated the closed loop \
                 to {max_in_flight} > cap {cap} in flight"
            );
        }
    }

    #[test]
    fn mixed_budget_shares_use_largest_remainder_rounding() {
        // Weights 1:2 over a 4-transaction budget: quotas 1.33 / 2.67 floor
        // to [1, 2]; the leftover unit goes to the LARGER fraction → [1, 3]
        // (first-come rounding would mis-apportion it as [2, 2]).
        let config = DriverConfig {
            transactions: 4,
            clients: 4,
            arrival: Some(ArrivalSpec::Mixed {
                populations: vec![
                    (
                        1.0,
                        ArrivalSpec::OpenLoop {
                            offered_tps: 10_000.0,
                        },
                    ),
                    (
                        2.0,
                        ArrivalSpec::OpenLoop {
                            offered_tps: 10_000.0,
                        },
                    ),
                ],
            }),
            ..DriverConfig::default()
        };
        let r = record_arrivals(&config);
        let pop0 = r.clients.iter().filter(|c| **c < 4).count();
        let pop1 = r.clients.iter().filter(|c| **c >= 4).count();
        assert_eq!((pop0, pop1), (1, 3), "largest remainder wins the leftover");
    }

    #[test]
    fn mixed_populations_split_budget_by_weight_over_disjoint_client_ranges() {
        let driver_clients = 8u64;
        let config = DriverConfig {
            transactions: 400,
            clients: driver_clients,
            arrival: Some(ArrivalSpec::Mixed {
                populations: vec![
                    (
                        3.0,
                        ArrivalSpec::OpenLoop {
                            offered_tps: 50_000.0,
                        },
                    ),
                    (
                        1.0,
                        ArrivalSpec::ClosedLoop {
                            clients: 2,
                            think_time_us: 100,
                            max_outstanding: 1,
                        },
                    ),
                ],
            }),
            ..DriverConfig::default()
        };
        let r = record_arrivals(&config);
        // Population 0 (open loop) owns clients [0, 8); population 1 (closed
        // loop) owns [8, 10).
        let open = r.clients.iter().filter(|c| **c < driver_clients).count();
        let closed = r
            .clients
            .iter()
            .filter(|c| (driver_clients..driver_clients + 2).contains(*c))
            .count();
        assert_eq!(open + closed, 400, "no clients outside the two ranges");
        assert_eq!(open, 300, "3:1 weights over a 400-txn budget");
        assert_eq!(closed, 100);
    }

    /// What the ledger must return: every claimed tick in a set, a collision
    /// bumped forward one tick at a time.
    #[derive(Default)]
    struct BumpReference(std::collections::BTreeSet<Timestamp>);

    impl BumpReference {
        fn claim(&mut self, at: Timestamp) -> Timestamp {
            let mut t = at;
            while !self.0.insert(t) {
                t = t.checked_add(1).expect("reference ran past the last tick");
            }
            t
        }
    }

    /// Feed `(at, now)` claims to a fresh ledger and to the reference; after
    /// each one the page map may hold nothing outside the live window
    /// `[now, latest claimed tick]`.
    fn ledger_against_reference(
        claims: impl Iterator<Item = (Timestamp, Timestamp)>,
    ) -> TimestampLedger {
        let mut ledger = TimestampLedger::default();
        let mut reference = BumpReference::default();
        let mut latest = 0;
        for (i, (at, now)) in claims.enumerate() {
            let t = ledger.claim(at, now);
            assert_eq!(t, reference.claim(at), "claim {i} at {at} (now {now})");
            latest = latest.max(t);
            let window = (latest >> PAGE_BITS) - (now >> PAGE_BITS) + 1;
            assert!(
                ledger.pages.len() as u64 <= window,
                "claim {i}: {} pages for a {window}-page window",
                ledger.pages.len()
            );
        }
        ledger
    }

    #[test]
    fn timestamp_ledger_matches_reference_on_a_dense_open_loop() {
        // 200k tps: a claim every ~5 µs, gaps of 0 collide and bump. The
        // engine clock trails one arrival behind.
        let mut rng = rng::seeded(11);
        let mut at = 0;
        ledger_against_reference((0..120_000).map(|_| {
            let now = at;
            at += rng.gen_range(0..10u64);
            (at, now)
        }));
    }

    #[test]
    fn timestamp_ledger_matches_reference_on_scattered_think_times_and_prunes() {
        // A closed loop: the clock advances, each claim lands an exponential
        // think time ahead of it, so claims arrive in no order at all.
        let mut rng = rng::seeded(12);
        let mut now = 0;
        let ledger = ledger_against_reference((0..120_000).map(|_| {
            now += rng.gen_range(0..200u64);
            (now + rng::exp_delay_us(&mut rng, 300_000.0), now)
        }));
        // ~180 pages went by; only the think-time tail is still held.
        assert!(now >> PAGE_BITS > 150);
        let (&first, _) = ledger.pages.first_key_value().expect("live pages");
        assert!(
            first >= now >> PAGE_BITS,
            "page {first} is behind the clock"
        );
        assert!(ledger.pages.len() < 100, "{} pages", ledger.pages.len());
    }

    #[test]
    fn timestamp_ledger_bump_chain_fills_a_page_and_spills_into_the_next() {
        // Every claim asks for the same tick, 1 000 µs before a page boundary:
        // the chain runs to that page's end, through all of the next page and
        // into a third. The bump loop is quadratic in the chain length, so it
        // referees the first 1 500 claims (across the boundary); by induction
        // claim `i` of one tick is `tick + i`.
        let tick = (5u64 << PAGE_BITS) - 1_000;
        let mut ledger = ledger_against_reference((0..1_500).map(|_| (tick, 0)));
        for i in 1_500..120_000 {
            assert_eq!(ledger.claim(tick, 0), tick + i);
        }
        assert_eq!(ledger.pages.len(), 3);
        assert!(ledger.pages[&5].iter().all(|word| *word == !0));
        // A claim inside the filled page still finds the chain's end.
        assert_eq!(ledger.claim((5 << PAGE_BITS) + 77, 0), tick + 120_000);
    }

    #[test]
    fn timestamp_ledger_matches_reference_on_sparse_far_future_ticks() {
        // Ticks hours apart, each claimed four times; the clock follows one
        // tick behind, so only that tick's page and the current one are held.
        let mut rng = rng::seeded(14);
        let mut now = 0;
        let ledger = ledger_against_reference((0..30_000u64).flat_map(|hour| {
            let tick = hour * 3_600_000_000 + rng.gen_range(0..1_000u64);
            let claims = [(tick, now); 4];
            now = tick;
            claims
        }));
        assert_eq!(ledger.pages.len(), 2);
    }

    #[test]
    fn timestamp_ledger_claims_up_to_the_last_tick_without_overflow() {
        // The last two pages of the timeline hold 131 072 ticks, so this
        // shape stops at 40 000 claims, and short of the final 30 000 ticks so
        // that no chain reaches `Timestamp::MAX` before the two explicit claims.
        let last_page = Timestamp::MAX >> PAGE_BITS << PAGE_BITS;
        let (lo, hi) = (last_page - (1 << PAGE_BITS), Timestamp::MAX - 30_000);
        let mut rng = rng::seeded(15);
        let mut ledger = ledger_against_reference((0..40_000).map(|_| (rng.gen_range(lo..hi), lo)));
        assert_eq!(ledger.claim(Timestamp::MAX - 1, lo), Timestamp::MAX - 1);
        assert_eq!(ledger.claim(Timestamp::MAX - 1, last_page), Timestamp::MAX);
    }
}
