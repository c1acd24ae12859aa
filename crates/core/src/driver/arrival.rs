//! How the driver turns the clock into client submissions: the
//! [`ArrivalSpec`] plan data and the client models it expands into.

use dichotomy_common::rng::{self, Rng};
use dichotomy_common::{codec, ClientId, Timestamp};

/// The open loop's client population: arrivals go round-robin across this
/// many client ids. Closed loops carry their own count.
const OPEN_LOOP_CLIENTS: u64 = 32;

/// How the driver turns the clock into client submissions.
///
/// The spec is plan data (like `SystemSpec` and `WorkloadSpec`): cloneable,
/// comparable, and expanded into a client model only inside
/// [`run_workload`](super::run_workload). Composition nests — a phase can
/// itself be phased.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalSpec {
    /// Open loop: Poisson arrivals at `offered_tps`, round-robin across 32
    /// clients, regardless of how the system keeps up. This is the
    /// historical driver behaviour, byte-identical for equal seeds.
    OpenLoop {
        /// Offered load in transactions per second of simulated time.
        offered_tps: f64,
    },
    /// Closed loop: `clients` independent clients, each keeping one request
    /// in flight and pausing an exponentially distributed think time (mean
    /// `think_time_us`, 0 = none) after each completion before submitting
    /// its next request. Throughput obeys Little's law:
    /// `tps ≈ clients / (think_time + mean latency)`.
    ClosedLoop {
        /// Number of closed-loop clients.
        clients: u64,
        /// Mean think time between a completion and the next submission (µs).
        think_time_us: u64,
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
}
codec!(Encode for enum ArrivalSpec {
    OpenLoop { offered_tps } = 0,
    ClosedLoop { clients, think_time_us } = 1,
    Phased { phases } = 2,
});

impl ArrivalSpec {
    /// How many client ids the spec's populations occupy. Open loops use
    /// their fixed 32 clients; closed loops carry their own count; phases
    /// share one range, as wide as their widest.
    pub fn client_span(&self) -> u64 {
        match self {
            ArrivalSpec::OpenLoop { .. } => OPEN_LOOP_CLIENTS,
            ArrivalSpec::ClosedLoop { clients, .. } => (*clients).max(1),
            ArrivalSpec::Phased { phases } => phases
                .iter()
                .map(|(_, spec)| spec.client_span())
                .max()
                .unwrap_or(1),
        }
    }

    /// Expand the spec into its client model. `seed` is already
    /// driver-derived; phases derive further (`phaseN`) so sibling phases
    /// draw independent streams.
    pub(super) fn build(&self, seed: u64) -> Box<dyn ClientModel> {
        match self {
            ArrivalSpec::OpenLoop { offered_tps } => {
                Box::new(OpenLoopModel::new(seed, *offered_tps))
            }
            ArrivalSpec::ClosedLoop {
                clients,
                think_time_us,
            } => Box::new(ClosedLoopModel::new(seed, *clients, *think_time_us)),
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
                        (end, spec.build(child_seed))
                    })
                    .collect();
                Box::new(PhasedModel {
                    phases: built,
                    active: 0,
                    active_start: 0,
                })
            }
        }
    }
}

/// The client-side half of the simulation: decides *when* each client
/// submits. Implementations emit `(client, timestamp)` pairs through the
/// `emit` sink; the driver turns each into a workload transaction, makes the
/// timestamp globally unique, and schedules the arrival event (dropping
/// emissions once the run's transaction budget is spent).
pub(super) trait ClientModel {
    /// The run (or, under [`ArrivalSpec::Phased`], this model's phase)
    /// begins at `at`: emit the initial arrivals. An open loop emits its
    /// first arrival; a closed loop emits one arrival per client.
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
    issued: u64,
    base: Timestamp,
    last_arrival: Timestamp,
}

impl OpenLoopModel {
    fn new(seed: u64, offered_tps: f64) -> Self {
        OpenLoopModel {
            rng: rng::seeded(seed),
            mean_gap_us: 1e6 / offered_tps.max(1e-6),
            issued: 0,
            base: 0,
            last_arrival: 0,
        }
    }

    fn next(&mut self) -> (ClientId, Timestamp) {
        let client_idx = self.issued % OPEN_LOOP_CLIENTS;
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

/// The closed-loop client population: every client keeps one request in
/// flight, and each completion of one of this population's requests is
/// followed `think` later by the owning client's next submission. Think
/// times are exponentially distributed (mean `think_mean_us`); a zero mean
/// submits immediately at the finish time.
struct ClosedLoopModel {
    rng: rng::StdRng,
    think_mean_us: u64,
    /// Whether each client has submitted: a completion for a client that has
    /// not (or for an id outside the population) is foreign — its owner
    /// already dropped it — and must not trigger a submission.
    busy: Vec<bool>,
}

impl ClosedLoopModel {
    fn new(seed: u64, clients: u64, think_time_us: u64) -> Self {
        ClosedLoopModel {
            rng: rng::seeded(seed),
            think_mean_us: think_time_us,
            busy: vec![false; clients.max(1) as usize],
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
        // Each client submits after its own think pause, so clients do not
        // stampede the first microsecond.
        for client in 0..self.busy.len() {
            let t = at + self.think().max(1);
            self.busy[client] = true;
            emit(ClientId(client as u64), t);
        }
    }

    fn on_completion(
        &mut self,
        client: ClientId,
        _submitted: Timestamp,
        finish: Timestamp,
        emit: &mut dyn FnMut(ClientId, Timestamp),
    ) {
        // Foreign completion (outside this population, or a client with
        // nothing of ours in flight): the client submits nothing.
        if self.busy.get(client.0 as usize) != Some(&true) {
            return;
        }
        // The client submits again after the think pause, so it keeps one
        // request in flight. Provenance filtering upstream — submit-time in
        // `Phased` — keeps other populations' completions from ever reaching
        // this point.
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
