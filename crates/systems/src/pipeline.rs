//! The shared system-model interface and batching helpers.
//!
//! Every system model is an event-driven process on the simulation engine:
//! the driver schedules [`SysEvent::Arrival`]s, the model reacts by booking
//! work on its engine-registered service [`Process`](dichotomy_simnet::Process)es
//! and scheduling its own pipeline [`StageEvent`]s (endorse → order →
//! validate → commit for Fabric, propose → replicate → apply for the
//! databases, block-cut timers for the batching blockchains), and receipts
//! fall out as stages complete. Nothing executes synchronously at submit
//! time, so backlog, saturation and fault stalls emerge from the queues.

use std::collections::VecDeque;

use dichotomy_common::size::StorageBreakdown;
use dichotomy_common::{
    AbortReason, ClientId, Key, Timestamp, Transaction, TxnId, TxnReceipt, Value,
};
use dichotomy_simnet::{SimEngine, StageEvent};
use dichotomy_storage::{KvEngine, LsmTree, MvccStore};

/// Leader re-election pause (µs) every model charges after a crashed
/// primary or shard leader heals, before the role serves again.
pub const FAILOVER_US: u64 = 10_000;

/// Which of the benchmarked systems a model stands for (used in reports and
/// as the lookup key of the [`SystemRegistry`](crate::spec::SystemRegistry)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SystemKind {
    Quorum,
    Fabric,
    TiDb,
    Etcd,
    Tikv,
    SpannerLike,
    Ahl,
}
dichotomy_common::codec!(Encode for enum SystemKind {
    Quorum = 0,
    Fabric = 1,
    TiDb = 2,
    Etcd = 3,
    Tikv = 4,
    SpannerLike = 5,
    Ahl = 6,
});

impl SystemKind {
    /// Every kind with a built-in model, in the paper's plotting order.
    pub const ALL: [SystemKind; 7] = [
        SystemKind::Fabric,
        SystemKind::Quorum,
        SystemKind::TiDb,
        SystemKind::Etcd,
        SystemKind::Tikv,
        SystemKind::SpannerLike,
        SystemKind::Ahl,
    ];

    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            SystemKind::Quorum => "Quorum",
            SystemKind::Fabric => "Fabric",
            SystemKind::TiDb => "TiDB",
            SystemKind::Etcd => "etcd",
            SystemKind::Tikv => "TiKV",
            SystemKind::SpannerLike => "Spanner-like",
            SystemKind::Ahl => "AHL",
        }
    }

    /// Lowercase label safe for machine-readable keys (candidate names,
    /// cache paths): no spaces, dashes or case surprises.
    pub fn slug(&self) -> &'static str {
        match self {
            SystemKind::Quorum => "quorum",
            SystemKind::Fabric => "fabric",
            SystemKind::TiDb => "tidb",
            SystemKind::Etcd => "etcd",
            SystemKind::Tikv => "tikv",
            SystemKind::SpannerLike => "spanner",
            SystemKind::Ahl => "ahl",
        }
    }

    /// Whether the model batches transactions into blocks, i.e. whether the
    /// block-cut knobs (`block_txns`, `block_interval_us`) change anything.
    /// Enumeration grids use this to skip no-op block axes on the database
    /// kinds instead of multiplying the grid by dead configurations.
    pub fn cuts_blocks(&self) -> bool {
        matches!(self, SystemKind::Quorum | SystemKind::Fabric)
    }

    /// Whether the model honors a shard count above one (the partitioned
    /// NewSQL builders and AHL's BFT-sharded deployment; the etcd/TiKV KV
    /// models ignore the knob).
    pub fn shards_scale(&self) -> bool {
        matches!(
            self,
            SystemKind::TiDb | SystemKind::SpannerLike | SystemKind::Ahl
        )
    }
}

/// The event vocabulary of the transaction-processing simulation: what the
/// driver and the system models exchange through the engine's queue.
#[derive(Debug, Clone)]
pub enum SysEvent {
    /// A client transaction arriving at the system boundary.
    Arrival(Transaction),
    /// A pipeline stage a model scheduled for itself firing.
    Stage(StageEvent),
}

impl SysEvent {
    /// A stage event for model-defined stage `stage` and payload `token`.
    pub fn stage(stage: u32, token: u64) -> Self {
        SysEvent::Stage(StageEvent::new(stage, token))
    }
}

/// The concrete engine every system model runs on.
pub type Engine = SimEngine<SysEvent>;

/// An incremental completion notification: one transaction finished
/// (committed *or* aborted) for `client` at simulated time `finish`.
///
/// The driver polls these through
/// [`drain_completions`](TransactionalSystem::drain_completions) after every
/// dispatched event, which is what lets closed-loop clients schedule their
/// next submission at `finish + think_time` while the run is still going.
/// `finish` may lie ahead of the engine clock: models stamp receipts with
/// tail latencies (replication round trips, network hops) that need no
/// further events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The submitting client.
    pub client: ClientId,
    /// The simulated submit time of the transaction (client models use it
    /// to attribute a completion to the population that emitted it — e.g. a
    /// load phase ignores completions submitted before it began).
    pub submitted: Timestamp,
    /// The simulated finish time of the transaction.
    pub finish: Timestamp,
}

/// The outcome buffer every system model records receipts into: a receipt
/// log that doubles as the incremental completion channel.
///
/// [`push_back`](Self::push_back) records the receipt *and* its
/// [`Completion`]; [`swap_completions`](Self::swap_completions) surfaces the
/// completion stream for the driver's closed-loop clients and
/// [`swap_receipts`](Self::swap_receipts) hands the receipts out, both as the
/// two required drains of [`TransactionalSystem`].
#[derive(Debug, Default)]
pub struct ReceiptLog {
    receipts: Vec<TxnReceipt>,
    completions: Vec<Completion>,
}

impl ReceiptLog {
    /// An empty log.
    pub fn new() -> Self {
        ReceiptLog::default()
    }

    /// Record a finished transaction (commit or abort).
    pub fn push_back(&mut self, receipt: TxnReceipt) {
        self.completions.push(Completion {
            client: receipt.txn_id.client,
            submitted: receipt.submit_time,
            finish: receipt.finish_time,
        });
        self.receipts.push(receipt);
    }

    /// Record the `Overload` abort of `txn`, which arrived at `arrival` and
    /// which an outage that never ends left unserved: its client gives up at
    /// `finish`.
    pub fn push_overload(&mut self, txn: TxnId, arrival: Timestamp, finish: Timestamp) {
        self.push_back(TxnReceipt::aborted(
            txn,
            AbortReason::Overload,
            arrival,
            finish,
        ));
    }

    /// Swap-drain the completions recorded since the last call: clears
    /// `buf`, then exchanges it with the internal completion vector. The
    /// caller reads the batch out of `buf` and hands the same buffer back on
    /// the next call, so the two allocations ping-pong between the log and
    /// the driver's event loop — no per-event `Vec` allocation.
    pub fn swap_completions(&mut self, buf: &mut Vec<Completion>) {
        buf.clear();
        std::mem::swap(&mut self.completions, buf);
    }

    /// Swap-drain the receipts recorded since the last drain, in recording
    /// order, with the same buffer-reuse protocol as
    /// [`swap_completions`](Self::swap_completions).
    pub fn swap_receipts(&mut self, buf: &mut Vec<TxnReceipt>) {
        buf.clear();
        std::mem::swap(&mut self.receipts, buf);
    }
}

/// A model's loaded substrates, frozen so that other instances of the same
/// model can start from them instead of re-running [`load`].
///
/// Produced by [`TransactionalSystem::share_state`] and consumed by
/// [`TransactionalSystem::adopt_state`]; opaque to everything in between
/// (the plan executor just carries it from the first system of a batch to
/// the later ones). The payload is whatever the model chooses — typically a
/// struct of its cheaply cloneable stores.
///
/// [`load`]: TransactionalSystem::load
pub struct SharedState(Box<dyn std::any::Any>);

impl SharedState {
    /// Wrap a model-defined snapshot.
    pub fn new<T: 'static>(snapshot: T) -> Self {
        SharedState(Box::new(snapshot))
    }

    /// The snapshot, if it is a `T` (a model checks for its own type and
    /// declines anything else).
    pub fn downcast_ref<T: 'static>(&self) -> Option<&T> {
        self.0.downcast_ref()
    }
}

/// The loaded (versioned state, storage engine) pair of the models that keep
/// an [`MvccStore`] beside an [`LsmTree`] — Fabric, TiDB and the sharded
/// databases all bulk-load that pair the same way.
pub(crate) struct VersionedKvState {
    pub(crate) state: MvccStore,
    pub(crate) db: LsmTree,
}

impl VersionedKvState {
    /// Bulk-load `records` into a model's pair: all of them committed to
    /// `state` under one new version, and written to `db`.
    pub(crate) fn load(state: &mut MvccStore, db: &mut LsmTree, records: &[(Key, Value)]) {
        let version = state.begin_commit();
        state.load(version, records);
        db.load(records);
    }

    /// Freeze `state` and fork both stores.
    pub(crate) fn capture(state: &mut MvccStore, db: &LsmTree) -> Self {
        state.freeze();
        VersionedKvState {
            state: state.clone(),
            db: db.clone(),
        }
    }

    /// Overwrite `state` and `db` with forks of the captured pair.
    pub(crate) fn restore(&self, state: &mut MvccStore, db: &mut LsmTree) {
        *state = self.state.clone();
        *db = self.db.clone();
    }

    /// [`restore`](Self::restore) from `shared` if it holds a captured pair
    /// (the body of such a model's `adopt_state`).
    pub(crate) fn adopt(shared: &SharedState, state: &mut MvccStore, db: &mut LsmTree) -> bool {
        shared
            .downcast_ref::<VersionedKvState>()
            .map(|pair| pair.restore(state, db))
            .is_some()
    }
}

/// The interface every system model exposes to the experiment driver.
///
/// Lifecycle: [`load`](Self::load) (untimed bulk load) or
/// [`adopt_state`](Self::adopt_state) in its place, then exactly one
/// [`attach`](Self::attach) on a fresh engine, then any number of
/// [`on_arrival`](Self::on_arrival) / [`on_stage`](Self::on_stage) callbacks
/// in event order, then [`on_drain`](Self::on_drain) once the arrival stream
/// has ended and the queue has run dry. Receipts accumulate internally and
/// leave through the two swap-drains a model implements,
/// [`drain_completions`](Self::drain_completions) and
/// [`drain_receipts_into`](Self::drain_receipts_into); the other two receipt
/// methods are built on them.
pub trait TransactionalSystem {
    /// Which system this is.
    fn kind(&self) -> SystemKind;

    /// Bulk-load the initial records (not timed). Models hand each storage
    /// substrate the whole slice ([`KvEngine::load`], [`MvccStore::load`]),
    /// which builds what it can in one pass; the MPT and the bucket tree
    /// take the records one at a time.
    ///
    /// **Contract:** the state `load` leaves behind may depend only on
    /// `records` and on the fields of the building spec that
    /// [`SystemSpec::state_shape`](crate::spec::SystemSpec::state_shape)
    /// declares — never on node counts, consensus, block cutting, cost or
    /// network models, fault schedules or seeds. The plan executor loads
    /// once per distinct (state shape, initial records) and hands the result
    /// to every other probe of that shape, so a `load` that reads anything
    /// else is a bug: probes would silently measure a state built for a
    /// different spec.
    fn load(&mut self, records: &[(Key, Value)]);

    /// Right after [`load`](Self::load): freeze the loaded substrates into a
    /// snapshot other instances can [`adopt`](Self::adopt_state), and keep
    /// running on top of it. Sharing must be invisible — this system and
    /// every adopter behave exactly as if each had run `load` itself.
    /// `None` (the default) opts out: every instance is loaded separately.
    fn share_state(&mut self) -> Option<SharedState> {
        None
    }

    /// Instead of [`load`](Self::load): start from a snapshot another
    /// instance of this model shared after loading the same records under
    /// the same state shape. Returns `false` (the default), leaving the
    /// system untouched, when the snapshot is not one this model produced;
    /// the caller then falls back to `load`.
    fn adopt_state(&mut self, state: &SharedState) -> bool {
        let _ = state;
        false
    }

    /// Register the model's service processes (pipeline-stage servers) on
    /// the engine. Called once, before any event fires.
    fn attach(&mut self, engine: &mut Engine) {
        let _ = engine;
    }

    /// A transaction arrives at `engine.now()`. The model books service time
    /// on its processes and schedules the stage events that will carry the
    /// transaction through its pipeline; receipts appear from
    /// [`drain_receipts`](Self::drain_receipts) once the final stage fires.
    fn on_arrival(&mut self, txn: Transaction, engine: &mut Engine);

    /// A stage event previously scheduled by this model fires at
    /// `engine.now()`.
    fn on_stage(&mut self, event: StageEvent, engine: &mut Engine) {
        let _ = (event, engine);
    }

    /// The arrival stream has ended and the event queue has drained: flush
    /// any partially filled batch by scheduling its remaining stages (the
    /// events are drained again afterwards).
    fn on_drain(&mut self, engine: &mut Engine) {
        let _ = engine;
    }

    /// Swap-drain the completions recorded since the last call into `buf`
    /// (cleared first), in recording order. The driver polls this after
    /// every dispatched event, handing the same buffer back each time, so
    /// closed-loop client models can react to finishes while the run is
    /// live. Models that buffer their outcomes in a [`ReceiptLog`] implement
    /// it as [`ReceiptLog::swap_completions`]: two vectors ping-pong and no
    /// event allocates.
    fn drain_completions(&mut self, buf: &mut Vec<Completion>);

    /// Swap-drain the receipts completed since the last drain into `buf`
    /// (cleared first). Streaming-metrics runs consume receipts
    /// incrementally through this instead of retaining the run's full
    /// receipt vector; models backed by a [`ReceiptLog`] implement it as
    /// [`ReceiptLog::swap_receipts`].
    fn drain_receipts_into(&mut self, buf: &mut Vec<TxnReceipt>);

    /// Receipts completed since the last drain:
    /// [`drain_receipts_into`](Self::drain_receipts_into) on a fresh vector.
    fn drain_receipts(&mut self) -> Vec<TxnReceipt> {
        let mut receipts = Vec::new();
        self.drain_receipts_into(&mut receipts);
        receipts
    }

    /// Completions recorded since the last call:
    /// [`drain_completions`](Self::drain_completions) on a fresh vector.
    fn take_completions(&mut self) -> Vec<Completion> {
        let mut completions = Vec::new();
        self.drain_completions(&mut completions);
        completions
    }

    /// Current storage footprint across state, indexes and ledger/history.
    fn footprint(&self) -> StorageBreakdown;

    /// Number of nodes in the deployment.
    fn node_count(&self) -> usize;
}

/// Pump the engine dry: dispatch every queued event to `system`, give the
/// system an [`on_drain`](TransactionalSystem::on_drain), and keep going
/// until no events remain (drain hooks may schedule follow-up stages).
pub fn run_to_completion(system: &mut dyn TransactionalSystem, engine: &mut Engine) {
    loop {
        while let Some((_, event)) = engine.pop() {
            match event {
                SysEvent::Arrival(txn) => system.on_arrival(txn, engine),
                SysEvent::Stage(stage) => system.on_stage(stage, engine),
            }
        }
        system.on_drain(engine);
        if engine.is_empty() {
            break;
        }
    }
}

/// Drive a fixed arrival schedule through `system` on a fresh engine and
/// return the receipts — the unit-test / bench counterpart of the open-loop
/// driver in `dichotomy-core`. Each transaction's `submit_time` is stamped
/// with its arrival when unset.
///
/// Reusing one system across calls is supported only when the later call's
/// arrival timestamps continue *after* the previous run's finish times: the
/// engine is fresh per call — its clock and every service process, Fabric's
/// ordering queue included, start idle — but model state keyed to absolute
/// time — contention hold windows, reconfiguration epochs, ordered commit
/// clamps — survives in the system.
pub fn drive_arrivals(
    system: &mut dyn TransactionalSystem,
    arrivals: impl IntoIterator<Item = (Transaction, Timestamp)>,
) -> Vec<TxnReceipt> {
    let mut engine = Engine::new();
    system.attach(&mut engine);
    for (mut txn, at) in arrivals {
        if txn.submit_time == 0 {
            txn.submit_time = at;
        }
        engine.schedule_at(at, SysEvent::Arrival(txn));
    }
    run_to_completion(system, &mut engine);
    system.drain_receipts()
}

/// A token-keyed store for model state that is in flight between two stage
/// events: `insert` hands out the token to embed in the [`StageEvent`],
/// `remove` claims it back when the stage fires.
///
/// Tokens are issued 0, 1, 2, … and never reused. The store is a dense slab:
/// slot `i` holds token `base + i`, and claimed slots at the front are
/// dropped, so neither `insert` nor `remove` searches or allocates per call.
#[derive(Debug)]
pub struct TokenMap<T> {
    /// Empty, or starting with an occupied slot.
    slots: VecDeque<Option<T>>,
    /// The token `slots[0]` holds.
    base: u64,
}

impl<T> Default for TokenMap<T> {
    fn default() -> Self {
        TokenMap {
            slots: VecDeque::new(),
            base: 0,
        }
    }
}

impl<T> TokenMap<T> {
    /// An empty map.
    pub fn new() -> Self {
        TokenMap::default()
    }

    /// Store `value` and return the token that retrieves it.
    pub fn insert(&mut self, value: T) -> u64 {
        self.slots.push_back(Some(value));
        self.base + self.slots.len() as u64 - 1
    }

    /// The slot of an issued token at or after `base`.
    fn slot(&mut self, token: u64) -> &mut Option<T> {
        token
            .checked_sub(self.base)
            .and_then(|i| self.slots.get_mut(usize::try_from(i).ok()?))
            .expect("stage token in flight")
    }

    /// Claim the value behind `token`. Panics if the token was never issued
    /// or was already claimed — a stage event fired twice.
    pub fn remove(&mut self, token: u64) -> T {
        let value = self.slot(token).take().expect("stage token in flight");
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        value
    }

    /// Put a value back under a token previously claimed with
    /// [`remove`](Self::remove) (the take/compute/put-back pattern models
    /// use to work on an entry while keeping `&mut self` free). Panics if
    /// the token was never issued or is occupied: its value would be lost.
    pub fn restore(&mut self, token: u64, value: T) {
        while token < self.base {
            self.slots.push_front(None);
            self.base -= 1;
        }
        let prev = self.slot(token).replace(value);
        assert!(prev.is_none(), "token {token} restored while occupied");
    }

    /// Access the value behind `token` without claiming it.
    pub fn get_mut(&mut self, token: u64) -> &mut T {
        self.slot(token).as_mut().expect("stage token in flight")
    }

    /// Number of entries in flight (counted over the live token window).
    pub fn len(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// Whether nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// Groups submitted transactions into blocks the way a blockchain's block
/// producer / ordering service cuts them: a block is cut when it holds
/// `max_txns` transactions or when `timeout_us` has elapsed since its first
/// transaction arrived, whichever comes first.
///
/// The timeout is an engine timer: one timer stage event is armed per open
/// block (tagged with an epoch token so stale timers no-op), size cuts come
/// from [`add`](Self::add) and timeout cuts from [`on_timer`](Self::on_timer).
/// Both batching blockchains share this state machine instead of
/// hand-rolling the epoch/re-arm invariants.
#[derive(Debug)]
pub struct TimedCutter {
    max_txns: usize,
    timeout_us: u64,
    pending: Vec<(Transaction, Timestamp)>,
    first_arrival: Option<Timestamp>,
    /// Which stage id the timer events carry (model-defined).
    timer_stage: u32,
    /// Epoch of the currently open (uncut) block; timer tokens must match.
    epoch: u64,
}

impl TimedCutter {
    /// A cutter with the given limits whose timers fire as `timer_stage`
    /// stage events.
    pub fn new(max_txns: usize, timeout_us: u64, timer_stage: u32) -> Self {
        TimedCutter {
            max_txns: max_txns.max(1),
            timeout_us: timeout_us.max(1),
            pending: Vec::new(),
            first_arrival: None,
            timer_stage,
            epoch: 0,
        }
    }

    fn arm_timer(&self, at: Timestamp, engine: &mut Engine) {
        engine.schedule_at(
            at + self.timeout_us,
            SysEvent::stage(self.timer_stage, self.epoch),
        );
    }

    /// Add a transaction at `at`, arming the timeout timer when this opens a
    /// new block. Returns the cut batch if this arrival closed one.
    pub fn add(
        &mut self,
        txn: Transaction,
        at: Timestamp,
        engine: &mut Engine,
    ) -> Option<(Vec<(Transaction, Timestamp)>, Timestamp)> {
        if self.pending.is_empty() {
            self.arm_timer(at, engine);
        }
        let cut = self.push(txn, at);
        if cut.is_some() {
            self.epoch += 1;
            if !self.pending.is_empty() {
                // The cut left a fresh open block behind (a late-arrival
                // cut): arm its timer too.
                self.arm_timer(at, engine);
            }
        }
        cut
    }

    /// Append a transaction; returns a cut batch if this arrival closed a
    /// block (either because an older pending block timed out before
    /// `arrival`, or because the size limit was reached).
    fn push(
        &mut self,
        txn: Transaction,
        arrival: Timestamp,
    ) -> Option<(Vec<(Transaction, Timestamp)>, Timestamp)> {
        // If the open block has already timed out by the time this arrival
        // happens, cut it first and start a new block with this transaction.
        if let Some(first) = self.first_arrival {
            if arrival >= first + self.timeout_us && !self.pending.is_empty() {
                let cut_time = first + self.timeout_us;
                let batch = std::mem::take(&mut self.pending);
                self.pending.push((txn, arrival));
                self.first_arrival = Some(arrival);
                return Some((batch, cut_time));
            }
        }
        if self.first_arrival.is_none() {
            self.first_arrival = Some(arrival);
        }
        self.pending.push((txn, arrival));
        if self.pending.len() >= self.max_txns {
            let cut_time = arrival;
            let batch = std::mem::take(&mut self.pending);
            self.first_arrival = None;
            return Some((batch, cut_time));
        }
        None
    }

    /// A timer stage event fired with `token`: cut the open block if the
    /// timer is current (stale epochs no-op).
    pub fn on_timer(
        &mut self,
        token: u64,
        now: Timestamp,
    ) -> Option<(Vec<(Transaction, Timestamp)>, Timestamp)> {
        if token != self.epoch {
            return None;
        }
        self.flush(now)
    }

    /// Cut whatever is pending (timer tick or drain hook at `now`). With
    /// timers armed for every open block this is normally empty by the time
    /// the queue runs dry.
    pub fn flush(&mut self, now: Timestamp) -> Option<(Vec<(Transaction, Timestamp)>, Timestamp)> {
        if self.pending.is_empty() {
            return None;
        }
        let first = self.first_arrival.take().unwrap_or(now);
        // The block is cut when the timer fires: never before the first
        // arrival, never after the block's timeout expires.
        let cut_time = now.clamp(first, first.saturating_add(self.timeout_us));
        let batch = std::mem::take(&mut self.pending);
        self.epoch += 1;
        Some((batch, cut_time))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dichotomy_common::{ClientId, Operation, TxnId};

    fn txn(seq: u64) -> Transaction {
        Transaction::new(
            TxnId::new(ClientId(1), seq),
            vec![Operation::write(Key::from_str("k"), Value::filler(4))],
        )
    }

    /// Every in-flight arrival is one `SysEvent` holding one `Transaction`,
    /// so their size is a per-client cost at a million closed-loop clients.
    /// A 32-byte digest memo in `Transaction` (to hash each payload once
    /// instead of twice) was measured and refused: 200k-client `scale_closed`
    /// ran 7 % slower and peaked 7 MB higher, 11 MB with the transaction
    /// boxed inside `Arrival`. A transaction holds whether its client signed
    /// it, not a 64-byte signature. A one-operation transaction (Table 3's
    /// default) carries its operation inline: in flight it costs these 80
    /// bytes and no heap, where a `Vec` of operations cost 72 bytes plus a
    /// 64-byte heap chunk.
    #[test]
    fn in_flight_arrivals_stay_the_size_they_were() {
        assert_eq!(std::mem::size_of::<Transaction>(), 80);
        assert_eq!(std::mem::size_of::<SysEvent>(), 80);
    }

    #[test]
    fn cuts_on_size_limit() {
        let mut engine = Engine::new();
        let mut c = TimedCutter::new(3, 1_000_000, 7);
        assert!(c.add(txn(1), 10, &mut engine).is_none());
        assert!(c.add(txn(2), 20, &mut engine).is_none());
        let (batch, at) = c.add(txn(3), 30, &mut engine).expect("size cut");
        assert_eq!(batch.len(), 3);
        assert_eq!(at, 30);
        assert!(c.pending.is_empty());
    }

    #[test]
    fn cuts_on_timeout_when_a_late_arrival_shows_up() {
        let mut engine = Engine::new();
        let mut c = TimedCutter::new(100, 500, 7);
        c.add(txn(1), 0, &mut engine);
        c.add(txn(2), 100, &mut engine);
        // This arrival is past the timeout of the open block.
        let (batch, at) = c.add(txn(3), 900, &mut engine).expect("timeout cut");
        assert_eq!(batch.len(), 2);
        assert_eq!(at, 500);
        assert_eq!(c.pending.len(), 1);
    }

    #[test]
    fn cut_time_is_clamped_to_the_blocks_lifetime() {
        let mut engine = Engine::new();
        // `now` before the first arrival (a stale timer tick): the cut is
        // dated at the first arrival, never earlier.
        let mut c = TimedCutter::new(100, 500, 7);
        c.add(txn(1), 1_000, &mut engine);
        let (_, at) = c.flush(400).expect("cut");
        assert_eq!(at, 1_000);
        // `now` past the timeout: the cut is dated when the timeout expired.
        let mut c = TimedCutter::new(100, 500, 7);
        c.add(txn(2), 1_000, &mut engine);
        let (_, at) = c.flush(9_999).expect("cut");
        assert_eq!(at, 1_500);
        // `now` inside the window: the cut happens exactly at `now`.
        let mut c = TimedCutter::new(100, 500, 7);
        c.add(txn(3), 1_000, &mut engine);
        let (_, at) = c.flush(1_200).expect("cut");
        assert_eq!(at, 1_200);
    }

    #[test]
    fn explicit_cut_flushes_pending() {
        let mut engine = Engine::new();
        let mut c = TimedCutter::new(100, 500, 7);
        assert!(c.flush(0).is_none());
        c.add(txn(1), 100, &mut engine);
        let (batch, at) = c.flush(10_000).expect("flush");
        assert_eq!(batch.len(), 1);
        assert_eq!(at, 600);
        assert!(c.flush(20_000).is_none());
    }

    #[test]
    fn system_kind_names() {
        assert_eq!(SystemKind::Quorum.name(), "Quorum");
        assert_eq!(SystemKind::TiDb.name(), "TiDB");
        assert_eq!(SystemKind::Ahl.name(), "AHL");
    }

    #[test]
    fn token_map_issues_sequential_tokens_and_supports_put_back() {
        let mut m: TokenMap<&str> = TokenMap::new();
        assert!(m.is_empty());
        let a = m.insert("a");
        let b = m.insert("b");
        assert_eq!((a, b), (0, 1));
        assert_eq!(m.len(), 2);
        let taken = m.remove(a);
        assert_eq!(taken, "a");
        m.restore(a, "a2");
        assert_eq!(*m.get_mut(a), "a2");
        assert_eq!(m.remove(b), "b");
        // Tokens keep increasing after removals (they are never reused).
        assert_eq!(m.insert("c"), 2);
    }

    #[test]
    fn token_map_out_of_order_removal_leaves_an_uncounted_hole() {
        let mut m: TokenMap<u32> = TokenMap::new();
        let tokens: Vec<u64> = (0..3).map(|v| m.insert(v)).collect();
        assert_eq!(m.remove(tokens[1]), 1);
        assert_eq!(m.len(), 2);
        assert_eq!(*m.get_mut(tokens[0]), 0);
        assert_eq!(*m.get_mut(tokens[2]), 2);
        assert_eq!(m.insert(3), 3);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn token_map_restores_behind_the_compacted_front() {
        let mut m: TokenMap<&str> = TokenMap::new();
        let (a, b, c) = (m.insert("a"), m.insert("b"), m.insert("c"));
        // Claiming b then a compacts the front past both tokens.
        assert_eq!(m.remove(b), "b");
        assert_eq!(m.remove(a), "a");
        assert_eq!(m.len(), 1);
        m.restore(a, "a2");
        assert_eq!(m.len(), 2);
        assert_eq!(m.remove(c), "c");
        assert_eq!(m.remove(a), "a2");
        assert!(m.is_empty());
    }

    #[test]
    fn token_map_continues_its_counter_after_a_full_drain() {
        let mut m: TokenMap<u32> = TokenMap::new();
        for v in 0..5 {
            let token = m.insert(v);
            assert_eq!(m.remove(token), v);
        }
        assert!(m.is_empty());
        assert_eq!(m.insert(5), 5);
    }

    #[test]
    #[should_panic(expected = "stage token in flight")]
    fn token_map_double_remove_panics() {
        let mut m: TokenMap<u32> = TokenMap::new();
        // The second claim finds the hole the first one left.
        let (_a, b, _c) = (m.insert(0), m.insert(1), m.insert(2));
        m.remove(b);
        m.remove(b);
    }

    #[test]
    #[should_panic(expected = "stage token in flight")]
    fn token_map_never_issued_token_panics() {
        let mut m: TokenMap<u32> = TokenMap::new();
        m.insert(0);
        m.remove(1);
    }

    #[test]
    #[should_panic(expected = "restored while occupied")]
    fn token_map_restore_into_an_occupied_token_panics() {
        let mut m: TokenMap<u32> = TokenMap::new();
        let a = m.insert(0);
        m.restore(a, 1);
    }

    #[test]
    fn timed_cutter_cuts_on_size_and_arms_one_timer_per_open_block() {
        let mut engine = Engine::new();
        let mut c = TimedCutter::new(2, 500, 7);
        assert!(c.add(txn(1), 10, &mut engine).is_none());
        // One timer armed for the block opened at t=10.
        assert_eq!(engine.len(), 1);
        assert_eq!(engine.peek_time(), Some(510));
        let (batch, at) = c.add(txn(2), 20, &mut engine).expect("size cut");
        assert_eq!((batch.len(), at), (2, 20));
        // The size cut does not arm another timer (no open block remains).
        assert_eq!(engine.len(), 1);
        // The stale timer for the cut block no-ops.
        let (_, ev) = engine.pop().unwrap();
        let token = match ev {
            SysEvent::Stage(se) => {
                assert_eq!(se.stage, 7);
                se.token
            }
            SysEvent::Arrival(_) => panic!("expected the timer stage event"),
        };
        assert!(c.on_timer(token, 510).is_none());
    }

    #[test]
    fn timed_cutter_timer_cuts_the_open_block_and_flush_drains() {
        let mut engine = Engine::new();
        let mut c = TimedCutter::new(100, 500, 7);
        c.add(txn(1), 10, &mut engine);
        // The armed timer's token is current: it cuts at the timeout.
        let (_, ev) = engine.pop().unwrap();
        let token = match ev {
            SysEvent::Stage(se) => se.token,
            SysEvent::Arrival(_) => panic!("expected the timer stage event"),
        };
        let (batch, at) = c.on_timer(token, 510).expect("timeout cut");
        assert_eq!((batch.len(), at), (1, 510));
        // A re-fired stale timer no-ops; flush on an empty cutter no-ops.
        assert!(c.on_timer(token, 600).is_none());
        assert!(c.flush(1_000).is_none());
        c.add(txn(2), 700, &mut engine);
        let (batch, _) = c.flush(800).expect("drain flush");
        assert_eq!(batch.len(), 1);
    }
}
