//! The sharded systems of Figure 14: a Spanner-like NewSQL database
//! (Paxos-replicated shards, pessimistic waiting, trusted 2PC) and AHL — the
//! sharded permissioned blockchain (PBFT shards, trusted-hardware-reduced
//! shard size, BFT-replicated 2PC coordinator shard, periodic
//! reconfiguration). Figure 14's third system is [`TiDb`](crate::tidb::TiDb)
//! with a shard count.
//!
//! All three run on one database core, `ShardedDb`: the partitioner, the
//! replication profile, 2PC, the MVCC+LSM state pair with its load and
//! fork, the outages of the coordinator and shard leaders, the receipt log,
//! the receipts parked until their `Committed` stage fires and the per-key
//! hold table.
//!
//! Contention is a per-key hold window: a committed write holds its keys
//! until its decision lands (`busy_until`, written only through the core's
//! `hold` and read only through its `busy_window`). An arrival that touches
//! a held key waits the window out in the Spanner-like model; TiDB judges
//! the window when its coordinator reaches the write. AHL does not look at
//! the window.
//!
//! Event pipeline: the Spanner-like and AHL models decide at arrival; the
//! transaction is booked through the per-shard service processes,
//! replication and 2PC, and its receipt surfaces through the `Committed`
//! stage event when the decision lands.

use dichotomy_common::size::{StorageBreakdown, StorageFootprint};
use dichotomy_common::{Key, KeyMap, Timestamp, Transaction, TxnReceipt, Value};
use dichotomy_consensus::{ProtocolKind, ReplicationProfile};
use dichotomy_merkle::MerkleBucketTree;
use dichotomy_sharding::{CoordinatorKind, Partitioner, TwoPhaseCommit};
use dichotomy_simnet::{CostModel, NetworkConfig, Outages, ProcessId, StageEvent};
use dichotomy_storage::{KvEngine, LsmTree, MvccStore};

use crate::pipeline::{
    Completion, Engine, ReceiptLog, SharedState, SysEvent, SystemKind, TokenMap,
    TransactionalSystem, VersionedKvState,
};
use crate::spec::SystemSpec;

/// Stage: a decided transaction's receipt surfaces to the client at its
/// commit time (token = in-flight id). Shared by every model on the core.
const ST_COMMITTED: u32 = 0;

/// The database core of the sharded models and of TiDB: `shards` hash
/// partitions, each a replication group of `nodes_per_shard`, with 2PC
/// across them.
pub(crate) struct ShardedDb {
    pub(crate) partitioner: Partitioner,
    shards: u32,
    /// Replicas in each shard's replication group.
    pub(crate) nodes_per_shard: usize,
    pub(crate) network: NetworkConfig,
    pub(crate) costs: CostModel,
    /// One serial apply/commit process per shard (the shard's Paxos/Raft
    /// leader pipeline), registered by [`attach`](Self::attach).
    shard_procs: Option<Vec<ProcessId>>,
    pub(crate) replication: ReplicationProfile,
    pub(crate) two_pc: TwoPhaseCommit,
    pub(crate) state: MvccStore,
    pub(crate) engine_db: LsmTree,
    pub(crate) receipts: ReceiptLog,
    /// Until when each key is held by an in-flight (not yet committed)
    /// transaction — the window in which a contending arrival either waits
    /// (pessimistic locking) or aborts (optimistic/TiDB).
    busy_until: KeyMap<Timestamp>,
    /// Receipts scheduled to surface at their finish time (token-keyed).
    finishing: TokenMap<TxnReceipt>,
    /// When the 2PC coordinator role (`NodeId(0)`) cannot decide; no station
    /// hosts it, so the decision asks at its decision point.
    pub(crate) coordinator: Outages,
    /// When each shard's replication leader (`NodeId(1 + shard)`) cannot
    /// serve; set on its `shard-pipe` at [`attach`](Self::attach).
    pub(crate) leaders: Vec<Outages>,
}

impl ShardedDb {
    /// `shards` (at least one) groups of `nodes_per_shard` replicas running
    /// `protocol` on the LAN, with the costs and faults `spec` describes.
    pub(crate) fn new(
        spec: &SystemSpec,
        shards: u32,
        nodes_per_shard: usize,
        protocol: ProtocolKind,
        coordinator: CoordinatorKind,
    ) -> Self {
        let network = NetworkConfig::lan_1gbps();
        let costs = spec.costs.clone().unwrap_or_default();
        ShardedDb {
            partitioner: Partitioner::hash(shards),
            shards,
            nodes_per_shard,
            shard_procs: None,
            replication: ReplicationProfile::new(
                protocol,
                nodes_per_shard,
                network.clone(),
                costs.clone(),
            ),
            two_pc: TwoPhaseCommit::new(coordinator, network.clone(), costs.clone()),
            network,
            costs,
            state: MvccStore::new(),
            engine_db: LsmTree::new(),
            receipts: ReceiptLog::new(),
            busy_until: KeyMap::default(),
            finishing: TokenMap::new(),
            coordinator: spec.primary_outages(),
            leaders: (0..shards).map(|s| spec.shard_leader_outages(s)).collect(),
        }
    }

    /// The spec's shard count, or 4 shards when it names none.
    fn shards_or_default(spec: &SystemSpec) -> u32 {
        match spec.shard_count() {
            0 => 4,
            n => n,
        }
    }

    /// Register one `shard-pipe` process per shard, carrying its leader's
    /// outages (a model that books its own processes, like TiDB, never
    /// calls this).
    fn attach(&mut self, engine: &mut Engine) {
        self.shard_procs = Some(
            self.leaders
                .iter()
                .map(|outages| {
                    let pipe = engine.add_process("shard-pipe", 1);
                    engine.set_outages(pipe, outages.clone());
                    pipe
                })
                .collect(),
        );
    }

    fn shard_procs(&self) -> &[ProcessId] {
        self.shard_procs
            .as_deref()
            .expect("system not attached to an engine")
    }

    /// Park a decided receipt and schedule the `Committed` stage event that
    /// surfaces it at its finish time.
    pub(crate) fn schedule_receipt(&mut self, receipt: TxnReceipt, engine: &mut Engine) {
        let at = receipt.finish_time;
        let token = self.finishing.insert(receipt);
        engine.schedule_at(at, SysEvent::stage(ST_COMMITTED, token));
    }

    /// The `Committed` stage `event` fired: hand the parked receipt to the
    /// client.
    pub(crate) fn surface_receipt(&mut self, event: StageEvent) {
        debug_assert_eq!(event.stage, ST_COMMITTED);
        let receipt = self.finishing.remove(event.token);
        self.receipts.push_back(receipt);
    }

    /// Hold `key` until `until`, replacing any earlier hold.
    pub(crate) fn hold(&mut self, key: &Key, until: Timestamp) {
        self.busy_until.insert(key.clone(), until);
    }

    /// Latest time at which any of `keys` is still held by an in-flight
    /// transaction (0 if none).
    pub(crate) fn busy_window(&self, keys: &[&Key]) -> Timestamp {
        keys.iter()
            .filter_map(|k| self.busy_until.get(*k).copied())
            .max()
            .unwrap_or(0)
    }

    pub(crate) fn load(&mut self, records: &[(Key, Value)]) {
        VersionedKvState::load(&mut self.state, &mut self.engine_db, records);
    }

    pub(crate) fn capture(&mut self) -> VersionedKvState {
        VersionedKvState::capture(&mut self.state, &self.engine_db)
    }

    pub(crate) fn adopt_state(&mut self, state: &SharedState) -> bool {
        VersionedKvState::adopt(state, &mut self.state, &mut self.engine_db)
    }

    /// Record the `Overload` abort of a transaction that arrived at
    /// `arrival` and whose decision a permanent outage left unreachable at
    /// `stalled_at`.
    fn abort_stalled(&mut self, txn: &Transaction, arrival: Timestamp, stalled_at: Timestamp) {
        let finish = stalled_at + self.network.base_latency_us;
        self.receipts.push_overload(txn.id(), arrival, finish);
    }

    /// Per-shard work + cross-shard 2PC for a transaction whose per-shard
    /// processing cost is `shard_cost_us`. Returns the commit time, or
    /// `Err(stalled_at)` when a permanent outage makes the decision
    /// unreachable (the caller records [`abort_stalled`](Self::abort_stalled)).
    fn replicate_and_commit(
        &mut self,
        txn: &Transaction,
        start: Timestamp,
        shard_cost_us: u64,
        engine: &mut Engine,
    ) -> Result<Timestamp, Timestamp> {
        let write_keys = txn.write_set();
        let shards = self.partitioner.shards_of(&write_keys);
        let mut slowest = start;
        let pipe_count = self.shard_procs().len();
        for shard in &shards {
            // The pipe starts no work while its leader is down or cut off
            // from the coordinator.
            let pipe = self.shard_procs()[shard.0 as usize % pipe_count];
            let Some((_, done)) = engine.try_service(pipe, start, shard_cost_us) else {
                return Err(start);
            };
            slowest = slowest.max(done);
        }
        let replicated = slowest + self.replication.commit_latency_us(txn.payload_bytes() + 64);
        // The 2PC coordinator role itself may be down or partitioned away.
        let Some(decide_input) = self.coordinator.start(replicated, 0) else {
            return Err(replicated);
        };
        let decided_at = self
            .two_pc
            .decided_at(decide_input, shards.len(), txn.payload_bytes());
        // Apply the writes and mark the written keys busy until commit.
        let version = self.state.begin_commit();
        for op in txn.ops().iter().filter(|o| o.writes()) {
            let value = op.value.clone().unwrap_or_else(|| Value::filler(1));
            self.state
                .commit_write(op.key.clone(), version, Some(value.clone()));
            self.engine_db.put(op.key.clone(), value);
            self.hold(&op.key, decided_at);
        }
        Ok(decided_at)
    }
}

/// The Spanner-like model: the spec's shards (default 4) are Paxos groups of its `nodes` (default
/// 3, the Figure 14 setup). Faults address `NodeId(0)` as the 2PC
/// coordinator role and `NodeId(1 + shard)` as a shard's replication leader.
pub struct SpannerLike {
    db: ShardedDb,
}

impl SpannerLike {
    /// Build the Spanner-like deployment `spec` describes.
    pub fn new(spec: &SystemSpec) -> Self {
        SpannerLike {
            db: ShardedDb::new(
                spec,
                ShardedDb::shards_or_default(spec),
                spec.nodes.unwrap_or(3),
                ProtocolKind::Raft, // Paxos-class majority replication
                CoordinatorKind::Trusted,
            ),
        }
    }
}

impl TransactionalSystem for SpannerLike {
    fn kind(&self) -> SystemKind {
        SystemKind::SpannerLike
    }

    fn load(&mut self, records: &[(Key, Value)]) {
        self.db.load(records);
    }

    fn share_state(&mut self) -> Option<SharedState> {
        Some(SharedState::new(self.db.capture()))
    }

    fn adopt_state(&mut self, state: &SharedState) -> bool {
        self.db.adopt_state(state)
    }

    fn attach(&mut self, engine: &mut Engine) {
        self.db.attach(engine);
    }

    fn on_arrival(&mut self, txn: Transaction, engine: &mut Engine) {
        let arrival = engine.now();
        let c = &self.db.costs;
        if txn.is_read_only() {
            let mut reads = Vec::new();
            let mut cost = 0;
            for op in txn.ops().iter().filter(|o| o.reads()) {
                let v = self.db.state.get_latest(&op.key);
                cost += c.storage_get_us(v.as_ref().map_or(64, Value::len));
                reads.push((op.key.clone(), v));
            }
            let finish = arrival + c.sql_frontend_us() + cost + self.db.network.base_latency_us;
            let mut r = TxnReceipt::committed(txn.id(), arrival, finish);
            r.reads = reads;
            self.db.receipts.push_back(r);
            return;
        }
        // Pessimistic waiting: start once every touched key's in-flight
        // holder has committed, then hold the keys through commit. This
        // waiting — instead of TiDB's contention rounds and abort — is what
        // Figure 14 penalizes under contention. The shard work and the 2PC decision
        // are booked now, so later arrivals see the hold window, and the
        // receipt surfaces through its `Committed` stage event.
        let touched: Vec<&Key> = txn.ops().iter().map(|o| &o.key).collect();
        let wait_us = self.db.busy_window(&touched).saturating_sub(arrival);
        let per_shard = c.sql_frontend_us()
            + txn
                .ops()
                .iter()
                .map(|op| {
                    if op.writes() {
                        c.storage_put_us(op.value.as_ref().map_or(0, Value::len))
                    } else {
                        c.storage_get_us(1000)
                    }
                })
                .sum::<u64>();
        let start = arrival + wait_us;
        let commit_at = match self.db.replicate_and_commit(&txn, start, per_shard, engine) {
            Ok(t) => t,
            Err(stalled_at) => return self.db.abort_stalled(&txn, arrival, stalled_at),
        };
        let finish = commit_at + self.db.network.base_latency_us;
        let mut r = TxnReceipt::committed(txn.id(), arrival, finish);
        r.phase_latencies = vec![
            ("locking", wait_us),
            ("commit", commit_at.saturating_sub(start)),
        ];
        self.db.schedule_receipt(r, engine);
    }

    fn on_stage(&mut self, event: StageEvent, _engine: &mut Engine) {
        self.db.surface_receipt(event);
    }

    fn drain_completions(&mut self, buf: &mut Vec<Completion>) {
        self.db.receipts.swap_completions(buf)
    }

    fn drain_receipts_into(&mut self, buf: &mut Vec<TxnReceipt>) {
        self.db.receipts.swap_receipts(buf)
    }

    fn footprint(&self) -> StorageBreakdown {
        self.db.engine_db.footprint()
    }

    fn node_count(&self) -> usize {
        self.db.shards as usize * self.db.nodes_per_shard
    }
}

/// What [`Ahl::load`](TransactionalSystem::load) builds: the sharded
/// database's pair plus the authenticated index over the same records.
pub(crate) struct AhlState {
    pub(crate) db: VersionedKvState,
    pub(crate) mbt: MerkleBucketTree,
}

/// The AHL (Attested HyperLedger) sharded-blockchain model: the spec's
/// shards (default 4) of its `nodes` each (default 3 — trusted hardware
/// lets AHL keep shards this small, the Figure 14 setup).
///
/// AHL also re-forms its shards: every epoch (default 10 s) each shard
/// pipeline pauses for the hand-off (default 3 s; the trade-off the paper
/// prices at ≈30 %), as it does for every declared
/// [`Reconfiguration`](dichotomy_simnet::Reconfiguration). Both are outage
/// windows on every `shard-pipe`, holding up the work queued behind them.
/// Keys reach shards through a fixed [`Partitioner::hash`], so a
/// reconfiguration is a pure pause.
pub struct Ahl {
    db: ShardedDb,
    /// Authenticated state index (Fabric v0.6 heritage: Merkle Bucket Tree).
    mbt: MerkleBucketTree,
}

impl Ahl {
    /// Build the AHL deployment `spec` describes.
    pub fn new(spec: &SystemSpec) -> Self {
        let nodes_per_shard = spec.nodes.unwrap_or(3);
        let mut db = ShardedDb::new(
            spec,
            ShardedDb::shards_or_default(spec),
            nodes_per_shard,
            ProtocolKind::Pbft,
            CoordinatorKind::Replicated {
                protocol: ProtocolKind::Pbft,
                n: nodes_per_shard,
            },
        );
        let declared = spec.faults.iter().flat_map(|f| f.reconfigurations());
        let pauses: Vec<_> = declared
            .map(|r| (r.at, Some(r.at.saturating_add(r.pause_us))))
            .collect();
        for leader in &mut db.leaders {
            leader.extend(pauses.iter().copied());
            if spec.periodic_reconfiguration.unwrap_or(true) {
                leader.every(
                    spec.epoch_us.unwrap_or(10_000_000),
                    spec.reconfig_pause_us.unwrap_or(3_000_000),
                );
            }
        }
        Ahl {
            db,
            mbt: MerkleBucketTree::fabric_default(),
        }
    }
}

impl TransactionalSystem for Ahl {
    fn kind(&self) -> SystemKind {
        SystemKind::Ahl
    }

    fn load(&mut self, records: &[(Key, Value)]) {
        self.db.load(records);
        for (k, v) in records {
            self.mbt.put(k, v);
        }
    }

    fn share_state(&mut self) -> Option<SharedState> {
        Some(SharedState::new(AhlState {
            db: self.db.capture(),
            mbt: self.mbt.clone(),
        }))
    }

    fn adopt_state(&mut self, state: &SharedState) -> bool {
        let Some(state) = state.downcast_ref::<AhlState>() else {
            return false;
        };
        state.db.restore(&mut self.db.state, &mut self.db.engine_db);
        self.mbt = state.mbt.clone();
        true
    }

    fn attach(&mut self, engine: &mut Engine) {
        self.db.attach(engine);
    }

    fn on_arrival(&mut self, txn: Transaction, engine: &mut Engine) {
        let arrival = engine.now();
        let c = self.db.costs.clone();
        if txn.is_read_only() {
            let mut reads = Vec::new();
            let mut cost = c.client_auth();
            for op in txn.ops().iter().filter(|o| o.reads()) {
                let v = self.db.state.get_latest(&op.key);
                cost += c.storage_get_us(v.as_ref().map_or(64, Value::len));
                reads.push((op.key.clone(), v));
            }
            let mut r = TxnReceipt::committed(txn.id(), arrival, arrival + cost);
            r.reads = reads;
            self.db.receipts.push_back(r);
            return;
        }
        // Per-shard blockchain work: client auth, chaincode execution, MBT
        // update and endorsement verification, all serial within the shard.
        let mut per_shard = c.client_auth()
            + c.chaincode_exec_us(txn.op_count(), txn.payload_bytes())
            + c.verify_signatures_us(self.db.nodes_per_shard);
        for op in txn.ops().iter().filter(|o| o.writes()) {
            let value = op.value.clone().unwrap_or_else(|| Value::filler(1));
            let stats = self.mbt.put(&op.key, &value);
            per_shard += c.adr_update_us(stats.nodes_touched, stats.leaf_bytes);
            per_shard += c.storage_put_us(value.len());
        }
        let commit_at = match self
            .db
            .replicate_and_commit(&txn, arrival, per_shard, engine)
        {
            Ok(t) => t,
            Err(stalled_at) => return self.db.abort_stalled(&txn, arrival, stalled_at),
        };
        let mut r = TxnReceipt::committed(
            txn.id(),
            arrival,
            commit_at + self.db.network.base_latency_us,
        );
        r.phase_latencies = vec![("shard-consensus", commit_at.saturating_sub(arrival))];
        self.db.schedule_receipt(r, engine);
    }

    fn on_stage(&mut self, event: StageEvent, _engine: &mut Engine) {
        self.db.surface_receipt(event);
    }

    fn drain_completions(&mut self, buf: &mut Vec<Completion>) {
        self.db.receipts.swap_completions(buf)
    }

    fn drain_receipts_into(&mut self, buf: &mut Vec<TxnReceipt>) {
        self.db.receipts.swap_receipts(buf)
    }

    fn footprint(&self) -> StorageBreakdown {
        self.db.engine_db.footprint().merged(&self.mbt.footprint())
    }

    fn node_count(&self) -> usize {
        self.db.shards as usize * self.db.nodes_per_shard + self.db.nodes_per_shard
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{drive_arrivals, run_to_completion};
    use crate::tidb::TiDb;
    use dichotomy_common::{AbortReason, ClientId, NodeId, Operation, TxnId};
    use dichotomy_simnet::FaultPlan;

    fn spanner() -> SystemSpec {
        SystemSpec::new(SystemKind::SpannerLike)
    }

    fn ahl() -> SystemSpec {
        SystemSpec::new(SystemKind::Ahl)
    }

    fn two_key_txn(seq: u64, a: &str, b: &str) -> Transaction {
        Transaction::new(
            TxnId::new(ClientId(seq % 8), seq),
            vec![
                Operation::read_modify_write(Key::from_str(a), Value::filler(1000)),
                Operation::read_modify_write(Key::from_str(b), Value::filler(1000)),
            ],
        )
    }

    fn records(n: usize) -> Vec<(Key, Value)> {
        (0..n)
            .map(|i| (Key::from_str(&format!("k{i:06}")), Value::filler(1000)))
            .collect()
    }

    /// Skewed two-record transactions (the Figure 14 workload shape): keys
    /// drawn from a small hot set so in-flight transactions collide.
    fn throughput_skewed(sys: &mut dyn TransactionalSystem, n: u64, gap_us: u64, hot: u64) -> f64 {
        let arrivals: Vec<_> = (0..n)
            .map(|seq| {
                let a = format!("k{:06}", seq % hot);
                let b = format!("k{:06}", (seq * 7 + 13) % hot);
                (two_key_txn(seq, &a, &b), seq * gap_us)
            })
            .collect();
        let receipts = drive_arrivals(sys, arrivals);
        let committed = receipts.iter().filter(|r| r.status.is_committed()).count();
        let last = receipts.iter().map(|r| r.finish_time).max().unwrap_or(1);
        committed as f64 / (last as f64 / 1e6)
    }

    #[test]
    fn the_hold_window_is_the_latest_hold_over_the_keys_asked() {
        let mut db = ShardedDb::new(
            &spanner(),
            4,
            3,
            ProtocolKind::Raft,
            CoordinatorKind::Trusted,
        );
        let (a, b, c) = (Key::from_str("a"), Key::from_str("b"), Key::from_str("c"));
        assert_eq!(db.busy_window(&[&a, &b]), 0);
        db.hold(&a, 100);
        db.hold(&b, 300);
        assert_eq!(db.busy_window(&[&a, &b, &c]), 300);
        assert_eq!(db.busy_window(&[&a, &c]), 100);
        assert_eq!(db.busy_window(&[&c]), 0);
        // A later hold of a key replaces its earlier one, even backwards.
        db.hold(&b, 50);
        assert_eq!(db.busy_window(&[&a, &b]), 100);
    }

    #[test]
    fn sharded_tidb_beats_spanner_beats_ahl() {
        let mut tidb = TiDb::new(&SystemSpec::new(SystemKind::TiDb).with_shards(4));
        let mut spanner = SpannerLike::new(&spanner());
        let mut ahl = Ahl::new(&ahl());
        tidb.load(&records(1000));
        spanner.load(&records(1000));
        ahl.load(&records(1000));
        let t_tidb = throughput_skewed(&mut tidb, 400, 100, 20);
        let t_spanner = throughput_skewed(&mut spanner, 400, 100, 20);
        let t_ahl = throughput_skewed(&mut ahl, 400, 100, 20);
        assert!(
            t_tidb > t_ahl,
            "TiDB {t_tidb:.0} should beat AHL {t_ahl:.0}"
        );
        assert!(
            t_spanner > t_ahl,
            "Spanner {t_spanner:.0} should beat AHL {t_ahl:.0}"
        );
    }

    #[test]
    fn ahl_reconfiguration_costs_throughput() {
        // Short epochs so the 200-transaction run spans several
        // reconfigurations.
        let fast_epochs = ahl().with_reconfiguration(100_000, 30_000);
        let mut with = Ahl::new(&fast_epochs);
        let mut without = Ahl::new(&fast_epochs.with_periodic_reconfiguration(false));
        with.load(&records(500));
        without.load(&records(500));
        let t_with = throughput_skewed(&mut with, 200, 2_000, 500);
        let t_without = throughput_skewed(&mut without, 200, 2_000, 500);
        assert!(
            t_without > t_with * 1.1,
            "fixed {t_without:.0} vs reconfig {t_with:.0}"
        );
    }

    #[test]
    fn more_shards_scale_the_databases() {
        let t = |shards: u32| {
            let mut s = TiDb::new(&SystemSpec::new(SystemKind::TiDb).with_shards(shards));
            s.load(&records(1000));
            throughput_skewed(&mut s, 600, 50, 900)
        };
        let small = t(1);
        let large = t(16);
        assert!(
            large > small * 1.5,
            "1 shard {small:.0} vs 16 shards {large:.0}"
        );
    }

    #[test]
    fn spanner_lock_waits_show_up_in_latency() {
        let mut s = SpannerLike::new(&spanner());
        s.load(&records(10));
        // Two transactions contending on the same keys, 10 µs apart: the
        // second waits out the first's hold window, which lasts until the
        // first's commit.
        let receipts = drive_arrivals(
            &mut s,
            vec![
                (two_key_txn(1, "k000001", "k000002"), 0),
                (two_key_txn(2, "k000001", "k000002"), 10),
            ],
        );
        assert_eq!(receipts.len(), 2);
        assert!(receipts.iter().all(|r| r.status.is_committed()));
        let phase = |seq: u64, name: &str| {
            let r = receipts.iter().find(|r| r.txn_id.seq == seq).unwrap();
            r.phase_latencies
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert_eq!(phase(1, "locking"), 0);
        assert_eq!(phase(2, "locking"), phase(1, "commit") - 10);
    }

    #[test]
    fn a_shard_leader_crash_stalls_transactions_touching_that_shard() {
        use dichotomy_simnet::fault::NodeFault;
        // Find two single-key transactions landing on different shards.
        let p = Partitioner::hash(4);
        let key_a = Key::from_str("k000000");
        let shard_a = p.shard_of(&key_a);
        let key_b = (1..100)
            .map(|i| Key::from_str(&format!("k{i:06}")))
            .find(|k| p.shard_of(k) != shard_a)
            .unwrap();
        let mut faults = FaultPlan::none();
        faults.add(NodeFault::crash_until(
            NodeId(1 + u64::from(shard_a.0)),
            0,
            400_000,
        ));
        let mut s = TiDb::new(
            &SystemSpec::new(SystemKind::TiDb)
                .with_shards(4)
                .with_faults(faults),
        );
        s.load(&[
            (key_a.clone(), Value::filler(1000)),
            (key_b.clone(), Value::filler(1000)),
        ]);
        let txn = |seq: u64, key: &Key| {
            Transaction::new(
                TxnId::new(ClientId(seq), seq),
                vec![Operation::read_modify_write(
                    key.clone(),
                    Value::filler(100),
                )],
            )
        };
        let receipts = drive_arrivals(
            &mut s,
            vec![(txn(1, &key_a), 1_000), (txn(2, &key_b), 1_000)],
        );
        let on_a = receipts.iter().find(|r| r.txn_id.seq == 1).unwrap();
        let on_b = receipts.iter().find(|r| r.txn_id.seq == 2).unwrap();
        assert!(on_a.status.is_committed() && on_b.status.is_committed());
        assert!(on_a.finish_time >= 410_000, "crashed shard did not stall");
        assert!(on_b.finish_time < 100_000, "healthy shard was stalled");
    }

    #[test]
    fn a_coordinator_partition_stalls_cross_shard_commits_until_it_heals() {
        let mut faults = FaultPlan::none();
        // The 2PC coordinator role is cut off from everything until 300 ms.
        faults.add_partition(vec![NodeId(0)], 0, Some(300_000));
        let mut s = SpannerLike::new(&spanner().with_faults(faults));
        s.load(&records(10));
        let receipts = drive_arrivals(&mut s, vec![(two_key_txn(1, "k000001", "k000002"), 1_000)]);
        assert_eq!(receipts.len(), 1);
        assert!(receipts[0].status.is_committed());
        assert!(
            receipts[0].finish_time >= 300_000,
            "commit decided inside the partition: {}",
            receipts[0].finish_time
        );
    }

    #[test]
    fn a_permanent_coordinator_outage_aborts_writes_as_overload() {
        let mut faults = FaultPlan::none();
        faults.add_partition(vec![NodeId(0)], 0, None);
        let mut s = SpannerLike::new(&spanner().with_faults(faults));
        s.load(&records(10));
        let receipts = drive_arrivals(&mut s, vec![(two_key_txn(1, "k000001", "k000002"), 1_000)]);
        assert_eq!(receipts.len(), 1);
        assert_eq!(
            receipts[0].status,
            dichotomy_common::TxnStatus::Aborted(AbortReason::Overload)
        );
    }

    #[test]
    fn a_coordinator_failover_stalls_the_decision_not_the_shard_pipes() {
        let mut faults = FaultPlan::none();
        // The 2PC coordinator hands over for the first 300 ms.
        faults.add_failover(0, 300_000);
        let mut s = SpannerLike::new(&spanner().with_faults(faults));
        s.load(&records(10));
        let mut engine = Engine::new();
        s.attach(&mut engine);
        let mut txn = two_key_txn(1, "k000001", "k000002");
        txn.submit_time = 1_000;
        engine.schedule_at(1_000, SysEvent::Arrival(txn));
        run_to_completion(&mut s, &mut engine);
        // The shard leaders serve through the handover: their prepare work
        // is booked at the arrival.
        let pipes = engine
            .processes()
            .iter()
            .filter(|p| p.servers().served() > 0);
        let frees: Vec<_> = pipes.map(|p| p.servers().earliest_free()).collect();
        assert!(
            !frees.is_empty() && frees.iter().all(|&t| t < 100_000),
            "{frees:?}"
        );
        // The decision waits for the new coordinator.
        let receipts = s.drain_receipts();
        assert!(receipts[0].status.is_committed());
        assert!(receipts[0].finish_time >= 300_000);
    }

    #[test]
    fn a_declarative_reconfiguration_pauses_every_shard() {
        let mut faults = FaultPlan::none();
        faults.add_reconfiguration(50_000, 100_000);
        let mut ahl = Ahl::new(
            &ahl()
                .with_periodic_reconfiguration(false)
                .with_faults(faults),
        );
        ahl.load(&records(100));
        // One transaction before the pause, and during it one on every
        // shard.
        let mut per_shard = vec![None; 4];
        for key in (3..100).map(|i| Key::from_str(&format!("k{i:06}"))) {
            per_shard[Partitioner::hash(4).shard_of(&key).0 as usize].get_or_insert(key);
        }
        let mut arrivals = vec![(two_key_txn(1, "k000001", "k000002"), 1_000)];
        for (seq, key) in (2..).zip(per_shard) {
            let op = Operation::read_modify_write(key.unwrap(), Value::filler(100));
            arrivals.push((
                Transaction::new(TxnId::new(ClientId(seq), seq), vec![op]),
                60_000,
            ));
        }
        let receipts = drive_arrivals(&mut ahl, arrivals);
        assert!(receipts.iter().all(|r| r.status.is_committed()));
        // The event pauses every shard pipe for 100 ms at t=50 ms: the
        // transactions arriving inside it start when it ends.
        let early = receipts.iter().find(|r| r.txn_id.seq == 1).unwrap();
        assert!(early.finish_time < 50_000);
        for late in receipts.iter().filter(|r| r.txn_id.seq > 1) {
            assert!(
                late.finish_time >= 150_000,
                "reconfiguration pause not felt: {}",
                late.finish_time
            );
            // The pause is inside the one consensus phase, not beside it.
            assert_eq!(late.phase_latencies.len(), 1);
        }
    }
}
