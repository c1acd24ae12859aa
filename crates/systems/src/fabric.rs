//! The Hyperledger Fabric model: an **execute-order-validate** permissioned
//! blockchain (Section 4.1, Figure 3b).
//!
//! Write path: the client authenticates to the endorsing peers, which
//! *simulate* the chaincode concurrently against their current state and sign
//! the result (endorsement). The client compares the endorsements — peers
//! with diverging state produce an **inconsistent read** abort — and sends
//! the endorsed transaction to the ordering service (an external Raft/Kafka
//! shared log with a fixed number of orderers). Orderers cut blocks, which
//! peers then validate **serially**: every endorsement signature is verified
//! and the MVCC read set re-checked (stale reads become **read-write
//! conflict** aborts), before the writes are applied to the LSM state store
//! and the block appended to the ledger. This serial validation is the
//! saturation bottleneck the paper dissects in Figure 8a, and the
//! all-endorsers policy is why more peers mean slower validation (Table 4).
//!
//! Event pipeline (`Endorsed → block cut → Ordered → Committed`): an
//! arriving write books chaincode simulation on the endorser pool and
//! schedules its `Endorsed` stage; endorsed transactions fill the orderer's
//! block cutter (with a timeout timer event per open block); a cut block is
//! appended to the shared log, booking the brokers' ingest on the
//! `fabric-orderer` process; its `Ordered` stage runs MVCC validation on the
//! serial validator process, and its `Committed` stage appends the ledger
//! and emits the receipts. Each of the three phases is therefore an engine
//! process, and backlog on the validator is real queue depth on the engine —
//! which is also what the endorsement-divergence probability reads.

use dichotomy_common::size::{StorageBreakdown, StorageFootprint};
use dichotomy_common::{AbortReason, Key, NodeId, Timestamp, Transaction, TxnReceipt, Value};
use dichotomy_consensus::sharedlog::{SharedLog, BROKERS};
use dichotomy_ledger::{Ledger, TxnValidationFlag};
use dichotomy_simnet::{CostModel, NetworkConfig, Outages, ProcessId, StageEvent};
use dichotomy_storage::{KvEngine, LsmTree, MvccStore};
use dichotomy_txn::occ;

use crate::pipeline::{
    Completion, Engine, ReceiptLog, SharedState, SysEvent, SystemKind, TimedCutter, TokenMap,
    TransactionalSystem, VersionedKvState,
};
use crate::spec::SystemSpec;

/// Orderer nodes in the ordering service (the shared log's brokers, fixed at
/// 3 in the paper's experiments).
pub const ORDERERS: usize = BROKERS;

/// Stage: a transaction's endorsement completed (token = pending-txn id).
const ST_ENDORSED: u32 = 0;
/// Stage: the orderer's block-timeout timer (token = cutter epoch).
const ST_CUT_TIMER: u32 = 1;
/// Stage: a cut block was appended to the shared log (token = block id).
const ST_ORDERED: u32 = 2;
/// Stage: the validated block commits at the peers (token = block id).
const ST_COMMITTED: u32 = 3;

/// A block between its `Ordered` and `Committed` stages.
struct BlockInFlight {
    /// (transaction, endorsement-completion time) pairs, in order.
    batch: Vec<(Transaction, Timestamp)>,
    ordered_at: Timestamp,
    /// Per-txn validation flags/outcomes, filled at the `Ordered` stage.
    flags: Vec<TxnValidationFlag>,
    outcomes: Vec<Result<(), AbortReason>>,
    commit_done: Timestamp,
}

/// Engine process handles, created at attach time.
#[derive(Clone, Copy)]
struct FabricProcs {
    /// Concurrent chaincode simulation capacity on the endorsing peers.
    endorsers: ProcessId,
    /// The ordering service's aggregate broker ingest (one FIFO server).
    orderer: ProcessId,
    /// The representative peer's serial validation/commit engine.
    validator: ProcessId,
}

/// The Fabric system model.
pub struct Fabric {
    /// Peers (the spec's `nodes`, default 5). The endorsement policy
    /// requires *all* peers to endorse (the paper's full-replication
    /// setting), so this also sets the number of signatures verified per
    /// transaction at validation.
    peers: usize,
    /// Block cutting timeout at the orderer (µs; the spec's
    /// `block_interval_us`, default 250 ms).
    block_timeout_us: u64,
    /// Probability that endorsements diverge because peers' committed states
    /// lag each other, per additional peer beyond the first, per pending
    /// block of backlog (drives the inconsistent-read aborts of Figure 10b;
    /// default 0.002).
    endorsement_divergence: f64,
    network: NetworkConfig,
    costs: CostModel,
    /// When the lead orderer (the primary, `NodeId(0)`) cannot order: set on
    /// `fabric-orderer`, so cut blocks queue through an outage and the
    /// recovery burst emerges from that backlog.
    orderer_outages: Outages,
    procs: Option<FabricProcs>,
    /// The ordering service's append-latency model.
    orderer: SharedLog,
    cutter: TimedCutter,
    /// Writes awaiting their `Endorsed` stage, by token.
    endorsing: TokenMap<Transaction>,
    /// Blocks between `Ordered` and `Committed`, by block id.
    in_flight: TokenMap<BlockInFlight>,
    /// Versioned world state (MVCC validation runs against this).
    state: MvccStore,
    /// State database (LevelDB/CouchDB role).
    state_db: LsmTree,
    ledger: Ledger,
    receipts: ReceiptLog,
    rng: dichotomy_common::rng::StdRng,
}

impl Fabric {
    /// Build the Fabric deployment `spec` describes.
    pub fn new(spec: &SystemSpec) -> Self {
        let network = NetworkConfig::lan_1gbps();
        let block_timeout_us = spec.block_interval_us.unwrap_or(250_000);
        Fabric {
            peers: spec.nodes.unwrap_or(5),
            block_timeout_us,
            endorsement_divergence: spec.endorsement_divergence.unwrap_or(0.002),
            costs: spec.costs.clone().unwrap_or_default(),
            orderer_outages: spec.primary_outages(),
            procs: None,
            orderer: SharedLog::new(network.clone()),
            network,
            cutter: TimedCutter::new(
                spec.block_txns.unwrap_or(100),
                block_timeout_us,
                ST_CUT_TIMER,
            ),
            endorsing: TokenMap::new(),
            in_flight: TokenMap::new(),
            state: MvccStore::new(),
            state_db: LsmTree::new(),
            ledger: Ledger::new(NodeId(0)),
            receipts: ReceiptLog::new(),
            rng: dichotomy_common::rng::seeded(
                spec.seed.unwrap_or(dichotomy_common::rng::DEFAULT_SEED),
            ),
        }
    }

    fn procs(&self) -> FabricProcs {
        self.procs.expect("system not attached to an engine")
    }

    /// The client arrival a receipt should carry: the driver stamps it into
    /// `submit_time`; transactions injected without one fall back to the
    /// endorsement-completion time the cutter tracked.
    fn client_arrival(txn: &Transaction, endorse_t: Timestamp) -> Timestamp {
        if txn.submit_time > 0 {
            txn.submit_time
        } else {
            endorse_t
        }
    }

    /// Endorsement phase: authentication, concurrent simulation on the
    /// peers, endorsement signatures and the client-side comparison of the
    /// endorsements. Returns the time the endorsed transaction is ready for
    /// ordering, or an abort.
    fn endorse(
        &mut self,
        txn: &Transaction,
        arrival: Timestamp,
        engine: &mut Engine,
    ) -> Result<Timestamp, AbortReason> {
        use dichotomy_common::rng::Rng;
        let c = &self.costs;
        let simulate = c.client_auth()
            + c.chaincode_exec_us(txn.op_count(), txn.payload_bytes())
            + c.sign_us();
        let (_, sim_done) = engine.service(self.procs().endorsers, arrival, simulate);
        // One network round trip to the endorsers, then the client compares.
        let rtt = 2 * (self.network.base_latency_us + self.network.jitter_us / 2);
        let ready = sim_done + rtt;
        // The more peers must endorse and the more backlog the validator has,
        // the likelier two endorsers ran against different committed states.
        let backlog_blocks =
            (engine.queue_delay(self.procs().validator, ready) / self.block_timeout_us.max(1)) + 1;
        let divergence = self.endorsement_divergence
            * (self.peers.saturating_sub(1)) as f64
            * backlog_blocks as f64
            * txn.write_set().len() as f64;
        if self.rng.gen_bool(divergence.min(0.9)) {
            return Err(AbortReason::InconsistentRead);
        }
        Ok(ready)
    }

    /// A block was cut at the orderer: append it to the shared log and
    /// schedule its `Ordered` stage at the append time.
    fn launch_block(
        &mut self,
        batch: Vec<(Transaction, Timestamp)>,
        cut_time: Timestamp,
        engine: &mut Engine,
    ) {
        if batch.is_empty() {
            return;
        }
        // The ordering service's leader may be crashed, failing over, or cut
        // off from the peers: the append waits out the orderer's outages.
        let batch_bytes: usize = batch.iter().map(|(t, _)| t.wire_bytes()).sum();
        let appended = self
            .orderer
            .append(engine, self.procs().orderer, cut_time, batch_bytes);
        let Some(ordered_at) = appended else {
            // Ordering service down for good: the whole batch times out.
            for (txn, endorse_done) in &batch {
                let arrival = Fabric::client_arrival(txn, *endorse_done);
                let finish = cut_time + 2 * self.network.base_latency_us;
                self.receipts.push_overload(txn.id(), arrival, finish);
            }
            return;
        };
        let id = self.in_flight.insert(BlockInFlight {
            batch,
            ordered_at,
            flags: Vec::new(),
            outcomes: Vec::new(),
            commit_done: 0,
        });
        engine.schedule_at(ordered_at, SysEvent::stage(ST_ORDERED, id));
    }

    /// An endorsed transaction reaches the orderer: feed the cutter, cutting
    /// on size and arming the timeout timer for newly opened blocks.
    fn order(&mut self, txn: Transaction, endorse_done: Timestamp, engine: &mut Engine) {
        if let Some((batch, cut_time)) = self.cutter.add(txn, endorse_done, engine) {
            self.launch_block(batch, cut_time, engine);
        }
    }

    /// Validation of one ordered block at the peers (serial): MVCC read-set
    /// checks, signature verification, state writes.
    fn validate_block(&mut self, id: u64, engine: &mut Engine) {
        let mut block = self.in_flight.remove(id);
        let ordered_at = block.ordered_at;
        // Simulate all transactions against the pre-block state (they were
        // endorsed before ordering), then validate in order.
        let sims: Vec<_> = block
            .batch
            .iter()
            .map(|(txn, _)| occ::simulate(txn, &self.state))
            .collect();
        let mut validation_cost = self.costs.block_header_check();
        let mut flags = Vec::with_capacity(block.batch.len());
        let mut outcomes = Vec::with_capacity(block.batch.len());
        for ((txn, _), sim) in block.batch.iter().zip(&sims) {
            // Verify the endorsement signatures of every peer (42 % of the
            // validation time when saturated, per Section 5.2.1).
            validation_cost += self.costs.verify_signatures_us(self.peers.max(1));
            // MVCC read-set check + state write.
            validation_cost += 20 * txn.op_count() as u64;
            match occ::validate_and_commit(sim, &mut self.state) {
                Ok(_) => {
                    for (key, value) in &sim.write_set {
                        validation_cost += self.costs.storage_put_us(value.len());
                        self.state_db.put(key.clone(), value.clone());
                    }
                    flags.push(TxnValidationFlag::Valid);
                    outcomes.push(Ok(()));
                }
                Err(reason) => {
                    flags.push(TxnValidationFlag::Invalid);
                    outcomes.push(Err(reason));
                }
            }
        }
        let (_, commit_done) = engine.service(self.procs().validator, ordered_at, validation_cost);
        block.flags = flags;
        block.outcomes = outcomes;
        block.commit_done = commit_done;
        self.in_flight.restore(id, block);
        engine.schedule_at(commit_done, SysEvent::stage(ST_COMMITTED, id));
    }

    /// Commit of a validated block: ledger append (valid and invalid
    /// transactions alike) and receipt emission.
    fn commit_block(&mut self, id: u64) {
        let block = self.in_flight.remove(id);
        // Keep (id, endorse-done) for the receipts before the transactions
        // move into the ledger.
        let receipt_meta: Vec<(dichotomy_common::TxnId, Timestamp, Timestamp)> = block
            .batch
            .iter()
            .map(|(t, endorse_done)| {
                (
                    t.id(),
                    Fabric::client_arrival(t, *endorse_done),
                    *endorse_done,
                )
            })
            .collect();
        let txns: Vec<Transaction> = block.batch.into_iter().map(|(t, _)| t).collect();
        self.ledger
            .append_txns(txns, block.flags, NodeId(0), block.commit_done, None)
            .expect("one flag per transaction");

        for ((txn_id, arrival, endorse_done), outcome) in
            receipt_meta.into_iter().zip(block.outcomes)
        {
            let order_latency = block.ordered_at.saturating_sub(endorse_done);
            let mut receipt = match outcome {
                Ok(()) => TxnReceipt::committed(txn_id, arrival, block.commit_done),
                Err(reason) => TxnReceipt::aborted(txn_id, reason, arrival, block.commit_done),
            };
            receipt.phase_latencies = vec![
                ("execute", endorse_done.saturating_sub(arrival)),
                ("order", order_latency),
                (
                    "validate",
                    block.commit_done.saturating_sub(block.ordered_at),
                ),
            ];
            self.receipts.push_back(receipt);
        }
    }

    fn serve_read(&mut self, txn: &Transaction, arrival: Timestamp, engine: &mut Engine) {
        let c = &self.costs;
        // Figure 8b: authentication dominates, then simulation + endorsement.
        let mut cost = c.client_auth() + c.chaincode_exec_us(txn.op_count(), 128) + c.sign_us();
        let mut reads = Vec::new();
        for op in txn.ops().iter().filter(|o| o.reads()) {
            let value = self.state_db.get(&op.key);
            cost += c.storage_get_us(value.as_ref().map_or(64, Value::len)) / 4;
            reads.push((op.key.clone(), value));
        }
        let (_, finish) = engine.service(self.procs().endorsers, arrival, cost);
        let mut receipt = TxnReceipt::committed(txn.id(), arrival, finish);
        receipt.reads = reads;
        receipt.phase_latencies = vec![
            ("authentication", c.client_auth()),
            ("simulation", c.chaincode_exec_us(txn.op_count(), 128)),
            ("endorsement", c.sign_us()),
        ];
        self.receipts.push_back(receipt);
    }
}

impl TransactionalSystem for Fabric {
    fn kind(&self) -> SystemKind {
        SystemKind::Fabric
    }

    fn load(&mut self, records: &[(Key, Value)]) {
        VersionedKvState::load(&mut self.state, &mut self.state_db, records);
    }

    fn share_state(&mut self) -> Option<SharedState> {
        let state = VersionedKvState::capture(&mut self.state, &self.state_db);
        Some(SharedState::new(state))
    }

    fn adopt_state(&mut self, state: &SharedState) -> bool {
        VersionedKvState::adopt(state, &mut self.state, &mut self.state_db)
    }

    fn attach(&mut self, engine: &mut Engine) {
        let endorsers = engine.add_process("fabric-endorsers", self.peers.max(1) * 4);
        let orderer = engine.add_process("fabric-orderer", 1);
        engine.set_outages(orderer, self.orderer_outages.clone());
        self.procs = Some(FabricProcs {
            endorsers,
            orderer,
            validator: engine.add_process("fabric-validator", 1),
        });
    }

    fn on_arrival(&mut self, txn: Transaction, engine: &mut Engine) {
        let arrival = engine.now();
        if txn.is_read_only() {
            self.serve_read(&txn, arrival, engine);
            return;
        }
        match self.endorse(&txn, arrival, engine) {
            Err(reason) => {
                let finish = arrival + self.costs.client_auth() + 2 * self.network.base_latency_us;
                self.receipts
                    .push_back(TxnReceipt::aborted(txn.id(), reason, arrival, finish));
            }
            Ok(endorse_done) => {
                let token = self.endorsing.insert(txn);
                engine.schedule_at(endorse_done, SysEvent::stage(ST_ENDORSED, token));
            }
        }
    }

    fn on_stage(&mut self, event: StageEvent, engine: &mut Engine) {
        match event.stage {
            ST_ENDORSED => {
                let txn = self.endorsing.remove(event.token);
                let endorse_done = engine.now();
                self.order(txn, endorse_done, engine);
            }
            ST_CUT_TIMER => {
                if let Some((batch, cut_time)) = self.cutter.on_timer(event.token, engine.now()) {
                    self.launch_block(batch, cut_time, engine);
                }
            }
            ST_ORDERED => self.validate_block(event.token, engine),
            ST_COMMITTED => self.commit_block(event.token),
            _ => unreachable!("unknown Fabric stage {}", event.stage),
        }
    }

    fn on_drain(&mut self, engine: &mut Engine) {
        // Defensive: the per-block timeout timers normally leave nothing to
        // flush by the time the queue runs dry.
        if let Some((batch, cut_time)) = self.cutter.flush(engine.now()) {
            self.launch_block(batch, cut_time, engine);
        }
    }

    fn drain_completions(&mut self, buf: &mut Vec<Completion>) {
        self.receipts.swap_completions(buf)
    }

    fn drain_receipts_into(&mut self, buf: &mut Vec<TxnReceipt>) {
        self.receipts.swap_receipts(buf)
    }

    fn footprint(&self) -> StorageBreakdown {
        // Fabric ≥ v1 has no authenticated state index: state DB + ledger.
        self.state_db.footprint().merged(&self.ledger.footprint())
    }

    fn node_count(&self) -> usize {
        self.peers + ORDERERS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{drive_arrivals, FAILOVER_US};
    use dichotomy_common::{ClientId, Operation, TxnId};
    use dichotomy_simnet::FaultPlan;

    /// Blocks cut at `max_block_txns`, and no endorsement divergence: these
    /// tests exercise the pipeline, not the inconsistent-read aborts.
    fn cut_at(max_block_txns: usize) -> SystemSpec {
        let mut spec = SystemSpec::new(SystemKind::Fabric).with_endorsement_divergence(0.0);
        spec.block_txns = Some(max_block_txns);
        spec
    }

    fn rmw(seq: u64, key: &str, size: usize, arrival: Timestamp) -> Transaction {
        let mut t = Transaction::new(
            TxnId::new(ClientId(1), seq),
            vec![Operation::read_modify_write(
                Key::from_str(key),
                Value::filler(size),
            )],
        );
        t.submit_time = arrival;
        t
    }

    fn seed_keys(f: &mut Fabric, n: usize) {
        let records: Vec<(Key, Value)> = (0..n)
            .map(|i| (Key::from_str(&format!("k{i}")), Value::filler(100)))
            .collect();
        f.load(&records);
    }

    #[test]
    fn non_conflicting_writes_commit_through_all_three_phases() {
        let mut f = Fabric::new(&cut_at(10));
        seed_keys(&mut f, 50);
        let receipts = drive_arrivals(
            &mut f,
            (0..20u64).map(|seq| {
                let arrival = seq * 2_000;
                (rmw(seq, &format!("k{seq}"), 100, arrival), arrival)
            }),
        );
        assert_eq!(receipts.len(), 20);
        assert!(receipts.iter().all(|r| r.status.is_committed()));
        let phases: Vec<&str> = receipts[0]
            .phase_latencies
            .iter()
            .map(|(n, _)| *n)
            .collect();
        assert_eq!(phases, vec!["execute", "order", "validate"]);
        assert_eq!(f.ledger.txn_count(), 20);
        assert!(f.ledger.verify_chain().is_none());
    }

    #[test]
    fn conflicting_writes_in_one_block_produce_read_write_aborts() {
        let mut f = Fabric::new(&cut_at(50));
        seed_keys(&mut f, 5);
        // Everyone hammers the same key: only the first in each block commits.
        let receipts = drive_arrivals(
            &mut f,
            (0..30u64).map(|seq| {
                let arrival = seq * 500;
                (rmw(seq, "k0", 100, arrival), arrival)
            }),
        );
        let committed = receipts.iter().filter(|r| r.status.is_committed()).count();
        let aborted = receipts
            .iter()
            .filter(|r| {
                r.status == dichotomy_common::TxnStatus::Aborted(AbortReason::ReadWriteConflict)
            })
            .count();
        assert!(committed >= 1);
        assert!(aborted > 20, "aborted {aborted}");
        // Every transaction either committed or hit a read-write conflict.
        assert_eq!(committed + aborted, 30);
        // Invalid transactions are still recorded on the ledger.
        assert_eq!(f.ledger.txn_count(), 30);
        assert_eq!(f.ledger.valid_txn_count() as usize, committed);
    }

    #[test]
    fn query_path_is_dominated_by_authentication() {
        let mut f = Fabric::new(&SystemSpec::new(SystemKind::Fabric));
        seed_keys(&mut f, 10);
        let mut t = Transaction::new(
            TxnId::new(ClientId(2), 1),
            vec![Operation::read(Key::from_str("k1"))],
        );
        t.submit_time = 100;
        let receipts = drive_arrivals(&mut f, vec![(t, 100)]);
        let r = &receipts[0];
        let auth = r
            .phase_latencies
            .iter()
            .find(|(n, _)| *n == "authentication")
            .unwrap()
            .1;
        let total: u64 = r.phase_latencies.iter().map(|(_, v)| v).sum();
        assert!(auth as f64 / total as f64 > 0.7, "auth share too small");
        // Read latency in the single-digit millisecond range (Figure 5b).
        assert!(r.latency_us() > 3_000 && r.latency_us() < 30_000);
    }

    #[test]
    fn more_peers_mean_slower_validation() {
        let throughput = |peers: usize| {
            let mut f = Fabric::new(&cut_at(50).with_nodes(peers));
            seed_keys(&mut f, 500);
            let n = 400u64;
            let receipts = drive_arrivals(
                &mut f,
                (0..n).map(|seq| {
                    let arrival = seq * 100;
                    (rmw(seq, &format!("k{}", seq % 500), 1000, arrival), arrival)
                }),
            );
            let last = receipts.iter().map(|r| r.finish_time).max().unwrap();
            n as f64 / (last as f64 / 1e6)
        };
        let small = throughput(3);
        let large = throughput(19);
        assert!(
            small > large * 1.5,
            "3 peers {small:.0} tps vs 19 peers {large:.0} tps"
        );
    }

    #[test]
    fn saturation_inflates_the_validation_phase() {
        let mut f = Fabric::new(&cut_at(50));
        seed_keys(&mut f, 2000);
        // Offer far more load than the serial validator can absorb.
        let n = 1500u64;
        let mut receipts = drive_arrivals(
            &mut f,
            (0..n).map(|seq| {
                let arrival = seq * 50;
                (
                    rmw(seq, &format!("k{}", seq % 2000), 1000, arrival),
                    arrival,
                )
            }),
        );
        receipts.sort_by_key(|r| r.submit_time);
        let validate_of = |r: &TxnReceipt| {
            r.phase_latencies
                .iter()
                .find(|(n, _)| *n == "validate")
                .unwrap()
                .1
        };
        let early: u64 = receipts[..50].iter().map(validate_of).sum::<u64>() / 50;
        let late: u64 = receipts[receipts.len() - 50..]
            .iter()
            .map(validate_of)
            .sum::<u64>()
            / 50;
        assert!(late > early * 3, "early {early} late {late}");
    }

    #[test]
    fn the_ordering_service_is_an_engine_process_serving_every_block() {
        use crate::pipeline::run_to_completion;
        let mut f = Fabric::new(&cut_at(50));
        seed_keys(&mut f, 2000);
        let mut engine = Engine::new();
        f.attach(&mut engine);
        // Saturating load: far more than the serial validator can absorb.
        for seq in 0..1500u64 {
            let arrival = seq * 50;
            let txn = rmw(seq, &format!("k{}", seq % 2000), 1000, arrival);
            engine.schedule_at(arrival, SysEvent::Arrival(txn));
        }
        run_to_completion(&mut f, &mut engine);
        assert_eq!(f.drain_receipts().len(), 1500);
        let orderer = engine
            .processes()
            .iter()
            .find(|p| p.name() == "fabric-orderer")
            .expect("the ordering service is registered on the engine");
        // One append per block, each on the brokers' single ingest server.
        assert_eq!(orderer.servers().capacity(), 1);
        assert_eq!(orderer.servers().served(), f.ledger.tip_height());
        assert!(orderer.servers().busy_us() > 0);
    }

    #[test]
    fn an_orderer_crash_stalls_ordering_until_heal_plus_failover() {
        use dichotomy_simnet::fault::NodeFault;
        let run = |faults: FaultPlan| {
            let mut f = Fabric::new(&cut_at(5).with_faults(faults));
            seed_keys(&mut f, 50);
            drive_arrivals(
                &mut f,
                (0..20u64).map(|seq| {
                    let arrival = seq * 2_000;
                    (rmw(seq, &format!("k{seq}"), 100, arrival), arrival)
                }),
            )
        };
        let healthy = run(FaultPlan::none());
        let mut faults = FaultPlan::none();
        // Crash the lead orderer across the middle of the run.
        faults.add(NodeFault::crash_until(NodeId(0), 10_000, 600_000));
        let crashed = run(faults);
        assert_eq!(crashed.len(), healthy.len());
        assert!(crashed.iter().all(|r| r.status.is_committed()));
        // Blocks cut inside the outage wait for heal + failover; nothing
        // orders inside the window.
        let healed = 600_000 + FAILOVER_US;
        for r in &crashed {
            assert!(
                r.finish_time < 10_000 || r.finish_time >= healed,
                "receipt finished inside the crash window: {}",
                r.finish_time
            );
        }
        let stalled = crashed.iter().filter(|r| r.finish_time >= healed).count();
        assert!(stalled >= 10, "only {stalled} receipts rode out the crash");
        // The healthy run is strictly faster overall.
        let max = |rs: &[TxnReceipt]| rs.iter().map(|r| r.finish_time).max().unwrap();
        assert!(max(&healthy) < max(&crashed));
    }

    #[test]
    fn a_permanent_orderer_outage_aborts_queued_batches_as_overload() {
        let mut faults = FaultPlan::none();
        faults.add(dichotomy_simnet::fault::NodeFault::crash(NodeId(0), 10_000));
        let mut f = Fabric::new(&cut_at(5).with_faults(faults));
        seed_keys(&mut f, 50);
        let receipts = drive_arrivals(
            &mut f,
            (0..20u64).map(|seq| {
                let arrival = seq * 2_000;
                (rmw(seq, &format!("k{seq}"), 100, arrival), arrival)
            }),
        );
        // Every transaction still gets a receipt (conservation), and
        // everything cut after the outage aborts with Overload.
        assert_eq!(receipts.len(), 20);
        let aborted = receipts
            .iter()
            .filter(|r| r.status == dichotomy_common::TxnStatus::Aborted(AbortReason::Overload))
            .count();
        assert!(aborted >= 10, "only {aborted} overload aborts");
    }
}
