//! The Quorum model: an **order-execute** permissioned blockchain
//! (Section 4.1, Figure 3a).
//!
//! Write path: the proposer pre-executes pending transactions serially
//! against the tip of the ledger (EVM execution + Merkle Patricia Trie
//! update), batches them into a block, runs consensus (Raft or IBFT), and
//! then *every* node re-executes the block serially to validate and commit —
//! the "double execution" the paper blames for Quorum's sensitivity to record
//! size (Section 5.3.3). Read path: any node answers locally (EVM call +
//! state read), with no consensus and no client-authentication overhead
//! beyond signature checking.
//!
//! Event pipeline: arrivals fill the block cutter (a timer event cuts a
//! partially filled block at the minting interval), and each cut block walks
//! `Propose → Consensus → Commit` stage events across the proposer,
//! consensus and committer processes — so block backlog queues up on the
//! engine instead of being folded into a synchronous submit call.

use dichotomy_common::size::{StorageBreakdown, StorageFootprint};
use dichotomy_common::{Key, NodeId, Timestamp, Transaction, TxnReceipt, Value};
use dichotomy_consensus::{ProtocolKind, ReplicationProfile};
use dichotomy_ledger::{Ledger, TxnValidationFlag};
use dichotomy_merkle::MerklePatriciaTrie;
use dichotomy_simnet::{CostModel, NetworkConfig, Outages, ProcessId, StageEvent};
use dichotomy_storage::{KvEngine, LsmTree};

use crate::pipeline::{
    Completion, Engine, ReceiptLog, SharedState, SysEvent, SystemKind, TimedCutter, TokenMap,
    TransactionalSystem,
};
use crate::spec::SystemSpec;

/// Extra state-commit amplification: geth updates the account trie, the
/// per-contract storage tries and the receipt trie per transaction, so the
/// MPT work measured for a single key update is paid roughly twice.
pub const COMMIT_AMPLIFICATION: f64 = 2.0;

/// Stage: the block-interval timer for the open block (token = epoch).
const ST_CUT_TIMER: u32 = 0;
/// Stage: the proposer starts pre-executing a cut block (token = block id).
const ST_PROPOSE: u32 = 1;
/// Stage: the block enters consensus (token = block id).
const ST_CONSENSUS: u32 = 2;
/// Stage: validators re-execute and commit the block (token = block id).
const ST_COMMIT: u32 = 3;

/// A block in flight between its `Propose` and `Commit` stages.
struct BlockInFlight {
    batch: Vec<(Transaction, Timestamp)>,
    cut_time: Timestamp,
    proposal_done: Timestamp,
    consensus_done: Timestamp,
}

/// Engine process handles, created at attach time.
#[derive(Clone, Copy)]
struct QuorumProcs {
    /// The proposer's serial pre-execution engine.
    proposer: ProcessId,
    /// The consensus leader's dissemination pipe.
    consensus: ProcessId,
    /// A representative validator's serial commit engine.
    committer: ProcessId,
}

/// What [`Quorum::load`](TransactionalSystem::load) builds: forks of both
/// stores over the preloaded records.
pub(crate) struct QuorumState {
    pub(crate) trie: MerklePatriciaTrie,
    pub(crate) db: LsmTree,
}

/// The Quorum system model.
pub struct Quorum {
    /// Validators, all in consensus (the spec's `nodes`, default 5).
    nodes: usize,
    network: NetworkConfig,
    costs: CostModel,
    /// When the block proposer (the primary, `NodeId(0)`) cannot propose:
    /// set on `quorum-proposer`, so cut blocks queue through an outage and
    /// the recovery burst emerges from that backlog.
    proposer_outages: Outages,
    /// The consensus profile: Raft (CFT, the default) or IBFT (BFT) —
    /// Section 5.2.3.
    profile: ReplicationProfile,
    cutter: TimedCutter,
    procs: Option<QuorumProcs>,
    /// Blocks between cut and commit, by block id (= cut order).
    in_flight: TokenMap<BlockInFlight>,
    /// Latest scheduled `Commit` stage time: commits are clamped to be
    /// non-decreasing in block order, so a small block whose consensus
    /// round finishes early can never overtake an earlier, larger block
    /// (the chain applies blocks in consensus order).
    commit_sched_at: Timestamp,
    /// Authenticated world state.
    state_trie: MerklePatriciaTrie,
    /// State storage engine (LevelDB role).
    state_db: LsmTree,
    /// The chain.
    ledger: Ledger,
    receipts: ReceiptLog,
}

impl Quorum {
    /// Build the Quorum deployment `spec` describes: blocks of at most 200
    /// transactions, minted every 250 ms unless the spec says otherwise.
    pub fn new(spec: &SystemSpec) -> Self {
        let nodes = spec.nodes.unwrap_or(5);
        let network = NetworkConfig::lan_1gbps();
        let costs = spec.costs.clone().unwrap_or_default();
        Quorum {
            profile: ReplicationProfile::new(
                spec.consensus.unwrap_or(ProtocolKind::Raft),
                nodes,
                network.clone(),
                costs.clone(),
            ),
            nodes,
            network,
            costs,
            proposer_outages: spec.primary_outages(),
            cutter: TimedCutter::new(
                spec.block_txns.unwrap_or(200),
                spec.block_interval_us.unwrap_or(250_000),
                ST_CUT_TIMER,
            ),
            procs: None,
            in_flight: TokenMap::new(),
            commit_sched_at: 0,
            state_trie: MerklePatriciaTrie::new(),
            state_db: LsmTree::new(),
            ledger: Ledger::new(NodeId(0)),
            receipts: ReceiptLog::new(),
        }
    }

    fn procs(&self) -> QuorumProcs {
        self.procs.expect("system not attached to an engine")
    }

    /// Serial CPU cost of executing one transaction and committing its writes
    /// into the EVM state (used for both pre-execution and validation).
    fn execution_cost_us(&mut self, txn: &Transaction, apply: bool) -> u64 {
        let c = &self.costs;
        let mut cost = c.evm_exec_us(txn.payload_bytes());
        for op in txn.ops() {
            if op.reads() {
                cost += c.storage_get_us(op.value.as_ref().map_or(64, Value::len));
            }
            if op.writes() {
                let value = op.value.clone().unwrap_or_else(|| Value::filler(1));
                let stats = if apply {
                    self.state_trie.insert(&op.key, &value)
                } else {
                    // Cost-only estimate for the pre-execution pass: same path
                    // length as an applied update would have.
                    dichotomy_merkle::UpdateStats {
                        nodes_touched: 9,
                        leaf_bytes: value.len(),
                    }
                };
                if apply {
                    self.state_db.put(op.key.clone(), value);
                }
                cost += (c.adr_update_us(stats.nodes_touched, stats.leaf_bytes) as f64
                    * COMMIT_AMPLIFICATION) as u64;
                cost += c.storage_put_us(stats.leaf_bytes);
            }
        }
        cost
    }

    /// A block was cut: register it and schedule its `Propose` stage.
    fn launch_block(
        &mut self,
        batch: Vec<(Transaction, Timestamp)>,
        cut_time: Timestamp,
        engine: &mut Engine,
    ) {
        if batch.is_empty() {
            return;
        }
        let id = self.in_flight.insert(BlockInFlight {
            batch,
            cut_time,
            proposal_done: 0,
            consensus_done: 0,
        });
        engine.schedule_at(cut_time, SysEvent::stage(ST_PROPOSE, id));
    }

    fn serve_read(&mut self, txn: &Transaction, arrival: Timestamp) {
        let c = &self.costs;
        let mut cost = c.verify_signatures_us(1) + c.evm_exec_us(128);
        let mut reads = Vec::new();
        for op in txn.ops().iter().filter(|o| o.reads()) {
            let value = self.state_db.get(&op.key);
            cost += c.storage_get_us(value.as_ref().map_or(64, Value::len));
            reads.push((op.key.clone(), value));
        }
        let finish = arrival + cost;
        let mut receipt = TxnReceipt::committed(txn.id(), arrival, finish);
        receipt.reads = reads;
        receipt.phase_latencies = vec![("query", cost)];
        self.receipts.push_back(receipt);
    }
}

impl TransactionalSystem for Quorum {
    fn kind(&self) -> SystemKind {
        SystemKind::Quorum
    }

    fn load(&mut self, records: &[(Key, Value)]) {
        for (k, v) in records {
            self.state_trie.insert(k, v);
        }
        self.state_db.load(records);
    }

    fn share_state(&mut self) -> Option<SharedState> {
        self.state_trie.freeze();
        Some(SharedState::new(QuorumState {
            trie: self.state_trie.clone(),
            db: self.state_db.clone(),
        }))
    }

    fn adopt_state(&mut self, state: &SharedState) -> bool {
        let Some(state) = state.downcast_ref::<QuorumState>() else {
            return false;
        };
        self.state_trie = state.trie.clone();
        self.state_db = state.db.clone();
        true
    }

    fn attach(&mut self, engine: &mut Engine) {
        let proposer = engine.add_process("quorum-proposer", 1);
        engine.set_outages(proposer, self.proposer_outages.clone());
        self.procs = Some(QuorumProcs {
            proposer,
            consensus: engine.add_process("quorum-consensus", 1),
            committer: engine.add_process("quorum-committer", 1),
        });
    }

    fn on_arrival(&mut self, txn: Transaction, engine: &mut Engine) {
        let arrival = engine.now();
        if txn.is_read_only() {
            self.serve_read(&txn, arrival);
            return;
        }
        if let Some((batch, cut_time)) = self.cutter.add(txn, arrival, engine) {
            self.launch_block(batch, cut_time, engine);
        }
    }

    fn on_stage(&mut self, event: StageEvent, engine: &mut Engine) {
        match event.stage {
            ST_CUT_TIMER => {
                if let Some((batch, cut_time)) = self.cutter.on_timer(event.token, engine.now()) {
                    self.launch_block(batch, cut_time, engine);
                }
            }
            ST_PROPOSE => {
                let id = event.token;
                let mut block = self.in_flight.remove(id);
                // Phase 1: proposer pre-executes serially (order-execute).
                let mut proposal_cost = 0u64;
                for (txn, _) in &block.batch {
                    proposal_cost += self.costs.verify_signatures_us(1);
                    proposal_cost += self.execution_cost_us(txn, false);
                }
                // The proposer may be crashed, failing over, or partitioned
                // away: the proposal waits out its outages.
                let proposed =
                    engine.try_service(self.procs().proposer, block.cut_time, proposal_cost);
                let Some((_, proposal_done)) = proposed else {
                    // No leader ever again: the batch times out at the clients.
                    for (txn, arrival) in &block.batch {
                        let finish = block.cut_time + 2 * self.network.base_latency_us;
                        self.receipts.push_overload(txn.id(), *arrival, finish);
                    }
                    return;
                };
                block.proposal_done = proposal_done;
                self.in_flight.restore(id, block);
                engine.schedule_at(proposal_done, SysEvent::stage(ST_CONSENSUS, id));
            }
            ST_CONSENSUS => {
                let id = event.token;
                let block = self.in_flight.get_mut(id);
                // Phase 2: consensus over the serialized block.
                let block_bytes: usize = block
                    .batch
                    .iter()
                    .map(|(t, _)| t.wire_bytes())
                    .sum::<usize>()
                    + 160;
                let occupancy = self.profile.leader_occupancy_us(block_bytes);
                let now = engine.now();
                let (_, dissemination_done) =
                    engine.service(self.procs().consensus, now, occupancy);
                let consensus_done =
                    dissemination_done + self.profile.commit_latency_us(block_bytes);
                self.in_flight.get_mut(id).consensus_done = consensus_done;
                // Blocks apply in consensus order: a later block whose
                // (size-dependent) commit latency ends earlier must not
                // overtake an earlier block, so the Commit stage time is
                // clamped to be non-decreasing in block order (ties break by
                // insertion order, which follows block order).
                let commit_at = consensus_done.max(self.commit_sched_at);
                self.commit_sched_at = commit_at;
                engine.schedule_at(commit_at, SysEvent::stage(ST_COMMIT, id));
            }
            ST_COMMIT => {
                let block = self.in_flight.remove(event.token);
                // Phase 3: every validator re-executes serially and commits.
                let mut commit_cost = self.costs.block_header_check();
                for (txn, _) in &block.batch {
                    commit_cost += self.execution_cost_us(txn, true);
                }
                let (_, commit_done) =
                    engine.service(self.procs().committer, block.consensus_done, commit_cost);

                // Ledger append with the new state root; keep (id, arrival)
                // for the receipts before the transactions move into it.
                let ids: Vec<(dichotomy_common::TxnId, Timestamp)> =
                    block.batch.iter().map(|(t, a)| (t.id(), *a)).collect();
                let txns: Vec<Transaction> = block.batch.into_iter().map(|(t, _)| t).collect();
                let flags = vec![TxnValidationFlag::Valid; txns.len()];
                let root = self.state_trie.root_hash();
                self.ledger
                    .append_txns(txns, flags, NodeId(0), commit_done, Some(root))
                    .expect("one flag per transaction");

                // Receipts: block-granular completion, per-txn phase breakdown.
                for (txn_id, arrival) in ids {
                    let mut receipt = TxnReceipt::committed(txn_id, arrival, commit_done);
                    receipt.phase_latencies = vec![
                        ("proposal", block.proposal_done.saturating_sub(arrival)),
                        (
                            "consensus",
                            block.consensus_done.saturating_sub(block.proposal_done),
                        ),
                        ("commit", commit_done.saturating_sub(block.consensus_done)),
                    ];
                    receipt.commit_version = Some(self.ledger.tip_height());
                    self.receipts.push_back(receipt);
                }
            }
            _ => unreachable!("unknown Quorum stage {}", event.stage),
        }
    }

    fn on_drain(&mut self, engine: &mut Engine) {
        // Defensive: with minting timers armed for every open block, the
        // cutter is normally empty by the time the queue runs dry.
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
        self.state_trie
            .footprint()
            .merged(&self.state_db.footprint())
            .merged(&self.ledger.footprint())
    }

    fn node_count(&self) -> usize {
        self.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{drive_arrivals, FAILOVER_US};
    use dichotomy_common::{ClientId, Operation, TxnId};
    use dichotomy_simnet::FaultPlan;

    fn quorum() -> SystemSpec {
        SystemSpec::new(SystemKind::Quorum)
    }

    /// Blocks cut at `max_block_txns` (or the default minting timer).
    fn cut_at(max_block_txns: usize) -> SystemSpec {
        let mut spec = quorum();
        spec.block_txns = Some(max_block_txns);
        spec
    }

    fn write_txn(seq: u64, key: &str, size: usize) -> Transaction {
        Transaction::new(
            TxnId::new(ClientId(1), seq),
            vec![Operation::write(Key::from_str(key), Value::filler(size))],
        )
    }

    fn read_txn(seq: u64, key: &str) -> Transaction {
        Transaction::new(
            TxnId::new(ClientId(1), seq),
            vec![Operation::read(Key::from_str(key))],
        )
    }

    #[test]
    fn writes_commit_in_blocks_and_land_in_the_ledger() {
        let mut q = Quorum::new(&cut_at(5));
        let receipts = drive_arrivals(
            &mut q,
            (0..10).map(|seq| (write_txn(seq, &format!("k{seq}"), 100), seq * 1000)),
        );
        assert_eq!(receipts.len(), 10);
        assert!(receipts.iter().all(|r| r.status.is_committed()));
        assert_eq!(q.ledger.txn_count(), 10);
        assert!(q.ledger.verify_chain().is_none());
        // Phases present on every write receipt.
        let phases: Vec<&str> = receipts[0]
            .phase_latencies
            .iter()
            .map(|(n, _)| *n)
            .collect();
        assert_eq!(phases, vec!["proposal", "consensus", "commit"]);
    }

    #[test]
    fn a_partial_block_is_cut_by_the_minting_timer() {
        let mut q = Quorum::new(&quorum().with_blocks(100, 50_000));
        // Three transactions, never enough to size-cut: only the timer at
        // first-arrival + interval can cut the block.
        let receipts = drive_arrivals(
            &mut q,
            (0..3).map(|seq| (write_txn(seq, &format!("k{seq}"), 100), 1_000 + seq * 100)),
        );
        assert_eq!(receipts.len(), 3);
        assert!(receipts.iter().all(|r| r.status.is_committed()));
        // The block could not have committed before the timer fired.
        assert!(receipts.iter().all(|r| r.finish_time >= 51_000));
    }

    #[test]
    fn blocks_commit_in_consensus_order_even_when_a_small_block_finishes_early() {
        let mut q = Quorum::new(&quorum().with_blocks(50, 1_000));
        // Block 1: 50 large writes to one key (size cut at ~490 µs). Block 2:
        // a single tiny write to the same key, timer-cut shortly after. The
        // small block's consensus round is far cheaper, so without the
        // ordered-commit clamp it would overtake block 1 and lose the
        // last-writer race on the shared key.
        let mut arrivals: Vec<(Transaction, Timestamp)> = (0..50)
            .map(|seq| (write_txn(seq, "shared", 5000), seq * 10))
            .collect();
        arrivals.push((write_txn(99, "shared", 10), 600));
        let receipts = drive_arrivals(&mut q, arrivals);
        assert_eq!(receipts.len(), 51);
        assert!(receipts.iter().all(|r| r.status.is_committed()));
        let late = receipts.iter().find(|r| r.txn_id.seq == 99).unwrap();
        for r in receipts.iter().filter(|r| r.txn_id.seq != 99) {
            assert!(
                r.commit_version < late.commit_version,
                "block 1 (height {:?}) must commit before block 2 (height {:?})",
                r.commit_version,
                late.commit_version
            );
            assert!(r.finish_time <= late.finish_time);
        }
        // The later block is the last writer of the shared key.
        assert_eq!(
            q.state_db.get(&Key::from_str("shared")).unwrap().len(),
            10,
            "block 2's write must win the last-writer race"
        );
    }

    #[test]
    fn reads_bypass_consensus_and_are_fast() {
        let mut q = Quorum::new(&quorum());
        q.load(&[(Key::from_str("hot"), Value::filler(1000))]);
        let receipts = drive_arrivals(&mut q, vec![(read_txn(1, "hot"), 50)]);
        assert_eq!(receipts.len(), 1);
        let latency = receipts[0].latency_us();
        // Milliseconds-range read path (Figure 5b: ~4 ms), far below the
        // block interval.
        assert!(latency < 20_000, "latency {latency}");
        assert_eq!(receipts[0].reads[0].1.as_ref().unwrap().len(), 1000);
    }

    #[test]
    fn larger_records_slow_the_commit_path_disproportionately() {
        let throughput = |record: usize| {
            let mut q = Quorum::new(&cut_at(50));
            let n = 200u64;
            let receipts = drive_arrivals(
                &mut q,
                (0..n).map(|seq| (write_txn(seq, &format!("k{seq}"), record), seq * 10)),
            );
            let last = receipts.iter().map(|r| r.finish_time).max().unwrap();
            n as f64 / (last as f64 / 1e6)
        };
        let small = throughput(10);
        let large = throughput(5000);
        assert!(
            small > large * 5.0,
            "10-byte {small:.0} tps vs 5000-byte {large:.0} tps"
        );
    }

    #[test]
    fn unchanged_writes_are_charged_the_full_trie_update() {
        // A loaded state, then one block of ten updates. Storing the bytes the
        // records already hold keeps the trie's nodes on the host, but the
        // committer still re-executes every write along its whole path.
        let commit_phase = |value: &Value| {
            let mut q = Quorum::new(&cut_at(10));
            let records: Vec<(Key, Value)> = (0..500)
                .map(|i| (Key::from_str(&format!("user{i:012}")), Value::filler(500)))
                .collect();
            q.load(&records);
            let nodes = q.state_trie.stored_node_count();
            let receipts = drive_arrivals(
                &mut q,
                (0..10).map(|seq| {
                    let write =
                        Operation::write(records[seq as usize * 7].0.clone(), value.clone());
                    (
                        Transaction::new(TxnId::new(ClientId(1), seq), vec![write]),
                        seq,
                    )
                }),
            );
            assert_eq!(receipts.len(), 10);
            let commit = receipts[0].phase_latencies[2];
            assert_eq!(commit.0, "commit");
            (commit.1, q.state_trie.stored_node_count() > nodes)
        };
        let (unchanged, grew_unchanged) = commit_phase(&Value::filler(500));
        let (changed, grew_changed) = commit_phase(&Value::new([b'y'; 500]));
        assert!(!grew_unchanged && grew_changed);
        assert_eq!(unchanged, changed);
    }

    #[test]
    fn ibft_and_raft_reach_similar_throughput_when_consensus_is_not_the_bottleneck() {
        let run = |consensus| {
            let mut q = Quorum::new(&quorum().with_nodes(7).with_consensus(consensus));
            let receipts = drive_arrivals(
                &mut q,
                (0..300u64).map(|seq| (write_txn(seq, &format!("k{}", seq % 50), 1000), seq * 100)),
            );
            let last = receipts.iter().map(|r| r.finish_time).max().unwrap();
            300.0 / (last as f64 / 1e6)
        };
        let raft = run(ProtocolKind::Raft);
        let ibft = run(ProtocolKind::Ibft);
        let ratio = raft / ibft;
        assert!((0.8..1.4).contains(&ratio), "raft {raft:.0} ibft {ibft:.0}");
    }

    #[test]
    fn a_leader_crash_stalls_proposal_until_heal_plus_failover() {
        use dichotomy_simnet::fault::NodeFault;
        let run = |faults: FaultPlan| {
            let mut q = Quorum::new(&cut_at(5).with_faults(faults));
            drive_arrivals(
                &mut q,
                (0..20).map(|seq| (write_txn(seq, &format!("k{seq}"), 100), seq * 2_000)),
            )
        };
        let healthy = run(FaultPlan::none());
        let mut faults = FaultPlan::none();
        faults.add(NodeFault::crash_until(NodeId(0), 10_000, 600_000));
        let crashed = run(faults);
        assert_eq!(crashed.len(), healthy.len());
        assert!(crashed.iter().all(|r| r.status.is_committed()));
        // Blocks launched before the crash may finish mid-window (the fault
        // gates proposal admission, not in-flight blocks), but anything cut
        // inside the window waits for heal + failover.
        let healed = 600_000 + FAILOVER_US;
        for r in crashed.iter().filter(|r| r.submit_time >= 10_000) {
            assert!(
                r.finish_time >= healed,
                "receipt submitted in the outage finished inside it: {}",
                r.finish_time
            );
        }
        let stalled = crashed.iter().filter(|r| r.finish_time >= healed).count();
        assert!(stalled >= 10, "only {stalled} receipts rode out the crash");
        let max = |rs: &[TxnReceipt]| rs.iter().map(|r| r.finish_time).max().unwrap();
        assert!(max(&healthy) < max(&crashed));
    }

    #[test]
    fn a_partition_cutting_off_the_leader_stalls_blocks_until_it_heals() {
        let mut faults = FaultPlan::none();
        // Leader on one side, every follower on the other, until 400 ms.
        faults.add_partition(vec![NodeId(0)], 10_000, Some(400_000));
        let mut q = Quorum::new(&cut_at(5).with_faults(faults));
        let receipts = drive_arrivals(
            &mut q,
            (0..20).map(|seq| (write_txn(seq, &format!("k{seq}"), 100), seq * 2_000)),
        );
        assert_eq!(receipts.len(), 20);
        assert!(receipts.iter().all(|r| r.status.is_committed()));
        for r in receipts.iter().filter(|r| r.submit_time >= 10_000) {
            assert!(
                r.finish_time >= 400_000,
                "receipt submitted inside the partition finished inside it: {}",
                r.finish_time
            );
        }
    }

    #[test]
    fn footprint_includes_state_trie_and_ledger_history() {
        let mut q = Quorum::new(&cut_at(10));
        let receipts = drive_arrivals(
            &mut q,
            (0..20).map(|seq| (write_txn(seq, &format!("k{seq}"), 500), seq * 10)),
        );
        assert_eq!(receipts.len(), 20);
        let fp = q.footprint();
        assert!(fp.history_bytes > 20 * 500, "ledger history missing");
        assert!(fp.index_bytes > 20 * 100, "MPT index overhead missing");
        assert_eq!(q.node_count(), 5);
        assert_eq!(q.kind().name(), "Quorum");
    }
}
