//! The etcd model (NoSQL key-value store over a single Raft group and a
//! BoltDB-style B+ tree) and the standalone TiKV model (the replicated LSM
//! storage layer of TiDB, measured separately in Figure 4).
//!
//! Both replicate *storage operations* (not transactions) through one Raft
//! group, apply them serially at the leader, and serve linearizable reads
//! from the leader without consensus. Neither runs a SQL layer, a
//! transaction coordinator, client authentication, or an authenticated
//! index — which is exactly why they top Figure 4.
//!
//! Event pipeline (propose → apply → replicate): an arriving write is
//! proposed into the leader's Raft batch and queued on the serial apply
//! process; the `Applied` stage event fires when the apply completes, at
//! which point the write lands in the storage engine and the receipt is
//! stamped with the replication round trip. A
//! [`FaultPlan`](dichotomy_simnet::FaultPlan) in the spec
//! takes the leader down: its outages (a crash until the heal plus a
//! failover pause, a failover, a partition cutting it off) are windows on
//! `kv-apply`, so writes due to apply inside one wait for its end, which is
//! what the crash-and-recover scenario measures.

use dichotomy_common::size::StorageBreakdown;
use dichotomy_common::{Key, Timestamp, Transaction, TxnReceipt, Value};
use dichotomy_consensus::{ProtocolKind, ReplicationProfile};
use dichotomy_simnet::{CostModel, NetworkConfig, Outages, ProcessId, StageEvent};
use dichotomy_storage::{BPlusTree, KvEngine, LsmTree};

use crate::pipeline::{
    Completion, Engine, ReceiptLog, SharedState, SysEvent, SystemKind, TokenMap,
    TransactionalSystem,
};
use crate::spec::SystemSpec;

/// How many operations the leader batches into one Raft proposal.
pub const RAFT_BATCH: usize = 32;

/// Stage: a write finished its serial apply at the leader.
const ST_APPLIED: u32 = 0;

/// A write waiting for its `Applied` stage event.
struct PendingWrite {
    txn: Transaction,
    arrival: Timestamp,
    /// Raft-batch occupancy plus engine-write cost (the "apply" phase).
    apply_us: u64,
}

/// Engine process handles, created at attach time.
#[derive(Clone, Copy)]
struct KvProcs {
    /// The leader's serial apply loop.
    apply: ProcessId,
    /// Read-serving capacity (reads do not go through consensus).
    readers: ProcessId,
}

/// A storage-replicated KV system over engine `E`: etcd ([`Etcd`], a B+
/// tree) or standalone TiKV ([`Tikv`], an LSM tree).
pub struct KvSystem<E: KvEngine> {
    kind: SystemKind,
    /// Replicas in the Raft group (the spec's `nodes`, default 3).
    nodes: usize,
    network: NetworkConfig,
    costs: CostModel,
    /// When the leader (the primary, node 0) cannot apply: set on
    /// `kv-apply` at attach.
    leader_outages: Outages,
    raft: ReplicationProfile,
    procs: Option<KvProcs>,
    store: E,
    receipts: ReceiptLog,
    pending: TokenMap<PendingWrite>,
    /// Fixed per-operation apply cost beyond the engine write (grpc, fsync
    /// amortized across the raft batch).
    apply_overhead_us: u64,
}

/// The etcd model: B+ tree storage, single Raft group.
pub type Etcd = KvSystem<BPlusTree>;

/// The standalone TiKV model: LSM storage, Raft replication, no SQL or
/// transaction layer on top.
pub type Tikv = KvSystem<LsmTree>;

impl Etcd {
    /// Build the etcd deployment `spec` describes.
    pub fn new(spec: &SystemSpec) -> Self {
        KvSystem::with_engine(spec, SystemKind::Etcd, BPlusTree::new(), 18)
    }
}

impl Tikv {
    /// Build the standalone TiKV deployment `spec` describes.
    pub fn new(spec: &SystemSpec) -> Self {
        KvSystem::with_engine(spec, SystemKind::Tikv, LsmTree::new(), 30)
    }
}

impl<E: KvEngine + Clone + 'static> KvSystem<E> {
    fn with_engine(spec: &SystemSpec, kind: SystemKind, store: E, apply_overhead_us: u64) -> Self {
        let nodes = spec.nodes.unwrap_or(3);
        let network = NetworkConfig::lan_1gbps();
        let costs = spec.costs.clone().unwrap_or_default();
        KvSystem {
            kind,
            nodes,
            raft: ReplicationProfile::new(
                ProtocolKind::Raft,
                nodes,
                network.clone(),
                costs.clone(),
            ),
            network,
            costs,
            leader_outages: spec.primary_outages(),
            procs: None,
            store,
            receipts: ReceiptLog::new(),
            pending: TokenMap::new(),
            apply_overhead_us,
        }
    }

    fn procs(&self) -> KvProcs {
        self.procs.expect("system not attached to an engine")
    }
}

impl<E: KvEngine + Clone + 'static> TransactionalSystem for KvSystem<E> {
    fn kind(&self) -> SystemKind {
        self.kind
    }

    fn load(&mut self, records: &[(Key, Value)]) {
        self.store.load(records);
    }

    /// The loaded engine itself is the snapshot: adopters clone it.
    fn share_state(&mut self) -> Option<SharedState> {
        Some(SharedState::new(self.store.clone()))
    }

    fn adopt_state(&mut self, state: &SharedState) -> bool {
        let Some(store) = state.downcast_ref::<E>() else {
            return false;
        };
        self.store = store.clone();
        true
    }

    fn attach(&mut self, engine: &mut Engine) {
        let apply = engine.add_process("kv-apply", 1);
        engine.set_outages(apply, self.leader_outages.clone());
        self.procs = Some(KvProcs {
            apply,
            readers: engine.add_process("kv-readers", self.nodes.max(1) * 4),
        });
    }

    fn on_arrival(&mut self, txn: Transaction, engine: &mut Engine) {
        let arrival = engine.now();
        let c = &self.costs;
        if txn.is_read_only() {
            let mut cost = 0;
            let mut reads = Vec::new();
            for op in txn.ops().iter().filter(|o| o.reads()) {
                let value = self.store.get(&op.key);
                // B+ tree / LSM probe cost scaled by structural depth.
                cost += (c.storage_get_us(value.as_ref().map_or(64, Value::len)) / 4)
                    * self.store.read_amplification(&op.key).max(1) as u64
                    / 2
                    + 20;
                reads.push((op.key.clone(), value));
            }
            let (_, done) = engine.service(self.procs().readers, arrival, cost.max(1));
            let finish = done + self.network.base_latency_us;
            let mut receipt = TxnReceipt::committed(txn.id(), arrival, finish);
            receipt.reads = reads;
            receipt.phase_latencies = vec![("storage-get", cost)];
            self.receipts.push_back(receipt);
            return;
        }
        // Write path: the operation is proposed into the Raft log (batched
        // with its neighbours) and queued on the leader's serial apply loop;
        // the Applied stage fires when that completes. The leader's outages
        // are windows on the apply loop, so a write due to apply inside one
        // starts at its end.
        let bytes = txn.payload_bytes();
        let occupancy =
            (self.raft.leader_occupancy_us(bytes * RAFT_BATCH) / RAFT_BATCH as u64).max(1);
        let mut apply_cost = self.apply_overhead_us;
        for op in txn.ops().iter().filter(|o| o.writes()) {
            let len = op.value.as_ref().map_or(1, Value::len).max(1);
            apply_cost += self.costs.storage_put_us(len);
        }
        let apply_us = occupancy + apply_cost;
        let Some((_, applied)) = engine.try_service(self.procs().apply, arrival, apply_us) else {
            // The leader is down for good: the request times out.
            let finish = arrival + self.network.base_latency_us * 4;
            return self.receipts.push_overload(txn.id(), arrival, finish);
        };
        let token = self.pending.insert(PendingWrite {
            txn,
            arrival,
            apply_us,
        });
        engine.schedule_at(applied, SysEvent::stage(ST_APPLIED, token));
    }

    fn on_stage(&mut self, event: StageEvent, engine: &mut Engine) {
        debug_assert_eq!(event.stage, ST_APPLIED);
        let PendingWrite {
            txn,
            arrival,
            apply_us,
        } = self.pending.remove(event.token);
        // The apply is done: the write becomes visible, and the receipt pays
        // the replication round trip on top.
        for op in txn.ops().iter().filter(|o| o.writes()) {
            let value = op.value.clone().unwrap_or_else(|| Value::filler(1));
            self.store.put(op.key.clone(), value);
        }
        let replication_latency = self.raft.commit_latency_us(txn.payload_bytes() + 64);
        let finish = engine.now() + replication_latency + self.network.base_latency_us;
        let mut receipt = TxnReceipt::committed(txn.id(), arrival, finish);
        receipt.phase_latencies = vec![("apply", apply_us), ("replication", replication_latency)];
        self.receipts.push_back(receipt);
    }

    fn drain_completions(&mut self, buf: &mut Vec<Completion>) {
        self.receipts.swap_completions(buf)
    }

    fn drain_receipts_into(&mut self, buf: &mut Vec<TxnReceipt>) {
        self.receipts.swap_receipts(buf)
    }

    fn footprint(&self) -> StorageBreakdown {
        self.store.footprint()
    }

    fn node_count(&self) -> usize {
        self.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{drive_arrivals, FAILOVER_US};
    use dichotomy_common::{AbortReason, ClientId, NodeId, Operation, TxnId};
    use dichotomy_simnet::{FaultPlan, NodeFault};

    /// The Raft leader: the primary the fault plan addresses.
    const LEADER: NodeId = NodeId(0);

    fn etcd() -> SystemSpec {
        SystemSpec::new(SystemKind::Etcd)
    }

    fn write(seq: u64, key: &str, size: usize) -> Transaction {
        Transaction::new(
            TxnId::new(ClientId(1), seq),
            vec![Operation::write(Key::from_str(key), Value::filler(size))],
        )
    }

    fn read(seq: u64, key: &str) -> Transaction {
        Transaction::new(
            TxnId::new(ClientId(1), seq),
            vec![Operation::read(Key::from_str(key))],
        )
    }

    #[test]
    fn etcd_writes_commit_with_millisecond_latency() {
        let mut e = Etcd::new(&etcd());
        let receipts = drive_arrivals(
            &mut e,
            (0..100).map(|seq| (write(seq, &format!("k{seq}"), 1000), seq * 500)),
        );
        assert_eq!(receipts.len(), 100);
        assert!(receipts.iter().all(|r| r.status.is_committed()));
        let mean: u64 = receipts.iter().map(TxnReceipt::latency_us).sum::<u64>() / 100;
        assert!(mean < 10_000, "mean write latency {mean} µs");
    }

    #[test]
    fn etcd_reads_are_sub_millisecond() {
        let mut e = Etcd::new(&etcd());
        e.load(&[(Key::from_str("k"), Value::filler(1000))]);
        let receipts = drive_arrivals(&mut e, vec![(read(1, "k"), 0)]);
        let r = &receipts[0];
        assert!(r.latency_us() < 1_000, "latency {}", r.latency_us());
        assert_eq!(r.reads[0].1.as_ref().unwrap().len(), 1000);
    }

    #[test]
    fn etcd_outpaces_a_serial_blockchain_on_the_same_workload() {
        let n = 500u64;
        let mut e = Etcd::new(&etcd());
        let receipts = drive_arrivals(
            &mut e,
            (0..n).map(|seq| (write(seq, &format!("k{}", seq % 100), 1000), seq * 20)),
        );
        let last = receipts.iter().map(|r| r.finish_time).max().unwrap();
        let etcd_tps = n as f64 / (last as f64 / 1e6);
        // The paper's Figure 4a: etcd ≈ 16.8 k tps vs Quorum ≈ 245 tps. Here
        // we only require the model to sustain a clearly database-class rate.
        assert!(etcd_tps > 3_000.0, "etcd {etcd_tps:.0} tps");
    }

    #[test]
    fn tikv_behaves_like_etcd_but_with_lsm_storage() {
        let mut t = Tikv::new(&SystemSpec::new(SystemKind::Tikv));
        let receipts = drive_arrivals(
            &mut t,
            (0..50).map(|seq| (write(seq, &format!("k{seq}"), 1000), seq * 100)),
        );
        assert!(receipts.iter().all(|r| r.status.is_committed()));
        assert_eq!(t.kind(), SystemKind::Tikv);
        assert!(t.footprint().payload_bytes > 0);
    }

    #[test]
    fn throughput_degrades_as_the_raft_group_grows() {
        let tput = |nodes: usize| {
            let mut e = Etcd::new(&etcd().with_nodes(nodes));
            let n = 1000u64;
            let receipts = drive_arrivals(
                &mut e,
                (0..n).map(|seq| (write(seq, &format!("k{}", seq % 100), 1000), seq * 10)),
            );
            let last = receipts.iter().map(|r| r.finish_time).max().unwrap();
            n as f64 / (last as f64 / 1e6)
        };
        let small = tput(3);
        let large = tput(19);
        assert!(small > large, "3 nodes {small:.0} vs 19 nodes {large:.0}");
    }

    #[test]
    fn a_leader_crash_stalls_writes_until_heal_plus_failover() {
        let mut faults = FaultPlan::none();
        faults.add(NodeFault::crash_until(LEADER, 10_000, 60_000));
        let mut e = Etcd::new(&etcd().with_faults(faults));
        // One write well before the crash, one inside the window.
        let receipts = drive_arrivals(
            &mut e,
            vec![
                (write(1, "a", 100), 1_000),
                (write(2, "b", 100), 20_000),
                (write(3, "c", 100), 120_000),
            ],
        );
        assert!(receipts.iter().all(|r| r.status.is_committed()));
        let by_seq = |seq: u64| {
            receipts
                .iter()
                .find(|r| r.txn_id.seq == seq)
                .expect("receipt")
        };
        assert!(by_seq(1).finish_time < 10_000, "pre-crash write unaffected");
        // The mid-crash write cannot finish before heal (60 ms) + failover.
        assert!(
            by_seq(2).finish_time >= 60_000 + FAILOVER_US,
            "stalled write finished at {}",
            by_seq(2).finish_time
        );
        assert!(by_seq(3).latency_us() < 10_000, "post-heal write recovered");
    }

    #[test]
    fn a_permanent_leader_crash_rejects_writes() {
        let mut faults = FaultPlan::none();
        faults.add(NodeFault::crash(LEADER, 5_000));
        let mut e = Etcd::new(&etcd().with_faults(faults));
        let receipts = drive_arrivals(&mut e, vec![(write(1, "a", 100), 10_000)]);
        assert_eq!(
            receipts[0].status,
            dichotomy_common::TxnStatus::Aborted(AbortReason::Overload)
        );
    }
}
