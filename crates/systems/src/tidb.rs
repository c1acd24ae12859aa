//! The TiDB model: a NewSQL database with stateless SQL servers over a
//! Raft-replicated key-value store (TiKV), with snapshot reads and 2PC
//! across regions (Section 4.1).
//!
//! Write path: a TiDB server parses/compiles the statements and acts as the
//! transaction coordinator; reads hit TiKV at a snapshot; prewrite + commit
//! go through the Raft group of every touched region, and multi-region
//! transactions pay 2PC (Figure 10a). Concurrency comes from many SQL servers
//! and many storage threads — there is no serial commit order.
//!
//! Deployment: the spec's `nodes` (default 3) is the replica count of each
//! region's Raft group. Unsharded, [`REGIONS`] regions are fully replicated
//! over `nodes` storage nodes (the paper's default setup). With `shards`
//! set (sharding enabled, Figure 14), each of the `shards` regions is its
//! own Raft group, over `shards × nodes` storage nodes. `tikv-storage` has
//! one server per storage node; `tidb-sql` has the spec's `frontends`, by
//! default half the storage nodes.
//!
//! Regions are shards: the model runs on the sharded models' database core,
//! `sharded::ShardedDb`, which holds the partitioner, Raft profile, 2PC, the
//! MVCC+LSM state pair with its load and fork, the fault plan, the receipt
//! log, the parked receipts and the hold table. TiDB adds only its SQL
//! servers, its `tidb-sql`/`tikv-storage` processes and `coordinate`.
//!
//! Contention is a per-key hold window: a committed write holds its keys
//! until its finish time (the core's `busy_until`). The window is judged
//! when the coordinator reaches the write, at the end of its SQL stage: a
//! holder that has finished by then costs nothing. A written key still held
//! there costs [`MAX_LOCK_RETRIES`] contention-resolution rounds on the SQL
//! servers, and the write aborts if the holder is still in flight after
//! them (Figure 9a's skew collapse). Otherwise it reads at `start_ts`, the
//! store's latest version, and commits its writes at the next version.
//!
//! Event pipeline: the concurrency-control decision is taken in the arrival
//! handler (a held key must be visible to the next arrival immediately);
//! the SQL, storage, replication and 2PC latencies are booked on the
//! engine's service processes, and the receipt surfaces through the core's
//! `Committed` stage event at the decided finish time.

use dichotomy_common::size::{StorageBreakdown, StorageFootprint};
use dichotomy_common::{AbortReason, Key, Timestamp, Transaction, TxnReceipt, Value};
use dichotomy_consensus::ProtocolKind;
use dichotomy_sharding::CoordinatorKind;
use dichotomy_simnet::{ProcessId, StageEvent};
use dichotomy_storage::KvEngine;

use crate::pipeline::{Completion, Engine, SharedState, SystemKind, TransactionalSystem};
use crate::sharded::ShardedDb;
use crate::spec::SystemSpec;

/// Regions (data shards) of an unsharded deployment. With full replication
/// every node holds every region, but multi-region transactions still pay
/// 2PC.
pub const REGIONS: u32 = 16;

/// Contention-resolution rounds a coordinator spends on a held key before
/// it gives up on the holder.
pub const MAX_LOCK_RETRIES: u32 = 2;

/// Coordinator time per contention-resolution round (the mechanism behind
/// the skew collapse of Section 5.3.1), in µs.
pub const LOCK_CONFLICT_PENALTY_US: u64 = 4_000;

/// Engine process handles, created at attach time.
#[derive(Clone, Copy)]
struct TiDbProcs {
    /// SQL-layer processing capacity (one server ≈ several worker threads).
    sql: ProcessId,
    /// TiKV storage/raft processing capacity.
    storage: ProcessId,
}

/// The TiDB system model.
pub struct TiDb {
    /// Stateless TiDB (SQL) servers: the spec's `frontends`, or by default
    /// half the storage nodes (at least one).
    tidb_servers: usize,
    /// TiKV storage nodes: `nodes`, or `shards × nodes` when sharded.
    tikv_nodes: usize,
    procs: Option<TiDbProcs>,
    /// One Raft group of `nodes` replicas per region. `NodeId(0)` addresses
    /// the 2PC coordinator role and `NodeId(1 + region)` a region's Raft
    /// leader: a crashed region leader stalls the decision round of every
    /// transaction touching it, and a coordinator outage stalls all
    /// decisions.
    db: ShardedDb,
}

impl TiDb {
    /// Build the TiDB deployment `spec` describes: [`REGIONS`] fully
    /// replicated regions, or the spec's shard count of region groups.
    pub fn new(spec: &SystemSpec) -> Self {
        let replicas = spec.nodes.unwrap_or(3);
        let (regions, tikv_nodes) = match spec.shard_count() {
            0 => (REGIONS, replicas),
            shards => (shards, shards as usize * replicas),
        };
        TiDb {
            tidb_servers: spec.frontends.unwrap_or((tikv_nodes / 2).max(1)),
            tikv_nodes,
            procs: None,
            db: ShardedDb::new(
                spec,
                regions,
                replicas,
                ProtocolKind::Raft,
                CoordinatorKind::Trusted,
            ),
        }
    }

    fn procs(&self) -> TiDbProcs {
        self.procs.expect("system not attached to an engine")
    }

    fn read_cost(&self, bytes: usize) -> u64 {
        self.db.costs.sql_frontend_us() + self.db.costs.storage_get_us(bytes)
    }

    fn serve_read(&mut self, txn: &Transaction, arrival: Timestamp, engine: &mut Engine) {
        let mut cost = 0;
        let mut reads = Vec::new();
        for op in txn.ops().iter().filter(|o| o.reads()) {
            let value = self.db.state.get_latest(&op.key);
            cost += self.read_cost(value.as_ref().map_or(64, Value::len));
            reads.push((op.key.clone(), value));
        }
        let (_, sql_done) = engine.service(self.procs().sql, arrival, cost);
        let finish = sql_done + self.db.network.base_latency_us;
        let mut receipt = TxnReceipt::committed(txn.id(), arrival, finish);
        receipt.reads = reads;
        receipt.phase_latencies = vec![
            ("sql-parse", self.db.costs.sql_parse_us.ceil() as u64),
            ("sql-compile", self.db.costs.sql_compile_us.ceil() as u64),
            ("storage-get", self.db.costs.storage_get_us(1000)),
        ];
        self.db.receipts.push_back(receipt);
    }

    /// Coordinate one write transaction: contention resolution, snapshot
    /// reads and the commit, and the storage/replication/2PC bookings.
    /// Returns the decided receipt, whose finish time schedules the
    /// `Committed` stage.
    fn coordinate(
        &mut self,
        txn: Transaction,
        arrival: Timestamp,
        engine: &mut Engine,
    ) -> TxnReceipt {
        let c = self.db.costs.clone();
        let base_latency_us = self.db.network.base_latency_us;
        // SQL layer: parse/compile each statement + coordinator bookkeeping.
        let frontend = (c.sql_frontend_us() + c.sql_coordinate_us.ceil() as u64)
            * txn.op_count().max(1) as u64;
        let (_, sql_done) = engine.service(self.procs().sql, arrival, frontend);

        // Contention against transactions still in flight on the same keys
        // when the coordinator reaches them: it burns contention-resolution
        // rounds and, if the holder is still in flight after them, aborts.
        let write_keys = txn.write_set();
        let busy = self.db.busy_window(&write_keys);
        if busy > sql_done {
            let rounds = MAX_LOCK_RETRIES.max(1) as u64;
            let penalty = rounds * LOCK_CONFLICT_PENALTY_US;
            let (_, contention_done) = engine.service(self.procs().sql, sql_done, penalty);
            if busy > sql_done + penalty {
                // The holder is still in flight after every retry: abort.
                let finish = contention_done + base_latency_us;
                return TxnReceipt::aborted(
                    txn.id(),
                    AbortReason::WriteWriteConflict,
                    arrival,
                    finish,
                );
            }
        }

        // Read at the latest snapshot and commit the writes at the next
        // version. The hold window above is the only conflict rule: nothing
        // else is in flight on the store inside this call.
        let state = &mut self.db.state;
        let start_ts = state.latest_version();
        let reads: Vec<(Key, Option<Value>)> = txn
            .ops()
            .iter()
            .filter(|op| op.reads())
            .map(|op| (op.key.clone(), state.get_at(&op.key, start_ts)))
            .collect();
        let commit_ts = state.begin_commit();
        for op in txn.ops().iter().filter(|o| o.writes()) {
            let value = op.value.clone().unwrap_or_else(|| Value::new(Vec::new()));
            state.commit_write(op.key.clone(), commit_ts, Some(value));
        }

        // Storage-layer cost: snapshot reads + prewrite/commit writes, each
        // write replicated through Raft.
        let mut storage_cost = 0u64;
        for op in txn.ops() {
            if op.reads() {
                storage_cost += c.storage_get_us(op.value.as_ref().map_or(1000, Value::len));
            }
            if op.writes() {
                let bytes = op.value.as_ref().map_or(0, Value::len);
                storage_cost += 2 * c.storage_put_us(bytes); // prewrite + commit
                storage_cost += self.db.replication.leader_occupancy_us(bytes + 64);
            }
        }
        let (_, storage_done) = engine.service(self.procs().storage, sql_done, storage_cost);
        // Replication latency of the slowest write (prewrite and commit each
        // take one Raft round).
        let max_write = txn
            .ops()
            .iter()
            .filter(|o| o.writes())
            .map(|o| o.value.as_ref().map_or(0, Value::len))
            .max()
            .unwrap_or(0);
        let replication_latency = 2 * self.db.replication.commit_latency_us(max_write + 64);

        // Cross-region 2PC for multi-region write sets.
        let shards = self.db.partitioner.shards_of(&write_keys);
        // No station hosts the region leaders or the coordinator, so the
        // decision round asks their outages: every touched region's Raft
        // leader must be back up, and the coordinator role reachable.
        let mut decide_input = storage_done + replication_latency;
        let regions = shards.iter().map(|s| &self.db.leaders[s.0 as usize]);
        for outages in regions.chain([&self.db.coordinator]) {
            let Some(t) = outages.start(decide_input, 0) else {
                let finish = decide_input + base_latency_us;
                return TxnReceipt::aborted(txn.id(), AbortReason::Overload, arrival, finish);
            };
            decide_input = t;
        }
        let decided_at = self
            .db
            .two_pc
            .decided_at(decide_input, shards.len(), txn.payload_bytes());

        let finish = decided_at + base_latency_us;
        for op in txn.ops().iter().filter(|o| o.writes()) {
            if let Some(v) = self.db.state.get_latest(&op.key) {
                self.db.engine_db.put(op.key.clone(), v);
            }
        }
        for key in &write_keys {
            self.db.hold(key, finish);
        }
        let mut receipt = TxnReceipt::committed(txn.id(), arrival, finish);
        receipt.reads = reads;
        receipt.commit_version = Some(commit_ts);
        receipt.phase_latencies = vec![
            ("sql", sql_done.saturating_sub(arrival)),
            ("storage", storage_done.saturating_sub(sql_done)),
            ("replication", replication_latency),
            (
                "2pc",
                decided_at.saturating_sub(storage_done + replication_latency),
            ),
        ];
        receipt
    }
}

impl TransactionalSystem for TiDb {
    fn kind(&self) -> SystemKind {
        SystemKind::TiDb
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
        self.procs = Some(TiDbProcs {
            sql: engine.add_process("tidb-sql", self.tidb_servers.max(1)),
            storage: engine.add_process("tikv-storage", self.tikv_nodes.max(1)),
        });
    }

    fn on_arrival(&mut self, txn: Transaction, engine: &mut Engine) {
        let arrival = engine.now();
        if txn.is_read_only() {
            self.serve_read(&txn, arrival, engine);
            return;
        }
        let receipt = self.coordinate(txn, arrival, engine);
        self.db.schedule_receipt(receipt, engine);
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
        // No ledger and no authenticated index. The MVCC store keeps every
        // version (no GC runs) and is not counted: the LSM engine alone.
        self.db.engine_db.footprint()
    }

    fn node_count(&self) -> usize {
        self.tidb_servers + self.tikv_nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{drive_arrivals, FAILOVER_US};
    use dichotomy_common::{ClientId, NodeId, Operation, TxnId};
    use dichotomy_sharding::Partitioner;
    use dichotomy_simnet::FaultPlan;

    /// Three SQL servers over three storage nodes.
    fn tidb() -> SystemSpec {
        SystemSpec::new(SystemKind::TiDb).with_frontends(3)
    }

    fn rmw(client: u64, seq: u64, key: &str, size: usize) -> Transaction {
        Transaction::new(
            TxnId::new(ClientId(client), seq),
            vec![Operation::read_modify_write(
                Key::from_str(key),
                Value::filler(size),
            )],
        )
    }

    fn seeded(records: usize) -> TiDb {
        let mut t = TiDb::new(&tidb());
        let recs: Vec<(Key, Value)> = (0..records)
            .map(|i| (Key::from_str(&format!("k{i:05}")), Value::filler(1000)))
            .collect();
        t.load(&recs);
        t
    }

    #[test]
    fn uniform_writes_commit_without_aborts() {
        let mut t = seeded(1000);
        let receipts = drive_arrivals(
            &mut t,
            (0..200u64).map(|seq| {
                (
                    rmw(seq % 8, seq, &format!("k{:05}", seq % 1000), 1000),
                    seq * 200,
                )
            }),
        );
        assert_eq!(receipts.len(), 200);
        assert!(receipts.iter().all(|r| r.status.is_committed()));
    }

    #[test]
    fn skewed_writes_abort_and_slow_down() {
        // All clients hammer one key with interleaved snapshots.
        let mut t = seeded(10);
        let receipts = drive_arrivals(
            &mut t,
            (0..200u64).map(|seq| (rmw(seq % 8, seq, "k00000", 1000), seq * 50)),
        );
        // Sequential submission means snapshots are mostly fresh; aborts come
        // from lock conflicts held across the storage pipeline. The paper's
        // collapse needs true concurrency, which the driver provides by
        // interleaving clients; here we only require the mechanism to exist.
        // One receipt per transaction: the receipts are the outcome record.
        let ids: std::collections::BTreeSet<_> = receipts.iter().map(|r| r.txn_id).collect();
        assert_eq!((receipts.len(), ids.len()), (200, 200));
    }

    #[test]
    fn a_later_write_reads_the_earlier_commit_at_the_next_version() {
        // Values are one shared filler, so their sizes tell them apart. The
        // second arrival lands past the first one's hold window.
        let mut t = seeded(10);
        let receipts = drive_arrivals(
            &mut t,
            vec![
                (rmw(1, 1, "k00003", 100), 0),
                (rmw(2, 2, "k00003", 200), 50_000),
            ],
        );
        let first = receipts.iter().find(|r| r.txn_id.seq == 1).unwrap();
        let second = receipts.iter().find(|r| r.txn_id.seq == 2).unwrap();
        assert!(first.status.is_committed() && second.status.is_committed());
        assert!(first.finish_time < 50_000);
        let v1 = first.commit_version.unwrap();
        assert_eq!(second.commit_version, Some(v1 + 1));
        assert_eq!(first.reads[0].1.as_ref().unwrap().len(), 1000);
        assert_eq!(second.reads[0].1.as_ref().unwrap().len(), 100);
    }

    #[test]
    fn a_conflict_cleared_by_the_coordinators_decision_costs_nothing() {
        // One SQL server. A writes k00000 at 0; B writes the same key while
        // A is in flight, queued behind 40 writes on fresh keys, so the
        // coordinator reaches B after A has finished. A write C follows B.
        let run = |b_key: &str| {
            let mut t = TiDb::new(&tidb().with_frontends(1));
            let recs: Vec<(Key, Value)> = (0..100)
                .map(|i| (Key::from_str(&format!("k{i:05}")), Value::filler(1000)))
                .collect();
            t.load(&recs);
            let mut arrivals = vec![(rmw(1, 0, "k00000", 100), 0)];
            arrivals.extend((1..=40).map(|seq| (rmw(2, seq, &format!("k{seq:05}"), 100), 1)));
            arrivals.push((rmw(3, 41, b_key, 100), 2));
            arrivals.push((rmw(4, 42, "k00050", 100), 3));
            let mut receipts = drive_arrivals(&mut t, arrivals);
            receipts.sort_by_key(|r| r.txn_id.seq);
            receipts
        };
        let conflicting = run("k00000");
        let renamed = run("k00099");
        let a_finish = conflicting[0].finish_time;
        let b_sql = conflicting[41].phase_latencies[0].1 + conflicting[41].submit_time;
        assert!(
            a_finish < b_sql,
            "A {a_finish} outlasts B's SQL stage {b_sql}"
        );
        // B read A's write; the renamed B read the loaded record.
        assert_eq!(conflicting[41].reads[0].1.as_ref().unwrap().len(), 100);
        assert_eq!(renamed[41].reads[0].1.as_ref().unwrap().len(), 1000);
        for (mut c, mut r) in conflicting.into_iter().zip(renamed) {
            c.reads.clear();
            r.reads.clear();
            assert_eq!(c, r);
        }
    }

    #[test]
    fn reads_are_sub_millisecond_and_report_figure_8b_phases() {
        let mut t = seeded(100);
        let read = Transaction::new(
            TxnId::new(ClientId(1), 1),
            vec![Operation::read(Key::from_str("k00007"))],
        );
        let receipts = drive_arrivals(&mut t, vec![(read, 10)]);
        let r = &receipts[0];
        assert!(r.status.is_committed());
        assert!(r.latency_us() < 2_000, "latency {}", r.latency_us());
        let names: Vec<&str> = r.phase_latencies.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["sql-parse", "sql-compile", "storage-get"]);
        assert_eq!(r.reads[0].1.as_ref().unwrap().len(), 1000);
    }

    #[test]
    fn more_operations_per_transaction_cost_more() {
        let latency = |ops: usize| {
            let mut t = seeded(1000);
            let txn = Transaction::new(
                TxnId::new(ClientId(1), 1),
                (0..ops)
                    .map(|i| {
                        Operation::read_modify_write(
                            Key::from_str(&format!("k{i:05}")),
                            Value::filler(1000 / ops),
                        )
                    })
                    .collect::<Vec<_>>(),
            );
            drive_arrivals(&mut t, vec![(txn, 0)])[0].latency_us()
        };
        assert!(latency(10) > latency(1));
    }

    #[test]
    fn a_coordinator_crash_stalls_write_decisions_until_heal_plus_failover() {
        use dichotomy_simnet::fault::NodeFault;
        let mut faults = FaultPlan::none();
        faults.add(NodeFault::crash_until(NodeId(0), 5_000, 300_000));
        let mut t = TiDb::new(&tidb().with_faults(faults));
        let recs: Vec<(Key, Value)> = (0..100)
            .map(|i| (Key::from_str(&format!("k{i:05}")), Value::filler(1000)))
            .collect();
        t.load(&recs);
        let receipts = drive_arrivals(
            &mut t,
            (0..50u64).map(|seq| {
                (
                    rmw(seq % 8, seq, &format!("k{:05}", seq % 100), 1000),
                    seq * 2_000,
                )
            }),
        );
        assert_eq!(receipts.len(), 50);
        assert!(receipts.iter().all(|r| r.status.is_committed()));
        // Writes whose decision round falls in the outage wait for heal +
        // failover; the ones submitted mid-window prove the stall.
        let healed = 300_000 + FAILOVER_US;
        for r in receipts.iter().filter(|r| r.submit_time >= 5_000) {
            assert!(
                r.finish_time >= healed,
                "decision landed inside the outage: {}",
                r.finish_time
            );
        }
        assert!(receipts.iter().any(|r| r.finish_time >= healed));
    }

    #[test]
    fn a_region_leader_crash_stalls_only_transactions_touching_it() {
        use dichotomy_simnet::fault::NodeFault;
        // One region, whose leader is NodeId(1 + region). With hash
        // partitioning, find two keys landing in different regions.
        let p = Partitioner::hash(REGIONS);
        let key_a = Key::from_str("k00000");
        let region_a = p.shard_of(&key_a);
        let key_b = (1..100)
            .map(|i| Key::from_str(&format!("k{i:05}")))
            .find(|k| p.shard_of(k) != region_a)
            .unwrap();
        let mut faults = FaultPlan::none();
        faults.add(NodeFault::crash_until(
            NodeId(1 + u64::from(region_a.0)),
            0,
            500_000,
        ));
        let mut t = TiDb::new(&tidb().with_faults(faults));
        t.load(&[
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
            &mut t,
            vec![(txn(1, &key_a), 1_000), (txn(2, &key_b), 1_000)],
        );
        let on_a = receipts.iter().find(|r| r.txn_id.seq == 1).unwrap();
        let on_b = receipts.iter().find(|r| r.txn_id.seq == 2).unwrap();
        assert!(on_a.finish_time >= 510_000, "crashed region did not stall");
        assert!(on_b.finish_time < 100_000, "healthy region was stalled");
    }

    #[test]
    fn writes_survive_into_the_engine_and_footprint_has_no_history() {
        let mut t = seeded(10);
        let _ = drive_arrivals(&mut t, vec![(rmw(1, 1, "k00001", 500), 0)]);
        assert_eq!(
            t.db.engine_db.get(&Key::from_str("k00001")).unwrap().len(),
            500
        );
        let fp = t.footprint();
        assert_eq!(fp.history_bytes, 0);
        assert_eq!(t.node_count(), 6);
    }
}
