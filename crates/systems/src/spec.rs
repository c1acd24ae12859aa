//! Composable system descriptions: the paper's design-space taxonomy as an
//! *open* API.
//!
//! The paper's thesis is that every benchmarked system is a point in the
//! four-dimensional design space (replication, concurrency control, storage,
//! sharding). A [`SystemSpec`] describes such a point as plain data — kind,
//! node counts, block cutting, consensus profile, sharding knobs — and a
//! [`SystemRegistry`] maps the spec onto a concrete
//! [`TransactionalSystem`] model. Experiment plans carry specs instead of
//! hand-built systems, so a new deployment shape (more nodes, a different
//! consensus profile, a sharded variant) is one spec, not one function.
//!
//! The taxonomy wiring closes the loop with `dichotomy_hybrid::taxonomy`:
//! [`SystemSpec::taxonomy`] places a spec in the design space, and
//! [`SystemSpec::from_profile`] / [`SystemSpec::matches_profile`] derive and
//! validate specs against the Table 2 rows.

use std::collections::BTreeMap;
use std::fmt;

use dichotomy_common::{codec, NodeId};
use dichotomy_consensus::ProtocolKind;
use dichotomy_hybrid::taxonomy::{
    ConcurrencyChoice, LedgerSupport, ReplicationModel, ShardingSupport, SystemProfile,
};
use dichotomy_hybrid::HybridSpec;
use dichotomy_simnet::{CostModel, FaultPlan, Outages};

use crate::etcd::{Etcd, Tikv};
use crate::fabric::Fabric;
use crate::pipeline::{SystemKind, TransactionalSystem, FAILOVER_US};
use crate::quorum::Quorum;
use crate::sharded::{Ahl, SpannerLike};
use crate::tidb::TiDb;

/// A buildable description of a system deployment: one point in the paper's
/// design space plus the deployment knobs the experiments sweep.
///
/// A spec is the only way to configure a model: every constructor takes
/// one. Knobs left at `None` fall back to the defaults that model's `new`
/// resolves, so a spec only states what it cares about:
///
/// ```
/// use dichotomy_systems::{SystemKind, SystemSpec};
/// let spec = SystemSpec::new(SystemKind::Quorum)
///     .with_nodes(7)
///     .with_blocks(100, 100_000);
/// let system = spec.build().unwrap();
/// assert_eq!(system.node_count(), 7);
/// ```
#[derive(Debug, Clone)]
pub struct SystemSpec {
    /// Which registered model to build.
    pub kind: SystemKind,
    /// Report label override (defaults to the kind's display name).
    pub label: Option<String>,
    /// Replicas: validators (Quorum), peers (Fabric), storage nodes
    /// (TiKV/etcd), replicas of each region's Raft group (TiDB), or nodes
    /// per shard for Spanner-like and AHL.
    pub nodes: Option<usize>,
    /// Stateless SQL frontends (TiDB servers). `None` derives them from
    /// `nodes` the way the paper's full-replication deployment does.
    pub frontends: Option<usize>,
    /// Shards; `None`/`Some(0)` means unsharded. A sharded TiDB has this
    /// many regions, each its own Raft group of `nodes` storage nodes
    /// (Figure 14); an unsharded one fully replicates
    /// [`REGIONS`](crate::tidb::REGIONS) regions over `nodes`.
    pub shards: Option<u32>,
    /// Consensus profile override (e.g. Raft vs IBFT for Quorum).
    pub consensus: Option<ProtocolKind>,
    /// Block cutting: maximum transactions per block.
    pub block_txns: Option<usize>,
    /// Block cutting: interval/timeout in simulated µs.
    pub block_interval_us: Option<u64>,
    /// Fabric endorsement divergence probability.
    pub endorsement_divergence: Option<f64>,
    /// AHL: whether shards are periodically re-formed.
    pub periodic_reconfiguration: Option<bool>,
    /// AHL: epoch length between reconfigurations (µs).
    pub epoch_us: Option<u64>,
    /// AHL: pause per reconfiguration (µs).
    pub reconfig_pause_us: Option<u64>,
    /// CPU cost model (defaults to the calibrated profile).
    pub costs: Option<CostModel>,
    /// Fault schedule (crashes, partitions, failovers, reconfigurations)
    /// injected into the deployment, making chaos experiments declarative
    /// plans. Honoured by every built-in model under the role-addressing
    /// convention: `NodeId(0)` is the model's primary (Raft leader, lead
    /// orderer, consensus proposer, 2PC coordinator) and `NodeId(1 + s)`
    /// shard/region `s`'s replication leader. AHL additionally consumes
    /// declarative `Reconfiguration` events as shard-pipeline pauses.
    pub faults: Option<FaultPlan>,
    /// RNG seed for the model's stochastic choices (Fabric's endorsement
    /// divergence is the one that draws).
    pub seed: Option<u64>,
}
// One third of a probe's identity (alongside the workload and driver specs):
// every knob, label included because the label reaches the report.
codec!(Encode for struct SystemSpec {
    kind,
    label,
    nodes,
    frontends,
    shards,
    consensus,
    block_txns,
    block_interval_us,
    endorsement_divergence,
    periodic_reconfiguration,
    epoch_us,
    reconfig_pause_us,
    costs,
    faults,
    seed,
});

impl SystemSpec {
    /// A spec for `kind` with every knob at the model's default.
    pub fn new(kind: SystemKind) -> Self {
        SystemSpec {
            kind,
            label: None,
            nodes: None,
            frontends: None,
            shards: None,
            consensus: None,
            block_txns: None,
            block_interval_us: None,
            endorsement_divergence: None,
            periodic_reconfiguration: None,
            epoch_us: None,
            reconfig_pause_us: None,
            costs: None,
            faults: None,
            seed: None,
        }
    }

    /// Override the report label.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Set the replica count.
    pub fn with_nodes(mut self, nodes: usize) -> Self {
        self.nodes = Some(nodes);
        self
    }

    /// Set the number of stateless SQL frontends (TiDB).
    pub fn with_frontends(mut self, frontends: usize) -> Self {
        self.frontends = Some(frontends);
        self
    }

    /// Set the shard count.
    pub fn with_shards(mut self, shards: u32) -> Self {
        self.shards = Some(shards);
        self
    }

    /// Set the consensus profile.
    pub fn with_consensus(mut self, protocol: ProtocolKind) -> Self {
        self.consensus = Some(protocol);
        self
    }

    /// Set the block-cutting limits (max transactions, interval µs).
    pub fn with_blocks(mut self, max_txns: usize, interval_us: u64) -> Self {
        self.block_txns = Some(max_txns);
        self.block_interval_us = Some(interval_us);
        self
    }

    /// Set the Fabric endorsement-divergence probability.
    pub fn with_endorsement_divergence(mut self, p: f64) -> Self {
        self.endorsement_divergence = Some(p);
        self
    }

    /// Enable/disable AHL's periodic shard reconfiguration.
    pub fn with_periodic_reconfiguration(mut self, on: bool) -> Self {
        self.periodic_reconfiguration = Some(on);
        self
    }

    /// Set AHL's reconfiguration cadence (epoch length, pause per epoch).
    pub fn with_reconfiguration(mut self, epoch_us: u64, pause_us: u64) -> Self {
        self.epoch_us = Some(epoch_us);
        self.reconfig_pause_us = Some(pause_us);
        self
    }

    /// Set the fault schedule.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Set the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// The label used in reports.
    pub fn label(&self) -> String {
        self.label
            .clone()
            .unwrap_or_else(|| self.kind.name().to_string())
    }

    /// Shard count, defaulting to unsharded.
    pub fn shard_count(&self) -> u32 {
        self.shards.unwrap_or(0)
    }

    /// When the primary (`NodeId(0)`) cannot serve: cut off from the rest
    /// of the cluster (`NodeId(1)`), with [`FAILOVER_US`] after each crash.
    pub(crate) fn primary_outages(&self) -> Outages {
        self.outages(NodeId(0), NodeId(1))
    }

    /// When shard `shard`'s leader (`NodeId(1 + shard)`) cannot serve: cut
    /// off from the coordinator, with [`FAILOVER_US`] after each crash.
    pub(crate) fn shard_leader_outages(&self, shard: u32) -> Outages {
        self.outages(NodeId(1 + u64::from(shard)), NodeId(0))
    }

    fn outages(&self, node: NodeId, peer: NodeId) -> Outages {
        let faults = self.faults.as_ref();
        faults.map_or_else(Outages::default, |f| f.outages(node, peer, FAILOVER_US))
    }

    /// Build through the built-in registry.
    pub fn build(&self) -> Result<Box<dyn TransactionalSystem>, UnknownSystem> {
        SystemRegistry::with_builtins().build(self)
    }

    /// This spec as the Section 5.6 forecast model's input, for transactions
    /// of `ops_per_txn` operations on `record_size`-byte records. Unset node
    /// counts and block sizes read as 4 and 500.
    pub fn hybrid_spec(&self, record_size: usize, ops_per_txn: usize) -> HybridSpec {
        let taxonomy = self.taxonomy();
        HybridSpec {
            name: self.label(),
            replication: taxonomy.replication,
            protocol: taxonomy.protocol,
            concurrency: taxonomy.concurrency,
            nodes: self.nodes.unwrap_or(4),
            txn_bytes: record_size * ops_per_txn,
            batch_size: self.block_txns.unwrap_or(500),
        }
    }

    /// Where this spec sits in the paper's design space.
    pub fn taxonomy(&self) -> TaxonomyPoint {
        let sharded = self.shard_count() > 1;
        let (replication, concurrency, ledger) = match self.kind {
            SystemKind::Quorum => (
                ReplicationModel::TransactionBased,
                ConcurrencyChoice::Serial,
                LedgerSupport::Yes,
            ),
            SystemKind::Fabric => (
                ReplicationModel::TransactionBased,
                ConcurrencyChoice::ConcurrentExecutionSerialCommit,
                LedgerSupport::Yes,
            ),
            SystemKind::TiDb => (
                ReplicationModel::StorageBased,
                ConcurrencyChoice::Concurrent,
                LedgerSupport::No,
            ),
            SystemKind::Etcd | SystemKind::Tikv => (
                ReplicationModel::StorageBased,
                ConcurrencyChoice::Serial,
                LedgerSupport::No,
            ),
            SystemKind::SpannerLike => (
                ReplicationModel::StorageBased,
                ConcurrencyChoice::Concurrent,
                LedgerSupport::No,
            ),
            SystemKind::Ahl => (
                ReplicationModel::TransactionBased,
                ConcurrencyChoice::Serial,
                LedgerSupport::Yes,
            ),
        };
        let protocol = self.consensus.unwrap_or(match self.kind {
            SystemKind::Fabric => ProtocolKind::SharedLog,
            SystemKind::Ahl => ProtocolKind::Pbft,
            _ => ProtocolKind::Raft,
        });
        let sharding = match self.kind {
            // The NewSQL databases shard behind a trusted coordinator as soon
            // as data spans regions; AHL runs BFT 2PC across shards.
            SystemKind::TiDb => ShardingSupport::TwoPcTrustedCoordinator,
            SystemKind::SpannerLike => ShardingSupport::TwoPcTrustedCoordinator,
            SystemKind::Ahl if sharded => ShardingSupport::TwoPcBftCoordinator,
            _ => ShardingSupport::None,
        };
        TaxonomyPoint {
            replication,
            protocol,
            concurrency,
            ledger,
            sharding,
        }
    }

    /// Derive a buildable spec from a Table 2 profile, if the profile's
    /// design point has a built-in model.
    pub fn from_profile(profile: &SystemProfile) -> Option<SystemSpec> {
        let kind = match profile.name {
            "Quorum v2.2" => SystemKind::Quorum,
            "Fabric v2.2" => SystemKind::Fabric,
            "TiDB v4.0" => SystemKind::TiDb,
            "etcd v3.3" => SystemKind::Etcd,
            "Spanner" => SystemKind::SpannerLike,
            _ => return None,
        };
        Some(SystemSpec::new(kind).with_consensus(profile.protocol))
    }

    /// Whether this spec's design-space coordinates agree with a Table 2
    /// profile (replication, concurrency, ledger and failure model).
    pub fn matches_profile(&self, profile: &SystemProfile) -> bool {
        let point = self.taxonomy();
        point.replication == profile.replication
            && point.concurrency == profile.concurrency
            && point.ledger == profile.ledger
            && point.protocol.failure_model() == profile.protocol.failure_model()
    }
}

/// A spec's coordinates in the paper's design space (Tables 1 and 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaxonomyPoint {
    /// What is replicated: the transaction log or the storage log.
    pub replication: ReplicationModel,
    /// The ordering/replication protocol.
    pub protocol: ProtocolKind,
    /// How transactions execute.
    pub concurrency: ConcurrencyChoice,
    /// Whether an append-only tamper-evident ledger is kept.
    pub ledger: LedgerSupport,
    /// Whether and how the system shards.
    pub sharding: ShardingSupport,
}

/// Error returned when no builder is registered for a spec's kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownSystem {
    /// The kind that had no registered builder.
    pub kind: SystemKind,
}

impl fmt::Display for UnknownSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "no builder registered for system kind {:?}", self.kind)
    }
}

impl std::error::Error for UnknownSystem {}

/// A builder function: spec in, boxed system model out.
pub type SystemBuilder = fn(&SystemSpec) -> Box<dyn TransactionalSystem>;

// The parallel plan executor shares specs and registries across worker
// threads (each worker *builds* its own model from the spec, so the boxed
// `TransactionalSystem` itself never crosses threads and needs no `Send`).
// Audit the thread-crossing types at compile time: a future knob that drags
// in an `Rc`/`RefCell` should fail here, not in a scheduler backtrace.
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = {
    _assert_send_sync::<SystemKind>();
    _assert_send_sync::<SystemSpec>();
    _assert_send_sync::<SystemBuilder>();
    _assert_send_sync::<SystemRegistry>();
};

/// Maps [`SystemSpec`]s onto concrete models.
///
/// The registry replaces the closed per-system `match` the experiments used
/// to hardcode: builders are plain function values keyed by [`SystemKind`],
/// so a caller can re-register a kind to swap in a variant model (or register
/// a kind the built-ins do not cover) without touching the experiment code.
pub struct SystemRegistry {
    builders: BTreeMap<SystemKind, SystemBuilder>,
}

impl SystemRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        SystemRegistry {
            builders: BTreeMap::new(),
        }
    }

    /// The registry with every built-in model registered.
    pub fn with_builtins() -> Self {
        let mut r = SystemRegistry::new();
        r.register(SystemKind::Fabric, |spec| Box::new(Fabric::new(spec)));
        r.register(SystemKind::Quorum, |spec| Box::new(Quorum::new(spec)));
        r.register(SystemKind::TiDb, |spec| Box::new(TiDb::new(spec)));
        r.register(SystemKind::Etcd, |spec| Box::new(Etcd::new(spec)));
        r.register(SystemKind::Tikv, |spec| Box::new(Tikv::new(spec)));
        r.register(SystemKind::SpannerLike, |spec| {
            Box::new(SpannerLike::new(spec))
        });
        r.register(SystemKind::Ahl, |spec| Box::new(Ahl::new(spec)));
        r
    }

    /// Register (or replace) the builder for `kind`.
    pub fn register(&mut self, kind: SystemKind, builder: SystemBuilder) {
        self.builders.insert(kind, builder);
    }

    /// The kinds with a registered builder.
    pub fn kinds(&self) -> Vec<SystemKind> {
        self.builders.keys().copied().collect()
    }

    /// Build the model a spec describes.
    pub fn build(&self, spec: &SystemSpec) -> Result<Box<dyn TransactionalSystem>, UnknownSystem> {
        self.builders
            .get(&spec.kind)
            .map(|builder| builder(spec))
            .ok_or(UnknownSystem { kind: spec.kind })
    }
}

impl Default for SystemRegistry {
    fn default() -> Self {
        SystemRegistry::with_builtins()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Engine;
    use dichotomy_common::{Key, Value};
    use dichotomy_hybrid::all_systems;

    #[test]
    fn every_builtin_kind_builds() {
        let registry = SystemRegistry::with_builtins();
        for kind in SystemKind::ALL {
            let mut system = registry.build(&SystemSpec::new(kind)).unwrap();
            assert_eq!(system.kind(), kind, "{kind:?}");
            assert!(system.node_count() > 0);
            // The service processes each default model registers: every
            // queue a run can saturate, by (name, servers).
            let mut engine = Engine::new();
            system.attach(&mut engine);
            let processes: Vec<(&str, usize)> = engine
                .processes()
                .iter()
                .map(|p| (p.name(), p.servers().capacity()))
                .collect();
            let expected: &[(&str, usize)] = match kind {
                SystemKind::Fabric => &[
                    ("fabric-endorsers", 20),
                    ("fabric-orderer", 1),
                    ("fabric-validator", 1),
                ],
                SystemKind::Quorum => &[
                    ("quorum-proposer", 1),
                    ("quorum-consensus", 1),
                    ("quorum-committer", 1),
                ],
                SystemKind::TiDb => &[("tidb-sql", 1), ("tikv-storage", 3)],
                SystemKind::Etcd | SystemKind::Tikv => &[("kv-apply", 1), ("kv-readers", 12)],
                SystemKind::SpannerLike | SystemKind::Ahl => &[("shard-pipe", 1); 4],
            };
            assert_eq!(processes, expected, "{kind:?}");
        }
        assert_eq!(registry.kinds().len(), SystemKind::ALL.len());
    }

    #[test]
    fn an_empty_registry_rejects_every_spec() {
        let registry = SystemRegistry::new();
        let err = registry
            .build(&SystemSpec::new(SystemKind::Etcd))
            .err()
            .expect("empty registry must not build");
        assert_eq!(err.kind, SystemKind::Etcd);
        assert!(err.to_string().contains("Etcd"));
    }

    #[test]
    fn node_and_block_knobs_reach_the_models() {
        let quorum = SystemSpec::new(SystemKind::Quorum)
            .with_nodes(9)
            .with_blocks(50, 10_000)
            .build()
            .unwrap();
        assert_eq!(quorum.node_count(), 9);
        // Fabric counts its 3 orderers on top of the peers.
        let fabric = SystemSpec::new(SystemKind::Fabric)
            .with_nodes(7)
            .build()
            .unwrap();
        assert_eq!(fabric.node_count(), 10);
        let etcd = SystemSpec::new(SystemKind::Etcd)
            .with_nodes(5)
            .build()
            .unwrap();
        assert_eq!(etcd.node_count(), 5);
    }

    #[test]
    fn a_sharded_tidb_spec_builds_the_partitioned_model() {
        let spec = SystemSpec::new(SystemKind::TiDb).with_shards(4);
        let mut system = spec.build().unwrap();
        assert_eq!(system.kind(), SystemKind::TiDb);
        // 6 SQL servers in front of 4 shards × 3 replicas, one storage
        // server per replica.
        assert_eq!(system.node_count(), 18);
        let mut engine = Engine::new();
        system.attach(&mut engine);
        let processes: Vec<(&str, usize)> = engine
            .processes()
            .iter()
            .map(|p| (p.name(), p.servers().capacity()))
            .collect();
        assert_eq!(processes, [("tidb-sql", 6), ("tikv-storage", 12)]);
    }

    #[test]
    fn a_replaced_builder_wins() {
        fn tiny_etcd(spec: &SystemSpec) -> Box<dyn TransactionalSystem> {
            Box::new(Etcd::new(&spec.clone().with_nodes(1)))
        }
        let mut registry = SystemRegistry::with_builtins();
        registry.register(SystemKind::Etcd, tiny_etcd);
        let system = registry
            .build(&SystemSpec::new(SystemKind::Etcd).with_nodes(99))
            .unwrap();
        assert_eq!(system.node_count(), 1);
    }

    #[test]
    fn labels_default_to_the_kind_name() {
        assert_eq!(SystemSpec::new(SystemKind::TiDb).label(), "TiDB");
        assert_eq!(
            SystemSpec::new(SystemKind::TiDb)
                .with_label("TiDB saturated")
                .label(),
            "TiDB saturated"
        );
    }

    #[test]
    fn taxonomy_points_follow_the_paper() {
        let quorum = SystemSpec::new(SystemKind::Quorum).taxonomy();
        assert_eq!(quorum.replication, ReplicationModel::TransactionBased);
        assert_eq!(quorum.ledger, LedgerSupport::Yes);
        let tidb = SystemSpec::new(SystemKind::TiDb).taxonomy();
        assert_eq!(tidb.replication, ReplicationModel::StorageBased);
        assert_eq!(tidb.concurrency, ConcurrencyChoice::Concurrent);
        assert_eq!(tidb.sharding, ShardingSupport::TwoPcTrustedCoordinator);
        let ahl = SystemSpec::new(SystemKind::Ahl).with_shards(4).taxonomy();
        assert_eq!(ahl.sharding, ShardingSupport::TwoPcBftCoordinator);
    }

    #[test]
    fn specs_derived_from_table2_match_their_profiles_and_build() {
        let mut derived = 0;
        for profile in all_systems() {
            if let Some(spec) = SystemSpec::from_profile(&profile) {
                derived += 1;
                assert!(
                    spec.matches_profile(&profile),
                    "{} disagrees with its own profile",
                    profile.name
                );
                assert!(spec.build().is_ok(), "{} failed to build", profile.name);
            }
        }
        // Quorum, Fabric v2.2, TiDB, etcd, Spanner.
        assert_eq!(derived, 5);
    }

    /// Everything observable about what `load` built, read off the
    /// snapshot `share_state` hands out (roots, key counts, footprints) plus
    /// the system's own footprint.
    fn loaded_state_digest(spec: &SystemSpec, records: &[(Key, Value)]) -> String {
        use crate::pipeline::VersionedKvState;
        use dichotomy_common::size::StorageFootprint;
        use dichotomy_storage::{BPlusTree, KvEngine, LsmTree};
        let mut system = spec.build().unwrap();
        system.load(records);
        let footprint = system.footprint();
        let state = system.share_state().expect("every builtin shares");
        let kv = |s: &VersionedKvState| {
            format!(
                "{} keys @v{} {:?} / {} keys {:?}",
                s.state.key_count(),
                s.state.latest_version(),
                s.state.footprint(),
                s.db.len(),
                s.db.footprint()
            )
        };
        let substrates = if let Some(s) = state.downcast_ref::<crate::quorum::QuorumState>() {
            format!(
                "{:?} {} keys {:?} / {} keys {:?}",
                s.trie.root_hash(),
                s.trie.len(),
                s.trie.footprint(),
                s.db.len(),
                s.db.footprint()
            )
        } else if let Some(s) = state.downcast_ref::<crate::sharded::AhlState>() {
            let mbt = (s.mbt.root_hash(), s.mbt.len(), s.mbt.footprint());
            format!("{} / {mbt:?}", kv(&s.db))
        } else if let Some(s) = state.downcast_ref::<VersionedKvState>() {
            kv(s)
        } else if let Some(s) = state.downcast_ref::<BPlusTree>() {
            format!("{} keys {:?}", s.len(), s.footprint())
        } else if let Some(s) = state.downcast_ref::<LsmTree>() {
            format!("{} keys {:?}", s.len(), s.footprint())
        } else {
            panic!("{:?} shared a snapshot this test does not know", spec.kind)
        };
        format!("{footprint:?} | {substrates}")
    }

    #[test]
    fn load_reads_nothing_outside_the_declared_state_shape() {
        use dichotomy_common::NodeId;
        use dichotomy_simnet::NodeFault;
        let records: Vec<(Key, Value)> = (0..400u32)
            .map(|i| {
                (
                    Key::from_str(&format!("user{i:08}")),
                    Value::filler(10 + i as usize % 90),
                )
            })
            .collect();
        let mut faults = FaultPlan::none();
        faults.add(NodeFault::crash_until(NodeId(0), 100, 900));
        faults.add_partition(vec![NodeId(1)], 50, Some(70));
        for kind in SystemKind::ALL {
            let plain = SystemSpec::new(kind);
            // Same kind, every other knob different.
            let mut other = plain
                .clone()
                .with_label("elsewhere")
                .with_nodes(9)
                .with_frontends(5)
                .with_shards(3)
                .with_consensus(ProtocolKind::Ibft)
                .with_blocks(3, 1_234)
                .with_endorsement_divergence(0.5)
                .with_periodic_reconfiguration(false)
                .with_reconfiguration(77, 7)
                .with_faults(faults.clone())
                .with_seed(0xfeed);
            other.costs = Some(CostModel::calibrated().without_crypto());
            assert_eq!(
                loaded_state_digest(&plain, &records),
                loaded_state_digest(&other, &records),
                "{kind:?}: load read a field other than the kind"
            );
            // The digest does see the records.
            assert_ne!(
                loaded_state_digest(&plain, &records),
                loaded_state_digest(&plain, &records[1..]),
            );
        }
    }

    #[test]
    fn foreign_profiles_do_not_match_mismatched_specs() {
        let systems = all_systems();
        let tidb_profile = systems.iter().find(|s| s.name == "TiDB v4.0").unwrap();
        let quorum = SystemSpec::new(SystemKind::Quorum);
        assert!(!quorum.matches_profile(tidb_profile));
    }
}
