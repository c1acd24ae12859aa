//! Fault injection: node crashes, recoveries, network partitions,
//! coordinator failovers and epoch reconfigurations.
//!
//! The replication dimension of the taxonomy (Section 3.1.3) is about which
//! failures a protocol tolerates. A plan holds crash faults and partitions
//! only; Byzantine tolerance enters the models through the closed-form BFT
//! replication profiles in `dichotomy-consensus`, not through a plan.
//!
//! A [`FaultPlan`] is a declarative *fault algebra* consumed by every system
//! model. The addressing convention is role-based: `NodeId(0)` is the
//! model's primary (Raft leader, Fabric lead orderer, Quorum proposer, the
//! 2PC coordinator of the sharded models), and `NodeId(1 + s)` is shard
//! `s`'s replication leader in the sharded models. A model compiles the plan
//! once, per role, into the [`Outages`] of the station that hosts the role
//! ([`FaultPlan::outages`]): a crash window extended by the re-election
//! pause, a [`Failover`] window (the primary only) and a partition that cuts
//! the role off from its peer all become windows in which that station
//! starts no work. A role no station hosts asks the same
//! [`Outages::start`] question at its decision point.

use std::collections::BTreeSet;

use dichotomy_common::{codec, Diagnostic, NodeId, Severity, Timestamp};

use crate::outage::Outages;

/// A crash-stop fault of one node, with a start time and an optional heal
/// time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeFault {
    /// The affected node.
    pub node: NodeId,
    /// When the fault begins.
    pub from: Timestamp,
    /// When the fault heals (`None` = permanent).
    pub until: Option<Timestamp>,
}
codec!(Encode for struct NodeFault { node, from, until });

impl NodeFault {
    /// A crash starting at `from` and lasting forever.
    pub fn crash(node: NodeId, from: Timestamp) -> Self {
        NodeFault {
            node,
            from,
            until: None,
        }
    }

    /// A crash that heals at `until`.
    pub fn crash_until(node: NodeId, from: Timestamp, until: Timestamp) -> Self {
        NodeFault {
            node,
            from,
            until: Some(until),
        }
    }
}

/// A network partition separating two groups of nodes for a time window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// One side of the partition; every node not in `group_a` is implicitly
    /// on the other side.
    pub group_a: BTreeSet<NodeId>,
    /// When the partition begins.
    pub from: Timestamp,
    /// When it heals (`None` = permanent).
    pub until: Option<Timestamp>,
}
codec!(Encode for struct Partition { group_a, from, until });

/// A declarative coordinator/primary handover: the role addressed by
/// `NodeId(0)` is unavailable for `[at, at + duration_us)` while leadership
/// moves (a planned leader election, an orderer handover, a 2PC coordinator
/// failover). Unlike a crash there is no extra failover pause on top — the
/// window *is* the handover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Failover {
    /// When the handover begins.
    pub at: Timestamp,
    /// How long the role is unavailable (µs).
    pub duration_us: u64,
}
codec!(Encode for struct Failover { at, duration_us });

/// A declarative membership reconfiguration: at `at`, every shard pipeline
/// pauses for `pause_us` while the epoch rolls over (AHL's periodic shard
/// re-formation made schedulable). Key→shard placement is a fixed hash, so
/// to every transaction the event is a pure pause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reconfiguration {
    /// The epoch boundary.
    pub at: Timestamp,
    /// How long the shard pipelines stall (µs).
    pub pause_us: u64,
}
codec!(Encode for struct Reconfiguration { at, pause_us });

/// The complete fault schedule for a run.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    faults: Vec<NodeFault>,
    partitions: Vec<Partition>,
    failovers: Vec<Failover>,
    reconfigurations: Vec<Reconfiguration>,
}
// A fault schedule is part of a probe's identity: two measurements differing
// only in their fault plans are different measurements.
codec!(Encode for struct FaultPlan { faults, partitions, failovers, reconfigurations });

impl FaultPlan {
    /// No faults at all.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Add a node fault.
    pub fn add(&mut self, fault: NodeFault) -> &mut Self {
        self.faults.push(fault);
        self
    }

    /// Add a partition between `group_a` and the rest of the cluster.
    pub fn add_partition(
        &mut self,
        group_a: impl IntoIterator<Item = NodeId>,
        from: Timestamp,
        until: Option<Timestamp>,
    ) -> &mut Self {
        self.partitions.push(Partition {
            group_a: group_a.into_iter().collect(),
            from,
            until,
        });
        self
    }

    /// Schedule a primary handover (see [`Failover`]).
    pub fn add_failover(&mut self, at: Timestamp, duration_us: u64) -> &mut Self {
        self.failovers.push(Failover { at, duration_us });
        self
    }

    /// Schedule a membership reconfiguration (see [`Reconfiguration`]).
    pub fn add_reconfiguration(&mut self, at: Timestamp, pause_us: u64) -> &mut Self {
        self.reconfigurations.push(Reconfiguration { at, pause_us });
        self
    }

    /// The node faults, in insertion order.
    pub fn faults(&self) -> &[NodeFault] {
        &self.faults
    }

    /// The partitions, in insertion order.
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// The failover windows, in insertion order.
    pub fn failovers(&self) -> &[Failover] {
        &self.failovers
    }

    /// The reconfiguration events, in insertion order.
    pub fn reconfigurations(&self) -> &[Reconfiguration] {
        &self.reconfigurations
    }

    /// Whether the plan schedules nothing at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
            && self.partitions.is_empty()
            && self.failovers.is_empty()
            && self.reconfigurations.is_empty()
    }

    /// Compile the plan into the outages of the station hosting `node`'s
    /// role: its crash windows, each extended by `failover_us` of
    /// re-election pause; the [`Failover`] windows if `node` is the primary
    /// (`NodeId(0)`); and the partitions that separate `node` from `peer`,
    /// the node the role must reach. A window that never heals is the tail.
    pub fn outages(&self, node: NodeId, peer: NodeId, failover_us: u64) -> Outages {
        let crashes = self
            .faults
            .iter()
            .filter(|f| f.node == node)
            .map(|f| (f.from, f.until.map(|u| u.saturating_add(failover_us))));
        let failovers = self
            .failovers
            .iter()
            .filter(|_| node == NodeId(0))
            .map(|f| (f.at, Some(f.at.saturating_add(f.duration_us))));
        let partitions = self
            .partitions
            .iter()
            .filter(|p| p.group_a.contains(&node) != p.group_a.contains(&peer))
            .map(|p| (p.from, p.until));
        Outages::new(crashes.chain(failovers).chain(partitions))
    }

    /// Validate the plan against a run horizon (satellite of the chaos
    /// engine): returns a sanitized plan plus structured diagnostics
    /// (`S001`/`S002`, [`Locus::None`](dichotomy_common::Locus::None) — the
    /// caller knows the experiment/row/probe and attaches the plan locus).
    ///
    /// * `S001` — events scheduled at or past `horizon` (they could never
    ///   influence the run) are dropped. `None` skips the horizon check.
    /// * `S002` — overlapping (or touching) crash windows on the same node
    ///   are merged into one window healing at the latest end — the
    ///   semantics [`outages`](Self::outages) already applies, made explicit
    ///   in the plan.
    pub fn validate(&self, horizon: Option<Timestamp>) -> (FaultPlan, Vec<Diagnostic>) {
        let mut diags = Vec::new();
        let mut plan = self.clone();

        if let Some(h) = horizon {
            let mut drop_past = |what: &str, from: Timestamp| {
                let keep = from < h;
                if !keep {
                    diags.push(
                        Diagnostic::new(
                            "S001",
                            Severity::Warn,
                            format!(
                                "{what} scheduled at {from} µs starts at/after the run horizon \
                                 ({h} µs) and was dropped"
                            ),
                        )
                        .with_help("move the event inside the arrival horizon or extend the run"),
                    );
                }
                keep
            };
            plan.faults.retain(|f| drop_past("node fault", f.from));
            plan.partitions.retain(|p| drop_past("partition", p.from));
            plan.failovers.retain(|f| drop_past("failover", f.at));
            plan.reconfigurations
                .retain(|r| drop_past("reconfiguration", r.at));
        }

        // Merge overlapping same-node crash windows (stable: merged windows
        // replace the first member in place, later members are removed).
        let mut merged: Vec<NodeFault> = Vec::with_capacity(plan.faults.len());
        for fault in plan.faults.drain(..) {
            let overlap = merged.iter_mut().find(|m| {
                m.node == fault.node
                    && m.from <= fault.until.unwrap_or(Timestamp::MAX)
                    && fault.from <= m.until.unwrap_or(Timestamp::MAX)
            });
            match overlap {
                Some(m) => {
                    diags.push(
                        Diagnostic::new(
                            "S002",
                            Severity::Warn,
                            format!(
                                "overlapping crash windows on node {} merged into one \
                                 ([{}, {:?}) ∪ [{}, {:?}))",
                                fault.node.0, m.from, m.until, fault.from, fault.until
                            ),
                        )
                        .with_help("declare one crash window per node interval"),
                    );
                    m.from = m.from.min(fault.from);
                    m.until = match (m.until, fault.until) {
                        (Some(a), Some(b)) => Some(a.max(b)),
                        _ => None,
                    };
                }
                None => merged.push(fault),
            }
        }
        plan.faults = merged;
        (plan, diags)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// When an instant at `t` is clear of `node`'s outages (peer `NodeId(1)`
    /// for the primary, the coordinator for anyone else).
    fn clear_at(plan: &FaultPlan, node: u64, t: Timestamp, failover_us: u64) -> Option<Timestamp> {
        let peer = NodeId(u64::from(node == 0));
        plan.outages(NodeId(node), peer, failover_us).start(t, 0)
    }

    #[test]
    fn crash_window_semantics() {
        let mut plan = FaultPlan::none();
        plan.add(NodeFault::crash_until(NodeId(1), 100, 200));
        let at = |t, failover_us| clear_at(&plan, 1, t, failover_us);
        let healed = [at(99, 0), at(100, 0), at(199, 0), at(200, 0)];
        assert_eq!(healed, [99, 200, 200, 200].map(Some));
        // The re-election pause after the heal is part of the outage.
        assert_eq!([at(100, 50), at(220, 50)], [Some(250); 2]);
    }

    #[test]
    fn permanent_crash_never_heals() {
        let mut plan = FaultPlan::none();
        plan.add(NodeFault::crash(NodeId(1), 10));
        let at = |t| clear_at(&plan, 1, t, 1_000);
        assert_eq!([at(5), at(50), at(u64::MAX - 1)], [Some(5), None, None]);
    }

    #[test]
    fn overlapping_crashes_heal_at_the_latest_end() {
        let mut plan = FaultPlan::none();
        plan.add(NodeFault::crash_until(NodeId(1), 100, 200));
        plan.add(NodeFault::crash_until(NodeId(1), 150, 400));
        plan.add(NodeFault::crash(NodeId(2), 50));
        let healed = [99, 160, 399, 400].map(|t| clear_at(&plan, 1, t, 0));
        assert_eq!(healed, [99, 400, 400, 400].map(Some));
        assert_eq!(clear_at(&plan, 2, 60, 0), None);
    }

    #[test]
    fn partitions_separate_only_across_the_cut() {
        let mut plan = FaultPlan::none();
        plan.add_partition([NodeId(0), NodeId(1)], 10, Some(20));
        let cut = |plan: &FaultPlan, (node, peer), t| {
            plan.outages(NodeId(node), NodeId(peer), 0).start(t, 0)
        };
        // Held up across the cut while active; same side or healed: clear.
        let across = [(0, 3), (3, 1)].map(|pair| cut(&plan, pair, 15));
        let same_side = [(0, 1), (3, 4)].map(|pair| cut(&plan, pair, 15));
        assert_eq!((across, same_side), ([Some(20); 2], [Some(15); 2]));
        assert_eq!(cut(&plan, (0, 3), 25), Some(25));
        // A permanent partition is the permanent tail.
        plan.add_partition([NodeId(0)], 400, None);
        assert_eq!(cut(&plan, (0, 1), 450), None);
        assert_eq!(cut(&plan, (0, 1), 150), Some(150));
    }

    #[test]
    fn an_empty_plan_compiles_to_no_outage() {
        let plan = FaultPlan::none();
        assert!(plan.outages(NodeId(0), NodeId(1), 5_000).is_empty());
        assert!(plan.is_empty());
    }

    #[test]
    fn crash_heal_failover_pause_and_failover_windows_chain() {
        let mut plan = FaultPlan::none();
        plan.add(NodeFault::crash_until(NodeId(0), 100, 200));
        // A failover window that starts exactly where the crash's failover
        // pause ends: the chain must ride through both.
        plan.add_failover(250, 100);
        // Before the crash: clear.
        assert_eq!(clear_at(&plan, 0, 50, 50), Some(50));
        // Inside the crash: heal (200) + failover pause (50) = 250, which
        // opens the failover window [250, 350) → released at 350.
        assert_eq!(clear_at(&plan, 0, 150, 50), Some(350));
        // Inside the failover window alone: released at its end.
        assert_eq!(clear_at(&plan, 0, 300, 50), Some(350));
    }

    #[test]
    fn a_failover_holds_up_only_the_primary() {
        let mut plan = FaultPlan::none();
        plan.add_failover(250, 100);
        assert_eq!(clear_at(&plan, 0, 300, 50), Some(350));
        // The handover is the primary's: a shard leader serves through it.
        assert_eq!(clear_at(&plan, 3, 300, 50), Some(300));
        assert!(plan.outages(NodeId(3), NodeId(0), 50).is_empty());
    }

    #[test]
    fn validate_merges_overlapping_crash_windows_with_a_warning() {
        let mut plan = FaultPlan::none();
        plan.add(NodeFault::crash_until(NodeId(1), 100, 200));
        plan.add(NodeFault::crash_until(NodeId(1), 150, 400));
        plan.add(NodeFault::crash_until(NodeId(2), 120, 180)); // other node: kept
        let (sane, diags) = plan.validate(None);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "S002");
        assert_eq!(diags[0].severity, Severity::Warn);
        assert!(diags[0]
            .message
            .contains("overlapping crash windows on node 1"));
        let crashes = sane.faults();
        assert_eq!(crashes.len(), 2);
        assert_eq!((crashes[0].from, crashes[0].until), (100, Some(400)));
        assert_eq!(crashes[1].node, NodeId(2));
        // Merged semantics match the outages the models compile.
        assert_eq!(
            sane.outages(NodeId(1), NodeId(0), 10),
            plan.outages(NodeId(1), NodeId(0), 10)
        );
    }

    #[test]
    fn validate_drops_events_past_the_horizon_with_a_warning() {
        let mut plan = FaultPlan::none();
        plan.add(NodeFault::crash_until(NodeId(0), 100, 200));
        plan.add(NodeFault::crash_until(NodeId(0), 5_000, 6_000));
        plan.add_partition([NodeId(0)], 7_000, Some(8_000));
        plan.add_failover(9_000, 10);
        plan.add_reconfiguration(500, 50);
        let (sane, diags) = plan.validate(Some(1_000));
        assert_eq!(diags.len(), 3, "{diags:?}");
        assert!(diags.iter().all(|d| d.code == "S001"));
        assert_eq!(sane.faults().len(), 1);
        assert!(sane.partitions().is_empty());
        assert!(sane.failovers().is_empty());
        assert_eq!(sane.reconfigurations().len(), 1);
        // Without a horizon nothing is dropped.
        let (all, no_diags) = plan.validate(None);
        assert_eq!(all.faults().len(), 2);
        assert!(no_diags.is_empty());
    }

    #[test]
    fn reconfigurations_and_failovers_are_plain_inspectable_data() {
        let mut plan = FaultPlan::none();
        plan.add_reconfiguration(1_000, 250);
        plan.add_reconfiguration(2_000, 250);
        plan.add_failover(10, 5);
        assert_eq!(plan.reconfigurations()[1].at, 2_000);
        assert_eq!(plan.failovers()[0].duration_us, 5);
        assert!(!plan.is_empty());
        // Reconfigurations are AHL's to apply: no role's outages carry them.
        assert!(plan.outages(NodeId(1), NodeId(0), 0).is_empty());
    }
}
