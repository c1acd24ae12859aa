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
//! `s`'s replication leader in the sharded models. [`FaultPlan::release_at`]
//! is the one query models ask on their injection path: "given work that
//! wants to start at `t` on `node`, when may it actually start?" — chaining
//! crash heals (+ failover pause) and declarative [`Failover`] windows until
//! the node is clear, failing closed on unresolvable chains.

use std::collections::BTreeSet;

use dichotomy_common::{codec, Diagnostic, NodeId, Severity, Timestamp};

/// A single fault with a start time and an optional end time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeFault {
    /// The affected node.
    pub node: NodeId,
    /// When the fault begins.
    pub from: Timestamp,
    /// When the fault heals (`None` = permanent).
    pub until: Option<Timestamp>,
    /// What kind of fault.
    pub kind: FaultKind,
}
codec!(Encode for struct NodeFault { node, from, until, kind });

/// The kinds of faults the simulator can inject. A plan's faults are all
/// crashes; the kind stays part of a fault's wire form, so probe keys carry
/// its tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The node stops participating entirely (crash-stop, possibly healing).
    Crash,
}
codec!(Encode for enum FaultKind { Crash = 0 });

impl NodeFault {
    /// A crash starting at `from` and lasting forever.
    pub fn crash(node: NodeId, from: Timestamp) -> Self {
        NodeFault {
            node,
            from,
            until: None,
            kind: FaultKind::Crash,
        }
    }

    /// A crash that heals at `until`.
    pub fn crash_until(node: NodeId, from: Timestamp, until: Timestamp) -> Self {
        NodeFault {
            node,
            from,
            until: Some(until),
            kind: FaultKind::Crash,
        }
    }

    /// Whether the fault is active at time `t`.
    pub fn active_at(&self, t: Timestamp) -> bool {
        t >= self.from && self.until.map_or(true, |u| t < u)
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

impl Partition {
    /// Whether the partition is active at time `t`.
    pub fn active_at(&self, t: Timestamp) -> bool {
        t >= self.from && self.until.map_or(true, |u| t < u)
    }

    /// Whether the partition separates `a` from `b` at time `t`.
    pub fn separates(&self, a: NodeId, b: NodeId, t: Timestamp) -> bool {
        self.active_at(t) && (self.group_a.contains(&a) != self.group_a.contains(&b))
    }
}

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

impl Failover {
    /// When the handover completes and the role is serviceable again.
    pub fn until(&self) -> Timestamp {
        self.at.saturating_add(self.duration_us)
    }

    /// Whether the handover is in progress at `t`.
    pub fn active_at(&self, t: Timestamp) -> bool {
        t >= self.at && t < self.until()
    }
}

/// A declarative membership reconfiguration: at `at`, every shard pipeline
/// pauses for `pause_us` while the epoch rolls over (AHL's periodic shard
/// re-formation made schedulable). `churn: true` additionally advances AHL's
/// shard-formation epoch, which only its node-to-shard plan reads; key→shard
/// placement is a fixed hash, so for every transaction the event is a pure
/// pause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reconfiguration {
    /// The epoch boundary.
    pub at: Timestamp,
    /// How long the shard pipelines stall (µs).
    pub pause_us: u64,
    /// Whether the shard-formation epoch advances at the boundary.
    pub churn: bool,
}
codec!(Encode for struct Reconfiguration { at, pause_us, churn });

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

    /// If `node` is crashed at `t`, when the crash heals: `Some(Some(u))`
    /// for a crash healing at `u` (the latest, if several overlap),
    /// `Some(None)` for a permanent crash, `None` when the node is up.
    pub fn crashed_until(&self, node: NodeId, t: Timestamp) -> Option<Option<Timestamp>> {
        let mut hit = None;
        for f in self
            .faults
            .iter()
            .filter(|f| f.node == node && f.active_at(t))
        {
            hit = Some(match (hit, f.until) {
                (Some(None), _) | (_, None) => None,
                (Some(Some(prev)), Some(u)) => Some(u.max(prev)),
                (None, Some(u)) => Some(u),
            });
        }
        hit
    }

    /// Schedule a primary handover (see [`Failover`]).
    pub fn add_failover(&mut self, at: Timestamp, duration_us: u64) -> &mut Self {
        self.failovers.push(Failover { at, duration_us });
        self
    }

    /// Schedule a membership reconfiguration (see [`Reconfiguration`]).
    pub fn add_reconfiguration(&mut self, at: Timestamp, pause_us: u64, churn: bool) -> &mut Self {
        self.reconfigurations.push(Reconfiguration {
            at,
            pause_us,
            churn,
        });
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

    /// The latest timestamp the plan mentions (fault start/heal, partition
    /// window, failover end, reconfiguration end), or 0 for an empty plan.
    /// Permanent faults/partitions count only their start.
    pub fn max_time(&self) -> Timestamp {
        let fault_edge = |from: Timestamp, until: Option<Timestamp>| until.unwrap_or(from);
        self.faults
            .iter()
            .map(|f| fault_edge(f.from, f.until))
            .chain(self.partitions.iter().map(|p| fault_edge(p.from, p.until)))
            .chain(self.failovers.iter().map(Failover::until))
            .chain(
                self.reconfigurations
                    .iter()
                    .map(|r| r.at.saturating_add(r.pause_us)),
            )
            .max()
            .unwrap_or(0)
    }

    /// When work wanting to start at `at` on `node` may actually start:
    /// `Some(at)` if the node is clear, a later time once overlapping crash
    /// windows (each adding `failover_us` of re-election pause on heal) and
    /// [`Failover`] windows have elapsed, or `None` if the node is down for
    /// good (a permanent crash, or a chain of faults too deep to resolve —
    /// the query fails *closed* rather than committing inside an unresolved
    /// window).
    pub fn release_at(&self, node: NodeId, at: Timestamp, failover_us: u64) -> Option<Timestamp> {
        let mut t = at;
        // Bounded chaining: back-to-back faults are legitimate (a crash heals
        // into a scheduled failover), unbounded chains are a mis-specified
        // plan.
        for _ in 0..16 {
            if let Some(heal) = self.crashed_until(node, t) {
                match heal {
                    Some(heal) => t = heal.saturating_add(failover_us),
                    None => return None,
                }
                continue;
            }
            if let Some(until) = self
                .failovers
                .iter()
                .filter(|f| f.active_at(t))
                .map(Failover::until)
                .max()
            {
                t = until;
                continue;
            }
            return Some(t);
        }
        None
    }

    /// When a message between `a` and `b` wanting to leave at `t` may
    /// actually be delivered: `Some(t)` if no active partition separates
    /// them, the latest heal time of the separating partitions otherwise,
    /// `None` if a permanent partition (or an unresolvable chain of
    /// partitions) keeps them apart. Crash state is *not* consulted — pair
    /// with [`release_at`](Self::release_at) for that.
    pub fn partition_release(&self, a: NodeId, b: NodeId, t: Timestamp) -> Option<Timestamp> {
        let mut t = t;
        for _ in 0..16 {
            let mut heal: Option<Option<Timestamp>> = None;
            for p in self.partitions.iter().filter(|p| p.separates(a, b, t)) {
                heal = Some(match (heal, p.until) {
                    (Some(None), _) | (_, None) => None,
                    (Some(Some(prev)), Some(u)) => Some(u.max(prev)),
                    (None, Some(u)) => Some(u),
                });
            }
            match heal {
                None => return Some(t),
                Some(None) => return None,
                Some(Some(u)) => t = u,
            }
        }
        None
    }

    /// The combined primary-role query the pipeline models ask: when may
    /// work wanting to start at `at` on the primary (`NodeId(0)`, per the
    /// role-addressing convention) actually start, considering crash windows
    /// (+ `failover_us` re-election pause per heal), [`Failover`] windows,
    /// *and* partitions cutting the primary off from the rest of the cluster
    /// (represented by `NodeId(1)`)? Iterated to a fixed point; `None` means
    /// the primary is unreachable for good.
    pub fn primary_release(&self, at: Timestamp, failover_us: u64) -> Option<Timestamp> {
        let mut t = at;
        for _ in 0..8 {
            let clear = self.release_at(NodeId(0), t, failover_us)?;
            let reachable = self.partition_release(NodeId(0), NodeId(1), clear)?;
            if reachable == t {
                return Some(t);
            }
            t = reachable;
        }
        None
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
    ///   semantics [`crashed_until`](Self::crashed_until) already applies,
    ///   made explicit in the plan.
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

    #[test]
    fn crash_window_semantics() {
        let f = NodeFault::crash_until(NodeId(1), 100, 200);
        assert!(!f.active_at(99));
        assert!(f.active_at(100));
        assert!(f.active_at(199));
        assert!(!f.active_at(200));
    }

    #[test]
    fn permanent_crash_never_heals() {
        let f = NodeFault::crash(NodeId(1), 10);
        assert!(f.active_at(u64::MAX));
    }

    #[test]
    fn crashed_until_reports_the_heal_time() {
        let mut plan = FaultPlan::none();
        plan.add(NodeFault::crash_until(NodeId(1), 100, 200));
        plan.add(NodeFault::crash_until(NodeId(1), 150, 400));
        plan.add(NodeFault::crash(NodeId(2), 50));
        assert_eq!(plan.crashed_until(NodeId(1), 99), None);
        // Overlapping crashes heal at the latest end.
        assert_eq!(plan.crashed_until(NodeId(1), 160), Some(Some(400)));
        assert_eq!(plan.crashed_until(NodeId(1), 399), Some(Some(400)));
        assert_eq!(plan.crashed_until(NodeId(1), 400), None);
        assert_eq!(plan.crashed_until(NodeId(2), 60), Some(None));
    }

    #[test]
    fn partitions_separate_only_across_the_cut() {
        let mut plan = FaultPlan::none();
        plan.add_partition([NodeId(0), NodeId(1)], 10, Some(20));
        let separated = |a, b, t| plan.partitions()[0].separates(NodeId(a), NodeId(b), t);
        // Across the cut: separated while active.
        assert!(separated(0, 3, 15));
        assert!(separated(3, 1, 15));
        // Same side: fine.
        assert!(!separated(0, 1, 15));
        assert!(!separated(3, 4, 15));
        // Healed.
        assert!(!separated(0, 3, 25));
    }

    #[test]
    fn release_at_passes_a_clear_node_through_unchanged() {
        let plan = FaultPlan::none();
        assert_eq!(plan.release_at(NodeId(0), 123, 5_000), Some(123));
        assert!(plan.is_empty());
        assert_eq!(plan.max_time(), 0);
    }

    #[test]
    fn release_at_chains_crash_heal_failover_pause_and_failover_windows() {
        let mut plan = FaultPlan::none();
        plan.add(NodeFault::crash_until(NodeId(0), 100, 200));
        // A failover window that starts exactly where the crash's failover
        // pause lands: the chain must ride through both.
        plan.add_failover(250, 100);
        // Before the crash: clear.
        assert_eq!(plan.release_at(NodeId(0), 50, 50), Some(50));
        // Inside the crash: heal (200) + failover pause (50) = 250, which is
        // inside the failover window [250, 350) → released at 350.
        assert_eq!(plan.release_at(NodeId(0), 150, 50), Some(350));
        // Inside the failover window alone: released at its end.
        assert_eq!(plan.release_at(NodeId(0), 300, 50), Some(350));
        // Other nodes are untouched by failovers of the same plan? No —
        // failover windows model the *role*, not a node, so they apply to
        // whatever node is queried. Crash faults stay per-node.
        assert_eq!(plan.release_at(NodeId(3), 150, 50), Some(150));
        assert_eq!(plan.max_time(), 350);
    }

    #[test]
    fn release_at_fails_closed_on_permanent_crashes() {
        let mut plan = FaultPlan::none();
        plan.add(NodeFault::crash(NodeId(1), 10));
        assert_eq!(plan.release_at(NodeId(1), 50, 1_000), None);
        assert_eq!(plan.release_at(NodeId(1), 5, 1_000), Some(5));
    }

    #[test]
    fn partition_release_reports_the_heal_time_across_the_cut() {
        let mut plan = FaultPlan::none();
        plan.add_partition([NodeId(0)], 100, Some(300));
        // Same side or inactive: immediate.
        assert_eq!(plan.partition_release(NodeId(1), NodeId(2), 150), Some(150));
        assert_eq!(plan.partition_release(NodeId(0), NodeId(1), 50), Some(50));
        // Across the cut while active: released at the heal.
        assert_eq!(plan.partition_release(NodeId(0), NodeId(1), 150), Some(300));
        // A permanent partition never releases.
        plan.add_partition([NodeId(0)], 400, None);
        assert_eq!(plan.partition_release(NodeId(0), NodeId(1), 450), None);
        // ... and a windowed one that heals into it chains to None too.
        assert_eq!(plan.partition_release(NodeId(0), NodeId(1), 150), Some(300));
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
        // Merged semantics match the query the models actually ask.
        assert_eq!(
            sane.crashed_until(NodeId(1), 160),
            plan.crashed_until(NodeId(1), 160)
        );
    }

    #[test]
    fn validate_drops_events_past_the_horizon_with_a_warning() {
        let mut plan = FaultPlan::none();
        plan.add(NodeFault::crash_until(NodeId(0), 100, 200));
        plan.add(NodeFault::crash_until(NodeId(0), 5_000, 6_000));
        plan.add_partition([NodeId(0)], 7_000, Some(8_000));
        plan.add_failover(9_000, 10);
        plan.add_reconfiguration(500, 50, true);
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
        plan.add_reconfiguration(1_000, 250, false);
        plan.add_reconfiguration(2_000, 250, true);
        assert_eq!(plan.reconfigurations().len(), 2);
        assert!(!plan.reconfigurations()[0].churn);
        assert!(plan.reconfigurations()[1].churn);
        assert_eq!(plan.max_time(), 2_250);
        assert!(!plan.is_empty());
        let f = Failover {
            at: 10,
            duration_us: 5,
        };
        assert!(f.active_at(10) && f.active_at(14) && !f.active_at(15));
    }
}
