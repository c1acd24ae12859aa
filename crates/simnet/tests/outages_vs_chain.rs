//! Property test: the `Outages` a [`FaultPlan`] compiles to (sorted,
//! merged windows, a permanent tail and a periodic term) answer every
//! start query exactly as a naive chain over the plan's raw, unmerged
//! windows does.

use dichotomy_common::rng::{self, Rng};
use dichotomy_common::{NodeId, Timestamp};
use dichotomy_simnet::{FaultPlan, NodeFault, Partition};

/// `(from, until)`, `until = None` for a window that never ends.
type Window = (Timestamp, Option<Timestamp>);

/// Start of work ready at `t` needing `d` µs against `windows` as given:
/// while any window overlaps `[t, t + max(d, 1))`, move to its end (or give
/// up on one that never ends).
fn naive_start(windows: &[Window], ready: Timestamp, d: u64) -> Option<Timestamp> {
    let mut t = ready;
    'chain: loop {
        for &(from, until) in windows {
            if from < t + d.max(1) && until.map_or(true, |u| t < u) {
                t = until?;
                continue 'chain;
            }
        }
        return Some(t);
    }
}

/// The raw windows the compile step is specified to take for `node`.
fn raw_windows(plan: &FaultPlan, node: NodeId, peer: NodeId, failover_us: u64) -> Vec<Window> {
    let crashes = plan.faults().iter().filter(|f| f.node == node);
    let failovers = plan.failovers().iter().filter(|_| node == NodeId(0));
    let cut = |p: &&Partition| p.group_a.contains(&node) != p.group_a.contains(&peer);
    (crashes.map(|f| (f.from, f.until.map(|u| u + failover_us))))
        .chain(failovers.map(|f| (f.at, Some(f.at + f.duration_us))))
        .chain(
            plan.partitions()
                .iter()
                .filter(cut)
                .map(|p| (p.from, p.until)),
        )
        .collect()
}

/// A plan of up to four crashes, two failovers and two partitions over
/// nodes 0–2, about one in eight never healing.
fn random_plan(rng: &mut impl Rng) -> FaultPlan {
    let mut plan = FaultPlan::none();
    let window = |rng: &mut dyn FnMut() -> u64| {
        let from = rng() % 20_000;
        (from, from + 1 + rng() % 3_000, rng() % 8 != 0)
    };
    let mut draw = || rng.next_u64();
    for _ in 0..(draw() % 5) {
        let (node, (from, until, heals)) = (NodeId(draw() % 3), window(&mut draw));
        plan.add(match heals {
            true => NodeFault::crash_until(node, from, until),
            false => NodeFault::crash(node, from),
        });
    }
    for _ in 0..(draw() % 3) {
        let (from, until, _) = window(&mut draw);
        plan.add_failover(from, until - from);
    }
    for _ in 0..(draw() % 3) {
        let group: Vec<NodeId> = (0..3).filter(|_| draw() % 2 == 0).map(NodeId).collect();
        let (from, until, heals) = window(&mut draw);
        plan.add_partition(group, from, heals.then_some(until));
    }
    plan
}

#[test]
fn compiled_outages_match_the_naive_chain_over_raw_windows() {
    let mut rng = rng::seeded(0x0A7A9E);
    let mut queries = 0u64;
    for _ in 0..400 {
        let plan = random_plan(&mut rng);
        let failover_us = rng.gen_range(0..500u64);
        for (node, peer) in [(0, 1), (1, 0), (2, 0)] {
            let (node, peer) = (NodeId(node), NodeId(peer));
            let mut raw = raw_windows(&plan, node, peer, failover_us);
            let mut outages = plan.outages(node, peer, failover_us);
            // Half the plans also carry an epoch term, spelled out as
            // explicit windows for the naive chain up to past any query.
            let period = rng.gen_range(1_000..6_000u64);
            let len = rng.gen_range(1..period);
            let periodic = rng.gen_bool(0.5);
            if periodic {
                outages.every(period, len);
                raw.extend((1..=60_000 / period).map(|k| (k * period, Some(k * period + len))));
            }
            for _ in 0..40 {
                let ready = rng.gen_range(0..25_000u64);
                let d = if periodic {
                    rng.gen_range(0..=(period - len))
                } else {
                    rng.gen_range(0..2_000u64)
                };
                assert_eq!(
                    outages.start(ready, d),
                    naive_start(&raw, ready, d),
                    "node {node:?}, ready {ready}, d {d}, raw {raw:?}, periodic {periodic}"
                );
                queries += 1;
            }
        }
    }
    assert_eq!(queries, 400 * 3 * 40);
}
