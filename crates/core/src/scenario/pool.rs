//! The executor: runs the probes of one or more plans on a worker pool,
//! deduplicated, grouped by state and cached, and reassembles each report
//! in plan order.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

use dichotomy_systems::SystemRegistry;

use super::probe::{
    extract, observe, predicted_probe_cost, probe_key_bytes, state_group_key, GroupState,
    ProbeCache, ProbeResult,
};
use super::{ExperimentPlan, PlannedRun, Probe};
use crate::experiments::{ExperimentReport, ProbeFailure, Row};

/// How [`run_plan_with`] executes a plan's probes.
///
/// Every probe drives its own engine + system pair (systems of one state
/// group start as forks of one loaded state, invisibly), so probes run on a
/// worker pool: results are reassembled in plan order and the report is
/// byte-identical to sequential execution for the same seed, whatever the
/// worker count.
#[derive(Clone, Copy, Default)]
pub struct ExecOptions<'a> {
    /// Worker threads. `0` (the default) means
    /// [`std::thread::available_parallelism`]; `1` runs probes inline with no
    /// pool.
    pub jobs: usize,
    /// Invoked once per finished probe, in completion order, from the thread
    /// that called [`run_plan_with`] — live per-probe status for a CLI.
    pub progress: Option<&'a (dyn Fn(&ProbeStatus) + Sync)>,
    /// Stop starting new probes once one fails: probes already in flight
    /// finish, everything not yet started reports a labelled "skipped"
    /// failure with NaN columns instead of running. With more than one
    /// worker the skipped set depends on timing. `jobs = 1` is
    /// deterministic: batches run in order of their first probe and probes
    /// inside a batch in plan order (see [`run_plans_with`]), so the skipped
    /// slots are the failing probe's batch-mates after it in plan order plus
    /// every probe of every batch whose first probe comes after the failing
    /// batch's first — which can include slots *before* the failure in plan
    /// order, and never includes a batch-mate the failing batch already ran.
    pub fail_fast: bool,
    /// Persistent result cache consulted before executing each distinct
    /// probe and fed after each successful execution. `None` (the default)
    /// measures everything; in-run deduplication applies either way.
    pub cache: Option<&'a dyn ProbeCache>,
}

impl ExecOptions<'_> {
    /// Options with an explicit worker count and no progress callback.
    pub fn with_jobs(jobs: usize) -> Self {
        ExecOptions {
            jobs,
            ..ExecOptions::default()
        }
    }

    /// The worker count this configuration resolves to.
    pub fn effective_jobs(&self) -> usize {
        match self.jobs {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            jobs => jobs,
        }
    }
}

/// Live status of one finished probe, delivered to [`ExecOptions::progress`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeStatus {
    /// Index of the plan the probe belongs to in the executed batch (always
    /// 0 for single-plan runs; [`run_plans_with`] batches share one pool
    /// across experiments).
    pub plan: usize,
    /// Plan-order index of the probe within its plan (stable across worker
    /// counts).
    pub index: usize,
    /// Total probes across the whole batch.
    pub total: usize,
    /// Probes finished so far across the batch, including this one
    /// (completion order).
    pub done: usize,
    /// Label of the row the probe contributes to.
    pub row: String,
    /// The probe's label.
    pub probe: String,
    /// The panic message, if the probe failed.
    pub error: Option<String>,
    /// Whether the result came from the persistent [`ProbeCache`].
    pub cached: bool,
    /// Whether this probe shared another identical probe's execution
    /// (in-run deduplication) instead of running itself.
    pub deduped: bool,
}

/// Best-effort text of a panic payload: `&str` and `String` payloads carry
/// their message through; anything else keeps a fixed marker (the caller
/// supplies the attribution — probe label, row, experiment id).
pub fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panicked (non-string payload)".to_string()
    }
}

// Plans cross thread boundaries wholesale (workers borrow them), so
// everything a plan carries must be Send + Sync. Compile-time audit; the
// system *models* themselves are exempt — each worker builds its own from
// the spec and never ships it anywhere.
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = {
    _assert_send_sync::<ExperimentPlan>();
    _assert_send_sync::<Probe>();
    _assert_send_sync::<SystemRegistry>();
};

/// Execute a plan with the built-in system registry and default execution
/// options (one worker per available core).
pub fn run_plan(plan: &ExperimentPlan) -> ExperimentReport {
    run_plan_with(
        plan,
        &SystemRegistry::with_builtins(),
        &ExecOptions::default(),
    )
}

/// A probe flattened out of the row grid, with the labels that attribute it.
struct FlatProbe<'p> {
    /// Index of the owning plan in the executed batch.
    plan: usize,
    /// Plan-order probe index within that plan.
    index: usize,
    run: &'p PlannedRun,
    row_label: &'p str,
    probe_label: String,
}

/// Predicted-vs-actual wall for one executed probe: the forecast
/// calibration datum the `benchmark/` harness reads per plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeCalibration {
    /// The probe's label.
    pub probe: String,
    /// The scheduler's [`predicted_probe_cost`] (modeled µs of work).
    pub predicted: f64,
    /// Measured wall-clock milliseconds of the actual execution.
    pub wall_ms: f64,
}

/// One plan's result from a (possibly batched) execution.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanOutcome {
    /// The deterministic report.
    pub report: ExperimentReport,
    /// Summed wall-clock milliseconds the pool's workers spent inside this
    /// plan's probes (probes of different plans overlap on a shared pool, so
    /// this is worker time, not elapsed time).
    pub probe_wall_ms: f64,
    /// Probes the plan scheduled.
    pub probes: usize,
    /// Distinct probe keys whose representative slot lives in this plan
    /// (summed over a batch this counts every executed-or-cached key once).
    pub distinct_probes: usize,
    /// Distinct keys answered from the persistent [`ProbeCache`].
    pub cache_hits: usize,
    /// Wall-clock milliseconds in-run deduplication saved this plan: the
    /// representative's measured wall, once per duplicate slot.
    pub dedup_saved_ms: f64,
    /// Predicted-vs-actual wall per actually executed probe (cache hits and
    /// failures carry no calibration signal), in completion order.
    pub calibration: Vec<ProbeCalibration>,
}

/// Execute a plan, building systems through `registry`, on a worker pool of
/// `options.effective_jobs()` threads (a channel-fed queue of probe indexes;
/// rows are reassembled in plan order, so output does not depend on the
/// worker count).
///
/// Each probe runs under its own panic boundary: a panicking probe — unknown
/// profile, unregistered builder, a model bug — reports NaN for its columns
/// plus a labelled [`ProbeFailure`], and every other probe still completes.
pub fn run_plan_with(
    plan: &ExperimentPlan,
    registry: &SystemRegistry,
    options: &ExecOptions,
) -> ExperimentReport {
    run_plans_with(&[plan], registry, options)
        .pop()
        .expect("one plan in, one report out")
        .report
}

/// Message given to every probe slot skipped by fail-fast queue draining.
const SKIPPED_MESSAGE: &str = "skipped: an earlier probe failed (fail-fast)";

/// Longest-predicted-first (LPT) schedule: indexes of `costs` sorted by
/// descending cost, ties broken by position. On a greedy worker pool this
/// keeps the expensive stragglers off the queue's tail, shrinking the
/// makespan versus arrival order (classic LPT list scheduling).
pub fn lpt_order(costs: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by(|&a, &b| {
        costs[b]
            .partial_cmp(&costs[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.cmp(&b))
    });
    order
}

/// A unit of actual work: one distinct probe key, the flat slots that share
/// its result (first slot is the representative that defines it), and the
/// scheduler's predicted cost.
struct WorkItem {
    key: Vec<u8>,
    slots: Vec<usize>,
    cost: f64,
}

/// A unit of scheduling: work items one worker executes back to back, in
/// plan order, on forks of one loaded state (or a single item that loads
/// nothing).
#[derive(Debug, PartialEq)]
pub(super) struct Batch {
    pub(super) items: Vec<usize>,
    pub(super) cost: f64,
}

/// What one work item produced, stored by the collector and read by every
/// slot that shares the item when the reports are assembled.
struct ItemOutcome {
    result: Result<ProbeResult, String>,
    /// Wall-clock milliseconds spent executing the item (0 for cache hits
    /// and skipped items). Feeds [`PlanOutcome::probe_wall_ms`] and the
    /// calibration records; never part of the deterministic report itself.
    wall_ms: f64,
    cache_hit: bool,
}

/// Partition work items (given as `(state group, predicted cost)` in
/// first-occurrence order) into [`Batch`]es for `jobs` workers.
///
/// Items of one state group form one batch, so the group's state is loaded
/// once; items without a group are batches of their own. A group predicted
/// to cost more than a worker's fair share (`total / jobs`) would serialize
/// the pool behind one worker, so it is split into ⌈cost / fair share⌉
/// batches (each loading its own copy), items dealt in plan order to the
/// lightest batch so far. Batches come back ordered by first item; with one
/// worker nothing is ever split. Splitting adds at most `jobs` batches in
/// total, since the shares sum to the whole.
pub(super) fn plan_batches(items: &[(Option<Vec<u8>>, f64)], jobs: usize) -> Vec<Batch> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut group_of_key: BTreeMap<&[u8], usize> = BTreeMap::new();
    for (index, (key, _)) in items.iter().enumerate() {
        let group = match key {
            Some(key) => *group_of_key.entry(key).or_insert(groups.len()),
            None => groups.len(),
        };
        if group == groups.len() {
            groups.push(Vec::new());
        }
        groups[group].push(index);
    }
    let fair_share = items.iter().map(|(_, cost)| cost).sum::<f64>() / jobs.max(1) as f64;
    let mut batches = Vec::new();
    for members in groups {
        let cost: f64 = members.iter().map(|&i| items[i].1).sum();
        let parts = if cost > fair_share && fair_share > 0.0 {
            ((cost / fair_share).ceil() as usize).min(members.len())
        } else {
            1
        };
        let mut split: Vec<Batch> = (0..parts)
            .map(|_| Batch {
                items: Vec::new(),
                cost: 0.0,
            })
            .collect();
        for index in members {
            let lightest = split
                .iter_mut()
                .min_by(|a, b| a.cost.total_cmp(&b.cost))
                .expect("parts >= 1");
            lightest.items.push(index);
            lightest.cost += items[index].1;
        }
        batches.extend(split);
    }
    batches
}

/// Execute several plans on **one shared worker pool**: the probes of every
/// plan go into a single queue, so workers stay busy across experiment
/// boundaries instead of draining at each experiment's tail (`repro all`
/// goes through this). Reports come back in plan order and are byte-identical
/// to running each plan alone with the same seed, whatever the worker count.
///
/// The queue is **deduplicated, grouped and scheduled** before anything runs:
///
/// 1. every probe is keyed by [`probe_key_bytes`]; slots with equal keys
///    collapse into one `WorkItem` executed once, its [`ProbeResult`]
///    fanned out to every slot (column extraction stays per slot, so the
///    reports are byte-identical to executing each slot separately);
/// 2. work items are batched by [`state_group_key`]: one worker runs a
///    batch's items in plan order, generates the workload's initial records
///    once, loads the first system, and starts every later system as a fork
///    of that loaded state (`TransactionalSystem::share_state` /
///    `adopt_state`; a model that does not share is loaded from the same
///    records instead). The state is owned by the batch and dropped with it.
///    A group costlier than a worker's fair share is split (`plan_batches`);
/// 3. with a cache configured ([`ExecOptions::cache`]), each distinct item
///    is answered from the cache when possible and stored after executing;
///    a batch whose items all hit never builds its state;
/// 4. with more than one worker the batch queue is ordered
///    longest-predicted-first (summed [`predicted_probe_cost`]) to shrink
///    the pool's makespan; one worker keeps first-occurrence order so
///    fail-fast skips stay deterministic ([`ExecOptions::fail_fast`]).
///
/// A probe's measured wall ([`ProbeCalibration::wall_ms`]) covers whatever
/// it executed: the first executed probe of a batch pays the record
/// generation and the load, its batch-mates only a fork.
pub fn run_plans_with(
    plans: &[&ExperimentPlan],
    registry: &SystemRegistry,
    options: &ExecOptions,
) -> Vec<PlanOutcome> {
    let flat: Vec<FlatProbe> = plans
        .iter()
        .enumerate()
        .flat_map(|(plan_idx, plan)| {
            plan.rows
                .iter()
                .flat_map(|row| row.runs.iter().map(move |run| (run, row.label.as_str())))
                .enumerate()
                .map(move |(index, (run, row_label))| FlatProbe {
                    plan: plan_idx,
                    index,
                    run,
                    row_label,
                    probe_label: run.probe.label(),
                })
        })
        .collect();
    let total = flat.len();

    // Collapse identical probes into work items, keyed by the full content
    // key bytes, so equal items are equal measurements. An item's cost is
    // predicted from its first slot, the representative that defines it.
    let mut items: Vec<WorkItem> = Vec::new();
    let mut item_of_key: BTreeMap<Vec<u8>, usize> = BTreeMap::new();
    let mut item_of_slot: Vec<usize> = Vec::with_capacity(total);
    for (flat_index, probe) in flat.iter().enumerate() {
        let key = probe_key_bytes(&probe.run.probe);
        let item_index = match item_of_key.get(&key) {
            Some(&existing) => existing,
            None => {
                item_of_key.insert(key.clone(), items.len());
                items.push(WorkItem {
                    key,
                    slots: Vec::new(),
                    cost: predicted_probe_cost(&probe.run.probe),
                });
                items.len() - 1
            }
        };
        items[item_index].slots.push(flat_index);
        item_of_slot.push(item_index);
    }
    let probe_of = |item: &WorkItem| &flat[item.slots[0]].run.probe;
    let jobs = options.effective_jobs();
    let batches = plan_batches(
        &items
            .iter()
            .map(|item| (state_group_key(probe_of(item)), item.cost))
            .collect::<Vec<_>>(),
        jobs,
    );
    let jobs = jobs.min(batches.len().max(1));

    // Longest-predicted-first ordering (ties broken by first occurrence)
    // keeps the big batches off the pool's tail; a single worker runs every
    // batch anyway, so it keeps first-occurrence order for deterministic
    // fail-fast.
    let order: Vec<usize> = if jobs > 1 {
        lpt_order(&batches.iter().map(|b| b.cost).collect::<Vec<_>>())
    } else {
        (0..batches.len()).collect()
    };

    let abort = std::sync::atomic::AtomicBool::new(false);
    // `group` is the executing batch's state (built by its first executed
    // probe); `share` says whether a later item of the batch could use it.
    let execute_item =
        |item: &WorkItem, group: &mut Option<GroupState>, share: bool| -> ItemOutcome {
            if options.fail_fast && abort.load(std::sync::atomic::Ordering::Relaxed) {
                return ItemOutcome {
                    result: Err(SKIPPED_MESSAGE.to_string()),
                    wall_ms: 0.0,
                    cache_hit: false,
                };
            }
            if let Some(cache) = options.cache {
                if let Some(result) = cache.load(&item.key) {
                    return ItemOutcome {
                        result: Ok(result),
                        wall_ms: 0.0,
                        cache_hit: true,
                    };
                }
            }
            #[expect(
                clippy::disallowed_methods,
                reason = "wall-clock probe timing for the stderr summary and the benchmark/ \
                          harness; never enters a report or a cache key"
            )]
            let started = std::time::Instant::now();
            let observed = catch_unwind(AssertUnwindSafe(|| {
                observe(probe_of(item), registry, group, share)
            }));
            let result = match observed {
                Ok(result) => Ok(result),
                Err(payload) => Err(panic_text(payload.as_ref())),
            };
            let wall_ms = started.elapsed().as_secs_f64() * 1e3;
            match &result {
                Ok(result) => {
                    if let Some(cache) = options.cache {
                        cache.store(&item.key, result);
                    }
                }
                Err(_) => abort.store(true, std::sync::atomic::Ordering::Relaxed),
            }
            ItemOutcome {
                result,
                wall_ms,
                cache_hit: false,
            }
        };
    // One batch on the calling thread: items in plan order over one group
    // state, each outcome reported as it lands. Stops early, returning
    // `false`, once `report` says nobody is listening any more.
    let run_batch = |batch: &Batch, report: &mut dyn FnMut(usize, ItemOutcome) -> bool| {
        let mut group = None;
        batch.items.iter().enumerate().all(|(pos, &item_index)| {
            let share = pos + 1 < batch.items.len();
            report(
                item_index,
                execute_item(&items[item_index], &mut group, share),
            )
        })
    };

    // The collector, in completion order: report every slot that shares the
    // item, log the executed probe's calibration datum under the plan of its
    // representative slot, and store the outcome for the assembly below.
    let mut outcomes: Vec<Option<ItemOutcome>> = (0..items.len()).map(|_| None).collect();
    let mut calibration: Vec<Vec<ProbeCalibration>> = plans.iter().map(|_| Vec::new()).collect();
    let mut done = 0usize;
    let mut absorb = |item_index: usize, outcome: ItemOutcome| {
        let item = &items[item_index];
        let rep = &flat[item.slots[0]];
        if !outcome.cache_hit && outcome.result.is_ok() {
            calibration[rep.plan].push(ProbeCalibration {
                probe: rep.probe_label.clone(),
                predicted: item.cost,
                wall_ms: outcome.wall_ms,
            });
        }
        for (pos, &flat_index) in item.slots.iter().enumerate() {
            let probe = &flat[flat_index];
            done += 1;
            if let Some(progress) = options.progress {
                progress(&ProbeStatus {
                    plan: probe.plan,
                    index: probe.index,
                    total,
                    done,
                    row: probe.row_label.to_string(),
                    probe: probe.probe_label.clone(),
                    error: outcome.result.as_ref().err().cloned(),
                    cached: outcome.cache_hit,
                    deduped: pos > 0,
                });
            }
        }
        outcomes[item_index] = Some(outcome);
    };

    if jobs <= 1 {
        for &batch_index in &order {
            run_batch(&batches[batch_index], &mut |item_index, outcome| {
                absorb(item_index, outcome);
                true
            });
        }
    } else {
        // The work queue: batch indexes in scheduled order, shared through a
        // mutex so idle workers pull the next batch as they finish. Results
        // come back item by item over a second channel to the collector.
        let (job_tx, job_rx) = mpsc::channel::<usize>();
        for &batch_index in &order {
            let _ = job_tx.send(batch_index);
        }
        drop(job_tx);
        let job_rx = Arc::new(Mutex::new(job_rx));
        let (result_tx, result_rx) = mpsc::channel::<(usize, ItemOutcome)>();
        let batches_ref = &batches;
        let run_ref = &run_batch;
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                let job_rx = Arc::clone(&job_rx);
                let result_tx = result_tx.clone();
                scope.spawn(move || loop {
                    // Probes unwind-catch their panics, so the lock can
                    // only be poisoned by a bug in this loop itself; a
                    // worker that finds it poisoned stops cleanly rather
                    // than panicking outside the catch_unwind boundary
                    // (which would abort the whole scope).
                    let Ok(queue) = job_rx.lock() else { break };
                    let next = queue.recv();
                    drop(queue);
                    let Ok(batch_index) = next else { break };
                    let delivered = run_ref(&batches_ref[batch_index], &mut |index, outcome| {
                        result_tx.send((index, outcome)).is_ok()
                    });
                    if !delivered {
                        break;
                    }
                });
            }
            drop(result_tx);
            while let Ok((item_index, outcome)) = result_rx.recv() {
                absorb(item_index, outcome);
            }
        });
    }

    // Assemble each plan's report in plan order, one slot at a time. Column
    // extraction is per slot (slots may read different columns off one
    // result); the representative slot carries the measured wall, and a
    // duplicate slot credits it to its plan's dedup saving instead.
    let mut slots = item_of_slot.into_iter().enumerate();
    plans
        .iter()
        .zip(calibration)
        .map(|(plan, calibration)| {
            let mut failures = Vec::new();
            let (mut distinct, mut cache_hits) = (0usize, 0usize);
            let (mut probe_wall_ms, mut dedup_saved_ms) = (0.0, 0.0);
            let mut index = 0usize;
            let rows = plan
                .rows
                .iter()
                .map(|row| {
                    let mut values = Vec::new();
                    let mut series = Vec::new();
                    for run in &row.runs {
                        let (flat_index, item_index) =
                            slots.next().expect("one slot per scheduled probe");
                        let outcome = outcomes[item_index]
                            .as_ref()
                            .expect("every work item reports an outcome");
                        if items[item_index].slots[0] == flat_index {
                            distinct += 1;
                            cache_hits += usize::from(outcome.cache_hit);
                            probe_wall_ms += outcome.wall_ms;
                        } else {
                            dedup_saved_ms += outcome.wall_ms;
                        }
                        // A failed (or fail-fast-skipped) item keeps every
                        // slot's column shape: NaN values (JSON null) plus
                        // the message.
                        let result = outcome.result.as_ref();
                        values.extend(run.columns.iter().map(|c| {
                            let value = result.map_or(f64::NAN, |r| extract(r, &c.metric));
                            (c.name.clone(), value)
                        }));
                        match result {
                            Ok(result) => series.extend(result.series.clone()),
                            Err(message) => failures.push(ProbeFailure {
                                row: row.label.clone(),
                                probe: run.probe.label(),
                                index,
                                message: message.clone(),
                            }),
                        }
                        index += 1;
                    }
                    Row {
                        label: row.label.clone(),
                        values,
                        series,
                    }
                })
                .collect();
            PlanOutcome {
                report: ExperimentReport {
                    id: plan.id,
                    title: plan.title,
                    rows,
                    failures,
                    text: plan.text.clone(),
                },
                probe_wall_ms,
                probes: plan.probe_count(),
                distinct_probes: distinct,
                cache_hits,
                dedup_saved_ms,
                calibration,
            }
        })
        .collect()
}
