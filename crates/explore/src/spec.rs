//! The declarative exploration grid: [`ExploreSpec`] names the axes, a
//! deterministic generator walks them, and the forecast model prunes the
//! candidates before anything executes.
//!
//! Enumeration is a plain nested loop in a fixed axis order (kind → nodes →
//! shards → block cut → consensus → record size → θ → arrival), so the same
//! spec always yields the same candidate list, byte for byte. Axes that a
//! kind ignores collapse to a single default value instead of multiplying
//! the grid by dead configurations ([`SystemKind::cuts_blocks`],
//! [`SystemKind::shards_scale`]). When the grid outgrows
//! [`max_candidates`](ExploreSpec::max_candidates), a seeded partial
//! Fisher–Yates picks the tail — still a pure function of the spec.

use std::collections::BTreeMap;

use dichotomy_common::rng::{seeded, Rng};
use dichotomy_common::{Diagnostic, Severity};
use dichotomy_consensus::ProtocolKind;
use dichotomy_hybrid::{try_forecast_throughput, ForecastError};
use dichotomy_simnet::{CostModel, NetworkConfig};
use dichotomy_systems::{SystemKind, SystemSpec};
use dichotomy_workload::{WorkloadSpec, YcsbConfig, YcsbMix};

/// One point on the workload's arrival axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalKnob {
    /// Open loop at a fixed offered rate.
    Open {
        /// Offered load, transactions per second of simulated time.
        offered_tps: f64,
    },
    /// Closed loop: `clients` clients, 1 ms think time, one outstanding
    /// request each.
    Closed {
        /// Number of closed-loop clients.
        clients: u64,
    },
}

impl ArrivalKnob {
    /// Short deterministic label for candidate names.
    pub fn slug(&self) -> String {
        match self {
            ArrivalKnob::Open { offered_tps } => format!("open{offered_tps:.0}"),
            ArrivalKnob::Closed { clients } => format!("closed{clients}"),
        }
    }
}

/// The forecast-pruning thresholds.
///
/// A candidate survives when its forecast throughput clears **both** bars:
///
/// * `keep_frac` — the *dominance* bar: at least this fraction of the best
///   forecast among candidates sharing the same workload point (record
///   size, θ, arrival). A design forecast far below a rival on the *same*
///   workload is dominated-by-forecast and not worth measuring.
/// * `min_forecast_tps` — an absolute floor, independent of rivals.
///
/// Raising either threshold can only shrink the survivor set (pruning is
/// monotone), and a threshold pair that eliminates *every* candidate is a
/// spec bug the `S008` lint denies before anything runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PruneSpec {
    /// Keep candidates forecast at ≥ this fraction of their workload
    /// group's best forecast. `0.0` disables the dominance bar.
    pub keep_frac: f64,
    /// Keep candidates forecast at ≥ this absolute rate. `0.0` disables.
    pub min_forecast_tps: f64,
}

impl Default for PruneSpec {
    fn default() -> Self {
        PruneSpec {
            keep_frac: 0.25,
            min_forecast_tps: 0.0,
        }
    }
}

/// The declarative design grid: `SystemSpec` knobs × workload axes.
#[derive(Debug, Clone)]
pub struct ExploreSpec {
    /// System kinds to enumerate.
    pub kinds: Vec<SystemKind>,
    /// Replica counts.
    pub nodes: Vec<usize>,
    /// Shard counts; `0` means the kind's unsharded default. Collapses to
    /// `[0]` for kinds that ignore the knob.
    pub shards: Vec<u32>,
    /// Block-cut points `(block_txns, block_interval_us)`. Collapses to a
    /// single default for kinds that do not batch into blocks.
    pub block_cuts: Vec<(usize, u64)>,
    /// Consensus profile overrides; `None` keeps the kind's default.
    pub consensus: Vec<Option<ProtocolKind>>,
    /// YCSB record sizes in bytes.
    pub record_sizes: Vec<usize>,
    /// Zipfian skew values.
    pub thetas: Vec<f64>,
    /// Arrival-process points.
    pub arrivals: Vec<ArrivalKnob>,
    /// Transactions per measured probe.
    pub txns: u64,
    /// The seed threaded through sampling, workloads and drivers.
    pub seed: u64,
    /// Cap on the number of enumerated candidates; beyond it a seeded
    /// sample of the grid is taken (and the drop is reported, never
    /// silent). `None` enumerates the whole grid.
    pub max_candidates: Option<usize>,
    /// The forecast-pruning thresholds.
    pub prune: PruneSpec,
}

impl ExploreSpec {
    /// The smoke-scale grid `repro explore --quick` walks: every kind, one
    /// deployment point, two skew values — small enough for CI, wide enough
    /// that the Pareto front and calibration report are non-trivial.
    pub fn quick(txns: u64, seed: u64) -> Self {
        ExploreSpec {
            kinds: SystemKind::ALL.to_vec(),
            nodes: vec![4],
            shards: vec![0],
            block_cuts: vec![(25, 10_000)],
            consensus: vec![None],
            record_sizes: vec![1_000],
            thetas: vec![0.5, 0.9],
            arrivals: vec![ArrivalKnob::Open {
                offered_tps: 1_000.0,
            }],
            txns,
            seed,
            max_candidates: None,
            prune: PruneSpec::default(),
        }
    }

    /// The full grid: scale, sharding, block-cut, record-size, skew and
    /// arrival axes. Larger than the default candidate cap on purpose — the
    /// seeded tail sampling is part of the exercised surface.
    pub fn full(txns: u64, seed: u64) -> Self {
        ExploreSpec {
            kinds: SystemKind::ALL.to_vec(),
            nodes: vec![4, 8],
            shards: vec![0, 4],
            block_cuts: vec![(25, 10_000), (100, 100_000)],
            consensus: vec![None],
            record_sizes: vec![100, 1_000],
            thetas: vec![0.5, 0.99],
            arrivals: vec![
                ArrivalKnob::Open {
                    offered_tps: 1_000.0,
                },
                ArrivalKnob::Closed { clients: 32 },
            ],
            txns,
            seed,
            max_candidates: Some(96),
            prune: PruneSpec::default(),
        }
    }
}

/// One enumerated design point, forecast-scored and ready to measure.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Deterministic unique name, e.g. `fabric/n4/b25@10000/c-default/rs1000/t0.50/open1000`.
    pub name: String,
    /// The system half of the design.
    pub system: SystemSpec,
    /// The workload half (record size, θ, seed applied).
    pub workload: WorkloadSpec,
    /// The arrival-axis point.
    pub arrival: ArrivalKnob,
    /// Taxonomy cell, `replication|protocol|concurrency`.
    pub cell: String,
    /// Forecast peak throughput (tps), always finite and positive.
    pub forecast_tps: f64,
    /// The forecast inverted into µs per transaction.
    pub forecast_cost_us: f64,
    /// Workload-point key used for dominance grouping during pruning.
    pub(crate) workload_point: String,
}

impl Candidate {
    /// One-line stable description — the unit the determinism tests
    /// compare byte-for-byte.
    pub fn describe(&self) -> String {
        format!(
            "{} cell={} forecast_tps={:.3} forecast_cost_us={:.3}",
            self.name, self.cell, self.forecast_tps, self.forecast_cost_us
        )
    }
}

/// A candidate the generator could not score: its name and the structured
/// forecast error (never a NaN reaching a comparator).
#[derive(Debug, Clone, PartialEq)]
pub struct EnumerateError {
    /// The candidate that failed to score.
    pub candidate: String,
    /// Why the forecast rejected it.
    pub error: ForecastError,
}

impl std::fmt::Display for EnumerateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "candidate '{}': {}", self.candidate, self.error)
    }
}

/// The result of walking the grid: the scored candidates plus how many grid
/// points the tail sampling dropped (0 when the grid fit under the cap).
#[derive(Debug, Clone)]
pub struct Enumeration {
    /// Scored candidates, in enumeration order.
    pub candidates: Vec<Candidate>,
    /// Size of the grid before tail sampling.
    pub grid_points: usize,
    /// Grid points dropped by the seeded tail sampling.
    pub sampled_out: usize,
}

/// Walk the spec's design grid in the fixed axis order and score every
/// point with the checked forecast. Deterministic: same spec (including
/// seed) ⇒ byte-identical candidate list.
pub fn enumerate(spec: &ExploreSpec) -> Result<Enumeration, EnumerateError> {
    let mut candidates = Vec::new();
    for &kind in &spec.kinds {
        for &nodes in &spec.nodes {
            let shard_axis: &[u32] = if kind.shards_scale() {
                &spec.shards
            } else {
                &[0]
            };
            for &shards in shard_axis {
                let block_axis: &[(usize, u64)] = if kind.cuts_blocks() {
                    &spec.block_cuts
                } else {
                    &[(0, 0)]
                };
                for &(block_txns, block_interval_us) in block_axis {
                    for &consensus in &spec.consensus {
                        for &record_size in &spec.record_sizes {
                            for &theta in &spec.thetas {
                                for &arrival in &spec.arrivals {
                                    candidates.push(candidate(
                                        spec,
                                        kind,
                                        nodes,
                                        shards,
                                        (block_txns, block_interval_us),
                                        consensus,
                                        record_size,
                                        theta,
                                        arrival,
                                    )?);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    let grid_points = candidates.len();
    let sampled_out = match spec.max_candidates {
        Some(cap) if grid_points > cap => {
            candidates = sample(candidates, cap, spec.seed);
            grid_points - cap
        }
        _ => 0,
    };
    Ok(Enumeration {
        candidates,
        grid_points,
        sampled_out,
    })
}

#[expect(
    clippy::too_many_arguments,
    reason = "one parameter per design-space axis of a grid point"
)]
fn candidate(
    spec: &ExploreSpec,
    kind: SystemKind,
    nodes: usize,
    shards: u32,
    (block_txns, block_interval_us): (usize, u64),
    consensus: Option<ProtocolKind>,
    record_size: usize,
    theta: f64,
    arrival: ArrivalKnob,
) -> Result<Candidate, EnumerateError> {
    let mut name = format!("{}/n{nodes}", kind.slug());
    let mut system = SystemSpec::new(kind).with_nodes(nodes);
    if shards > 0 {
        system = system.with_shards(shards);
        name.push_str(&format!("/s{shards}"));
    }
    if kind.cuts_blocks() {
        system = system.with_blocks(block_txns, block_interval_us);
        name.push_str(&format!("/b{block_txns}@{block_interval_us}"));
    }
    if let Some(protocol) = consensus {
        system = system.with_consensus(protocol);
        name.push_str(&format!("/{protocol:?}").to_lowercase());
    }
    name.push_str(&format!("/rs{record_size}/t{theta:.2}/{}", arrival.slug()));
    let system = system.with_label(name.clone()).with_seed(spec.seed);

    let workload = WorkloadSpec::Ycsb(YcsbConfig {
        record_count: 5_000,
        record_size,
        zipf_theta: theta,
        ops_per_txn: 1,
        mix: YcsbMix::UpdateOnly,
        seed: spec.seed,
    });

    let taxonomy = system.taxonomy();
    let cell = format!(
        "{:?}|{:?}|{:?}",
        taxonomy.replication, taxonomy.protocol, taxonomy.concurrency
    );
    // Unclamped, unlike the probe scheduler's cost predictor: degenerate
    // knobs surface as `ForecastError`s instead of being silently repaired.
    let hybrid = system.hybrid_spec(record_size, 1);
    let costs = system.costs.clone().unwrap_or_else(CostModel::calibrated);
    let forecast_tps = try_forecast_throughput(&hybrid, &NetworkConfig::lan_1gbps(), &costs)
        .map_err(|error| EnumerateError {
            candidate: name.clone(),
            error,
        })?;
    let workload_point = format!("rs{record_size}/t{theta:.2}/{}", arrival.slug());
    Ok(Candidate {
        name,
        system,
        workload,
        arrival,
        cell,
        forecast_tps,
        forecast_cost_us: 1e6 / forecast_tps.max(1.0),
        workload_point,
    })
}

/// Seeded sampling of the combinatorial tail: a partial Fisher–Yates over
/// the candidate indices picks `cap` of them, then enumeration order is
/// restored so downstream stages stay order-deterministic.
fn sample(candidates: Vec<Candidate>, cap: usize, seed: u64) -> Vec<Candidate> {
    let mut rng = seeded(seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut indices: Vec<usize> = (0..candidates.len()).collect();
    for i in 0..cap {
        let j = rng.gen_range(i..indices.len());
        indices.swap(i, j);
    }
    indices.truncate(cap);
    indices.sort_unstable();
    let mut picked: Vec<Option<Candidate>> = candidates.into_iter().map(Some).collect();
    indices
        .into_iter()
        .map(|i| picked[i].take().expect("indices are distinct"))
        .collect()
}

/// The pruning verdict: survivors in enumeration order, plus the cut list
/// (also in enumeration order) so callers can log every drop.
#[derive(Debug, Clone)]
pub struct Pruned {
    /// Candidates that cleared both bars.
    pub survivors: Vec<Candidate>,
    /// Candidates cut by the forecast, with the group-best forecast that
    /// dominated each.
    pub cut: Vec<(Candidate, f64)>,
}

/// Apply the forecast-pruning thresholds. Dominance groups are workload
/// points: a candidate competes only against designs measured under the
/// same record size, skew and arrival process.
pub fn prune(candidates: &[Candidate], prune: &PruneSpec) -> Pruned {
    let mut group_best: BTreeMap<&str, f64> = BTreeMap::new();
    for c in candidates {
        let best = group_best.entry(c.workload_point.as_str()).or_insert(0.0);
        if c.forecast_tps > *best {
            *best = c.forecast_tps;
        }
    }
    let mut survivors = Vec::new();
    let mut cut = Vec::new();
    for c in candidates {
        let best = group_best[c.workload_point.as_str()];
        if c.forecast_tps >= prune.keep_frac * best && c.forecast_tps >= prune.min_forecast_tps {
            survivors.push(c.clone());
        } else {
            cut.push((c.clone(), best));
        }
    }
    Pruned { survivors, cut }
}

/// Lint an [`ExploreSpec`] before execution. `S008` (deny): the spec
/// explores nothing — empty axes, a grid point the forecast rejects, or
/// pruning thresholds that eliminate every candidate. Shares the
/// [`Diagnostic`] model (and exit-code policy) with the `S0xx` plan linter.
pub fn lint_spec(spec: &ExploreSpec) -> Vec<Diagnostic> {
    let zero_survivors = |why: String| {
        vec![Diagnostic::new(
            "S008",
            Severity::Deny,
            format!("zero-survivor exploration: {why}"),
        )
        .with_help("widen the grid axes or lower keep_frac / min_forecast_tps")
        .at_plan("explore", "", "")]
    };
    let enumeration = match enumerate(spec) {
        Ok(e) => e,
        Err(e) => return zero_survivors(format!("the grid cannot be scored ({e})")),
    };
    if enumeration.candidates.is_empty() {
        return zero_survivors("the grid axes enumerate no candidate".to_string());
    }
    let pruned = prune(&enumeration.candidates, &spec.prune);
    if pruned.survivors.is_empty() {
        return zero_survivors(format!(
            "the prune thresholds (keep_frac {}, min_forecast_tps {}) cut all {} candidates",
            spec.prune.keep_frac,
            spec.prune.min_forecast_tps,
            enumeration.candidates.len()
        ));
    }
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExploreSpec {
        ExploreSpec::quick(300, 7)
    }

    #[test]
    fn enumeration_is_deterministic_per_seed() {
        let a = enumerate(&quick()).unwrap();
        let b = enumerate(&quick()).unwrap();
        let lines = |e: &Enumeration| {
            e.candidates
                .iter()
                .map(Candidate::describe)
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(lines(&a), lines(&b), "same seed ⇒ byte-identical list");
        assert_eq!(a.grid_points, 14, "7 kinds × 2 thetas");
        assert_eq!(a.sampled_out, 0);

        // The grid (names, forecasts) is seed-independent; the seed reaches
        // the *specs* the candidates will execute with.
        let mut reseeded = quick();
        reseeded.seed = 8;
        let c = enumerate(&reseeded).unwrap();
        assert_eq!(
            lines(&a),
            lines(&c),
            "grid shape does not depend on the seed"
        );
        assert_eq!(a.candidates[0].workload.seed(), 7);
        assert_eq!(c.candidates[0].workload.seed(), 8);
    }

    #[test]
    fn tail_sampling_is_seeded_and_order_preserving() {
        let mut spec = quick();
        spec.max_candidates = Some(5);
        let a = enumerate(&spec).unwrap();
        let b = enumerate(&spec).unwrap();
        assert_eq!(a.candidates.len(), 5);
        assert_eq!(a.sampled_out, 9);
        let names = |e: &Enumeration| {
            e.candidates
                .iter()
                .map(|c| c.name.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(names(&a), names(&b));
        // Sampled candidates keep the full grid's enumeration order.
        let full = enumerate(&quick()).unwrap();
        let full_names = names(&full);
        let mut last = 0;
        for n in names(&a) {
            let at = full_names.iter().position(|f| f == &n).unwrap();
            assert!(at >= last, "sampling must preserve enumeration order");
            last = at;
        }
    }

    #[test]
    fn degenerate_axes_surface_as_structured_errors() {
        let mut spec = quick();
        spec.nodes = vec![0];
        let err = enumerate(&spec).unwrap_err();
        assert_eq!(err.error, ForecastError::ZeroNodes);
        assert!(err.to_string().contains("zero ordering nodes"));
    }

    #[test]
    fn pruning_is_monotone_in_both_thresholds() {
        let cands = enumerate(&quick()).unwrap().candidates;
        let survivors = |keep_frac: f64, min_tps: f64| {
            prune(
                &cands,
                &PruneSpec {
                    keep_frac,
                    min_forecast_tps: min_tps,
                },
            )
            .survivors
            .iter()
            .map(|c| c.name.clone())
            .collect::<Vec<_>>()
        };
        let fracs = [0.0, 0.1, 0.25, 0.5, 0.9, 1.0];
        for w in fracs.windows(2) {
            let (lo, hi) = (survivors(w[0], 0.0), survivors(w[1], 0.0));
            assert!(
                hi.iter().all(|n| lo.contains(n)),
                "raising keep_frac {}→{} added a survivor",
                w[0],
                w[1]
            );
        }
        let floors = [0.0, 10.0, 1_000.0, 1e6, 1e12];
        for w in floors.windows(2) {
            let (lo, hi) = (survivors(0.0, w[0]), survivors(0.0, w[1]));
            assert!(
                hi.iter().all(|n| lo.contains(n)),
                "raising min_forecast_tps {}→{} added a survivor",
                w[0],
                w[1]
            );
        }
        // Every cut is accounted for: survivors + cut = candidates.
        let p = prune(&cands, &PruneSpec::default());
        assert_eq!(p.survivors.len() + p.cut.len(), cands.len());
    }

    #[test]
    fn s008_denies_zero_survivor_specs_and_passes_live_ones() {
        assert!(lint_spec(&quick()).is_empty());

        let mut all_cut = quick();
        all_cut.prune.min_forecast_tps = 1e30;
        let diags = lint_spec(&all_cut);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "S008");
        assert_eq!(diags[0].severity, Severity::Deny);
        assert!(diags[0].message.contains("zero-survivor"));

        let mut empty = quick();
        empty.kinds.clear();
        assert_eq!(lint_spec(&empty)[0].code, "S008");

        let mut unscorable = quick();
        unscorable.nodes = vec![0];
        let diags = lint_spec(&unscorable);
        assert_eq!(diags[0].code, "S008");
        assert!(diags[0].message.contains("cannot be scored"));
    }
}
