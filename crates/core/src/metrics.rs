//! Receipt aggregation: throughput, latency percentiles, abort breakdowns,
//! phase-level latency decomposition and windowed time series.
//!
//! All of it is one fold over receipts, [`ReceiptFold`]. Its run-level half
//! sees every receipt and yields [`Metrics`]; its window half trims the
//! warm-up and buckets the rest into fixed simulated-time windows
//! (throughput, latency percentiles and abort rate per window) — the
//! [`TimeSeries`] where saturation build-up and fault dips become visible.
//! The fold is generic over the [`LatencyEstimator`] that summarizes each
//! latency population: [`ExactLatency`] keeps and sorts every sample,
//! [`StreamingLatency`] folds them into P² sketches. [`MetricsMode`] picks
//! one; nothing else differs between the modes.

use std::collections::BTreeMap;

use dichotomy_common::{codec, AbortReason, Timestamp, TxnReceipt, TxnStatus};

/// Latency summary in microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencySummary {
    /// Mean latency.
    pub mean_us: f64,
    /// Median.
    pub p50_us: u64,
    /// 95th percentile.
    pub p95_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// Maximum.
    pub max_us: u64,
}
codec!(Encode + Decode for struct LatencySummary { mean_us, p50_us, p95_us, p99_us, max_us });

impl LatencySummary {
    /// Summarize a set of latencies (order irrelevant): mean plus the
    /// p50/p95/p99/max order statistics. Empty input gives all zeros.
    pub fn of(mut latencies: Vec<u64>) -> Self {
        if latencies.is_empty() {
            return LatencySummary::default();
        }
        latencies.sort_unstable();
        let n = latencies.len();
        let pct = |q: f64| latencies[nearest_rank(q, n)];
        LatencySummary {
            mean_us: latencies.iter().sum::<u64>() as f64 / n as f64,
            p50_us: pct(0.50),
            p95_us: pct(0.95),
            p99_us: pct(0.99),
            max_us: latencies[n - 1],
        }
    }
}

/// Nearest-rank percentile of `n ≥ 1` sorted samples: the ⌈q·n⌉-th smallest
/// (1-based), i.e. index ⌈q·n⌉−1. The old floor((n−1)·q) rounding sat one
/// rank low whenever q·n was fractional — on n=10 it reported the 9th sample
/// as p99.
fn nearest_rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// How a [`ReceiptFold`] summarizes a population of latencies — the one
/// thing [`MetricsMode`] chooses.
pub trait LatencyEstimator: Default {
    /// Fold one latency (µs) in.
    fn observe(&mut self, latency_us: u64);
    /// Mean, max and p50/p95/p99 of everything observed; the zero default
    /// when nothing was.
    fn summary(self) -> LatencySummary;
}

/// The exact estimator: keeps every latency and sorts them into
/// nearest-rank order statistics ([`LatencySummary::of`]). Memory is
/// O(samples).
#[derive(Debug, Clone, Default)]
pub struct ExactLatency(Vec<u64>);

impl LatencyEstimator for ExactLatency {
    fn observe(&mut self, latency_us: u64) {
        self.0.push(latency_us);
    }

    fn summary(self) -> LatencySummary {
        LatencySummary::of(self.0)
    }
}

/// Which [`LatencyEstimator`] the driver's [`ReceiptFold`] runs. Counts,
/// rates, means, maxima and window boundaries are exact either way; only
/// the p50/p95/p99 percentiles differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricsMode {
    /// [`ExactLatency`]: the system keeps every receipt until the run is
    /// over, then the fold computes exact order-statistic percentiles. The
    /// default. Memory is O(transactions).
    #[default]
    Exact,
    /// [`StreamingLatency`]: receipts fold in as they complete and are
    /// dropped. Percentiles are P²-estimated (exact up to 5 samples; within
    /// a few percent beyond — see the sketch docs). Memory is O(windows),
    /// which is what makes million-client runs fit.
    Streaming,
}
codec!(Encode for enum MetricsMode { Exact = 0, Streaming = 1 });

/// Streaming quantile estimator: the P² (piecewise-parabolic) algorithm of
/// Jain & Chlamtac (1985). Five markers track the running estimate of one
/// quantile in O(1) memory and O(1) time per observation.
///
/// The first five samples are kept exactly, so small populations report the
/// same nearest-rank order statistics as [`LatencySummary::of`]. Beyond
/// that the estimate is approximate: on smooth unimodal distributions the
/// mid-quantiles land within ~1–2 % of the exact value and tail quantiles
/// (p95/p99) within ~5 %; heavily multi-modal data can err further. The
/// tests at the bottom of this module pin those bounds.
#[derive(Debug, Clone)]
pub struct P2Quantile {
    q: f64,
    /// Marker heights: running estimates of the 0, q/2, q, (1+q)/2 and 1
    /// quantiles.
    heights: [f64; 5],
    /// Actual marker positions (1-based ranks into the stream so far).
    positions: [f64; 5],
    /// The first five observations, kept exact for small-n queries and for
    /// seeding the markers.
    initial: [u64; 5],
    count: u64,
}

impl P2Quantile {
    /// A sketch for quantile `q` (in `(0, 1)`; e.g. `0.99` for p99).
    pub fn new(q: f64) -> Self {
        P2Quantile {
            q,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            initial: [0; 5],
            count: 0,
        }
    }

    /// Fold one observation into the sketch.
    pub fn observe(&mut self, value: u64) {
        if self.count < 5 {
            self.initial[self.count as usize] = value;
            self.count += 1;
            if self.count == 5 {
                self.initial.sort_unstable();
                for (h, &v) in self.heights.iter_mut().zip(&self.initial) {
                    *h = v as f64;
                }
            }
            return;
        }
        self.count += 1;
        let x = value as f64;
        // Which cell the observation falls into; the extreme markers track
        // the running min and max exactly.
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            (1..4).find(|&i| x < self.heights[i]).unwrap_or(4) - 1
        };
        for pos in &mut self.positions[k + 1..] {
            *pos += 1.0;
        }
        // Nudge the three interior markers towards their desired ranks,
        // adjusting heights parabolically (linearly when the parabola would
        // break monotonicity).
        let dn = [0.0, self.q / 2.0, self.q, (1.0 + self.q) / 2.0, 1.0];
        let n = (self.count - 1) as f64;
        #[expect(
            clippy::needless_range_loop,
            reason = "indexes i-1/i/i+1 across three parallel arrays; zipped iterators read worse"
        )]
        for i in 1..4 {
            let desired = 1.0 + n * dn[i];
            let d = desired - self.positions[i];
            if (d >= 1.0 && self.positions[i + 1] - self.positions[i] > 1.0)
                || (d <= -1.0 && self.positions[i - 1] - self.positions[i] < -1.0)
            {
                let ds = d.signum();
                let (hm, h, hp) = (self.heights[i - 1], self.heights[i], self.heights[i + 1]);
                let (pm, p, pp) = (
                    self.positions[i - 1],
                    self.positions[i],
                    self.positions[i + 1],
                );
                let parabolic = h + ds / (pp - pm)
                    * ((p - pm + ds) * (hp - h) / (pp - p) + (pp - p - ds) * (h - hm) / (p - pm));
                self.heights[i] = if hm < parabolic && parabolic < hp {
                    parabolic
                } else if ds > 0.0 {
                    h + (hp - h) / (pp - p)
                } else {
                    h - (hm - h) / (pm - p)
                };
                self.positions[i] += ds;
            }
        }
    }

    /// The current estimate, rounded to a microsecond. Exact (nearest-rank)
    /// for five or fewer observations; zero before any.
    pub fn estimate(&self) -> u64 {
        let n = self.count as usize;
        if n == 0 {
            return 0;
        }
        if n <= 5 {
            let mut sorted = self.initial;
            let sorted = &mut sorted[..n];
            sorted.sort_unstable();
            return sorted[nearest_rank(self.q, n)];
        }
        self.heights[2].round().max(0.0) as u64
    }
}

/// The P² estimator: exact count / mean / max plus [`P2Quantile`] sketches
/// for p50, p95 and p99, in O(1) memory.
#[derive(Debug, Clone)]
pub struct StreamingLatency {
    count: u64,
    sum: u128,
    max: u64,
    p50: P2Quantile,
    p95: P2Quantile,
    p99: P2Quantile,
}

impl Default for StreamingLatency {
    fn default() -> Self {
        StreamingLatency {
            count: 0,
            sum: 0,
            max: 0,
            p50: P2Quantile::new(0.50),
            p95: P2Quantile::new(0.95),
            p99: P2Quantile::new(0.99),
        }
    }
}

impl LatencyEstimator for StreamingLatency {
    fn observe(&mut self, latency_us: u64) {
        self.count += 1;
        self.sum += latency_us as u128;
        self.max = self.max.max(latency_us);
        self.p50.observe(latency_us);
        self.p95.observe(latency_us);
        self.p99.observe(latency_us);
    }

    /// Mean and max exact, percentiles estimated (exact for five or fewer
    /// samples). A sum below 2⁶⁴ converts to the same `f64` as the exact
    /// estimator's `u64` sum, so the means agree bit for bit.
    fn summary(self) -> LatencySummary {
        if self.count == 0 {
            return LatencySummary::default();
        }
        LatencySummary {
            mean_us: self.sum as f64 / self.count as f64,
            p50_us: self.p50.estimate(),
            p95_us: self.p95.estimate(),
            p99_us: self.p99.estimate(),
            max_us: self.max,
        }
    }
}

/// Aggregated metrics for one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Transactions that committed.
    pub committed: u64,
    /// Transactions that aborted, by reason.
    pub aborts: BTreeMap<AbortReason, u64>,
    /// Committed transactions per second of simulated time.
    pub throughput_tps: f64,
    /// Latency of committed transactions.
    pub latency: LatencySummary,
    /// Mean per-phase latency (µs) across committed transactions, keyed by
    /// the system-reported phase name.
    pub phase_means_us: BTreeMap<&'static str, f64>,
    /// Total simulated duration used for the throughput computation (µs).
    pub duration_us: Timestamp,
}
codec!(Encode + Decode for struct Metrics {
    committed,
    aborts,
    throughput_tps,
    latency,
    phase_means_us,
    duration_us,
});

impl Metrics {
    /// Aggregate a set of receipts with exact percentiles. The measurement
    /// window runs from the earliest submit to the latest finish.
    pub fn from_receipts(receipts: &[TxnReceipt]) -> Self {
        let mut run = RunFold::<ExactLatency>::default();
        receipts.iter().for_each(|r| run.observe(r));
        run.finish()
    }

    /// Total aborted transactions.
    pub fn aborted(&self) -> u64 {
        self.aborts.values().sum()
    }

    /// Abort rate over all finished transactions, in percent.
    pub fn abort_rate_percent(&self) -> f64 {
        let total = self.committed + self.aborted();
        if total == 0 {
            0.0
        } else {
            100.0 * self.aborted() as f64 / total as f64
        }
    }

    /// Aborts attributed to one reason, in percent of all finished
    /// transactions.
    pub fn abort_share_percent(&self, reason: AbortReason) -> f64 {
        let total = self.committed + self.aborted();
        if total == 0 {
            0.0
        } else {
            100.0 * self.aborts.get(&reason).copied().unwrap_or(0) as f64 / total as f64
        }
    }
}

/// One fixed-width window of a [`TimeSeries`].
#[derive(Debug, Clone, PartialEq)]
pub struct TimeWindow {
    /// Window start (inclusive, simulated µs).
    pub start_us: Timestamp,
    /// Window end (exclusive, simulated µs).
    pub end_us: Timestamp,
    /// Transactions *submitted* inside the window (bucketed by submit time)
    /// — the offered side of the offered-vs-achieved comparison. Under
    /// saturation, `submitted` outruns `committed`; in a closed loop the two
    /// track each other.
    pub submitted: u64,
    /// Transactions that committed (finished) inside the window.
    pub committed: u64,
    /// Transactions that aborted inside the window.
    pub aborted: u64,
    /// Submitted transactions per second over the window width (offered
    /// load as actually generated, open or closed loop alike).
    pub offered_tps: f64,
    /// Committed transactions per second over the window width (achieved
    /// load).
    pub throughput_tps: f64,
    /// Aborts as a percentage of the window's finished transactions.
    pub abort_rate_percent: f64,
    /// Latency summary of the window's committed transactions.
    pub latency: LatencySummary,
}
codec!(Encode + Decode for struct TimeWindow {
    start_us,
    end_us,
    submitted,
    committed,
    aborted,
    offered_tps,
    throughput_tps,
    abort_rate_percent,
    latency,
});

/// Windowed time-series view of a run: receipts bucketed by finish time into
/// contiguous fixed-width windows, after warm-up trimming.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimeSeries {
    /// Window width (µs).
    pub window_us: u64,
    /// Receipts finishing before this simulated time were dropped.
    pub warmup_us: u64,
    /// The windows, contiguous from `warmup_us` to past the last finish.
    /// Windows with no finishing transactions are present (all-zero) — they
    /// are what a stall or crash dip looks like.
    pub windows: Vec<TimeWindow>,
}
codec!(Encode + Decode for struct TimeSeries { window_us, warmup_us, windows });

impl TimeSeries {
    /// Bucket `receipts` into `window_us`-wide windows by finish time with
    /// exact percentiles, dropping receipts that finish before `warmup_us`
    /// (warm-up trimming).
    pub fn from_receipts(receipts: &[TxnReceipt], window_us: u64, warmup_us: Timestamp) -> Self {
        let mut windows = WindowFold::<ExactLatency>::new(window_us, warmup_us);
        receipts.iter().for_each(|r| windows.observe(r));
        windows.finish()
    }

    /// Whether the series has no windows.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The window containing simulated time `t`, if any.
    pub fn window_at(&self, t: Timestamp) -> Option<&TimeWindow> {
        if t < self.warmup_us {
            return None;
        }
        self.windows
            .get(((t - self.warmup_us) / self.window_us.max(1)) as usize)
    }
}

/// The run-level half of a [`ReceiptFold`]: every receipt counts, with no
/// warm-up trimming.
#[derive(Debug, Clone, Default)]
struct RunFold<E> {
    /// Earliest submit and latest finish so far.
    span: Option<(Timestamp, Timestamp)>,
    committed: u64,
    aborts: BTreeMap<AbortReason, u64>,
    latency: E,
    phase_sums: BTreeMap<&'static str, (f64, u64)>,
}

impl<E: LatencyEstimator> RunFold<E> {
    fn observe(&mut self, r: &TxnReceipt) {
        self.span = Some(match self.span {
            None => (r.submit_time, r.finish_time),
            Some((s, e)) => (s.min(r.submit_time), e.max(r.finish_time)),
        });
        match r.status {
            TxnStatus::Committed => {
                self.committed += 1;
                self.latency.observe(r.latency_us());
                for &(name, us) in &r.phase_latencies {
                    let entry = self.phase_sums.entry(name).or_insert((0.0, 0));
                    entry.0 += us as f64;
                    entry.1 += 1;
                }
            }
            TxnStatus::Aborted(reason) => *self.aborts.entry(reason).or_insert(0) += 1,
        }
    }

    /// The run's [`Metrics`], measured from the earliest submit to the latest
    /// finish; all zeros when no receipt arrived.
    fn finish(self) -> Metrics {
        let Some((start, end)) = self.span else {
            return Metrics::default();
        };
        let duration_us = end.saturating_sub(start).max(1);
        Metrics {
            committed: self.committed,
            aborts: self.aborts,
            throughput_tps: self.committed as f64 / (duration_us as f64 / 1e6),
            latency: self.latency.summary(),
            phase_means_us: self
                .phase_sums
                .into_iter()
                .map(|(name, (sum, count))| (name, sum / count.max(1) as f64))
                .collect(),
            duration_us,
        }
    }
}

/// One window's tallies inside a [`WindowFold`].
#[derive(Debug, Clone, Default)]
struct WindowTally<E> {
    submitted: u64,
    committed: u64,
    aborted: u64,
    latency: E,
}

/// The window half of a [`ReceiptFold`]: receipts finishing before
/// `warmup_us` are dropped, submit side included; the rest bucket by finish
/// time (the offered side by submit time) into windows that appear on
/// demand, so a gap between finishes stays as an all-zero window.
#[derive(Debug, Clone)]
struct WindowFold<E> {
    window_us: u64,
    warmup_us: Timestamp,
    windows: Vec<WindowTally<E>>,
}

impl<E: LatencyEstimator> WindowFold<E> {
    fn new(window_us: u64, warmup_us: Timestamp) -> Self {
        WindowFold {
            window_us: window_us.max(1),
            warmup_us,
            windows: Vec::new(),
        }
    }

    fn observe(&mut self, r: &TxnReceipt) {
        let (width, origin) = (self.window_us, self.warmup_us);
        if r.finish_time < origin {
            return;
        }
        let slot = |t: Timestamp| ((t - origin) / width) as usize;
        let finish = slot(r.finish_time);
        // A receipt's submit can land windows before its finish; submits
        // before the warm-up origin are trimmed like early finishes. The
        // windows grow to cover both slots, so even a receipt that claims to
        // finish before its submit buckets rather than panics.
        let submit = (r.submit_time >= origin).then(|| slot(r.submit_time));
        let last = submit.map_or(finish, |s| s.max(finish));
        if last >= self.windows.len() {
            self.windows.resize_with(last + 1, WindowTally::default);
        }
        if let Some(s) = submit {
            self.windows[s].submitted += 1;
        }
        let w = &mut self.windows[finish];
        match r.status {
            TxnStatus::Committed => {
                w.committed += 1;
                w.latency.observe(r.latency_us());
            }
            TxnStatus::Aborted(_) => w.aborted += 1,
        }
    }

    fn finish(self) -> TimeSeries {
        let (window_us, warmup_us) = (self.window_us, self.warmup_us);
        let per_second = |n: u64| n as f64 / (window_us as f64 / 1e6);
        let windows = self
            .windows
            .into_iter()
            .enumerate()
            .map(|(i, w)| {
                let start_us = warmup_us + i as u64 * window_us;
                let finished = w.committed + w.aborted;
                TimeWindow {
                    start_us,
                    end_us: start_us + window_us,
                    submitted: w.submitted,
                    committed: w.committed,
                    aborted: w.aborted,
                    offered_tps: per_second(w.submitted),
                    throughput_tps: per_second(w.committed),
                    abort_rate_percent: if finished == 0 {
                        0.0
                    } else {
                        100.0 * w.aborted as f64 / finished as f64
                    },
                    latency: w.latency.summary(),
                }
            })
            .collect();
        TimeSeries {
            window_us,
            warmup_us,
            windows,
        }
    }
}

/// The one receipt fold behind every [`Metrics`] and [`TimeSeries`]:
/// receipts fold in one at a time, in any order, and can be dropped
/// afterwards. The run-level half consumes every receipt (no warm-up
/// trimming, like [`Metrics::from_receipts`]); the window half drops
/// receipts finishing before `warmup_us` and buckets by finish time, like
/// [`TimeSeries::from_receipts`]. `E` summarizes each latency population.
#[derive(Debug, Clone)]
pub struct ReceiptFold<E> {
    run: RunFold<E>,
    windows: WindowFold<E>,
}

/// The fold over P² sketches that [`MetricsMode::Streaming`] runs: memory
/// is O(windows), independent of transaction count.
pub type StreamingAggregator = ReceiptFold<StreamingLatency>;

impl<E: LatencyEstimator> ReceiptFold<E> {
    /// A fold bucketing into `window_us`-wide windows (clamped to ≥ 1 µs)
    /// after `warmup_us` of warm-up trimming.
    pub fn new(window_us: u64, warmup_us: Timestamp) -> Self {
        ReceiptFold {
            run: RunFold::default(),
            windows: WindowFold::new(window_us, warmup_us),
        }
    }

    /// Fold one receipt in; the caller can drop it afterwards.
    pub fn observe(&mut self, r: &TxnReceipt) {
        self.run.observe(r);
        self.windows.observe(r);
    }

    /// Close the fold: the run [`Metrics`], the [`TimeSeries`] and the
    /// makespan (latest finish observed, or `fallback_now` when no receipt
    /// ever arrived).
    pub fn finish(self, fallback_now: Timestamp) -> (Metrics, TimeSeries, Timestamp) {
        let makespan = self
            .run
            .span
            .map_or(fallback_now, |(_, last_finish)| last_finish);
        (self.run.finish(), self.windows.finish(), makespan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dichotomy_common::rng::{self, Rng};
    use dichotomy_common::{ClientId, TxnId};

    fn id(seq: u64) -> TxnId {
        TxnId::new(ClientId(1), seq)
    }

    /// `sketch` within `tol` relative error of `exact` (absolute floor of
    /// one microsecond so tiny exact values don't demand impossible
    /// precision).
    fn close(sketch: u64, exact: u64, tol: f64) -> bool {
        (sketch as f64 - exact as f64).abs() <= (tol * exact as f64).max(1.0)
    }

    /// Feed `samples` through a [`StreamingLatency`] and compare against the
    /// exact summary, asserting the documented accuracy bounds: mean and
    /// max exact, p50 within `tol_mid`, p95/p99 within `tol_tail`.
    fn assert_sketch_tracks_exact(samples: Vec<u64>, tol_mid: f64, tol_tail: f64, label: &str) {
        let mut sketch = StreamingLatency::default();
        for &s in &samples {
            sketch.observe(s);
        }
        let exact = LatencySummary::of(samples);
        let est = sketch.summary();
        assert!(
            (est.mean_us - exact.mean_us).abs() <= 1e-6 * exact.mean_us.max(1.0),
            "{label}: mean {} vs exact {}",
            est.mean_us,
            exact.mean_us
        );
        assert_eq!(est.max_us, exact.max_us, "{label}: max is tracked exactly");
        assert!(
            close(est.p50_us, exact.p50_us, tol_mid),
            "{label}: p50 {} vs exact {}",
            est.p50_us,
            exact.p50_us
        );
        assert!(
            close(est.p95_us, exact.p95_us, tol_tail),
            "{label}: p95 {} vs exact {}",
            est.p95_us,
            exact.p95_us
        );
        assert!(
            close(est.p99_us, exact.p99_us, tol_tail),
            "{label}: p99 {} vs exact {}",
            est.p99_us,
            exact.p99_us
        );
    }

    #[test]
    fn sketch_tracks_exact_percentiles_on_uniform_data() {
        for case in 0..5u64 {
            let mut r = rng::seeded(rng::derive_seed(0x5EED, &format!("uniform{case}")));
            let samples: Vec<u64> = (0..20_000).map(|_| r.gen_range(1..100_000u64)).collect();
            // Uniform is P²'s best case: a few percent everywhere.
            assert_sketch_tracks_exact(samples, 0.05, 0.05, "uniform");
        }
    }

    #[test]
    fn sketch_tracks_exact_percentiles_on_heavy_tailed_data() {
        // Pareto-shaped (Zipf-like tail): x = scale · u^(−1/α), α = 1.2.
        // The tail stretches across four orders of magnitude; the sketch is
        // documented to hold mid-quantiles to a few percent and tails to
        // ~10 % here.
        for case in 0..5u64 {
            let mut r = rng::seeded(rng::derive_seed(0x21F, &format!("zipf{case}")));
            let samples: Vec<u64> = (0..20_000)
                .map(|_| {
                    let u: f64 = r.gen::<f64>().max(1e-9);
                    (100.0 * u.powf(-1.0 / 1.2)).min(1e9) as u64
                })
                .collect();
            assert_sketch_tracks_exact(samples, 0.05, 0.10, "pareto");
        }
    }

    #[test]
    fn sketch_is_exact_on_constant_data() {
        let mut sketch = StreamingLatency::default();
        for _ in 0..10_000 {
            sketch.observe(777);
        }
        let est = sketch.summary();
        assert_eq!(est.p50_us, 777);
        assert_eq!(est.p95_us, 777);
        assert_eq!(est.p99_us, 777);
        assert_eq!(est.max_us, 777);
        assert_eq!(est.mean_us, 777.0);
    }

    #[test]
    fn sketch_tracks_bimodal_data_within_documented_bounds() {
        // Two tight modes three orders of magnitude apart — the adversarial
        // case for P². The upper-tail quantiles sit inside the slow mode and
        // stay within ~10 %; the median may land between the modes, so the
        // documented bound for p50 is only "inside the sampled range".
        for case in 0..5u64 {
            let mut r = rng::seeded(rng::derive_seed(0xB1D0, &format!("bimodal{case}")));
            let samples: Vec<u64> = (0..20_000)
                .map(|_| {
                    if r.gen_bool(0.5) {
                        r.gen_range(900..1_100u64)
                    } else {
                        r.gen_range(90_000..110_000u64)
                    }
                })
                .collect();
            let mut sketch = StreamingLatency::default();
            for &s in &samples {
                sketch.observe(s);
            }
            let exact = LatencySummary::of(samples);
            let est = sketch.summary();
            assert_eq!(est.max_us, exact.max_us);
            assert!(
                est.p50_us >= 900 && est.p50_us <= 110_000,
                "p50 {} outside the sampled range",
                est.p50_us
            );
            assert!(
                close(est.p95_us, exact.p95_us, 0.10),
                "p95 {} vs exact {}",
                est.p95_us,
                exact.p95_us
            );
            assert!(
                close(est.p99_us, exact.p99_us, 0.10),
                "p99 {} vs exact {}",
                est.p99_us,
                exact.p99_us
            );
        }
    }

    #[test]
    fn sketch_edges_match_exact_for_empty_and_tiny_populations() {
        // Empty: the zero default, like `LatencySummary::of(vec![])`.
        assert_eq!(
            StreamingLatency::default().summary(),
            LatencySummary::default()
        );
        // Up to five samples the sketch holds the population exactly and
        // reports the same nearest-rank order statistics.
        for n in 1..=5usize {
            let samples: Vec<u64> = (1..=n as u64).map(|i| i * 30).rev().collect();
            let mut sketch = StreamingLatency::default();
            for &s in &samples {
                sketch.observe(s);
            }
            assert_eq!(
                sketch.summary(),
                LatencySummary::of(samples),
                "n = {n} should be exact"
            );
        }
    }

    /// Fold `receipts` in order through one [`ReceiptFold`] over `E`.
    fn fold_all<E: LatencyEstimator>(
        receipts: &[TxnReceipt],
        window_us: u64,
        warmup_us: Timestamp,
    ) -> (Metrics, TimeSeries, Timestamp) {
        let mut fold = ReceiptFold::<E>::new(window_us, warmup_us);
        receipts.iter().for_each(|r| fold.observe(r));
        fold.finish(0)
    }

    /// A committed receipt whose latency splits into two reported phases.
    fn phased(seq: u64, submit: Timestamp, finish: Timestamp) -> TxnReceipt {
        let mut receipt = TxnReceipt::committed(id(seq), submit, finish);
        let latency = finish - submit;
        receipt.phase_latencies = vec![("execute", latency / 3), ("commit", latency - latency / 3)];
        receipt
    }

    #[test]
    fn streaming_aggregator_mirrors_the_exact_pipeline() {
        // A mixed run: commits and aborts, latencies spread across windows,
        // some receipts inside the warm-up. Counts, boundaries, rates,
        // means and phase means must match the exact pipeline exactly;
        // percentiles within the sketch bounds.
        let mut r = rng::seeded(rng::derive_seed(0xA66, "aggregator"));
        let receipts: Vec<TxnReceipt> = (0..4_000u64)
            .map(|i| {
                let submit = i * 37;
                let latency = r.gen_range(50..5_000u64);
                if i % 7 == 0 {
                    TxnReceipt::aborted(id(i), AbortReason::Overload, submit, submit + latency)
                } else {
                    phased(i, submit, submit + latency)
                }
            })
            .collect();
        let (window_us, warmup_us) = (10_000, 5_000);

        let (metrics, series, makespan) =
            fold_all::<StreamingLatency>(&receipts, window_us, warmup_us);

        let exact_metrics = Metrics::from_receipts(&receipts);
        let exact_series = TimeSeries::from_receipts(&receipts, window_us, warmup_us);
        assert_eq!(metrics.committed, exact_metrics.committed);
        assert_eq!(metrics.aborts, exact_metrics.aborts);
        assert_eq!(metrics.duration_us, exact_metrics.duration_us);
        assert_eq!(metrics.throughput_tps, exact_metrics.throughput_tps);
        assert_eq!(metrics.latency.mean_us, exact_metrics.latency.mean_us);
        assert_eq!(metrics.latency.max_us, exact_metrics.latency.max_us);
        assert_eq!(metrics.phase_means_us.len(), 2);
        assert_eq!(metrics.phase_means_us, exact_metrics.phase_means_us);
        assert!(close(
            metrics.latency.p50_us,
            exact_metrics.latency.p50_us,
            0.05
        ));
        assert!(close(
            metrics.latency.p99_us,
            exact_metrics.latency.p99_us,
            0.10
        ));
        assert_eq!(
            makespan,
            receipts.iter().map(|r| r.finish_time).max().unwrap()
        );

        assert_eq!(series.windows.len(), exact_series.windows.len());
        for (w, e) in series.windows.iter().zip(&exact_series.windows) {
            assert_eq!((w.start_us, w.end_us), (e.start_us, e.end_us));
            assert_eq!(w.submitted, e.submitted);
            assert_eq!(w.committed, e.committed);
            assert_eq!(w.aborted, e.aborted);
            assert_eq!(w.offered_tps, e.offered_tps);
            assert_eq!(w.throughput_tps, e.throughput_tps);
            assert_eq!(w.abort_rate_percent, e.abort_rate_percent);
            assert_eq!(w.latency.max_us, e.latency.max_us);
            assert!(
                close(w.latency.p50_us, e.latency.p50_us, 0.10),
                "window at {}: p50 {} vs {}",
                w.start_us,
                w.latency.p50_us,
                e.latency.p50_us
            );
        }
    }

    #[test]
    fn estimators_agree_exactly_on_populations_of_at_most_five() {
        // P² holds its first five samples exactly, so on a stream whose run
        // and every window commit at most five transactions the two
        // estimators must produce equal `Metrics` and `TimeSeries` — every
        // percentile, mean and phase mean included. The stream covers every
        // bucketing edge: aborts, finishes inside the warm-up, a submit
        // before the warm-up origin, and an empty gap window.
        let (window_us, warmup_us) = (1_000, 2_000);
        for case in 0..16u64 {
            let mut r = rng::seeded(rng::derive_seed(0x5A11, &format!("tiny{case}")));
            let mut at = |lo: u64, hi: u64| r.gen_range(lo..hi);
            let receipts = vec![
                // Both finish inside the warm-up: run level only.
                TxnReceipt::aborted(id(0), AbortReason::Overload, at(0, 500), at(500, 2_000)),
                phased(1, at(0, 500), at(1_000, 2_000)),
                // Submitted before the warm-up origin, finished in window 0.
                phased(2, at(1_000, 2_000), at(2_000, 3_000)),
                phased(3, at(2_000, 2_500), at(2_500, 3_000)),
                TxnReceipt::aborted(
                    id(4),
                    AbortReason::ReadWriteConflict,
                    at(2_000, 2_500),
                    at(2_500, 3_000),
                ),
                // Window 1 (3000–4000 µs) stays empty.
                phased(5, at(4_000, 4_400), at(4_400, 5_000)),
                TxnReceipt::aborted(
                    id(6),
                    AbortReason::Overload,
                    at(4_000, 4_400),
                    at(4_400, 5_000),
                ),
                phased(7, at(4_500, 5_000), at(5_000, 6_000)),
            ];
            let exact = fold_all::<ExactLatency>(&receipts, window_us, warmup_us);
            assert_eq!(
                fold_all::<StreamingLatency>(&receipts, window_us, warmup_us),
                exact,
                "case {case}"
            );
            // The wrappers are the same fold.
            assert_eq!(exact.0, Metrics::from_receipts(&receipts));
            assert_eq!(
                exact.1,
                TimeSeries::from_receipts(&receipts, window_us, warmup_us)
            );
            // The stream has the shape it claims.
            let (metrics, series, _) = exact;
            assert_eq!((metrics.committed, metrics.aborted()), (5, 3));
            assert_eq!(metrics.phase_means_us.len(), 2);
            let tally = |w: &TimeWindow| (w.submitted, w.committed, w.aborted);
            assert_eq!(
                series.windows.iter().map(tally).collect::<Vec<_>>(),
                vec![(2, 2, 1), (0, 0, 0), (3, 1, 1), (0, 1, 0)]
            );
        }
    }

    #[test]
    fn streaming_aggregator_handles_empty_and_gap_shapes() {
        // No receipts: default metrics, empty series, fallback makespan.
        let (m, s, makespan) = StreamingAggregator::new(1_000, 0).finish(42);
        assert_eq!(m.committed, 0);
        assert!(s.is_empty());
        assert_eq!(makespan, 42);
        // A gap between finishes materializes as an all-zero window, exactly
        // like the exact pipeline's dip shape.
        let receipts = vec![
            TxnReceipt::committed(id(1), 0, 500),
            TxnReceipt::committed(id(2), 3_000, 3_500),
        ];
        let mut agg = StreamingAggregator::new(1_000, 0);
        for r in &receipts {
            agg.observe(r);
        }
        let (_, series, _) = agg.finish(0);
        let exact = TimeSeries::from_receipts(&receipts, 1_000, 0);
        assert_eq!(series.windows.len(), 4);
        assert_eq!(
            series
                .windows
                .iter()
                .map(|w| w.committed)
                .collect::<Vec<_>>(),
            exact
                .windows
                .iter()
                .map(|w| w.committed)
                .collect::<Vec<_>>()
        );
        assert_eq!(series.windows[1].committed, 0);
        assert_eq!(series.windows[1].latency, LatencySummary::default());
    }

    #[test]
    fn empty_receipts_give_zero_metrics() {
        let m = Metrics::from_receipts(&[]);
        assert_eq!(m.committed, 0);
        assert_eq!(m.throughput_tps, 0.0);
        assert_eq!(m.abort_rate_percent(), 0.0);
    }

    #[test]
    fn throughput_and_latency_are_computed_over_the_window() {
        // 10 commits over 1 second of simulated time, each 1 ms latency.
        let receipts: Vec<TxnReceipt> = (0..10)
            .map(|i| TxnReceipt::committed(id(i), i * 100_000, i * 100_000 + 1_000))
            .collect();
        let m = Metrics::from_receipts(&receipts);
        assert_eq!(m.committed, 10);
        assert!(
            (m.throughput_tps - 10.0 / 0.901).abs() < 0.5,
            "{}",
            m.throughput_tps
        );
        assert_eq!(m.latency.p50_us, 1_000);
        assert_eq!(m.latency.max_us, 1_000);
        assert!((m.latency.mean_us - 1_000.0).abs() < 1e-9);
    }

    #[test]
    fn abort_breakdown_by_reason() {
        let receipts = vec![
            TxnReceipt::committed(id(1), 0, 10),
            TxnReceipt::aborted(id(2), AbortReason::ReadWriteConflict, 0, 10),
            TxnReceipt::aborted(id(3), AbortReason::ReadWriteConflict, 0, 10),
            TxnReceipt::aborted(id(4), AbortReason::InconsistentRead, 0, 10),
        ];
        let m = Metrics::from_receipts(&receipts);
        assert_eq!(m.committed, 1);
        assert_eq!(m.aborted(), 3);
        assert_eq!(m.abort_rate_percent(), 75.0);
        assert_eq!(m.abort_share_percent(AbortReason::ReadWriteConflict), 50.0);
        assert_eq!(m.abort_share_percent(AbortReason::InconsistentRead), 25.0);
        assert_eq!(m.abort_share_percent(AbortReason::Overload), 0.0);
    }

    #[test]
    fn phase_means_average_across_committed_receipts() {
        let mut a = TxnReceipt::committed(id(1), 0, 300);
        a.phase_latencies = vec![("execute", 100), ("validate", 200)];
        let mut b = TxnReceipt::committed(id(2), 0, 500);
        b.phase_latencies = vec![("execute", 300), ("validate", 200)];
        let m = Metrics::from_receipts(&[a, b]);
        assert_eq!(m.phase_means_us["execute"], 200.0);
        assert_eq!(m.phase_means_us["validate"], 200.0);
    }

    #[test]
    fn percentiles_are_order_statistics() {
        // n=100, latencies 10..=1000 step 10: nearest rank ⌈q·n⌉−1 picks
        // index 49 / 94 / 98.
        let receipts: Vec<TxnReceipt> = (1..=100)
            .map(|i| TxnReceipt::committed(id(i), 0, i * 10))
            .collect();
        let m = Metrics::from_receipts(&receipts);
        assert_eq!(m.latency.p50_us, 500);
        assert_eq!(m.latency.p95_us, 950);
        assert_eq!(m.latency.p99_us, 990);
        assert_eq!(m.latency.max_us, 1000);
        // n=10, latencies 10..=100: ⌈0.99·10⌉−1 = 9, so p99 is the maximum
        // (the old floor((n−1)·q) rounding reported index 8, i.e. 90).
        let m = Metrics::from_receipts(
            &(1..=10)
                .map(|i| TxnReceipt::committed(id(i), 0, i * 10))
                .collect::<Vec<_>>(),
        );
        assert_eq!(m.latency.p50_us, 50);
        assert_eq!(m.latency.p95_us, 100);
        assert_eq!(m.latency.p99_us, 100);
    }

    #[test]
    fn single_receipt_metrics_are_well_defined() {
        let m = Metrics::from_receipts(&[TxnReceipt::committed(id(1), 100, 400)]);
        assert_eq!(m.committed, 1);
        assert_eq!(m.aborted(), 0);
        // Degenerate window: duration clamps to ≥ 1 µs, so throughput is
        // finite; every percentile equals the single sample.
        assert!(m.throughput_tps.is_finite() && m.throughput_tps > 0.0);
        assert_eq!(m.latency.p50_us, 300);
        assert_eq!(m.latency.p95_us, 300);
        assert_eq!(m.latency.p99_us, 300);
        assert_eq!(m.latency.max_us, 300);
        assert_eq!(m.latency.mean_us, 300.0);
    }

    #[test]
    fn all_aborted_run_has_zero_throughput_and_full_abort_rate() {
        let receipts: Vec<TxnReceipt> = (0..5)
            .map(|i| TxnReceipt::aborted(id(i), AbortReason::Overload, i * 10, i * 10 + 5))
            .collect();
        let m = Metrics::from_receipts(&receipts);
        assert_eq!(m.committed, 0);
        assert_eq!(m.aborted(), 5);
        assert_eq!(m.throughput_tps, 0.0);
        assert_eq!(m.abort_rate_percent(), 100.0);
        // No committed latencies: the summary is the zero default.
        assert_eq!(m.latency, LatencySummary::default());
    }

    #[test]
    fn empty_receipts_give_an_empty_time_series() {
        let s = TimeSeries::from_receipts(&[], 1_000, 0);
        assert!(s.is_empty());
        assert_eq!(s.window_at(500), None);
    }

    #[test]
    fn time_series_buckets_by_finish_time_and_keeps_empty_windows() {
        // Finishes at 500, 1500, 1600 and 3500: four 1 ms windows, the third
        // of which is empty (the "dip" shape).
        let receipts = vec![
            TxnReceipt::committed(id(1), 0, 500),
            TxnReceipt::committed(id(2), 1_000, 1_500),
            TxnReceipt::aborted(id(3), AbortReason::Overload, 1_000, 1_600),
            TxnReceipt::committed(id(4), 3_000, 3_500),
        ];
        let s = TimeSeries::from_receipts(&receipts, 1_000, 0);
        assert_eq!(s.windows.len(), 4);
        assert_eq!(
            s.windows.iter().map(|w| w.committed).collect::<Vec<_>>(),
            vec![1, 1, 0, 1]
        );
        // The offered side buckets by submit time: submits at 0, 1000, 1000
        // and 3000.
        assert_eq!(
            s.windows.iter().map(|w| w.submitted).collect::<Vec<_>>(),
            vec![1, 2, 0, 1]
        );
        assert_eq!(s.windows[1].offered_tps, 2_000.0);
        assert_eq!(s.windows[1].aborted, 1);
        assert_eq!(s.windows[1].abort_rate_percent, 50.0);
        assert_eq!(s.windows[2].throughput_tps, 0.0);
        // 1 commit per 1 ms window = 1000 tps.
        assert_eq!(s.windows[0].throughput_tps, 1_000.0);
        assert_eq!(s.window_at(3_200).unwrap().start_us, 3_000);
        assert_eq!(s.windows[0].end_us, 1_000);
    }

    #[test]
    fn offered_load_outruns_achieved_load_in_a_backlogged_series() {
        // 10 submissions inside the first millisecond, but the pipeline only
        // finishes one per millisecond: offered ≫ achieved early, and the
        // backlog drains across later windows with zero offered load.
        let receipts: Vec<TxnReceipt> = (0..10)
            .map(|i| TxnReceipt::committed(id(i), i * 100, (i + 1) * 1_000))
            .collect();
        let s = TimeSeries::from_receipts(&receipts, 1_000, 0);
        assert_eq!(s.windows[0].submitted, 10);
        assert_eq!(s.windows[0].committed, 0);
        assert!(s.windows[0].offered_tps > s.windows[0].throughput_tps);
        let tail = s.windows.last().unwrap();
        assert_eq!(tail.submitted, 0);
        assert_eq!(tail.committed, 1);
        // Submits before the warm-up origin are trimmed from the offered
        // side just like early finishes.
        let trimmed = TimeSeries::from_receipts(&receipts, 1_000, 1_000);
        assert_eq!(trimmed.windows[0].start_us, 1_000);
        assert_eq!(
            trimmed.windows.iter().map(|w| w.submitted).sum::<u64>(),
            0,
            "all submits (0–900 µs) predate the warm-up origin"
        );
    }

    #[test]
    fn warmup_trimming_drops_early_finishes_and_shifts_the_origin() {
        let receipts = vec![
            TxnReceipt::committed(id(1), 0, 400), // trimmed
            TxnReceipt::committed(id(2), 0, 1_200),
            TxnReceipt::committed(id(3), 0, 1_900),
        ];
        let s = TimeSeries::from_receipts(&receipts, 1_000, 1_000);
        assert_eq!(s.windows.len(), 1);
        assert_eq!(s.windows[0].start_us, 1_000);
        assert_eq!(s.windows[0].committed, 2);
        assert_eq!(s.window_at(500), None, "before the warm-up origin");
    }

    #[test]
    fn windowed_percentiles_match_a_hand_computed_fixture() {
        // Window 0 (finish < 1000): latencies 10..=100 step 10 (10 samples).
        // Window 1: latencies 200 and 400.
        let mut receipts: Vec<TxnReceipt> = (1..=10)
            .map(|i| TxnReceipt::committed(id(i), 0, i * 10))
            .collect();
        receipts.push(TxnReceipt::committed(id(11), 1_000, 1_200));
        receipts.push(TxnReceipt::committed(id(12), 1_000, 1_400));
        let s = TimeSeries::from_receipts(&receipts, 1_000, 0);
        assert_eq!(s.windows.len(), 2);
        let w0 = &s.windows[0];
        // Nearest rank, index = ⌈q·n⌉−1: n=10 → p50 at index 4 (50),
        // p95 at index ⌈9.5⌉−1 = 9 (100), p99 at index ⌈9.9⌉−1 = 9 (100).
        assert_eq!(w0.latency.p50_us, 50);
        assert_eq!(w0.latency.p95_us, 100);
        assert_eq!(w0.latency.p99_us, 100);
        assert_eq!(w0.latency.max_us, 100);
        assert_eq!(w0.latency.mean_us, 55.0);
        let w1 = &s.windows[1];
        // n=2 → p50 at index ⌈1⌉−1 = 0 (200), p95/p99 at index ⌈1.9⌉−1 = 1
        // (400), max 400.
        assert_eq!(w1.latency.p50_us, 200);
        assert_eq!(w1.latency.p95_us, 400);
        assert_eq!(w1.latency.p99_us, 400);
        assert_eq!(w1.latency.max_us, 400);
        assert_eq!(w1.latency.mean_us, 300.0);
    }
}
