use super::ledger::PAGE_BITS;
use super::*;
use dichotomy_common::rng::Rng;
use dichotomy_common::TxnReceipt;
use dichotomy_systems::{Completion, Etcd, Quorum, ReceiptLog, SystemKind, SystemSpec};
use dichotomy_workload::{YcsbConfig, YcsbWorkload};

fn small_ycsb(theta: f64) -> YcsbWorkload {
    YcsbWorkload::new(YcsbConfig {
        record_count: 1_000,
        record_size: 200,
        zipf_theta: theta,
        ..YcsbConfig::default()
    })
}

#[test]
fn saturating_run_reports_positive_throughput_and_latency() {
    let mut system = Etcd::new(&SystemSpec::new(SystemKind::Etcd));
    let mut workload = small_ycsb(0.0);
    let stats = run_workload(&mut system, &mut workload, &DriverConfig::saturating(500));
    assert_eq!(stats.metrics.committed, 500);
    assert_eq!(stats.arrivals_issued, 500);
    assert!(stats.metrics.throughput_tps > 100.0);
    assert!(stats.metrics.latency.p95_us > 0);
    assert!(stats.makespan_us > 0);
    // Every arrival plus at least one stage event per write.
    assert!(stats.events_delivered > 500);
    assert_eq!(stats.events_clamped, 0, "no causality violations");
}

#[test]
fn no_model_schedules_events_into_the_past() {
    // Drive every registered system kind through the event loop and
    // check the engine's clamp counter: a nonzero value means a model
    // scheduled a stage event before the current simulated time.
    for kind in SystemKind::ALL {
        let mut system = SystemSpec::new(kind).build().expect("builtin model");
        let mut workload = small_ycsb(0.4);
        let stats = run_workload(
            system.as_mut(),
            &mut workload,
            &DriverConfig::saturating(200),
        );
        assert_eq!(stats.events_clamped, 0, "{kind:?} clamped events");
    }
}

#[test]
fn unsaturated_latency_is_lower_than_saturated_latency() {
    let build = || Quorum::new(&SystemSpec::new(SystemKind::Quorum).with_blocks(20, 50_000));
    let mut saturated_sys = build();
    let saturated = run_workload(
        &mut saturated_sys,
        &mut small_ycsb(0.0),
        &DriverConfig::saturating(300),
    );
    let mut unsaturated_sys = build();
    let unsaturated = run_workload(
        &mut unsaturated_sys,
        &mut small_ycsb(0.0),
        &DriverConfig {
            transactions: 50,
            arrival: ArrivalSpec::OpenLoop { offered_tps: 20.0 },
            ..DriverConfig::default()
        },
    );
    assert!(
        unsaturated.metrics.latency.mean_us < saturated.metrics.latency.mean_us,
        "unsaturated {} vs saturated {}",
        unsaturated.metrics.latency.mean_us,
        saturated.metrics.latency.mean_us
    );
}

#[test]
fn saturating_runs_produce_a_backlog_shaped_time_series() {
    // Offer far more load than Quorum's serial pipeline absorbs: the
    // windowed latency (queueing delay) climbs across the run.
    let mut system = Quorum::new(&SystemSpec::new(SystemKind::Quorum).with_blocks(50, 50_000));
    let stats = run_workload(
        &mut system,
        &mut small_ycsb(0.0),
        &DriverConfig::saturating(600),
    );
    let busy: Vec<_> = stats
        .series
        .windows
        .iter()
        .filter(|w| w.committed > 0)
        .collect();
    assert!(busy.len() >= 3, "expected several busy windows");
    let first = busy.first().unwrap();
    let last = busy.last().unwrap();
    assert!(
        last.latency.p50_us > first.latency.p50_us * 2,
        "backlog should inflate windowed latency: first p50 {} last p50 {}",
        first.latency.p50_us,
        last.latency.p50_us
    );
}

/// Records what the driver submits, completing everything `latency_us`
/// later through the real completion channel: makes every arrival
/// process directly observable.
struct ArrivalRecorder {
    arrivals: Vec<Timestamp>,
    clients: Vec<u64>,
    latency_us: u64,
    receipts: ReceiptLog,
}

impl Default for ArrivalRecorder {
    fn default() -> Self {
        ArrivalRecorder {
            arrivals: Vec::new(),
            clients: Vec::new(),
            latency_us: 1,
            receipts: ReceiptLog::new(),
        }
    }
}

impl TransactionalSystem for ArrivalRecorder {
    fn kind(&self) -> dichotomy_systems::SystemKind {
        dichotomy_systems::SystemKind::Etcd
    }
    fn load(&mut self, _records: &[(dichotomy_common::Key, dichotomy_common::Value)]) {}
    fn on_arrival(&mut self, txn: dichotomy_common::Transaction, engine: &mut Engine) {
        let arrival = engine.now();
        self.arrivals.push(arrival);
        self.clients.push(txn.id().client.0);
        self.receipts
            .push_back(dichotomy_common::TxnReceipt::committed(
                txn.id(),
                arrival,
                arrival + self.latency_us,
            ));
    }
    fn drain_completions(&mut self, buf: &mut Vec<Completion>) {
        self.receipts.swap_completions(buf);
    }
    fn drain_receipts_into(&mut self, buf: &mut Vec<TxnReceipt>) {
        self.receipts.swap_receipts(buf);
    }
    fn footprint(&self) -> dichotomy_common::size::StorageBreakdown {
        dichotomy_common::size::StorageBreakdown::default()
    }
    fn node_count(&self) -> usize {
        1
    }
}

fn record_arrivals(config: &DriverConfig) -> ArrivalRecorder {
    let mut recorder = ArrivalRecorder::default();
    let mut workload = small_ycsb(0.0);
    run_workload(&mut recorder, &mut workload, config);
    recorder
}

#[test]
fn arrival_times_are_strictly_increasing() {
    let recorder = record_arrivals(&DriverConfig {
        transactions: 2_000,
        arrival: ArrivalSpec::OpenLoop {
            offered_tps: 10_000.0,
        },
        ..DriverConfig::default()
    });
    assert_eq!(recorder.arrivals.len(), 2_000);
    assert!(
        recorder.arrivals.windows(2).all(|w| w[0] < w[1]),
        "open-loop arrivals must advance monotonically"
    );
}

#[test]
fn arrivals_never_tie_even_at_extreme_offered_load() {
    // Regression for the per-client jitter: at a mean gap of ~1 µs the
    // old cumulative jitter let two clients submit at the same µs tick,
    // leaving the interleaving to heap tie-breaking. Arrivals must be
    // strictly monotonic globally (hence per client too) and identical
    // across equal-seed runs.
    let config = DriverConfig {
        transactions: 5_000,
        arrival: ArrivalSpec::OpenLoop {
            offered_tps: 1_000_000.0,
        },
        ..DriverConfig::default()
    };
    let a = record_arrivals(&config);
    assert!(
        a.arrivals.windows(2).all(|w| w[0] < w[1]),
        "global strict monotonicity"
    );
    for client in 0..config.arrival.client_span() {
        let per_client: Vec<_> = a
            .arrivals
            .iter()
            .zip(&a.clients)
            .filter(|(_, c)| **c == client)
            .map(|(t, _)| *t)
            .collect();
        assert!(
            per_client.windows(2).all(|w| w[0] < w[1]),
            "client {client} arrivals must be strictly monotonic"
        );
    }
    let b = record_arrivals(&config);
    assert_eq!(a.arrivals, b.arrivals, "same seed, same schedule");
}

#[test]
fn mean_inter_arrival_gap_tracks_the_offered_load() {
    for offered_tps in [1_000.0, 25_000.0] {
        let recorder = record_arrivals(&DriverConfig {
            transactions: 8_000,
            arrival: ArrivalSpec::OpenLoop { offered_tps },
            ..DriverConfig::default()
        });
        let span = (recorder.arrivals.last().unwrap() - recorder.arrivals[0]) as f64;
        let observed_gap = span / (recorder.arrivals.len() - 1) as f64;
        let expected_gap = 1e6 / offered_tps;
        assert!(
            (observed_gap - expected_gap).abs() < expected_gap * 0.1,
            "offered {offered_tps} tps: observed mean gap {observed_gap:.1} µs, \
             expected ≈{expected_gap:.1} µs"
        );
    }
}

#[test]
fn arrivals_cycle_round_robin_across_the_configured_clients() {
    let transactions = 401u64;
    let config = DriverConfig {
        transactions,
        ..DriverConfig::default()
    };
    let clients = config.arrival.client_span();
    assert_eq!(clients, 32, "the open loop's fixed population");
    let recorder = record_arrivals(&config);
    // The i-th submission comes from client i mod `clients`, as the
    // ArrivalSpec docs promise.
    for (i, client) in recorder.clients.iter().enumerate() {
        assert_eq!(*client, i as u64 % clients, "submission {i}");
    }
    // Every client id in [0, clients) appears, and the spread is even to
    // within one transaction.
    let mut counts = vec![0u64; clients as usize];
    for client in &recorder.clients {
        counts[*client as usize] += 1;
    }
    let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
    assert!(max - min <= 1, "uneven spread: {counts:?}");
}

#[test]
fn driver_seed_changes_the_arrival_jitter() {
    let arrivals =
        |seed: u64| record_arrivals(&DriverConfig::saturating(500).with_seed(seed)).arrivals;
    assert_eq!(arrivals(7), arrivals(7));
    assert_ne!(arrivals(7), arrivals(8));
}

#[test]
fn streaming_metrics_mode_matches_exact_counts_and_shape() {
    // The same seeded run under both metrics modes: the simulation is
    // identical (arrivals, events, makespan), exact-valued aggregates
    // (counts, means, maxima, window boundaries) agree exactly, and the
    // sketched percentiles land within the documented bounds.
    let run = |metrics| {
        let mut system = Etcd::new(&SystemSpec::new(SystemKind::Etcd));
        let mut workload = small_ycsb(0.6);
        let config = DriverConfig {
            window_us: Some(20_000),
            metrics,
            ..DriverConfig::saturating(300)
        };
        run_workload(&mut system, &mut workload, &config)
    };
    let exact = run(MetricsMode::Exact);
    let streamed = run(MetricsMode::Streaming);
    assert_eq!(streamed.arrivals_issued, exact.arrivals_issued);
    assert_eq!(streamed.events_delivered, exact.events_delivered);
    assert_eq!(streamed.makespan_us, exact.makespan_us);
    assert_eq!(streamed.metrics.committed, exact.metrics.committed);
    assert_eq!(streamed.metrics.aborts, exact.metrics.aborts);
    assert_eq!(streamed.metrics.duration_us, exact.metrics.duration_us);
    assert_eq!(
        streamed.metrics.latency.max_us,
        exact.metrics.latency.max_us
    );
    assert!(
        (streamed.metrics.latency.mean_us - exact.metrics.latency.mean_us).abs() < 1e-6,
        "means are exact in both modes"
    );
    let (p50s, p50e) = (
        streamed.metrics.latency.p50_us as f64,
        exact.metrics.latency.p50_us as f64,
    );
    assert!(
        (p50s - p50e).abs() <= (0.10 * p50e).max(1.0),
        "sketched p50 {p50s} strays from exact {p50e}"
    );
    assert_eq!(streamed.series.windows.len(), exact.series.windows.len());
    for (s, e) in streamed.series.windows.iter().zip(&exact.series.windows) {
        assert_eq!((s.start_us, s.end_us), (e.start_us, e.end_us));
        assert_eq!(s.submitted, e.submitted);
        assert_eq!(s.committed, e.committed);
        assert_eq!(s.aborted, e.aborted);
    }
}

#[test]
fn same_seed_reproduces_identical_results() {
    let run = || {
        let mut system = Etcd::new(&SystemSpec::new(SystemKind::Etcd));
        let mut workload = small_ycsb(0.6);
        run_workload(&mut system, &mut workload, &DriverConfig::saturating(300))
    };
    let a = run();
    let b = run();
    assert_eq!(a.metrics.committed, b.metrics.committed);
    assert_eq!(a.metrics.latency.p50_us, b.metrics.latency.p50_us);
    assert_eq!(a.makespan_us, b.makespan_us);
    assert_eq!(a.events_delivered, b.events_delivered);
    assert_eq!(a.series, b.series);
}

#[test]
fn open_loop_spec_matches_the_legacy_arrival_process_exactly() {
    // Byte-identity pin for the arrival refactors: an explicit
    // `ArrivalSpec::OpenLoop` and an inline replay of the pre-refactor
    // arrival arithmetic must produce the same schedule, microsecond for
    // microsecond.
    let offered_tps = 30_000.0;
    let config = DriverConfig {
        transactions: 1_000,
        arrival: ArrivalSpec::OpenLoop { offered_tps },
        seed: 99,
        ..DriverConfig::default()
    };
    let explicit = record_arrivals(&config);

    // The legacy `ArrivalProcess` arithmetic, replayed inline.
    let mut rng = rng::seeded(rng::derive_seed(config.seed, "driver"));
    let mean_gap_us = 1e6 / offered_tps;
    let (mut base, mut last) = (0u64, 0u64);
    let legacy: Vec<Timestamp> = (0..config.transactions)
        .map(|_| {
            base += rng::exp_delay_us(&mut rng, mean_gap_us).max(1);
            let jitter = rng.gen_range(0..2u64);
            let at = (base + jitter).max(last + 1);
            last = at;
            at
        })
        .collect();
    assert_eq!(explicit.arrivals, legacy);
}

#[test]
fn closed_loop_waits_for_completion_plus_think_time() {
    // One request in flight per client and a fixed service latency: each
    // client's next arrival cannot predate its previous completion.
    let latency_us = 700u64;
    let mut recorder = ArrivalRecorder {
        latency_us,
        ..ArrivalRecorder::default()
    };
    let config = DriverConfig {
        transactions: 400,
        arrival: ArrivalSpec::ClosedLoop {
            clients: 4,
            think_time_us: 300,
        },
        ..DriverConfig::default()
    };
    run_workload(&mut recorder, &mut small_ycsb(0.0), &config);
    assert_eq!(recorder.arrivals.len(), 400, "budget fully issued");
    for client in 0..4u64 {
        let per_client: Vec<_> = recorder
            .arrivals
            .iter()
            .zip(&recorder.clients)
            .filter(|(_, c)| **c == client)
            .map(|(t, _)| *t)
            .collect();
        assert!(per_client.len() > 50, "client {client} starved");
        for pair in per_client.windows(2) {
            assert!(
                pair[1] >= pair[0] + latency_us,
                "client {client}: arrival {} predates completion of {}",
                pair[1],
                pair[0]
            );
        }
    }
}

/// Completes each transaction through a stage event `service_us` after
/// arrival, so in-flight windows are real intervals on the engine clock.
struct StagedRecorder {
    service_us: u64,
    /// (client, arrival, finish) per transaction, finish filled at the
    /// completion stage.
    spans: Vec<(u64, Timestamp, Timestamp)>,
    receipts: ReceiptLog,
    pending: Vec<dichotomy_common::TxnId>,
}

impl TransactionalSystem for StagedRecorder {
    fn kind(&self) -> dichotomy_systems::SystemKind {
        dichotomy_systems::SystemKind::Etcd
    }
    fn load(&mut self, _records: &[(dichotomy_common::Key, dichotomy_common::Value)]) {}
    fn on_arrival(&mut self, txn: dichotomy_common::Transaction, engine: &mut Engine) {
        let token = self.pending.len() as u64;
        self.spans.push((txn.id().client.0, engine.now(), 0));
        self.pending.push(txn.id());
        engine.schedule_at(engine.now() + self.service_us, SysEvent::stage(0, token));
    }
    fn on_stage(&mut self, event: dichotomy_simnet::StageEvent, engine: &mut Engine) {
        let id = self.pending[event.token as usize];
        let span = &mut self.spans[event.token as usize];
        span.2 = engine.now();
        self.receipts
            .push_back(TxnReceipt::committed(id, span.1, engine.now()));
    }
    fn drain_completions(&mut self, buf: &mut Vec<Completion>) {
        self.receipts.swap_completions(buf);
    }
    fn drain_receipts_into(&mut self, buf: &mut Vec<TxnReceipt>) {
        self.receipts.swap_receipts(buf);
    }
    fn footprint(&self) -> dichotomy_common::size::StorageBreakdown {
        dichotomy_common::size::StorageBreakdown::default()
    }
    fn node_count(&self) -> usize {
        1
    }
}

#[test]
fn closed_loop_outstanding_cap_is_never_exceeded_and_is_reached() {
    // A closed-loop client keeps exactly one request in flight: with the
    // service time far above the think time, every client holds one at
    // some instant and never two.
    let clients = 3u64;
    let mut recorder = StagedRecorder {
        service_us: 5_000,
        spans: Vec::new(),
        receipts: ReceiptLog::new(),
        pending: Vec::new(),
    };
    let config = DriverConfig {
        transactions: 600,
        arrival: ArrivalSpec::ClosedLoop {
            clients,
            think_time_us: 200,
        },
        ..DriverConfig::default()
    };
    run_workload(&mut recorder, &mut small_ycsb(0.0), &config);
    assert_eq!(recorder.spans.len(), 600);
    assert!(recorder.spans.iter().all(|(_, _, f)| *f > 0));
    // Recorder-based check: per client, count overlapping [arrival, finish)
    // spans at every arrival instant.
    for client in 0..clients {
        let spans: Vec<_> = recorder
            .spans
            .iter()
            .filter(|(c, _, _)| *c == client)
            .map(|(_, a, f)| (*a, *f))
            .collect();
        let max_in_flight = spans
            .iter()
            .map(|(a, _)| spans.iter().filter(|(a2, f2)| a2 <= a && a < f2).count())
            .max()
            .unwrap_or(0);
        assert_eq!(max_in_flight, 1, "client {client} in flight");
    }
}

fn variant_specs() -> Vec<(&'static str, ArrivalSpec)> {
    vec![
        (
            "open",
            ArrivalSpec::OpenLoop {
                offered_tps: 20_000.0,
            },
        ),
        (
            "closed",
            ArrivalSpec::ClosedLoop {
                clients: 6,
                think_time_us: 400,
            },
        ),
        (
            "phased",
            ArrivalSpec::Phased {
                phases: vec![
                    (
                        30_000,
                        ArrivalSpec::OpenLoop {
                            offered_tps: 2_000.0,
                        },
                    ),
                    (
                        30_000,
                        ArrivalSpec::OpenLoop {
                            offered_tps: 20_000.0,
                        },
                    ),
                ],
            },
        ),
    ]
}

#[test]
fn every_variant_is_seed_deterministic_and_seed_sensitive() {
    for (name, spec) in variant_specs() {
        let run = |seed: u64| {
            let config = DriverConfig {
                transactions: 600,
                seed,
                arrival: spec.clone(),
                ..DriverConfig::default()
            };
            let r = record_arrivals(&config);
            (r.arrivals, r.clients)
        };
        assert_eq!(run(7), run(7), "{name}: same seed must reproduce");
        assert_ne!(run(7), run(8), "{name}: different seed must differ");
    }
}

#[test]
fn every_variant_delivers_strictly_monotonic_unique_arrivals() {
    for (name, spec) in variant_specs() {
        let config = DriverConfig {
            transactions: 600,
            arrival: spec,
            ..DriverConfig::default()
        };
        let r = record_arrivals(&config);
        assert_eq!(r.arrivals.len(), 600, "{name}: full budget issued");
        assert!(
            r.arrivals.windows(2).all(|w| w[0] < w[1]),
            "{name}: delivery-order arrival times must strictly increase"
        );
    }
}

#[test]
fn phased_ramp_shifts_the_offered_rate_at_the_boundary() {
    let boundary = 100_000u64;
    let config = DriverConfig {
        transactions: 1_100,
        arrival: ArrivalSpec::Phased {
            phases: vec![
                (
                    boundary,
                    ArrivalSpec::OpenLoop {
                        offered_tps: 1_000.0,
                    },
                ),
                (
                    boundary,
                    ArrivalSpec::OpenLoop {
                        offered_tps: 10_000.0,
                    },
                ),
            ],
        },
        ..DriverConfig::default()
    };
    let r = record_arrivals(&config);
    let phase1 = r.arrivals.iter().filter(|t| **t < boundary).count();
    let phase2 = r
        .arrivals
        .iter()
        .filter(|t| **t >= boundary && **t < 2 * boundary)
        .count();
    // ≈ 100 arrivals in the slow phase, ≈ 1 000 in the fast one.
    assert!(
        (60..=140).contains(&phase1),
        "phase 1 carried {phase1} arrivals"
    );
    assert!(phase2 >= 700, "phase 2 carried {phase2} arrivals");
    assert!(
        phase2 > phase1 * 5,
        "the ramp must be visible: {phase1} vs {phase2}"
    );
}

#[test]
fn a_closed_loop_phase_ignores_the_previous_phases_draining_backlog() {
    // Regression: an open-loop burst phase hands over to a closed-loop
    // phase while the slow system still holds the burst's backlog. The
    // backlog's completions were submitted before the closed phase began
    // and belong to a retired population — they must not trigger
    // closed-loop submissions, or a client holds more than one request.
    let boundary = 20_000u64;
    let clients = 2u64;
    let mut recorder = StagedRecorder {
        service_us: 50_000,
        spans: Vec::new(),
        receipts: ReceiptLog::new(),
        pending: Vec::new(),
    };
    let config = DriverConfig {
        transactions: 150,
        arrival: ArrivalSpec::Phased {
            phases: vec![
                (
                    boundary,
                    ArrivalSpec::OpenLoop {
                        offered_tps: 5_000.0,
                    },
                ),
                (
                    boundary,
                    ArrivalSpec::ClosedLoop {
                        clients,
                        think_time_us: 0,
                    },
                ),
            ],
        },
        ..DriverConfig::default()
    };
    run_workload(&mut recorder, &mut small_ycsb(0.0), &config);
    // Everything submitted from the boundary on comes from the closed
    // population: its two clients only, never more than one request each
    // in flight.
    let phase2: Vec<_> = recorder
        .spans
        .iter()
        .filter(|(_, a, _)| *a >= boundary)
        .collect();
    assert!(phase2.len() > 10, "the closed phase must actually run");
    for (client, _, _) in &phase2 {
        assert!(
            *client < clients,
            "client {client} outside the closed population"
        );
    }
    for client in 0..clients {
        let spans: Vec<_> = phase2
            .iter()
            .filter(|(c, _, _)| *c == client)
            .map(|(_, a, f)| (*a, *f))
            .collect();
        let max_in_flight = spans
            .iter()
            .map(|(a, _)| spans.iter().filter(|(a2, f2)| a2 <= a && a < f2).count())
            .max()
            .unwrap_or(0);
        assert!(
            max_in_flight <= 1,
            "client {client}: the burst backlog inflated the closed loop \
             to {max_in_flight} requests in flight"
        );
    }
}

/// What the ledger must return: every claimed tick in a set, a collision
/// bumped forward one tick at a time.
#[derive(Default)]
struct BumpReference(std::collections::BTreeSet<Timestamp>);

impl BumpReference {
    fn claim(&mut self, at: Timestamp) -> Timestamp {
        let mut t = at;
        while !self.0.insert(t) {
            t = t.checked_add(1).expect("reference ran past the last tick");
        }
        t
    }
}

/// Feed `(at, now)` claims to a fresh ledger and to the reference; after
/// each one the page map may hold nothing outside the live window
/// `[now, latest claimed tick]`.
fn ledger_against_reference(
    claims: impl Iterator<Item = (Timestamp, Timestamp)>,
) -> TimestampLedger {
    let mut ledger = TimestampLedger::default();
    let mut reference = BumpReference::default();
    let mut latest = 0;
    for (i, (at, now)) in claims.enumerate() {
        let t = ledger.claim(at, now);
        assert_eq!(t, reference.claim(at), "claim {i} at {at} (now {now})");
        latest = latest.max(t);
        let window = (latest >> PAGE_BITS) - (now >> PAGE_BITS) + 1;
        assert!(
            ledger.pages.len() as u64 <= window,
            "claim {i}: {} pages for a {window}-page window",
            ledger.pages.len()
        );
    }
    ledger
}

#[test]
fn timestamp_ledger_matches_reference_on_a_dense_open_loop() {
    // 200k tps: a claim every ~5 µs, gaps of 0 collide and bump. The
    // engine clock trails one arrival behind.
    let mut rng = rng::seeded(11);
    let mut at = 0;
    ledger_against_reference((0..120_000).map(|_| {
        let now = at;
        at += rng.gen_range(0..10u64);
        (at, now)
    }));
}

#[test]
fn timestamp_ledger_matches_reference_on_scattered_think_times_and_prunes() {
    // A closed loop: the clock advances, each claim lands an exponential
    // think time ahead of it, so claims arrive in no order at all.
    let mut rng = rng::seeded(12);
    let mut now = 0;
    let ledger = ledger_against_reference((0..120_000).map(|_| {
        now += rng.gen_range(0..200u64);
        (now + rng::exp_delay_us(&mut rng, 300_000.0), now)
    }));
    // ~180 pages went by; only the think-time tail is still held.
    assert!(now >> PAGE_BITS > 150);
    let (&first, _) = ledger.pages.first_key_value().expect("live pages");
    assert!(
        first >= now >> PAGE_BITS,
        "page {first} is behind the clock"
    );
    assert!(ledger.pages.len() < 100, "{} pages", ledger.pages.len());
}

#[test]
fn timestamp_ledger_bump_chain_fills_a_page_and_spills_into_the_next() {
    // Every claim asks for the same tick, 1 000 µs before a page boundary:
    // the chain runs to that page's end, through all of the next page and
    // into a third. The bump loop is quadratic in the chain length, so it
    // referees the first 1 500 claims (across the boundary); by induction
    // claim `i` of one tick is `tick + i`.
    let tick = (5u64 << PAGE_BITS) - 1_000;
    let mut ledger = ledger_against_reference((0..1_500).map(|_| (tick, 0)));
    for i in 1_500..120_000 {
        assert_eq!(ledger.claim(tick, 0), tick + i);
    }
    assert_eq!(ledger.pages.len(), 3);
    assert!(ledger.pages[&5].iter().all(|word| *word == !0));
    // A claim inside the filled page still finds the chain's end.
    assert_eq!(ledger.claim((5 << PAGE_BITS) + 77, 0), tick + 120_000);
}

#[test]
fn timestamp_ledger_matches_reference_on_sparse_far_future_ticks() {
    // Ticks hours apart, each claimed four times; the clock follows one
    // tick behind, so only that tick's page and the current one are held.
    let mut rng = rng::seeded(14);
    let mut now = 0;
    let ledger = ledger_against_reference((0..30_000u64).flat_map(|hour| {
        let tick = hour * 3_600_000_000 + rng.gen_range(0..1_000u64);
        let claims = [(tick, now); 4];
        now = tick;
        claims
    }));
    assert_eq!(ledger.pages.len(), 2);
}

#[test]
fn timestamp_ledger_claims_up_to_the_last_tick_without_overflow() {
    // The last two pages of the timeline hold 131 072 ticks, so this
    // shape stops at 40 000 claims, and short of the final 30 000 ticks so
    // that no chain reaches `Timestamp::MAX` before the two explicit claims.
    let last_page = Timestamp::MAX >> PAGE_BITS << PAGE_BITS;
    let (lo, hi) = (last_page - (1 << PAGE_BITS), Timestamp::MAX - 30_000);
    let mut rng = rng::seeded(15);
    let mut ledger = ledger_against_reference((0..40_000).map(|_| (rng.gen_range(lo..hi), lo)));
    assert_eq!(ledger.claim(Timestamp::MAX - 1, lo), Timestamp::MAX - 1);
    assert_eq!(ledger.claim(Timestamp::MAX - 1, last_page), Timestamp::MAX);
}
