//! Exhaustive Encode⇄Decode round-trip over every `Decode`-bearing type the
//! measurement layer defines: `LatencySummary`, `Metrics`, `TimeWindow`,
//! `TimeSeries`, `OracleOutcome`, `OracleReport`, `RowSeries` and the full
//! `ProbeResult` nesting the persistent probe cache stores. (The base codec
//! types live in `crates/common/tests/codec_roundtrip.rs`. Every type here
//! is a `codec!` declaration, so a field missing from its wire form does not
//! compile; what this file adds is the behaviour on real and hostile bytes.)

use std::collections::BTreeMap;

use dichotomy_core::chaos::{OracleOutcome, OracleReport};
use dichotomy_core::common::rng::{self, Rng};
use dichotomy_core::common::size::StorageBreakdown;
use dichotomy_core::common::{AbortReason, Decode, Encode};
use dichotomy_core::experiments::RowSeries;
use dichotomy_core::scenario::ProbeResult;
use dichotomy_core::{LatencySummary, Metrics, TimeSeries, TimeWindow};

/// Round-trip one value and prove byte-stability of the re-encoding, then
/// turn the encoding hostile: every strict prefix must decode to `None`, and
/// every single-byte mutation must decode — without panicking — to `None` or
/// to a value whose encoding is exactly the mutated bytes (no accepted byte
/// string is non-canonical).
fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(value: T) {
    let bytes = value.encode();
    let decoded = T::decode(&bytes).expect("decode of a canonical encoding");
    assert_eq!(decoded, value);
    assert_eq!(decoded.encode(), bytes, "re-encoding must be byte-stable");
    assert_eq!(value.encoded_len(), bytes.len());

    for cut in 0..bytes.len() {
        assert!(T::decode(&bytes[..cut]).is_none(), "prefix of {cut} bytes");
    }
    // Every position of an encoding up to 256 bytes (between them those
    // samples hold every kind of tag and count byte), 256 seeded positions
    // of a longer one; all 255 other values at each.
    let positions: Vec<usize> = if bytes.len() <= 256 {
        (0..bytes.len()).collect()
    } else {
        let mut rng = rng::seeded(bytes.len() as u64);
        (0..256).map(|_| rng.gen_range(0..bytes.len())).collect()
    };
    let mut hostile = bytes.clone();
    for pos in positions {
        for delta in 1..=255u8 {
            hostile[pos] = bytes[pos].wrapping_add(delta);
            if let Some(accepted) = T::decode(&hostile) {
                assert_eq!(accepted.encode(), hostile, "byte {pos} + {delta}");
            }
        }
        hostile[pos] = bytes[pos];
    }
}

fn sample_latency() -> LatencySummary {
    LatencySummary {
        mean_us: 812.25,
        p50_us: 640,
        p95_us: 2_100,
        p99_us: 4_400,
        max_us: 9_999,
    }
}

fn sample_metrics() -> Metrics {
    Metrics {
        committed: 1_234,
        aborts: BTreeMap::from([(AbortReason::LockConflict, 17), (AbortReason::Overload, 3)]),
        throughput_tps: 2_468.5,
        latency: sample_latency(),
        phase_means_us: BTreeMap::from([("execute", 480.0), ("order", 1_200.5)]),
        duration_us: 5_000_000,
    }
}

fn sample_window(start: u64) -> TimeWindow {
    TimeWindow {
        start_us: start,
        end_us: start + 100_000,
        submitted: 120,
        committed: 100,
        aborted: 5,
        offered_tps: 1_200.0,
        throughput_tps: 1_000.0,
        abort_rate_percent: 4.76,
        latency: sample_latency(),
    }
}

fn sample_series() -> TimeSeries {
    TimeSeries {
        window_us: 100_000,
        warmup_us: 50_000,
        windows: vec![sample_window(50_000), sample_window(150_000)],
    }
}

fn sample_oracles() -> OracleReport {
    OracleReport {
        outcomes: vec![
            OracleOutcome {
                name: "receipt-conservation",
                violation: None,
            },
            OracleOutcome {
                name: "commit-order",
                violation: Some("version 7 observed before 6".to_string()),
            },
        ],
    }
}

#[test]
fn latency_summary() {
    roundtrip(LatencySummary::default());
    roundtrip(sample_latency());
}

#[test]
fn metrics_with_abort_and_phase_maps() {
    roundtrip(Metrics::default());
    roundtrip(sample_metrics());
}

#[test]
fn time_window_and_series() {
    roundtrip(sample_window(0));
    roundtrip(TimeSeries::default());
    roundtrip(sample_series());
}

#[test]
fn oracle_outcome_and_report() {
    roundtrip(OracleOutcome {
        name: "clamp-free-queueing",
        violation: None,
    });
    roundtrip(OracleReport::default());
    roundtrip(sample_oracles());
}

#[test]
fn row_series() {
    roundtrip(RowSeries {
        name: "etcd".to_string(),
        events_clamped: 0,
        oracles: sample_oracles(),
        series: sample_series(),
    });
}

#[test]
fn probe_result_full_nesting() {
    // The exact shape the persistent probe cache persists: every layer of
    // the result, populated, through one round-trip.
    roundtrip(ProbeResult {
        metrics: sample_metrics(),
        footprint: StorageBreakdown {
            payload_bytes: 10_000_000,
            index_bytes: 1_500_000,
            history_bytes: 42_000_000,
        },
        records: 5_000,
        extras: vec![("size_mb".to_string(), 51.2), ("knee".to_string(), 2_000.0)],
        series: Some(RowSeries {
            name: "TiDB".to_string(),
            events_clamped: 2,
            oracles: sample_oracles(),
            series: sample_series(),
        }),
    });
    // The sparse form (non-driving probes) must round-trip too.
    roundtrip(ProbeResult {
        metrics: Metrics::default(),
        footprint: StorageBreakdown::default(),
        records: 0,
        extras: Vec::new(),
        series: None,
    });
}
