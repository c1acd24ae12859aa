//! A minimal JSON writer for experiment reports.
//!
//! The workspace builds offline with zero crates.io dependencies, so instead
//! of `serde_json` this module hand-writes the (small, fixed) document shape
//! `repro --json` emits. Output is deterministic: key order is fixed, floats
//! use Rust's shortest round-trip formatting, and non-finite values (the
//! `NaN` a missing reported throughput produces) become `null`, keeping the
//! document standard-conforming.
//!
//! Each row additionally carries `series`: one windowed time series per
//! driving probe (`{"name", "events_clamped", "oracles", "window_us",
//! "warmup_us", "windows": [{"start_us", "end_us", "submitted", "committed",
//! "aborted", "offered_tps", "tps", "abort_pct", "p50_us", "p95_us",
//! "p99_us"}]}`) — empty for non-driving probes. `submitted`/`offered_tps`
//! are the offered side of the window (bucketed by submit time);
//! `committed`/`tps` the achieved side. `oracles` is the invariant-oracle
//! report for the probe's run: `[{"name", "violation"}]` with `violation`
//! `null` on a pass (probes reaching the report always pass — a violation
//! becomes a labelled entry in `failures` instead).

use dichotomy_core::experiments::{ExperimentReport, RowSeries};
use dichotomy_explore::ExploreOutcome;

/// Escape a string for a JSON string literal (quotes, backslashes, control
/// characters).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Render a float as a JSON number, mapping non-finite values to `null`.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Serialize one report: id, title, rows (label + named values) and the
/// preformatted text for qualitative reports.
pub fn report(key: &str, report: &ExperimentReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"key\":\"{}\",\"id\":\"{}\",\"title\":\"{}\",\"rows\":[",
        escape(key),
        escape(report.id),
        escape(report.title)
    ));
    for (i, row) in report.rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"label\":\"{}\",\"values\":[",
            escape(&row.label)
        ));
        for (j, (column, value)) in row.values.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"column\":\"{}\",\"value\":{}}}",
                escape(column),
                number(*value)
            ));
        }
        out.push_str("],\"series\":[");
        for (j, s) in row.series.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&row_series(s));
        }
        out.push_str("]}");
    }
    out.push_str("],\"failures\":[");
    for (i, f) in report.failures.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"row\":\"{}\",\"probe\":\"{}\",\"index\":{},\"message\":\"{}\"}}",
            escape(&f.row),
            escape(&f.probe),
            f.index,
            escape(&f.message)
        ));
    }
    out.push_str("],\"text\":");
    match &report.text {
        Some(text) => out.push_str(&format!("\"{}\"", escape(text))),
        None => out.push_str("null"),
    }
    out.push('}');
    out
}

/// Serialize one windowed time series attached to a row.
fn row_series(s: &RowSeries) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"name\":\"{}\",\"events_clamped\":{},\"oracles\":[",
        escape(&s.name),
        s.events_clamped,
    ));
    for (i, o) in s.oracles.outcomes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"violation\":{}}}",
            escape(o.name),
            match &o.violation {
                Some(v) => format!("\"{}\"", escape(v)),
                None => "null".to_string(),
            }
        ));
    }
    out.push_str(&format!(
        "],\"window_us\":{},\"warmup_us\":{},\"windows\":[",
        s.series.window_us, s.series.warmup_us
    ));
    for (i, w) in s.series.windows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"start_us\":{},\"end_us\":{},\"submitted\":{},\"committed\":{},\"aborted\":{},\
             \"offered_tps\":{},\"tps\":{},\"abort_pct\":{},\"p50_us\":{},\"p95_us\":{},\
             \"p99_us\":{}}}",
            w.start_us,
            w.end_us,
            w.submitted,
            w.committed,
            w.aborted,
            number(w.offered_tps),
            number(w.throughput_tps),
            number(w.abort_rate_percent),
            w.latency.p50_us,
            w.latency.p95_us,
            w.latency.p99_us
        ));
    }
    out.push_str("]}");
    out
}

/// Serialize a full `repro` run: the options used plus every report.
pub fn document(
    quick: bool,
    txns: Option<u64>,
    seed: u64,
    reports: &[(String, ExperimentReport)],
) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"generator\":\"repro\",\"quick\":{quick},\"txns\":{},\"seed\":{seed},\"experiments\":[",
        match txns {
            Some(n) => n.to_string(),
            None => "null".to_string(),
        }
    ));
    for (i, (key, rep)) in reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&report(key, rep));
    }
    out.push_str("]}");
    out
}

/// Serialize one `repro explore` run.
///
/// The document is deterministic for a given spec: the grid funnel, every
/// pruned candidate (the cut is logged, never silent), every measured
/// design with its Pareto-front flag, and the calibration section —
/// Kendall's τ rank agreement, per-taxonomy-cell forecast error with the
/// fitted correction, and the scheduler's per-probe cost predictions.
/// `scheduling` carries `(probe, predicted, wall_ms)` triples in plan
/// order; `repro explore` always passes `None` (→ `null`) for `wall_ms`,
/// because a measured wall would break the byte-identity of the document
/// across worker counts and cache states.
pub fn explore_document(
    quick: bool,
    txns: u64,
    seed: u64,
    outcome: &ExploreOutcome,
    scheduling: &[(String, f64, Option<f64>)],
) -> String {
    // No worker count in the header: the document is byte-compared across
    // `--jobs` values, so only inputs that determine results may appear.
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"generator\":\"repro-explore\",\"quick\":{quick},\"txns\":{txns},\"seed\":{seed},\
         \"grid\":{{\"points\":{},\"sampled_out\":{},\"pruned\":{},\
         \"measured\":{}}},\"pruned\":[",
        outcome.grid_points,
        outcome.sampled_out,
        outcome.cut.len(),
        outcome.designs.len()
    ));
    for (i, c) in outcome.cut.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"forecast_tps\":{},\"group_best_tps\":{}}}",
            escape(&c.name),
            number(c.forecast_tps),
            number(c.group_best_tps)
        ));
    }
    out.push_str("],\"designs\":[");
    for (i, d) in outcome.designs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cell\":\"{}\",\"forecast_tps\":{},\"tps\":{},\"p99_ms\":{},\
             \"recovery_ms\":{},\"pareto\":{}}}",
            escape(&d.name),
            escape(&d.cell),
            number(d.forecast_tps),
            number(d.measured_tps),
            number(d.p99_ms),
            number(d.recovery_ms),
            d.on_front
        ));
    }
    out.push_str("],\"pareto_front\":[");
    for (i, d) in outcome.designs.iter().filter(|d| d.on_front).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\"", escape(&d.name)));
    }
    out.push_str(&format!(
        "],\"calibration\":{{\"kendall_tau\":{},\"cells\":[",
        number(outcome.kendall_tau)
    ));
    for (i, c) in outcome.cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"cell\":\"{}\",\"designs\":{},\"mean_abs_rel_err\":{},\"correction\":{}}}",
            escape(&c.cell),
            c.designs,
            number(c.mean_abs_rel_err),
            number(c.correction)
        ));
    }
    out.push_str("],\"scheduling\":[");
    for (i, (probe, predicted, wall_ms)) in scheduling.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"probe\":\"{}\",\"predicted\":{},\"wall_ms\":{}}}",
            escape(probe),
            number(*predicted),
            match wall_ms {
                Some(w) => number(*w),
                None => "null".to_string(),
            }
        ));
    }
    // Probe accounting stops at the deterministic counters: wall clocks and
    // cache hits vary run to run and would break the byte-identical
    // cold/warm and jobs-1/jobs-N comparisons this document is under.
    out.push_str(&format!(
        "]}},\"probes\":{{\"scheduled\":{},\"distinct\":{}}}}}",
        outcome.plan.probes, outcome.plan.distinct_probes
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dichotomy_core::chaos::{OracleOutcome, OracleReport};
    use dichotomy_core::experiments::Row;
    use dichotomy_core::metrics::{LatencySummary, TimeSeries, TimeWindow};

    fn sample() -> ExperimentReport {
        ExperimentReport {
            id: "Figure 0",
            title: "sample \"quoted\"",
            rows: vec![Row {
                label: "θ=1".into(),
                values: vec![("tps".into(), 12.5), ("missing".into(), f64::NAN)],
                series: Vec::new(),
            }],
            failures: Vec::new(),
            text: None,
        }
    }

    fn sample_with_series() -> ExperimentReport {
        let mut report = sample();
        report.rows[0].series.push(RowSeries {
            name: "etcd".into(),
            events_clamped: 0,
            oracles: OracleReport {
                outcomes: vec![
                    OracleOutcome {
                        name: "receipt-conservation",
                        violation: None,
                    },
                    OracleOutcome {
                        name: "no-duplicate-receipt",
                        violation: Some("transaction receipted \"twice\"".into()),
                    },
                ],
            },
            series: TimeSeries {
                window_us: 1_000,
                warmup_us: 0,
                windows: vec![TimeWindow {
                    start_us: 0,
                    end_us: 1_000,
                    submitted: 4,
                    committed: 3,
                    aborted: 1,
                    offered_tps: 4_000.0,
                    throughput_tps: 3_000.0,
                    abort_rate_percent: 25.0,
                    latency: LatencySummary {
                        mean_us: 10.0,
                        p50_us: 10,
                        p95_us: 12,
                        p99_us: 12,
                        max_us: 12,
                    },
                }],
            },
        });
        report
    }

    #[test]
    fn escapes_quotes_backslashes_and_control_characters() {
        assert_eq!(escape("a\"b\\c\nd\te\u{1}"), "a\\\"b\\\\c\\nd\\te\\u0001");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn report_serialization_contains_rows_and_nan_as_null() {
        let json = report("fig00", &sample());
        assert!(json.starts_with("{\"key\":\"fig00\",\"id\":\"Figure 0\""));
        assert!(json.contains("\"label\":\"θ=1\""));
        assert!(json.contains("{\"column\":\"tps\",\"value\":12.5}"));
        assert!(json.contains("{\"column\":\"missing\",\"value\":null}"));
        assert!(json.contains("\"series\":[]"));
        assert!(json.contains("\"failures\":[]"));
        assert!(json.ends_with("\"text\":null}"));
    }

    #[test]
    fn probe_failures_serialize_with_their_labels() {
        let mut rep = sample();
        rep.failures
            .push(dichotomy_core::experiments::ProbeFailure {
                row: "θ=1".into(),
                probe: "TiKV".into(),
                index: 1,
                message: "cannot build \"TiKV\"".into(),
            });
        let json = report("fig00", &rep);
        assert!(json.contains(
            "\"failures\":[{\"row\":\"θ=1\",\"probe\":\"TiKV\",\"index\":1,\
             \"message\":\"cannot build \\\"TiKV\\\"\"}]"
        ));
    }

    #[test]
    fn time_series_serialize_per_row() {
        let json = report("fig00", &sample_with_series());
        assert!(json.contains(
            "\"series\":[{\"name\":\"etcd\",\"events_clamped\":0,\"oracles\":[\
             {\"name\":\"receipt-conservation\",\"violation\":null},\
             {\"name\":\"no-duplicate-receipt\",\"violation\":\
             \"transaction receipted \\\"twice\\\"\"}],\"window_us\":1000,\
             \"warmup_us\":0,\"windows\":["
        ));
        assert!(json.contains(
            "{\"start_us\":0,\"end_us\":1000,\"submitted\":4,\"committed\":3,\"aborted\":1,\
             \"offered_tps\":4000,\"tps\":3000,\"abort_pct\":25,\"p50_us\":10,\"p95_us\":12,\
             \"p99_us\":12}"
        ));
    }

    #[test]
    fn document_wraps_options_and_reports() {
        let doc = document(true, Some(300), 7, &[("fig00".to_string(), sample())]);
        assert!(doc.starts_with(
            "{\"generator\":\"repro\",\"quick\":true,\"txns\":300,\"seed\":7,\"experiments\":["
        ));
        assert!(doc.ends_with("]}"));
        let doc_default = document(false, None, 7, &[]);
        assert!(doc_default.contains("\"txns\":null"));
        assert!(doc_default.contains("\"experiments\":[]"));
    }

    #[test]
    fn explore_documents_hold_the_funnel_front_and_calibration() {
        use dichotomy_core::scenario::PlanOutcome;
        use dichotomy_explore::{CellCalibration, CutDesign, Design, ExploreOutcome};
        let design = |name: &str, tps: f64, on_front: bool| Design {
            name: name.into(),
            cell: "StorageBased|Raft|Serial".into(),
            forecast_tps: 100.0,
            measured_tps: tps,
            p99_ms: 2.5,
            recovery_ms: 0.0,
            on_front,
        };
        let outcome = ExploreOutcome {
            grid_points: 14,
            sampled_out: 2,
            cut: vec![CutDesign {
                name: "quorum/n4".into(),
                forecast_tps: 10.0,
                group_best_tps: 100.0,
            }],
            designs: vec![
                design("etcd/n4", 90.0, true),
                design("failed", f64::NAN, false),
            ],
            kendall_tau: f64::NAN,
            cells: vec![CellCalibration {
                cell: "StorageBased|Raft|Serial".into(),
                designs: 1,
                mean_abs_rel_err: 0.1,
                correction: 1.25,
            }],
            scheduling: Vec::new(),
            plan: PlanOutcome {
                report: ExperimentReport {
                    id: "Explore 1",
                    title: "t",
                    rows: Vec::new(),
                    failures: Vec::new(),
                    text: None,
                },
                probe_wall_ms: 123.0,
                probes: 4,
                distinct_probes: 3,
                cache_hits: 1,
                dedup_saved_ms: 0.5,
                calibration: Vec::new(),
            },
        };
        let sched = vec![
            ("etcd/n4".to_string(), 120.0, None),
            ("etcd/n4#chaos".to_string(), 50.0, Some(3.25)),
        ];
        let doc = explore_document(true, 300, 7, &outcome, &sched);
        assert!(doc.starts_with(
            "{\"generator\":\"repro-explore\",\"quick\":true,\"txns\":300,\"seed\":7,\
             \"grid\":{\"points\":14,\"sampled_out\":2,\"pruned\":1,\"measured\":2}"
        ));
        assert!(doc.contains(
            "\"pruned\":[{\"name\":\"quorum/n4\",\"forecast_tps\":10,\"group_best_tps\":100}]"
        ));
        assert!(doc.contains("\"tps\":90") && doc.contains("\"pareto\":true"));
        assert!(doc.contains("\"tps\":null"), "failed design's NaN → null");
        assert!(doc.contains("\"pareto_front\":[\"etcd/n4\"]"));
        assert!(doc.contains("\"calibration\":{\"kendall_tau\":null,\"cells\":["));
        assert!(doc.contains("\"correction\":1.25"));
        assert!(doc.contains("{\"probe\":\"etcd/n4\",\"predicted\":120,\"wall_ms\":null}"));
        assert!(doc.contains("{\"probe\":\"etcd/n4#chaos\",\"predicted\":50,\"wall_ms\":3.25}"));
        assert!(doc.ends_with("\"probes\":{\"scheduled\":4,\"distinct\":3}}"));
        // Wall clocks and cache hits are nondeterministic: they must never
        // reach this document (cold/warm runs are compared byte-for-byte).
        assert!(!doc.contains("cache_hits") && !doc.contains("123"));
    }
}
