//! `compare A.json B.json`: per metric × workload, the relative difference
//! of medians against the bound `BENCHMARK.json` fixes — the tool the
//! repeatability criterion and every later before/after measurement use.

use std::fmt::Write as _;

use crate::jsonio::Json;
use crate::stats::{median, spread};

/// The untraced runs' values of `metric` on one workload of a result
/// document.
fn values(workload: &Json, metric: &str) -> Vec<f64> {
    workload
        .get("runs")
        .map_or(&[][..], Json::items)
        .iter()
        .filter_map(|run| run.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// What must be identical between two runs of one commit: the digest and
/// exact counts of the first untraced run, and a zero failure count overall.
fn identity(workload: &Json) -> (String, String, f64) {
    let runs = workload.get("runs").map_or(&[][..], Json::items);
    let first = runs.first();
    let digest = first
        .and_then(|r| r.get("output_digest")?.as_str())
        .unwrap_or("missing")
        .to_string();
    let exact = first
        .and_then(|r| r.get("exact"))
        .map_or_else(String::new, Json::render);
    let failed = runs
        .iter()
        .chain(workload.get("traced"))
        .filter_map(|r| r.get("failed")?.as_f64())
        .sum();
    (digest, exact, failed)
}

/// Compare result document `b` (the change) against `a` (the parent) under
/// the bounds of `benchmark` (`BENCHMARK.json`). Returns the table and
/// whether every pairing held: nothing regressed, digests and exact counts
/// equal where both sides ran the same seed, no failures.
pub fn compare(a: &Json, b: &Json, benchmark: &Json) -> (String, bool) {
    let mut out = String::new();
    let mut ok = true;
    let same_seed = a.get("seed") == b.get("seed");
    let _ = writeln!(
        out,
        "{:<16} {:<13} {:>14} {:>14} {:>8} {:>7} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "worse%", "spread%", "bound%"
    );
    for wa in a.get("workloads").map_or(&[][..], Json::items) {
        let name = wa.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(wb) = b
            .get("workloads")
            .map_or(&[][..], Json::items)
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
        else {
            let _ = writeln!(out, "{name:<16} missing from B");
            ok = false;
            continue;
        };
        for metric in benchmark.get("end_to_end").map_or(&[][..], Json::items) {
            let field = |key: &str| metric.get(key);
            let (Some(metric_name), Some(better), Some(bound)) = (
                field("name").and_then(Json::as_str),
                field("better").and_then(Json::as_str),
                field("bound").and_then(Json::as_f64),
            ) else {
                continue;
            };
            let (va, vb) = (values(wa, metric_name), values(wb, metric_name));
            let (ma, mb) = (median(&va), median(&vb));
            // Positive = B is worse than A, as a share of A (the base).
            let worse = match better {
                "lower" => (mb - ma) / ma,
                _ => (ma - mb) / ma,
            };
            let wide = spread(&va).max(spread(&vb));
            let verdict = if va.is_empty() || vb.is_empty() || !worse.is_finite() {
                "missing"
            } else if wide > bound {
                "unresolved"
            } else if worse > bound {
                "regressed"
            } else if worse < -bound {
                "improved"
            } else {
                "same"
            };
            ok &= !matches!(verdict, "missing" | "regressed");
            let _ = writeln!(
                out,
                "{name:<16} {metric_name:<13} {ma:>14.6} {mb:>14.6} {:>8.2} {:>7.2} {:>6.1}  {verdict}",
                worse * 100.0,
                wide * 100.0,
                bound * 100.0
            );
        }
        let (digest_a, exact_a, failed_a) = identity(wa);
        let (digest_b, exact_b, failed_b) = identity(wb);
        if same_seed && (digest_a != digest_b || exact_a != exact_b) {
            let _ = writeln!(
                out,
                "{name:<16} outputs differ: digest {digest_a} vs {digest_b}, exact {exact_a} vs {exact_b}"
            );
            ok = false;
        }
        if failed_a + failed_b > 0.0 {
            let _ = writeln!(out, "{name:<16} failures: A {failed_a}, B {failed_b}");
            ok = false;
        }
    }
    let _ = writeln!(
        out,
        "{}",
        if ok {
            "compare: every pairing within its bound, outputs identical"
        } else {
            "compare: NOT clean (see rows above)"
        }
    );
    (out, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(elapsed: &[f64], digest: &str) -> Json {
        let runs = elapsed
            .iter()
            .map(|v| {
                Json::obj([
                    ("output_digest", Json::str(digest)),
                    ("failed", Json::Num(0.0)),
                    (
                        "exact",
                        Json::obj([("simnet.events_delivered", Json::Num(9.0))]),
                    ),
                    (
                        "metrics",
                        Json::obj([(
                            "elapsed_s",
                            Json::obj([("value", Json::Num(*v)), ("unit", Json::str("s"))]),
                        )]),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("seed", Json::Num(7.0)),
            (
                "workloads",
                Json::Arr(vec![Json::obj([
                    ("name", Json::str("w")),
                    ("runs", Json::Arr(runs)),
                ])]),
            ),
        ])
    }

    fn bounds() -> Json {
        Json::parse(
            r#"{"end_to_end":[{"name":"elapsed_s","unit":"s","better":"lower","bound":0.08}]}"#,
        )
        .unwrap()
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = doc(&[1.0, 1.01, 0.99, 1.0, 1.0], "d");
        let verdict = |b: &Json| compare(&base, b, &bounds());
        let (table, ok) = verdict(&doc(&[1.02, 1.03, 1.01, 1.02, 1.02], "d"));
        assert!(ok && table.contains("same"), "{table}");
        let (table, ok) = verdict(&doc(&[1.2, 1.21, 1.19, 1.2, 1.2], "d"));
        assert!(!ok && table.contains("regressed"), "{table}");
        let (table, ok) = verdict(&doc(&[0.8, 0.81, 0.79, 0.8, 0.8], "d"));
        assert!(ok && table.contains("improved"), "{table}");
        let (table, ok) = verdict(&doc(&[0.7, 1.3, 1.0, 0.8, 1.2], "d"));
        assert!(ok && table.contains("unresolved"), "{table}");
        let (table, ok) = verdict(&doc(&[1.0, 1.0, 1.0, 1.0, 1.0], "other"));
        assert!(!ok && table.contains("outputs differ"), "{table}");
    }
}
