//! Smoke coverage of the harness around the dispatch table: a seeded run is
//! bit-for-bit reproducible at any worker count, unknown ids are refused, and
//! the `--json` document is valid JSON. (`tests/claims.rs` runs every
//! experiment in quick mode.)

use dichotomy_bench::{json, plan_for, run_report, RunOptions};
use dichotomy_core::scenario::{run_plan_with, ExecOptions};
use dichotomy_core::systems::SystemRegistry;

#[test]
fn seeded_reports_differ_across_seeds_but_not_within_one() {
    let at_seed = |seed: u64| {
        run_report(
            "tab05",
            &RunOptions {
                seed,
                ..RunOptions::quick()
            },
        )
        .unwrap()
    };
    assert_eq!(at_seed(5).rows, at_seed(5).rows);
    assert_ne!(at_seed(5).rows, at_seed(6).rows);
}

#[test]
fn unknown_ids_are_rejected() {
    assert!(plan_for("fig99", &RunOptions::quick()).is_none());
}

#[test]
fn worker_count_does_not_change_a_seeded_report() {
    // The harness-level view of the determinism guarantee: one simulation-
    // backed experiment and the fault scenario, byte-for-byte across worker
    // counts (the exhaustive per-system-kind check lives in dichotomy-core).
    let registry = SystemRegistry::with_builtins();
    for id in ["tab05", "fault01"] {
        let plan = plan_for(id, &RunOptions::quick()).unwrap();
        let sequential = run_plan_with(&plan, &registry, &ExecOptions::with_jobs(1));
        let parallel = run_plan_with(&plan, &registry, &ExecOptions::with_jobs(8));
        assert_eq!(sequential, parallel, "{id}");
        assert_eq!(
            json::report(id, &sequential),
            json::report(id, &parallel),
            "{id}"
        );
    }
}

#[test]
fn a_zero_row_plan_serializes_to_a_valid_empty_document() {
    // Regression: an empty sweep expands to a zero-row plan; run_plan must
    // return an empty report and `repro --json` must still emit a document
    // that parses.
    use dichotomy_core::scenario::{run_plan, ExperimentPlan};
    let plan = ExperimentPlan {
        id: "Empty",
        title: "zero rows",
        rows: Vec::new(),
        text: None,
        diagnostics: Vec::new(),
    };
    let report = run_plan(&plan);
    assert!(report.rows.is_empty() && report.failures.is_empty());
    let doc = json::document(true, None, 7, &[("empty".to_string(), report)]);
    let value = parse_json(&doc).expect("zero-row reports must serialize to valid JSON");
    let experiments = value.get("experiments").and_then(Json::as_array).unwrap();
    assert_eq!(experiments.len(), 1);
    assert!(experiments[0]
        .get("rows")
        .and_then(Json::as_array)
        .unwrap()
        .is_empty());
}

#[test]
fn the_json_document_is_valid_and_covers_every_experiment() {
    // Keep the runtime in check: the cheap ids exercise rows, NaN → null
    // (fig15's missing reported numbers) and preformatted text (tab02).
    let opts = RunOptions::quick();
    let reports: Vec<_> = ["fig13", "fig15", "tab02", "fault01"]
        .iter()
        .map(|id| (id.to_string(), run_report(id, &opts).unwrap()))
        .collect();
    let doc = json::document(true, None, opts.seed, &reports);
    let value = parse_json(&doc).expect("repro --json output must parse as JSON");

    let experiments = value
        .get("experiments")
        .and_then(Json::as_array)
        .expect("document has an experiments array");
    assert_eq!(experiments.len(), 4);
    // fault01 drives a workload: its row carries a windowed time series.
    let fault01 = &experiments[3];
    let fault_rows = fault01.get("rows").and_then(Json::as_array).unwrap();
    let series = fault_rows[0]
        .get("series")
        .and_then(Json::as_array)
        .expect("driving rows carry a series array");
    assert_eq!(series.len(), 1);
    let windows = series[0]
        .get("windows")
        .and_then(Json::as_array)
        .expect("series has windows");
    assert!(!windows.is_empty());
    assert!(windows[0].get("tps").is_some() && windows[0].get("p95_us").is_some());
    // fig13 carries rows with finite values.
    let fig13 = &experiments[0];
    let rows = fig13.get("rows").and_then(Json::as_array).unwrap();
    assert_eq!(rows.len(), 4);
    // fig15's missing reported numbers serialize as null, not NaN.
    assert!(!doc.contains("NaN"));
    // tab02 is qualitative: empty rows, non-null text.
    let tab02 = &experiments[2];
    assert!(tab02
        .get("rows")
        .and_then(Json::as_array)
        .unwrap()
        .is_empty());
    assert!(matches!(tab02.get("text"), Some(Json::String(s)) if s.contains("Quorum")));
}

// --- A minimal JSON parser, test-only, to validate the writer without an
// --- external crate.

#[derive(Debug)]
enum Json {
    Null,
    Bool,
    Number,
    String(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_array(&self) -> Option<&Vec<Json>> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }
}

fn parse_json(s: &str) -> Result<Json, String> {
    let bytes: Vec<char> = s.chars().collect();
    let mut pos = 0;
    let value = parse_value(&bytes, &mut pos)?;
    skip_ws(&bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at {pos}"));
    }
    Ok(value)
}

fn skip_ws(s: &[char], pos: &mut usize) {
    while *pos < s.len() && s[*pos].is_whitespace() {
        *pos += 1;
    }
}

fn expect(s: &[char], pos: &mut usize, c: char) -> Result<(), String> {
    if s.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{c}' at {pos}"))
    }
}

fn parse_value(s: &[char], pos: &mut usize) -> Result<Json, String> {
    skip_ws(s, pos);
    match s.get(*pos) {
        Some('{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(s, pos);
            if s.get(*pos) == Some(&'}') {
                *pos += 1;
                return Ok(Json::Object(fields));
            }
            loop {
                skip_ws(s, pos);
                let key = match parse_value(s, pos)? {
                    Json::String(k) => k,
                    other => return Err(format!("non-string key {other:?}")),
                };
                skip_ws(s, pos);
                expect(s, pos, ':')?;
                fields.push((key, parse_value(s, pos)?));
                skip_ws(s, pos);
                match s.get(*pos) {
                    Some(',') => *pos += 1,
                    Some('}') => {
                        *pos += 1;
                        return Ok(Json::Object(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at {pos}")),
                }
            }
        }
        Some('[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(s, pos);
            if s.get(*pos) == Some(&']') {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            loop {
                items.push(parse_value(s, pos)?);
                skip_ws(s, pos);
                match s.get(*pos) {
                    Some(',') => *pos += 1,
                    Some(']') => {
                        *pos += 1;
                        return Ok(Json::Array(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at {pos}")),
                }
            }
        }
        Some('"') => {
            *pos += 1;
            let mut out = String::new();
            loop {
                match s.get(*pos) {
                    Some('"') => {
                        *pos += 1;
                        return Ok(Json::String(out));
                    }
                    Some('\\') => {
                        *pos += 1;
                        match s.get(*pos) {
                            Some('"') => out.push('"'),
                            Some('\\') => out.push('\\'),
                            Some('/') => out.push('/'),
                            Some('n') => out.push('\n'),
                            Some('r') => out.push('\r'),
                            Some('t') => out.push('\t'),
                            Some('u') => {
                                let hex: String = s[*pos + 1..*pos + 5].iter().collect();
                                let code = u32::from_str_radix(&hex, 16)
                                    .map_err(|e| format!("bad \\u escape: {e}"))?;
                                out.push(char::from_u32(code).ok_or("bad codepoint")?);
                                *pos += 4;
                            }
                            other => return Err(format!("bad escape {other:?}")),
                        }
                        *pos += 1;
                    }
                    Some(c) if (*c as u32) >= 0x20 => {
                        out.push(*c);
                        *pos += 1;
                    }
                    other => return Err(format!("bad string char {other:?}")),
                }
            }
        }
        Some('t') if s[*pos..].starts_with(&['t', 'r', 'u', 'e']) => {
            *pos += 4;
            Ok(Json::Bool)
        }
        Some('f') if s[*pos..].starts_with(&['f', 'a', 'l', 's', 'e']) => {
            *pos += 5;
            Ok(Json::Bool)
        }
        Some('n') if s[*pos..].starts_with(&['n', 'u', 'l', 'l']) => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(c) if *c == '-' || c.is_ascii_digit() => {
            let start = *pos;
            while *pos < s.len() && (s[*pos].is_ascii_digit() || "+-.eE".contains(s[*pos])) {
                *pos += 1;
            }
            let text: String = s[start..*pos].iter().collect();
            text.parse::<f64>()
                .map(|_| Json::Number)
                .map_err(|e| format!("bad number '{text}': {e}"))
        }
        other => Err(format!("unexpected {other:?} at {pos}")),
    }
}
