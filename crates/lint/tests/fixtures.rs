//! Every diagnostic code proven live against a fixture, and proven
//! suppressible by its `lint: allow` counterpart. The fixtures live under
//! `tests/fixtures/` — a directory the workspace walker skips, so they only
//! lint when named explicitly (which is also how `ci.sh` proves the lint
//! stage can fail).

use std::path::{Path, PathBuf};

use dichotomy_common::{Diagnostic, Severity};
use dichotomy_lint::{lint_paths, lint_source};

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Lint one fixture under a chosen crate domain.
fn lint_fixture(name: &str, crate_name: Option<&str>) -> Vec<Diagnostic> {
    let source = std::fs::read_to_string(fixture_path(name)).unwrap();
    lint_source(name, crate_name, &source)
}

fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.code).collect()
}

#[test]
fn d003_fires_on_hashmap() {
    let diags = lint_fixture("d003_hashmap.rs", Some("core"));
    assert!(!diags.is_empty());
    assert!(diags
        .iter()
        .all(|d| d.code == "D003" && d.severity == Severity::Deny));
}

#[test]
fn d003_fires_in_every_crate_domain() {
    // Seed-stable output is the workspace's whole point: no crate is exempt.
    for domain in [None, Some("workload"), Some("lint"), Some("merkle")] {
        let diags = lint_fixture("d003_hashmap.rs", domain);
        assert!(!diags.is_empty(), "domain {domain:?} should not be exempt");
    }
}

#[test]
fn d003_suppressed_by_allow() {
    assert_eq!(
        codes(&lint_fixture("d003_allowed.rs", Some("core"))),
        Vec::<&str>::new()
    );
}

#[test]
fn d004_fires_in_sim_clock_domain() {
    let diags = lint_fixture("d004_wall_clock.rs", Some("core"));
    // `Instant::now` and `SystemTime`; the bare `Instant` import stays quiet.
    assert_eq!(codes(&diags), vec!["D004", "D004", "D004"]);
    assert!(diags.iter().all(|d| d.severity == Severity::Deny));
    assert!(diags.iter().any(|d| d.message.contains("Instant::now")));
    assert!(diags.iter().any(|d| d.message.contains("SystemTime")));
}

#[test]
fn d004_quiet_outside_sim_clock_domain() {
    // `workload` generates inputs from seeded RNGs but owns no simulated
    // clock; the wall-clock check is scoped to the sim-clock crates.
    assert_eq!(
        codes(&lint_fixture("d004_wall_clock.rs", Some("workload"))),
        Vec::<&str>::new()
    );
}

#[test]
fn d004_suppressed_by_allow() {
    assert_eq!(
        codes(&lint_fixture("d004_allowed.rs", Some("core"))),
        Vec::<&str>::new()
    );
}

#[test]
fn d006_reasonless_allow_warns_but_still_suppresses() {
    let diags = lint_fixture("d006_missing_reason.rs", Some("core"));
    // Two reasonless allows, each covering one HashSet line: the D003s are
    // suppressed, the directives themselves earn D006.
    assert_eq!(codes(&diags), vec!["D006", "D006"]);
    assert!(diags.iter().all(|d| d.severity == Severity::Warn));
}

#[test]
fn d007_fires_on_unused_allow() {
    let diags = lint_fixture("d007_unused_allow.rs", Some("core"));
    assert_eq!(codes(&diags), vec!["D007"]);
    assert_eq!(diags[0].severity, Severity::Warn);
}

#[test]
fn clean_fixture_has_zero_findings() {
    // Includes a `#[cfg(test)]` HashMap: test-only code is exempt.
    assert_eq!(
        codes(&lint_fixture("clean.rs", Some("core"))),
        Vec::<&str>::new()
    );
}

#[test]
fn explicit_fixture_path_lints_and_denies() {
    // The walker skips `tests/fixtures/` directories, but an explicitly
    // named file always lints — this is the hook ci.sh uses to prove the
    // lint stage can fail.
    let diags = lint_paths(&[fixture_path("d003_hashmap.rs")]).unwrap();
    assert!(dichotomy_common::diag::has_deny(&diags));
}

#[test]
fn fixtures_directory_is_skipped_by_the_walker() {
    let diags = lint_paths(&[Path::new(env!("CARGO_MANIFEST_DIR")).to_path_buf()]).unwrap();
    assert_eq!(
        codes(&diags),
        Vec::<&str>::new(),
        "src/ must be clean and fixtures skipped"
    );
}
