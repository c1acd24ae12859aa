//! `dichotomy-lint`: layer 1 of the static-analysis pair — the **source
//! auditor**. Fully offline: a hand-rolled lexer ([`lexer`]) and test-region
//! scanner ([`scan`]), no `syn`, no external crates.
//!
//! Seeded runs must be byte-identical across worker counts, and
//! `HashMap`/`HashSet` iteration order and wall-clock reads are exactly the
//! bugs that break that. This crate turns the convention into a checked
//! fact:
//!
//! | code | severity | finding |
//! |------|----------|---------|
//! | D003 | deny | `HashMap`/`HashSet` in deterministic-output code |
//! | D004 | deny | wall-clock / OS entropy in the simulation clock domain |
//! | D006 | warn | `lint: allow` without a `-- <reason>` justification |
//! | D007 | warn | `lint: allow` that suppresses nothing |
//!
//! (Codec drift — a struct field missing from its wire form — is not a lint:
//! `dichotomy_common::codec!` makes it a compile error.)
//!
//! Justified uses are documented in place, not silenced:
//! `// lint: allow(D003) -- <reason>` suppresses matching codes on its own
//! line, or — when the comment stands alone — on the next token-bearing
//! line. Test code (`#[cfg(test)]` items, `tests/` directories) is exempt.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod scan;

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use dichotomy_common::{Diagnostic, Locus, Severity};

use lexer::Token;

/// Crates whose *output order* reaches reports, receipts or metrics —
/// i.e. all of them: the workspace's whole point is seed-stable output, so
/// D003 applies everywhere (with `lint: allow` for the justified keyed-only
/// uses).
fn d003_applies(_crate_name: Option<&str>) -> bool {
    true
}

/// The simulation clock domain: crates where every timestamp must come from
/// the discrete-event scheduler, never the OS. `None` (unknown crate) gets
/// the strictest treatment.
fn d004_applies(crate_name: Option<&str>) -> bool {
    matches!(
        crate_name,
        None | Some("simnet") | Some("core") | Some("systems") | Some("consensus") | Some("txn")
    )
}

/// Identifiers that read the OS clock or OS entropy.
const WALL_CLOCK_IDENTS: &[&str] = &[
    "SystemTime",
    "RandomState",
    "OsRng",
    "thread_rng",
    "from_entropy",
];

/// Lint one file's source text. `file` is the path used in loci; `crate_name`
/// scopes the domain checks (derive it with [`crate_of`], or pass a chosen
/// domain in tests).
pub fn lint_source(file: &str, crate_name: Option<&str>, source: &str) -> Vec<Diagnostic> {
    let lexed = lexer::lex(source);
    let dead = scan::dead_tokens(&lexed.tokens);
    let mut diags = Vec::new();

    // Hazard scan over every live (non-test) token.
    let tokens = &lexed.tokens;
    for (i, token) in tokens.iter().enumerate() {
        if dead[i] {
            continue;
        }
        let Some(ident) = token.ident() else { continue };
        if d003_applies(crate_name) && (ident == "HashMap" || ident == "HashSet") {
            diags.push(
                Diagnostic::new(
                    "D003",
                    Severity::Deny,
                    format!(
                        "`{ident}` has nondeterministic iteration order; report/receipt/\
                         metrics order must be seed-stable"
                    ),
                )
                .with_help(
                    "use BTreeMap/BTreeSet or a sorted drain; `lint: allow(D003)` with a \
                     reason for keyed-only access",
                )
                .at_source(file, token.line),
            );
        }
        if d004_applies(crate_name) {
            let wall = if WALL_CLOCK_IDENTS.contains(&ident) {
                Some(ident.to_string())
            } else if ident == "Instant" && followed_by_now(tokens, i) {
                Some("Instant::now".to_string())
            } else {
                None
            };
            if let Some(what) = wall {
                diags.push(
                    Diagnostic::new(
                        "D004",
                        Severity::Deny,
                        format!(
                            "`{what}` inside the simulation clock domain: simulated time \
                             and randomness must come from the scheduler and seeded RNGs"
                        ),
                    )
                    .with_help(
                        "thread the simulated clock / a seeded Rng through instead; \
                         `lint: allow(D004)` with a reason for wall-only measurements",
                    )
                    .at_source(file, token.line),
                );
            }
        }
    }

    apply_allows(file, &lexed, diags)
}

/// `Instant` `::` `now` — the call site, as opposed to the type in an
/// import or field position.
fn followed_by_now(tokens: &[Token], i: usize) -> bool {
    tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
        && tokens.get(i + 3).and_then(|t| t.ident()) == Some("now")
}

/// Apply `lint: allow` directives: suppress matching diagnostics on covered
/// lines, then report D006 (missing reason) and D007 (unused allow).
fn apply_allows(file: &str, lexed: &lexer::Lexed, diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
    // A directive covers its own line; a standalone comment also covers the
    // next token-bearing line.
    let covered_lines: Vec<BTreeSet<u32>> = lexed
        .allows
        .iter()
        .map(|a| {
            let mut lines = BTreeSet::from([a.line]);
            if a.standalone {
                if let Some(next) = lexed.tokens.iter().map(|t| t.line).find(|&l| l > a.line) {
                    lines.insert(next);
                }
            }
            lines
        })
        .collect();
    let mut used = vec![false; lexed.allows.len()];
    let mut out: Vec<Diagnostic> = diags
        .into_iter()
        .filter(|diag| {
            let Locus::Source { line, .. } = &diag.locus else {
                return true;
            };
            let mut suppressed = false;
            for (ai, allow) in lexed.allows.iter().enumerate() {
                if allow.codes.iter().any(|c| c == diag.code) && covered_lines[ai].contains(line) {
                    used[ai] = true;
                    suppressed = true;
                }
            }
            !suppressed
        })
        .collect();
    for (ai, allow) in lexed.allows.iter().enumerate() {
        if !allow.has_reason {
            out.push(
                Diagnostic::new(
                    "D006",
                    Severity::Warn,
                    format!(
                        "allow({}) has no `-- <reason>` justification",
                        allow.codes.join(", ")
                    ),
                )
                .with_help("document why the use is sound: `// lint: allow(CODE) -- reason`")
                .at_source(file, allow.line),
            );
        }
        if !used[ai] {
            out.push(
                Diagnostic::new(
                    "D007",
                    Severity::Warn,
                    format!(
                        "allow({}) suppresses nothing on its line{}",
                        allow.codes.join(", "),
                        if allow.standalone { " or the next" } else { "" }
                    ),
                )
                .with_help("remove the stale allow directive")
                .at_source(file, allow.line),
            );
        }
    }
    out.sort_by(|a, b| (locus_key(a), a.code).cmp(&(locus_key(b), b.code)));
    out
}

fn locus_key(d: &Diagnostic) -> (String, u32) {
    match &d.locus {
        Locus::Source { file, line } => (file.clone(), *line),
        _ => (String::new(), 0),
    }
}

/// The crate a workspace path belongs to: the component after `crates/`.
pub fn crate_of(path: &Path) -> Option<String> {
    let mut components = path.components();
    while let Some(c) = components.next() {
        if c.as_os_str() == "crates" {
            return components
                .next()
                .map(|c| c.as_os_str().to_string_lossy().into_owned());
        }
    }
    None
}

/// Collect the `.rs` files to audit under `root`, sorted for stable output.
/// Directories named `tests`, `benches`, `fixtures` or `target` (and hidden
/// ones) are skipped — test code is exempt, and lint fixtures are
/// deliberately violating. Explicitly passing a file path bypasses the
/// skip list, which is how the CI negative check lints a fixture.
pub fn collect_rs_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    walk(root, &mut files);
    files.sort();
    files
}

fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if path.is_dir() {
            if matches!(name.as_str(), "tests" | "benches" | "fixtures" | "target")
                || name.starts_with('.')
            {
                continue;
            }
            walk(&path, files);
        } else if name.ends_with(".rs") {
            files.push(path);
        }
    }
}

/// Lint a list of roots (files are linted directly; directories are walked
/// with the skip list). Returns all diagnostics, in path order.
pub fn lint_paths(roots: &[PathBuf]) -> std::io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    for root in roots {
        if root.is_dir() {
            files.extend(collect_rs_files(root));
        } else {
            files.push(root.clone());
        }
    }
    let mut diags = Vec::new();
    for file in &files {
        let source = fs::read_to_string(file)?;
        let label = file.to_string_lossy();
        diags.extend(lint_source(&label, crate_of(file).as_deref(), &source));
    }
    Ok(diags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn crate_of_extracts_the_workspace_member() {
        assert_eq!(
            crate_of(Path::new("crates/core/src/scenario.rs")).as_deref(),
            Some("core")
        );
        assert_eq!(
            crate_of(Path::new("/root/repo/crates/lint/src/lib.rs")).as_deref(),
            Some("lint")
        );
        assert_eq!(crate_of(Path::new("scripts/ci.sh")), None);
    }

    #[test]
    fn d004_domain_is_the_simulation_clock_domain() {
        for c in ["simnet", "core", "systems", "consensus", "txn"] {
            assert!(d004_applies(Some(c)), "{c}");
        }
        assert!(
            d004_applies(None),
            "unknown crates get the strict treatment"
        );
        for c in ["bench", "lint", "merkle", "workload"] {
            assert!(!d004_applies(Some(c)), "{c}");
        }
    }
}
