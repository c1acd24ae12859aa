//! Gate CI on the bench-trajectory history.
//!
//! ```text
//! cargo run -p dichotomy-bench --release --bin bench_gate -- BENCH_history.json
//! cargo run -p dichotomy-bench --release --bin bench_gate -- \
//!     --tolerance 0.75 --floor-ms 50 --window 5 BENCH_history.json
//! ```
//!
//! Reads the history document that `repro --bench` and `microbench --bench`
//! append to, and flags wall-clock regressions: for every timing key, the
//! *latest* entry of each run configuration is compared against the median
//! of up to `--window` trailing earlier entries of the *same* configuration
//! (quick/txns/seed/jobs — quick `--jobs 1` timings are never compared
//! against full `--jobs 8` ones). A key regresses when the latest value
//! exceeds the trailing median by more than `--tolerance` (relative) *and*
//! by more than `--floor-ms` (absolute — sub-floor noise on fast cases never
//! gates). Sub-floor *prior* entries are excluded from the baseline median
//! for the same reason: a near-zero wall (a warm-cache run sharing the lane
//! with cold ones) is noise, not a baseline, and would flag every honest
//! cold run as a regression. Keys with fewer than two prior
//! same-configuration entries at/above the floor are reported as
//! "no baseline" and skipped — a median over one noisy sample is not a
//! baseline either.
//!
//! `--require-key KEY` (repeatable) additionally asserts that at least one
//! sample with that timing key exists in the history — CI uses it to prove
//! the trajectory still *covers* an experiment (a silently dropped `scale01`
//! would otherwise never regress again).
//!
//! Exit status: 0 when nothing regresses, 1 on any regression or missing
//! required key, 2 on usage or parse errors. Offline and dependency-free,
//! like everything else here.

#![forbid(unsafe_code)]

use std::process::ExitCode;

/// One timing sample: which case, under which run configuration, how long.
#[derive(Debug, Clone, PartialEq)]
struct Sample {
    label: String,
    config: String,
    key: String,
    wall_ms: f64,
    ok: bool,
}

/// Extract the JSON value following `"name":` in `obj` (a flat object
/// body), as a raw string slice — enough for the fixed format
/// `append_history` writes; no general JSON parser needed.
fn field<'a>(obj: &'a str, name: &str) -> Option<&'a str> {
    let pat = format!("\"{name}\":");
    let start = obj.find(&pat)? + pat.len();
    let rest = &obj[start..];
    if let Some(stripped) = rest.strip_prefix('"') {
        stripped.split('"').next()
    } else {
        rest.split([',', '}', ']']).next()
    }
    .map(str::trim)
}

/// Parse every timing sample out of a bench-history document, in order.
fn parse_history(doc: &str) -> Result<Vec<Sample>, String> {
    let doc = doc.trim();
    let body = doc
        .strip_prefix("{\"generator\":\"repro-bench-history\",\"entries\":[")
        .and_then(|b| b.strip_suffix("]}"))
        .ok_or("not a repro-bench-history document")?;
    let mut samples = Vec::new();
    // Entries all open with the same generator stamp; splitting on it keeps
    // the parse independent of nesting depth.
    for entry in body.split("{\"generator\":\"repro-bench\",").skip(1) {
        let label = field(entry, "label")
            .ok_or("entry without label")?
            .to_string();
        // `sched` joined the entry header with the cost-predicted scheduler:
        // per-experiment worker time depends on which probes co-run, so
        // lpt-scheduled entries form their own lane. Entries predating the
        // field were first-occurrence-ordered ("fifo").
        let config = format!(
            "quick={} txns={} seed={} jobs={} sched={}",
            field(entry, "quick").unwrap_or("?"),
            field(entry, "txns").unwrap_or("?"),
            field(entry, "seed").unwrap_or("?"),
            field(entry, "jobs").unwrap_or("?"),
            field(entry, "sched").unwrap_or("fifo"),
        );
        let timings = entry
            .split("\"experiments\":[")
            .nth(1)
            .ok_or("entry without experiments array")?;
        for case in timings.split("{\"key\":").skip(1) {
            let case = format!("\"key\":{case}");
            samples.push(Sample {
                label: label.clone(),
                config: config.clone(),
                key: field(&case, "key").ok_or("timing without key")?.to_string(),
                wall_ms: field(&case, "wall_ms")
                    .and_then(|v| v.parse().ok())
                    .ok_or("timing without wall_ms")?,
                ok: field(&case, "ok") == Some("true"),
            });
        }
    }
    Ok(samples)
}

/// The nearest-rank median of a non-empty slice.
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    values[(values.len() - 1) / 2]
}

struct Gate {
    tolerance: f64,
    floor_ms: f64,
    window: usize,
}

/// Compare the latest sample of every (key, config) trajectory against its
/// trailing median. Returns (regression lines, skipped-baseline count,
/// gated-key count).
fn gate(samples: &[Sample], opts: &Gate) -> (Vec<String>, usize, usize) {
    // Trajectories keyed by (key, config), in append order.
    let mut keys: Vec<(String, String)> = Vec::new();
    for s in samples {
        let id = (s.key.clone(), s.config.clone());
        if !keys.contains(&id) {
            keys.push(id);
        }
    }
    let mut regressions = Vec::new();
    let (mut skipped, mut gated) = (0usize, 0usize);
    for (key, config) in keys {
        let series: Vec<&Sample> = samples
            .iter()
            .filter(|s| s.key == key && s.config == config && s.ok)
            .collect();
        let Some((last, priors)) = series.split_last() else {
            continue;
        };
        let tail_start = priors.len().saturating_sub(opts.window);
        // Sub-floor priors are noise (e.g. warm-cache entries riding the
        // same lane as cold runs), not baselines — and a single usable
        // sample is too jittery to serve as one on its own.
        let mut window: Vec<f64> = priors[tail_start..]
            .iter()
            .map(|s| s.wall_ms)
            .filter(|&w| w >= opts.floor_ms)
            .collect();
        if window.len() < 2 {
            skipped += 1;
            continue;
        }
        gated += 1;
        let baseline = median(&mut window);
        let excess = last.wall_ms - baseline;
        if excess > opts.tolerance * baseline && excess > opts.floor_ms {
            regressions.push(format!(
                "{key} [{config}]: {:.1} ms vs trailing median {:.1} ms (+{:.0}%, entry '{}')",
                last.wall_ms,
                baseline,
                100.0 * excess / baseline.max(1e-9),
                last.label,
            ));
        }
    }
    (regressions, skipped, gated)
}

fn main() -> ExitCode {
    let mut opts = Gate {
        tolerance: 0.75,
        floor_ms: 50.0,
        window: 5,
    };
    let mut path: Option<String> = None;
    let mut required_keys: Vec<String> = Vec::new();
    let mut bad_usage = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let (flag, inline) = match args[i].split_once('=') {
            Some((f, v)) if f.starts_with("--") => (f.to_string(), Some(v.to_string())),
            _ => (args[i].clone(), None),
        };
        let value = |i: &mut usize| -> Option<String> {
            inline.clone().or_else(|| {
                *i += 1;
                args.get(*i).cloned()
            })
        };
        match flag.as_str() {
            "--tolerance" => match value(&mut i).and_then(|v| v.parse().ok()) {
                Some(t) => opts.tolerance = t,
                None => bad_usage = true,
            },
            "--floor-ms" => match value(&mut i).and_then(|v| v.parse().ok()) {
                Some(f) => opts.floor_ms = f,
                None => bad_usage = true,
            },
            "--window" => match value(&mut i).and_then(|v| v.parse().ok()) {
                Some(w) if w >= 1 => opts.window = w,
                _ => bad_usage = true,
            },
            "--require-key" => match value(&mut i) {
                Some(k) if !k.is_empty() => required_keys.push(k),
                _ => bad_usage = true,
            },
            f if f.starts_with("--") => bad_usage = true,
            _ => match path {
                None => path = Some(args[i].clone()),
                Some(_) => bad_usage = true,
            },
        }
        i += 1;
    }
    let usage = "usage: bench_gate [--tolerance F] [--floor-ms F] [--window N] \
                 [--require-key KEY]... HISTORY.json";
    let Some(path) = path else {
        eprintln!("{usage}");
        return ExitCode::from(2);
    };
    if bad_usage {
        eprintln!("{usage}");
        return ExitCode::from(2);
    }

    let doc = match std::fs::read_to_string(&path) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let samples = match parse_history(&doc) {
        Ok(samples) => samples,
        Err(e) => {
            eprintln!("cannot parse {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let (regressions, skipped, gated) = gate(&samples, &opts);
    println!(
        "bench_gate: {gated} trajectories gated, {skipped} without baseline \
         (tolerance +{:.0}%, floor {:.0} ms, window {})",
        opts.tolerance * 100.0,
        opts.floor_ms,
        opts.window
    );
    let missing = missing_keys(&samples, &required_keys);
    for key in &missing {
        println!("MISSING KEY: '{key}' has no samples in {path}");
    }
    if regressions.is_empty() && missing.is_empty() {
        println!("bench_gate: no wall-clock regressions");
        ExitCode::SUCCESS
    } else {
        for line in &regressions {
            println!("REGRESSION: {line}");
        }
        ExitCode::FAILURE
    }
}

/// The `--require-key` keys that have no sample in the history, in request
/// order. A required key may match either a timing key (`fig04`) or an
/// entry label (`pr8-cache-cold`), so CI can assert both coverage and that
/// a specific run made it into the trajectory.
fn missing_keys(samples: &[Sample], required: &[String]) -> Vec<String> {
    required
        .iter()
        .filter(|k| !samples.iter().any(|s| &s.key == *k || &s.label == *k))
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(label: &str, jobs: u64, timings: &[(&str, f64)]) -> String {
        let cases: Vec<String> = timings
            .iter()
            .map(|(k, ms)| {
                format!("{{\"key\":\"{k}\",\"wall_ms\":{ms},\"rows\":1,\"failed_probes\":0,\"ok\":true}}")
            })
            .collect();
        format!(
            "{{\"generator\":\"repro-bench\",\"label\":\"{label}\",\"quick\":true,\"txns\":null,\
             \"seed\":7,\"jobs\":{jobs},\"total_wall_ms\":0,\"experiments\":[{}]}}",
            cases.join(",")
        )
    }

    fn history(entries: &[String]) -> String {
        format!(
            "{{\"generator\":\"repro-bench-history\",\"entries\":[{}]}}",
            entries.join(",")
        )
    }

    #[test]
    fn parses_the_history_format_append_history_writes() {
        let doc = history(&[
            entry("a", 1, &[("fig04", 120.5), ("tab02", 3.0)]),
            entry("b", 4, &[("fig04", 95.0)]),
        ]);
        let samples = parse_history(&doc).unwrap();
        assert_eq!(samples.len(), 3);
        assert_eq!(samples[0].key, "fig04");
        assert_eq!(samples[0].wall_ms, 120.5);
        assert_eq!(samples[0].label, "a");
        assert!(samples[0].config.contains("jobs=1"));
        assert!(samples[2].config.contains("jobs=4"));
        assert!(parse_history("junk").is_err());
    }

    #[test]
    fn flat_trajectories_pass_and_spikes_fail() {
        let gate_opts = Gate {
            tolerance: 0.5,
            floor_ms: 10.0,
            window: 5,
        };
        let flat: Vec<String> = (0..4)
            .map(|i| entry(&format!("e{i}"), 1, &[("fig04", 100.0)]))
            .collect();
        let samples = parse_history(&history(&flat)).unwrap();
        let (regressions, skipped, gated) = gate(&samples, &gate_opts);
        assert!(regressions.is_empty());
        assert_eq!((skipped, gated), (0, 1));

        // The last entry doubles: past tolerance and floor, so it gates.
        let mut spiked = flat.clone();
        spiked.push(entry("spike", 1, &[("fig04", 200.0)]));
        let samples = parse_history(&history(&spiked)).unwrap();
        let (regressions, _, _) = gate(&samples, &gate_opts);
        assert_eq!(regressions.len(), 1);
        assert!(regressions[0].contains("fig04"));
        assert!(regressions[0].contains("spike"));
    }

    #[test]
    fn sub_floor_priors_never_serve_as_baselines() {
        let gate_opts = Gate {
            tolerance: 0.5,
            floor_ms: 10.0,
            window: 5,
        };
        // The cache lane shape: cold runs interleaved with near-zero warm
        // runs in the same configuration. The warm samples must not drag
        // the median to ~0 and flag the honest cold wall.
        let entries: Vec<String> = vec![
            entry("cold-1", 4, &[("fig04", 1_000.0)]),
            entry("warm-1", 4, &[("fig04", 1.0)]),
            entry("cold-2", 4, &[("fig04", 1_050.0)]),
            entry("warm-2", 4, &[("fig04", 2.0)]),
            entry("cold-3", 4, &[("fig04", 1_020.0)]),
        ];
        let samples = parse_history(&history(&entries)).unwrap();
        let (regressions, skipped, gated) = gate(&samples, &gate_opts);
        assert!(regressions.is_empty(), "{regressions:?}");
        assert_eq!((skipped, gated), (0, 1));

        // Fewer than two usable priors leaves no baseline: a median over a
        // single (jittery) cold sample must not gate the next cold run.
        let entries: Vec<String> = vec![
            entry("cold-1", 4, &[("fig04", 1_000.0)]),
            entry("warm-1", 4, &[("fig04", 1.0)]),
            entry("cold-2", 4, &[("fig04", 1_900.0)]),
        ];
        let samples = parse_history(&history(&entries)).unwrap();
        let (regressions, skipped, gated) = gate(&samples, &gate_opts);
        assert!(regressions.is_empty(), "{regressions:?}");
        assert_eq!((skipped, gated), (1, 0));

        // All-sub-floor priors leave no baseline at all: skip, don't gate.
        let entries: Vec<String> = vec![
            entry("warm-1", 4, &[("fig04", 1.0)]),
            entry("warm-2", 4, &[("fig04", 2.0)]),
            entry("cold-1", 4, &[("fig04", 1_000.0)]),
        ];
        let samples = parse_history(&history(&entries)).unwrap();
        let (regressions, skipped, gated) = gate(&samples, &gate_opts);
        assert!(regressions.is_empty());
        assert_eq!((skipped, gated), (1, 0));
    }

    #[test]
    fn the_floor_absorbs_noise_on_fast_cases() {
        let gate_opts = Gate {
            tolerance: 0.5,
            floor_ms: 10.0,
            window: 5,
        };
        // 2 ms → 5 ms is +150 % but only 3 ms absolute: under the floor.
        let entries: Vec<String> = vec![
            entry("a", 1, &[("tab02", 2.0)]),
            entry("b", 1, &[("tab02", 2.0)]),
            entry("c", 1, &[("tab02", 5.0)]),
        ];
        let samples = parse_history(&history(&entries)).unwrap();
        let (regressions, _, _) = gate(&samples, &gate_opts);
        assert!(regressions.is_empty());
    }

    #[test]
    fn different_configurations_never_cross_compare() {
        let gate_opts = Gate {
            tolerance: 0.5,
            floor_ms: 10.0,
            window: 5,
        };
        // jobs=1 entries are slow, jobs=4 fast; the latest jobs=4 entry must
        // not be compared against a jobs=1 baseline (or vice versa).
        let entries: Vec<String> = vec![
            entry("a1", 1, &[("fig04", 400.0)]),
            entry("a2", 4, &[("fig04", 100.0)]),
            entry("b1", 1, &[("fig04", 410.0)]),
            entry("b2", 4, &[("fig04", 105.0)]),
            entry("c1", 1, &[("fig04", 395.0)]),
            entry("c2", 4, &[("fig04", 95.0)]),
        ];
        let samples = parse_history(&history(&entries)).unwrap();
        let (regressions, skipped, gated) = gate(&samples, &gate_opts);
        assert!(regressions.is_empty());
        assert_eq!((skipped, gated), (0, 2));
    }

    #[test]
    fn scheduler_regimes_form_separate_lanes() {
        // Entries written before the `sched` field default to "fifo" and
        // must never baseline an "lpt" entry: the per-experiment worker-time
        // attribution differs between regimes on oversubscribed hosts.
        let gate_opts = Gate {
            tolerance: 0.5,
            floor_ms: 10.0,
            window: 5,
        };
        let legacy: Vec<String> = (0..3)
            .map(|i| entry(&format!("old{i}"), 4, &[("ramp01", 90.0)]))
            .collect();
        let mut entries = legacy;
        // Same quick/txns/seed/jobs, 4x slower — but a different scheduler.
        entries.push(entry("new", 4, &[("ramp01", 360.0)]).replacen(
            "\"jobs\":4,",
            "\"jobs\":4,\"sched\":\"lpt\",",
            1,
        ));
        let samples = parse_history(&history(&entries)).unwrap();
        assert!(samples[2].config.contains("sched=fifo"), "legacy default");
        assert!(samples[3].config.contains("sched=lpt"));
        let (regressions, skipped, gated) = gate(&samples, &gate_opts);
        assert!(regressions.is_empty(), "{regressions:?}");
        assert_eq!((skipped, gated), (1, 1));
    }

    #[test]
    fn require_key_flags_absent_keys_and_accepts_present_ones() {
        let doc = history(&[
            entry("pr8-cache-cold", 1, &[("fig04", 10.0), ("scale01", 20.0)]),
            entry("pr8-cache-warm", 1, &[("fig04", 1.0), ("scale01", 2.0)]),
        ]);
        let samples = parse_history(&doc).unwrap();
        // Timing keys and entry labels both satisfy a requirement.
        let present = [
            "fig04".to_string(),
            "scale01".to_string(),
            "pr8-cache-warm".to_string(),
        ];
        assert!(missing_keys(&samples, &present).is_empty());
        let absent = ["chaos01".to_string(), "fig04".to_string()];
        assert_eq!(missing_keys(&samples, &absent), vec!["chaos01".to_string()]);
        assert!(missing_keys(&[], &[]).is_empty());
    }

    #[test]
    fn entries_with_probe_calibration_arrays_still_parse_to_experiment_walls() {
        // The PR 8 bench format appends probes/distinct_probes/cache_hits/
        // dedup_saved_ms scalars and a nested calibration array to each
        // timing entry; the scanner must keep reading the experiment-level
        // wall_ms, not a probe's.
        let doc = history(&[format!(
            "{{\"generator\":\"repro-bench\",\"label\":\"pr8\",\"quick\":true,\"txns\":null,\
             \"seed\":7,\"jobs\":4,\"total_wall_ms\":42,\"experiments\":[\
             {{\"key\":\"fig04\",\"wall_ms\":42.5,\"rows\":5,\"failed_probes\":0,\"ok\":true,\
             \"probes\":8,\"distinct_probes\":7,\"cache_hits\":2,\"dedup_saved_ms\":3.5,\
             \"calibration\":[{{\"probe\":\"etcd\",\"predicted\":1200,\"wall_ms\":11.5}},\
             {{\"probe\":\"tikv\",\"predicted\":null,\"wall_ms\":0.5}}]}}]}}"
        )]);
        let samples = parse_history(&doc).unwrap();
        assert_eq!(samples.len(), 1, "calibration objects are not entries");
        assert_eq!(samples[0].key, "fig04");
        assert_eq!(samples[0].wall_ms, 42.5, "experiment wall, not a probe's");
        assert!(samples[0].ok);
    }

    #[test]
    fn short_trajectories_are_skipped_not_gated() {
        let gate_opts = Gate {
            tolerance: 0.5,
            floor_ms: 10.0,
            window: 5,
        };
        // Two entries = one prior: not enough history to call a regression.
        let entries: Vec<String> = vec![
            entry("a", 1, &[("new_case", 10.0)]),
            entry("b", 1, &[("new_case", 500.0)]),
        ];
        let samples = parse_history(&history(&entries)).unwrap();
        let (regressions, skipped, gated) = gate(&samples, &gate_opts);
        assert!(regressions.is_empty());
        assert_eq!((skipped, gated), (1, 0));
    }
}
