//! The benchmark's command line.
//!
//! ```text
//! harness --workload W --seed S --seconds N --trace 0|1   one run of one workload
//! harness [--seed S] [--seconds N] [--repeat R] [--smoke] [--out PATH]
//!                                                         every workload, each run
//!                                                         in a fresh child process
//! harness compare A.json B.json [--bounds BENCHMARK.json]
//! ```
//!
//! A single run prints every metric by name with its unit and, as the last
//! line of standard output, one JSON object `{correct, attempted, failed,
//! metrics}`; it exits nonzero when the outputs were not correct.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use dichotomy_benchmark::compare::compare;
use dichotomy_benchmark::jsonio::Json;
use dichotomy_benchmark::run::{run, Inject, Options};
use dichotomy_benchmark::workloads::{workload, WORKLOADS};

const USAGE: &str = "usage:
  harness --workload NAME [--seed S] [--seconds N] [--trace 0|1] [--smoke] [--inject digest|probe]
  harness [--seed S] [--seconds N] [--repeat R] [--smoke] [--out PATH]
  harness compare A.json B.json [--bounds BENCHMARK.json]";

/// Where runs leave their records, span files and the replay cache.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    inject: Option<Inject>,
    repeat: u64,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 7,
        seconds: 8.0,
        trace: false,
        smoke: false,
        inject: None,
        repeat: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("flag '{flag}' needs a value"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => {
                cli.seed = value()?
                    .parse()
                    .map_err(|_| "--seed: not a u64".to_string())?
            }
            "--seconds" => {
                cli.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds: not a duration")?
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace: not 0|1".to_string()),
                }
            }
            "--repeat" => {
                cli.repeat = value()?
                    .parse()
                    .ok()
                    .filter(|r| *r >= 1)
                    .ok_or("--repeat: not a count >= 1")?
            }
            "--inject" => {
                cli.inject = Some(match value()?.as_str() {
                    "digest" => Inject::Digest,
                    "probe" => Inject::Probe,
                    _ => return Err("--inject: not digest|probe".to_string()),
                })
            }
            "--out" => cli.out = Some(PathBuf::from(value()?)),
            "--smoke" => cli.smoke = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().map(String::as_str) == Some("compare") {
        compare_command(&args[1..])
    } else {
        parse(&args).and_then(|cli| match &cli.workload {
            Some(_) => run_one(&cli),
            None => run_all(&cli),
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn record_path(workload: &str, trace: bool) -> PathBuf {
    out_dir().join(format!("{workload}-trace{}.json", u8::from(trace)))
}

/// One run of one workload, in this process.
fn run_one(cli: &Cli) -> Result<bool, String> {
    let name = cli.workload.as_deref().unwrap_or_default();
    let def = workload(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload '{name}' (one of: {})", names.join(" "))
    })?;
    let opts = Options {
        workload: def,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        smoke: cli.smoke,
        inject: cli.inject,
    };
    let report = run(&opts, &out_dir())?;
    let path = record_path(def.name, cli.trace);
    std::fs::write(&path, report.to_json().render())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    print!("{}", report.render());
    println!("{}", report.contract_line());
    Ok(report.correct)
}

/// Every workload: `--repeat` untraced runs (seeds `S`, `S+1`, …) and one
/// traced run each, every run in a fresh child process so `peak_rss_mb` is
/// per run. Writes one result document.
fn run_all(cli: &Cli) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find the harness: {e}"))?;
    let child = |name: &str, seed: u64, trace: bool| -> Result<(Json, bool), String> {
        let mut command = Command::new(&exe);
        command
            .args(["--workload", name, "--seed", &seed.to_string()])
            .args(["--seconds", &cli.seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }]);
        if cli.smoke {
            command.arg("--smoke");
        }
        let status = command
            .status()
            .map_err(|e| format!("cannot start a child run: {e}"))?;
        let path = record_path(name, trace);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("run of {name} left no record at {}: {e}", path.display()))?;
        Ok((Json::parse(&text)?, status.success()))
    };
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for def in WORKLOADS {
        let mut runs = Vec::new();
        for r in 0..cli.repeat {
            let (record, ok) = child(def.name, cli.seed + r, false)?;
            all_correct &= ok;
            runs.push(record);
        }
        let (traced, ok) = child(def.name, cli.seed, true)?;
        all_correct &= ok;
        workloads.push(Json::obj([
            ("name", Json::str(def.name)),
            ("runs", Json::Arr(runs)),
            ("traced", traced),
        ]));
    }
    let document = Json::obj([
        ("generator", Json::str("dichotomy-benchmark")),
        ("seed", Json::Num(cli.seed as f64)),
        ("seconds", Json::Num(cli.seconds)),
        ("repeat", Json::Num(cli.repeat as f64)),
        ("smoke", Json::Bool(cli.smoke)),
        ("workloads", Json::Arr(workloads)),
    ]);
    let path = cli
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join("result.json"));
    std::fs::write(&path, document.render())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}

fn compare_command(args: &[String]) -> Result<bool, String> {
    let mut paths = Vec::new();
    let mut bounds = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--bounds" {
            bounds = PathBuf::from(it.next().ok_or("--bounds needs a path")?);
        } else {
            paths.push(arg);
        }
    }
    let [a, b] = paths[..] else {
        return Err("compare takes exactly two result documents".to_string());
    };
    let load = |path: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let (table, ok) = compare(&load(Path::new(a))?, &load(Path::new(b))?, &load(&bounds)?);
    print!("{table}");
    Ok(ok)
}
