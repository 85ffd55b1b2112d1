//! `benchmark` — the benchmark every performance claim in this repository is
//! measured with.
//!
//! ```text
//! benchmark [--workload NAME]... [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]
//! benchmark --compare BASE.json NEW.json
//! ```
//!
//! Each workload runs in a child process of its own, one after another,
//! with `RAYON_NUM_THREADS=1`: inputs are generated from `--seed`, set up
//! (timed), checked against an oracle, warmed up once and then timed pass
//! after pass for `--seconds`. The parent prints every metric with its unit,
//! writes a result file (default `bench/out/result.json`) and prints, as its
//! last line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` — end-to-end metrics, or per-layer ones with `--trace`. A run
//! whose outputs miss an oracle exits with status 1.
//!
//! See `bench/README.md` for the workloads, the metrics and how to read them.

mod affinity;
mod compare;
mod json;
mod layers;
mod report;
mod spec;
mod stats;
mod trace;
mod workloads;

use json::Json;
use report::WorkloadReport;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::{Params, Scale};

/// Timed seconds per workload when `--seconds` is not given; matches
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;

/// Worker threads of each workload process's global pool: the gated
/// numbers measure one core, because multi-worker medians drift more from
/// process to process on the shared reference host.
const POOL_WIDTH: usize = 1;

#[derive(Debug)]
struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    /// Internal: run one workload in this process and print its report.
    child: bool,
}

const USAGE: &str = "usage: benchmark [--workload NAME]... [--seed N] [--seconds S] \
                     [--trace [0|1]] [--out FILE]\n       benchmark --compare BASE.json NEW.json";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: spec::DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        compare: None,
        child: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                if !spec::WORKLOADS.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload {name:?} (expected one of {})",
                        spec::WORKLOADS.join(", ")
                    ));
                }
                args.workloads.push(name);
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs a non-negative integer".to_string())?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds needs a non-negative number")?
            }
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            "--compare" => {
                let base = value("--compare")?;
                let new = value("--compare")?;
                args.compare = Some((base.into(), new.into()));
            }
            "--child" => args.child = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workloads.is_empty() {
        args.workloads = spec::WORKLOADS.iter().map(|w| w.to_string()).collect();
    }
    if args.child && args.workloads.len() != 1 {
        return Err("--child runs exactly one workload".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("benchmark: {message}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((base, new)) = &args.compare {
        return match compare::run(base, new) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::FAILURE,
            Err(message) => {
                eprintln!("benchmark: {message}");
                ExitCode::from(2)
            }
        };
    }
    if args.child {
        return run_child(&args);
    }
    orchestrate(&argv, &args)
}

/// Where traces and result files go: `bench/out` next to this package's
/// manifest, whatever the working directory.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn run_child(args: &Args) -> ExitCode {
    let params = Params {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: Scale::Full,
    };
    let report = workloads::run(&args.workloads[0], &params).expect("workload names are checked");
    println!("{}", report.to_json().to_line());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one child process for `workload` and reads back its report line.
fn run_workload(args: &Args, workload: &str) -> Result<WorkloadReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--child", "--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .env("RAYON_NUM_THREADS", POOL_WIDTH.to_string())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the {workload} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| l.starts_with('{'))
        .ok_or(format!(
            "{workload} child ({}) printed no report",
            output.status
        ))?;
    let json = Json::parse(line).map_err(|e| format!("{workload} report: {e}"))?;
    WorkloadReport::from_json(&json)
}

fn orchestrate(argv: &[String], args: &Args) -> ExitCode {
    let mut reports = Vec::new();
    for workload in &args.workloads {
        eprintln!(
            "benchmark: {workload} (seed {}, {} s{}) ...",
            args.seed,
            args.seconds,
            if args.trace { ", traced" } else { "" }
        );
        match run_workload(args, workload) {
            Ok(report) => reports.push(report),
            Err(message) => {
                eprintln!("benchmark: {message}");
                return ExitCode::from(2);
            }
        }
    }
    for report in &reports {
        print_report(report, args.trace);
    }

    let result = result_file(argv, args, &reports);
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join("result.json"));
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, result.to_pretty()));
    match written {
        Ok(()) => println!("wrote {}", path.display()),
        Err(err) => eprintln!("benchmark: could not write {}: {err}", path.display()),
    }

    let all_correct = reports.iter().all(|r| r.correct);
    println!("{}", result_line(&reports, args.trace).to_line());
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_report(report: &WorkloadReport, trace: bool) {
    println!(
        "\n== {} — {} ({} operations, {} failed, digest {:#018x}, count {})",
        report.workload,
        if report.correct {
            "correct"
        } else {
            "INCORRECT"
        },
        report.attempted,
        report.failed,
        report.digest,
        report.count
    );
    for problem in &report.problems {
        println!("   problem: {problem}");
    }
    println!(
        "   {:<16} {:>14} {:>14} {:>14} {:>4} {:>14}  unit (better)",
        "metric", "median", "q1", "q3", "n", "raw median"
    );
    for (name, s) in &report.metrics {
        let raw = report
            .raw_metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(f64::NAN, |(_, r)| r.median);
        let (unit, better) =
            spec::end_to_end(name).map_or(("", ""), |m| (m.unit, m.better.as_str()));
        println!(
            "   {name:<16} {:>14.6} {:>14.6} {:>14.6} {:>4} {raw:>14.6}  {unit} ({better})",
            s.median, s.q1, s.q3, s.n
        );
    }
    if trace {
        for (name, value) in &report.layers {
            let unit = spec::PER_LAYER
                .iter()
                .find(|m| m.name == name)
                .map_or("", |m| m.unit);
            println!("   {name:<42} {value:>16.6}  {unit}");
        }
    }
    for (name, value) in &report.details {
        println!("   detail {name:<34} {value:>16.6}");
    }
}

/// The run's record: how it was invoked and on what, next to every report —
/// like a log that starts with the exact command it ran.
fn result_file(argv: &[String], args: &Args, reports: &[WorkloadReport]) -> Json {
    let command: Vec<Json> = std::iter::once("benchmark".to_string())
        .chain(argv.iter().cloned())
        .map(Json::from)
        .collect();
    let (commit, dirty) = git_state();
    Json::obj()
        .with("command", command)
        .with("commit", commit)
        .with("dirty", dirty)
        .with(
            "nproc",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        )
        .with(
            "gk_simd",
            format!("{:?}", gk_filters::simd::SimdMode::Auto.resolve()).to_lowercase(),
        )
        .with("pool_width", POOL_WIDTH)
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with("trace", args.trace)
        .with("calibration_reference_s", stats::REFERENCE_CALIBRATION_S)
        .with(
            "workloads",
            reports
                .iter()
                .map(WorkloadReport::to_json)
                .collect::<Vec<_>>(),
        )
}

/// The commit the benchmark was built from, when the source tree is a git
/// checkout, and whether it had uncommitted changes.
fn git_state() -> (String, bool) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    if !root.join(".git").exists() {
        return ("unknown".into(), false);
    }
    let git = |args: &[&str]| {
        Command::new("git")
            .arg("-C")
            .arg(&root)
            .args(args)
            .stdin(Stdio::null())
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let commit = git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let dirty = git(&["status", "--porcelain"]).is_some_and(|s| !s.is_empty());
    (commit, dirty)
}

/// The benchmark's last line. One workload gives exactly its contract
/// metrics; several are keyed `<workload>.<metric>`.
fn result_line(reports: &[WorkloadReport], trace: bool) -> Json {
    if let [report] = reports {
        return report.result_line(trace);
    }
    let mut metrics = Json::obj();
    for report in reports {
        let line = report.result_line(trace);
        for (name, value) in line.get("metrics").map_or(&[][..], Json::entries) {
            metrics = metrics.with(&format!("{}.{name}", report.workload), value.clone());
        }
    }
    Json::obj()
        .with("correct", reports.iter().all(|r| r.correct))
        .with(
            "attempted",
            reports.iter().map(|r| r.attempted.max(1)).sum::<u64>(),
        )
        .with("failed", reports.iter().map(|r| r.failed).sum::<u64>())
        .with("metrics", metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn one_workload_arguments_parse() {
        let a = args(&[
            "--workload",
            "map-wgs",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(a.workloads, ["map-wgs"]);
        assert_eq!((a.seed, a.seconds, a.trace), (42, 10.0, false));
        assert!(args(&["--trace", "1"]).unwrap().trace);
        assert!(args(&["--trace"]).unwrap().trace);
        let all = args(&["--trace", "--seed", "3"]).unwrap();
        assert_eq!(all.workloads.len(), spec::WORKLOADS.len());
        assert_eq!(all.seed, 3);
    }

    #[test]
    fn bad_arguments_are_rejected() {
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed", "-1"]).is_err());
        assert!(args(&["--seconds"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
        assert!(args(&["--child"]).is_err());
    }

    #[test]
    fn benchmark_json_mirrors_the_metric_tables() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), spec::WORKLOADS);
        let check = |key: &str, specs: &[spec::MetricSpec]| {
            let listed = doc.get(key).and_then(Json::as_array).unwrap();
            assert_eq!(listed.len(), specs.len(), "{key}");
            for (m, s) in listed.iter().zip(specs) {
                assert_eq!(m.get("name").and_then(Json::as_str), Some(s.name));
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(s.unit));
                assert_eq!(
                    m.get("better").and_then(Json::as_str),
                    Some(s.better.as_str())
                );
                assert_eq!(m.get("bound").and_then(Json::as_f64), s.bound, "{}", s.name);
            }
        };
        check("end_to_end", &spec::END_TO_END);
        check("per_layer", &spec::PER_LAYER);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
    }
}
