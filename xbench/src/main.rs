//! `xbench`: one end-to-end + per-layer benchmark for the x-able replication
//! protocol and the verification stack. See `README.md`.

mod compare;
mod gen;
mod json;
mod proto;
mod report;
mod run;
mod span;
mod stats;
mod sys;
mod verify;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use gen::Sizes;
use json::Json;
use report::{summary_json, MetricDef, Workload, END_TO_END, PER_LAYER};
use run::RunOpts;
use stats::Summary;

const USAGE: &str = "\
usage:
  xbench run --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick] [--trace-out <file>]
      one run of one workload in this process; the last line of standard
      output is the result as one JSON object
  xbench run [--seed <n>] [--seconds <s>] [--runs <r>] [--quick] [--out <file>]
      every workload, each run in its own child process: <r> untraced runs
      (seeds <n>, <n>+1, ...) for the end-to-end metrics, then one traced run
      for the per-layer metrics
  xbench compare <a.json> <b.json>
      two `--out` files side by side, each end-to-end metric judged against
      its bound
workloads: proto_steady proto_faults verify_online verify_durable";

const DEFAULT_SEED: u64 = 0xC0FFEE;
const DEFAULT_SECONDS: f64 = 10.0;

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    runs: usize,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        runs: 1,
        out: None,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            parsed.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot read `{value}`");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => {
                parsed.seed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16).ok(),
                    // A negative seed is as good a seed as any.
                    None => value
                        .parse()
                        .ok()
                        .or_else(|| value.parse::<i64>().ok().map(|n| n as u64)),
                }
                .ok_or_else(bad)?;
            }
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--runs" => parsed.runs = value.parse().ok().filter(|&r| r >= 1).ok_or_else(bad)?,
            "--out" => parsed.out = Some(PathBuf::from(value)),
            "--trace-out" => parsed.trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => {
            // A debug build measures a different program.
            if cfg!(debug_assertions) {
                Err("refusing to measure a build with debug assertions; use --release".to_owned())
            } else {
                parse_run_args(&args[1..]).and_then(|args| match args.workload {
                    Some(workload) => run_one(workload, &args),
                    None => run_all(&args),
                })
            }
        }
        Some("compare") if args.len() == 3 => compare_files(&args[1], &args[2]),
        _ => Err(USAGE.to_owned()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("xbench: {message}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------------------
// One workload, in this process
// ---------------------------------------------------------------------------

fn table_of(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Prints each metric by name with its unit, then the detail line (sample
/// counts and quartiles within the run), then the result line.
fn run_one(workload: Workload, args: &Args) -> Result<bool, String> {
    let opts = RunOpts {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        sizes: if args.quick {
            Sizes::QUICK
        } else {
            Sizes::FULL
        },
        trace_out: args.trace_out.clone(),
    };
    let mut outcome = run::run(workload, &opts).map_err(|e| format!("{}: {e}", workload.name()))?;
    let table = table_of(args.trace);
    outcome.require(table);
    for violation in &outcome.violations {
        eprintln!("xbench: {}: INCORRECT: {violation}", workload.name());
    }

    let line = outcome.result_line(table);
    println!(
        "{} seed={} trace={}{}: attempted={} failed={}",
        workload.name(),
        args.seed,
        u8::from(args.trace),
        if args.quick {
            " QUICK (not a result)"
        } else {
            ""
        },
        outcome.attempted,
        outcome.failed
    );
    for def in table {
        match outcome.metrics.summary(def.name) {
            Some(s) if s.n > 1 => println!(
                "  {:<44} {:>16.6} {:<6} n={} q1={:.6} q3={:.6}",
                def.name, s.median, def.unit, s.n, s.q1, s.q3
            ),
            Some(s) => println!("  {:<44} {:>16.6} {}", def.name, s.median, def.unit),
            None => {}
        }
    }
    println!(
        "{}",
        Json::obj([("samples", outcome.detail(table))]).render()
    );
    println!("{}", line.render());
    Ok(outcome.correct())
}

// ---------------------------------------------------------------------------
// Every workload, each run in a child process
// ---------------------------------------------------------------------------

struct ChildRun {
    seed: u64,
    result: Json,
    /// Sample counts and quartiles within the run, per metric.
    samples: Json,
    ok: bool,
}

fn child_run(workload: Workload, seed: u64, trace: bool, args: &Args) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["run", "--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        command.arg("--quick");
    }
    let output = command
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let parse = |line: Option<&str>| {
        line.ok_or("a child run printed no result".to_owned())
            .and_then(Json::parse)
    };
    let result = parse(lines.pop())?;
    let samples = parse(lines.pop())?
        .get("samples")
        .cloned()
        .unwrap_or(Json::Null);
    for line in lines {
        println!("{line}");
    }
    let correct = result.get("correct").and_then(Json::as_bool) == Some(true);
    Ok(ChildRun {
        seed,
        result,
        samples,
        ok: output.status.success() && correct,
    })
}

fn metric_value(run: &ChildRun, name: &str) -> Option<f64> {
    run.result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn run_summary(run: &ChildRun) -> Json {
    let field = |key: &str| run.result.get(key).cloned().unwrap_or(Json::Null);
    Json::obj([
        ("seed", Json::str(run.seed.to_string())),
        ("correct", field("correct")),
        ("attempted", field("attempted")),
        ("failed", field("failed")),
        ("samples", run.samples.clone()),
    ])
}

fn run_all(args: &Args) -> Result<bool, String> {
    let mut all_ok = true;
    let mut workloads = Vec::new();
    for workload in Workload::ALL {
        let mut runs = Vec::new();
        for r in 0..args.runs {
            let run = child_run(workload, args.seed.wrapping_add(r as u64), false, args)?;
            all_ok &= run.ok;
            runs.push(run);
        }
        let traced = child_run(workload, args.seed, true, args)?;
        all_ok &= traced.ok;

        let end_to_end = END_TO_END.iter().filter_map(|def| {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| metric_value(r, def.name))
                .collect();
            if values.is_empty() {
                return None;
            }
            let entry = Json::obj([
                ("unit", Json::str(def.unit)),
                ("better", Json::str(def.better.name())),
                ("bound", Json::Num(def.bound.unwrap_or(0.0))),
                ("values", Json::nums(&values)),
                ("summary", summary_json(&Summary::of(&values))),
            ]);
            Some((def.name, entry))
        });
        let per_layer = PER_LAYER.iter().filter_map(|def| {
            let value = metric_value(&traced, def.name)?;
            Some((
                def.name,
                Json::obj([("unit", Json::str(def.unit)), ("value", Json::Num(value))]),
            ))
        });
        workloads.push(Json::obj([
            ("name", Json::str(workload.name())),
            ("runs", Json::Arr(runs.iter().map(run_summary).collect())),
            ("end_to_end", Json::obj(end_to_end)),
            ("traced_run", run_summary(&traced)),
            ("per_layer", Json::obj(per_layer)),
        ]));
    }

    let provenance = Json::obj([
        (
            "git_rev",
            Json::str(sys::tool_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(sys::tool_line("rustc", &["-V"]))),
        ("nproc", Json::Num(sys::nproc() as f64)),
        ("debug_assertions", Json::Bool(cfg!(debug_assertions))),
        ("seed", Json::str(args.seed.to_string())),
        ("runs", Json::Num(args.runs as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("quick", Json::Bool(args.quick)),
    ]);
    let report = Json::obj([
        ("schema", Json::str("xbench-report-v1")),
        ("provenance", provenance),
        ("workloads", Json::Arr(workloads)),
    ]);
    print_report(&report);
    if let Some(path) = &args.out {
        std::fs::write(path, report.render() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("report written to {}", path.display());
    }
    if !all_ok {
        eprintln!("xbench: some run was incorrect or failed; see above");
    }
    Ok(all_ok)
}

fn print_report(report: &Json) {
    let text = |j: Option<&Json>| j.map(Json::render).unwrap_or_default();
    println!("\n== xbench report ==");
    println!("provenance: {}", text(report.get("provenance")));
    if report
        .get("provenance")
        .and_then(|p| p.get("quick"))
        .and_then(Json::as_bool)
        == Some(true)
    {
        println!("QUICK sizes: a smoke run, not a result");
    }
    for workload in report
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap_or_default()
    {
        println!(
            "\n{}",
            workload
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or_default()
        );
        for (name, metric) in workload
            .get("end_to_end")
            .and_then(Json::as_obj)
            .unwrap_or_default()
        {
            let num = |key: &str| {
                metric
                    .get("summary")
                    .and_then(|s| s.get(key))
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN)
            };
            println!(
                "  {:<44} {:>16.6} {:<6} n={} q1={:.6} q3={:.6}",
                name,
                num("median"),
                metric
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or_default(),
                num("n"),
                num("q1"),
                num("q3")
            );
        }
        for (name, metric) in workload
            .get("per_layer")
            .and_then(Json::as_obj)
            .unwrap_or_default()
        {
            println!(
                "  {:<44} {:>16.6} {}",
                name,
                metric
                    .get("value")
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN),
                metric
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
            );
        }
    }
}

// ---------------------------------------------------------------------------
// compare
// ---------------------------------------------------------------------------

fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (table, any_worse) = compare::compare(&load(a)?, &load(b)?, (a, b))?;
    print!("{table}");
    Ok(!any_worse)
}
