//! Command line of the thicket benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload eda_session --seed 1 --seconds 10 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --workload all
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`). Lines before
//! it give the host record and the workload's own headline figures.
//! A run whose output checks fail still prints that line, then exits 1.
//! `--workload all` re-executes this binary once per workload, so each
//! workload's set-up time and peak RSS belong to it alone.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use thicket_perfbench::{run, RunConfig, Workload};

/// Where runs keep scratch stores, result records and span files,
/// relative to the directory the benchmark is started from.
const WORK_DIR: &str = ".perfbench";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err(format!(
                        "--seconds must be positive and finite, got {value}"
                    ));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Run every workload, each in a child process of its own. A child
/// exits non-zero when it fails or its output checks do not hold (it
/// prints why); the names of those workloads are returned.
fn run_all(args: &Args) -> Result<Vec<&'static str>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut failed = Vec::new();
    for w in Workload::ALL {
        // `status()` waits for the child, which inherits stdout/stderr.
        let status = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("spawn {}: {e}", w.name()))?;
        if !status.success() {
            failed.push(w.name());
        }
    }
    Ok(failed)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <eda_session|service_mixed|trace_ingest|all> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return match run_all(&args) {
            Ok(failed) if failed.is_empty() => ExitCode::SUCCESS,
            Ok(failed) => {
                eprintln!("perfbench: failed: {}", failed.join(", "));
                ExitCode::from(1)
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(1)
            }
        };
    }
    let Some(workload) = Workload::parse(&args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let cfg = RunConfig {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        tiny: false,
        work_dir: PathBuf::from(WORK_DIR).join("scratch"),
    };
    let report = match run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", workload.name());
            return ExitCode::from(1);
        }
    };
    if let Err(e) = report.write_files(&PathBuf::from(WORK_DIR)) {
        eprintln!("perfbench: writing records under {WORK_DIR}: {e}");
    }
    for line in report.summary_lines() {
        println!("{line}");
    }
    println!("{}", report.outcome.result_json(cfg.traced));
    if report.outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
