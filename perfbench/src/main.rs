//! `perfbench`: the repository benchmark.
//!
//! ```text
//! bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (see `BENCHMARK.json` for why each exists):
//!
//! * `serve_hom_dup` — `solve serve` over TCP, paper homogeneous requests
//!   with 35% exact duplicates over 4 tenants;
//! * `serve_het_lat` — `solve serve` over TCP, class-structured
//!   heterogeneous latency-bounded requests, all unique;
//! * `batch_sweep` — bound-sweep jobs through `BatchDriver::run_instances`.
//!
//! `--workload all` runs the three in turn.
//!
//! Every input is generated from `--seed`; the program receives only the
//! generated inputs. The run prints the host record, every metric by name
//! with its unit, and as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics, or with
//! `--trace 1` the per-layer ones). It exits non-zero when an output check
//! fails. Seed 20261017 is held out: claims are re-checked on it, never
//! tuned on it.

mod batch;
mod capacity;
mod check;
mod cpu;
mod env;
mod layers;
mod report;
mod schedule;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --solve <path> --out-dir <dir> --workload \
     <serve_hom_dup|serve_het_lat|batch_sweep|all> --seed <n> --seconds <s> --trace <0|1>";

/// The workloads `--workload all` runs.
const WORKLOADS: [&str; 3] = ["serve_hom_dup", "serve_het_lat", "batch_sweep"];

/// Command-line arguments.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured seconds (phase lengths are shares of it).
    pub seconds: f64,
    /// Run the traced per-layer split.
    pub trace: bool,
    /// The `solve` binary to serve with.
    pub solve: PathBuf,
    /// Where trace files go.
    pub out_dir: PathBuf,
}

fn parse(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut solve = None;
    let mut out_dir = None;
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("bad seconds {value:?}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value:?}")),
                })
            }
            "--solve" => solve = Some(PathBuf::from(value)),
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        solve: solve.ok_or("--solve is required")?,
        out_dir: out_dir.ok_or("--out-dir is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{}",
        serde_json::to_string(&serde_json::Value::Object(vec![(
            "env".into(),
            env::collect()
        )]))
        .expect("the host record serializes")
    );
    // `all` runs every workload in turn, for a person checking the whole
    // benchmark; each prints its own result line.
    let workloads: Vec<String> = if args.workload == "all" {
        WORKLOADS.iter().map(|w| w.to_string()).collect()
    } else {
        vec![args.workload.clone()]
    };
    let mut code = ExitCode::SUCCESS;
    for workload in workloads {
        let args = Args {
            workload,
            solve: args.solve.clone(),
            out_dir: args.out_dir.clone(),
            ..args
        };
        if !run(&args) {
            code = ExitCode::FAILURE;
        }
    }
    code
}

/// Runs one workload and prints its result; returns whether every check
/// passed.
fn run(args: &Args) -> bool {
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace
    );
    let outcome = match args.workload.as_str() {
        "serve_hom_dup" => serve::run(args, serve::Kind::HomDup),
        "serve_het_lat" => serve::run(args, serve::Kind::HetLat),
        "batch_sweep" => batch::run(args),
        other => Err(format!("unknown workload {other:?}")),
    };
    match outcome {
        Ok(outcome) => outcome.print(args.trace),
        Err(message) => {
            eprintln!("perfbench: {message}");
            false
        }
    }
}
