//! gridbench — paper-scale end-to-end and per-layer benchmark of the
//! gridmon simulator. `../BENCHMARK.json` is its contract with the
//! driver, `README.md` says what every metric and workload is for.

mod alloc;
#[cfg(test)]
mod json;
mod layers;
mod metrics;
mod noise;
mod spans;
#[cfg(test)]
mod tests;
mod workloads;
mod yardstick;

use gridmon_core::scenarios::FULL_SCALE;
use metrics::{END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use workloads::WORKLOADS;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// The seed of every committed artifact of the repository.
const DEFAULT_SEED: u64 = 0x9e3779b97f4a7c15;
/// `run_seconds` of `BENCHMARK.json`: three reps per run.
const DEFAULT_SECONDS: u64 = 30;

const USAGE: &str = "\
usage: gridbench <command> [--seed N] [--seconds S]
  run-one --workload W [--trace 0|1]  one workload in this process: end-to-end metrics
                                      (--trace 0, default) or per-layer metrics (--trace 1);
                                      the last line is the JSON result
  run                                 run-one --trace 0 for every workload, one child at a time
  trace                               run-one --trace 1 for every workload
  all                                 run, then trace
  layers                              the layers pass alone
  noise [--sets 2] [--runs 5]         `run` in independent sets; spread and gap per metric
every metric prints as `workload/name value unit`; --seed takes decimal or 0x hex";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    sets: usize,
    runs: usize,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_flags(mut rest: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        sets: 2,
        runs: 5,
    };
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or(format!("{flag} needs a value"))?;
        let number = parse_u64(&value).ok_or(format!("{flag} {value}: not a whole number"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = number?,
            "--seconds" => args.seconds = number?,
            "--trace" => args.trace = number? != 0,
            "--sets" => args.sets = number? as usize,
            "--runs" => args.runs = number? as usize,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Where `run-one --trace 1` leaves its spans.
fn trace_path(workload: &str) -> PathBuf {
    [
        env!("CARGO_MANIFEST_DIR"),
        "out",
        &format!("{workload}.trace.json"),
    ]
    .iter()
    .collect()
}

fn run_one(args: &Args) -> Result<bool, String> {
    let name = args.workload.as_deref().ok_or("run-one needs --workload")?;
    let w = workloads::find(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; known: {}", known.join(", "))
    })?;
    eprintln!("{}: {}", w.name, w.why);
    let (table, outcome) = if args.trace {
        let path = trace_path(w.name);
        let outcome = workloads::per_layer(w, args.seed, FULL_SCALE, &path);
        eprintln!("spans written to {}", path.display());
        (PER_LAYER, outcome)
    } else {
        let outcome = workloads::end_to_end(w, args.seed, args.seconds, FULL_SCALE);
        (END_TO_END, outcome)
    };
    for failure in &outcome.checks_failed {
        eprintln!("CHECK FAILED {failure}");
    }
    eprintln!("{}: {} checks failed", w.name, outcome.checks_failed.len());
    print!("{}", metrics::render(w.name, table, &outcome));
    Ok(outcome.checks_failed.is_empty())
}

/// One `name value unit` line of a child's output.
pub struct Sample {
    pub metric: String,
    pub value: f64,
}

/// Run one workload in a child of this executable — its own process, so
/// that peak_rss_mb is the workload's alone — and wait for it. Returns
/// what it printed and its metric lines, or what went wrong.
pub fn run_child(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Result<(String, Vec<Sample>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["run-one", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn run-one {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    if !out.status.success() {
        return Err(format!(
            "run-one {workload} failed ({})\n{stdout}",
            out.status
        ));
    }
    let prefix = format!("{workload}/");
    let samples = stdout
        .lines()
        .filter_map(|l| l.strip_prefix(&prefix))
        .filter_map(|l| {
            let mut words = l.split(' ');
            Some(Sample {
                metric: words.next()?.to_owned(),
                value: words.next()?.parse().ok()?,
            })
        })
        .collect();
    Ok((stdout, samples))
}

fn run_children(args: &Args, passes: &[bool]) -> Result<bool, String> {
    for &trace in passes {
        for w in &WORKLOADS {
            print!("{}", run_child(w.name, args.seed, args.seconds, trace)?.0);
        }
    }
    Ok(true)
}

fn layers_only() -> bool {
    let mut spans = spans::Spans::new();
    spans.time("layers", None, |spans, root| {
        for (name, ns) in layers::run(spans, root) {
            println!("layers/{name} {ns} ns");
        }
    });
    true
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("gridbench measures optimised code only: build it with --release");
        return ExitCode::from(2);
    }
    // `run_experiment` lets this variable shard every serial spec.
    std::env::remove_var("GRIDMON_SHARDS");
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_default();
    let args = match parse_flags(argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("gridbench: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let done = match command.as_str() {
        "run-one" => run_one(&args),
        "run" => run_children(&args, &[false]),
        "trace" => run_children(&args, &[true]),
        "all" => run_children(&args, &[false, true]),
        "layers" => Ok(layers_only()),
        "noise" => noise::run(&args),
        _ => Err(format!("unknown command {command:?}\n{USAGE}")),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("gridbench: {why}");
            ExitCode::from(2)
        }
    }
}
