//! `dsm-benchmark` command line.
//!
//! ```text
//! dsm-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE.csv]
//! dsm-benchmark [--seed N] [--seconds S]        # every workload, both kinds of run
//! ```
//!
//! One run prints every metric by name with its unit and sample count,
//! then, as its last line, the JSON object the benchmark contract asks
//! for. It exits non-zero when any op, output check or oracle pass
//! failed.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use dsm_benchmark::pin;
use dsm_benchmark::run::{self, Options, Outcome};
use dsm_benchmark::workload::{Workload, NODES};

const DEFAULT_SEED: u64 = 0x00C0_FFEE;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 28;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Where the traced run writes its spans, if anywhere.
    spans: Option<PathBuf>,
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        spans: None,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || parse_u64(&value).ok_or_else(|| format!("{flag}: bad number {value:?}"));
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; known: {}", known.join(", "))
                })?);
            }
            "--seed" => args.seed = number()?,
            "--seconds" => {
                args.seconds = number()?;
                if !(1..=60).contains(&args.seconds) {
                    return Err(format!("--seconds wants 1..=60, got {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value:?}")),
                }
            }
            "--spans" => args.spans = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// The contract's result line.
fn result_json(outcome: &Outcome) -> String {
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("writing to a String");
    }
    json.push_str("}}");
    json
}

fn run_one(args: &Args, workload: Workload) -> ExitCode {
    let clients = workload.clients().len();
    let placement: Vec<String> = (0..NODES)
        .map(|node| match pin::cpu_of(node, workload.processors()) {
            Some(cpu) => format!("node{node}=cpu{cpu}"),
            None => format!("node{node}=unpinned"),
        })
        .collect();
    println!(
        "# {} seed={:#x} seconds={} trace={} clients={clients} (closed loop) nproc={} placement: {}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        pin::processors(),
        placement.join(" "),
    );
    if pin::processors() == 0 {
        eprintln!("warning: cannot place threads on processors; timings will not repeat as well");
    } else if clients > pin::processors() {
        eprintln!(
            "error: {} runs {clients} client threads and there are {} processors: \
             clients would time-share and measure the scheduler",
            workload.name(),
            pin::processors()
        );
        return ExitCode::from(2);
    }
    let opts = Options {
        workload,
        seed: args.seed,
        seconds: args.seconds,
    };
    let result = if args.trace {
        run::per_layer(&opts, args.spans.as_deref())
    } else {
        run::end_to_end(&opts)
    };
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    for m in &outcome.metrics {
        println!(
            "{:<32} {:>18.4} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for m in &outcome.info {
        println!(
            "info {:<27} {:>18.4} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for why in &outcome.failures {
        println!("FAILED: {why}");
    }
    println!("{}", result_json(&outcome));
    if outcome.failed == 0 && outcome.metrics.iter().all(|m| m.value.is_finite()) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload, end to end and traced, each in a process of its own
/// so that set-up time and peak memory are per workload. Prints each
/// run's report, then one `RESULT <workload> <trace> <json>` line per
/// run, and one `INFO <workload> <trace> <name> <value> …` line per
/// number a run printed beside its metrics, for `check_repeat.sh`.
fn run_suite(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut results = Vec::new();
    let mut all_passed = true;
    for workload in Workload::ALL {
        for trace in ["0", "1"] {
            let output = Command::new(&exe)
                .args(["--workload", workload.name(), "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .stderr(std::process::Stdio::inherit())
                .output();
            let output = match output {
                Ok(output) => output,
                Err(e) => {
                    eprintln!("error: cannot run {}: {e}", exe.display());
                    return ExitCode::from(2);
                }
            };
            let text = String::from_utf8_lossy(&output.stdout);
            print!("{text}");
            println!();
            all_passed &= output.status.success();
            for line in text.lines().filter(|l| l.starts_with("info ")) {
                results.push(format!("INFO {} {trace} {}", workload.name(), &line[5..]));
            }
            if let Some(last) = text.lines().last().filter(|l| l.starts_with('{')) {
                results.push(format!("RESULT {} {trace} {last}", workload.name()));
            }
        }
    }
    for line in results {
        println!("{line}");
    }
    if all_passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("error: {why}");
            eprintln!(
                "usage: dsm-benchmark [--workload NAME --trace 0|1 [--spans FILE]] [--seed N] [--seconds 1..60]"
            );
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(workload) => run_one(&args, workload),
        None => run_suite(&args),
    }
}
