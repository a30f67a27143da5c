//! The hot-path perf suite driver: runs the seeded workloads from
//! [`dsm_bench::hotpath`] on their fixed seeds and gates the run against
//! a baseline report.
//!
//! ```text
//! perf [--out FILE] [--gate BASELINE]
//! ```
//!
//! * `--out FILE` — write the JSON report (default: stdout table only).
//! * `--gate BASELINE` — after running, compare against the baseline
//!   report (`BENCH_after.json`) and exit non-zero on any violation of
//!   [`check_regression`]'s rule. The baseline is read before the suite
//!   runs: a missing or unparsable one exits 2 at once.
//!
//! The bin installs a counting global allocator, so every in-process and
//! TCP cell reports allocations per operation.

use std::process::ExitCode;

use dsm_bench::hotpath::{check_regression, render_perf, run_suite, AllocProbe, PerfReport};

const USAGE: &str = "usage: perf [--out FILE] [--gate BASELINE]";

// The counting allocator lives in the bin target on purpose: the library
// keeps `#![forbid(unsafe_code)]`; only this executable opts into the
// (trivially auditable) unsafe GlobalAlloc wrapper.
mod counting_alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);
    static BYTES: AtomicU64 = AtomicU64::new(0);

    struct Counting;

    // SAFETY: delegates every operation verbatim to `System`; the only
    // addition is relaxed atomic bookkeeping, which cannot affect the
    // returned pointers or layouts.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            System.alloc_zeroed(layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static COUNTING: Counting = Counting;

    pub fn probe() -> dsm_bench::hotpath::AllocSnapshot {
        dsm_bench::hotpath::AllocSnapshot {
            allocs: ALLOCS.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
        }
    }
}

/// Prints `problem` and the usage line; the exit code for a bad command line.
fn usage_error(problem: &str) -> ExitCode {
    eprintln!("{problem}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn read_baseline(path: &str) -> Result<PerfReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read baseline {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parse baseline {path}: {e}"))
}

fn main() -> ExitCode {
    let mut out: Option<String> = None;
    let mut gate: Option<(String, PerfReport)> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let value = match arg.as_str() {
            "--out" | "--gate" => args.next(),
            other => return usage_error(&format!("unknown argument: {other}")),
        };
        let Some(value) = value else {
            return usage_error(&format!("{arg} needs a path"));
        };
        if arg == "--out" {
            out = Some(value);
        } else {
            match read_baseline(&value) {
                Ok(baseline) => gate = Some((value, baseline)),
                Err(problem) => return usage_error(&problem),
            }
        }
    }

    eprintln!("running hot-path suite...");
    let report = run_suite(Some(counting_alloc::probe as AllocProbe));
    print!("{}", render_perf(&report));

    if let Some(path) = out {
        let text = serde_json::to_string_pretty(&report).expect("serialize report");
        std::fs::write(&path, text + "\n").expect("write report");
        eprintln!("wrote {path}");
    }

    if let Some((baseline_path, baseline)) = gate {
        let violations = check_regression(&baseline, &report);
        if violations.is_empty() {
            eprintln!("gate vs {baseline_path}: PASS");
        } else {
            eprintln!("gate vs {baseline_path}: FAIL");
            for v in &violations {
                eprintln!("  regression: {v}");
            }
            return ExitCode::FAILURE;
        }
    }

    ExitCode::SUCCESS
}
