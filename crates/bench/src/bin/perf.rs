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
//!   [`check_regression`]'s rule.
//!
//! The bin installs a counting global allocator, so every in-process and
//! TCP cell reports allocations per operation.

use std::process::ExitCode;

use dsm_bench::hotpath::{check_regression, render_perf, run_suite, AllocProbe};

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

fn main() -> ExitCode {
    let mut out: Option<String> = None;
    let mut gate: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = Some(args.next().expect("--out needs a path")),
            "--gate" => gate = Some(args.next().expect("--gate needs a baseline path")),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: perf [--out FILE] [--gate BASELINE]");
                return ExitCode::from(2);
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

    if let Some(baseline_path) = gate {
        let text = std::fs::read_to_string(&baseline_path).expect("read baseline");
        let baseline = serde_json::from_str(&text).expect("parse baseline");
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
