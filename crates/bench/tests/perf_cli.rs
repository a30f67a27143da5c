//! `perf`'s command line: a bad `--gate` baseline or a flag without its
//! value is a usage error before any cell runs, not a panic after the
//! whole suite.

use std::process::{Command, Output};

fn perf(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(args)
        .output()
        .expect("run perf")
}

fn assert_rejected_before_running(out: &Output, problem: &str) {
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no cell's table is printed");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(problem), "{stderr}");
    assert!(stderr.contains("usage: perf"), "{stderr}");
    assert!(!stderr.contains("running hot-path suite"), "{stderr}");
}

#[test]
fn a_missing_baseline_is_rejected_before_the_suite_runs() {
    let missing = std::env::temp_dir().join("perf-cli-no-such-baseline.json");
    let out = perf(&["--gate", missing.to_str().unwrap()]);
    assert_rejected_before_running(&out, "read baseline");
}

#[test]
fn an_unparsable_baseline_is_rejected_before_the_suite_runs() {
    let out = perf(&["--gate", concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml")]);
    assert_rejected_before_running(&out, "parse baseline");
}

#[test]
fn a_flag_without_its_value_is_rejected() {
    for flag in ["--out", "--gate"] {
        let out = perf(&[flag]);
        assert_rejected_before_running(&out, &format!("{flag} needs a path"));
    }
}
