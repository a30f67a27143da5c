//! `repro`'s command line: a section name it does not know is an error
//! that lists the valid ones, not a silent banner-only run.

use std::process::Command;

const SECTIONS: &str =
    "fig1 fig2 fig3 modes fig5 solver latency dictionary ablations chaos costs dot";

#[test]
fn an_unknown_section_fails_and_lists_the_valid_ones() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig1", "solver-messages"])
        .output()
        .expect("run repro");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing runs");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("unknown section solver-messages"),
        "{stderr}"
    );
    assert!(stderr.contains(SECTIONS), "{stderr}");
}

#[test]
fn a_known_section_runs() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("fig1")
        .output()
        .expect("run repro");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("== E1: Figure 1"), "{stdout}");
    assert!(!stdout.contains("== E2:"), "only the section asked for");
}
