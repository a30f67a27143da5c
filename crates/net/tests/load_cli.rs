//! `dsm-load`'s command line: a knob combination the protocol
//! configuration would reject is a usage error before anything is
//! spawned.

use std::process::Command;

#[test]
fn batching_without_a_pipeline_is_a_usage_error() {
    for extra in [&[][..], &["--pipeline", "0"][..]] {
        let out = Command::new(env!("CARGO_BIN_EXE_dsm-load"))
            .args(["--spawn", "2", "--batching"])
            .args(extra)
            .output()
            .expect("run dsm-load");
        assert_eq!(out.status.code(), Some(2), "{extra:?}");
        assert!(out.stdout.is_empty(), "nothing runs");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.starts_with("usage: dsm-load"), "{stderr}");
    }
}
