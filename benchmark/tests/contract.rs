//! `BENCHMARK.json` at the repo's root is the one list of workloads and
//! metrics. This runs the binary the way the benchmark driver does and
//! holds what it prints to that list: the workloads it accepts, and per
//! kind of run exactly the listed metrics with the listed units.

use std::process::Command;

use dsm_benchmark::workload::Workload;
use serde::value::Value;

fn entries<'a>(spec: &'a Value, section: &str) -> &'a [Value] {
    match spec.get(section) {
        Some(Value::Seq(items)) => items,
        other => panic!("BENCHMARK.json: {section} is {other:?}"),
    }
}

fn text<'a>(entry: &'a Value, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("no string {key} in {entry:?}"))
}

/// The result line of one short run.
fn run(workload: &str, trace: &str) -> Value {
    let output = Command::new(env!("CARGO_BIN_EXE_dsm-benchmark"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", trace])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).unwrap_or_else(|e| panic!("result line {last:?}: {e}"))
}

#[test]
fn the_binary_emits_what_benchmark_json_lists() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let spec: Value = serde_json::from_str(&json).expect("BENCHMARK.json parses");

    let listed: Vec<&str> = entries(&spec, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    // Every workload but the durable one, whose numbers are the host
    // disk's: it runs as a leg of `remote_rt`'s traced run instead.
    let known: Vec<&str> = Workload::ALL
        .iter()
        .filter(|w| !w.durable())
        .map(|w| w.name())
        .collect();
    assert_eq!(listed, known);

    // With its durable leg `remote_rt` crosses every layer, so no metric
    // is left out for want of something to measure.
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let result = run("remote_rt", trace);
        let keys: Vec<&str> = match &result {
            Value::Map(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("result line is {other:?}"),
        };
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
        let Some(Value::Map(metrics)) = result.get("metrics") else {
            panic!("no metrics in {result:?}");
        };
        let mut emitted: Vec<(&str, &str)> = metrics
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Value::as_f64);
                assert!(value.is_some_and(f64::is_finite), "{name}: {m:?}");
                (name.as_str(), text(m, "unit"))
            })
            .collect();
        let mut listed: Vec<(&str, &str)> = entries(&spec, section)
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit")))
            .collect();
        emitted.sort_unstable();
        listed.sort_unstable();
        assert_eq!(emitted, listed, "--trace {trace} against {section}");
    }
}
