//! The regression gate and the report table.

use super::{PerfReport, WorkloadReport};

/// How far below the baseline's ops/sec a `gated` cell may fall before
/// the gate fails it.
pub const THRESHOLD: f64 = 0.15;

/// Headroom of a proxy ceiling over the baseline's recorded value. The
/// concurrent interleaving of the TCP cells moves their miss counts (and
/// with them messages, bytes and allocations per op) by about a percent
/// from run to run, and round-trip-sealed batching moves
/// `bursty_invalidate_batched`'s allocations by two; a lost optimisation
/// moves a count by tens — one allocation more on a four-allocation
/// write is +25%.
pub const PROXY_SLACK: f64 = 0.05;

/// The count proxies every cell is held to: what a change can silently
/// make worse and a noisy box cannot — a message more per op, a copy
/// that allocates, a frame header that grew, a timestamp shipped dense.
fn proxies(w: &WorkloadReport) -> [(&'static str, f64); 4] {
    [
        ("msgs/op", w.msgs_per_op),
        ("allocs/op", w.allocs_per_op),
        ("wire bytes/op", w.wire_bytes_per_op),
        ("metadata bytes/op", w.metadata_bytes_per_op),
    ]
}

/// Compares `current` against `baseline` and returns the violations
/// (empty = pass):
///
/// * both reports must name the same (workload, seed) cells;
/// * every `gated` cell must reach at least `1 - THRESHOLD` of the
///   baseline's ops/sec;
/// * in every cell, each count proxy must stay at or below the
///   baseline's value times `1 + PROXY_SLACK`, so a baseline of 0 must
///   stay 0. A proxy recorded as `-1` (not measured) on either side is
///   skipped.
///
/// Envelopes and syscalls per op are reported but not gated: batches
/// sealed by the round trip make them timing-dependent.
#[must_use]
pub fn check_regression(baseline: &PerfReport, current: &PerfReport) -> Vec<String> {
    let mut violations = Vec::new();
    for b in &baseline.workloads {
        let cell = format!("{} (seed {:#x})", b.name, b.seed);
        let Some(c) = current.cell(&b.name, b.seed) else {
            violations.push(format!("{cell}: in the baseline, missing from this run"));
            continue;
        };
        let floor = b.ops_per_sec * (1.0 - THRESHOLD);
        if b.gated && c.ops_per_sec < floor {
            violations.push(format!(
                "{cell}: {:.0} ops/s < {floor:.0} ops/s floor ({:.0} baseline, -{:.0}%)",
                c.ops_per_sec,
                b.ops_per_sec,
                THRESHOLD * 100.0
            ));
        }
        for ((what, base), (_, now)) in proxies(b).into_iter().zip(proxies(c)) {
            let ceiling = base * (1.0 + PROXY_SLACK);
            if base >= 0.0 && now >= 0.0 && now > ceiling {
                violations.push(format!(
                    "{cell}: {now:.3} {what} > {ceiling:.3} ceiling ({base:.3} baseline, +{:.0}%)",
                    PROXY_SLACK * 100.0
                ));
            }
        }
    }
    for c in &current.workloads {
        if baseline.cell(&c.name, c.seed).is_none() {
            violations.push(format!(
                "{} (seed {:#x}): in this run, missing from the baseline",
                c.name, c.seed
            ));
        }
    }
    violations
}

/// Renders a human-readable table of one report.
#[must_use]
pub fn render_perf(report: &PerfReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<24} {:>10} {:>12} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "workload",
        "seed",
        "ops/sec",
        "p50 ns",
        "p99 ns",
        "allocs",
        "proto",
        "overhead",
        "msgs/op",
        "envs/op",
        "sys/op",
        "mdB/op",
        "wireB/op"
    );
    let ns = |v: Option<u64>| v.map_or_else(|| "-".to_owned(), |ns| ns.to_string());
    for w in &report.workloads {
        let _ = writeln!(
            out,
            "{:<24} {:>#10x} {:>12.0} {:>9} {:>9} {:>9.2} {:>9} {:>9} {:>9.3} {:>9.3} {:>9.3} {:>9.1} {:>9.1}",
            w.name,
            w.seed,
            w.ops_per_sec,
            ns(w.p50_ns),
            ns(w.p99_ns),
            w.allocs_per_op,
            w.protocol_msgs,
            w.overhead_msgs,
            w.msgs_per_op,
            w.envelopes_per_op,
            w.syscalls_per_op,
            w.metadata_bytes_per_op,
            w.wire_bytes_per_op
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    #[test]
    fn regression_gate_flags_slowdowns() {
        let mk = |ops_per_sec: f64, gated: bool| WorkloadReport {
            name: "w".into(),
            seed: 1,
            ops: 10,
            elapsed_ns: 10,
            ops_per_sec,
            p50_ns: None,
            p99_ns: None,
            allocs_per_op: 0.0,
            alloc_bytes_per_op: 0.0,
            protocol_msgs: 0,
            overhead_msgs: 0,
            msgs_by_kind: BTreeMap::new(),
            envelope_msgs: 0,
            msgs_per_op: 0.0,
            envelopes_per_op: 0.0,
            syscalls_per_op: 0.0,
            metadata_bytes_per_op: 0.0,
            wire_bytes_per_op: 0.0,
            gated,
        };
        let one = |w: WorkloadReport| PerfReport {
            schema: 2,
            workloads: vec![w],
        };
        let base = one(mk(1000.0, true));
        assert!(check_regression(&base, &one(mk(900.0, true))).is_empty());
        assert_eq!(check_regression(&base, &one(mk(700.0, true))).len(), 1);
        // A cell without the floor never fails on wall clock.
        let ungated = one(mk(1000.0, false));
        assert!(check_regression(&ungated, &one(mk(700.0, false))).is_empty());

        // Every cell is held to each count proxy's ceiling, whatever its
        // wall clock does.
        let counts = |msgs: f64, allocs: f64, wire: f64, metadata: f64| {
            one(WorkloadReport {
                msgs_per_op: msgs,
                allocs_per_op: allocs,
                wire_bytes_per_op: wire,
                metadata_bytes_per_op: metadata,
                ..mk(1.0, false)
            })
        };
        let tcp = counts(1.4, 10.0, 200.0, 0.0);
        assert!(check_regression(&tcp, &counts(1.46, 10.4, 208.0, 0.0)).is_empty());
        assert_eq!(
            check_regression(&tcp, &counts(1.4, 10.0, 211.0, 0.0)).len(),
            1
        );
        assert_eq!(
            check_regression(&tcp, &counts(1.4, 10.6, 211.0, 0.0)).len(),
            2
        );
        let more_msgs = check_regression(&tcp, &counts(1.5, 10.0, 200.0, 0.0));
        assert!(
            more_msgs.len() == 1 && more_msgs[0].contains("msgs/op"),
            "{more_msgs:?}"
        );
        let scale = counts(0.9, -1.0, 0.0, 80.0);
        assert!(check_regression(&scale, &counts(0.9, -1.0, 0.0, 83.0)).is_empty());
        let denser = check_regression(&scale, &counts(0.9, -1.0, 0.0, 85.0));
        assert!(
            denser.len() == 1 && denser[0].contains("metadata bytes/op"),
            "{denser:?}"
        );

        // A baseline of exactly 0 must stay 0: one allocation per op on a
        // zero-allocation cell fails.
        let zero = counts(0.0, 0.0, 0.0, 0.0);
        let allocates = check_regression(&zero, &counts(0.0, 1.0, 0.0, 0.0));
        assert!(
            allocates.len() == 1 && allocates[0].contains("allocs/op"),
            "{allocates:?}"
        );

        // -1 (not measured) on either side skips that proxy only.
        assert!(check_regression(&tcp, &counts(1.4, -1.0, 200.0, 0.0)).is_empty());
        assert!(check_regression(&counts(1.4, -1.0, 200.0, 0.0), &tcp).is_empty());
        assert_eq!(
            check_regression(
                &counts(1.4, -1.0, 200.0, 0.0),
                &counts(1.4, 50.0, 211.0, 0.0)
            )
            .len(),
            1
        );

        // The run and the baseline must name the same cells.
        let none = PerfReport {
            schema: 2,
            workloads: Vec::new(),
        };
        assert_eq!(check_regression(&base, &none).len(), 1);
        assert_eq!(check_regression(&none, &base).len(), 1);
        let renamed = one(WorkloadReport {
            name: "w2".into(),
            ..mk(1000.0, true)
        });
        assert_eq!(check_regression(&base, &renamed).len(), 2);
    }
}
