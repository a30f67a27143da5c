//! Ablations of the design choices `DESIGN.md` calls out (A1–A4).

use std::fmt::Write as _;

use atomic_dsm::InvalMode;
use causal_dsm::{CausalConfig, CausalConfigBuilder, InvalidationMode};
use dsm_apps::{
    run_atomic_solver_sim, run_causal_solver_sim, LinearSystem, SolverSimConfig, WorkloadOp,
    WorkloadSpec,
};
use dsm_sim::{causal_sim, ClientOp, RunLimits, Script, SimOpts, WaitMode};
use memcore::{Location, Word};

/// Aggregate counters from one simulated workload run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkloadRun {
    /// Total protocol messages.
    pub messages: u64,
    /// Approximate wire bytes.
    pub bytes: u64,
    /// Cache invalidations performed across nodes.
    pub invalidations: u64,
    /// Simulated makespan.
    pub time: u64,
}

/// Runs a synthetic workload on the simulated causal DSM with a custom
/// protocol configuration.
///
/// # Panics
///
/// Panics if the run does not complete.
#[must_use]
pub fn run_causal_workload(
    spec: &WorkloadSpec,
    configure: impl FnOnce(CausalConfigBuilder<Word>) -> CausalConfigBuilder<Word>,
) -> WorkloadRun {
    let config = configure(CausalConfig::<Word>::builder(
        spec.nodes as u32,
        spec.locations(),
    ))
    .build();
    let mut sim = causal_sim(&config, SimOpts::default());
    for (node, ops) in spec.generate().into_iter().enumerate() {
        let script: Vec<ClientOp<Word>> = ops
            .into_iter()
            .map(|op| match op {
                WorkloadOp::Read(loc) => ClientOp::Read(loc),
                WorkloadOp::Write(loc, v) => ClientOp::Write(loc, Word::Int(v)),
            })
            .collect();
        sim.set_client(node, Script::new(script));
    }
    let report = sim.run(RunLimits::default());
    assert!(report.all_done, "workload stuck: {report:?}");
    let invalidations = (0..spec.nodes)
        .map(|i| sim.driver(i).state().invalidation_count())
        .sum();
    WorkloadRun {
        messages: sim.messages().snapshot().total(),
        bytes: sim.bytes().snapshot().total(),
        invalidations,
        time: report.time,
    }
}

/// A1 — Figure-4-exact vs writer-side invalidation, on a mixed workload.
#[must_use]
pub fn invalidation_mode_ablation(spec: &WorkloadSpec) -> [(InvalidationMode, WorkloadRun); 2] {
    [
        (
            InvalidationMode::PaperExact,
            run_causal_workload(spec, |c| c.invalidation(InvalidationMode::PaperExact)),
        ),
        (
            InvalidationMode::WriterInvalidate,
            run_causal_workload(spec, |c| c.invalidation(InvalidationMode::WriterInvalidate)),
        ),
    ]
}

/// A2 — page-size sweep on a scan-plus-writers workload: larger pages
/// amortise fetches (fewer messages) but cost bytes and false-sharing
/// invalidations.
#[must_use]
pub fn page_size_ablation(page_sizes: &[u32]) -> Vec<(u32, WorkloadRun)> {
    const NODES: u32 = 4;
    const LOCATIONS: u32 = 64;
    page_sizes
        .iter()
        .map(|&page_size| {
            let config = CausalConfig::<Word>::builder(NODES, LOCATIONS)
                .page_size(page_size)
                .build();
            let mut sim = causal_sim(&config, SimOpts::default());
            // Nodes 0..2 scan the whole namespace twice (sequential reads:
            // the page-friendly pattern); nodes 2..4 write into their own
            // partitions between scans (false sharing for big pages).
            for reader in 0..2 {
                let ops: Vec<ClientOp<Word>> = (0..2 * LOCATIONS)
                    .map(|i| ClientOp::Read(Location::new(i % LOCATIONS)))
                    .collect();
                sim.set_client(reader, Script::new(ops));
            }
            for writer in 2..4usize {
                let ops: Vec<ClientOp<Word>> = (0..32)
                    .map(|i| {
                        // Round-robin page ownership: stay in our pages.
                        let page = (writer as u32 + NODES * (i % 4)) % (LOCATIONS / page_size);
                        let loc = page * page_size + (i % page_size);
                        ClientOp::Write(Location::new(loc), Word::Int(i64::from(i) + 1))
                    })
                    .collect();
                sim.set_client(writer, Script::new(ops));
            }
            let report = sim.run(RunLimits::default());
            assert!(report.all_done);
            let invalidations = (0..NODES as usize)
                .map(|i| sim.driver(i).state().invalidation_count())
                .sum();
            (
                page_size,
                WorkloadRun {
                    messages: sim.messages().snapshot().total(),
                    bytes: sim.bytes().snapshot().total(),
                    invalidations,
                    time: report.time,
                },
            )
        })
        .collect()
}

/// A3 — the footnote-2 enhancement: marking the solver's `A`/`b` constant
/// removes their re-fetch traffic. Returns (with, without) total messages.
#[must_use]
pub fn const_segments_ablation(n: usize, phases: usize) -> (u64, u64) {
    let system = LinearSystem::random(n, 91);
    let total = |const_ab: bool| {
        let run = run_causal_solver_sim(
            &system,
            &SolverSimConfig {
                workers: n,
                phases,
                const_ab,
                ..SolverSimConfig::default()
            },
        );
        assert!(run.all_done);
        run.messages.total()
    };
    (total(true), total(false))
}

/// A4a — ideal signaling vs honest polling for the solver's waits.
/// Returns (ideal, poll) total messages for the same solve.
#[must_use]
pub fn wait_mode_ablation(n: usize, phases: usize, poll_interval: u64) -> (u64, u64) {
    let system = LinearSystem::random(n, 92);
    let total = |wait_mode: WaitMode| {
        let run = run_causal_solver_sim(
            &system,
            &SolverSimConfig {
                workers: n,
                phases,
                wait_mode,
                ..SolverSimConfig::default()
            },
        );
        assert!(run.all_done);
        run.messages.total()
    };
    (
        total(WaitMode::IdealSignal),
        total(WaitMode::Poll {
            interval: poll_interval,
        }),
    )
}

/// A4b — atomic invalidation accounting: fire-and-forget (the paper's
/// count) vs acknowledged (properly atomic). Returns (fire-and-forget,
/// acknowledged) totals.
#[must_use]
pub fn ack_mode_ablation(n: usize, phases: usize) -> (u64, u64) {
    let system = LinearSystem::random(n, 93);
    let total = |mode: InvalMode| {
        let run = run_atomic_solver_sim(
            &system,
            &SolverSimConfig {
                workers: n,
                phases,
                ..SolverSimConfig::default()
            },
            mode,
        );
        assert!(run.all_done);
        run.messages.total()
    };
    (
        total(InvalMode::FireAndForget),
        total(InvalMode::Acknowledged),
    )
}

/// Renders the ablation summary for the repro harness.
#[must_use]
pub fn render_ablations() -> String {
    let mut out = String::new();

    let spec = WorkloadSpec {
        nodes: 4,
        locations_per_node: 8,
        ops_per_node: 200,
        read_ratio: 0.7,
        locality: 0.3,
        seed: 5,
    };
    let _ = writeln!(out, "A1  invalidation mode (mixed workload, 4 nodes):");
    for (mode, run) in invalidation_mode_ablation(&spec) {
        let _ = writeln!(
            out,
            "      {mode:?}: {} msgs, {} invalidations",
            run.messages, run.invalidations
        );
    }

    let _ = writeln!(out, "A2  page size (2 scanners + 2 writers, 64 locations):");
    for (size, run) in page_size_ablation(&[1, 2, 4, 8, 16]) {
        let _ = writeln!(
            out,
            "      page={size:>2}: {:>5} msgs, {:>7} bytes, {:>4} invalidations",
            run.messages, run.bytes, run.invalidations
        );
    }

    let (with_const, without_const) = const_segments_ablation(4, 6);
    let _ = writeln!(
        out,
        "A3  const A/b (solver n=4, 6 phases): {with_const} msgs with, {without_const} without"
    );

    let (ideal, poll) = wait_mode_ablation(4, 6, 2);
    let _ = writeln!(
        out,
        "A4a wait mode (solver n=4, 6 phases): {ideal} msgs ideal-signal, {poll} polling"
    );

    let (ff, acked) = ack_mode_ablation(4, 6);
    let _ = writeln!(
        out,
        "A4b atomic inval acks (solver n=4, 6 phases): {ff} msgs fire-and-forget, {acked} acknowledged"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_invalidate_never_reduces_invalidations() {
        let spec = WorkloadSpec {
            nodes: 3,
            locations_per_node: 4,
            ops_per_node: 100,
            read_ratio: 0.6,
            locality: 0.2,
            seed: 9,
        };
        let [(_, exact), (_, writer)] = invalidation_mode_ablation(&spec);
        assert!(writer.invalidations >= exact.invalidations);
    }

    #[test]
    fn bigger_pages_trade_messages_for_payload() {
        let rows = page_size_ablation(&[1, 8]);
        // Fewer fetch messages for the scan-dominated mix...
        assert!(rows[1].1.messages < rows[0].1.messages);
        // ...but each message carries more bytes.
        let avg = |r: &WorkloadRun| r.bytes as f64 / r.messages as f64;
        assert!(avg(&rows[1].1) > avg(&rows[0].1));
    }

    #[test]
    fn const_marking_saves_messages() {
        let (with_const, without_const) = const_segments_ablation(3, 4);
        assert!(with_const < without_const);
    }

    #[test]
    fn polling_costs_at_least_ideal_signaling() {
        let (ideal, poll) = wait_mode_ablation(3, 4, 2);
        assert!(poll >= ideal);
    }

    #[test]
    fn acks_cost_more_than_fire_and_forget() {
        let (ff, acked) = ack_mode_ablation(3, 4);
        assert!(acked > ff);
    }
}
