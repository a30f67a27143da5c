//! E4 — the central correctness property: **every** execution the
//! Figure-4 owner protocol produces satisfies Definition 2, across random
//! workloads, schedules, latencies, page sizes, cache pressures,
//! invalidation modes and write policies. The atomic baseline (with
//! acknowledged invalidation) must satisfy it too — atomic memory is
//! causal memory.

use causalmem::atomic::{AtomicConfig, InvalMode};
use causalmem::causal::{CausalConfig, InvalidationMode, WritePolicy};
use causalmem::sim::{atomic_sim, causal_sim, ClientOp, RunLimits, Script, SimOpts};
use causalmem::simnet::latency::Uniform;
use causalmem::spec::{check_causal, check_sessions, Execution};
use memcore::{Location, Recorder, Word};
use proptest::prelude::*;

/// A random per-node operation script over a small namespace. Values are
/// made unique by a global counter so reads-from is unambiguous.
fn scripts_strategy(
    nodes: usize,
    locations: u32,
    ops_per_node: usize,
) -> impl Strategy<Value = Vec<Vec<ClientOp<Word>>>> {
    let op = (0u8..5, 0..locations);
    proptest::collection::vec(
        proptest::collection::vec(op, 1..=ops_per_node),
        nodes..=nodes,
    )
    .prop_map(move |raw| {
        let mut counter = 0i64;
        raw.into_iter()
            .map(|ops| {
                ops.into_iter()
                    .map(|(kind, loc)| {
                        let loc = Location::new(loc);
                        match kind {
                            0 => ClientOp::Read(loc),
                            1 => ClientOp::ReadFresh(loc),
                            2 => ClientOp::Discard(loc),
                            // Writes block: a raw non-blocking write
                            // forfeits general causal correctness, and
                            // none exists (see docs/PROTOCOL.md).
                            _ => {
                                counter += 1;
                                ClientOp::Write(loc, Word::Int(counter))
                            }
                        }
                    })
                    .collect()
            })
            .collect()
    })
}

fn run_causal_case(
    scripts: Vec<Vec<ClientOp<Word>>>,
    locations: u32,
    seed: u64,
    invalidation: InvalidationMode,
    policy: WritePolicy,
    page_size: u32,
    cache_capacity: Option<usize>,
) -> Result<(), TestCaseError> {
    let nodes = scripts.len() as u32;
    let recorder: Recorder<Word> = Recorder::new(nodes as usize);
    let mut builder = CausalConfig::<Word>::builder(nodes, locations)
        .page_size(page_size)
        .invalidation(invalidation)
        .policy(policy);
    if let Some(cap) = cache_capacity {
        builder = builder.cache_capacity(cap);
    }
    let config = builder.build();
    let mut sim = causal_sim(
        &config,
        SimOpts {
            latency: Box::new(Uniform::new(1, 16)),
            seed,
            recorder: Some(recorder.clone()),
            ..SimOpts::default()
        },
    );
    for (node, script) in scripts.into_iter().enumerate() {
        sim.set_client(node, Script::new(script));
    }
    let report = sim.run(RunLimits::default());
    prop_assert!(report.all_done, "simulation stuck: {report:?}");

    let exec = Execution::from_recorder(&recorder);
    let verdict = check_causal(&exec).expect("well formed execution");
    prop_assert!(
        verdict.is_correct(),
        "owner protocol violated Definition 2 (seed {seed}, {invalidation:?}, \
         {policy:?}, page {page_size}, cache {cache_capacity:?}):\n{verdict}"
    );

    Ok(())
}

/// Per-node scripts that only write locations the node owns (round-robin:
/// location `node + k·nodes`) — the single-writer discipline both §4
/// applications follow.
fn single_writer_scripts(
    nodes: usize,
    slots_per_node: u32,
    ops_per_node: usize,
) -> impl Strategy<Value = Vec<Vec<ClientOp<Word>>>> {
    let op = (0u8..5, 0..slots_per_node);
    proptest::collection::vec(
        proptest::collection::vec(op, 1..=ops_per_node),
        nodes..=nodes,
    )
    .prop_map(move |raw| {
        let mut counter = 0i64;
        raw.into_iter()
            .enumerate()
            .map(|(node, ops)| {
                ops.into_iter()
                    .map(|(kind, slot)| {
                        let own = Location::new(node as u32 + slot * nodes as u32);
                        let other =
                            Location::new(((node + 1) % nodes) as u32 + slot * nodes as u32);
                        match kind {
                            0 => ClientOp::Read(own),
                            1 => ClientOp::Read(other),
                            2 => ClientOp::ReadFresh(other),
                            _ => {
                                counter += 1;
                                ClientOp::Write(own, Word::Int(counter))
                            }
                        }
                    })
                    .collect()
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Paper-exact protocol, page size 1.
    #[test]
    fn causal_protocol_satisfies_definition2(
        scripts in scripts_strategy(3, 6, 14),
        seed in 0u64..1_000,
    ) {
        run_causal_case(
            scripts, 6, seed,
            InvalidationMode::PaperExact, WritePolicy::LastArrival, 1, None,
        )?;
    }

    /// Writer-side invalidation (ablation A1) stays correct.
    #[test]
    fn writer_invalidate_mode_satisfies_definition2(
        scripts in scripts_strategy(3, 6, 12),
        seed in 0u64..1_000,
    ) {
        run_causal_case(
            scripts, 6, seed,
            InvalidationMode::WriterInvalidate, WritePolicy::LastArrival, 1, None,
        )?;
    }

    /// Owner-favored resolution rejects some writes but never breaks
    /// causal correctness.
    #[test]
    fn owner_favored_policy_satisfies_definition2(
        scripts in scripts_strategy(3, 6, 12),
        seed in 0u64..1_000,
    ) {
        run_causal_case(
            scripts, 6, seed,
            InvalidationMode::PaperExact, WritePolicy::OwnerFavored, 1, None,
        )?;
    }

    /// Page granularity (the §3.2 enhancement) stays correct.
    #[test]
    fn paged_protocol_satisfies_definition2(
        scripts in scripts_strategy(3, 8, 12),
        seed in 0u64..1_000,
        page_size in prop_oneof![Just(2u32), Just(4u32)],
    ) {
        run_causal_case(
            scripts, 8, seed,
            InvalidationMode::PaperExact, WritePolicy::LastArrival, page_size, None,
        )?;
    }

    /// Severe cache pressure (capacity 1: constant discarding) stays
    /// correct — the paper's `discard` may run "under a variety of
    /// circumstances".
    #[test]
    fn tiny_cache_satisfies_definition2(
        scripts in scripts_strategy(3, 6, 12),
        seed in 0u64..1_000,
    ) {
        run_causal_case(
            scripts, 6, seed,
            InvalidationMode::PaperExact, WritePolicy::LastArrival, 1, Some(1),
        )?;
    }

    /// With a single writer per location (the discipline both §4
    /// applications follow), the protocol additionally provides
    /// read-your-writes and monotonic reads — the session guarantees that
    /// concurrent conflicting writes necessarily forfeit.
    #[test]
    fn single_writer_workloads_get_session_guarantees(
        scripts in single_writer_scripts(3, 2, 14),
        seed in 0u64..1_000,
    ) {
        let nodes = scripts.len() as u32;
        let recorder: Recorder<Word> = Recorder::new(nodes as usize);
        let config = CausalConfig::<Word>::builder(nodes, 6).build();
        let mut sim = causal_sim(
            &config,
            SimOpts {
                latency: Box::new(Uniform::new(1, 16)),
                seed,
                recorder: Some(recorder.clone()),
                ..SimOpts::default()
            },
        );
        for (node, script) in scripts.into_iter().enumerate() {
            sim.set_client(node, Script::new(script));
        }
        let report = sim.run(RunLimits::default());
        prop_assert!(report.all_done, "simulation stuck: {report:?}");
        let exec = Execution::from_recorder(&recorder);
        prop_assert!(check_causal(&exec).expect("well formed").is_correct());
        let sessions = check_sessions(&exec).expect("well formed");
        prop_assert!(
            sessions.is_empty(),
            "session guarantee broken (seed {seed}): {sessions:?}"
        );
    }

    /// Atomic memory (acknowledged invalidation) is causal memory too:
    /// its executions satisfy the weaker Definition 2 as well.
    #[test]
    fn acknowledged_atomic_satisfies_definition2(
        scripts in scripts_strategy(3, 6, 12),
        seed in 0u64..1_000,
    ) {
        let nodes = scripts.len() as u32;
        let recorder: Recorder<Word> = Recorder::new(nodes as usize);
        let config = AtomicConfig::<Word>::builder(nodes, 6)
            .inval_mode(InvalMode::Acknowledged)
            .build();
        let mut sim = atomic_sim(
            &config,
            SimOpts {
                latency: Box::new(Uniform::new(1, 16)),
                seed,
                recorder: Some(recorder.clone()),
                ..SimOpts::default()
            },
        );
        for (node, script) in scripts.into_iter().enumerate() {
            sim.set_client(node, Script::new(script));
        }
        let report = sim.run(RunLimits::default());
        prop_assert!(report.all_done, "simulation stuck: {report:?}");
        let exec = Execution::from_recorder(&recorder);
        let verdict = check_causal(&exec).expect("well formed");
        prop_assert!(verdict.is_correct(), "seed {seed}:\n{verdict}");
    }
}
