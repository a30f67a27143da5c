//! Message-count equality fixtures: the hot-path optimizations are
//! allowed to change *cost per message*, never *number of messages*.
//!
//! The deterministic simulator makes this checkable bit-for-bit: for a
//! fixed seed, the Figure-6 solver and the chaos workload send exactly
//! the same per-kind message counts on every run. This test pins those
//! counts in `tests/fixtures/msg_counts.json` (captured on the pre-PR
//! protocol) and fails if any engine change alters them.
//!
//! Regenerate intentionally with:
//!
//! ```text
//! UPDATE_FIXTURES=1 cargo test -p dsm-bench --test msg_fixtures
//! ```

use std::collections::BTreeMap;

use dsm_apps::{run_causal_solver_sim, LinearSystem, SolverSimConfig};
use dsm_faults::{run_chaos, ChaosConfig, Faults, Registers};
use serde::{Deserialize, Serialize};

/// One pinned scenario: its identity and its per-kind message bill.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
struct Fixture {
    scenario: String,
    seed: u64,
    protocol_msgs: u64,
    overhead_msgs: u64,
    by_kind: BTreeMap<String, u64>,
}

const FIXTURE_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/msg_counts.json"
);

/// The Figure-6 solver seeds pinned by the fixture (the perf suite's
/// quick-mode seeds plus one more).
const SOLVER_SEEDS: [u64; 3] = [0xC0FFEE, 0x5EED, 7];

/// The `registers` × `random` chaos seeds pinned by the fixture.
const CHAOS_SEEDS: [u64; 3] = [1, 2, 3];

fn solver_fixture(seed: u64) -> Fixture {
    let system = LinearSystem::random(4, seed);
    let run = run_causal_solver_sim(
        &system,
        &SolverSimConfig {
            workers: 4,
            phases: 8,
            seed,
            ..SolverSimConfig::default()
        },
    );
    assert!(run.all_done, "solver sim wedged at seed {seed:#x}");
    Fixture {
        scenario: "figure6_solver_sim".to_owned(),
        seed,
        protocol_msgs: run.messages.protocol_total(),
        overhead_msgs: run.messages.overhead_total(),
        by_kind: run.messages.by_kind(),
    }
}

fn chaos_fixture(seed: u64) -> Fixture {
    let outcome = run_chaos(&Registers, Faults::Random, seed, &ChaosConfig::default());
    assert!(
        outcome.ok(),
        "chaos run at seed {seed} violated the causal spec: {:?}",
        outcome.violations
    );
    Fixture {
        scenario: "chaos_smoke".to_owned(),
        seed,
        protocol_msgs: outcome.messages.protocol_total(),
        overhead_msgs: outcome.messages.overhead_total(),
        by_kind: outcome.messages.by_kind(),
    }
}

fn current_fixtures() -> Vec<Fixture> {
    let mut out = Vec::new();
    for &seed in &SOLVER_SEEDS {
        out.push(solver_fixture(seed));
    }
    for &seed in &CHAOS_SEEDS {
        out.push(chaos_fixture(seed));
    }
    out
}

#[test]
fn message_counts_match_pinned_fixtures() {
    let current = current_fixtures();

    if std::env::var("UPDATE_FIXTURES").is_ok() {
        let text = serde_json::to_string_pretty(&current).expect("serialize fixtures");
        std::fs::write(FIXTURE_PATH, text + "\n").expect("write fixtures");
        eprintln!("updated {FIXTURE_PATH}");
        return;
    }

    let text = std::fs::read_to_string(FIXTURE_PATH).unwrap_or_else(|e| {
        panic!(
            "missing {FIXTURE_PATH} ({e}); generate it with \
             UPDATE_FIXTURES=1 cargo test -p dsm-bench --test msg_fixtures"
        )
    });
    let pinned: Vec<Fixture> = serde_json::from_str(&text).expect("parse fixtures");

    assert_eq!(
        pinned.len(),
        current.len(),
        "fixture count drifted — regenerate intentionally with UPDATE_FIXTURES=1"
    );
    for (want, got) in pinned.iter().zip(&current) {
        assert_eq!(
            want, got,
            "message bill changed for {} seed {:#x} — hot-path changes must \
             not alter protocol traffic; if the protocol itself changed on \
             purpose, regenerate with UPDATE_FIXTURES=1",
            want.scenario, want.seed
        );
    }
}

#[test]
fn solver_sim_is_deterministic() {
    // The fixture methodology rests on this: same seed, same bill.
    let a = solver_fixture(0xC0FFEE);
    let b = solver_fixture(0xC0FFEE);
    assert_eq!(a, b);
}
