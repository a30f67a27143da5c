//! The chaos suite's acceptance run: hundreds of seeded executions under
//! random fault plans — drop rates up to 20%, partitions that heal, node
//! crash/restart — every one checked against the causal specification,
//! none allowed to wedge, and any failure reported with its reproducing
//! seed and plan. Plus: every cell of the grid replays byte-for-byte.

use causal_dsm::{CausalConfig, SyncPolicy};
use dsm_faults::{run_chaos, run_chaos_batch, ChaosConfig, Faults, Objects, Registers, Workload};
use memcore::Word;

#[test]
fn two_hundred_seeded_chaos_runs_stay_causal_and_terminate() {
    let cfg = ChaosConfig::default();
    let batch = run_chaos_batch(&Registers, Faults::Random, 0, 200, &cfg);
    assert!(batch.all_ok(), "{batch}");
    assert_eq!(batch.runs, 200);
    // The batch exercised the whole fault envelope, not a lucky corner:
    // real drop rates, at least one partition, at least one crash/restart.
    let config = CausalConfig::<Word>::builder(cfg.nodes, 6).build();
    let plans: Vec<_> = (0..200u64)
        .map(|seed| Faults::Random.plan(seed, &cfg, &config).0)
        .collect();
    assert!(plans.iter().any(|p| p.default_link.drop > 0.10));
    assert!(plans.iter().all(|p| p.default_link.drop < 0.20));
    assert!(plans.iter().any(|p| !p.partitions.is_empty()));
    assert!(plans.iter().any(|p| !p.crashes.is_empty()));
    assert!(plans
        .iter()
        .flat_map(|p| &p.partitions)
        .all(|part| part.heal > part.start));
    assert!(plans
        .iter()
        .flat_map(|p| &p.crashes)
        .all(|c| c.restart > c.start));
    // Faults made the session layer work for its living.
    assert!(batch.overhead_messages > 0);
    assert!(batch.protocol_messages > 0);
}

#[test]
fn bigger_clusters_survive_chaos_too() {
    let cfg = ChaosConfig {
        nodes: 5,
        ops_per_node: 10,
        ..ChaosConfig::default()
    };
    let batch = run_chaos_batch(&Registers, Faults::Random, 1000, 25, &cfg);
    assert!(batch.all_ok(), "{batch}");
}

/// Runs one seed twice under `cfg` and demands identical executions.
fn replays<W: Workload>(workload: &W, faults: Faults, seed: u64, cfg: &ChaosConfig)
where
    W::Value: PartialEq,
{
    let (a, b) = (
        run_chaos(workload, faults, seed, cfg),
        run_chaos(workload, faults, seed, cfg),
    );
    let cell = format!("{} {faults:?} seed {seed}", W::NAME);
    assert_eq!(a.plan, b.plan, "{cell}: plans diverged");
    assert_eq!(a.time, b.time, "{cell}: makespans diverged");
    assert_eq!(
        a.messages.by_kind(),
        b.messages.by_kind(),
        "{cell}: message counts diverged"
    );
    assert_eq!(a.ops, b.ops, "{cell}: recorded operations diverged");
    // The sampled grid point is part of the recipe.
    assert_eq!(a.pipeline_window, cfg.pipeline_window);
    assert_eq!(a.batching, cfg.batching);
}

#[test]
fn every_cell_replays_exactly() {
    let base = ChaosConfig::default();
    for seed in [0, 7, 11, 42, 123] {
        replays(&Registers, Faults::Random, seed, &base);
    }
    // Batches sample the grid per seed: the same seed must map to the
    // same grid point, and the run under it must replay byte-for-byte.
    let cells: [(Faults, &[u64]); 3] = [
        (Faults::Random, &[1, 4, 5]),
        (Faults::OwnerCrash, &[2, 3]),
        (Faults::Restart(SyncPolicy::EveryOp), &[1, 2]),
    ];
    for (faults, seeds) in cells {
        for &seed in seeds {
            replays(&Registers, faults, seed, &faults.grid(&base, seed));
        }
    }
    for (faults, seed) in [(Faults::Random, 5), (Faults::OwnerCrash, 3)] {
        replays(&Objects, faults, seed, &faults.grid(&base, seed));
    }
}

#[test]
fn the_grid_is_a_function_of_the_seed() {
    let base = ChaosConfig::default();
    for seed in 0..12u64 {
        let random = Faults::Random.grid(&base, seed);
        assert_eq!(random.pipeline_window, [0, 4, 32][(seed % 3) as usize]);
        assert_eq!(random.batching, seed % 2 == 1 && random.pipeline_window > 0);
        for faults in [Faults::OwnerCrash, Faults::Restart(SyncPolicy::EveryOp)] {
            let failover = faults.grid(&base, seed);
            assert_eq!(failover.pipeline_window, [0, 32][(seed % 2) as usize]);
            assert!(!failover.batching);
        }
    }
}
