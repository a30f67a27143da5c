//! Owner-crash chaos at scale: 200 seeded runs in which a page's static
//! owner fail-stops permanently mid-run, with owner failover as the
//! survival mechanism and the causal checker as oracle — and the
//! restart-from-WAL witnesses a wrong silence clock used to break.
//!
//! Each seed samples its own crash instant, victim page, background drop
//! rate and pipeline window ([`Faults::grid`] alternates `{0, 32}` under
//! failover, so writes-in-flight-during-migration are exercised both in
//! the paper's blocking protocol and under deep pipelining). Any failure
//! prints the seed + fault plan that reproduce it exactly.

use causal_dsm::{CausalConfig, SyncPolicy};
use dsm_faults::{run_chaos, run_chaos_batch, ChaosConfig, Faults, Objects, Registers};
use memcore::Word;

#[test]
fn two_hundred_owner_crash_runs_stay_causal() {
    let batch = run_chaos_batch(
        &Registers,
        Faults::OwnerCrash,
        0,
        200,
        &ChaosConfig::default(),
    );
    assert_eq!(batch.runs, 200);
    assert!(batch.all_ok(), "{batch}");
    // Failover is genuinely on across the batch: liveness probes and at
    // least one migration broadcast are visible in the overhead counters.
    assert!(batch.overhead_messages > 0);
}

#[test]
fn owner_crash_plans_are_pure_functions_of_the_seed() {
    let cfg = ChaosConfig::default();
    let config = CausalConfig::<Word>::builder(cfg.nodes, 6).build();
    for seed in 0..50 {
        let (a, victim_a) = Faults::OwnerCrash.plan(seed, &cfg, &config);
        let (b, victim_b) = Faults::OwnerCrash.plan(seed, &cfg, &config);
        assert_eq!(a, b);
        assert_eq!(victim_a, victim_b);
        // The centerpiece crash is permanent and lands in the scheduled
        // window, so the victim serves first and dies mid-run.
        let crash = a.crashes.last().expect("plan has a crash");
        assert_eq!(crash.restart, u64::MAX);
        assert!(crash.start >= cfg.horizon / 4 && crash.start < cfg.horizon / 2);
        assert_eq!(Some(crash.node as usize), victim_a);
    }
}

#[test]
fn wedge_detection_still_works_under_failover() {
    // A degenerate budget must be reported as a wedge, not a pass — the
    // owner-crash judge may not weaken the termination check.
    let mut cfg = ChaosConfig::default();
    cfg.limits.max_events = 50;
    let outcome = run_chaos(
        &Registers,
        Faults::OwnerCrash,
        0,
        &Faults::OwnerCrash.grid(&cfg, 0),
    );
    assert!(outcome.wedged);
    assert!(!outcome.ok());
}

#[test]
fn recovered_owners_do_not_suspect_live_peers() {
    // A life rebuilt from the WAL at time T used to count its peers
    // silent since time 0, suspect every one of them on its first check,
    // and let a successor serve w_init for a live owner's page (seed 1:
    // `read P2[85] returned w_init(x12) but α = {w1#0}`).
    let faults = Faults::Restart(SyncPolicy::EveryOp);
    for (seed, window) in [(1, 32), (14, 0)] {
        let cfg = faults.grid(&ChaosConfig::default(), seed);
        assert_eq!(cfg.pipeline_window, window);
        let outcome = run_chaos(&Objects, faults, seed, &cfg);
        assert!(outcome.ok(), "{outcome}");
    }
}
