//! The CI chaos grid's totals, pinned: every default `smoke` cell must
//! keep its run count, failure count and protocol / overhead message
//! totals. The simulator is deterministic per seed, so a moved total
//! means the protocol, the session layer, a workload's programs or the
//! fault injector changed what goes on the wire.
//!
//! The fixture `tests/fixtures/grid_totals.json` was recorded from
//! `smoke`'s output.

use dsm_faults::{
    run_chaos_batch, ChaosBatch, ChaosConfig, Objects, Registers, FAULT_FAMILIES, GRID,
};
use memcore::Value;
use serde::Deserialize;

/// One cell's totals, as `smoke` prints them.
#[derive(Debug, PartialEq, Eq, Deserialize)]
struct Cell {
    workload: String,
    faults: String,
    runs: usize,
    failures: usize,
    protocol_msgs: u64,
    overhead_msgs: u64,
}

fn cell<V: Value>(workload: &str, faults: &str, batch: &ChaosBatch<V>) -> Cell {
    Cell {
        workload: workload.to_owned(),
        faults: faults.to_owned(),
        runs: batch.runs,
        failures: batch.failures.len(),
        protocol_msgs: batch.protocol_messages,
        overhead_msgs: batch.overhead_messages,
    }
}

#[test]
fn default_grid_totals_match_the_fixture() {
    let pinned: Vec<Cell> =
        serde_json::from_str(include_str!("fixtures/grid_totals.json")).expect("fixture parses");
    let cfg = ChaosConfig::default();
    let measured: Vec<Cell> = GRID
        .iter()
        .map(|&(workload, faults, runs)| {
            let (_, family) = FAULT_FAMILIES
                .into_iter()
                .find(|(name, _)| *name == faults)
                .expect("grid names a known fault family");
            match workload {
                "registers" => cell(
                    workload,
                    faults,
                    &run_chaos_batch(&Registers, family, 0, runs, &cfg),
                ),
                "objects" => cell(
                    workload,
                    faults,
                    &run_chaos_batch(&Objects, family, 0, runs, &cfg),
                ),
                other => panic!("grid names an unknown workload {other}"),
            }
        })
        .collect();
    assert_eq!(measured, pinned, "a chaos grid total moved");
}
