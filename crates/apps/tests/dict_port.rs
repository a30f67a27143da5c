//! Regression pin for the §4.2 dictionary in the simulator:
//! [`dict_program`] — the shipped [`Dictionary`](dsm_apps::Dictionary)
//! run as a simulator program — must issue *exactly* the register
//! accesses of the hand-rolled dictionary client it replaced, and report
//! the same results: same workload ⇒ same per-process READ/WRITE
//! sequence, hence the same logical message bill.
//!
//! `tests/fixtures/dict_port.json` holds that client's recorded
//! behaviour (own-row first-free inserts, row-major first-match deletes
//! and lookups with early exit, flat discard sweeps) for every workload
//! and seed below: each process's `(kind, location)` stream, written
//! `R<loc>`/`W<loc>`, and the run's global `op=result` log in completion
//! order.

use std::sync::Arc;

use causal_dsm::{CausalConfig, WritePolicy};
use dsm_apps::{dict_program, DictLayout, DictOp, DictResults};
use dsm_objects::ObjVal;
use dsm_sim::{causal_sim, RunLimits, SimOpts};
use memcore::{OpKind, Recorder};
use parking_lot::Mutex;
use serde::Deserialize;
use simnet::latency::Uniform;

/// One pinned run of the replaced client.
#[derive(Debug, PartialEq, Eq, Deserialize)]
struct Pinned {
    workload: String,
    seed: u64,
    /// Per process: its READ/WRITE stream in program order.
    bills: Vec<String>,
    /// Every operation's result, in the order the processes finished
    /// them.
    log: Vec<String>,
}

fn pinned(workload: &str) -> Vec<Pinned> {
    let all: Vec<Pinned> =
        serde_json::from_str(include_str!("fixtures/dict_port.json")).expect("fixture parses");
    let runs: Vec<Pinned> = all.into_iter().filter(|p| p.workload == workload).collect();
    assert_eq!(runs.len(), 10, "fixture pins seeds 0..10 of {workload}");
    runs
}

/// Runs `scripts` as dictionary programs and renders the run the way the
/// fixture records it.
fn run(workload: &str, layout: DictLayout, scripts: &[Vec<DictOp>], seed: u64) -> Pinned {
    let recorder: Recorder<ObjVal> = Recorder::new(layout.rows());
    let config = CausalConfig::<ObjVal>::builder(layout.rows() as u32, layout.locations())
        .owners(layout.owners())
        .policy(WritePolicy::OwnerFavored)
        .build();
    let mut sim = causal_sim(
        &config,
        SimOpts {
            latency: Box::new(Uniform::new(1, 12)),
            seed,
            recorder: Some(recorder.clone()),
            ..SimOpts::default()
        },
    );
    let shared: DictResults = Arc::new(Mutex::new(Vec::new()));
    for (row, script) in scripts.iter().enumerate() {
        sim.set_client(
            row,
            dict_program(layout, row, script.clone(), shared.clone()),
        );
    }
    let report = sim.run(RunLimits::default());
    assert!(report.all_done, "dictionary run wedged: {report:?}");
    let bills = recorder
        .processes()
        .iter()
        .map(|ops| {
            let accesses: Vec<String> = ops
                .iter()
                .map(|op| {
                    let kind = if op.kind == OpKind::Read { 'R' } else { 'W' };
                    format!("{kind}{}", op.loc.index())
                })
                .collect();
            accesses.join(" ")
        })
        .collect();
    let log = shared
        .lock()
        .iter()
        .map(|(op, ok)| format!("{op:?}={ok}"))
        .collect();
    Pinned {
        workload: workload.to_owned(),
        seed,
        bills,
        log,
    }
}

fn workload() -> Vec<Vec<DictOp>> {
    vec![
        vec![
            DictOp::Insert(1),
            DictOp::Insert(2),
            DictOp::Lookup(20),
            DictOp::Delete(1),
            DictOp::Refresh,
            DictOp::Lookup(30),
            DictOp::Insert(3),
        ],
        vec![
            DictOp::Insert(10),
            DictOp::Refresh,
            DictOp::Delete(2),
            DictOp::Insert(20),
            DictOp::Lookup(1),
            DictOp::Refresh,
        ],
        vec![
            DictOp::Insert(30),
            DictOp::Refresh,
            DictOp::Lookup(10),
            DictOp::Delete(30),
            DictOp::Insert(31),
            DictOp::Lookup(31),
        ],
    ]
}

#[test]
fn ported_dictionary_pays_the_same_message_bill() {
    let layout = DictLayout::new(3, 6);
    let scripts = workload();
    for want in pinned("basic") {
        let got = run("basic", layout, &scripts, want.seed);
        assert_eq!(
            got, want,
            "seed {}: the dictionary diverged from the hand-rolled client",
            want.seed
        );
    }
}

#[test]
fn ported_dictionary_pays_the_same_bill_under_contention() {
    // The §4.2 conflict shape: deletes racing the owner's re-inserts of
    // the same item, where scan early-exits depend on observed values.
    let layout = DictLayout::new(3, 2);
    let scripts = vec![
        vec![DictOp::Insert(7), DictOp::Delete(7), DictOp::Insert(7)],
        vec![DictOp::Refresh, DictOp::Delete(7)],
        vec![DictOp::Refresh, DictOp::Delete(7)],
    ];
    for want in pinned("contention") {
        let got = run("contention", layout, &scripts, want.seed);
        assert_eq!(
            got, want,
            "seed {}: contention bill diverged from the hand-rolled client",
            want.seed
        );
    }
}
