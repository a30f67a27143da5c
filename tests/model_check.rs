//! E4, strongest form — exhaustive schedule enumeration through the
//! public facade: every interleaving of small program shapes satisfies
//! Definition 2, on the causal protocol (blocking, and through a batched
//! pipeline window) and on the atomic baseline. Where a case pins its
//! `(schedules, states)`, a moved count means the drivers' choice points
//! moved.

use causalmem::atomic::{AtomicConfig, InvalMode};
use causalmem::causal::{CausalConfig, WritePolicy};
use causalmem::sim::{explore_atomic, explore_causal, ClientOp};
use memcore::{Location, Word};

fn loc(i: u32) -> Location {
    Location::new(i)
}

#[test]
fn every_schedule_of_the_figure3_core_is_causal() {
    let config = CausalConfig::<Word>::builder(3, 3).build();
    let scripts = vec![
        vec![ClientOp::Write(loc(0), Word::Int(5))],
        vec![
            ClientOp::ReadFresh(loc(0)),
            ClientOp::Write(loc(2), Word::Int(4)),
        ],
        vec![ClientOp::ReadFresh(loc(2)), ClientOp::ReadFresh(loc(0))],
    ];
    let report = explore_causal(&config, &scripts, 5_000_000);
    assert!(report.complete);
    assert!(report.schedules >= 2310, "got {}", report.schedules);
    assert!(report.all_correct());
}

#[test]
fn every_schedule_under_owner_favored_policy_is_causal() {
    // Concurrent remote writes against an owner write, all orders.
    let config = CausalConfig::<Word>::builder(2, 2)
        .policy(WritePolicy::OwnerFavored)
        .build();
    let scripts = vec![
        vec![
            ClientOp::Write(loc(0), Word::Int(1)),
            ClientOp::Read(loc(0)),
        ],
        vec![
            ClientOp::Write(loc(0), Word::Int(2)),
            ClientOp::ReadFresh(loc(0)),
        ],
    ];
    let report = explore_causal(&config, &scripts, 1_000_000);
    assert!(report.complete);
    assert!(
        report.all_correct(),
        "violation: {:?}",
        report.violation.map(|(_, v)| v)
    );
}

#[test]
fn every_schedule_of_paged_programs_is_causal() {
    // Page size 2: two locations share a page; all orders of mixed access.
    let config = CausalConfig::<Word>::builder(2, 4).page_size(2).build();
    let scripts = vec![
        vec![
            ClientOp::Write(loc(0), Word::Int(1)),
            ClientOp::ReadFresh(loc(2)),
        ],
        vec![
            ClientOp::Write(loc(2), Word::Int(2)),
            ClientOp::ReadFresh(loc(1)),
        ],
    ];
    let report = explore_causal(&config, &scripts, 1_000_000);
    assert!(report.complete);
    assert!(
        report.all_correct(),
        "violation: {:?}",
        report.violation.map(|(_, v)| v)
    );
}

#[test]
fn every_atomic_schedule_is_causal() {
    let config = AtomicConfig::<Word>::builder(2, 2)
        .inval_mode(InvalMode::Acknowledged)
        .build();
    let scripts = vec![
        vec![
            ClientOp::Write(loc(1), Word::Int(1)),
            ClientOp::ReadFresh(loc(1)),
        ],
        vec![
            ClientOp::Write(loc(1), Word::Int(2)),
            ClientOp::Read(loc(0)),
        ],
    ];
    let report = explore_atomic(&config, &scripts, 1_000_000);
    assert!(report.complete);
    // The same count the simulator's own atomic actor explored before the
    // shipped `AtomicDriver` replaced it: same completion points.
    assert_eq!((report.schedules, report.states), (106, 498));
    assert!(
        report.all_correct(),
        "violation: {:?}",
        report.violation.map(|(_, v)| v)
    );
}

/// The hazard shape: P2 writes x0 (owned by P0) and then its own x2; P1
/// reads x2 fresh, absorbing the existence of P2's write of x0, then
/// reads x0 fresh. A write that completes before its owner certified it
/// and lets the writer's next operation export its increment hands P1,
/// in some schedule, the initial x0 while P1 provably knows of its
/// overwrite: certification before knowledge export is load-bearing.
fn hazard_shape() -> Vec<Vec<ClientOp<Word>>> {
    vec![
        vec![],
        vec![ClientOp::ReadFresh(loc(2)), ClientOp::ReadFresh(loc(0))],
        vec![
            ClientOp::Write(loc(0), Word::Int(9)),
            ClientOp::Write(loc(2), Word::Int(7)),
        ],
    ]
}

#[test]
fn every_schedule_of_the_hazard_shape_is_causal_with_blocking_writes() {
    let config = CausalConfig::<Word>::builder(3, 3).build();
    let report = explore_causal(&config, &hazard_shape(), 2_000_000);
    assert!(report.complete);
    assert_eq!((report.schedules, report.states), (210, 791));
    assert!(
        report.all_correct(),
        "violation: {:?}",
        report.violation.map(|(_, v)| v)
    );
}

#[test]
fn every_schedule_of_the_hazard_shape_through_a_batched_window_is_causal() {
    // Window 2 with batching: P2's write of x0 completes at issue, and
    // the drain gate holds back its owner-local write of x2 — which would
    // export the uncertified increment — until P0's reply is absorbed.
    let config = CausalConfig::<Word>::builder(3, 3)
        .pipeline_window(2)
        .batching(true)
        .build();
    let report = explore_causal(&config, &hazard_shape(), 2_000_000);
    assert!(report.complete);
    assert_eq!((report.schedules, report.states), (630, 2219));
    assert!(
        report.all_correct(),
        "violation: {:?}",
        report.violation.map(|(_, v)| v)
    );
}
