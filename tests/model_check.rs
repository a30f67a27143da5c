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

/// An owner-favored rejection introduces a value. P0 owns x0 and x2 and
/// writes both locally, x2 first. P1 caches the initial x2, then writes
/// x0; when P0's write of x0 is already installed the owner rejects P1's
/// concurrent write and replies with its survivor. The survivor's stamp
/// covers P0's write of x2, so installing it must also invalidate P1's
/// initial copy of x2; otherwise P1's last read returns a value whose
/// overwrite is in its causal past.
fn owner_favored_rejection_shape(flush: bool) -> Vec<Vec<ClientOp<Word>>> {
    let mut writer = vec![
        ClientOp::Read(loc(2)),
        ClientOp::Write(loc(0), Word::Int(3)),
    ];
    if flush {
        writer.push(ClientOp::Flush);
    }
    writer.extend([ClientOp::Read(loc(0)), ClientOp::Read(loc(2))]);
    vec![
        vec![
            ClientOp::Write(loc(2), Word::Int(1)),
            ClientOp::Write(loc(0), Word::Int(2)),
        ],
        writer,
    ]
}

#[test]
fn every_schedule_of_a_blocking_owner_favored_rejection_is_causal() {
    let config = CausalConfig::<Word>::builder(2, 3)
        .policy(WritePolicy::OwnerFavored)
        .build();
    let report = explore_causal(&config, &owner_favored_rejection_shape(false), 1_000_000);
    assert!(
        report.all_correct(),
        "violation: {:?}",
        report.violation.map(|(_, v)| v)
    );
    assert!(report.complete);
    assert_eq!((report.schedules, report.states), (45, 249));
}

#[test]
fn every_schedule_of_a_pipelined_owner_favored_rejection_is_causal() {
    // The write completes at issue and the `Flush` absorbs its reply, so
    // the rejection reaches the pipelined repair instead.
    for window in [1, 4] {
        let config = CausalConfig::<Word>::builder(2, 3)
            .policy(WritePolicy::OwnerFavored)
            .pipeline_window(window)
            .build();
        let report = explore_causal(&config, &owner_favored_rejection_shape(true), 1_000_000);
        assert!(
            report.all_correct(),
            "window {window}: violation: {:?}",
            report.violation.map(|(_, v)| v)
        );
        assert!(report.complete);
        assert_eq!(
            (report.schedules, report.states),
            (165, 921),
            "window {window}"
        );
    }
}
