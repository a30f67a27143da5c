//! E4, strongest form — exhaustive schedule enumeration through the
//! public facade: every interleaving of small program shapes satisfies
//! Definition 2, on both the causal protocol and the atomic baseline.

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
