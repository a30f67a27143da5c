//! Exhaustive schedule exploration — a small-model checker for the causal
//! owner protocol.
//!
//! Where the [`Sim`](crate::Sim) scheduler samples one schedule per seed,
//! the explorer enumerates **every** interleaving of client steps and
//! message deliveries (respecting per-link FIFO) for small scripted
//! programs, records the execution each schedule produces, and checks it
//! against Definition 2. A passing [`explore_causal`] run is a proof, not
//! a sample, that the protocol is causally correct for that program shape
//! — the strongest form of the E4 experiment.

use std::collections::{BTreeMap, VecDeque};

use atomic_dsm::AtomicConfig;
use causal_dsm::{CausalConfig, EffectsOf};
use causal_spec::{check_causal, Execution};
use memcore::{NodeId, OpRecord, Value};

use crate::client::ClientOp;
use crate::driver::SimDriver;
use crate::run::{atomic_drivers, causal_drivers};
use crate::sched::{completion, submission};

/// The result of exploring every schedule of one program.
#[derive(Clone, Debug)]
pub struct ExploreReport<V> {
    /// Distinct complete schedules executed.
    pub schedules: u64,
    /// Total states expanded (an explored prefix counts once).
    pub states: u64,
    /// `true` iff the state space was fully enumerated within the budget.
    pub complete: bool,
    /// The first causally incorrect execution found, if any, with the
    /// checker's description.
    pub violation: Option<(Execution<V>, String)>,
}

impl<V> ExploreReport<V> {
    /// `true` iff every explored schedule satisfied Definition 2.
    #[must_use]
    pub fn all_correct(&self) -> bool {
        self.violation.is_none()
    }
}

#[derive(Clone)]
struct ExploreState<D: SimDriver> {
    drivers: Vec<D>,
    /// In-flight messages per directed link, FIFO.
    links: BTreeMap<(u32, u32), VecDeque<D::Msg>>,
    /// Per-node script cursor.
    cursors: Vec<usize>,
    /// Nodes blocked on a reply.
    blocked: Vec<bool>,
    /// Recorded operations per node.
    records: Vec<Vec<OpRecord<D::Value>>>,
}

#[derive(Clone, Copy, Debug)]
enum Choice {
    Step(usize),
    Deliver(u32, u32),
}

/// Exhaustively explores every schedule of `scripts` on the causal owner
/// protocol under `config`, checking each complete schedule's recorded
/// execution against Definition 2.
///
/// Scripts may contain any [`ClientOp`] but `WaitUntil` (its re-read
/// policy is a scheduler concern, not a protocol one). Under a
/// `pipeline_window`, `Write` is the pipelined write, so the drain gate's
/// every interleaving is enumerated.
///
/// `max_states` bounds the search; the report says whether enumeration
/// completed. State-space size grows roughly factorially in total
/// operations — keep programs to a handful of ops per process.
///
/// # Panics
///
/// Panics if a script contains `WaitUntil`, or scripts/nodes mismatch.
#[must_use]
pub fn explore_causal<V: Value + PartialEq>(
    config: &CausalConfig<V>,
    scripts: &[Vec<ClientOp<V>>],
    max_states: u64,
) -> ExploreReport<V> {
    explore(causal_drivers(config), scripts, max_states)
}

/// [`explore_causal`], but over the atomic baseline: every schedule of an
/// atomic-DSM program must also satisfy Definition 2 (atomic memory *is*
/// causal memory).
///
/// # Panics
///
/// Panics if a script contains `WaitUntil`, or scripts/nodes mismatch.
#[must_use]
pub fn explore_atomic<V: Value + PartialEq>(
    config: &AtomicConfig<V>,
    scripts: &[Vec<ClientOp<V>>],
    max_states: u64,
) -> ExploreReport<V> {
    explore(atomic_drivers(config), scripts, max_states)
}

fn explore<D: SimDriver + Clone>(
    drivers: Vec<D>,
    scripts: &[Vec<ClientOp<D::Value>>],
    max_states: u64,
) -> ExploreReport<D::Value>
where
    D::Value: PartialEq,
{
    assert_eq!(scripts.len(), drivers.len(), "one script per node");
    for op in scripts.iter().flatten() {
        assert!(
            !matches!(op, ClientOp::WaitUntil(..)),
            "WaitUntil is not supported by the explorer"
        );
    }

    let n = drivers.len();
    let initial = ExploreState {
        drivers,
        links: BTreeMap::new(),
        cursors: vec![0; n],
        blocked: vec![false; n],
        records: vec![Vec::new(); n],
    };

    let mut report = ExploreReport {
        schedules: 0,
        states: 0,
        complete: true,
        violation: None,
    };
    let mut stack = vec![initial];
    while let Some(state) = stack.pop() {
        if report.violation.is_some() {
            break;
        }
        report.states += 1;
        if report.states > max_states {
            report.complete = false;
            break;
        }

        let choices = enumerate_choices(&state, scripts);
        if choices.is_empty() {
            // Terminal: all scripts finished (or stuck, which cannot
            // happen on a reliable network), all links drained.
            report.schedules += 1;
            let exec = Execution::from_processes(state.records.clone());
            match check_causal(&exec) {
                Ok(verdict) if verdict.is_correct() => {}
                Ok(verdict) => {
                    report.violation = Some((exec, verdict.to_string()));
                }
                Err(err) => {
                    report.violation = Some((exec, err.to_string()));
                }
            }
            continue;
        }

        for choice in choices {
            let mut next = state.clone();
            apply(&mut next, scripts, choice);
            stack.push(next);
        }
    }
    report
}

fn enumerate_choices<D: SimDriver>(
    state: &ExploreState<D>,
    scripts: &[Vec<ClientOp<D::Value>>],
) -> Vec<Choice> {
    let mut choices = Vec::new();
    for (node, script) in scripts.iter().enumerate() {
        if !state.blocked[node] && state.cursors[node] < script.len() {
            choices.push(Choice::Step(node));
        }
    }
    for (&(src, dst), queue) in &state.links {
        if !queue.is_empty() {
            choices.push(Choice::Deliver(src, dst));
        }
    }
    choices
}

fn apply<D: SimDriver>(
    state: &mut ExploreState<D>,
    scripts: &[Vec<ClientOp<D::Value>>],
    choice: Choice,
) {
    let mut fx = EffectsOf::<D>::default();
    let node = match choice {
        Choice::Step(node) => {
            let op = submission(&scripts[node][state.cursors[node]]);
            state.cursors[node] += 1;
            state.drivers[node].submit(0, op, &mut fx);
            // Blocked until a delivery completes it, unless it did now.
            state.blocked[node] = true;
            node
        }
        Choice::Deliver(src, dst) => {
            let msg = state
                .links
                .get_mut(&(src, dst))
                .and_then(VecDeque::pop_front)
                .expect("chosen link has a message");
            state.drivers[dst as usize].deliver(0, NodeId::new(src), msg, &mut fx);
            dst as usize
        }
    };
    for (dst, msg) in fx.sends {
        state
            .links
            .entry((node as u32, dst.index() as u32))
            .or_default()
            .push_back(msg);
    }
    if let Some((_, record)) = fx.done.and_then(completion) {
        state.blocked[node] = false;
        state.records[node].extend(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memcore::{Location, Word};

    fn loc(i: u32) -> Location {
        Location::new(i)
    }

    #[test]
    fn all_schedules_of_a_figure3_core_are_causal() {
        // The causal core of Figure 3 on the owner protocol, every
        // schedule: P0 writes x; P1 observes x and writes z; P2 reads z
        // then x. The broadcast anomaly (seeing z's value but then an x
        // older than what its writer saw) must be impossible in *every*
        // interleaving.
        let config = CausalConfig::<Word>::builder(3, 3).build();
        let scripts = vec![
            vec![ClientOp::Write(loc(0), Word::Int(5))],
            vec![
                ClientOp::ReadFresh(loc(0)),
                ClientOp::Write(loc(2), Word::Int(4)),
            ],
            vec![ClientOp::ReadFresh(loc(2)), ClientOp::ReadFresh(loc(0))],
        ];
        let report = explore_causal(&config, &scripts, 2_000_000);
        assert!(report.complete, "state space not enumerated: {report:?}");
        assert!(report.schedules > 100, "explorer barely explored");
        assert!(
            report.all_correct(),
            "violation found: {:?}",
            report.violation.map(|(_, v)| v)
        );
    }

    #[test]
    fn all_schedules_of_concurrent_writers_are_causal() {
        // Two processes write the same foreign location concurrently while
        // a third reads it twice — every resolution order must stay
        // causal (no flip-flop regressions reach any reader).
        let config = CausalConfig::<Word>::builder(3, 3).build();
        let scripts = vec![
            vec![ClientOp::Write(loc(2), Word::Int(1))],
            vec![ClientOp::Write(loc(2), Word::Int(2))],
            vec![ClientOp::ReadFresh(loc(2)), ClientOp::ReadFresh(loc(2))],
        ];
        let report = explore_causal(&config, &scripts, 2_000_000);
        assert!(report.complete, "{report:?}");
        assert!(
            report.all_correct(),
            "violation found: {:?}",
            report.violation.map(|(_, v)| v)
        );
    }

    #[test]
    fn all_schedules_with_pipelined_writes_are_causal() {
        // The shape that motivated the stale-write rule, exhaustively,
        // with every write through a window-1 pipeline: P2's write of x0
        // completes at issue, and the drain gate holds back its owner-local
        // write of x2 until the owner certified x0.
        let config = CausalConfig::<Word>::builder(3, 3)
            .pipeline_window(1)
            .build();
        let scripts = vec![
            vec![ClientOp::ReadFresh(loc(0))],
            vec![
                ClientOp::ReadFresh(loc(2)),
                ClientOp::Write(loc(0), Word::Int(1)),
            ],
            vec![
                ClientOp::Write(loc(0), Word::Int(2)),
                ClientOp::Write(loc(2), Word::Int(7)),
            ],
        ];
        let report = explore_causal(&config, &scripts, 5_000_000);
        assert!(report.complete);
        assert_eq!((report.schedules, report.states), (6930, 23079));
        assert!(
            report.all_correct(),
            "violation found: {:?}",
            report.violation.map(|(_, v)| v)
        );
    }

    #[test]
    fn all_atomic_schedules_are_causal_too() {
        // Atomic memory ⊂ causal memory, schedule by schedule, with the
        // full invalidate-before-write machinery in play.
        use atomic_dsm::InvalMode;
        let config = atomic_dsm::AtomicConfig::<Word>::builder(3, 3)
            .inval_mode(InvalMode::Acknowledged)
            .build();
        let scripts = vec![
            vec![ClientOp::Write(loc(2), Word::Int(1))],
            vec![
                ClientOp::ReadFresh(loc(2)),
                ClientOp::Write(loc(2), Word::Int(2)),
            ],
            vec![ClientOp::ReadFresh(loc(2)), ClientOp::ReadFresh(loc(2))],
        ];
        let report = explore_atomic(&config, &scripts, 2_000_000);
        assert!(report.complete, "{report:?}");
        assert!(
            report.all_correct(),
            "violation found: {:?}",
            report.violation.map(|(_, v)| v)
        );
    }

    #[test]
    fn all_schedules_of_the_late_reply_race_are_causal() {
        // The shape of the in-flight-reply race the threaded stress suite
        // caught (see CausalState::finish_read's overtaken guard): P1
        // fetches x2 while P2 overwrites it and the newer value's causal
        // footprint reaches P1 through P0's write to P1's own x1. Every
        // interleaving — including the reply arriving after the foreign
        // knowledge — must satisfy Definition 2.
        let config = CausalConfig::<Word>::builder(3, 3).build();
        let scripts = vec![
            vec![
                ClientOp::ReadFresh(loc(2)),
                ClientOp::Write(loc(1), Word::Int(7)),
            ],
            vec![
                ClientOp::Read(loc(2)),
                ClientOp::Read(loc(1)),
                ClientOp::Read(loc(2)),
            ],
            vec![
                ClientOp::Write(loc(2), Word::Int(100)),
                ClientOp::Write(loc(2), Word::Int(200)),
            ],
        ];
        let report = explore_causal(&config, &scripts, 10_000_000);
        assert!(report.complete, "{report:?}");
        assert!(
            report.all_correct(),
            "violation found: {:?}",
            report.violation.map(|(_, v)| v)
        );
    }

    #[test]
    fn explorer_respects_state_budget() {
        let config = CausalConfig::<Word>::builder(2, 2).build();
        let scripts = vec![
            (0..6)
                .map(|k| ClientOp::Write(loc(1), Word::Int(k)))
                .collect(),
            (10..16)
                .map(|k| ClientOp::Write(loc(0), Word::Int(k)))
                .collect(),
        ];
        let report = explore_causal(&config, &scripts, 50);
        assert!(!report.complete);
        assert!(report.states <= 51);
    }

    #[test]
    #[should_panic(expected = "WaitUntil is not supported")]
    fn waits_are_rejected() {
        let config = CausalConfig::<Word>::builder(1, 1).build();
        let scripts = vec![vec![ClientOp::wait_until(loc(0), |_: &Word| true)]];
        let _ = explore_causal(&config, &scripts, 10);
    }
}
