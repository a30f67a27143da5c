//! The simulator's contract: deterministic per seed, FIFO per link,
//! faithful wait semantics — for fixed [`Script`]s and for straight-line
//! [`Program`]s alike.

use std::sync::{Arc, Mutex};

use causal_dsm::CausalConfig;
use dsm_sim::{
    causal_sim, ClientOp, Program, RunLimits, Script, SimDriver, SimMemory, SimOpts, SimReport,
    WaitMode,
};
use memcore::{
    Location, MemoryError, NodeId, OpRecord, Recorder, SharedMemory, StatsSnapshot, Word,
};
use simnet::latency::Uniform;

fn loc(i: u32) -> Location {
    Location::new(i)
}

/// Three nodes writing, fresh-reading and pipelining writes to each
/// other's locations through a window of 4.
fn workload_sim(seed: u64) -> (StatsSnapshot, Vec<Option<Word>>, u64) {
    let config = CausalConfig::<Word>::builder(3, 6)
        .pipeline_window(4)
        .build();
    let mut sim = causal_sim(
        &config,
        SimOpts {
            latency: Box::new(Uniform::new(1, 9)),
            seed,
            ..SimOpts::default()
        },
    );
    for node in 0..3u32 {
        let ops: Vec<ClientOp<Word>> = (0..20)
            .flat_map(|k| {
                vec![
                    ClientOp::Write(loc(node), Word::Int(i64::from(node * 100 + k))),
                    ClientOp::ReadFresh(loc((node + 1) % 3)),
                    ClientOp::Write(loc((node + 2) % 3), Word::Int(i64::from(k) + 500)),
                ]
            })
            .collect();
        sim.set_client(node as usize, Script::new(ops));
    }
    let report = sim.run(RunLimits::default());
    assert!(report.all_done);
    let finals = (0..6)
        .map(|l| sim.driver(l % 3).peek(loc(l as u32)))
        .collect();
    (sim.messages().snapshot(), finals, report.time)
}

/// How [`mixed_sim`] installs each node's operations.
#[derive(Clone, Copy, Debug)]
enum Clients {
    Script,
    Program,
}

/// Node `k`'s operations: five rounds of a write to its own location, a
/// fresh read and a plain read of others, a discard, and a wait for its
/// neighbour to reach the round.
fn mixed_ops(k: u32) -> Vec<ClientOp<Word>> {
    (0..5i64)
        .flat_map(|round| {
            vec![
                ClientOp::Write(loc(k), Word::Int(round)),
                ClientOp::ReadFresh(loc((k + 1) % 3)),
                ClientOp::Read(loc(k + 3)),
                ClientOp::Discard(loc((k + 2) % 3)),
                ClientOp::wait_until(loc((k + 1) % 3), move |v: &Word| {
                    v.as_int().unwrap_or(0) >= round
                }),
            ]
        })
        .collect()
}

/// Performs `op` through the program's memory, as a hand-written
/// program would.
fn perform(mem: &SimMemory<Word>, op: ClientOp<Word>) -> Result<(), MemoryError> {
    match op {
        ClientOp::Read(l) => mem.read(l).map(drop),
        ClientOp::Write(l, v) => mem.write(l, v),
        ClientOp::ReadFresh(l) => mem.read_fresh(l).map(drop),
        ClientOp::Discard(l) => {
            mem.discard(l);
            Ok(())
        }
        ClientOp::WaitUntil(l, pred) => mem.wait_until(l, move |v| pred(v)).map(drop),
        other => unreachable!("no SharedMemory call issues {other:?}"),
    }
}

type MixedRun = (Vec<Vec<OpRecord<Word>>>, StatsSnapshot, SimReport);

fn mixed_sim(seed: u64, wait_mode: WaitMode, clients: Clients) -> MixedRun {
    let config = CausalConfig::<Word>::builder(3, 6).build();
    let recorder = Recorder::new(3);
    let mut sim = causal_sim(
        &config,
        SimOpts {
            latency: Box::new(Uniform::new(1, 9)),
            seed,
            wait_mode,
            recorder: Some(recorder.clone()),
            ..SimOpts::default()
        },
    );
    for k in 0..3u32 {
        let ops = mixed_ops(k);
        match clients {
            Clients::Script => sim.set_client(k as usize, Script::new(ops)),
            Clients::Program => sim.set_client(
                k as usize,
                Program::new(NodeId::new(k), move |mem| {
                    for op in ops {
                        perform(&mem, op).expect("the simulation outlives the program");
                    }
                }),
            ),
        }
    }
    let report = sim.run(RunLimits::default());
    assert!(report.all_done, "{clients:?}: {report:?}");
    (recorder.processes(), sim.messages().snapshot(), report)
}

#[test]
fn identical_seeds_replay_identically() {
    let (m1, f1, t1) = workload_sim(42);
    let (m2, f2, t2) = workload_sim(42);
    assert_eq!(m1, m2);
    assert_eq!(f1, f2);
    assert_eq!(t1, t2);
    let once = mixed_sim(42, WaitMode::IdealSignal, Clients::Program);
    assert_eq!(once, mixed_sim(42, WaitMode::IdealSignal, Clients::Program));
}

#[test]
fn a_program_runs_exactly_like_the_script_of_its_operations() {
    for wait_mode in [WaitMode::IdealSignal, WaitMode::Poll { interval: 4 }] {
        for seed in 0..5u64 {
            let script = mixed_sim(seed, wait_mode, Clients::Script);
            let program = mixed_sim(seed, wait_mode, Clients::Program);
            assert_eq!(script.0, program.0, "{wait_mode:?} seed {seed}: executions");
            assert_eq!(script.1, program.1, "{wait_mode:?} seed {seed}: messages");
            assert_eq!(script.2, program.2, "{wait_mode:?} seed {seed}: report");
        }
    }
}

#[test]
#[should_panic(expected = "program gave up")]
fn a_panicking_program_panics_the_run_with_its_message() {
    let config = CausalConfig::<Word>::builder(2, 2).build();
    let mut sim = causal_sim(&config, SimOpts::default());
    // Node 1 is blocked in a wait when node 0 panics; unwinding drops
    // the simulation, which must release node 1's thread too.
    sim.set_client(
        1,
        Program::new(NodeId::new(1), |mem| {
            let _ = mem.wait_until(loc(0), |v: &Word| *v == Word::Int(99));
        }),
    );
    sim.set_client(
        0,
        Program::new(NodeId::new(0), |mem| {
            let _ = mem.read(loc(1));
            panic!("program gave up");
        }),
    );
    sim.run_to_completion();
}

#[test]
fn different_seeds_change_the_schedule() {
    let (_, _, t1) = workload_sim(1);
    let mut any_different = false;
    for seed in 2..8 {
        let (_, _, t) = workload_sim(seed);
        if t != t1 {
            any_different = true;
        }
    }
    assert!(any_different, "latency jitter must affect the schedule");
}

#[test]
fn per_link_fifo_holds_under_jitter() {
    // P1 fires 50 pipelined writes at P0's location under jittery
    // latency, all in flight at once (the window is wider than the run);
    // FIFO delivery means the owner must end holding the last.
    for seed in 0..10u64 {
        let config = CausalConfig::<Word>::builder(2, 2)
            .pipeline_window(64)
            .build();
        let mut sim = causal_sim(
            &config,
            SimOpts {
                latency: Box::new(Uniform::new(1, 50)),
                seed,
                ..SimOpts::default()
            },
        );
        let ops: Vec<ClientOp<Word>> = (1..=50)
            .map(|v| ClientOp::Write(loc(0), Word::Int(v)))
            .collect();
        sim.set_client(1, Script::new(ops));
        let report = sim.run(RunLimits::default());
        assert!(report.all_done);
        assert_eq!(
            sim.driver(0).peek(loc(0)),
            Some(Word::Int(50)),
            "seed {seed}: reordered delivery"
        );
    }
}

#[test]
fn per_link_latency_shapes_the_makespan() {
    // An asymmetric topology: the 1→0 direction is slow. A request from
    // P1 to P0 pays the slow direction once; the reply returns fast.
    use simnet::latency::PerLink;
    let run_with = |slow: u64| {
        let config = CausalConfig::<Word>::builder(2, 2).build();
        let mut model = PerLink::new(1, 0);
        model.set_link(memcore::NodeId::new(1), memcore::NodeId::new(0), slow);
        let mut sim = causal_sim(
            &config,
            SimOpts {
                latency: Box::new(model),
                ..SimOpts::default()
            },
        );
        sim.set_client(1, Script::new(vec![ClientOp::Read(loc(0))]));
        let report = sim.run(RunLimits::default());
        assert!(report.all_done);
        report.time
    };
    assert_eq!(run_with(10), 11); // 10 out + 1 back
    assert_eq!(run_with(50), 51);
}

#[test]
fn ideal_signal_wait_uses_exactly_one_fetch() {
    let config = CausalConfig::<Word>::builder(2, 2).build();
    let mut sim = causal_sim(&config, SimOpts::default());
    // P0 waits for x1 (owned by P1) to become 7; P1 writes some noise
    // first, then 7. Ideal signaling must cost exactly one fetch pair.
    sim.set_client(
        0,
        Script::new(vec![ClientOp::wait_until(loc(1), |v: &Word| {
            *v == Word::Int(7)
        })]),
    );
    sim.set_client(
        1,
        Script::new(vec![
            ClientOp::Write(loc(1), Word::Int(1)),
            ClientOp::Write(loc(1), Word::Int(2)),
            ClientOp::Write(loc(1), Word::Int(7)),
        ]),
    );
    let report = sim.run(RunLimits::default());
    assert!(report.all_done);
    // One READ + one R_REPLY; P1's writes are owner-local and free.
    assert_eq!(sim.messages().snapshot().total(), 2);
}

#[test]
fn poll_wait_costs_more_but_terminates() {
    let config = CausalConfig::<Word>::builder(2, 2).build();
    let mut sim = causal_sim(
        &config,
        SimOpts {
            wait_mode: WaitMode::Poll { interval: 3 },
            latency: Box::new(simnet::latency::Constant::new(5)),
            ..SimOpts::default()
        },
    );
    sim.set_client(
        0,
        Script::new(vec![ClientOp::wait_until(loc(1), |v: &Word| {
            *v == Word::Int(7)
        })]),
    );
    // P1 writes 7 only "later": give it filler local work first.
    let mut ops: Vec<ClientOp<Word>> = (0..10)
        .map(|k| ClientOp::Write(loc(1), Word::Int(k)))
        .collect();
    ops.push(ClientOp::Write(loc(1), Word::Int(7)));
    sim.set_client(1, Script::new(ops));
    let report = sim.run(RunLimits::default());
    assert!(report.all_done);
    assert!(
        sim.messages().snapshot().total() >= 2,
        "at least the final successful fetch"
    );
}

#[test]
fn stuck_detection_reports_unsatisfiable_waits() {
    let config = CausalConfig::<Word>::builder(2, 2).build();
    let mut sim = causal_sim(&config, SimOpts::default());
    // Nothing ever writes 99: the wait can never fire.
    sim.set_client(
        0,
        Script::new(vec![ClientOp::wait_until(loc(1), |v: &Word| {
            *v == Word::Int(99)
        })]),
    );
    let report = sim.run(RunLimits::default());
    assert!(!report.all_done);
    assert_eq!(report.stuck_nodes, vec![0]);
}

#[test]
fn max_event_limit_stops_runaway_programs() {
    let config = CausalConfig::<Word>::builder(2, 2).build();
    let mut sim = causal_sim(&config, SimOpts::default());
    // An infinite program: fresh reads of a remote location forever, so
    // the cut finds it blocked mid-operation.
    let seen = Arc::new(Mutex::new(None));
    let sink = Arc::clone(&seen);
    sim.set_client(
        1,
        Program::new(NodeId::new(1), move |mem| loop {
            if let Err(e) = mem.read_fresh(loc(0)) {
                *sink.lock().unwrap() = Some(e);
                return;
            }
        }),
    );
    let report = sim.run(RunLimits {
        max_events: 500,
        max_time: u64::MAX,
    });
    assert!(!report.all_done);
    assert!(report.events <= 500);
    assert_eq!(report.stuck_nodes, vec![1], "cut mid-operation");
    assert!(seen.lock().unwrap().is_none());
    // Dropping the simulation fails the pending call and joins the
    // program's thread, so its last call has returned by now.
    drop(sim);
    assert_eq!(*seen.lock().unwrap(), Some(MemoryError::Shutdown));
}
