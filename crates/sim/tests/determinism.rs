//! The simulator's contract: deterministic per seed, FIFO per link,
//! faithful wait semantics.

use causal_dsm::CausalConfig;
use dsm_sim::{causal_sim, ClientOp, RunLimits, Script, SimDriver, SimOpts, WaitMode};
use memcore::{Location, StatsSnapshot, Word};
use simnet::latency::Uniform;

fn loc(i: u32) -> Location {
    Location::new(i)
}

fn workload_sim(seed: u64) -> (StatsSnapshot, Vec<Option<Word>>, u64) {
    let config = CausalConfig::<Word>::builder(3, 6).build();
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
                    ClientOp::WriteNonblocking(loc((node + 2) % 3), Word::Int(i64::from(k) + 500)),
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

#[test]
fn identical_seeds_replay_identically() {
    let (m1, f1, t1) = workload_sim(42);
    let (m2, f2, t2) = workload_sim(42);
    assert_eq!(m1, m2);
    assert_eq!(f1, f2);
    assert_eq!(t1, t2);
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
    // P1 fires 50 non-blocking writes at P0's location under jittery
    // latency; FIFO delivery means the owner must end holding the last.
    for seed in 0..10u64 {
        let config = CausalConfig::<Word>::builder(2, 2).build();
        let mut sim = causal_sim(
            &config,
            SimOpts {
                latency: Box::new(Uniform::new(1, 50)),
                seed,
                ..SimOpts::default()
            },
        );
        let ops: Vec<ClientOp<Word>> = (1..=50)
            .map(|v| ClientOp::WriteNonblocking(loc(0), Word::Int(v)))
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
    // An infinite client: alternating fresh reads forever.
    struct Forever;
    impl dsm_sim::Client<Word> for Forever {
        fn next(&mut self, _last: Option<&dsm_sim::Outcome<Word>>) -> Option<ClientOp<Word>> {
            Some(ClientOp::ReadFresh(Location::new(0)))
        }
    }
    sim.set_client(1, Forever);
    let report = sim.run(RunLimits {
        max_events: 500,
        max_time: u64::MAX,
    });
    assert!(!report.all_done);
    assert!(report.events <= 500);
}
