//! Executor differential: one seeded sequential script replayed through
//! the deterministic simulator and through the threaded engine — two
//! executors of the same `Driver` — must put the same messages on every
//! link, record the same operations and end in the same state. Run for
//! four drivers: the causal `NodeDriver`, the `AtomicDriver` under both
//! invalidation modes, the `BroadcastDriver`, and the session layer over
//! the causal driver, `Session<NodeDriver>`, whose acks are compared too.
//!
//! The script touches each policy the executors no longer implement
//! themselves: blocking round trips, a pipelined run that crosses a
//! window-full wait, an owner switch, a read miss toward the pipeline's
//! owner (both force a drain), `flush`, and an owner-local write. It is
//! issued by one node at a time, so the engine's real threads have no
//! scheduling freedom that could change a link's stream; transport
//! batching stays off because its runs seal by round-trip *time*, which
//! only the simulator fixes. The comparators run the same script: to
//! them every write is their one blocking write and `flush` is a no-op.
//! Node 1's script opens with a round trip to each peer and closes by
//! fetching every location, so nothing a server thread still has to send
//! or apply (a fire-and-forget INVAL) can race a later operation or the
//! final count.
//!
//! Both transports consult the same recording [`FaultHook`], which sees
//! each envelope's kind; the identity behind the kind (the page fetched,
//! the `WriteId` certified) is compared through the recorded operations,
//! whose reads-from tags name it.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use atomic_dsm::{AtomicCluster, AtomicConfig, InvalMode};
use broadcast_mem::BroadcastCluster;
use causal_dsm::{CausalCluster, CausalConfig, CausalState, Cluster, Driver, Handle, NodeDriver};
use dsm_faults::Session;
use dsm_sim::{atomic_sim, broadcast_sim, causal_sim, ClientOp, Script, Sim, SimDriver, SimOpts};
use memcore::{kinds, Location, NodeId, OpRecord, Recorder, SharedMemory, Word};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use simnet::{FaultHook, SendFate};

const NODES: u32 = 3;
const LOCATIONS: u32 = 9;
const WINDOW: u32 = 4;

type Links = BTreeMap<(usize, usize), Vec<&'static str>>;

/// Delivers everything; remembers each link's stream of message kinds.
#[derive(Default)]
struct RecordLinks(Mutex<Links>);

impl FaultHook for RecordLinks {
    fn on_send(&self, src: NodeId, dst: NodeId, kind: &'static str, _now: u64) -> SendFate {
        let mut links = self.0.lock().unwrap();
        links
            .entry((src.index(), dst.index()))
            .or_default()
            .push(kind);
        SendFate::deliver()
    }
}

/// A location owned by `owner` (round-robin: `loc mod NODES`).
fn owned_by(rng: &mut ChaCha8Rng, owner: u32) -> Location {
    Location::new(owner + NODES * rng.gen_range(0..LOCATIONS / NODES))
}

/// Node 0's script, then node 1's (run only after node 0's finished).
fn scripts(seed: u64) -> [Vec<ClientOp<Word>>; 2] {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut next = 0i64;
    let mut value = || {
        next += 1;
        Word::Int(next)
    };
    let mut ops = vec![
        // Blocking round trips.
        ClientOp::WriteBlocking(owned_by(&mut rng, 1), value()),
        ClientOp::Read(owned_by(&mut rng, 2)),
    ];
    // A pipelined run longer than the window: crosses a window-full wait.
    for _ in 0..rng.gen_range(WINDOW + 2..3 * WINDOW) {
        ops.push(ClientOp::Write(owned_by(&mut rng, 1), value()));
    }
    // Owner switch: the window must drain before this write may leave.
    ops.push(ClientOp::Write(owned_by(&mut rng, 2), value()));
    ops.push(ClientOp::Write(owned_by(&mut rng, 2), value()));
    // A read miss toward the pipeline's owner: drains again.
    ops.push(ClientOp::ReadFresh(owned_by(&mut rng, 2)));
    // A blocking write behind a pipelined run to the same owner.
    for _ in 0..rng.gen_range(1..WINDOW) {
        ops.push(ClientOp::Write(owned_by(&mut rng, 1), value()));
    }
    ops.push(ClientOp::WriteBlocking(owned_by(&mut rng, 1), value()));
    ops.push(ClientOp::Write(owned_by(&mut rng, 1), value()));
    ops.push(ClientOp::Flush);
    // Owner-local: messages-free, and read back from the cache.
    let own = owned_by(&mut rng, 0);
    ops.push(ClientOp::Write(own, value()));
    ops.push(ClientOp::Read(own));
    // Node 1 then adds a second writer's stamps to every clock and reads
    // everything back.
    let mut second = vec![
        ClientOp::WriteBlocking(owned_by(&mut rng, 0), value()),
        ClientOp::Write(owned_by(&mut rng, 1), value()),
        ClientOp::Write(owned_by(&mut rng, 2), value()),
        ClientOp::Flush,
    ];
    second.extend((0..LOCATIONS).map(|l| ClientOp::ReadFresh(Location::new(l))));
    [ops, second]
}

struct Observed {
    links: Links,
    ops: Vec<Vec<OpRecord<Word>>>,
}

impl Observed {
    fn messages(&self) -> usize {
        self.links.values().map(Vec::len).sum()
    }

    fn kinds(&self) -> std::collections::BTreeSet<&'static str> {
        self.links.values().flatten().copied().collect()
    }
}

/// Runs the scripts through the simulator `build` stands up; hands the
/// simulator back for protocol-specific inspection.
fn through_the_simulator<D: SimDriver<Value = Word>>(
    seed: u64,
    build: impl FnOnce(SimOpts<Word>) -> Sim<D>,
) -> (Observed, Sim<D>) {
    let hook = Arc::new(RecordLinks::default());
    let recorder: Recorder<Word> = Recorder::new(NODES as usize);
    let mut sim = build(SimOpts {
        recorder: Some(recorder.clone()),
        faults: Some(hook.clone()),
        ..SimOpts::default()
    });
    for (node, script) in scripts(seed).into_iter().enumerate() {
        sim.set_client(node, Script::new(script));
        assert!(
            sim.run_to_completion().all_done,
            "sim wedged on node {node}"
        );
    }
    let links = hook.0.lock().unwrap().clone();
    let ops = recorder.processes();
    (Observed { links, ops }, sim)
}

/// Runs the scripts through `cluster` (built to record into `recorder`),
/// `issue` mapping each scripted operation onto the handle's API.
fn through_the_threaded_engine<D: Driver<Value = Word>>(
    seed: u64,
    cluster: &Cluster<D>,
    recorder: &Recorder<Word>,
    issue: impl Fn(&Handle<D>, ClientOp<Word>),
) -> Observed {
    let hook = Arc::new(RecordLinks::default());
    cluster.set_fault_hook(Some(hook.clone()));
    for (node, script) in scripts(seed).into_iter().enumerate() {
        let h = cluster.handle(node as u32);
        script.into_iter().for_each(|op| issue(&h, op));
    }
    cluster.set_fault_hook(None);
    let links = hook.0.lock().unwrap().clone();
    let ops = recorder.processes();
    Observed { links, ops }
}

/// The script on the plain [`SharedMemory`] surface, for memories whose
/// every write is complete when it returns.
fn issue_plain<M: SharedMemory<Word>>(h: &M, op: ClientOp<Word>) {
    match op {
        ClientOp::Read(l) => drop(h.read(l).unwrap()),
        ClientOp::ReadFresh(l) => drop(h.read_fresh(l).unwrap()),
        ClientOp::Write(l, v) | ClientOp::WriteBlocking(l, v) => h.write(l, v).unwrap(),
        ClientOp::Flush => {}
        other => unreachable!("not in the script: {other:?}"),
    }
}

// The two fixed CI seeds.
const SEEDS: [u64; 2] = [0xC0FFEE, 0x5EED];

#[test]
fn executor_differential() {
    for seed in SEEDS {
        let config = CausalConfig::<Word>::builder(NODES, LOCATIONS)
            .pipeline_window(WINDOW)
            .build();
        let (sim, simulated) = through_the_simulator(seed, |opts| causal_sim(&config, opts));
        let sim_vts: Vec<_> = (0..NODES as usize)
            .map(|i| simulated.driver(i).state().vt().clone())
            .collect();

        let recorder: Recorder<Word> = Recorder::new(NODES as usize);
        let cluster = CausalCluster::<Word>::builder(NODES, LOCATIONS)
            .configure(|c| c.pipeline_window(WINDOW))
            .recorder(recorder.clone())
            .build()
            .unwrap();
        let engine = through_the_threaded_engine(seed, &cluster, &recorder, |h, op| match op {
            ClientOp::Write(l, v) => drop(h.write_pipelined(l, v).unwrap()),
            ClientOp::Flush => h.flush().unwrap(),
            op => issue_plain(h, op),
        });
        let engine_vts: Vec<_> = (0..NODES).map(|i| cluster.node_vt(i)).collect();

        assert!(
            sim.messages() > 40,
            "seed {seed:#x}: the script barely used the network"
        );
        assert_eq!(sim.links, engine.links, "seed {seed:#x}: per-link streams");
        assert_eq!(sim.ops, engine.ops, "seed {seed:#x}: recorded operations");
        assert_eq!(sim_vts, engine_vts, "seed {seed:#x}: final VT_i");
        // Node 1's last nine records are the read-back of every
        // location: equal records are equal final values.
        assert!(engine.ops[1].len() > LOCATIONS as usize);
    }
}

#[test]
fn atomic_executor_differential() {
    for (seed, mode) in SEEDS
        .into_iter()
        .flat_map(|s| [(s, InvalMode::FireAndForget), (s, InvalMode::Acknowledged)])
    {
        let config = AtomicConfig::<Word>::builder(NODES, LOCATIONS)
            .inval_mode(mode)
            .build();
        let (sim, _) = through_the_simulator(seed, |opts| atomic_sim(&config, opts));

        let recorder: Recorder<Word> = Recorder::new(NODES as usize);
        let cluster = AtomicCluster::with_config(config, Some(recorder.clone())).unwrap();
        let engine = through_the_threaded_engine(seed, &cluster, &recorder, issue_plain);

        let case = format!("seed {seed:#x}, {mode:?}");
        assert!(sim.messages() > 40, "{case}: barely used the network");
        // The traffic only strong consistency pays is in the comparison.
        let acked = mode == InvalMode::Acknowledged;
        assert!(sim.kinds().contains("INVAL"), "{case}: no invalidation");
        assert_eq!(sim.kinds().contains("INVAL_ACK"), acked, "{case}: acks");
        assert_eq!(sim.links, engine.links, "{case}: per-link streams");
        assert_eq!(sim.ops, engine.ops, "{case}: recorded operations");
        assert!(engine.ops[1].len() > LOCATIONS as usize);
    }
}

#[test]
fn broadcast_executor_differential() {
    for seed in SEEDS {
        let (sim, _) =
            through_the_simulator(seed, |opts| broadcast_sim::<Word>(NODES, LOCATIONS, opts));
        let recorder: Recorder<Word> = Recorder::new(NODES as usize);
        let cluster =
            BroadcastCluster::<Word>::with_recorder(NODES, LOCATIONS, Some(recorder.clone()))
                .unwrap();
        let engine = through_the_threaded_engine(seed, &cluster, &recorder, issue_plain);
        // Replication is asynchronous, so what a read returns depends on
        // real delivery timing; what each link carries does not.
        // Every write, and nothing else, costs n − 1 UPDATEs.
        let writes = engine
            .ops
            .iter()
            .flatten()
            .filter(|op| !op.is_read())
            .count();
        assert!(writes > 10, "seed {seed:#x}: the script barely wrote");
        assert_eq!(sim.messages(), writes * (NODES as usize - 1));
        assert_eq!(sim.links, engine.links, "seed {seed:#x}: per-link streams");
    }
}

/// The session layer's retransmission timeout: an hour of the threaded
/// engine's milliseconds, and beyond any simulated run, so no frame is
/// ever retransmitted and every link carries what the protocol sent.
const RTO: u64 = 3_600_000;

#[test]
fn session_executor_differential() {
    for seed in SEEDS {
        // No pipeline window: every write is a blocking round trip, so
        // each ack leaves before the operation it answers completes and
        // no link's stream depends on thread timing.
        let config = CausalConfig::<Word>::builder(NODES, LOCATIONS).build();
        let sessions = || -> Vec<_> {
            (0..NODES)
                .map(|i| NodeDriver::new(CausalState::new(NodeId::new(i), config.clone())))
                .map(|driver| Session::new(driver, RTO))
                .collect()
        };
        let (sim, simulated) = through_the_simulator(seed, |opts| Sim::new(sessions(), opts));
        let sim_vts: Vec<_> = (0..NODES as usize)
            .map(|i| simulated.driver(i).inner().state().vt().clone())
            .collect();

        let recorder: Recorder<Word> = Recorder::new(NODES as usize);
        let cluster = Cluster::new(
            config.clone(),
            LOCATIONS,
            sessions(),
            Some(recorder.clone()),
        );
        let engine = through_the_threaded_engine(seed, &cluster, &recorder, issue_plain);
        let engine_vts: Vec<_> = (0..NODES)
            .map(|i| cluster.inspect(i, |d| d.inner().state().vt().clone()))
            .collect();

        let kinds_sent = sim.links.values().flatten();
        let acks = kinds_sent.clone().filter(|k| **k == kinds::ACK).count();
        let sequenced = kinds_sent.count() - acks;
        assert!(
            sequenced > 40,
            "seed {seed:#x}: the script barely used the network"
        );
        assert_eq!(
            acks, sequenced,
            "seed {seed:#x}: one ack per sequenced frame"
        );
        assert_eq!(sim.links, engine.links, "seed {seed:#x}: per-link streams");
        assert_eq!(sim.ops, engine.ops, "seed {seed:#x}: recorded operations");
        assert_eq!(sim_vts, engine_vts, "seed {seed:#x}: final VT_i");
        assert!(engine.ops[1].len() > LOCATIONS as usize);
    }
}
