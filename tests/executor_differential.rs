//! Executor differential: one seeded sequential script replayed through
//! the deterministic simulator and through the threaded engine — two
//! executors of the same `NodeDriver` — must put the same messages on
//! every link, record the same operations and end in the same state.
//!
//! The script touches each policy the executors no longer implement
//! themselves: blocking round trips, a pipelined run that crosses a
//! window-full wait, an owner switch, a read miss toward the pipeline's
//! owner (both force a drain), `flush`, and an owner-local write. It is
//! issued by one node at a time, so the engine's real threads have no
//! scheduling freedom that could change a link's stream; transport
//! batching stays off because its runs seal by round-trip *time*, which
//! only the simulator fixes.
//!
//! Both transports consult the same recording [`FaultHook`], which sees
//! each envelope's kind; the identity behind the kind (the page fetched,
//! the `WriteId` certified) is compared through the recorded operations,
//! whose reads-from tags name it.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use causal_dsm::{CausalCluster, CausalConfig};
use dsm_sim::{causal_sim, ClientOp, Script, SimOpts};
use memcore::{Location, NodeId, OpRecord, Recorder, SharedMemory, Word};
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
    vts: Vec<vclock::VectorClock>,
}

fn config() -> CausalConfig<Word> {
    CausalConfig::<Word>::builder(NODES, LOCATIONS)
        .pipeline_window(WINDOW)
        .build()
}

fn through_the_simulator(seed: u64) -> Observed {
    let hook = Arc::new(RecordLinks::default());
    let recorder: Recorder<Word> = Recorder::new(NODES as usize);
    let mut sim = causal_sim(
        &config(),
        SimOpts {
            recorder: Some(recorder.clone()),
            faults: Some(hook.clone()),
            ..SimOpts::default()
        },
    );
    for (node, script) in scripts(seed).into_iter().enumerate() {
        sim.set_client(node, Script::new(script));
        assert!(
            sim.run_to_completion().all_done,
            "sim wedged on node {node}"
        );
    }
    let links = hook.0.lock().unwrap().clone();
    Observed {
        links,
        ops: recorder.processes(),
        vts: (0..NODES as usize)
            .map(|i| sim.actor(i).state().vt().clone())
            .collect(),
    }
}

fn through_the_threaded_engine(seed: u64) -> Observed {
    let hook = Arc::new(RecordLinks::default());
    let recorder: Recorder<Word> = Recorder::new(NODES as usize);
    let cluster = CausalCluster::<Word>::builder(NODES, LOCATIONS)
        .configure(|c| c.pipeline_window(WINDOW))
        .recorder(recorder.clone())
        .build()
        .unwrap();
    cluster.set_fault_hook(Some(hook.clone()));
    for (node, script) in scripts(seed).into_iter().enumerate() {
        let h = cluster.handle(node as u32);
        for op in script {
            match op {
                ClientOp::Read(l) => drop(h.read(l).unwrap()),
                ClientOp::ReadFresh(l) => drop(h.read_fresh(l).unwrap()),
                ClientOp::Write(l, v) => drop(h.write_pipelined(l, v).unwrap()),
                ClientOp::WriteBlocking(l, v) => h.write(l, v).unwrap(),
                ClientOp::Flush => h.flush().unwrap(),
                other => unreachable!("not in the script: {other:?}"),
            }
        }
    }
    let vts = (0..NODES).map(|i| cluster.node_vt(i)).collect();
    cluster.set_fault_hook(None);
    cluster.shutdown();
    let links = hook.0.lock().unwrap().clone();
    Observed {
        links,
        ops: recorder.processes(),
        vts,
    }
}

#[test]
fn executor_differential() {
    // The two fixed CI seeds.
    for seed in [0xC0FFEE, 0x5EED] {
        let sim = through_the_simulator(seed);
        let engine = through_the_threaded_engine(seed);
        assert!(
            sim.links.values().map(Vec::len).sum::<usize>() > 40,
            "seed {seed:#x}: the script barely used the network"
        );
        assert_eq!(sim.links, engine.links, "seed {seed:#x}: per-link streams");
        assert_eq!(sim.ops, engine.ops, "seed {seed:#x}: recorded operations");
        assert_eq!(sim.vts, engine.vts, "seed {seed:#x}: final VT_i");
        // Node 1's last nine records are the read-back of every
        // location: equal records are equal final values.
        assert!(engine.ops[1].len() > LOCATIONS as usize);
    }
}
