//! The paper's programming claim, end to end on the threaded engines: the
//! same workload runs on all three memories, and the recorded causal
//! executions satisfy Definition 2 even under real thread interleavings.

use std::ops::Deref;
use std::sync::{mpsc, Arc, Mutex};

use causalmem::apps::{WorkloadOp, WorkloadSpec};
use causalmem::atomic::{AtomicCluster, InvalMode};
use causalmem::broadcast::BroadcastCluster;
use causalmem::causal::{CausalCluster, Cluster, Driver};
use causalmem::spec::{check_causal, Execution};
use memcore::{Location, MemoryError, NodeId, Recorder, SharedMemory, Word};
use simnet::{FaultHook, SendFate};

fn spec() -> WorkloadSpec {
    WorkloadSpec {
        nodes: 4,
        locations_per_node: 4,
        ops_per_node: 300,
        read_ratio: 0.6,
        locality: 0.4,
        seed: 17,
    }
}

fn run_threaded<M: SharedMemory<Word> + Send>(handles: Vec<M>, workload: &[Vec<WorkloadOp>]) {
    std::thread::scope(|scope| {
        for (mem, ops) in handles.into_iter().zip(workload) {
            scope.spawn(move || {
                for op in ops {
                    match op {
                        WorkloadOp::Read(loc) => {
                            mem.read(*loc).expect("read");
                        }
                        WorkloadOp::Write(loc, v) => {
                            mem.write(*loc, Word::Int(*v)).expect("write");
                        }
                    }
                }
            });
        }
    });
}

#[test]
fn threaded_causal_executions_satisfy_definition2() {
    // Real threads, real races — repeat to vary interleavings. (This
    // suite caught the in-flight-reply race; see docs/PROTOCOL.md.)
    for round in 0..12 {
        let spec = WorkloadSpec {
            seed: 17 + round,
            ..spec()
        };
        let recorder: Recorder<Word> = Recorder::new(spec.nodes);
        let cluster = CausalCluster::<Word>::builder(spec.nodes as u32, spec.locations())
            .recorder(recorder.clone())
            .build()
            .expect("cluster");
        run_threaded(cluster.handles(), &spec.generate());
        let exec = Execution::from_recorder(&recorder);
        let verdict = check_causal(&exec).expect("well formed");
        assert!(verdict.is_correct(), "round {round}:\n{verdict}");
        assert!(verdict.reads_checked > 0);
    }
}

#[test]
fn threaded_atomic_acknowledged_executions_satisfy_definition2() {
    let spec = spec();
    let recorder: Recorder<Word> = Recorder::new(spec.nodes);
    let cluster = AtomicCluster::<Word>::builder(spec.nodes as u32, spec.locations())
        .configure(|c| c.inval_mode(InvalMode::Acknowledged))
        .recorder(recorder.clone())
        .build()
        .expect("cluster");
    run_threaded(cluster.handles(), &spec.generate());
    let exec = Execution::from_recorder(&recorder);
    let verdict = check_causal(&exec).expect("well formed");
    assert!(verdict.is_correct(), "{verdict}");
}

#[test]
fn all_three_engines_run_the_same_workload_source() {
    let spec = spec();
    let workload = spec.generate();

    let causal = CausalCluster::<Word>::builder(spec.nodes as u32, spec.locations())
        .build()
        .expect("causal");
    run_threaded(causal.handles(), &workload);

    let atomic = AtomicCluster::<Word>::builder(spec.nodes as u32, spec.locations())
        .build()
        .expect("atomic");
    run_threaded(atomic.handles(), &workload);

    let broadcast =
        BroadcastCluster::<Word>::new(spec.nodes as u32, spec.locations()).expect("broadcast");
    let handles: Vec<_> = (0..spec.nodes as u32)
        .map(|i| broadcast.handle(i))
        .collect();
    run_threaded(handles, &workload);

    // Causal writes cost at most one owner round-trip; atomic writes add
    // invalidations; broadcast writes cost n−1 updates each. The ordering
    // of total message counts should reflect that for a write-heavy mix.
    let heavy = WorkloadSpec {
        read_ratio: 0.1,
        ..spec
    };
    let heavy_ops = heavy.generate();

    let causal = CausalCluster::<Word>::builder(heavy.nodes as u32, heavy.locations())
        .build()
        .expect("causal");
    run_threaded(causal.handles(), &heavy_ops);
    let causal_msgs = causal.messages().snapshot().total();

    let broadcast =
        BroadcastCluster::<Word>::new(heavy.nodes as u32, heavy.locations()).expect("broadcast");
    let handles: Vec<_> = (0..heavy.nodes as u32)
        .map(|i| broadcast.handle(i))
        .collect();
    run_threaded(handles, &heavy_ops);
    let broadcast_msgs = broadcast.messages().snapshot().total();

    assert!(
        causal_msgs < broadcast_msgs,
        "causal {causal_msgs} vs broadcast {broadcast_msgs} on write-heavy mix"
    );
}

/// Loses every message of one kind, reporting each loss.
struct Lose {
    kind: &'static str,
    lost: Mutex<mpsc::Sender<()>>,
}

impl FaultHook for Lose {
    fn on_send(&self, _src: NodeId, _dst: NodeId, kind: &'static str, _now: u64) -> SendFate {
        if kind != self.kind {
            return SendFate::deliver();
        }
        let _ = self.lost.lock().unwrap().send(());
        SendFate::dropped()
    }
}

/// An operation that stalls once messages of the named kind are lost.
type Stall<'a, D> = (
    &'static str,
    &'a (dyn Fn(&Cluster<D>) -> Result<(), MemoryError> + Sync),
);

/// The one shutdown contract of the shared executor, on a two-node,
/// four-location cluster (P1 owns x1; x0 and x2 are P0's): what a node
/// can answer alone still answers, an operation that needs the network —
/// blocked when shutdown arrives, or issued later — fails with
/// `Shutdown` rather than hanging, a second `shutdown()` is a no-op, and
/// dropping the cluster joins every thread.
fn shutdown_contract<D, C>(cluster: C, stall: Option<Stall<D>>, reads_need_the_owner: bool)
where
    D: Driver<Value = Word>,
    C: Deref<Target = Cluster<D>> + Sync,
{
    let [x0, x1, x2] = [0, 1, 2].map(Location::new);
    let p1 = cluster.handle(1);
    p1.write(x0, Word::Int(1)).unwrap();

    let (lost, stalled) = mpsc::channel();
    let hook = Arc::new(Lose {
        kind: stall.map_or("", |(kind, _)| kind),
        lost: Mutex::new(lost),
    });
    cluster.set_fault_hook(Some(hook.clone()));
    std::thread::scope(|scope| {
        let blocked = stall.map(|(_, op)| scope.spawn(|| op(&cluster)));
        if blocked.is_some() {
            stalled.recv().expect("the operation reached the network");
        }
        cluster.shutdown();
        if let Some(blocked) = blocked {
            assert_eq!(
                blocked.join().unwrap(),
                Err(MemoryError::Shutdown),
                "an operation blocked when shutdown arrives must fail, not hang"
            );
        }
    });

    // Local operations still work (owned, cached or replicated data needs
    // no network)…
    assert_eq!(
        p1.read(x0).unwrap(),
        Word::Int(1),
        "own write, held locally"
    );
    assert!(p1.read(x1).is_ok(), "owned read");
    // …but remote ones fail rather than hang.
    assert_eq!(
        p1.read(x2).err(),
        reads_need_the_owner.then_some(MemoryError::Shutdown),
        "uncached read after shutdown"
    );
    assert_eq!(
        p1.write(x0, Word::Int(3)),
        Err(MemoryError::Shutdown),
        "a write that must leave the node after shutdown"
    );
    cluster.shutdown();
    // Server threads own their node, and with it the network and its
    // hook: once the cluster and its handles are gone, only a thread
    // that was not joined could still hold one.
    drop(p1);
    drop(cluster);
    assert_eq!(Arc::strong_count(&hook), 1, "drop joins every thread");
}

#[test]
fn shutdown_is_clean_and_subsequent_ops_error() {
    let [x0, x2] = [0, 2].map(Location::new);
    let causal = CausalCluster::<Word>::builder(2, 4).build().unwrap();
    // A read miss whose READ never reaches the owner.
    let read_miss: Stall<_> = ("READ", &|c| c.handle(1).read(x2).map(drop));
    shutdown_contract(Box::new(causal), Some(read_miss), true);

    let atomic = AtomicCluster::<Word>::builder(2, 4)
        .configure(|c| c.inval_mode(InvalMode::Acknowledged))
        .build()
        .unwrap();
    // An owner write awaiting the ack of P1's copy (P1 wrote x0).
    let owner_write: Stall<_> = ("INVAL", &|c| c.handle(0).write(x0, Word::Int(2)));
    shutdown_contract(atomic, Some(owner_write), true);

    // Nothing ever blocks on a replica, and every read is local.
    let broadcast = BroadcastCluster::<Word>::new(2, 4).unwrap();
    shutdown_contract(broadcast, None, false);
}
