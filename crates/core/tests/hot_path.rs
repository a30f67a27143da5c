//! Hot-path discipline for the threaded engine: application values are
//! deep-copied at most once per operation (zero on the unrecorded
//! protocol paths), shared reads hand back the slot's own allocation, and
//! cache-hit reads run concurrently under the node's shared state lock
//! without touching the network.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use causal_dsm::CausalCluster;
use causal_spec::{check_causal, Execution};
use memcore::{Location, Recorder, SharedMemory, Word};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn loc(i: u32) -> Location {
    Location::new(i)
}

/// A value that counts its deep copies. The counter is process-global, so
/// every assertion about it lives in the single test below.
#[derive(Debug, Default)]
struct Counted(i64);

static CLONES: AtomicU64 = AtomicU64::new(0);

impl Clone for Counted {
    fn clone(&self) -> Self {
        CLONES.fetch_add(1, Ordering::Relaxed);
        Counted(self.0)
    }
}

fn clones() -> u64 {
    CLONES.load(Ordering::Relaxed)
}

#[test]
fn values_are_deep_copied_at_most_once_per_operation() {
    // Two nodes round-robin over 4 locations: node 0 owns even, node 1 odd.
    let cluster = CausalCluster::<Counted>::builder(2, 4).build().unwrap();
    let p0 = cluster.handle(0);
    let p1 = cluster.handle(1);

    // Owner-local write: the engine hands the value itself to the driver,
    // which moves it into the slot (into the slot's own cell when no one
    // else holds it) — zero deep copies.
    let before = clones();
    p0.write(loc(0), Counted(1)).unwrap();
    assert_eq!(clones() - before, 0, "owner-local write must not clone");

    // Remote write: the same Arc travels in the request, is installed at
    // the owner, and backs the writer's cached copy — still zero.
    let before = clones();
    p1.write(loc(0), Counted(2)).unwrap();
    assert_eq!(clones() - before, 0, "remote write must not clone");

    // Shared reads hand back the stored pointer itself.
    let before = clones();
    let a = p1.read_shared(loc(0)).unwrap();
    let b = p1.read_shared(loc(0)).unwrap();
    assert!(Arc::ptr_eq(&a, &b), "hits must share one allocation");
    assert_eq!(a.0, 2);
    assert_eq!(clones() - before, 0, "shared reads must not clone");

    // The by-value `SharedMemory::read` pays exactly the one clone its
    // signature requires — never more.
    let before = clones();
    assert_eq!(p1.read(loc(0)).unwrap().0, 2);
    assert_eq!(clones() - before, 1, "by-value read is exactly one clone");

    // A read miss ships the page over and caches it without copying.
    p1.write(loc(1), Counted(3)).unwrap();
    let before = clones();
    assert_eq!(p0.read_shared(loc(1)).unwrap().0, 3);
    assert_eq!(clones() - before, 0, "read miss must not clone");

    // With a recorder installed, the record's own copy is the single
    // permitted deep copy per operation.
    let recorder: Recorder<Counted> = Recorder::new(2);
    let recorded = CausalCluster::<Counted>::builder(2, 4)
        .recorder(recorder.clone())
        .build()
        .unwrap();
    let r0 = recorded.handle(0);
    let before = clones();
    r0.write(loc(0), Counted(9)).unwrap();
    assert_eq!(
        clones() - before,
        1,
        "recorded write clones once, for the record"
    );
    let before = clones();
    let _ = r0.read_shared(loc(0)).unwrap();
    assert_eq!(
        clones() - before,
        1,
        "recorded read clones once, for the record"
    );
}

#[test]
fn concurrent_hit_readers_share_the_lock_and_send_nothing() {
    // Node 0 owns the even locations; node 1 warms its cache (descending,
    // so no install's sweep invalidates an already-cached page), then four
    // reader threads hammer the cache while a fifth thread performs
    // owner-local writes on the same node — readers under the shared
    // lock, the writer under the exclusive one.
    let cluster = CausalCluster::<Word>::builder(2, 8).build().unwrap();
    let p0 = cluster.handle(0);
    let p1 = cluster.handle(1);
    for l in [0u32, 2, 4, 6] {
        p0.write(loc(l), Word::Int(i64::from(l))).unwrap();
    }
    for l in [6u32, 4, 2, 0] {
        assert_eq!(p1.read(loc(l)).unwrap(), Word::Int(i64::from(l)));
    }

    let msgs_before = cluster.messages().snapshot().total();
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let h = p1.clone();
            scope.spawn(move || {
                for i in 0..20_000usize {
                    let l = [0u32, 2, 4, 6][i % 4];
                    let v = h.read_shared(loc(l)).unwrap();
                    assert_eq!(*v, Word::Int(i64::from(l)));
                }
            });
        }
        let w = p1.clone();
        scope.spawn(move || {
            for v in 0..5_000 {
                // Node 1 owns the odd locations: these writes take the
                // exclusive lock but never cross the network.
                w.write(loc(1), Word::Int(v)).unwrap();
            }
        });
    });
    assert_eq!(
        cluster.messages().snapshot().total(),
        msgs_before,
        "cache hits and owner-local writes must not send messages"
    );
    assert_eq!(*p1.read_shared(loc(1)).unwrap(), Word::Int(4_999));
}

#[test]
fn a_failed_run_send_unregisters_the_whole_run() {
    // A failed send means the transport is gone, and no reply will ever
    // come for any pipelined write still in flight — including ones
    // already acknowledged to their callers. The whole run must be
    // unregistered, or a later flush() would wait forever.
    struct DropReplies;
    impl simnet::FaultHook for DropReplies {
        fn on_send(
            &self,
            _s: memcore::NodeId,
            _d: memcore::NodeId,
            kind: &'static str,
            _now: u64,
        ) -> simnet::SendFate {
            if kind == "W_REPLY" {
                simnet::SendFate::dropped()
            } else {
                simnet::SendFate::deliver()
            }
        }
    }
    let cluster = CausalCluster::<Word>::builder(2, 4)
        .configure(|c| c.pipeline_window(4))
        .build()
        .unwrap();
    cluster.set_fault_hook(Some(Arc::new(DropReplies)));
    let p0 = cluster.handle(0);
    // Location 1 is owned by node 1: both writes go out and stay in
    // flight, their replies lost.
    p0.write_pipelined(loc(1), Word::Int(1)).unwrap();
    p0.write_pipelined(loc(1), Word::Int(2)).unwrap();
    assert_eq!(cluster.pipeline_in_flight(0), 2);
    cluster.shutdown();

    let err = p0.write_pipelined(loc(1), Word::Int(3)).unwrap_err();
    assert!(matches!(err, memcore::MemoryError::Shutdown));
    assert_eq!(
        cluster.pipeline_in_flight(0),
        0,
        "the failed send must unregister the entire run"
    );
    p0.flush()
        .expect("rolled-back pipeline is idle; flush is a no-op");
}

#[test]
fn read_heavy_recorded_stress_satisfies_definition2() {
    // Read-mostly threads across all nodes, recorded and checked against
    // the executable causal specification — the oracle re-run against the
    // reader-writer-locked engine.
    for round in 0..2u64 {
        let recorder: Recorder<Word> = Recorder::new(3);
        let cluster = CausalCluster::<Word>::builder(3, 6)
            .recorder(recorder.clone())
            .build()
            .unwrap();
        std::thread::scope(|scope| {
            for node in 0..3u32 {
                let h = cluster.handle(node);
                scope.spawn(move || {
                    let mut rng = ChaCha8Rng::seed_from_u64(round * 100 + u64::from(node));
                    let mut counter = i64::from(node) * 1_000_000;
                    for _ in 0..300 {
                        let l = loc(rng.gen_range(0..6));
                        if rng.gen_range(0..10u8) < 8 {
                            h.read(l).unwrap();
                        } else {
                            counter += 1;
                            h.write(l, Word::Int(counter)).unwrap();
                        }
                    }
                });
            }
        });
        let exec = Execution::from_recorder(&recorder);
        let verdict = check_causal(&exec).expect("well formed");
        assert!(verdict.is_correct(), "round {round}:\n{verdict}");
    }
}
