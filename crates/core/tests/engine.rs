//! Threaded-engine integration tests for the causal DSM, including
//! pipelined writes, page granularity, write policies and
//! multi-threaded stress checked against the executable specification.

use causal_dsm::{CausalCluster, InvalidationMode, WritePolicy};
use causal_spec::{check_causal, Execution};
use memcore::{ExplicitOwners, Location, MemoryError, NodeId, Recorder, SharedMemory, Word};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn loc(i: u32) -> Location {
    Location::new(i)
}

#[test]
fn reads_and_writes_flow_between_nodes() {
    let cluster = CausalCluster::<Word>::builder(4, 8).build().unwrap();
    let handles = cluster.handles();
    for (i, h) in handles.iter().enumerate() {
        h.write(loc(i as u32), Word::Int(i as i64 * 10)).unwrap();
    }
    for h in &handles {
        for i in 0..4u32 {
            assert_eq!(h.read(loc(i)).unwrap(), Word::Int(i64::from(i) * 10));
        }
    }
}

#[test]
fn out_of_range_locations_error() {
    let cluster = CausalCluster::<Word>::builder(2, 4).build().unwrap();
    let h = cluster.handle(0);
    assert!(matches!(
        h.read(loc(4)),
        Err(MemoryError::OutOfRange { .. })
    ));
    assert!(matches!(
        h.write(loc(99), Word::Int(1)),
        Err(MemoryError::OutOfRange { .. })
    ));
    h.discard(loc(99)); // must not panic
}

#[test]
fn pipelined_write_reads_its_own_value_immediately() {
    let cluster = CausalCluster::<Word>::builder(2, 2)
        .configure(|c| c.pipeline_window(4))
        .build()
        .unwrap();
    let p1 = cluster.handle(1);
    // x0 is owned by P0: this is a remote write, complete at issue.
    let wid = p1.write_pipelined(loc(0), Word::Int(5)).unwrap();
    assert_eq!(wid.writer(), Some(NodeId::new(1)));
    // Program order: our own read sees the optimistic value at once.
    assert_eq!(p1.read(loc(0)).unwrap(), Word::Int(5));
    // The owner eventually installs it; a fresh read agrees.
    assert_eq!(
        p1.wait_until(loc(0), |v| *v == Word::Int(5)).unwrap(),
        Word::Int(5)
    );
    let p0 = cluster.handle(0);
    assert_eq!(
        p0.wait_until(loc(0), |v| *v == Word::Int(5)).unwrap(),
        Word::Int(5)
    );
}

#[test]
fn pipelined_writes_preserve_per_owner_order() {
    let cluster = CausalCluster::<Word>::builder(2, 2)
        .configure(|c| c.pipeline_window(8))
        .build()
        .unwrap();
    let p1 = cluster.handle(1);
    for v in 1..=100i64 {
        p1.write_pipelined(loc(0), Word::Int(v)).unwrap();
    }
    // FIFO to the owner: the last write wins there.
    let p0 = cluster.handle(0);
    assert_eq!(
        p0.wait_until(loc(0), |v| *v == Word::Int(100)).unwrap(),
        Word::Int(100)
    );
    // And the writer's view agrees, having waited only for window slots.
    assert_eq!(p1.read(loc(0)).unwrap(), Word::Int(100));
}

#[test]
fn blocking_op_stress_satisfies_definition2() {
    for round in 0..3u64 {
        let recorder: Recorder<Word> = Recorder::new(3);
        let cluster = CausalCluster::<Word>::builder(3, 6)
            .recorder(recorder.clone())
            .build()
            .unwrap();
        std::thread::scope(|scope| {
            for node in 0..3u32 {
                let h = cluster.handle(node);
                scope.spawn(move || {
                    let mut rng = ChaCha8Rng::seed_from_u64(round * 10 + u64::from(node));
                    let mut counter = i64::from(node) * 1_000_000;
                    for _ in 0..150 {
                        let l = loc(rng.gen_range(0..6));
                        match rng.gen_range(0..3u8) {
                            0 => {
                                h.read(l).unwrap();
                            }
                            1 => {
                                h.read_fresh(l).unwrap();
                            }
                            _ => {
                                counter += 1;
                                h.write(l, Word::Int(counter)).unwrap();
                            }
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

#[test]
fn page_mode_on_the_threaded_engine() {
    let cluster = CausalCluster::<Word>::builder(2, 16)
        .configure(|c| c.page_size(4))
        .build()
        .unwrap();
    let p0 = cluster.handle(0);
    let p1 = cluster.handle(1);
    // P0 owns pages 0 and 2 (round-robin): locations 0..4 and 8..12.
    p0.write(loc(1), Word::Int(11)).unwrap();
    p0.write(loc(2), Word::Int(22)).unwrap();
    // One fetch brings the whole page to P1.
    assert_eq!(p1.read(loc(1)).unwrap(), Word::Int(11));
    let before = cluster.messages().snapshot().total();
    assert_eq!(p1.read(loc(2)).unwrap(), Word::Int(22));
    assert_eq!(
        cluster.messages().snapshot().total(),
        before,
        "second read of the same page must be a cache hit"
    );
}

#[test]
fn write_resolved_reports_rejections() {
    let owners = ExplicitOwners::new(2, 1, vec![NodeId::new(0)]);
    let cluster = CausalCluster::<Word>::builder(2, 1)
        .configure(|c| c.owners(owners).policy(WritePolicy::OwnerFavored))
        .build()
        .unwrap();
    let p0 = cluster.handle(0);
    let p1 = cluster.handle(1);
    p0.write(loc(0), Word::Int(1)).unwrap();
    // P1 writes without having seen P0's value: concurrent, rejected.
    let done = p1.write_resolved(loc(0), Word::Int(2)).unwrap();
    assert!(!done.is_applied());
    // P1's cache converged to the surviving value.
    assert_eq!(p1.read(loc(0)).unwrap(), Word::Int(1));
    // Once P1 has seen the current value, its write is causally later and
    // must be applied.
    let done = p1.write_resolved(loc(0), Word::Int(3)).unwrap();
    assert!(done.is_applied());
    assert_eq!(p0.read(loc(0)).unwrap(), Word::Int(3));
}

#[test]
fn invalidation_counters_are_exposed() {
    let cluster = CausalCluster::<Word>::builder(2, 4)
        .configure(|c| c.invalidation(InvalidationMode::WriterInvalidate))
        .build()
        .unwrap();
    let p0 = cluster.handle(0);
    let p1 = cluster.handle(1);
    p0.write(loc(0), Word::Int(1)).unwrap();
    let _ = p1.read(loc(0)).unwrap(); // P1 caches x0
    p0.write(loc(0), Word::Int(2)).unwrap();
    p0.write(loc(2), Word::Int(9)).unwrap(); // stamps x2 above x0's copy
    let _ = p1.read(loc(2)).unwrap(); // dominating fetch sweeps the cache
    assert!(cluster.total_invalidations() >= 1);
}

#[test]
fn without_discard_silent_partners_never_communicate() {
    // The paper's liveness remark: "Without discard two processors that
    // initially cache all locations and only write locations owned by
    // them need never communicate."
    let cluster = CausalCluster::<Word>::builder(2, 2).build().unwrap();
    let p0 = cluster.handle(0);
    let p1 = cluster.handle(1);
    // Initially cache all locations.
    let _ = p0.read(loc(1)).unwrap();
    let _ = p1.read(loc(0)).unwrap();
    let warm = cluster.messages().snapshot().total();

    // Each only writes its own location and reads whatever it has.
    for v in 1..=20i64 {
        p0.write(loc(0), Word::Int(v)).unwrap();
        p1.write(loc(1), Word::Int(v)).unwrap();
        assert_eq!(p0.read(loc(1)).unwrap(), Word::Zero, "stale forever");
        assert_eq!(p1.read(loc(0)).unwrap(), Word::Zero, "stale forever");
    }
    assert_eq!(
        cluster.messages().snapshot().total(),
        warm,
        "no communication without discard"
    );

    // One discard restores liveness.
    p0.discard(loc(1));
    assert_eq!(p0.read(loc(1)).unwrap(), Word::Int(20));
}

#[test]
fn node_timestamps_are_observable() {
    let cluster = CausalCluster::<Word>::builder(2, 2).build().unwrap();
    let p0 = cluster.handle(0);
    assert!(cluster.node_vt(0).is_zero());
    p0.write(loc(0), Word::Int(1)).unwrap();
    p0.write(loc(0), Word::Int(2)).unwrap();
    assert_eq!(cluster.node_vt(0).get(0), 2);
    // P1 learns P0's history through a read.
    let p1 = cluster.handle(1);
    let _ = p1.read(loc(0)).unwrap();
    assert_eq!(cluster.node_vt(1).get(0), 2);
}

#[test]
fn concurrent_handles_for_one_node_serialize_into_program_order() {
    // Two threads share P1's identity; the op lock must serialize them so
    // the recorded log is a single coherent program order that passes the
    // checker.
    let recorder: Recorder<Word> = Recorder::new(2);
    let cluster = CausalCluster::<Word>::builder(2, 4)
        .recorder(recorder.clone())
        .build()
        .unwrap();
    let a = cluster.handle(1);
    let b = a.clone();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for v in 0..100 {
                a.write(loc(0), Word::Int(v)).unwrap();
                a.read(loc(0)).unwrap();
            }
        });
        scope.spawn(move || {
            for v in 100..200 {
                b.write(loc(2), Word::Int(v)).unwrap();
                b.read(loc(2)).unwrap();
            }
        });
    });
    let exec = Execution::from_recorder(&recorder);
    assert_eq!(exec.process(1).len(), 400);
    let verdict = check_causal(&exec).expect("well formed");
    assert!(verdict.is_correct(), "{verdict}");
}

#[test]
fn handles_are_clone_and_debug() {
    let cluster = CausalCluster::<Word>::builder(2, 2).build().unwrap();
    let h = cluster.handle(1);
    let h2 = h.clone();
    assert_eq!(format!("{h2:?}"), "CausalHandle(P1)");
    assert!(format!("{cluster:?}").contains("CausalCluster"));
    assert_eq!(h2.node(), NodeId::new(1));
}

#[test]
fn only_hosted_nodes_exist() {
    let cluster = CausalCluster::<Word>::builder(3, 6)
        .hosting(&[NodeId::new(1)])
        .build()
        .unwrap();
    assert_eq!(cluster.handles().len(), 1);
    assert_eq!(cluster.handle(1).node(), NodeId::new(1));
    assert!(cluster.node_vt(1).is_zero());
    // No pristine stand-ins are reported for nodes hosted elsewhere…
    assert_eq!(cluster.snapshot().vts.len(), 1);
    // …and asking for one fails the way `handle` does.
    let asked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cluster.node_vt(0)));
    let msg = *asked.unwrap_err().downcast::<String>().unwrap();
    assert_eq!(msg, "node 0 is not hosted by this process");
}
