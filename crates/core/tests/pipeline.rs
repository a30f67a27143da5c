//! The bounded write pipeline: window backpressure, the flush barrier,
//! automatic draining before operations that would leak in-flight
//! increments, and transport batching — all checked against the
//! executable causal specification where it matters.

use causal_dsm::CausalCluster;
use causal_spec::{check_causal, Execution};
use memcore::{kinds, Location, Recorder, SharedMemory, Word};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn loc(i: u32) -> Location {
    Location::new(i)
}

#[test]
fn window_zero_is_the_blocking_protocol() {
    // Defaults leave the pipeline off; write_pipelined must then be the
    // ordinary blocking write — same messages, nothing outstanding.
    let cluster = CausalCluster::<Word>::builder(2, 4).build().unwrap();
    let p0 = cluster.handle(0);
    p0.write_pipelined(loc(1), Word::Int(5)).unwrap();
    assert_eq!(cluster.pipeline_in_flight(0), 0);
    let snap = cluster.messages().snapshot();
    assert_eq!(snap.kind_total("WRITE"), 1);
    assert_eq!(snap.kind_total("W_REPLY"), 1);
    p0.flush().unwrap();
    assert_eq!(*p0.read_shared(loc(1)).unwrap(), Word::Int(5));
}

#[test]
fn pipelined_writes_complete_and_flush_is_a_barrier() {
    // Node 0 pipelines a burst of writes to node 1's locations; flush()
    // must not return before every reply is absorbed into VT_0.
    let cluster = CausalCluster::<Word>::builder(2, 4)
        .configure(|c| c.pipeline_window(4))
        .build()
        .unwrap();
    let p0 = cluster.handle(0);
    let p1 = cluster.handle(1);
    for i in 0..20 {
        let wid = p0.write_pipelined(loc(1), Word::Int(i)).unwrap();
        assert_eq!(wid.writer(), Some(memcore::NodeId::new(0)));
        assert!(
            cluster.pipeline_in_flight(0) <= 4,
            "the window must cap in-flight writes"
        );
    }
    p0.flush().unwrap();
    assert_eq!(cluster.pipeline_in_flight(0), 0);
    assert_eq!(*p1.read_shared(loc(1)).unwrap(), Word::Int(19));
    assert_eq!(*p0.read_shared(loc(1)).unwrap(), Word::Int(19));
    // All 20 writes crossed the wire individually (no batching here).
    let snap = cluster.messages().snapshot();
    assert_eq!(snap.kind_total("WRITE"), 20);
    assert_eq!(snap.kind_total("W_REPLY"), 20);
}

#[test]
fn pipeline_drains_before_unsafe_operations() {
    // Interleave pipelined writes with each operation class that forces a
    // drain (owner-local write, write to a different owner, read miss on
    // the pipeline owner's pages) and check the full run against
    // Definition 2 — with a recorder installed so the oracle sees it all.
    for (window, batching) in [(4u32, false), (4, true), (32, true)] {
        let recorder: Recorder<Word> = Recorder::new(3);
        let cluster = CausalCluster::<Word>::builder(3, 6)
            .configure(|c| c.pipeline_window(window).batching(batching))
            .recorder(recorder.clone())
            .build()
            .unwrap();
        std::thread::scope(|scope| {
            for node in 0..3u32 {
                let h = cluster.handle(node);
                scope.spawn(move || {
                    let mut rng = ChaCha8Rng::seed_from_u64(u64::from(node) + 17);
                    let mut counter = i64::from(node) * 1_000_000;
                    for _ in 0..250 {
                        let l = loc(rng.gen_range(0..6));
                        match rng.gen_range(0..10u8) {
                            0..=3 => {
                                h.read(l).unwrap();
                            }
                            4..=7 => {
                                counter += 1;
                                h.write_pipelined(l, Word::Int(counter)).unwrap();
                            }
                            8 => {
                                counter += 1;
                                h.write(l, Word::Int(counter)).unwrap();
                            }
                            _ => h.flush().unwrap(),
                        }
                    }
                    h.flush().unwrap();
                });
            }
        });
        let exec = Execution::from_recorder(&recorder);
        let verdict = check_causal(&exec).expect("well formed");
        assert!(
            verdict.is_correct(),
            "window={window} batching={batching}:\n{verdict}"
        );
    }
}

#[test]
fn batching_coalesces_envelopes_but_not_logical_counts() {
    // The same pipelined burst with batching off and on: identical
    // logical per-kind counters (the ablation contract), strictly fewer
    // physical envelopes when batching.
    let run = |batching: bool| {
        let cluster = CausalCluster::<Word>::builder(2, 4)
            .configure(|c| c.pipeline_window(8).batching(batching))
            .build()
            .unwrap();
        let p0 = cluster.handle(0);
        for i in 0..64 {
            p0.write_pipelined(loc(1), Word::Int(i)).unwrap();
        }
        p0.flush().unwrap();
        assert_eq!(*p0.read_shared(loc(1)).unwrap(), Word::Int(63));
        (
            cluster.messages().snapshot(),
            cluster.envelopes().snapshot(),
        )
    };

    let (plain_msgs, plain_envs) = run(false);
    let (batched_msgs, batched_envs) = run(true);

    assert_eq!(
        plain_msgs.by_kind(),
        batched_msgs.by_kind(),
        "batching must be invisible to the logical counters"
    );
    assert_eq!(plain_envs.total(), plain_msgs.total());
    assert!(
        batched_envs.total() < batched_msgs.total(),
        "batching must coalesce envelopes: {} physical vs {} logical",
        batched_envs.total(),
        batched_msgs.total()
    );
    assert!(
        batched_envs.kind_total(kinds::BATCH) > 0,
        "coalesced runs are counted under the BATCH kind"
    );
}

#[test]
fn local_fast_path_and_pipeline_race_without_deadlock() {
    // The owner-local write fast path checks pipeline idleness and steps
    // the state under one driver borrow (no TOCTOU with write_pipelined's
    // VT tick). Hammer the two paths from separate handles of the same
    // node — no recorder, so the fast path is live — while a third node
    // reads both pages, to exercise the locks under contention.
    let cluster = CausalCluster::<Word>::builder(3, 6)
        .configure(|c| c.pipeline_window(8).batching(true))
        .build()
        .unwrap();
    const N: i64 = 2_000;
    std::thread::scope(|scope| {
        let pipeliner = cluster.handle(0);
        scope.spawn(move || {
            for i in 0..N {
                // Page owned by node 1: goes through the pipeline.
                pipeliner.write_pipelined(loc(1), Word::Int(i)).unwrap();
            }
            pipeliner.flush().unwrap();
        });
        let local = cluster.handle(0);
        scope.spawn(move || {
            for i in 0..N {
                // Page owned by node 0: eligible for the fast path.
                local.write(loc(0), Word::Int(i)).unwrap();
            }
        });
        let reader = cluster.handle(2);
        scope.spawn(move || {
            for _ in 0..200 {
                reader.read(loc(0)).unwrap();
                reader.read(loc(1)).unwrap();
                reader.discard(loc(0));
                reader.discard(loc(1));
            }
        });
    });
    let p0 = cluster.handle(0);
    p0.flush().unwrap();
    assert_eq!(cluster.pipeline_in_flight(0), 0);
    assert_eq!(*p0.read_shared(loc(0)).unwrap(), Word::Int(N - 1));
    assert_eq!(
        *cluster.handle(1).read_shared(loc(1)).unwrap(),
        Word::Int(N - 1)
    );
}

#[test]
fn same_owner_blocking_write_rides_behind_the_pipeline() {
    // A blocking write to the pipeline's owner does not drain the window
    // (FIFO keeps it ordered); its reply must still find its way back to
    // the blocked application rather than being absorbed.
    let cluster = CausalCluster::<Word>::builder(2, 4)
        .configure(|c| c.pipeline_window(8).batching(true))
        .build()
        .unwrap();
    let p0 = cluster.handle(0);
    for i in 0..5 {
        p0.write_pipelined(loc(1), Word::Int(i)).unwrap();
    }
    p0.write(loc(1), Word::Int(100)).unwrap();
    p0.flush().unwrap();
    assert_eq!(*p0.read_shared(loc(1)).unwrap(), Word::Int(100));
    assert_eq!(
        *cluster.handle(1).read_shared(loc(1)).unwrap(),
        Word::Int(100)
    );
}

#[test]
fn sends_to_one_owner_leave_in_driver_order_from_either_thread() {
    // Two threads put node 0's WRITEs on the link to node 1: the handle
    // (a run issued on an idle wire, a full run, a flush) and node 0's
    // server thread (the run that accumulated during a round trip, shipped
    // when the reply drains the wire). Whichever thread sends, envelopes
    // must leave in the order the driver decided them, or a later write
    // overtakes an earlier one. The script writes x1 := k then x3 := k; a
    // reader on the owner — both locations are its own, so its reads are
    // local — must therefore never see x3 ahead of x1.
    let cluster = CausalCluster::<Word>::builder(2, 4)
        .configure(|c| c.pipeline_window(8).batching(true))
        .build()
        .unwrap();
    const N: i64 = 5_000;
    std::thread::scope(|scope| {
        let writer = cluster.handle(0);
        scope.spawn(move || {
            for k in 1..=N {
                writer.write_pipelined(loc(1), Word::Int(k)).unwrap();
                writer.write_pipelined(loc(3), Word::Int(k)).unwrap();
            }
            writer.flush().unwrap();
        });
        let reader = cluster.handle(1);
        scope.spawn(move || loop {
            let Word::Int(later) = *reader.read_shared(loc(3)).unwrap() else {
                continue;
            };
            let earlier = match *reader.read_shared(loc(1)).unwrap() {
                Word::Int(k) => k,
                _ => 0,
            };
            assert!(
                earlier >= later,
                "x3 = {later} was installed before x1 = {later} (x1 = {earlier})"
            );
            if later == N {
                break;
            }
        });
    });
}
