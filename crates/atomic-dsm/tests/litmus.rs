//! Strong-consistency litmus tests for the atomic baseline (threaded
//! engine, acknowledged invalidation) — the properties that distinguish it
//! from the causal engine.

use atomic_dsm::{AtomicCluster, InvalMode};
use memcore::{Location, SharedMemory, Word};

fn loc(i: u32) -> Location {
    Location::new(i)
}

fn acked_cluster(nodes: u32, locations: u32) -> AtomicCluster<Word> {
    AtomicCluster::<Word>::builder(nodes, locations)
        .configure(|c| c.inval_mode(InvalMode::Acknowledged))
        .build()
        .expect("cluster")
}

#[test]
fn dekker_never_reads_two_zeros_with_acknowledged_invalidation() {
    // P0: w(x)1 r(y) ; P1: w(y)1 r(x). Under acknowledged invalidation a
    // write completes only after every cached copy is gone, so at least
    // one process must observe the other's write. (This is the SC outcome
    // the Figure-5 causal execution escapes.)
    for round in 0..200 {
        let cluster = acked_cluster(2, 2);
        let p0 = cluster.handle(0);
        let p1 = cluster.handle(1);
        // Warm both caches so invalidation is actually exercised.
        let _ = p0.read(loc(1)).unwrap();
        let _ = p1.read(loc(0)).unwrap();

        let (r0, r1) = std::thread::scope(|scope| {
            let t0 = scope.spawn(|| {
                p0.write(loc(0), Word::Int(1)).unwrap();
                p0.read(loc(1)).unwrap()
            });
            let t1 = scope.spawn(|| {
                p1.write(loc(1), Word::Int(1)).unwrap();
                p1.read(loc(0)).unwrap()
            });
            (t0.join().unwrap(), t1.join().unwrap())
        });
        assert!(
            !(r0 == Word::Zero && r1 == Word::Zero),
            "round {round}: both-zero outcome on atomic memory"
        );
    }
}

#[test]
fn reads_always_see_completed_writes() {
    // Once a write has *returned*, every subsequent read anywhere must see
    // it (or something newer): single-location linearizability.
    let cluster = acked_cluster(3, 1);
    let writer = cluster.handle(1);
    let readers = [cluster.handle(0), cluster.handle(2)];
    for v in 1..=50i64 {
        writer.write(loc(0), Word::Int(v)).unwrap();
        for r in &readers {
            let seen = r.read(loc(0)).unwrap().as_int().unwrap();
            assert!(seen >= v, "read {seen} after write {v} completed");
        }
    }
}

#[test]
fn copyset_churn_under_concurrent_readers_and_writer() {
    let cluster = acked_cluster(4, 1);
    // Populate the copyset up front so the first write must invalidate
    // (the threads below race arbitrarily).
    for node in 1..4u32 {
        let _ = cluster.handle(node).read(loc(0)).unwrap();
    }
    std::thread::scope(|scope| {
        for node in 1..4u32 {
            let h = cluster.handle(node);
            scope.spawn(move || {
                let mut last = 0;
                for _ in 0..200 {
                    let v = h.read(loc(0)).unwrap().as_int().unwrap();
                    assert!(v >= last, "monotone reads expected, {v} < {last}");
                    last = v;
                }
            });
        }
        let owner = cluster.handle(0);
        scope.spawn(move || {
            for v in 1..=100i64 {
                owner.write(loc(0), Word::Int(v)).unwrap();
            }
        });
    });
    assert!(cluster.total_invalidations() > 0);
}

#[test]
fn fire_and_forget_mode_still_converges_after_quiescence() {
    let cluster = AtomicCluster::<Word>::builder(2, 2)
        .build()
        .expect("cluster");
    let p0 = cluster.handle(0);
    let p1 = cluster.handle(1);
    let _ = p1.read(loc(0)).unwrap();
    p0.write(loc(0), Word::Int(9)).unwrap();
    // The invalidation is in flight; a fresh read is always correct.
    assert_eq!(p1.read_fresh(loc(0)).unwrap(), Word::Int(9));
    // And after the inval lands, even a cached read re-fetches.
    assert_eq!(
        p1.wait_until(loc(0), |v| *v == Word::Int(9)).unwrap(),
        Word::Int(9)
    );
}

#[test]
fn remote_writers_cache_their_writes() {
    let cluster = acked_cluster(2, 1);
    let p1 = cluster.handle(1);
    p1.write(loc(0), Word::Int(3)).unwrap();
    let before = cluster.messages().snapshot().total();
    assert_eq!(p1.read(loc(0)).unwrap(), Word::Int(3));
    assert_eq!(
        cluster.messages().snapshot().total(),
        before,
        "read-after-write hits the writer's cache"
    );
}

#[test]
fn page_mode_amortizes_fetches_and_false_shares() {
    let cluster = AtomicCluster::<Word>::builder(2, 8)
        .configure(|c| c.page_size(4).inval_mode(InvalMode::Acknowledged))
        .build()
        .expect("cluster");
    let p0 = cluster.handle(0);
    let p1 = cluster.handle(1);
    // P0 owns page 0 (locations 0..4).
    p0.write(loc(0), Word::Int(10)).unwrap();
    p0.write(loc(3), Word::Int(13)).unwrap();
    // One fetch caches the whole page at P1.
    assert_eq!(p1.read(loc(0)).unwrap(), Word::Int(10));
    let before = cluster.messages().snapshot().total();
    assert_eq!(p1.read(loc(3)).unwrap(), Word::Int(13));
    assert_eq!(cluster.messages().snapshot().total(), before);
    // False sharing: a write to ANY slot of the page invalidates P1's
    // whole copy.
    p0.write(loc(1), Word::Int(11)).unwrap();
    let before = cluster.messages().snapshot().total();
    assert_eq!(p1.read(loc(3)).unwrap(), Word::Int(13)); // refetch
    assert!(cluster.messages().snapshot().total() > before);
}

#[test]
fn messages_include_invalidation_traffic() {
    let cluster = acked_cluster(3, 1);
    let p1 = cluster.handle(1);
    let p2 = cluster.handle(2);
    let _ = p1.read(loc(0)).unwrap();
    let _ = p2.read(loc(0)).unwrap();
    let before = cluster.messages().snapshot();
    cluster.handle(0).write(loc(0), Word::Int(1)).unwrap();
    let delta = cluster.messages().snapshot().since(&before);
    // Two cached copies: two INVALs and two acks.
    assert_eq!(delta.kind_total("INVAL"), 2);
    assert_eq!(delta.kind_total("INVAL_ACK"), 2);
}
