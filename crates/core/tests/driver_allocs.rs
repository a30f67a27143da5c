//! The driver's hot path allocates nothing of its own: with failover and
//! batching off, a blocking round trip through two
//! [`NodeDriver`]s and a reused [`Effects`] buffer performs exactly the
//! heap allocations the bare [`CausalState`] steps underneath perform.
//! (The driver cannot read a clock or build an `OpRecord` at all — it
//! imports neither — and value copies are counted by `hot_path.rs`.)
//!
//! One test per binary: the counter is process-global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use causal_dsm::{CausalConfig, CausalState, Done, Effects, NodeDriver, Op, ReadStep, WriteStep};
use memcore::{Location, NodeId, Word};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers to the system allocator unchanged; only counts calls.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const ROUNDS: i64 = 200;

fn loc(i: u32) -> Location {
    Location::new(i)
}

fn states() -> (CausalState<Word>, CausalState<Word>) {
    let config = CausalConfig::<Word>::builder(2, 4).build();
    (
        CausalState::new(NodeId::new(0), config.clone()),
        CausalState::new(NodeId::new(1), config),
    )
}

/// Node 1 writes x0 (node 0's) and re-reads x2 (node 0's) each round.
fn bare_states() -> u64 {
    let (mut owner, mut client) = states();
    // The same warm-up read as below, so both sides start equally warm.
    let ReadStep::Miss { request, .. } = client.begin_read(loc(0)) else {
        unreachable!()
    };
    let reply = owner.serve(NodeId::new(1), request).unwrap();
    client.finish_read(loc(0), reply);
    let before = ALLOCS.load(Ordering::Relaxed);
    for k in 0..ROUNDS {
        let value = Arc::new(Word::Int(k));
        let WriteStep::Remote { wid, request, .. } =
            client.begin_write_shared(loc(0), Arc::clone(&value))
        else {
            unreachable!()
        };
        let reply = owner.serve(NodeId::new(1), request).unwrap();
        client.finish_write(value, wid, reply);
        client.discard(loc(2));
        let ReadStep::Miss { request, .. } = client.begin_read(loc(2)) else {
            unreachable!()
        };
        let reply = owner.serve(NodeId::new(1), request).unwrap();
        client.finish_read(loc(2), reply);
    }
    ALLOCS.load(Ordering::Relaxed) - before
}

fn through_drivers() -> u64 {
    let (owner, client) = states();
    let (mut owner, mut client) = (NodeDriver::new(owner), NodeDriver::new(client));
    let mut fx = Effects::default();
    // One request/reply hop: client → owner → client.
    let mut round_trip = |client: &mut NodeDriver<Word>, fx: &mut Effects<Word>| {
        let (_, request) = fx.sends.pop().expect("a request");
        owner.deliver(0, NodeId::new(1), request, fx);
        let (_, reply) = fx.sends.pop().expect("a reply");
        client.deliver(0, NodeId::new(0), reply, fx);
        assert!(matches!(
            fx.done.take(),
            Some(Done::Read { .. } | Done::Wrote { .. })
        ));
    };
    // Let the reused buffer reach its steady capacity first.
    client.submit(0, Op::Read(loc(0)), &mut fx);
    round_trip(&mut client, &mut fx);
    let before = ALLOCS.load(Ordering::Relaxed);
    for k in 0..ROUNDS {
        client.submit(0, Op::Write(loc(0), Arc::new(Word::Int(k))), &mut fx);
        round_trip(&mut client, &mut fx);
        client.submit(0, Op::ReadFresh(loc(2)), &mut fx);
        round_trip(&mut client, &mut fx);
    }
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn the_driver_allocates_nothing_the_state_does_not() {
    let bare = bare_states();
    let driven = through_drivers();
    assert!(bare > 0, "the counter is not counting");
    assert_eq!(
        driven, bare,
        "{ROUNDS} round-trip pairs: {driven} allocations through the driver, {bare} without"
    );
}
