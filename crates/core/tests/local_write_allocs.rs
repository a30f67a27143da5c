//! An owner-local write stores in place: once every owned slot holds a
//! value of its own, a write through a [`CausalCluster`] handle performs
//! no heap allocation at all. A slot whose value a reader still holds is
//! never overwritten — that write allocates exactly one fresh cell, and
//! the reader's `Arc` keeps reading the old value.
//!
//! The write runs on the calling thread, so the count is that thread's
//! own: the cluster's idle server threads may still be starting up (and
//! allocating) when the count begins. One test per binary all the same.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use causal_dsm::CausalCluster;
use memcore::{Location, SharedMemory, Word};

struct Counting;

thread_local! {
    // `const`-initialised and without a destructor, so the allocator can
    // touch it without allocating or re-entering itself.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: defers to the system allocator unchanged; only counts calls.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
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

const WRITES: i64 = 1_000;

/// Allocations made so far by the calling thread.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn owner_local_writes_store_in_place_unless_a_reader_holds_the_value() {
    // Two nodes round-robin over 8 locations: node 0 owns the even ones.
    let cluster = CausalCluster::<Word>::builder(2, 8).build().unwrap();
    let p0 = cluster.handle(0);
    let owned: Vec<Location> = [0u32, 2, 4, 6].map(Location::new).to_vec();
    // Warm-up: an initial page shares one value cell and one origin cell
    // across its slots, so each slot's first write gets cells of its own.
    for &loc in &owned {
        p0.write(loc, Word::Int(-1)).unwrap();
    }

    let before = allocs();
    for v in 0..WRITES {
        p0.write(owned[v as usize % owned.len()], Word::Int(v))
            .unwrap();
    }
    assert_eq!(
        allocs() - before,
        0,
        "an owner-local write into unshared cells allocates nothing"
    );

    // A held read result shares the value cell: the write must leave it
    // alone and install a fresh one — one allocation, the origin cell
    // still reused.
    let loc = owned[0];
    let mut held = p0.read_shared(loc).unwrap();
    for v in 0..WRITES {
        let old = *held;
        let before = allocs();
        p0.write(loc, Word::Int(WRITES + v)).unwrap();
        assert_eq!(
            allocs() - before,
            1,
            "a write under a held read allocates exactly one value cell"
        );
        assert_eq!(*held, old, "a reader's value never changes under it");
        held = p0.read_shared(loc).unwrap();
        assert_eq!(*held, Word::Int(WRITES + v));
    }
}
