//! Synchronization variables on causal memory.
//!
//! §4.1 remarks that "special synchronization variables such as semaphores
//! or event counts may be used on causal memory but we prefer a simpler
//! approach" (the coordinator handshake). This module builds the variables
//! the paper waves at — event counts and a decentralized barrier — on top
//! of the plain [`SharedMemory`] interface, and shows why they are sound
//! on causal memory:
//!
//! *When a waiter observes an event count at value `r`, the observation
//! reads-from the owner's `r`-th advance, so everything the owner did
//! before advancing causally precedes the observation* — and the causal
//! DSM's invalidation-on-introduction then guarantees the waiter cannot go
//! on to read any value those earlier writes overwrote. That is exactly
//! the (1)–(5) chain the paper builds for its handshake, packaged as a
//! reusable primitive.

use memcore::{Location, MemoryError, SharedMemory, Word};

/// An *event count*: a monotone counter owned by one process, awaited by
/// any number of others.
///
/// Only the owner should call [`EventCount::advance`] (the location should
/// be owned by the advancing node for the advance to be message-free, and
/// single-writer keeps the count monotone).
///
/// # Examples
///
/// ```
/// use causal_dsm::CausalCluster;
/// use dsm_apps::EventCount;
/// use memcore::{Location, Word};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cluster = CausalCluster::<Word>::builder(2, 2).build()?;
/// let ec_owner = EventCount::new(cluster.handle(0), Location::new(0));
/// let ec_waiter = EventCount::new(cluster.handle(1), Location::new(0));
///
/// ec_owner.advance()?; // free: P0 owns x0
/// assert_eq!(ec_waiter.await_at_least(1)?, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct EventCount<M> {
    mem: M,
    loc: Location,
}

impl<M: SharedMemory<Word>> EventCount<M> {
    /// Wraps the counter at `loc` (initially 0, the paper's initial
    /// value).
    #[must_use]
    pub fn new(mem: M, loc: Location) -> Self {
        EventCount { mem, loc }
    }

    /// The current value in this process's view.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    ///
    /// # Panics
    ///
    /// Panics if the location holds a non-integer.
    pub fn current(&self) -> Result<i64, MemoryError> {
        Ok(self
            .mem
            .read(self.loc)?
            .as_int()
            .expect("event counts are integers"))
    }

    /// Increments the count (owner only). Returns the new value.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    ///
    /// # Panics
    ///
    /// Panics if the location holds a non-integer.
    pub fn advance(&self) -> Result<i64, MemoryError> {
        let next = self.current()? + 1;
        self.mem.write(self.loc, Word::Int(next))?;
        Ok(next)
    }

    /// Blocks until the count reaches at least `target`, returning the
    /// observed value. Discards before re-reading, per the paper's
    /// liveness rule.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    ///
    /// # Panics
    ///
    /// Panics if the location holds a non-integer.
    pub fn await_at_least(&self, target: i64) -> Result<i64, MemoryError> {
        let observed = self.mem.wait_until(self.loc, move |v: &Word| {
            v.as_int().is_some_and(|c| c >= target)
        })?;
        Ok(observed.as_int().expect("event counts are integers"))
    }
}

/// A decentralized phase barrier: `n` participants, each owning one event
/// count in a contiguous block of locations; crossing the barrier means
/// advancing your own count and awaiting everyone else's.
///
/// Unlike the paper's coordinator handshake (8 messages per worker per
/// phase through a central process), the decentralized barrier costs each
/// participant `2(n − 1)` messages per crossing under ideal signaling and
/// has no central bottleneck. Its correctness argument is the same
/// causality chain, peer to peer.
///
/// # Examples
///
/// ```
/// use causal_dsm::CausalCluster;
/// use dsm_apps::CausalBarrier;
/// use memcore::{Location, Word};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cluster = CausalCluster::<Word>::builder(2, 2).build()?;
/// let mut barriers: Vec<_> = (0..2)
///     .map(|i| CausalBarrier::new(cluster.handle(i), Location::new(0), 2))
///     .collect();
/// let b1 = barriers.pop().unwrap();
/// let mut b0 = barriers.pop().unwrap();
/// let t = std::thread::spawn(move || {
///     let mut b1 = b1;
///     b1.enter().unwrap();
/// });
/// b0.enter()?;
/// t.join().unwrap();
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CausalBarrier<M> {
    mem: M,
    base: Location,
    n: usize,
    me: usize,
    round: i64,
}

impl<M: SharedMemory<Word>> CausalBarrier<M> {
    /// A barrier over the `n` counters at `base..base+n`; this process's
    /// counter is selected by its node index. Counter `base + i` must be
    /// owned by participant `i` for advances to be message-free.
    ///
    /// # Panics
    ///
    /// Panics if this process's node index is not below `n`.
    #[must_use]
    pub fn new(mem: M, base: Location, n: usize) -> Self {
        let me = mem.node().index();
        assert!(me < n, "node outside the barrier's participant set");
        CausalBarrier {
            mem,
            base,
            n,
            me,
            round: 0,
        }
    }

    fn counter(&self, i: usize) -> Location {
        Location::new(self.base.index() as u32 + i as u32)
    }

    /// Completed barrier rounds.
    #[must_use]
    pub fn round(&self) -> i64 {
        self.round
    }

    /// Crosses the barrier: announce arrival, await everyone.
    ///
    /// On return, every participant has entered round `self.round()`, and
    /// — by the causal chain through their counters — all their writes
    /// from before entering are causally visible here.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn enter(&mut self) -> Result<(), MemoryError> {
        self.round += 1;
        self.mem
            .write(self.counter(self.me), Word::Int(self.round))?;
        for i in 0..self.n {
            if i == self.me {
                continue;
            }
            let target = self.round;
            self.mem.wait_until(self.counter(i), move |v: &Word| {
                v.as_int().is_some_and(|c| c >= target)
            })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use causal_dsm::CausalCluster;
    use memcore::NodeId;

    #[test]
    fn event_count_advances_and_wakes_waiters() {
        let cluster = CausalCluster::<Word>::builder(2, 2).build().unwrap();
        let owner = EventCount::new(cluster.handle(0), Location::new(0));
        let waiter = EventCount::new(cluster.handle(1), Location::new(0));
        assert_eq!(owner.current().unwrap(), 0);

        std::thread::scope(|scope| {
            scope.spawn(|| {
                for _ in 0..5 {
                    owner.advance().unwrap();
                }
            });
            scope.spawn(|| {
                assert!(waiter.await_at_least(5).unwrap() >= 5);
            });
        });
    }

    #[test]
    fn owner_advances_are_message_free() {
        let cluster = CausalCluster::<Word>::builder(2, 2).build().unwrap();
        let owner = EventCount::new(cluster.handle(0), Location::new(0));
        for _ in 0..10 {
            owner.advance().unwrap();
        }
        assert_eq!(cluster.messages().snapshot().total(), 0);
    }

    #[test]
    fn barrier_makes_pre_barrier_writes_visible() {
        // The §4.1 argument, decentralized: after crossing the barrier,
        // each participant must observe the others' pre-barrier writes.
        const N: usize = 3;
        const ROUNDS: i64 = 10;
        // Layout: counters at 0..3 (owned by their nodes, round-robin),
        // data at 3..6 (data[i] = loc 3+i, owned by node (3+i)%3 = i).
        let cluster = CausalCluster::<Word>::builder(N as u32, 6).build().unwrap();
        std::thread::scope(|scope| {
            for node in 0..N as u32 {
                let handle = cluster.handle(node);
                scope.spawn(move || {
                    let data = |i: usize| Location::new(3 + i as u32);
                    let mut barrier = CausalBarrier::new(handle.clone(), Location::new(0), N);
                    for round in 1..=ROUNDS {
                        handle.write(data(node as usize), Word::Int(round)).unwrap();
                        barrier.enter().unwrap();
                        for peer in 0..N {
                            let seen = handle.read_fresh(data(peer)).unwrap().as_int().unwrap();
                            assert!(
                                seen >= round,
                                "node {node} round {round}: peer {peer} shows {seen}"
                            );
                        }
                    }
                    assert_eq!(barrier.round(), ROUNDS);
                });
            }
        });
    }

    #[test]
    #[should_panic(expected = "outside the barrier")]
    fn barrier_rejects_foreign_nodes() {
        let cluster = CausalCluster::<Word>::builder(3, 3).build().unwrap();
        let handle = cluster.handle(2);
        let _ = CausalBarrier::new(handle, Location::new(0), 2);
    }

    #[test]
    fn event_count_works_on_atomic_memory_too() {
        // The primitives are SharedMemory-generic, per the paper's theme.
        use atomic_dsm::{AtomicCluster, InvalMode};
        let cluster = AtomicCluster::<Word>::builder(2, 2)
            .configure(|c| c.inval_mode(InvalMode::Acknowledged))
            .build()
            .unwrap();
        let owner = EventCount::new(cluster.handle(0), Location::new(0));
        let waiter = EventCount::new(cluster.handle(1), Location::new(0));
        owner.advance().unwrap();
        owner.advance().unwrap();
        assert!(waiter.await_at_least(2).unwrap() >= 2);
        let _ = NodeId::new(0);
    }
}
