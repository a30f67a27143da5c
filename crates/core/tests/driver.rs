//! [`NodeDriver`] unit tests: the policy both runtimes share, driven
//! directly — no threads, no sleeps, time is whatever the test says.

use std::collections::VecDeque;
use std::sync::Arc;

use causal_dsm::{
    CausalConfig, CausalConfigBuilder, CausalState, Done, DurableConfig, Effects, FailoverConfig,
    MemDisk, Msg, NodeDriver, Op,
};
use memcore::{Location, MemoryError, NodeId, OwnerEpoch, PageId, Word};

fn loc(i: u32) -> Location {
    Location::new(i)
}

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

fn word(v: i64) -> Arc<Word> {
    Arc::new(Word::Int(v))
}

/// One driver per node of a cluster with as many locations as `3 × nodes`
/// (round-robin: location `i` is owned by node `i mod nodes`).
fn drivers(
    nodes: u32,
    f: impl FnOnce(CausalConfigBuilder<Word>) -> CausalConfigBuilder<Word>,
) -> Vec<NodeDriver<Word>> {
    let config = f(CausalConfig::<Word>::builder(nodes, 3 * nodes)).build();
    (0..nodes)
        .map(|i| NodeDriver::new(CausalState::new(n(i), config.clone())))
        .collect()
}

/// What one driver call asked for: its sends and its completion.
type Asked = (Vec<(NodeId, Msg<Word>)>, Option<Done<Word>>);

/// Runs one driver call and returns what it asked for.
fn call(f: impl FnOnce(&mut Effects<Word>)) -> Asked {
    let mut fx = Effects::default();
    f(&mut fx);
    (fx.sends, fx.done)
}

/// Delivers `msg` from `from` to `to` and returns `to`'s effects.
fn deliver(d: &mut [NodeDriver<Word>], now: u64, from: u32, to: u32, msg: Msg<Word>) -> Asked {
    call(|fx| d[to as usize].deliver(now, n(from), msg, fx))
}

fn fast_failover(max_retries: u32) -> FailoverConfig {
    FailoverConfig {
        heartbeat_interval: 10,
        suspicion_threshold: 2,
        backoff_base: 1,
        backoff_max: 8,
        max_retries,
    }
}

#[test]
fn owner_local_write_after_an_epoch_adoption_goes_remote() {
    // The fast path's old TOCTOU: ownership decided under one lock
    // acquisition, the write stepped under another, an epoch adoption in
    // between. The driver classifies and steps under one borrow, so the
    // write of a page that just migrated away simply goes to its new
    // owner.
    let mut d = drivers(3, |c| c.failover(fast_failover(8)));
    let page = PageId::new(0);
    assert!(d[0].state().owns(loc(0)));
    // Node 0 is educated (a NACK, a SUSPECT) that page 0 moved on.
    d[0].state_mut().observe_epoch(page, OwnerEpoch::new(1));

    let (sends, _) = call(|fx| {
        let back = d[0]
            .write_local(loc(0), Word::Int(7), fx)
            .expect_err("no longer the owner");
        d[0].submit(0, Op::Write(loc(0), Arc::new(back)), fx);
    });
    match &sends[..] {
        [(dst, Msg::Stamped { epoch, inner, .. })] => {
            assert_eq!(*dst, n(1), "the write goes to the page's new owner");
            assert_eq!(*epoch, OwnerEpoch::new(1));
            assert!(matches!(**inner, Msg::Write { .. }));
        }
        other => panic!("expected one stamped WRITE, got {other:?}"),
    }
}

#[test]
fn an_opened_driver_has_synced_the_certification_when_it_returns_the_reply() {
    // Journal before reply as a property of the driver, whatever executes
    // it: no engine, no threads, two calls.
    let config = CausalConfig::<Word>::builder(2, 6)
        .durability(DurableConfig::default())
        .build();
    let disks = [MemDisk::new(), MemDisk::new()];
    let mut d: Vec<_> = (0..2)
        .map(|i| NodeDriver::open(n(i), config.clone(), Box::new(disks[i as usize].clone())))
        .collect();
    // Node 1 writes x0, which node 0 owns.
    let (mut sends, done) = call(|fx| d[1].submit(0, Op::Write(loc(0), word(5)), fx));
    assert!(done.is_none());
    let (to, request) = sends.pop().expect("a WRITE goes out");
    assert_eq!(to, n(0));
    let (log, synced) = (disks[0].log_len(), disks[0].synced_len());

    let (replies, _) = deliver(&mut d, 1, 1, 0, request);
    assert!(
        matches!(&replies[..], [(to, Msg::WriteReply { .. })] if *to == n(1)),
        "expected one W_REPLY to node 1, got {replies:?}"
    );
    assert!(disks[0].log_len() > log, "the certification was journaled");
    assert!(disks[0].synced_len() > synced, "and synced");
    assert_eq!(
        disks[0].synced_len(),
        disks[0].log_len(),
        "nothing of the call is left unsynced when the reply is handed over"
    );
}

#[test]
fn stale_reply_after_a_give_up_is_discarded_not_misattributed() {
    // No retries: the first expired attempt gives up.
    let mut d = drivers(3, |c| c.failover(fast_failover(0)));
    // Node 1 reads x0 (owned by node 0); the request is "lost".
    let (sends, done) = call(|fx| d[1].submit(0, Op::Read(loc(0)), fx));
    assert!(done.is_none());
    let (_, read) = sends.into_iter().next().expect("a READ goes out");
    // Its attempt expires: node 0 is suspected and the read gives up.
    let (now, done) = loop {
        let now = d[1].next_timer().expect("an attempt is always timed");
        let (_, done) = call(|fx| d[1].on_timer(now, fx));
        if let Some(done) = done {
            break (now, done);
        }
        assert!(now < 10_000, "the attempt never expired");
    };
    match done {
        Done::Failed(MemoryError::Timeout { owner }) => assert_eq!(owner, n(0)),
        other => panic!("expected a timeout, got {other:?}"),
    }

    // The next operation: a write to x2, node 2's.
    let (sends, done) = call(|fx| d[1].submit(now, Op::Write(loc(2), word(5)), fx));
    assert!(done.is_none());
    let (to, write) = sends.into_iter().next().expect("a WRITE goes out");
    assert_eq!(to, n(2));
    // Node 0 finally answers the *old* read: the late R_REPLY must not
    // complete (or corrupt) the write that is now pending.
    let (replies, _) = deliver(&mut d, now + 1, 1, 0, read);
    let (_, late) = replies.into_iter().next().expect("owner replies");
    let (sends, done) = deliver(&mut d, now + 2, 0, 1, late);
    assert!(sends.is_empty() && done.is_none(), "stale reply: dropped");
    // Its own reply completes it.
    let (replies, _) = deliver(&mut d, now + 3, 1, 2, write);
    let (_, reply) = replies.into_iter().next().expect("owner replies");
    let (_, done) = deliver(&mut d, now + 4, 2, 1, reply.clone());
    assert!(matches!(done, Some(Done::Wrote { done, .. }) if done.is_applied()));
    // A duplicate of it, with nothing pending, is dropped just the same.
    let (sends, done) = deliver(&mut d, now + 5, 2, 1, reply);
    assert!(sends.is_empty() && done.is_none());
}

#[test]
fn retry_budget_ends_in_timeout_naming_the_last_owner_tried() {
    // Five nodes, nobody ever answers. Node 4 reads x0: each expired
    // attempt suspects its target and re-dispatches to the successor
    // (0 → 1 → 2); the third re-dispatch exceeds `max_retries = 2`.
    let mut d = drivers(5, |c| c.failover(fast_failover(2)));
    let (sends, done) = call(|fx| d[4].submit(0, Op::Read(loc(0)), fx));
    assert!(done.is_none());
    assert_eq!(sends[0].0, n(0));
    let mut targets = vec![n(0)];
    let failure = loop {
        let now = d[4].next_timer().expect("an attempt is always timed");
        let (sends, done) = call(|fx| d[4].on_timer(now, fx));
        targets.extend(
            sends
                .into_iter()
                .filter(|(_, m)| m.is_request())
                .map(|(dst, _)| dst),
        );
        if let Some(done) = done {
            break done;
        }
        assert!(now < 10_000, "the retry budget never ran out");
    };
    assert_eq!(targets, vec![n(0), n(1), n(2)]);
    match failure {
        Done::Failed(MemoryError::Timeout { owner }) => assert_eq!(owner, n(2)),
        other => panic!("expected a timeout, got {other:?}"),
    }
    // The node is free again: its next operation is accepted.
    let (_, done) = call(|fx| d[4].submit(20_000, Op::Read(loc(4)), fx));
    assert!(matches!(done, Some(Done::Read { .. })), "own page: a hit");
}

#[test]
fn successor_self_serves_after_migration() {
    let mut d = drivers(3, |c| c.failover(fast_failover(8)));
    // Node 1 — successor of node 0's pages — writes x0; node 0 is dead.
    let (sends, done) = call(|fx| d[1].submit(0, Op::Write(loc(0), word(88)), fx));
    assert!(done.is_none());
    assert_eq!(sends[0].0, n(0));
    // Its attempt expires: node 0 is suspected, page 0 migrates — to node
    // 1 itself, which serves its own request against the promoted copy.
    let mut now = d[1].next_timer().expect("heartbeat or attempt");
    let (sends, done) = loop {
        let (sends, done) = call(|fx| d[1].on_timer(now, fx));
        if done.is_some() {
            break (sends, done);
        }
        now = d[1].next_timer().expect("still timed");
    };
    assert!(matches!(done, Some(Done::Wrote { done, .. }) if done.is_applied()));
    assert!(
        sends
            .iter()
            .any(|(_, m)| matches!(m, Msg::Suspect { suspect, .. } if *suspect == n(0))),
        "the migration is announced"
    );
    assert!(
        !sends.iter().any(|(_, m)| m.is_request()),
        "nothing re-sent"
    );
    assert!(d[1].state().owns(loc(0)));
    assert_eq!(*d[1].state().read_hit(loc(0)).unwrap().0, Word::Int(88));
}

#[test]
fn runs_seal_by_round_trip_and_nothing_buffered_is_overtaken() {
    let mut d = drivers(2, |c| c.pipeline_window(8).batching(true));
    let issue = |d: &mut [NodeDriver<Word>], v: i64| {
        let (sends, done) = call(|fx| d[0].submit(0, Op::WritePipelined(loc(1), word(v)), fx));
        assert!(matches!(done, Some(Done::Wrote { .. })));
        sends
    };
    // Idle wire: the first write ships at once, alone.
    let first = issue(&mut d, 1);
    assert!(matches!(&first[..], [(dst, Msg::Write { .. })] if *dst == n(1)));
    // During its round trip the next ones accumulate.
    assert!(issue(&mut d, 2).is_empty());
    assert!(issue(&mut d, 3).is_empty());
    // Its reply drains the wire: the accumulated run ships as one envelope.
    let (replies, _) = deliver(&mut d, 0, 0, 1, first.into_iter().next().unwrap().1);
    let (sends, _) = deliver(&mut d, 0, 1, 0, replies.into_iter().next().unwrap().1);
    assert!(matches!(&sends[..], [(_, Msg::Batch(run))] if run.len() == 2));
    // With that run on the wire, a fourth write buffers; a *blocking*
    // write to the same owner then ships it first, so per-link FIFO keeps
    // program order.
    assert!(issue(&mut d, 4).is_empty());
    let (sends, done) = call(|fx| d[0].submit(0, Op::Write(loc(3), word(5)), fx));
    assert!(done.is_none());
    match &sends[..] {
        [(_, Msg::Write { loc: a, .. }), (_, Msg::Write { loc: b, .. })] => {
            assert_eq!((*a, *b), (loc(1), loc(3)));
        }
        other => panic!("expected the buffered write, then the blocking one: {other:?}"),
    }
}

/// The 0 → 1 link with delivery under the test's control: the envelopes
/// node 0 has sent and node 1 has not yet answered, oldest first. Node 0
/// only ever issues pipelined writes to x1, which node 1 owns.
#[derive(Default)]
struct Withheld(VecDeque<Msg<Word>>);

impl Withheld {
    fn send(&mut self, sends: Vec<(NodeId, Msg<Word>)>) {
        self.0.extend(sends.into_iter().map(|(dst, m)| {
            assert_eq!(dst, n(1));
            m
        }));
    }

    /// Writes per envelope on the wire: 1 for a lone WRITE, the part
    /// count of a batch.
    fn runs(&self) -> Vec<usize> {
        let len = |m: &Msg<Word>| match m {
            Msg::Write { .. } => 1,
            Msg::Batch(parts) => parts.len(),
            other => panic!("only WRITE envelopes expected: {other:?}"),
        };
        self.0.iter().map(len).collect()
    }

    /// Issues a pipelined write at node 0; `true` if it completed at issue
    /// (`false`: the window gated it and the node is blocked).
    fn issue(&mut self, d: &mut [NodeDriver<Word>], v: i64) -> bool {
        let (sends, done) = call(|fx| d[0].submit(0, Op::WritePipelined(loc(1), word(v)), fx));
        self.send(sends);
        done.is_some()
    }

    /// Lets node 1 answer the oldest envelope and node 0 absorb the reply;
    /// returns whether that completed node 0's blocked operation.
    fn answer_oldest(&mut self, d: &mut [NodeDriver<Word>]) -> bool {
        let request = self.0.pop_front().expect("something is on the wire");
        let (replies, _) = deliver(d, 0, 0, 1, request);
        let [(_, reply)] = <[_; 1]>::try_from(replies).expect("one reply envelope");
        let (sends, done) = deliver(d, 0, 1, 0, reply);
        self.send(sends);
        done.is_some()
    }
}

#[test]
fn an_unanswered_run_grows_to_the_window_not_to_a_fixed_count() {
    let mut d = drivers(2, |c| c.pipeline_window(32).batching(true));
    let mut wire = Withheld::default();
    for v in 0..32 {
        assert!(wire.issue(&mut d, v), "write {v} has a window slot");
    }
    assert!(!wire.issue(&mut d, 32), "window full: the 33rd waits");
    // Two envelopes for the whole window: the write that found the wire
    // idle, and everything issued during its round trip.
    assert_eq!(wire.runs(), [1, 31]);
    // The first reply frees a slot: the deferred write completes and
    // buffers behind the run still in flight. The second drains the wire:
    // it leaves, alone.
    assert!(wire.answer_oldest(&mut d));
    assert_eq!(wire.runs(), [31]);
    assert!(!wire.answer_oldest(&mut d));
    assert_eq!(wire.runs(), [1]);
    // And the cycle repeats.
    for v in 33..64 {
        assert!(wire.issue(&mut d, v));
    }
    assert_eq!(wire.runs(), [1]);
    assert!(!wire.issue(&mut d, 64));
    assert_eq!(wire.runs(), [1, 31]);
}

#[test]
fn buffered_writes_leave_when_the_wire_drains_without_a_flush() {
    for (window, k) in [(2, 1), (8, 7), (32, 9), (32, 31)] {
        let mut d = drivers(2, |c| c.pipeline_window(window).batching(true));
        let mut wire = Withheld::default();
        // A lone write on an idle wire is sent by the call that issues it.
        assert!(wire.issue(&mut d, 0));
        assert_eq!(wire.runs(), [1]);
        // `k < window` more wait out its round trip ...
        for v in 0..k {
            assert!(wire.issue(&mut d, v));
        }
        assert_eq!(wire.runs(), [1], "window {window}: {k} buffered");
        // ... and the call that absorbs its reply sends them all.
        wire.answer_oldest(&mut d);
        assert_eq!(wire.runs(), [k as usize], "window {window}");
        wire.answer_oldest(&mut d);
        assert_eq!(d[0].pipeline_in_flight(), 0, "fully drained, no flush");
    }
}

#[test]
fn outstanding_writes_always_have_something_on_the_wire() {
    // Closed loop against a slow owner: issue until the window gates, let
    // the owner answer one envelope every `period` issues (or only when
    // node 0 is blocked). In no reachable state are writes outstanding —
    // least of all a full window of them — with none of them sent: that
    // state would wait forever for a reply nobody owes.
    for window in [1u32, 2, 8, 32] {
        for period in [1, 2, 3, window as usize, usize::MAX] {
            let mut d = drivers(2, |c| c.pipeline_window(window).batching(true));
            let mut wire = Withheld::default();
            let check = |d: &[NodeDriver<Word>], wire: &Withheld| {
                let outstanding = d[0].pipeline_in_flight();
                assert!(outstanding <= window as usize);
                assert!(
                    outstanding == 0 || !wire.0.is_empty(),
                    "window {window}, period {period}: {outstanding} outstanding, none sent"
                );
            };
            for v in 0..4 * window as usize + 1 {
                let mut issued = wire.issue(&mut d, v as i64);
                check(&d, &wire);
                while !issued {
                    issued = wire.answer_oldest(&mut d);
                    check(&d, &wire);
                }
                if (v + 1) % period == 0 && !wire.0.is_empty() {
                    wire.answer_oldest(&mut d);
                    check(&d, &wire);
                }
            }
            // What is left drains by replies alone.
            while !wire.0.is_empty() {
                wire.answer_oldest(&mut d);
                check(&d, &wire);
            }
            assert_eq!(d[0].pipeline_in_flight(), 0);
        }
    }
}

#[test]
fn a_dead_transport_forgets_the_run_and_the_operation() {
    let mut d = drivers(2, |c| c.pipeline_window(2));
    for v in 0..2 {
        call(|fx| d[0].submit(0, Op::WritePipelined(loc(1), word(v)), fx));
    }
    // Window full: the third write is gated.
    let (_, done) = call(|fx| d[0].submit(0, Op::WritePipelined(loc(1), word(2)), fx));
    assert!(done.is_none());
    assert!(d[0].transport_down(), "an operation was outstanding");
    assert_eq!(d[0].pipeline_in_flight(), 0);
    let (_, done) = call(|fx| d[0].submit(0, Op::Flush, fx));
    assert!(
        matches!(done, Some(Done::Flushed)),
        "idle: flush is a no-op"
    );
}

#[test]
fn a_life_first_called_late_suspects_no_peer_before_its_budget() {
    // A recovered state is handed to a fresh driver at some late time T:
    // its peers have been silent only since T, not since time 0.
    let start = 1_000;
    let budget = 10 * 2; // fast_failover's interval × threshold
    let mut d = drivers(3, |c| c.failover(fast_failover(8)));
    let mut now = start;
    loop {
        let (sends, _) = call(|fx| d[0].on_timer(now, fx));
        if sends.iter().any(|(_, m)| matches!(m, Msg::Suspect { .. })) {
            break;
        }
        now = d[0].next_timer().expect("heartbeats are standing timers");
    }
    assert!(now > start + budget, "suspected a peer at {now}");
    assert!(now <= start + budget + 10, "the detector still fires");
}
