//! Owner-failover integration tests: epoch-stamped migration at the
//! protocol-state level, and recoverable timeouts / stale-reply
//! discipline in the threaded engine.
//!
//! State-level tests drive [`CausalState`] directly — suspicion,
//! successor promotion, NACK redirects, shadow replication, and the
//! recovered ex-owner rejoining as a cache — so each protocol transition
//! is visible without scheduler noise. Engine-level tests then check the
//! same machinery end to end through [`CausalCluster`] with a fault hook
//! on the thread transport. (Deep pipelined writes across a migration
//! are exercised by the owner-crash chaos suite in `dsm-faults`, which
//! sweeps `pipeline_window ∈ {0, 32}`.)

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use causal_dsm::{
    owner_at, CausalCluster, CausalConfig, CausalState, DurableConfig, FailoverConfig, Msg,
    ReadStep, WriteDone, WriteStep,
};
use memcore::{kinds, Location, MemoryError, NodeId, OwnerEpoch, PageId, SharedMemory, Word};
use simnet::{FaultHook, SendFate};

fn loc(i: u32) -> Location {
    Location::new(i)
}

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

/// Three single-location pages per node, failover on, page 0 owned by
/// node 0 with node 1 as its successor.
fn trio() -> Vec<CausalState<Word>> {
    let config = CausalConfig::<Word>::builder(3, 6)
        .failover(FailoverConfig::default())
        .build();
    (0..3)
        .map(|i| CausalState::new(n(i), config.clone()))
        .collect()
}

#[test]
fn suspicion_migrates_ownership_to_the_successor() {
    let mut s = trio();
    let page = PageId::new(0);
    assert_eq!(s[1].current_owner(page), n(0));

    // Node 2 loses patience with node 0: every page node 0 serves
    // migrates to its successor, epoch bumped.
    let epochs = s[2].suspect(n(0));
    assert!(epochs.contains(&(page, OwnerEpoch::new(1))));
    assert_eq!(s[2].current_owner(page), n(1));
    assert!(s[2].is_suspected(n(0)));

    // The broadcast reaches node 1, which finds itself the successor and
    // promotes: it now *owns* the page.
    s[1].absorb_suspect(n(0), &epochs);
    assert_eq!(s[1].current_owner(page), n(1));
    assert!(s[1].owns(loc(0)));

    // A correctly-stamped read is served (not NACKed) by the new owner.
    let op = s[2].next_op_id();
    let epoch = s[2].epoch_of(page);
    let reply = s[1]
        .serve_stamped(n(2), epoch, op, Msg::Read { page })
        .expect("owner must answer");
    match reply {
        Msg::Stamped {
            epoch: e,
            op: o,
            inner,
        } => {
            assert_eq!((e, o), (epoch, op));
            assert!(matches!(*inner, Msg::ReadReply { .. }));
        }
        other => panic!("expected stamped reply, got {other:?}"),
    }
}

#[test]
fn stale_epoch_requests_are_nacked_with_redirect() {
    let mut s = trio();
    let page = PageId::new(0);
    let epochs = s[2].suspect(n(0));
    s[1].absorb_suspect(n(0), &epochs);

    // A third party that never heard the SUSPECT still stamps epoch 0.
    // The new owner must refuse and point at itself — serving would fork
    // the page's history across epochs.
    let stale = OwnerEpoch::ZERO;
    let op = 7;
    let reply = s[1].serve_stamped(n(2), stale, op, Msg::Read { page });
    match reply {
        Some(Msg::Nack {
            page: p,
            op: o,
            epoch,
            redirect,
        }) => {
            assert_eq!((p, o), (page, op));
            assert_eq!(epoch, OwnerEpoch::new(1));
            assert_eq!(redirect, n(1));
        }
        other => panic!("expected NACK, got {other:?}"),
    }
}

#[test]
fn dueling_epochs_resolve_by_max_merge() {
    // The requester is *ahead*: it suspected node 0 on its own, while
    // the successor has heard nothing. The stamped request itself
    // carries the news — the successor max-merges the epoch, finds
    // itself the owner, and serves instead of NACKing.
    let mut s = trio();
    let page = PageId::new(0);
    let _ = s[2].suspect(n(0));
    assert_eq!(s[1].current_owner(page), n(0)); // successor still behind

    let op = s[2].next_op_id();
    let epoch = s[2].epoch_of(page);
    assert_eq!(epoch, OwnerEpoch::new(1));
    let reply = s[1].serve_stamped(n(2), epoch, op, Msg::Read { page });
    assert!(
        matches!(reply, Some(Msg::Stamped { .. })),
        "the request's epoch should have promoted the successor: {reply:?}"
    );
    assert!(s[1].owns(loc(0)));
}

#[test]
fn blocking_write_in_flight_survives_migration() {
    let mut s = trio();
    let page = PageId::new(0);

    // Node 2 starts a write while node 0 still owns the page...
    let value = Arc::new(Word::Int(42));
    let step = s[2].begin_write_shared(loc(0), Arc::clone(&value));
    let (wid, request) = match step {
        WriteStep::Remote {
            owner,
            wid,
            request,
        } => {
            assert_eq!(owner, n(0));
            (wid, request)
        }
        WriteStep::Done { .. } => panic!("remote page wrote locally"),
    };

    // ...the owner dies before answering; the writer itself suspects it
    // (the engine's timeout path) and the successor absorbs the news.
    let epochs = s[2].suspect(n(0));
    s[1].absorb_suspect(n(0), &epochs);

    // The resent request, re-stamped at the new epoch, lands on the new
    // owner and certifies the very same write id.
    let op = s[2].next_op_id();
    let epoch = s[2].epoch_of(page);
    let reply = s[1]
        .serve_stamped(n(2), epoch, op, request)
        .expect("new owner must certify");
    let inner = match reply {
        Msg::Stamped { inner, .. } => *inner,
        other => panic!("expected stamped write reply, got {other:?}"),
    };
    let done = s[2].finish_write(value, wid, inner);
    assert_eq!(done, WriteDone::Applied { wid });

    // Both sides now read the migrated write.
    assert_eq!(*s[1].read_hit(loc(0)).unwrap().0, Word::Int(42));
    assert_eq!(*s[2].read_hit(loc(0)).unwrap().0, Word::Int(42));
}

#[test]
fn nonblocking_write_in_flight_survives_migration() {
    // Same race through the pipelined/non-blocking absorb path.
    let mut s = trio();
    let page = PageId::new(0);
    let step = s[2].begin_write_nonblocking(loc(0), Word::Int(9));
    let (wid, request) = match step {
        WriteStep::Remote { wid, request, .. } => (wid, request),
        WriteStep::Done { .. } => panic!("remote page wrote locally"),
    };
    let epochs = s[2].suspect(n(0));
    s[1].absorb_suspect(n(0), &epochs);
    let op = s[2].next_op_id();
    let epoch = s[2].epoch_of(page);
    let inner = match s[1].serve_stamped(n(2), epoch, op, request) {
        Some(Msg::Stamped { inner, .. }) => *inner,
        other => panic!("expected stamped write reply, got {other:?}"),
    };
    assert_eq!(s[2].absorb_write_reply(inner), WriteDone::Applied { wid });
    assert_eq!(*s[2].read_hit(loc(0)).unwrap().0, Word::Int(9));
}

#[test]
fn shadow_replication_preserves_certified_writes_across_the_crash() {
    let mut s = trio();
    let page = PageId::new(0);

    // A certified write at the owner is shadowed to the successor.
    let value = Arc::new(Word::Int(1234));
    let step = s[2].begin_write_shared(loc(0), Arc::clone(&value));
    let (wid, request) = match step {
        WriteStep::Remote { wid, request, .. } => (wid, request),
        WriteStep::Done { .. } => panic!("remote page wrote locally"),
    };
    let reply = s[0].serve(n(2), request).expect("owner certifies");
    assert_eq!(
        s[2].finish_write(value, wid, reply),
        WriteDone::Applied { wid }
    );
    let repl = s[0].take_replications();
    assert_eq!(repl.len(), 1);
    let (dst, msg) = repl.into_iter().next().unwrap();
    assert_eq!(dst, n(1), "the shadow goes to the successor");
    match msg {
        Msg::Replicate {
            page: p,
            vt,
            slots,
            origins,
        } => {
            assert_eq!(p, page);
            s[1].apply_replicate(p, vt.into_inner(), slots, origins);
        }
        other => panic!("expected REPL, got {other:?}"),
    }

    // Owner dies; the successor promotes and must serve the *certified*
    // value from its shadow — Definition 2 survives the crash because
    // the shadow carries the owner's writestamp and per-slot origins.
    let epochs = s[2].suspect(n(0));
    s[1].absorb_suspect(n(0), &epochs);
    let op = s[2].next_op_id();
    let epoch = s[2].epoch_of(page);
    let inner = match s[1].serve_stamped(n(2), epoch, op, Msg::Read { page }) {
        Some(Msg::Stamped { inner, .. }) => *inner,
        other => panic!("expected stamped read reply, got {other:?}"),
    };
    match &inner {
        Msg::ReadReply { slots, .. } => {
            assert!(
                slots
                    .iter()
                    .any(|(v, w)| **v == Word::Int(1234) && *w == wid),
                "promoted owner lost the certified write: {slots:?}"
            );
        }
        other => panic!("expected read reply, got {other:?}"),
    }
}

#[test]
fn recovered_ex_owner_serves_cache_only() {
    let mut s = trio();
    let page = PageId::new(0);

    // The ex-owner wrote locally before crashing, so it holds the page.
    let step = s[0].begin_write(loc(0), Word::Int(5));
    assert!(matches!(step, WriteStep::Done { .. }));

    // It recovers and is re-educated by the retransmitted SUSPECT that
    // named it: its former page migrated while it was dark.
    let epochs = s[2].suspect(n(0));
    s[0].absorb_suspect(n(0), &epochs);
    assert!(!s[0].owns(loc(0)));
    assert_eq!(s[0].current_owner(page), n(1));

    // Local reads still hit its (causally valid) cached copy...
    assert_eq!(*s[0].read_hit(loc(0)).unwrap().0, Word::Int(5));
    match s[0].begin_read(loc(0)) {
        ReadStep::Hit { value, .. } => assert_eq!(*value, Word::Int(5)),
        ReadStep::Miss { .. } => panic!("cached copy should satisfy reads"),
    }

    // ...but it refuses to *serve* the page, redirecting to the new
    // owner even for requests stamped with its old epoch.
    let reply = s[0].serve_stamped(n(2), OwnerEpoch::ZERO, 3, Msg::Read { page });
    match reply {
        Some(Msg::Nack {
            redirect, epoch, ..
        }) => {
            assert_eq!(redirect, n(1));
            assert_eq!(epoch, OwnerEpoch::new(1));
        }
        other => panic!("expected NACK from ex-owner, got {other:?}"),
    }
}

#[test]
fn durably_recovered_ex_owner_reconciles_via_nack_without_double_serving() {
    // Recovery × failover: the ex-owner restarts *from disk* while its
    // epoch already migrated. Its WAL faithfully says "I own page 0 at
    // epoch 0", so the recovered life boots still believing it — the
    // migration happened while it was dark and the log can't know. The
    // first request stamped at the new epoch must re-educate it through
    // the ordinary max-merge + NACK/redirect path; at no point may it
    // certify under the superseded epoch again (double-serving would
    // fork the page's history across epochs).
    let config = CausalConfig::<Word>::builder(3, 6)
        .failover(FailoverConfig::default())
        .durability(DurableConfig::default())
        .build();
    let mut s: Vec<CausalState<Word>> = (0..3)
        .map(|i| CausalState::new(n(i), config.clone()))
        .collect();
    let page = PageId::new(0);

    // Node 0 certifies a local write; its journal — boot watermark plus
    // the write — is exactly what a WAL-backed engine would have synced
    // before acknowledging.
    assert!(matches!(
        s[0].begin_write(loc(0), Word::Int(41)),
        WriteStep::Done { .. }
    ));
    let log = s[0].take_journal();

    // It crashes. The survivors migrate the page to the successor, and
    // the new owner certifies a write of its own at epoch 1.
    let epochs = s[2].suspect(n(0));
    s[1].absorb_suspect(n(0), &epochs);
    let step = s[2].begin_write_shared(loc(0), Arc::new(Word::Int(42)));
    let (wid, request) = match step {
        WriteStep::Remote { wid, request, .. } => (wid, request),
        WriteStep::Done { .. } => panic!("remote page wrote locally"),
    };
    let op = s[2].next_op_id();
    let epoch = s[2].epoch_of(page);
    let inner = match s[1].serve_stamped(n(2), epoch, op, request) {
        Some(Msg::Stamped { inner, .. }) => *inner,
        other => panic!("expected stamped write reply, got {other:?}"),
    };
    assert_eq!(
        s[2].finish_write(Arc::new(Word::Int(42)), wid, inner),
        WriteDone::Applied { wid }
    );

    // The ex-owner replays its log and rejoins at a bumped incarnation.
    // Nothing in the log mentions the migration: it recovers its
    // certified state and (wrongly, but unavoidably) its ownership.
    let mut back = CausalState::recover(n(0), config.clone(), log, 1);
    assert_eq!(back.incarnation(), 1);
    assert!(back.owns(loc(0)));
    assert_eq!(*back.read_hit(loc(0)).unwrap().0, Word::Int(41));

    // A current client's request carries epoch 1. The recovered node
    // max-merges, discovers the page rotated away from it, and NACKs
    // with a redirect to the live owner — it must NOT serve its stale
    // epoch-0 image as if it were still authoritative.
    let op = s[2].next_op_id();
    let reply = back.serve_stamped(n(2), s[2].epoch_of(page), op, Msg::Read { page });
    match reply {
        Some(Msg::Nack {
            redirect, epoch, ..
        }) => {
            assert_eq!(redirect, n(1));
            assert_eq!(epoch, OwnerEpoch::new(1));
        }
        other => panic!("expected NACK from recovered ex-owner, got {other:?}"),
    }
    assert!(
        !back.owns(loc(0)),
        "the NACK must also re-educate the server"
    );

    // Once educated, even a straggler still stamping the old epoch is
    // refused: certification authority never returns to the old life.
    // (The request body is epoch-agnostic; the stamp carries the claim.)
    let step = s[2].begin_write_shared(loc(0), Arc::new(Word::Int(43)));
    let stale_write = match step {
        WriteStep::Remote { request, .. } => request,
        WriteStep::Done { .. } => panic!("remote page wrote locally"),
    };
    let reply = back.serve_stamped(n(2), OwnerEpoch::ZERO, 99, stale_write);
    assert!(
        matches!(reply, Some(Msg::Nack { .. })),
        "ex-owner certified a write under a superseded epoch: {reply:?}"
    );

    // Its cached copy is still causally valid for *local* reads — the
    // same cache-only service the non-durable recovery test pins.
    assert_eq!(*back.read_hit(loc(0)).unwrap().0, Word::Int(41));
}

#[test]
fn owner_at_rotates_through_epochs() {
    let config = CausalConfig::<Word>::builder(3, 6).build();
    let owners = config.owners().as_ref();
    let page = PageId::new(1); // statically node 1's
    assert_eq!(owner_at(owners, page, OwnerEpoch::ZERO), n(1));
    assert_eq!(owner_at(owners, page, OwnerEpoch::new(1)), n(2));
    assert_eq!(owner_at(owners, page, OwnerEpoch::new(2)), n(0));
    assert_eq!(owner_at(owners, page, OwnerEpoch::new(3)), n(1));
}

// ---------------------------------------------------------------------
// Threaded engine: recoverable timeouts and stale-reply discipline.
// ---------------------------------------------------------------------

/// Drops the first `budget` messages of kind `kind`, then passes
/// everything.
struct DropFirst {
    kind: &'static str,
    budget: AtomicUsize,
}

impl DropFirst {
    fn new(kind: &'static str, budget: usize) -> Self {
        DropFirst {
            kind,
            budget: AtomicUsize::new(budget),
        }
    }
}

impl FaultHook for DropFirst {
    fn on_send(&self, _src: NodeId, _dst: NodeId, kind: &'static str, _now: u64) -> SendFate {
        if kind == self.kind
            && self
                .budget
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |b| b.checked_sub(1))
                .is_ok()
        {
            return SendFate::dropped();
        }
        SendFate::deliver()
    }
}

/// Duplicates the first message of kind `kind`.
struct DupFirst {
    kind: &'static str,
    budget: AtomicUsize,
}

impl FaultHook for DupFirst {
    fn on_send(&self, _src: NodeId, _dst: NodeId, kind: &'static str, _now: u64) -> SendFate {
        if kind == self.kind
            && self
                .budget
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |b| b.checked_sub(1))
                .is_ok()
        {
            return SendFate { copies: vec![0, 0] };
        }
        SendFate::deliver()
    }
}

/// `node` is down forever (fail-stop): every message addressed to it is
/// discarded by the transport.
struct DeadNode(u32);

impl FaultHook for DeadNode {
    fn down_until(&self, node: NodeId, _at: u64) -> Option<u64> {
        (node.index() as u32 == self.0).then_some(u64::MAX)
    }
}

#[test]
fn a_timeout_leaves_the_handle_usable() {
    // Satellite regression: a dropped WRITE must surface as a Timeout the
    // *caller* can survive. With no retries, the first expired attempt
    // suspects the owner, migrates its page to the successor and gives
    // up; the next operation on the same handle goes to the successor.
    let fo = FailoverConfig {
        max_retries: 0,
        ..fast_failover()
    };
    let cluster = CausalCluster::<Word>::builder(3, 6)
        .configure(|c| c.failover(fo))
        .build()
        .unwrap();
    let h2 = cluster.handle(2);
    // Location 0 lives on node 0: the write must cross the network.
    cluster.set_fault_hook(Some(Arc::new(DropFirst::new("WRITE", 1))));
    match h2.write(loc(0), Word::Int(1)) {
        Err(MemoryError::Timeout { owner }) => assert_eq!(owner, n(0)),
        other => panic!("expected timeout, got {other:?}"),
    }
    cluster.set_fault_hook(None);
    // The handle is still usable: the retry succeeds at the successor
    // (node 1, which learned of the migration before the WRITE on the
    // same link), and both see it.
    h2.write(loc(0), Word::Int(2)).unwrap();
    assert_eq!(h2.read(loc(0)).unwrap(), Word::Int(2));
    assert_eq!(cluster.handle(1).read(loc(0)).unwrap(), Word::Int(2));
    cluster.shutdown();
}

#[test]
fn stale_replies_are_discarded_not_misattributed() {
    // Satellite regression: a duplicated W_REPLY leaves a stale message
    // in the handle's reply channel after the write completes. The next
    // remote operation (a read of a *different* page on the same owner)
    // must skip it and wait for its own reply.
    let cluster = CausalCluster::<Word>::builder(2, 4).build().unwrap();
    let h1 = cluster.handle(1);
    cluster.set_fault_hook(Some(Arc::new(DupFirst {
        kind: "W_REPLY",
        budget: AtomicUsize::new(1),
    })));
    h1.write(loc(0), Word::Int(3)).unwrap();
    cluster.set_fault_hook(None);
    // Pages 0 and 2 both live on node 0; node 1 has never seen page 2,
    // so this read is a genuine remote round-trip that must not consume
    // the duplicated write reply.
    assert_eq!(h1.read(loc(2)).unwrap(), Word::Zero);
    assert_eq!(h1.read(loc(0)).unwrap(), Word::Int(3));
    cluster.shutdown();
}

/// A failover configuration scaled for a unit test: milliseconds, not
/// production patience.
fn fast_failover() -> FailoverConfig {
    FailoverConfig {
        heartbeat_interval: 10,
        suspicion_threshold: 2,
        backoff_base: 1,
        backoff_max: 8,
        max_retries: 6,
    }
}

#[test]
fn owner_crash_migrates_ownership_in_the_threaded_engine() {
    let cluster = CausalCluster::<Word>::builder(3, 6)
        .configure(|c| c.failover(fast_failover()))
        .build()
        .unwrap();
    // Node 0 (owner of pages 0 and 3) fail-stops before serving anything.
    cluster.set_fault_hook(Some(Arc::new(DeadNode(0))));
    let h2 = cluster.handle(2);
    // The write times out against the dead owner, suspicion migrates the
    // page to its successor (node 1), and the engine's retry completes
    // the operation there — Timeout never reaches the caller.
    h2.write(loc(0), Word::Int(77)).unwrap();
    assert_eq!(h2.read(loc(0)).unwrap(), Word::Int(77));
    // The successor itself serves reads of the migrated page.
    let h1 = cluster.handle(1);
    assert_eq!(h1.read(loc(0)).unwrap(), Word::Int(77));
    // The suspicion was broadcast, not kept private.
    let kinds_seen = cluster.messages().snapshot();
    let suspects = kinds_seen
        .by_kind()
        .iter()
        .find(|(k, _)| *k == kinds::SUSPECT)
        .map_or(0, |(_, c)| *c);
    assert!(suspects > 0, "migration must be announced via SUSPECT");
    // Clear the hook so shutdown's HALT can reach node 0's server thread.
    cluster.set_fault_hook(None);
    cluster.shutdown();
}

#[test]
fn successor_self_serves_after_owner_crash() {
    // When the *successor* issues the operation, the retry discovers the
    // page migrated to itself and serves locally.
    let cluster = CausalCluster::<Word>::builder(3, 6)
        .configure(|c| c.failover(fast_failover()))
        .build()
        .unwrap();
    cluster.set_fault_hook(Some(Arc::new(DeadNode(0))));
    let h1 = cluster.handle(1); // successor of node 0's pages
    h1.write(loc(0), Word::Int(88)).unwrap();
    assert_eq!(h1.read(loc(0)).unwrap(), Word::Int(88));
    cluster.set_fault_hook(None);
    cluster.shutdown();
}

#[test]
fn shutdown_interrupts_heartbeat_sleep() {
    // Heartbeat tickers used to `thread::sleep(heartbeat_interval)`
    // between stop-flag checks, so shutdown() could stall for up to a
    // full interval. With the condvar-based stop signal, shutdown wakes
    // them immediately — even out of an interval far longer than any
    // acceptable shutdown latency.
    let slow = FailoverConfig {
        heartbeat_interval: 2_000,
        ..FailoverConfig::default()
    };
    let cluster = CausalCluster::<Word>::builder(3, 6)
        .configure(|c| c.failover(slow))
        .build()
        .unwrap();
    let h0 = cluster.handle(0);
    h0.write(loc(0), Word::Int(1)).unwrap();
    // Give the tickers time to park in their first interval wait.
    std::thread::sleep(Duration::from_millis(50));
    let start = std::time::Instant::now();
    cluster.shutdown();
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_millis(500),
        "shutdown took {elapsed:?}; heartbeat tickers were not woken promptly"
    );
}
