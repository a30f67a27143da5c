//! The node driver: one node's [`CausalState`] plus every policy decision
//! around it, as a sans-I/O state machine.
//!
//! Figure 4 is pure ([`CausalState`]), but the paper's other requirement —
//! "each operation must be executed atomically and owners must fairly
//! alternate between issuing reads and writes and responding to READ and
//! WRITE messages" (§3) — is policy *around* it: which inbound message
//! goes to which serve step, which reply completes the one pending
//! operation and which is absorbed, when the bounded write pipeline must
//! drain and how its runs seal, how failover stamps, redirects, retries
//! and gives up. [`NodeDriver`] owns all of that, once. It performs no
//! network I/O, reads no clock and spawns nothing: an *executor* feeds
//! it operations ([`NodeDriver::submit`]), inbound messages
//! ([`NodeDriver::deliver`]) and time ([`NodeDriver::on_timer`]), and
//! carries out the [`Effects`] it fills in — sends in order, at most one
//! completion. A node [opened](NodeDriver::open) on a disk also owns its
//! write-ahead log, and every call has made its records durable by the
//! time it returns. The threaded engine, the inline TCP poller and the
//! deterministic simulator are all such executors, so what the model
//! checker and the chaos batches certify is what ships.
//!
//! Time is an opaque tick count supplied by the executor (simulator
//! ticks, or milliseconds since cluster start); configurations without
//! failover never look at it. Without failover a blocked operation waits
//! for its owner's reply, as Figure 4's does.
//!
//! The contract between a driver and its executors is the [`Driver`]
//! trait, over the protocol-agnostic [`Op`], [`Done`] and [`Effects`];
//! the paper's comparators implement it too, so every executor runs all
//! three memories.

use std::collections::VecDeque;
use std::sync::Arc;

use dsm_durable::{Disk, Store};
use memcore::{Location, MemoryError, NodeId, OwnerEpoch, PageId, Value, WriteId};
use parking_lot::Mutex;
use simnet::codec::Wire;
use simnet::Tagged;

use crate::config::{CausalConfig, FailoverConfig};
use crate::msg::Msg;
use crate::state::{CausalState, ReadStep, WriteDone, WriteStep};

/// An application operation handed to [`NodeDriver::submit`].
#[derive(Clone, Debug)]
pub enum Op<V> {
    /// `r(x)` — may hit the cache.
    Read(Location),
    /// Discard any cached copy, then read.
    ReadFresh(Location),
    /// `w(x)v`, blocking until the owner certifies it (Figure 4).
    Write(Location, Arc<V>),
    /// A write through the bounded pipeline: completes at issue while the
    /// window has room. With a window of 0, or toward an owned page, it is
    /// exactly [`Op::Write`].
    WritePipelined(Location, Arc<V>),
    /// The paper's `discard`.
    Discard(Location),
    /// Barrier: completes once every asynchronous write's reply is
    /// absorbed into `VT_i`.
    Flush,
}

/// How the node's one outstanding operation ended.
#[derive(Clone, Debug)]
pub enum Done<V> {
    /// A read returned `value`, produced by write `wid`.
    Read {
        /// The location read.
        loc: Location,
        /// The value, shared with local memory.
        value: Arc<V>,
        /// The write it reads from.
        wid: WriteId,
    },
    /// A write completed (pipelined writes: was issued).
    Wrote {
        /// The location written.
        loc: Location,
        /// The value written.
        value: Arc<V>,
        /// Applied, or rejected by an owner-favored resolution.
        done: WriteDone,
    },
    /// A discard completed.
    Discarded,
    /// A flush completed.
    Flushed,
    /// The operation was abandoned: its failover retry budget ran out
    /// ([`MemoryError::Timeout`]) or the transport went down.
    Failed(MemoryError),
}

/// What one driver call asks its executor to do. Caller-owned and
/// reusable: the driver only appends to `sends` and sets `done`.
#[derive(Clone, Debug)]
pub struct Effects<V, M = Msg<V>> {
    /// Messages to put on the wire, in this order.
    pub sends: Vec<(NodeId, M)>,
    /// Set when the node's outstanding operation completed.
    pub done: Option<Done<V>>,
}

impl<V, M> Default for Effects<V, M> {
    fn default() -> Self {
        Effects {
            sends: Vec::new(),
            done: None,
        }
    }
}

/// [`Effects`] in a driver's own value and message types.
pub type EffectsOf<D> = Effects<<D as Driver>::Value, <D as Driver>::Msg>;

/// One node of a shared memory as a sans-I/O state machine: what every
/// executor — the threaded [`Cluster`](crate::engine::Cluster), the inline
/// TCP poller, the deterministic simulator — programs against, and what a
/// memory protocol implements to run on all of them. [`NodeDriver`] is the
/// causal owner protocol; `atomic_dsm::AtomicDriver` and
/// `broadcast_mem::BroadcastDriver` are the paper's two comparators.
///
/// What an executor owes a driver:
///
/// * every `&mut self` call is made under exclusive access to the node,
///   and at most one operation is outstanding per node: no
///   [`submit`](Self::submit) until the previous one's completion was
///   reported;
/// * `fx.sends` go on the wire in order, and one link's envelopes are
///   [delivered](Self::deliver) in arrival order;
/// * `fx.done`, set at most once per call, is handed to the operation's
///   issuer;
/// * `now` is an opaque, monotone tick count (simulator ticks, or
///   milliseconds since cluster start). A driver that is not
///   [`timed`](Self::timed) never looks at it, and its executor never
///   reads a clock.
pub trait Driver: Send + Sync + 'static {
    /// What a location holds.
    type Value: Value;
    /// The protocol's messages.
    type Msg: Tagged + Clone + Send + Sync + std::fmt::Debug + 'static;
    /// The protocol configuration a cluster of these nodes was built from.
    type Config: Send + Sync + std::fmt::Debug + 'static;

    /// The protocol's name, for thread names and `Debug` output
    /// (`"Causal"` gives `causal-node-0` and `CausalHandle(P0)`).
    const NAME: &'static str;

    /// Submits the node's next application operation. Either `fx.done` is
    /// set on return, or the node is blocked until a later
    /// [`deliver`](Self::deliver) / [`on_timer`](Self::on_timer) sets it.
    fn submit(&mut self, now: u64, op: Op<Self::Value>, fx: &mut EffectsOf<Self>);

    /// Delivers a protocol message from `from`.
    fn deliver(&mut self, now: u64, from: NodeId, msg: Self::Msg, fx: &mut EffectsOf<Self>);

    /// Whether this driver uses time at all. Untimed drivers (the default)
    /// have no timers, and their executors supply `now = 0`.
    fn timed(&self) -> bool {
        false
    }

    /// The earliest time [`on_timer`](Self::on_timer) must run, if any. A
    /// timed driver that reports one before any operation was submitted
    /// has standing timers (heartbeats) and is given a ticker thread.
    fn next_timer(&self) -> Option<u64> {
        None
    }

    /// Fires whatever is due at `now`.
    fn on_timer(&mut self, now: u64, fx: &mut EffectsOf<Self>) {
        let _ = (now, fx);
    }

    /// The transport is gone: forget the outstanding operation and
    /// everything in flight — no reply will ever arrive. Returns whether
    /// an operation was outstanding. Messages that still trickle in
    /// afterwards must be tolerated.
    fn transport_down(&mut self) -> bool;

    /// `true` iff failing to send `msg` is terminal for the session
    /// (something would wait on its answer forever); other sends — replies
    /// to a peer that may simply be shutting down — are best effort.
    fn needs_delivery(msg: &Self::Msg) -> bool;

    /// Fast path: a read the driver can answer from `&self`, so executors
    /// may run it under a shared lock, bypassing
    /// [`submit`](Self::submit). `None` (always, by default) sends the
    /// read through `submit`.
    fn read_hit(&self, loc: Location) -> Option<(Arc<Self::Value>, WriteId)> {
        let _ = loc;
        None
    }

    /// Fast path: a write that is one atomic local step and so need not
    /// become the node's outstanding operation. It takes the value itself,
    /// not an `Arc`, so a driver that stores in place allocates nothing.
    ///
    /// # Errors
    ///
    /// Hands the value back (always, by default) when the write must go
    /// through [`submit`](Self::submit).
    fn write_local(
        &mut self,
        loc: Location,
        value: Self::Value,
        fx: &mut EffectsOf<Self>,
    ) -> Result<WriteId, Self::Value> {
        let _ = (loc, fx);
        Err(value)
    }
}

/// The one operation blocked on an owner's reply. Replies are matched by
/// *content* — the page of a READ, the tag of a WRITE — so a late reply
/// to an abandoned operation is discarded, never misattributed.
#[derive(Clone, Debug)]
enum Pending<V> {
    Read {
        loc: Location,
        page: PageId,
    },
    Write {
        loc: Location,
        value: Arc<V>,
        wid: WriteId,
    },
}

/// The bounded write pipeline. Invariant: `tags` is empty iff `owner` is
/// `None`, and then `buffer` is empty too. The window only ever points at
/// one owner; switching owners requires a full drain.
///
/// With batching a run (the writes buffered since the last envelope) is
/// sealed by exactly two rules, and has no length cap of its own:
/// *wire empty* — everything outstanding is still buffered
/// (`buffer.len() == tags.len()`), checked when a write is issued and
/// again when a reply drains the wire — and *gated op* — a full window,
/// a flush or any other operation the pipeline defers ships the buffer
/// first. So a run is as long as the writes issued during one round
/// trip, up to the window; and a full window always has something on the
/// wire, because either the first rule shipped it or the next write hits
/// the second.
#[derive(Clone, Debug)]
struct Pipeline<V> {
    window: usize,
    /// Coalesce runs into [`Msg::Batch`] envelopes. Off under failover:
    /// every WRITE then travels in its own stamped envelope so NACKs and
    /// retries can target individual attempts.
    batching: bool,
    owner: Option<NodeId>,
    /// Tags of asynchronous writes whose replies are still to be absorbed
    /// (sent *or* buffered), oldest first — replies arrive in that order
    /// unless failover re-routes one.
    tags: VecDeque<WriteId>,
    /// With batching, WRITE requests accumulated but not yet sent.
    buffer: Vec<Msg<V>>,
}

impl<V> Pipeline<V> {
    /// Puts everything buffered on the wire as one envelope (a single
    /// message, or [`Msg::Batch`] for runs of two or more).
    fn ship(&mut self, sends: &mut Vec<(NodeId, Msg<V>)>) {
        let envelope = match self.buffer.len() {
            0 => return,
            1 => self.buffer.pop().expect("length checked"),
            _ => Msg::Batch(std::mem::take(&mut self.buffer)),
        };
        let owner = self.owner.expect("buffered writes always have an owner");
        sends.push((owner, envelope));
    }

    /// Retires `wid` if it tags an asynchronous write (replies normally
    /// arrive oldest first, so the scan ends at the front).
    fn absorb(&mut self, wid: WriteId) -> bool {
        let found = self.tags.iter().position(|t| *t == wid);
        found.is_some_and(|i| self.tags.remove(i).is_some())
    }
}

/// Failover runtime: the heartbeat schedule and the table of stamped
/// requests in flight (blocking and pipelined alike). Present iff the
/// state carries a [`FailoverConfig`].
#[derive(Clone, Debug)]
struct Failover<V> {
    config: FailoverConfig,
    /// Whether this life's silence clock is running (see
    /// [`NodeDriver::clock`]).
    started: bool,
    /// One attempt's patience before backoff: the suspicion budget.
    patience: u64,
    next_heartbeat: u64,
    inflight: Vec<Inflight<V>>,
}

/// One stamped request in flight toward an owner.
#[derive(Clone, Debug)]
struct Inflight<V> {
    /// Stamp of the *current* attempt (refreshed on every re-dispatch, so
    /// replies to abandoned attempts are recognizably stale).
    op: u64,
    page: PageId,
    target: NodeId,
    /// The bare Figure-4 request, kept for re-sending.
    request: Msg<V>,
    /// When the current attempt is abandoned and its target suspected.
    deadline: u64,
    /// Re-dispatches and NACKs consumed so far.
    attempt: u32,
}

impl<V> Failover<V> {
    /// Deadline of attempt number `attempt` stamped `op`, started `now`:
    /// the base patience plus exponential backoff with deterministic
    /// jitter, so replays retry at identical times.
    fn deadline(&self, now: u64, me: NodeId, op: u64, attempt: u32) -> u64 {
        let salt = ((me.index() as u64) << 32) | (op & 0xFFFF_FFFF);
        now + self.patience + self.config.backoff(attempt, salt)
    }
}

/// One node of the causal DSM, minus network I/O (see the module docs).
///
/// **Durability.** A driver built by [`NodeDriver::open`] owns its
/// node's write-ahead log: every `&mut` entry point ends by appending the
/// records that call journaled, synced and checkpointed as the store's
/// [`SyncPolicy`](dsm_durable::SyncPolicy) says. By the time a call
/// returns the [`Effects`] holding a reply, what the reply certifies is
/// as durable as the policy promises, whichever executor sends it.
/// Clones share the log.
#[derive(Clone, Debug)]
pub struct NodeDriver<V> {
    state: CausalState<V>,
    /// The write-ahead log, for a node [opened](NodeDriver::open) on a
    /// disk. The mutex is never contended (every call that appends holds
    /// the node exclusively); it makes the driver `Sync` and its clones
    /// share the log.
    log: Option<Arc<Mutex<Store<V>>>>,
    /// The executor's clock as of the current call.
    now: u64,
    pending: Option<Pending<V>>,
    /// An operation the pipeline gated; re-tried each time a pipelined
    /// reply drains. The node is blocked while this is set.
    deferred: Option<Op<V>>,
    pipeline: Pipeline<V>,
    fo: Option<Failover<V>>,
}

impl<V: Value> NodeDriver<V> {
    /// Wraps a node's protocol state.
    #[must_use]
    pub fn new(state: CausalState<V>) -> Self {
        let config = state.config();
        let fo = state.failover_config().map(|fc| Failover {
            config: fc,
            started: false,
            patience: fc
                .heartbeat_interval
                .saturating_mul(u64::from(fc.suspicion_threshold))
                .max(1),
            next_heartbeat: fc.heartbeat_interval.max(1),
            inflight: Vec::new(),
        });
        let window = config.pipeline_window() as usize;
        let pipeline = Pipeline {
            window,
            batching: config.batching(),
            owner: None,
            tags: VecDeque::new(),
            buffer: Vec::new(),
        };
        NodeDriver {
            state,
            log: None,
            now: 0,
            pending: None,
            deferred: None,
            pipeline,
            fo,
        }
    }

    /// The wrapped protocol state.
    #[must_use]
    pub fn state(&self) -> &CausalState<V> {
        &self.state
    }

    /// Mutable access to the protocol state (tests). Whatever it
    /// journals is appended to the log by the next entry-point call.
    #[must_use]
    pub fn state_mut(&mut self) -> &mut CausalState<V> {
        &mut self.state
    }

    /// Asynchronous writes whose replies are still outstanding
    /// (diagnostic).
    #[must_use]
    pub fn pipeline_in_flight(&self) -> usize {
        self.pipeline.tags.len()
    }

    // ------------------------------------------------------------------
    // Entry points
    // ------------------------------------------------------------------

    /// Submits the node's next application operation. Either `fx.done` is
    /// set on return, or the node is blocked until a later
    /// [`deliver`](Self::deliver) / [`on_timer`](Self::on_timer) sets it.
    ///
    /// # Panics
    ///
    /// Panics if an operation is already outstanding.
    pub fn submit(&mut self, now: u64, op: Op<V>, fx: &mut Effects<V>) {
        assert!(
            self.pending.is_none() && self.deferred.is_none(),
            "one outstanding op per node"
        );
        self.clock(now);
        self.try_op(op, fx);
        self.side_traffic(fx);
        self.persist();
    }

    /// An owner-local write as one atomic Figure-4 step, without becoming
    /// the node's outstanding operation: classification and the step
    /// happen under this one borrow, so no epoch adoption can slip between
    /// them. Hands the value back when the node does not own `loc` right
    /// now or asynchronous writes are in flight (a local write must not
    /// stamp its page with uncertified increments) — the caller then
    /// submits an [`Op::Write`]. The step stores `value` into the slot's
    /// own cells when nothing else holds them
    /// ([`CausalState::write_owned`]).
    ///
    /// # Errors
    ///
    /// Returns the value unchanged when the write must go through
    /// [`submit`](Self::submit).
    pub fn write_local(
        &mut self,
        loc: Location,
        value: V,
        fx: &mut Effects<V>,
    ) -> Result<WriteId, V> {
        if !self.pipeline.tags.is_empty() {
            return Err(value);
        }
        let wid = self.state.write_owned(loc, value)?;
        self.side_traffic(fx);
        self.persist();
        Ok(wid)
    }

    /// Delivers a protocol message from `from`.
    pub fn deliver(&mut self, now: u64, from: NodeId, msg: Msg<V>, fx: &mut Effects<V>) {
        self.clock(now);
        if self.fo.is_some() {
            // Any inbound message is evidence of life, not just heartbeats.
            self.state.record_alive(from, now);
        }
        self.dispatch(from, msg, fx);
        self.side_traffic(fx);
        self.persist();
    }

    /// The earliest time [`on_timer`](Self::on_timer) must run, if any:
    /// the next heartbeat or an attempt deadline. Always `None` without
    /// failover.
    #[must_use]
    pub fn next_timer(&self) -> Option<u64> {
        let fo = self.fo.as_ref()?;
        fo.inflight
            .iter()
            .map(|e| e.deadline)
            .chain([fo.next_heartbeat])
            .min()
    }

    /// Fires whatever is due at `now`: heartbeats and probe-silence
    /// suspicion, and expired attempts (their targets are suspected and
    /// the requests re-dispatched).
    pub fn on_timer(&mut self, now: u64, fx: &mut Effects<V>) {
        self.clock(now);
        let heartbeat_due = self.fo.as_mut().is_some_and(|fo| {
            let due = fo.next_heartbeat <= now;
            if due {
                fo.next_heartbeat = now + fo.config.heartbeat_interval.max(1);
            }
            due
        });
        if heartbeat_due {
            if let Some(hb) = self.state.heartbeat_msg() {
                fx.sends.extend(self.peers().map(|peer| (peer, hb.clone())));
            }
            for suspect in self.state.check_suspicions(now) {
                self.declare_suspect(suspect, fx);
            }
        }
        // Requests whose per-attempt patience ran out: treat the silent
        // owner as crashed and migrate away from it.
        let expired: Vec<NodeId> = self
            .fo
            .iter()
            .flat_map(|fo| &fo.inflight)
            .filter(|e| e.deadline <= now)
            .map(|e| e.target)
            .collect();
        for target in expired {
            self.declare_suspect(target, fx);
        }
        self.side_traffic(fx);
        self.persist();
    }

    /// The transport is gone (a send failed — terminal for the session):
    /// forget the outstanding operation, every in-flight attempt and the
    /// whole pipelined run, including writes already acknowledged to
    /// their callers — no reply will ever arrive for any of them, and
    /// leaving them registered would wedge a later flush. Returns whether
    /// an operation was outstanding.
    pub fn transport_down(&mut self) -> bool {
        let blocked = self.pending.take().is_some() | self.deferred.take().is_some();
        self.pipeline.tags.clear();
        self.pipeline.buffer.clear();
        self.pipeline.owner = None;
        if let Some(fo) = &mut self.fo {
            fo.inflight.clear();
        }
        blocked
    }

    /// Journal before reply: appends what this call journaled to the log
    /// and checkpoints once enough records accumulated. It runs last in
    /// every entry point, under the caller's exclusive access, so log
    /// order is mutation order and nothing of the call has been sent yet.
    /// Without a log, one `Option` test.
    fn persist(&mut self) {
        let Some(log) = &self.log else { return };
        let records = self.state.take_journal();
        if records.is_empty() {
            return;
        }
        let mut store = log.lock();
        store.append(&records);
        if store.wants_checkpoint() {
            store.checkpoint(&self.state.durable_image());
        }
    }

    /// Takes the executor's clock for this call. A life's first call also
    /// starts failover's silence clock: every peer counts as heard at
    /// `now`, not at time 0 — `now` is arbitrary monotone time, so a state
    /// rebuilt at time T by [`CausalState::recover`] would otherwise find
    /// every live peer silent for T and suspect it on its first check.
    fn clock(&mut self, now: u64) {
        self.now = now;
        if let Some(fo) = self.fo.as_mut().filter(|fo| !fo.started) {
            fo.started = true;
            for peer in 0..self.state.config().nodes() {
                self.state.record_alive(NodeId::new(peer), now);
            }
        }
    }

    // ------------------------------------------------------------------
    // Operations
    // ------------------------------------------------------------------

    /// Every other node. Failure detection is all-pairs: heartbeats and
    /// `[SUSPECT]` decisions go to each of them.
    fn peers(&self) -> impl Iterator<Item = NodeId> {
        let me = self.state.id();
        (0..self.state.config().nodes())
            .map(NodeId::new)
            .filter(move |peer| *peer != me)
    }

    /// The node currently serving `loc`: the static owner until failover
    /// migrates the page to a higher epoch.
    fn owner_now(&self, loc: Location) -> NodeId {
        self.state
            .current_owner(loc.page(self.state.config().page_size()))
    }

    /// The drain/slot rules of the bounded pipeline. Operations that
    /// would leak in-flight increments — an owner-local write (it would
    /// embed them in the page stamp it later exports via R_REPLY), a write
    /// toward a *different* owner (it would carry them in its VT), or a
    /// read that will miss toward the pipeline's owner (the fetched copy
    /// could predate our own writes) — wait for a full drain; a
    /// same-owner pipelined write waits only for a free window slot.
    /// Everything else overlaps: further writes to the same owner ride
    /// per-link FIFO, a READ toward another owner carries no timestamp,
    /// and any copy stamped with our increments must postdate the owner
    /// installing our write.
    fn gated(&self, op: &Op<V>) -> bool {
        let p = &self.pipeline;
        if p.tags.is_empty() {
            return false;
        }
        let leaks = |loc: Location| {
            let owner = self.owner_now(loc);
            owner == self.state.id() || p.owner != Some(owner)
        };
        match op {
            Op::Flush => true,
            Op::Discard(_) => false,
            Op::Read(loc) => {
                !self.state.has_valid_copy(*loc) && p.owner == Some(self.owner_now(*loc))
            }
            Op::ReadFresh(loc) => p.owner == Some(self.owner_now(*loc)),
            Op::Write(loc, _) => leaks(*loc),
            Op::WritePipelined(loc, _) => leaks(*loc) || p.tags.len() >= p.window,
        }
    }

    /// Attempts `op`, stashing it in `deferred` (with the buffer shipped,
    /// so the drain can make progress) when the pipeline gates it.
    fn try_op(&mut self, op: Op<V>, fx: &mut Effects<V>) {
        if self.gated(&op) {
            self.pipeline.ship(&mut fx.sends);
            self.deferred = Some(op);
        } else {
            self.perform(op, fx);
        }
    }

    /// Performs `op` now (the pipeline has cleared it).
    fn perform(&mut self, op: Op<V>, fx: &mut Effects<V>) {
        match op {
            Op::Read(loc) | Op::ReadFresh(loc) => {
                if matches!(op, Op::ReadFresh(_)) {
                    self.state.discard(loc);
                }
                match self.state.begin_read(loc) {
                    ReadStep::Hit { value, wid } => {
                        self.complete(Done::Read { loc, value, wid }, fx);
                    }
                    ReadStep::Miss { owner, request } => {
                        let Msg::Read { page } = request else {
                            unreachable!("a read miss asks with READ")
                        };
                        self.pending = Some(Pending::Read { loc, page });
                        let request = self.stamp(owner, request);
                        fx.sends.push((owner, request));
                    }
                }
            }
            Op::Write(loc, value) => self.write_blocking(loc, value, fx),
            Op::WritePipelined(loc, value) => {
                if self.pipeline.window == 0 || self.state.owns(loc) {
                    self.write_blocking(loc, value, fx);
                } else {
                    self.write_pipelined(loc, value, fx);
                }
            }
            Op::Discard(loc) => {
                self.state.discard(loc);
                self.complete(Done::Discarded, fx);
            }
            Op::Flush => self.complete(Done::Flushed, fx),
        }
    }

    fn write_blocking(&mut self, loc: Location, value: Arc<V>, fx: &mut Effects<V>) {
        match self.state.begin_write_shared(loc, Arc::clone(&value)) {
            WriteStep::Done { wid } => {
                let done = WriteDone::Applied { wid };
                self.complete(Done::Wrote { loc, value, done }, fx);
            }
            WriteStep::Remote {
                owner,
                wid,
                request,
            } => {
                // Toward the pipeline's own owner per-link FIFO already
                // orders this write behind the pipelined ones; just make
                // sure nothing still buffered can be overtaken.
                self.pipeline.ship(&mut fx.sends);
                self.pending = Some(Pending::Write { loc, value, wid });
                let request = self.stamp(owner, request);
                fx.sends.push((owner, request));
            }
        }
    }

    /// Issues a write through the pipeline (remote owner, window open):
    /// completes at issue; the request goes out now or rides a batch.
    fn write_pipelined(&mut self, loc: Location, value: Arc<V>, fx: &mut Effects<V>) {
        let step = self
            .state
            .begin_write_nonblocking_shared(loc, Arc::clone(&value));
        let WriteStep::Remote {
            owner,
            wid,
            request,
        } = step
        else {
            unreachable!("pipelined writes never target owned pages")
        };
        let request = self.stamp(owner, request);
        let p = &mut self.pipeline;
        p.tags.push_back(wid);
        p.owner = Some(owner);
        if p.batching {
            p.buffer.push(request);
            // Nothing on the wire: ship, buffering would idle the owner
            // for no gain. Otherwise writes issued during the in-flight
            // run's round trip accumulate here and go out as one envelope
            // when the wire drains (see `on_reply`) or the window fills
            // (see `try_op`), so run length tracks the round-trip time up
            // to the window instead of imposing a fixed-count wait.
            if p.buffer.len() == p.tags.len() {
                p.ship(&mut fx.sends);
            }
        } else {
            fx.sends.push((owner, request));
        }
        let done = WriteDone::Applied { wid };
        self.complete(Done::Wrote { loc, value, done }, fx);
    }

    fn complete(&mut self, done: Done<V>, fx: &mut Effects<V>) {
        debug_assert!(fx.done.is_none(), "at most one completion per call");
        fx.done = Some(done);
    }

    /// Abandons the blocked operation with `err`; whatever reply still
    /// arrives for it is then stale and discarded.
    fn fail(&mut self, err: MemoryError, fx: &mut Effects<V>) {
        self.pending = None;
        self.deferred = None;
        self.complete(Done::Failed(err), fx);
    }

    /// Appends pending protocol side traffic: hot-standby shadows queued
    /// by a locally installed write (failover) and `[INTEREST]` drops
    /// queued by cache eviction (interest scoping).
    fn side_traffic(&mut self, fx: &mut Effects<V>) {
        if self.fo.is_some() {
            fx.sends.extend(self.state.take_replications());
        }
        if self.state.config().interest_scoping() {
            fx.sends.extend(self.state.take_interest_msgs());
        }
    }

    // ------------------------------------------------------------------
    // Inbound messages
    // ------------------------------------------------------------------

    fn dispatch(&mut self, from: NodeId, msg: Msg<V>, fx: &mut Effects<V>) {
        match msg {
            // Pure liveness (already recorded), or the engine's sentinel.
            Msg::Heartbeat { .. } | Msg::Halt => {}
            Msg::Suspect { suspect, epochs } => {
                self.state.absorb_suspect(suspect, &epochs);
                self.redispatch(fx);
            }
            Msg::Replicate {
                page,
                vt,
                slots,
                origins,
            } => self
                .state
                .apply_replicate(page, vt.into_inner(), slots, origins),
            // A peer evicted its copy: it is no longer interested.
            Msg::Interest { page } => self.state.handle_interest_drop(page, from),
            Msg::Nack {
                page, op, epoch, ..
            } => self.on_nack(page, op, epoch, fx),
            Msg::Stamped { epoch, op, inner } if inner.is_request() => {
                if let Some(reply) = self.state.serve_stamped(from, epoch, op, *inner) {
                    fx.sends.push((from, reply));
                }
                // Serving may have adopted a newer epoch.
                self.redispatch(fx);
            }
            // Matched against the in-flight table by op id; replies to
            // abandoned attempts are stale and silently dropped — the
            // recoverable-timeout contract.
            Msg::Stamped { op, inner, .. } => {
                let Some(fo) = &mut self.fo else { return };
                if let Some(i) = fo.inflight.iter().position(|e| e.op == op) {
                    fo.inflight.swap_remove(i);
                    self.on_reply(*inner, fx);
                }
            }
            Msg::Batch(parts) => {
                // A transport batch is its parts, in order: requests are
                // served in one pass with a single coalesced invalidation
                // sweep and answered in one envelope (the piggybacked
                // acks); reply parts absorb as if they had arrived alone.
                let mut requests = Vec::with_capacity(parts.len());
                for part in parts {
                    if part.is_request() {
                        requests.push(part);
                    } else {
                        self.on_reply(part, fx);
                    }
                }
                if !requests.is_empty() {
                    let mut replies = self.state.serve_batch(from, requests);
                    let reply = if replies.len() == 1 {
                        replies.pop().expect("length checked")
                    } else {
                        Msg::Batch(replies)
                    };
                    fx.sends.push((from, reply));
                }
            }
            request @ (Msg::Read { .. } | Msg::Write { .. }) => {
                let reply = self
                    .state
                    .serve(from, request)
                    .expect("requests always produce replies");
                fx.sends.push((from, reply));
            }
            reply => self.on_reply(reply, fx),
        }
    }

    /// Handles a reply (never a request): absorbs the replies of
    /// asynchronous writes — shipping the run that accumulated behind
    /// them and re-trying any deferred operation as the pipeline drains —
    /// and completes the pending operation if the reply answers it.
    /// Anything else is a leftover of an abandoned operation.
    fn on_reply(&mut self, reply: Msg<V>, fx: &mut Effects<V>) {
        if let Msg::WriteReply { wid, .. } = &reply {
            if self.pipeline.absorb(*wid) {
                self.state.absorb_write_reply(reply);
                let p = &mut self.pipeline;
                if p.tags.is_empty() {
                    p.owner = None;
                } else if p.buffer.len() == p.tags.len() {
                    // The wire just drained and everything outstanding is
                    // still buffered: ship it, as one envelope.
                    p.ship(&mut fx.sends);
                }
                if let Some(op) = self.deferred.take() {
                    self.try_op(op, fx);
                }
                return;
            }
        }
        if !self.concerns_pending(&reply) {
            return;
        }
        match self.pending.take() {
            Some(Pending::Read { loc, .. }) => {
                let (value, wid) = self.state.finish_read(loc, reply);
                self.complete(Done::Read { loc, value, wid }, fx);
            }
            Some(Pending::Write { loc, value, wid }) => {
                let done = self.state.finish_write(Arc::clone(&value), wid, reply);
                self.complete(Done::Wrote { loc, value, done }, fx);
            }
            None => unreachable!("matched above"),
        }
    }

    /// `true` iff `msg` — a request or its reply — belongs to the blocked
    /// operation, judged by *content*: the page of a READ, the tag of a
    /// WRITE. A late reply to an abandoned operation (or a pipelined
    /// write's request) therefore never passes for the current one.
    fn concerns_pending(&self, msg: &Msg<V>) -> bool {
        match (msg, &self.pending) {
            (
                Msg::Read { page } | Msg::ReadReply { page, .. },
                Some(Pending::Read { page: want, .. }),
            ) => page == want,
            (
                Msg::Write { wid, .. } | Msg::WriteReply { wid, .. },
                Some(Pending::Write { wid: want, .. }),
            ) => wid == want,
            _ => false,
        }
    }

    // ------------------------------------------------------------------
    // Failover: stamp, NACK redirect, re-dispatch, suspicion
    // ------------------------------------------------------------------

    /// With failover enabled, wraps an outgoing Figure-4 request in the
    /// `(epoch, op)` envelope and tracks it for NACK redirect and timeout
    /// retry; a passthrough otherwise.
    fn stamp(&mut self, owner: NodeId, request: Msg<V>) -> Msg<V> {
        let Some(fo) = &mut self.fo else {
            return request;
        };
        let page = match &request {
            Msg::Read { page } => *page,
            Msg::Write { loc, .. } => loc.page(self.state.config().page_size()),
            other => unreachable!("only owner requests are stamped: {other:?}"),
        };
        let epoch = self.state.epoch_of(page);
        let op = self.state.next_op_id();
        fo.inflight.push(Inflight {
            op,
            page,
            target: owner,
            request: request.clone(),
            deadline: fo.deadline(self.now, self.state.id(), op, 0),
            attempt: 0,
        });
        Msg::Stamped {
            epoch,
            op,
            inner: Box::new(request),
        }
    }

    /// Re-resolves every in-flight request against the current epoch
    /// table: entries whose page migrated are re-stamped and re-sent to
    /// the new owner — or served against the local promoted copy when the
    /// migration landed *here*. Called after any event that can advance
    /// an epoch (SUSPECT, NACK, a stamped request, a timer suspicion).
    /// The blocked operation gives up with [`MemoryError::Timeout`] once
    /// it has consumed `max_retries` re-dispatches and NACKs; pipelined
    /// writes, already acknowledged to their caller, keep trying.
    fn redispatch(&mut self, fx: &mut Effects<V>) {
        let Some(fo) = &mut self.fo else { return };
        let max_retries = fo.config.max_retries;
        let inflight = std::mem::take(&mut fo.inflight);
        let me = self.state.id();
        let mut keep = Vec::with_capacity(inflight.len());
        let mut local = Vec::new();
        for mut entry in inflight {
            let owner = self.state.current_owner(entry.page);
            if owner == entry.target {
                keep.push(entry);
                continue;
            }
            entry.attempt = entry.attempt.saturating_add(1);
            if entry.attempt > max_retries && self.concerns_pending(&entry.request) {
                let owner = entry.target;
                self.fail(MemoryError::Timeout { owner }, fx);
                continue;
            }
            let epoch = self.state.epoch_of(entry.page);
            entry.op = self.state.next_op_id();
            if owner == me {
                // The page migrated *to us* mid-operation: serve our own
                // request against the promoted copy.
                match self.state.serve_stamped(me, epoch, entry.op, entry.request) {
                    Some(Msg::Stamped { inner, .. }) => local.push(*inner),
                    other => unreachable!("self-serve cannot be refused: {other:?}"),
                }
                continue;
            }
            let fo = self.fo.as_ref().expect("checked above");
            entry.deadline = fo.deadline(self.now, me, entry.op, entry.attempt);
            entry.target = owner;
            fx.sends.push((
                owner,
                Msg::Stamped {
                    epoch,
                    op: entry.op,
                    inner: Box::new(entry.request.clone()),
                },
            ));
            // A migrated pipelined window now points at the successor.
            if matches!(&entry.request, Msg::Write { wid, .. } if self.pipeline.tags.contains(wid))
            {
                self.pipeline.owner = Some(owner);
            }
            keep.push(entry);
        }
        self.fo.as_mut().expect("checked above").inflight = keep;
        // Locally served replies absorb exactly as if they had arrived
        // over the wire (their entries are already retired above).
        for inner in local {
            self.on_reply(inner, fx);
        }
    }

    /// Locally declares `node` crashed: migrates its pages to their
    /// successors, broadcasts the `[SUSPECT]` decision (including toward
    /// the suspect itself — dropped while it is down, but a session
    /// layer's retransmission re-educates it once it restarts), and
    /// re-dispatches any requests that pointed at it.
    fn declare_suspect(&mut self, node: NodeId, fx: &mut Effects<V>) {
        let already = self.state.is_suspected(node);
        let migrated = self.state.suspect(node);
        if !(already && migrated.is_empty()) {
            let msg = Msg::Suspect {
                suspect: node,
                epochs: migrated,
            };
            fx.sends
                .extend(self.peers().map(|peer| (peer, msg.clone())));
        }
        self.redispatch(fx);
    }

    /// Handles a `[NACK]`: adopt the server's (newer) epoch and re-route
    /// the rejected attempt to the node now serving the page.
    fn on_nack(&mut self, page: PageId, op: u64, epoch: OwnerEpoch, fx: &mut Effects<V>) {
        if let Some(fo) = &mut self.fo {
            if let Some(entry) = fo.inflight.iter_mut().find(|e| e.op == op) {
                entry.attempt = entry.attempt.saturating_add(1);
            }
        }
        self.state.observe_epoch(page, epoch);
        self.redispatch(fx);
    }
}

impl<V: Value + Wire> NodeDriver<V> {
    /// Node `id` with a write-ahead log on `disk` — the one way a node
    /// boots durable. A virgin disk starts a first life
    /// ([`CausalState::new`]); any other is *recovered*
    /// ([`CausalState::recover`]): its checkpoint and log tail are
    /// replayed into page images, origin clocks and the owner-epoch table,
    /// and the node rejoins as a full peer under the next incarnation.
    /// The life's `Node` record is then appended and synced **whatever
    /// the policy**: once this life has talked to anyone, a crash must
    /// never recover a virgin disk, or the next life would reuse its
    /// incarnation and its frames would not be fenced.
    ///
    /// # Panics
    ///
    /// Panics if `config` has no
    /// [`durability`](crate::CausalConfigBuilder::durability) settings.
    #[must_use]
    pub fn open(id: NodeId, config: CausalConfig<V>, disk: Box<dyn Disk>) -> Self {
        let dcfg = config
            .durability()
            .expect("a disk requires a durability config");
        let (store, recovered) = Store::open(disk, dcfg);
        let state = if recovered.is_virgin() {
            CausalState::new(id, config)
        } else {
            let incarnation = recovered.next_incarnation();
            CausalState::recover(id, config, recovered.records, incarnation)
        };
        let log = Arc::new(Mutex::new(store));
        let mut driver = NodeDriver::new(state);
        driver.log = Some(Arc::clone(&log));
        driver.persist();
        log.lock().sync();
        driver
    }
}

/// The [`Driver`] surface of the causal owner protocol: each method is the
/// inherent one of the same name.
impl<V: Value> Driver for NodeDriver<V> {
    type Value = V;
    type Msg = Msg<V>;
    type Config = CausalConfig<V>;
    const NAME: &'static str = "Causal";

    fn submit(&mut self, now: u64, op: Op<V>, fx: &mut Effects<V>) {
        NodeDriver::submit(self, now, op, fx);
    }

    fn deliver(&mut self, now: u64, from: NodeId, msg: Msg<V>, fx: &mut Effects<V>) {
        NodeDriver::deliver(self, now, from, msg, fx);
    }

    /// Failover's heartbeats and attempt deadlines.
    fn timed(&self) -> bool {
        self.fo.is_some()
    }

    fn next_timer(&self) -> Option<u64> {
        NodeDriver::next_timer(self)
    }

    fn on_timer(&mut self, now: u64, fx: &mut Effects<V>) {
        NodeDriver::on_timer(self, now, fx);
    }

    fn transport_down(&mut self) -> bool {
        NodeDriver::transport_down(self)
    }

    fn needs_delivery(msg: &Msg<V>) -> bool {
        msg.is_request() || msg.is_batch()
    }

    fn read_hit(&self, loc: Location) -> Option<(Arc<V>, WriteId)> {
        self.state.read_hit(loc)
    }

    fn write_local(&mut self, loc: Location, value: V, fx: &mut Effects<V>) -> Result<WriteId, V> {
        NodeDriver::write_local(self, loc, value, fx)
    }
}
