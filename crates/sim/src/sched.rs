//! The deterministic discrete-event scheduler.
//!
//! One event queue drives every node's protocol driver and client program:
//! client steps, message deliveries (with per-link FIFO preserved under
//! arbitrary latency models), timers, and wait polling. All
//! nondeterminism comes from the seeded latency RNG, so every run is
//! replayable — this is what the property tests lean on.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

use causal_dsm::{Done, EffectsOf, Op};
use memcore::{kinds, NetStats, NodeId, OpRecord, Recorder};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use simnet::latency::{Constant, LatencyModel};
use simnet::{FaultHook, Tagged};

use crate::client::{Client, ClientOp, Outcome, Pred};
use crate::driver::SimDriver;

/// The driver operation a client operation submits.
/// [`ClientOp::WaitUntil`] is decomposed by the scheduler and never
/// reaches a driver.
pub(crate) fn submission<V: Clone>(op: &ClientOp<V>) -> Op<V> {
    let shared = |v: &V| Arc::new(v.clone());
    match op {
        ClientOp::Read(loc) => Op::Read(*loc),
        ClientOp::ReadFresh(loc) => Op::ReadFresh(*loc),
        // With a pipeline window configured, plain writes flow through
        // it, so chaos plans exercise the layer.
        ClientOp::Write(loc, v) => Op::WritePipelined(*loc, shared(v)),
        ClientOp::WriteBlocking(loc, v) => Op::Write(*loc, shared(v)),
        ClientOp::Discard(loc) => Op::Discard(*loc),
        ClientOp::Flush => Op::Flush,
        ClientOp::WaitUntil(..) => unreachable!("scheduler decomposes waits"),
    }
}

/// What a driver's completion is to the client, and the record the
/// specification checker consumes (absent for discards and flushes). An
/// operation the driver gave up on ([`Done::Failed`]) never completes:
/// the node stays blocked and the run reports it stuck, which is how
/// every harness already treats a wedged client.
pub(crate) fn completion<V: Clone>(done: Done<V>) -> Option<(Outcome<V>, Option<OpRecord<V>>)> {
    Some(match done {
        Done::Read { loc, value, wid } => {
            let value = (*value).clone();
            let record = OpRecord::read(loc, value.clone(), wid);
            (Outcome::Read { value, wid }, Some(record))
        }
        Done::Wrote { loc, value, done } => (
            Outcome::Wrote {
                wid: done.wid(),
                applied: done.is_applied(),
            },
            Some(OpRecord::write(loc, (*value).clone(), done.wid())),
        ),
        Done::Discarded => (Outcome::Discarded, None),
        Done::Flushed => (Outcome::Flushed, None),
        Done::Failed(_) => return None,
    })
}

/// How [`ClientOp::WaitUntil`] re-reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WaitMode {
    /// Re-read only once the authoritative copy satisfies the predicate:
    /// exactly one successful fetch per wait, the "ideal signaling" the
    /// paper's §4.1 message counts assume.
    IdealSignal,
    /// Honest polling: discard + re-read every `interval` time units until
    /// satisfied. Reproduces the real cost of spinning on a DSM.
    Poll {
        /// Time units between polls.
        interval: u64,
    },
}

/// Limits for one [`Sim::run`] call.
#[derive(Clone, Copy, Debug)]
pub struct RunLimits {
    /// Stop after this many events (guards against runaway programs).
    pub max_events: u64,
    /// Stop once simulated time passes this value.
    pub max_time: u64,
}

impl Default for RunLimits {
    fn default() -> Self {
        RunLimits {
            max_events: 10_000_000,
            max_time: u64::MAX,
        }
    }
}

/// The outcome of a simulation run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimReport {
    /// Final simulated time (makespan).
    pub time: u64,
    /// Events processed.
    pub events: u64,
    /// `true` iff every client ran to completion.
    pub all_done: bool,
    /// Nodes left waiting or mid-operation when the run stopped.
    pub stuck_nodes: Vec<usize>,
}

enum EventKind<M> {
    Step {
        node: usize,
    },
    Deliver {
        src: NodeId,
        dst: NodeId,
        msg: M,
        /// An extra copy manufactured by the fault model.
        duplicate: bool,
    },
    PollWait {
        node: usize,
    },
    Timer {
        node: usize,
    },
    /// Runs the restart rule once the node's crash window elapses, even
    /// if no other event targets the node.
    Restart {
        node: usize,
    },
}

struct Wait<V> {
    loc: memcore::Location,
    pred: Pred<V>,
    in_flight: bool,
}

/// Options for constructing a [`Sim`].
pub struct SimOpts<V> {
    /// Link latency model (default: constant 1).
    pub latency: Box<dyn LatencyModel + Send>,
    /// Seed for the latency RNG.
    pub seed: u64,
    /// Wait re-read policy.
    pub wait_mode: WaitMode,
    /// Operation recorder for specification checking.
    pub recorder: Option<Recorder<V>>,
    /// Fault model consulted on every send and delivery (default: none —
    /// the paper's reliable FIFO network).
    ///
    /// With a hook installed, the per-link FIFO clamp is disabled: a faulty
    /// link may drop, duplicate, *and reorder*, and re-deriving FIFO
    /// exactly-once delivery is the session layer's job (`dsm-faults`).
    pub faults: Option<Arc<dyn FaultHook>>,
}

impl<V> Default for SimOpts<V> {
    fn default() -> Self {
        SimOpts {
            latency: Box::new(Constant::new(1)),
            seed: 0,
            wait_mode: WaitMode::IdealSignal,
            recorder: None,
            faults: None,
        }
    }
}

/// What a node's restart does once its crash window ends (see
/// [`Sim::set_restart_rule`]).
type RestartRule<D> = Box<dyn FnMut(NodeId, &mut D, &mut EffectsOf<D>) + Send>;

/// A deterministic simulation of `n` protocol nodes, each a
/// [`SimDriver`], and their client programs.
///
/// # Examples
///
/// ```
/// use causal_dsm::{CausalConfig, CausalState, NodeDriver};
/// use dsm_sim::{ClientOp, Script, Sim, SimOpts};
/// use memcore::{Location, NodeId, Word};
///
/// let config = CausalConfig::<Word>::builder(2, 2).build();
/// let drivers = (0..2)
///     .map(|i| NodeDriver::new(CausalState::new(NodeId::new(i), config.clone())))
///     .collect();
/// let mut sim = Sim::new(drivers, SimOpts::default());
/// sim.set_client(0, Script::new(vec![ClientOp::Write(Location::new(1), Word::Int(5))]));
/// let report = sim.run_to_completion();
/// assert!(report.all_done);
/// // x1 is owned by P1: the write cost one WRITE + one W_REPLY.
/// assert_eq!(sim.messages().snapshot().total(), 2);
/// ```
pub struct Sim<D: SimDriver> {
    drivers: Vec<D>,
    /// The one effects buffer every driver call fills.
    fx: EffectsOf<D>,
    clients: Vec<Option<Box<dyn Client<D::Value>>>>,
    last_outcome: Vec<Option<Outcome<D::Value>>>,
    blocked: Vec<bool>,
    waits: Vec<Option<Wait<D::Value>>>,
    queue: BinaryHeap<Reverse<(u64, u64, usize)>>,
    events_by_seq: HashMap<u64, EventKind<D::Msg>>,
    time: u64,
    seq: u64,
    latency: Box<dyn LatencyModel + Send>,
    link_last: HashMap<(u32, u32), u64>,
    rng: ChaCha8Rng,
    stats: NetStats,
    byte_stats: NetStats,
    envelope_stats: NetStats,
    metadata_stats: NetStats,
    recorder: Option<Recorder<D::Value>>,
    wait_mode: WaitMode,
    events_processed: u64,
    faults: Option<Arc<dyn FaultHook>>,
    /// Earliest queued `Timer` event per node (dedup; stale events
    /// revalidate against the driver and no-op).
    timer_scheduled: Vec<Option<u64>>,
    /// Nodes observed down whose restart has not run yet. Set on the
    /// first event that finds the node crashed; cleared at the first
    /// post-crash event.
    down_seen: Vec<bool>,
    restart: Option<RestartRule<D>>,
}

impl<D: SimDriver> Sim<D> {
    /// Creates a simulation over `drivers` (indexed by node id).
    ///
    /// # Panics
    ///
    /// Panics if `drivers` is empty.
    #[must_use]
    pub fn new(drivers: Vec<D>, opts: SimOpts<D::Value>) -> Self {
        assert!(!drivers.is_empty(), "at least one driver required");
        let n = drivers.len();
        Sim {
            drivers,
            fx: EffectsOf::<D>::default(),
            clients: (0..n).map(|_| None).collect(),
            last_outcome: (0..n).map(|_| None).collect(),
            blocked: vec![false; n],
            waits: (0..n).map(|_| None).collect(),
            queue: BinaryHeap::new(),
            events_by_seq: HashMap::new(),
            time: 0,
            seq: 0,
            latency: opts.latency,
            link_last: HashMap::new(),
            rng: ChaCha8Rng::seed_from_u64(opts.seed),
            stats: NetStats::new(n),
            byte_stats: NetStats::new(n),
            envelope_stats: NetStats::new(n),
            metadata_stats: NetStats::new(n),
            recorder: opts.recorder,
            wait_mode: opts.wait_mode,
            events_processed: 0,
            faults: opts.faults,
            timer_scheduled: vec![None; n],
            down_seen: vec![false; n],
            restart: None,
        }
    }

    /// Installs `client` as node `node`'s program.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn set_client(&mut self, node: usize, client: impl Client<D::Value> + 'static) {
        self.set_client_boxed(node, Box::new(client));
    }

    /// Installs an already-boxed client — the form harnesses generic over
    /// workload hold them in.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn set_client_boxed(&mut self, node: usize, client: Box<dyn Client<D::Value>>) {
        assert!(node < self.drivers.len(), "node out of range");
        self.clients[node] = Some(client);
    }

    /// Installs what a node's restart does once the fault model's crash
    /// window for it ends. `rule` runs once per window, at the first
    /// event to find the node up again and before that event reaches it:
    /// it may replace or amend the node's driver (a recovery from disk)
    /// and put sends in the effects buffer (announcing the new life).
    /// Without a rule a crash window is a pause: the node resumes with
    /// its state intact — the paper's fail-stop world has no disk.
    pub fn set_restart_rule(
        &mut self,
        rule: impl FnMut(NodeId, &mut D, &mut EffectsOf<D>) + Send + 'static,
    ) {
        self.restart = Some(Box::new(rule));
    }

    /// Per-(node, kind) protocol message counters.
    #[must_use]
    pub fn messages(&self) -> &NetStats {
        &self.stats
    }

    /// Per-(node, kind) approximate wire-byte counters (populated for
    /// payloads reporting a wire size).
    #[must_use]
    pub fn bytes(&self) -> &NetStats {
        &self.byte_stats
    }

    /// Per-(node, kind) **physical envelope** counters, one per send
    /// attempt. Without transport batching this mirrors
    /// [`Sim::messages`]; with batching, a coalesced run counts once here
    /// (kind `BATCH`) while its parts still count individually in the
    /// logical counters — `messages - envelopes` is the coalescing win.
    #[must_use]
    pub fn envelopes(&self) -> &NetStats {
        &self.envelope_stats
    }

    /// Per-(node, kind) **causal-metadata** byte counters: the exact wire
    /// bytes spent on vector timestamps, honoring each stamp's
    /// dense/sparse encoding (populated for payloads reporting a metadata
    /// size). Dividing by the operation count gives the scale benches'
    /// `metadata_bytes_per_op`.
    #[must_use]
    pub fn metadata(&self) -> &NetStats {
        &self.metadata_stats
    }

    /// The driver of node `i` (inspection).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn driver(&self, i: usize) -> &D {
        &self.drivers[i]
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.time
    }

    /// Runs with default limits until all clients finish or the queue
    /// drains.
    pub fn run_to_completion(&mut self) -> SimReport {
        self.run(RunLimits::default())
    }

    /// Runs the event loop.
    pub fn run(&mut self, limits: RunLimits) -> SimReport {
        // Kick off every installed client.
        for node in 0..self.drivers.len() {
            if self.clients[node].is_some() {
                self.schedule_now(EventKind::Step { node });
            }
        }
        self.sync_timers();

        while let Some(Reverse((t, seq, _))) = self.queue.pop() {
            if self.events_processed >= limits.max_events || t > limits.max_time {
                break;
            }
            self.time = t;
            self.events_processed += 1;
            let kind = self
                .events_by_seq
                .remove(&seq)
                .expect("scheduled event has a body");
            match kind {
                EventKind::Step { node } => match self.node_down_until(node) {
                    // A down node's own activity is deferred to its restart.
                    Some(up) => {
                        self.note_down(node, up);
                        self.schedule(up.max(t + 1), EventKind::Step { node });
                    }
                    None => {
                        self.maybe_restart(node);
                        self.step_client(node);
                    }
                },
                EventKind::Deliver {
                    src,
                    dst,
                    msg,
                    duplicate,
                } => {
                    if let Some(up) = self.node_down_until(dst.index()) {
                        // A dead destination loses the message entirely.
                        self.note_down(dst.index(), up);
                        self.stats.record(src, kinds::DROP);
                    } else {
                        self.maybe_restart(dst.index());
                        if duplicate {
                            self.stats.record(src, kinds::DUP);
                        }
                        self.deliver(src, dst, msg);
                    }
                }
                EventKind::PollWait { node } => match self.node_down_until(node) {
                    Some(up) => {
                        self.note_down(node, up);
                        self.schedule(up.max(t + 1), EventKind::PollWait { node });
                    }
                    None => {
                        self.maybe_restart(node);
                        self.attempt_wait(node);
                    }
                },
                EventKind::Timer { node } => {
                    self.timer_scheduled[node] = None;
                    match self.node_down_until(node) {
                        Some(up) => {
                            self.note_down(node, up);
                            self.timer_scheduled[node] = Some(up.max(t + 1));
                            self.schedule(up.max(t + 1), EventKind::Timer { node });
                        }
                        None => {
                            self.maybe_restart(node);
                            // Revalidate: the driver may have cancelled or
                            // moved its deadline since this was queued.
                            if self.drivers[node]
                                .next_timer()
                                .is_some_and(|want| want <= t)
                            {
                                let done = self.drive(node, |d, now, fx| d.on_timer(now, fx));
                                self.complete(node, done);
                            }
                        }
                    }
                }
                EventKind::Restart { node } => match self.node_down_until(node) {
                    // The crash window grew since this was queued.
                    Some(up) => self.schedule(up.max(t + 1), EventKind::Restart { node }),
                    None => self.maybe_restart(node),
                },
            }
            self.sync_timers();
            // Ideal-signal waits wake on any state change.
            if self.wait_mode == WaitMode::IdealSignal {
                self.scan_waits();
            }
        }

        let stuck_nodes: Vec<usize> = (0..self.drivers.len())
            .filter(|&i| self.blocked[i] || self.waits[i].is_some())
            .collect();
        let all_done = stuck_nodes.is_empty() && self.clients.iter().all(Option::is_none);
        SimReport {
            time: self.time,
            events: self.events_processed,
            all_done,
            stuck_nodes,
        }
    }

    // ------------------------------------------------------------------

    fn schedule(&mut self, t: u64, kind: EventKind<D::Msg>) {
        let seq = self.seq;
        self.seq += 1;
        self.events_by_seq.insert(seq, kind);
        self.queue.push(Reverse((t, seq, 0)));
    }

    fn schedule_now(&mut self, kind: EventKind<D::Msg>) {
        let t = self.time;
        self.schedule(t, kind);
    }

    /// If node `i` is down right now, when it restarts.
    fn node_down_until(&self, i: usize) -> Option<u64> {
        self.faults
            .as_ref()
            .and_then(|h| h.down_until(NodeId::new(i as u32), self.time))
    }

    /// Records that node `node` was observed down and queues a `Restart`
    /// event at its scheduled up-time, so the restart rule runs even if
    /// no other event ever targets the node again.
    fn note_down(&mut self, node: usize, up: u64) {
        if !self.down_seen[node] {
            self.down_seen[node] = true;
            self.schedule(up.max(self.time + 1), EventKind::Restart { node });
        }
    }

    /// Runs the restart rule, if one is installed, if this is the first
    /// event to find the node up after an observed crash window.
    fn maybe_restart(&mut self, node: usize) {
        if !std::mem::take(&mut self.down_seen[node]) {
            return;
        }
        let Some(mut rule) = self.restart.take() else {
            return;
        };
        let id = NodeId::new(node as u32);
        let done = self.drive(node, |d, _, fx| rule(id, d, fx));
        self.restart = Some(rule);
        self.complete(node, done);
    }

    /// Re-reads every driver's timer demand and queues `Timer` events so
    /// the earliest demand is always covered. Stale queued events (the
    /// driver cancelled or moved its deadline) revalidate and no-op.
    fn sync_timers(&mut self) {
        for node in 0..self.drivers.len() {
            let Some(want) = self.drivers[node].next_timer() else {
                continue;
            };
            // A crashed node's timer cannot fire before it restarts;
            // scheduling earlier would duel with the deferred event.
            let mut at = want.max(self.time);
            if let Some(up) = self.node_down_until(node) {
                at = at.max(up);
            }
            match self.timer_scheduled[node] {
                Some(queued) if queued <= at => {}
                _ => {
                    self.timer_scheduled[node] = Some(at);
                    self.schedule(at, EventKind::Timer { node });
                }
            }
        }
    }

    fn send(&mut self, src: NodeId, dst: NodeId, msg: D::Msg) {
        // Logical counters see a batch's parts (so ablations stay
        // batching-invariant); the envelope counter sees one send.
        if msg.is_batch() {
            let (stats, byte_stats) = (&self.stats, &self.byte_stats);
            msg.for_each_batch_part(&mut |kind, size| {
                stats.record(src, kind);
                if let Some(size) = size {
                    byte_stats.record_n(src, kind, size as u64);
                }
            });
            self.envelope_stats.record(src, kinds::BATCH);
        } else {
            self.stats.record(src, msg.kind());
            if let Some(size) = msg.wire_size() {
                self.byte_stats.record_n(src, msg.kind(), size as u64);
            }
            self.envelope_stats.record(src, msg.kind());
        }
        let metadata = msg.metadata_size();
        if metadata > 0 {
            self.metadata_stats
                .record_n(src, msg.kind(), metadata as u64);
        }
        let delay = self.latency.sample(&mut self.rng, src, dst).max(1);
        let Some(hook) = self.faults.clone() else {
            // Reliable FIFO path: clamp to the link's last delivery time.
            let key = (src.index() as u32, dst.index() as u32);
            let at = (self.time + delay).max(self.link_last.get(&key).copied().unwrap_or(0));
            self.link_last.insert(key, at);
            self.schedule(
                at,
                EventKind::Deliver {
                    src,
                    dst,
                    msg,
                    duplicate: false,
                },
            );
            return;
        };
        let fate = hook.on_send(src, dst, msg.kind(), self.time);
        if fate.is_drop() {
            self.stats.record(src, kinds::DROP);
            return;
        }
        // No FIFO clamp under faults: the lossy link may reorder freely;
        // the session layer re-derives per-link FIFO exactly-once delivery.
        for (i, extra) in fate.copies.into_iter().enumerate() {
            let at = self.time + delay + extra;
            self.schedule(
                at,
                EventKind::Deliver {
                    src,
                    dst,
                    msg: msg.clone(),
                    duplicate: i > 0,
                },
            );
        }
    }

    fn step_client(&mut self, node: usize) {
        if self.blocked[node] || self.waits[node].is_some() {
            return; // an outstanding operation will reschedule us
        }
        let Some(client) = self.clients[node].as_mut() else {
            return;
        };
        let last = self.last_outcome[node].take();
        match client.next(last.as_ref()) {
            None => {
                self.clients[node] = None;
            }
            Some(ClientOp::WaitUntil(loc, pred)) => {
                self.waits[node] = Some(Wait {
                    loc,
                    pred,
                    in_flight: false,
                });
                match self.wait_mode {
                    WaitMode::IdealSignal => {
                        if self.oracle_satisfied(node) {
                            self.attempt_wait(node);
                        }
                    }
                    WaitMode::Poll { .. } => self.attempt_wait(node),
                }
            }
            Some(op) => self.submit(node, submission(&op)),
        }
    }

    /// One driver call on node `node` at the current time: puts its sends
    /// on the wire, in order, and returns its completion, if any.
    fn drive(
        &mut self,
        node: usize,
        call: impl FnOnce(&mut D, u64, &mut EffectsOf<D>),
    ) -> Option<Done<D::Value>> {
        call(&mut self.drivers[node], self.time, &mut self.fx);
        let me = NodeId::new(node as u32);
        let mut sends = std::mem::take(&mut self.fx.sends);
        for (dst, msg) in sends.drain(..) {
            self.send(me, dst, msg);
        }
        self.fx.sends = sends;
        self.fx.done.take()
    }

    /// Submits the node's operation: unless it completes at once, the
    /// node is blocked until a later call completes it.
    fn submit(&mut self, node: usize, op: Op<D::Value>) {
        let done = self.drive(node, |d, now, fx| d.submit(now, op, fx));
        if !self.complete(node, done) {
            self.blocked[node] = true;
        }
    }

    /// Hands a driver call's completion, if any, to the node's wait or
    /// client, and reports whether there was one. A node serving others
    /// stays unblocked; only a completion touches its own operation.
    fn complete(&mut self, node: usize, done: Option<Done<D::Value>>) -> bool {
        let Some((outcome, record)) = done.and_then(completion) else {
            return false;
        };
        self.blocked[node] = false;
        if let (Some(rec), Some(record)) = (&self.recorder, record) {
            rec.record(NodeId::new(node as u32), record);
        }
        if let Some(wait) = self.waits[node].as_mut() {
            wait.in_flight = false;
            let satisfied = match &outcome {
                Outcome::Read { value, .. } => (wait.pred)(value),
                _ => false,
            };
            if satisfied {
                self.waits[node] = None;
                self.last_outcome[node] = Some(outcome);
                self.schedule_now(EventKind::Step { node });
            } else if let WaitMode::Poll { interval } = self.wait_mode {
                let at = self.time + interval;
                self.schedule(at, EventKind::PollWait { node });
            }
            // IdealSignal: stay parked; the post-event scan retries.
            return true;
        }
        self.last_outcome[node] = Some(outcome);
        self.schedule_now(EventKind::Step { node });
        true
    }

    fn deliver(&mut self, src: NodeId, dst: NodeId, msg: D::Msg) {
        let node = dst.index();
        let done = self.drive(node, |d, now, fx| d.deliver(now, src, msg, fx));
        self.complete(node, done);
    }

    /// Does the authoritative copy of the waited location satisfy the
    /// predicate right now?
    fn oracle_satisfied(&self, node: usize) -> bool {
        let Some(wait) = &self.waits[node] else {
            return false;
        };
        let authority = self.drivers[node].authority(wait.loc);
        self.drivers[authority.index()]
            .peek(wait.loc)
            .is_some_and(|v| (wait.pred)(&v))
    }

    /// Issue the discard + read of an active wait.
    fn attempt_wait(&mut self, node: usize) {
        let Some(wait) = self.waits[node].as_mut() else {
            return;
        };
        if wait.in_flight || self.blocked[node] {
            return;
        }
        wait.in_flight = true;
        let loc = wait.loc;
        // The discard's side traffic (an `[INTEREST]` drop under interest
        // scoping) still goes on the wire; its completion is the wait's
        // own bookkeeping, not a client step.
        self.drive(node, |d, now, fx| d.submit(now, Op::Discard(loc), fx));
        self.submit(node, Op::Read(loc));
    }

    fn scan_waits(&mut self) {
        for node in 0..self.drivers.len() {
            if self.waits[node].as_ref().is_some_and(|w| !w.in_flight)
                && !self.blocked[node]
                && self.oracle_satisfied(node)
            {
                self.attempt_wait(node);
            }
        }
    }
}

impl<D: SimDriver> std::fmt::Debug for Sim<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("nodes", &self.drivers.len())
            .field("time", &self.time)
            .field("events", &self.events_processed)
            .finish()
    }
}
