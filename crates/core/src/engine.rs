//! The threaded engine: the one executor of every [`Driver`].
//!
//! The paper requires that "each operation must be executed atomically and
//! owners must fairly alternate between issuing reads and writes and
//! responding to READ and WRITE messages from other processors". All of
//! that policy lives in a driver — [`NodeDriver`] for the causal owner
//! protocol, `atomic_dsm::AtomicDriver` and `broadcast_mem::BroadcastDriver`
//! for the paper's comparators; this module only *runs* one. Every thread
//! that touches a node — an application handle, the node's server thread
//! (or the transport's poller, through [`InlineServer`]), the heartbeat
//! ticker — follows one rule (`NodeShared::execute`): lock the driver,
//! call it, perform the sends in order, hand any completion to the
//! blocked handle. A durable node needs nothing more: its driver owns
//! the write-ahead log and has made each call's records durable before
//! returning ([`NodeDriver::open`]). A handle whose operation needs an
//! owner round-trip sleeps *outside* the lock, so the node keeps serving
//! requests while one of its own operations waits — the fair alternation
//! the paper asks for (and what makes the protocol deadlock-free).
//!
//! Over a remote transport that supports it, the blocked handle applies
//! the same rule to itself: when its own driver call leaves an operation
//! other than a pipelined write outstanding and every send that
//! [needs delivery](Driver::needs_delivery) goes to one remote peer, the
//! sends *claim* that peer's inbound stream
//! ([`simnet::claim`]), and instead of sleeping until another thread
//! hands it the reply, the handle reads the stream itself — serving, in
//! link order, whatever peer requests arrive on it ahead of the reply. It
//! probes the stream for a short spin before it sleeps on it, so a
//! prompt reply finds it running. Liveness never depends on who
//! completes the operation: every other completer rings the claim's
//! doorbell.
//!
//! Two paths bypass [`Driver::submit`], for drivers that offer them: a
//! cache-hit read runs under the *shared* lock (Figure 4's read procedure
//! touches no state on a hit, [`Driver::read_hit`]), and an owner-local
//! write is one atomic step that never becomes the node's outstanding
//! operation ([`Driver::write_local`]).
//!
//! [`Cluster`], [`Handle`] and [`InlineServer`] are generic over the
//! driver and monomorphised; [`CausalCluster`], [`CausalHandle`] and
//! [`crate::InlineServer`] name the [`NodeDriver`] instantiation.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use dsm_durable::Disk;
use memcore::{
    Location, MemoryError, NetStats, NodeId, OpRecord, Recorder, SharedMemory, Value, WriteId,
};
use parking_lot::{Mutex, RwLock, RwLockWriteGuard};
use simnet::claim::{self, StreamClaim};
use simnet::codec::Wire;
use simnet::{Envelope, Network};
use vclock::VectorClock;

use crate::config::{CausalConfig, CausalConfigBuilder};
use crate::driver::{Done, Driver, Effects, EffectsOf, NodeDriver, Op};
use crate::msg::Msg;
use crate::state::{CausalState, WriteDone};

/// What a node's lock guards: the driver and the effects buffer its
/// calls fill (reused, so steady-state calls allocate nothing).
struct Core<D: Driver> {
    driver: D,
    fx: EffectsOf<D>,
}

struct NodeShared<D: Driver> {
    me: NodeId,
    net: Network<D::Msg>,
    /// The driver's clock: milliseconds since cluster start. `None` —
    /// and never read — unless a hosted driver is [`Driver::timed`].
    clock: Option<Instant>,
    /// A reader–writer lock: cache-hit reads run under the shared lock,
    /// concurrently with each other; every driver call is exclusive.
    core: RwLock<Core<D>>,
    /// Serializes this node's application operations (program order) and
    /// guards the driver's one-outstanding-operation invariant. Cache-hit
    /// reads and owner-local writes don't take it.
    op_lock: Mutex<()>,
    /// Orders this node's sends. Taken *before* the node lock is released
    /// and held across the sends, so envelopes leave in driver order even
    /// when a handle thread and the poller both have some (an issued run
    /// vs. the run shipped when the wire drains) — without holding the
    /// node lock, and so every cache-hit reader, across a socket write.
    /// Holds the spare send buffer the effects' one is swapped against.
    outbox: Mutex<Vec<(NodeId, D::Msg)>>,
    /// Completions handed to the blocked operation by whichever thread's
    /// driver call produced them.
    done_rx: Receiver<Done<D::Value>>,
    /// The inbound stream the blocked operation has claimed, if any
    /// (see the module docs). Other completers ring it.
    claim: Mutex<Option<Arc<dyn StreamClaim>>>,
}

thread_local! {
    /// Set while this thread pumps its own claimed stream: a completion
    /// it delivers there needs no doorbell.
    static PUMPING: Cell<bool> = const { Cell::new(false) };
}

/// How long a handle that claimed a stream probes it, yielding before
/// each probe, before it parks in the stream's `poll(2)`. A reply from an
/// owner on another processor then finds the handle's thread running, so
/// neither the reply's sender nor the kernel has to wake a halted
/// processor for it. About twice a bare cross-processor loopback TCP
/// round trip (≈ 23 µs on a two-processor guest). The yield keeps a
/// spinning handle from starving a poller that shares its processor, and
/// it comes first because on one processor a probe made straight after
/// the send finds nothing: the owner's poller has not run yet.
const CLAIM_SPIN: Duration = Duration::from_micros(50);

impl<D: Driver> NodeShared<D> {
    fn now(&self) -> u64 {
        self.clock
            .map_or(0, |start| start.elapsed().as_millis() as u64)
    }

    /// The executor rule, shared by every thread that drives this node:
    /// lock the driver, `call` it, perform the sends in order, and return
    /// the completion, if any, for the caller to keep or forward.
    ///
    /// `claims` says the caller is a handle that will wait on the
    /// outcome by reading its reply itself ([`reads_own_reply`]): if the
    /// call leaves the operation outstanding and every send that needs
    /// delivery goes to one remote peer, the sends claim that peer's
    /// stream for it.
    ///
    /// The last flag reports a dead transport: a message that
    /// [needs delivery](Driver::needs_delivery) could not be sent, which
    /// is terminal for the session. The driver has then been reset
    /// ([`Driver::transport_down`]) and the completion is the outstanding
    /// operation's failure, if one was outstanding. Side traffic and
    /// replies stay best effort — the peer may simply be shutting down.
    fn execute<R>(
        &self,
        claims: bool,
        call: impl FnOnce(&mut D, u64, &mut EffectsOf<D>) -> R,
    ) -> (R, Option<Done<D::Value>>, bool) {
        let now = self.now();
        let mut guard = self.core.write();
        let core = &mut *guard;
        let out = call(&mut core.driver, now, &mut core.fx);
        let done = core.fx.done.take();
        if core.fx.sends.is_empty() {
            return (out, done, false);
        }
        let reply_from = if claims && done.is_none() {
            self.reply_peer(&core.fx.sends)
        } else {
            None
        };
        if self.send(guard, reply_from) {
            self.release_claim();
            let blocked = self.core.write().driver.transport_down();
            let failed = blocked.then_some(Done::Failed(MemoryError::Shutdown));
            return (out, failed, true);
        }
        (out, done, false)
    }

    /// The one remote peer every send that needs delivery goes to — the
    /// stream the outstanding operation's reply will arrive on.
    fn reply_peer(&self, sends: &[(NodeId, D::Msg)]) -> Option<NodeId> {
        let mut peer = None;
        for (dst, _) in sends.iter().filter(|(_, msg)| D::needs_delivery(msg)) {
            if peer.is_some_and(|p| p != *dst) {
                return None;
            }
            peer = Some(*dst);
        }
        peer.filter(|p| !self.net.is_local(*p))
    }

    /// Puts the effects' sends on the wire, in order, releasing the node
    /// lock first — but only once the outbox is held. With `reply_from`,
    /// the sends claim that peer's stream, if the transport offers it.
    /// Returns `true` if a message that needs delivery could not be sent.
    fn send(&self, mut guard: RwLockWriteGuard<'_, Core<D>>, reply_from: Option<NodeId>) -> bool {
        let mut outbox = self.outbox.lock();
        std::mem::swap(&mut *outbox, &mut guard.fx.sends);
        drop(guard);
        if reply_from.is_some() {
            claim::intend(reply_from);
        }
        let mut down = false;
        for (dst, msg) in outbox.drain(..) {
            let critical = D::needs_delivery(&msg);
            down |= self.net.send(self.me, dst, msg).is_err() && critical;
        }
        if reply_from.is_some() {
            claim::intend(None);
            if let Some(stream) = claim::take() {
                *self.claim.lock() = Some(stream);
            }
        }
        down
    }

    /// Hands the claimed stream, if any, back to the transport.
    fn release_claim(&self) {
        let held = self.claim.lock().take();
        if let Some(stream) = held {
            stream.release();
        }
    }

    /// Tells a handle pumping its claimed stream on another thread that
    /// its operation may have completed.
    fn ring(&self) {
        if !PUMPING.with(Cell::get) {
            if let Some(stream) = &*self.claim.lock() {
                stream.ring();
            }
        }
    }

    /// Waits until the blocked operation completes, firing the driver's
    /// timers (heartbeats, attempt deadlines) when they come due first.
    /// `Ok(None)` means a timer fired without completing it.
    ///
    /// With a claimed stream the handle reads it until a completion is
    /// found — whoever produced it — or the claim is lost, and only then
    /// sleeps on the completion channel. For the first [`CLAIM_SPIN`] it
    /// only yields and probes the stream, and parks in the stream's
    /// `poll(2)` after that. Every probe is followed by a look at the
    /// completion channel: a probe that finds only the doorbell consumes
    /// it, so the completion it announced must be looked for before the
    /// next sleep.
    fn wait(&self, claims: bool) -> Result<Option<Done<D::Value>>, MemoryError> {
        let deadline = self.clock.and_then(|start| {
            let due = self.core.read().driver.next_timer()?;
            Some(start + Duration::from_millis(due))
        });
        let held = self.claim.lock().clone();
        if let Some(stream) = held {
            let spin_until = Instant::now() + CLAIM_SPIN;
            // A timer due inside the budget is slept for, not spun for.
            let mut probing = deadline.is_none_or(|d| d > spin_until);
            loop {
                if let Ok(done) = self.done_rx.try_recv() {
                    return Ok(Some(done));
                }
                let timeout = deadline.map(|d| d.saturating_duration_since(Instant::now()));
                if timeout == Some(Duration::ZERO) {
                    return Ok(self.fire_timers(claims));
                }
                let sleep = if probing {
                    std::thread::yield_now();
                    Some(Duration::ZERO)
                } else {
                    timeout
                };
                PUMPING.with(|p| p.set(true));
                let pumped = stream.pump(sleep);
                PUMPING.with(|p| p.set(false));
                if pumped.is_err() {
                    self.release_claim();
                    break;
                }
                probing = probing && Instant::now() < spin_until;
            }
        }
        let received = match deadline {
            None => self
                .done_rx
                .recv()
                .map_err(|_| RecvTimeoutError::Disconnected),
            Some(deadline) => self
                .done_rx
                .recv_timeout(deadline.saturating_duration_since(Instant::now())),
        };
        match received {
            Ok(done) => Ok(Some(done)),
            Err(RecvTimeoutError::Timeout) => Ok(self.fire_timers(claims)),
            // Every completer is gone: the engine shut down under us.
            Err(RecvTimeoutError::Disconnected) => {
                self.core.write().driver.transport_down();
                Err(MemoryError::Shutdown)
            }
        }
    }

    /// The blocked handle's timer call. A retry it sends is the handle's
    /// own call, so it may claim a stream anew.
    fn fire_timers(&self, claims: bool) -> Option<Done<D::Value>> {
        self.release_claim();
        self.execute(claims, |d, now, fx| d.on_timer(now, fx)).1
    }
}

/// Whether a handle blocked on `op` reads its own reply. A pipelined
/// write never does: it waits only for room in the window, and reading
/// the reply that makes room would hand it back to its caller one reply
/// envelope sooner than the poller does — before the rest of the window
/// has drained — so the next write would find the window full again and
/// ship a run of one.
fn reads_own_reply<V>(op: &Op<V>) -> bool {
    !matches!(op, Op::WritePipelined(..))
}

/// Releases the blocked operation's claimed stream, if any, on every way
/// out of [`Handle::run`].
struct ReleaseClaim<'a, D: Driver>(&'a NodeShared<D>);

impl<D: Driver> Drop for ReleaseClaim<'_, D> {
    fn drop(&mut self) {
        self.0.release_claim();
    }
}

/// Shutdown latch: an atomic flag that every delivered envelope reads,
/// plus a mutex and condvar for the heartbeat tickers' sleeps.
/// `shutdown()` raising the flag wakes sleepers immediately, where a
/// plain `thread::sleep` between flag checks used to stretch shutdown by
/// up to one full heartbeat interval.
struct StopSignal {
    stopped: AtomicBool,
    /// Held while the flag is raised and while a sleeper re-checks it, so
    /// a raise cannot slip between a sleeper's check and its wait.
    sleep: Mutex<()>,
    cv: Condvar,
}

impl StopSignal {
    fn new() -> Self {
        StopSignal {
            stopped: AtomicBool::new(false),
            sleep: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Raises the flag and wakes every waiter.
    fn stop(&self) {
        let guard = self.sleep.lock();
        self.stopped.store(true, Ordering::Release);
        drop(guard);
        self.cv.notify_all();
    }

    /// Whether the flag has been raised: one load, no lock.
    fn is_stopped(&self) -> bool {
        self.stopped.load(Ordering::Acquire)
    }

    /// Sleeps for `timeout` unless stopped first; returns `true` iff the
    /// signal was raised (immediately if it already was).
    fn wait_for(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut guard = self.sleep.lock();
        while !self.is_stopped() {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (g, _) = self
                .cv
                .wait_timeout(guard, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            guard = g;
        }
        true
    }
}

/// The executor for threads that drive a node on others' behalf — the
/// server thread, the transport's poller, the heartbeat ticker: runs a
/// driver call by the [executor rule](NodeShared::execute) and forwards
/// any completion to the blocked application handle.
struct Server<D: Driver> {
    node: Arc<NodeShared<D>>,
    /// Wakes the operation blocked in [`NodeShared::wait`]. Held only by
    /// servers (in inline mode, by the transport's sink), so dropping
    /// them is what disconnects blocked handles.
    done_tx: Sender<Done<D::Value>>,
}

impl<D: Driver> Server<D> {
    fn run(&self, call: impl FnOnce(&mut D, u64, &mut EffectsOf<D>)) {
        if let ((), Some(done), _) = self.node.execute(false, call) {
            let _ = self.done_tx.send(done);
            self.node.ring();
        }
    }

    fn deliver(&self, env: Envelope<D::Msg>) {
        self.run(|d, now, fx| d.deliver(now, env.src, env.payload, fx));
    }
}

/// A single node's server loop, handed to the transport instead of a
/// thread: built by [`CausalClusterBuilder::build_inline`], consumed by
/// an I/O layer (such as `dsm-net`'s poller) that calls
/// [`InlineServer::deliver`] for every inbound envelope it decodes.
///
/// One thread at a time should read each link and deliver its envelopes,
/// so that they are delivered in arrival order — an event-loop
/// transport's poller satisfies that the same way the engine's own server
/// thread does, and so does a transport that lets a blocked handle read
/// the stream it claimed (see the module docs) under the same per-link
/// lock its poller reads with.
pub struct InlineServer<D: Driver> {
    server: Server<D>,
    stop: Arc<StopSignal>,
}

impl<D: Driver> InlineServer<D> {
    /// Delivers one envelope to the node's driver on the caller's thread,
    /// by the same executor rule every other thread follows. Whatever a
    /// peer sends is the driver's to judge: no message stops the server.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::Shutdown`] once the owning cluster has shut
    /// down — the transport should stop delivering.
    pub fn deliver(&self, env: Envelope<D::Msg>) -> Result<(), MemoryError> {
        if self.stop.is_stopped() {
            return Err(MemoryError::Shutdown);
        }
        self.server.deliver(env);
        Ok(())
    }

    /// The node this server serves.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.server.node.me
    }
}

impl<D: Driver> std::fmt::Debug for InlineServer<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InlineServer")
            .field("node", &self.node())
            .finish_non_exhaustive()
    }
}

struct ClusterInner<D: Driver> {
    config: D::Config,
    locations: usize,
    net: Network<D::Msg>,
    /// The nodes this process hosts, in node order — all of them for an
    /// in-process cluster, a subset when the cluster spans processes over
    /// a remote transport. Nothing is built for the others.
    nodes: Vec<Arc<NodeShared<D>>>,
    recorder: Option<Recorder<D::Value>>,
    servers: Mutex<Vec<JoinHandle<()>>>,
    /// Tells the heartbeat tickers and an inline transport that the
    /// engine is gone; server threads stop when their mailbox closes.
    stop: Arc<StopSignal>,
}

/// A running shared memory: the hosted nodes of an `n`-node cluster
/// connected by a reliable FIFO network, each executing driver `D`.
///
/// Obtain per-process handles with [`Cluster::handle`]; drop the cluster
/// (or call [`Cluster::shutdown`]) to stop the server threads.
pub struct Cluster<D: Driver> {
    inner: Arc<ClusterInner<D>>,
}

/// The causal DSM: a [`Cluster`] of nodes executing the Figure-4 owner
/// protocol.
///
/// # Examples
///
/// ```
/// use causal_dsm::CausalCluster;
/// use memcore::{Location, SharedMemory, Word};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cluster = CausalCluster::<Word>::builder(2, 4).build()?;
/// let p0 = cluster.handle(0);
/// let p1 = cluster.handle(1);
/// p0.write(Location::new(0), Word::Int(1))?;
/// assert_eq!(p1.read(Location::new(0))?, Word::Int(1));
/// # Ok(())
/// # }
/// ```
pub type CausalCluster<V> = Cluster<NodeDriver<V>>;

/// A per-process handle onto a [`CausalCluster`].
pub type CausalHandle<V> = Handle<NodeDriver<V>>;

impl<D: Driver> Cluster<D> {
    /// An in-process cluster: node `i` runs `drivers[i]`, over a fresh
    /// [`Network`], with one server thread per node. `locations` bounds
    /// the namespace handles accept; `recorder`, if given, logs every
    /// completed operation (for checking against the executable
    /// specification).
    ///
    /// # Panics
    ///
    /// Panics if `drivers` is empty.
    #[must_use]
    pub fn new(
        config: D::Config,
        locations: u32,
        drivers: Vec<D>,
        recorder: Option<Recorder<D::Value>>,
    ) -> Self {
        let net = Network::new(drivers.len());
        let hosted = (0..).map(NodeId::new).zip(drivers).collect();
        Self::start(config, locations, net, hosted, recorder, false).0
    }

    /// Runs `hosted`, each driver as the node it is paired with.
    fn start(
        config: D::Config,
        locations: u32,
        net: Network<D::Msg>,
        mut hosted: Vec<(NodeId, D)>,
        recorder: Option<Recorder<D::Value>>,
        inline: bool,
    ) -> (Self, Option<InlineServer<D>>) {
        assert!(!hosted.is_empty(), "cluster hosts no local node");
        hosted.sort_by_key(|(id, _)| *id);
        // One origin for every hosted node's driver clock.
        let clock = hosted.iter().any(|(_, d)| d.timed()).then(Instant::now);
        let stop = Arc::new(StopSignal::new());
        let mut nodes = Vec::with_capacity(hosted.len());
        let mut servers = Vec::new();
        let mut inline_server = None;
        for (me, driver) in hosted {
            let has_standing_timers = driver.next_timer().is_some();
            let (done_tx, done_rx) = unbounded();
            let node = Arc::new(NodeShared {
                me,
                net: net.clone(),
                clock,
                core: RwLock::new(Core {
                    driver,
                    fx: Effects::default(),
                }),
                op_lock: Mutex::new(()),
                outbox: Mutex::new(Vec::new()),
                done_rx,
                claim: Mutex::new(None),
            });
            let server = |role: &str| {
                (
                    format!("{}-{role}-{}", D::NAME.to_lowercase(), me.index()),
                    Server {
                        node: Arc::clone(&node),
                        done_tx: done_tx.clone(),
                    },
                )
            };
            if has_standing_timers {
                // The ticker: runs the driver's timers (heartbeats,
                // probe-silence suspicion, attempt deadlines) whether or
                // not an application operation is blocked.
                let (name, ticker) = server("heartbeat");
                let stop = Arc::clone(&stop);
                servers.push(spawn(name, move || {
                    loop {
                        let due = ticker.node.core.read().driver.next_timer();
                        // With standing timers one is always scheduled.
                        let Some(due) = due else { break };
                        let wait = due.saturating_sub(ticker.node.now());
                        // The condvar wait (vs a fixed sleep) is what lets
                        // shutdown() interrupt a tick mid-wait.
                        if stop.wait_for(Duration::from_millis(wait)) {
                            break;
                        }
                        ticker.run(|d, now, fx| d.on_timer(now, fx));
                    }
                }));
            }
            let (name, server) = server("node");
            if inline {
                // The transport drives this node itself; its mailbox
                // stays with the network, unread, and shutdown reaches
                // the transport through the stop signal.
                inline_server = Some(InlineServer {
                    server,
                    stop: Arc::clone(&stop),
                });
            } else {
                let mailbox = net.take_mailbox(me);
                servers.push(spawn(name, move || {
                    // Ends when shutdown() closes the mailbox.
                    while let Some(env) = mailbox.recv() {
                        server.deliver(env);
                    }
                }));
            }
            nodes.push(node);
        }

        let cluster = Cluster {
            inner: Arc::new(ClusterInner {
                config,
                locations: locations as usize,
                net,
                nodes,
                recorder,
                servers: Mutex::new(servers),
                stop,
            }),
        };
        (cluster, inline_server)
    }

    /// Where hosted node `node` sits in `nodes`.
    fn slot(&self, node: u32) -> usize {
        assert!(
            (node as usize) < self.inner.net.len(),
            "node {node} out of range"
        );
        self.inner
            .nodes
            .binary_search_by_key(&(node as usize), |n| n.me.index())
            .unwrap_or_else(|_| panic!("node {node} is not hosted by this process"))
    }

    /// A handle performing operations as process `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or not hosted by this process
    /// (see [`CausalClusterBuilder::hosting`]).
    #[must_use]
    pub fn handle(&self, node: u32) -> Handle<D> {
        Handle {
            inner: Arc::clone(&self.inner),
            slot: self.slot(node),
        }
    }

    /// Handles for every locally-hosted node, in node order (all nodes for
    /// an in-process cluster).
    #[must_use]
    pub fn handles(&self) -> Vec<Handle<D>> {
        (0..self.inner.nodes.len())
            .map(|slot| Handle {
                inner: Arc::clone(&self.inner),
                slot,
            })
            .collect()
    }

    /// Runs `f` over hosted node `node`'s driver under the node's shared
    /// lock (observability/diagnostics).
    ///
    /// # Panics
    ///
    /// As [`Cluster::handle`].
    pub fn inspect<R>(&self, node: u32, f: impl FnOnce(&D) -> R) -> R {
        f(&self.inner.nodes[self.slot(node)].core.read().driver)
    }

    /// The cluster's configuration.
    #[must_use]
    pub fn config(&self) -> &D::Config {
        &self.inner.config
    }

    /// Per-(node, kind) protocol message counters.
    #[must_use]
    pub fn messages(&self) -> &NetStats {
        self.inner.net.messages()
    }

    /// Per-(node, kind) approximate byte counters.
    #[must_use]
    pub fn bytes(&self) -> &NetStats {
        self.inner.net.bytes()
    }

    /// Per-(node, kind) **physical envelope** counters. Without transport
    /// batching this mirrors [`Cluster::messages`]; with batching on, a
    /// coalesced run counts once here (kind `BATCH`) while its parts
    /// still count individually in the logical counters — so
    /// `messages - envelopes` per node is exactly the coalescing win.
    #[must_use]
    pub fn envelopes(&self) -> &NetStats {
        self.inner.net.envelopes()
    }

    /// Per-(node, kind) **causal-metadata** byte counters: the exact wire
    /// bytes spent on vector timestamps (honoring each stamp's
    /// dense/sparse encoding). Dividing by the operation count gives the
    /// scale benches' `metadata_bytes_per_op`.
    #[must_use]
    pub fn metadata(&self) -> &NetStats {
        self.inner.net.metadata()
    }

    /// Installs (or removes) a fault hook on the cluster's network.
    ///
    /// With faults active the transport may drop protocol messages, so
    /// operations can block forever unless
    /// [`failover`](crate::CausalConfigBuilder::failover) is also
    /// configured. Intended for fault-tolerance experiments and tests; the
    /// deterministic chaos suite lives in `dsm-faults`.
    pub fn set_fault_hook(&self, hook: Option<Arc<dyn simnet::FaultHook>>) {
        self.inner.net.set_fault_hook(hook);
    }

    /// Stops all server threads and waits for them to exit; calling it
    /// again is a no-op. Operations that need the network — blocked when
    /// shutdown arrives or issued later — fail with
    /// [`MemoryError::Shutdown`]; those a node can answer alone still do.
    ///
    /// Returns promptly: heartbeat tickers are woken out of their interval
    /// wait rather than finishing it (regression-tested in
    /// `tests/failover.rs`).
    pub fn shutdown(&self) {
        // Raise the flag before looking at the thread roster: an
        // inline-transport cluster has no server threads at all, and its
        // transport checks this flag (through [`InlineServer::deliver`])
        // to learn the engine is gone.
        self.inner.stop.stop();
        let handles: Vec<_> = self.inner.servers.lock().drain(..).collect();
        if handles.is_empty() {
            return;
        }
        // Only locally-hosted servers are stopped — peers of a
        // multi-process cluster manage their own shutdown.
        for node in &self.inner.nodes {
            self.inner.net.close_mailbox(node.me);
        }
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl<D: Driver> Drop for Cluster<D> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl<D: Driver> std::fmt::Debug for Cluster<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct(&format!("{}Cluster", D::NAME))
            .field("config", &self.inner.config)
            .finish_non_exhaustive()
    }
}

fn spawn(name: String, body: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(name)
        .spawn(body)
        .expect("spawning engine thread")
}

/// [`NodeDriver::open`], captured by [`CausalClusterBuilder::disk`] —
/// where the value type is known to be [`Wire`] — and called at build
/// time, when the configuration is final.
type Open<V> = fn(NodeId, CausalConfig<V>, Box<dyn Disk>) -> NodeDriver<V>;

/// Builder for [`CausalCluster`]: the protocol configuration (through
/// [`CausalConfigBuilder`]) plus everything engine-level — operation
/// recording, the transport, which nodes this process hosts, and their
/// disks.
pub struct CausalClusterBuilder<V: Value> {
    config: CausalConfigBuilder<V>,
    recorder: Option<Recorder<V>>,
    net: Option<Network<Msg<V>>>,
    local: Option<Vec<NodeId>>,
    disks: Vec<(NodeId, Box<dyn Disk>, Open<V>)>,
}

impl<V: Value + Default> CausalCluster<V> {
    /// Starts building a cluster of `nodes` processors sharing `locations`
    /// locations.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` or `locations` is zero.
    #[must_use]
    pub fn builder(nodes: u32, locations: u32) -> CausalClusterBuilder<V> {
        CausalClusterBuilder::over(CausalConfig::builder(nodes, locations), None)
    }
}

impl<V: Value> CausalClusterBuilder<V> {
    fn over(config: CausalConfigBuilder<V>, recorder: Option<Recorder<V>>) -> Self {
        CausalClusterBuilder {
            config,
            recorder,
            net: None,
            local: None,
            disks: Vec::new(),
        }
    }

    /// Applies `f` to the underlying protocol configuration builder.
    #[must_use]
    pub fn configure(
        mut self,
        f: impl FnOnce(CausalConfigBuilder<V>) -> CausalConfigBuilder<V>,
    ) -> Self {
        self.config = f(self.config);
        self
    }

    /// Records every completed operation into `recorder` (for checking
    /// against the executable specification).
    #[must_use]
    pub fn recorder(mut self, recorder: Recorder<V>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Runs over an existing transport instead of a fresh in-process
    /// [`Network`]. This is how a cluster spans processes: each process
    /// builds a [`Network::partial`] whose remote link carries envelopes
    /// off-process (e.g. `dsm-net`'s TCP mesh) and names the nodes it
    /// [hosts](Self::hosting). The protocol is unchanged — remote peers
    /// are reached through the same `send` path, and message bills stay
    /// comparable to the in-process transport's.
    #[must_use]
    pub fn transport(mut self, net: Network<Msg<V>>) -> Self {
        self.net = Some(net);
        self
    }

    /// Hosts only the nodes in `local` (default: all of them). Protocol
    /// state is built, server and heartbeat threads are spawned, and
    /// handles exist, only for hosted nodes.
    #[must_use]
    pub fn hosting(mut self, local: &[NodeId]) -> Self {
        self.local = Some(local.to_vec());
        self
    }

    /// Gives hosted node `node` a write-ahead log on `disk` (see
    /// `dsm_durable`); requires a
    /// [`durability`](CausalConfigBuilder::durability) configuration. The
    /// node boots by [`NodeDriver::open`]: a disk that already holds state
    /// makes it *recover* — replaying its checkpoint and log tail into
    /// page images, origin clocks, and the owner-epoch table — and rejoin
    /// as a full peer under a bumped incarnation.
    #[must_use]
    pub fn disk(mut self, node: NodeId, disk: Box<dyn Disk>) -> Self
    where
        V: Wire,
    {
        self.disks.push((node, disk, NodeDriver::open));
        self
    }

    /// Builds the cluster and spawns a server thread per hosted node.
    ///
    /// # Errors
    ///
    /// Currently infallible; returns `Result` for forward compatibility
    /// with fallible transports.
    ///
    /// # Panics
    ///
    /// Panics if the transport's size differs from the configured node
    /// count, no node is hosted, a hosted node has no mailbox in this
    /// process, a disk was supplied for a node that is not hosted or
    /// without a durability configuration, or a durability configuration
    /// leaves a hosted node without a disk.
    pub fn build(self) -> Result<CausalCluster<V>, MemoryError> {
        self.start(false).map(|(cluster, _)| cluster)
    }

    /// Like [`build`](Self::build) hosting only `me`, but spawns **no
    /// server thread**: the returned [`InlineServer`] is the node's
    /// server loop as a value, and the transport delivers each inbound
    /// envelope by calling [`InlineServer::deliver`] on its own I/O
    /// thread. `dsm-net`'s poller serves requests the moment it decodes
    /// them — the same driver calls, minus one thread per process and two
    /// scheduler hops per owner round trip.
    ///
    /// # Errors
    ///
    /// Currently infallible; returns `Result` for forward compatibility.
    ///
    /// # Panics
    ///
    /// Same conditions as [`build`](Self::build).
    pub fn build_inline(
        self,
        me: NodeId,
    ) -> Result<(CausalCluster<V>, crate::InlineServer<V>), MemoryError> {
        let (cluster, server) = self.hosting(&[me]).start(true)?;
        Ok((cluster, server.expect("inline build yields a server")))
    }

    fn start(
        self,
        inline: bool,
    ) -> Result<(CausalCluster<V>, Option<crate::InlineServer<V>>), MemoryError> {
        let config = self.config.build();
        let n = config.nodes() as usize;
        let net = self.net.unwrap_or_else(|| Network::new(n));
        assert_eq!(net.len(), n, "transport size mismatch");
        let local = self
            .local
            .unwrap_or_else(|| (0..config.nodes()).map(NodeId::new).collect());
        let mut disks = self.disks;
        for (node, ..) in &disks {
            assert!(
                local.contains(node),
                "disk supplied for non-local node {node}"
            );
        }
        let hosted = local
            .into_iter()
            .map(|id| match disks.iter().position(|(node, ..)| *node == id) {
                Some(i) => {
                    let (_, disk, open) = disks.swap_remove(i);
                    (id, open(id, config.clone(), disk))
                }
                None => {
                    // Its WAL records would pile up, never written.
                    assert!(
                        config.durability().is_none(),
                        "durability configured but node {id} has no disk"
                    );
                    (id, NodeDriver::new(CausalState::new(id, config.clone())))
                }
            })
            .collect();
        let locations = config.locations();
        Ok(Cluster::start(
            config,
            locations,
            net,
            hosted,
            self.recorder,
            inline,
        ))
    }
}

impl<V: Value> CausalCluster<V> {
    /// [`CausalClusterBuilder::build_inline`] over a finished
    /// configuration — the constructor `dsm-net` and the benchmark
    /// harness compile against.
    ///
    /// # Errors
    ///
    /// Currently infallible; returns `Result` for forward compatibility.
    ///
    /// # Panics
    ///
    /// Same conditions as [`CausalClusterBuilder::build`].
    pub fn with_inline_transport(
        config: CausalConfig<V>,
        recorder: Option<Recorder<V>>,
        net: Network<Msg<V>>,
        me: NodeId,
    ) -> Result<(Self, crate::InlineServer<V>), MemoryError> {
        CausalClusterBuilder::over(config.into_builder(), recorder)
            .transport(net)
            .build_inline(me)
    }

    /// [`CausalCluster::with_inline_transport`] plus a write-ahead log on
    /// `disk` for the hosted node — what `dsm-server --data-dir` builds.
    ///
    /// # Errors
    ///
    /// Currently infallible; returns `Result` for forward compatibility.
    ///
    /// # Panics
    ///
    /// Same conditions as [`CausalClusterBuilder::build`].
    pub fn with_durable_inline_transport(
        config: CausalConfig<V>,
        recorder: Option<Recorder<V>>,
        net: Network<Msg<V>>,
        me: NodeId,
        disk: Box<dyn Disk>,
    ) -> Result<(Self, crate::InlineServer<V>), MemoryError>
    where
        V: Wire,
    {
        CausalClusterBuilder::over(config.into_builder(), recorder)
            .transport(net)
            .disk(me, disk)
            .build_inline(me)
    }

    /// Number of node `i`'s pipelined writes whose replies are still
    /// outstanding (diagnostic; inherently racy against the server
    /// thread).
    ///
    /// # Panics
    ///
    /// As [`Cluster::handle`].
    #[must_use]
    pub fn pipeline_in_flight(&self, i: u32) -> usize {
        self.inspect(i, NodeDriver::pipeline_in_flight)
    }

    /// A snapshot of node `i`'s current vector timestamp `VT_i`
    /// (observability/diagnostics). Takes only the node's shared lock.
    ///
    /// # Panics
    ///
    /// As [`Cluster::handle`].
    #[must_use]
    pub fn node_vt(&self, i: u32) -> vclock::VectorClock {
        self.inspect(i, |d| d.state().vt().clone())
    }

    /// Node `i`'s incarnation number: 0 for a first life, the persisted
    /// maximum plus one after a durable recovery (see
    /// [`NodeDriver::open`]).
    ///
    /// # Panics
    ///
    /// As [`Cluster::handle`].
    #[must_use]
    pub fn node_incarnation(&self, i: u32) -> u32 {
        self.inspect(i, |d| d.state().incarnation())
    }

    /// Total cache invalidations performed across the hosted nodes
    /// (ablation metric).
    #[must_use]
    pub fn total_invalidations(&self) -> u64 {
        self.snapshot().invalidations.iter().sum()
    }

    /// A coherent observability snapshot across the hosted nodes: every
    /// node's vector timestamp, cumulative invalidation count, and
    /// cached-page count, taking each node's (shared) state lock exactly
    /// once.
    ///
    /// Prefer this over per-metric accessors in loops — a sweep over
    /// [`CausalCluster::node_vt`] and friends re-acquires every node's
    /// lock per metric.
    #[must_use]
    pub fn snapshot(&self) -> ClusterSnapshot {
        let n = self.inner.nodes.len();
        let mut snap = ClusterSnapshot {
            vts: Vec::with_capacity(n),
            invalidations: Vec::with_capacity(n),
            cached_pages: Vec::with_capacity(n),
        };
        for node in &self.inner.nodes {
            let core = node.core.read();
            let state = core.driver.state();
            snap.vts.push(state.vt().clone());
            snap.invalidations.push(state.invalidation_count());
            snap.cached_pages.push(state.cached_pages());
        }
        snap
    }
}

/// Per-node observability metrics captured in one pass by
/// [`CausalCluster::snapshot`]; entry `i` is the `i`-th hosted node in
/// node order (node `i` itself for an in-process cluster).
#[derive(Clone, Debug)]
pub struct ClusterSnapshot {
    /// Each node's vector timestamp `VT_i` at snapshot time.
    pub vts: Vec<VectorClock>,
    /// Each node's cumulative cache-invalidation count.
    pub invalidations: Vec<u64>,
    /// Each node's current number of cached (non-owned) pages `|C_i|`.
    pub cached_pages: Vec<usize>,
}

/// A per-process handle onto a [`Cluster`]; implements [`SharedMemory`].
///
/// Handles are cheap to clone. All operations through handles for the same
/// node are serialized (program order), as the paper's process model
/// requires.
pub struct Handle<D: Driver> {
    inner: Arc<ClusterInner<D>>,
    slot: usize,
}

impl<D: Driver> Clone for Handle<D> {
    fn clone(&self) -> Self {
        Handle {
            inner: Arc::clone(&self.inner),
            slot: self.slot,
        }
    }
}

impl<D: Driver> std::fmt::Debug for Handle<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}Handle({})", D::NAME, self.shared().me)
    }
}

impl<D: Driver> Handle<D> {
    fn check_bounds(&self, loc: Location) -> Result<(), MemoryError> {
        let namespace = self.inner.locations;
        if loc.index() >= namespace {
            return Err(MemoryError::OutOfRange { loc, namespace });
        }
        Ok(())
    }

    fn shared(&self) -> &NodeShared<D> {
        &self.inner.nodes[self.slot]
    }

    /// Runs `op` as this node's one outstanding operation: submit it under
    /// the operation lock, then — unless it completed on the spot — wait
    /// until a driver call completes it: one this thread makes reading
    /// the stream it claimed, a timer it fires, or another thread's.
    /// Recording happens before the operation lock is released, so the
    /// recorded order is the node's program order.
    fn run(&self, op: Op<D::Value>) -> Result<Done<D::Value>, MemoryError> {
        let node = self.shared();
        let _op = node.op_lock.lock();
        let claims = reads_own_reply(&op);
        let ((), mut done, down) = node.execute(claims, |d, now, fx| d.submit(now, op, fx));
        // Only an operation left outstanding can have claimed a stream.
        let claim = done.is_none().then_some(ReleaseClaim(node));
        if down {
            return Err(MemoryError::Shutdown);
        }
        let done = loop {
            match done {
                Some(Done::Failed(err)) => return Err(err),
                Some(done) => break done,
                None => done = node.wait(claims)?,
            }
        };
        drop(claim);
        // The record is built only if a recorder is installed, so
        // unrecorded clusters never deep-copy a value to throw it away.
        if let Some(rec) = &self.inner.recorder {
            match &done {
                Done::Read { loc, value, wid } => {
                    rec.record(node.me, OpRecord::read(*loc, (**value).clone(), *wid));
                }
                Done::Wrote { loc, value, done } => {
                    rec.record(
                        node.me,
                        OpRecord::write(*loc, (**value).clone(), done.wid()),
                    );
                }
                _ => {}
            }
        }
        Ok(done)
    }

    /// A write as `op` (blocking or pipelined), trying the owner-local
    /// fast path first: one atomic Figure-4 step under the node lock — no
    /// message, no outstanding reply — so the operation lock adds nothing.
    /// Skipped when a recorder is installed (the recorder flattens a
    /// node's handles into one program order, which only the operation
    /// lock provides). The fast path takes the value itself, so the
    /// driver can store it in place; only a write that falls back to
    /// [`run`](Self::run) wraps it in one `Arc`, and the protocol moves
    /// that pointer from there on (install, request, reply repair).
    fn write_as(
        &self,
        loc: Location,
        mut value: D::Value,
        op: fn(Location, Arc<D::Value>) -> Op<D::Value>,
    ) -> Result<WriteDone, MemoryError> {
        self.check_bounds(loc)?;
        if self.inner.recorder.is_none() {
            let (local, _, _) = self
                .shared()
                .execute(false, |d, _, fx| d.write_local(loc, value, fx));
            match local {
                Ok(wid) => return Ok(WriteDone::Applied { wid }),
                Err(back) => value = back,
            }
        }
        match self.run(op(loc, Arc::new(value)))? {
            Done::Wrote { done, .. } => Ok(done),
            other => unreachable!("a write completes as a write: {other:?}"),
        }
    }

    fn read_full(&self, loc: Location) -> Result<(Arc<D::Value>, WriteId), MemoryError> {
        self.check_bounds(loc)?;
        if self.inner.recorder.is_none() {
            if let Some(hit) = self.shared().core.read().driver.read_hit(loc) {
                return Ok(hit);
            }
        }
        match self.run(Op::Read(loc))? {
            Done::Read { value, wid, .. } => Ok((value, wid)),
            other => unreachable!("a read completes as a read: {other:?}"),
        }
    }
}

impl<V: Value> CausalHandle<V> {
    /// Performs a write and reports whether it survived concurrent-write
    /// resolution (always applied under [`crate::WritePolicy::LastArrival`];
    /// may be rejected under [`crate::WritePolicy::OwnerFavored`], §4.2).
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::Shutdown`] if the cluster has stopped,
    /// [`MemoryError::OutOfRange`] for locations outside the namespace, or
    /// [`MemoryError::Timeout`] when a configured
    /// [`failover`](crate::CausalConfigBuilder::failover) retry budget
    /// runs out. A timed-out operation is abandoned cleanly — a late
    /// reply to it is discarded, never misattributed — so the handle
    /// stays usable.
    pub fn write_resolved(&self, loc: Location, value: V) -> Result<WriteDone, MemoryError> {
        self.write_as(loc, value, Op::Write)
    }

    /// Performs a write through the **bounded write pipeline**: up to
    /// [`pipeline_window`](crate::CausalConfigBuilder::pipeline_window)
    /// writes to the same owner may be in flight at once, the window
    /// exerting backpressure when full. Pipelined writes preserve
    /// Definition-2 causal correctness: the pipeline drains automatically
    /// before any operation that could export or observe the in-flight
    /// increments — an owner-local write, a remote write to a *different*
    /// owner, or a read miss on a page the pipeline's owner serves (the
    /// read-your-own-write case). Operations proven safe to overlap —
    /// further pipelined writes to the same owner, cache-hit reads, and
    /// read misses toward other owners — proceed without waiting.
    ///
    /// With a window of `0` this is exactly the blocking protocol write.
    /// With [`batching`](crate::CausalConfigBuilder::batching) enabled,
    /// consecutive pipelined writes coalesce into [`Msg::Batch`]
    /// envelopes sized by the round-trip time — a write on an idle wire
    /// leaves at once, the ones issued behind it leave together when its
    /// reply arrives or the window fills, so one envelope carries up to
    /// `pipeline_window` writes and `pipeline_window × value size` must
    /// fit a transport frame — the owner sweeps its cache once per batch,
    /// and the write acks ride back in a single reply envelope.
    ///
    /// Call [`CausalHandle::flush`] to wait for all in-flight writes.
    ///
    /// # Errors
    ///
    /// As [`CausalHandle::write_resolved`]; a [`MemoryError::Timeout`]
    /// here means the budget expired while waiting for window space.
    pub fn write_pipelined(&self, loc: Location, value: V) -> Result<WriteId, MemoryError> {
        self.write_as(loc, value, Op::WritePipelined)
            .map(|done| done.wid())
    }

    /// Write barrier: sends anything still buffered and blocks until the
    /// reply to every pipelined write has been received and absorbed into
    /// `VT_i`. A no-op when nothing is outstanding.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::Shutdown`] if the cluster has stopped.
    pub fn flush(&self) -> Result<(), MemoryError> {
        self.run(Op::Flush).map(|_| ())
    }

    /// A read that returns the value **shared** with local memory
    /// (`Arc<V>`), never deep-copying it. [`SharedMemory::read`] is this
    /// plus one clone to meet its by-value signature.
    ///
    /// Cache hits are the protocol's steady state and take only the
    /// node's shared lock — concurrent readers of a node proceed in
    /// parallel, and no hit ever contends with the operation lock of a
    /// blocked remote operation. (With a recorder installed, hits take
    /// the operation lock too: recording flattens a node's threads into a
    /// single program order, which needs the total order the lock
    /// provides.)
    ///
    /// # Errors
    ///
    /// As [`CausalHandle::write_resolved`].
    pub fn read_shared(&self, loc: Location) -> Result<Arc<V>, MemoryError> {
        self.read_full(loc).map(|(value, _)| value)
    }
}

impl<D: Driver> SharedMemory<D::Value> for Handle<D> {
    fn node(&self) -> NodeId {
        self.shared().me
    }

    fn read(&self, loc: Location) -> Result<D::Value, MemoryError> {
        self.read_full(loc).map(|(value, _)| (*value).clone())
    }

    fn write(&self, loc: Location, value: D::Value) -> Result<(), MemoryError> {
        self.write_as(loc, value, Op::Write).map(|_| ())
    }

    fn discard(&self, loc: Location) {
        if self.check_bounds(loc).is_ok() {
            let _ = self.run(Op::Discard(loc));
        }
    }

    fn read_tagged(&self, loc: Location) -> Result<(D::Value, Option<WriteId>), MemoryError> {
        self.read_full(loc)
            .map(|(value, wid)| ((*value).clone(), Some(wid)))
    }

    fn write_tagged(&self, loc: Location, value: D::Value) -> Result<Option<WriteId>, MemoryError> {
        self.write_as(loc, value, Op::Write)
            .map(|done| Some(done.wid()))
    }
}
