//! The TCP mesh: one persistent connection per node pair, multiplexed
//! onto a single poller thread, plus an acceptor for control
//! connections.
//!
//! # Topology and handshake
//!
//! Every node binds the listen address its [`ClusterSpec`]
//! entry names. Node `i` dials every node `j < i` and accepts connections
//! from every `j > i`, so each unordered pair shares exactly one
//! connection and there is no simultaneous-open race. Both sides open
//! with a [`Hello`] frame ([`ConnKind::Peer`] plus their node id); the
//! dialer speaks first, the acceptor replies.
//!
//! Controllers (the load generator) connect to the same listener with a
//! [`ConnKind::Ctrl`] hello; those connections are handed to the process
//! through [`TcpMesh::ctrl_conns`] instead of joining the mesh.
//!
//! # Data plane: the event loop
//!
//! Peer sockets run non-blocking and are multiplexed by **one** poller
//! thread (`mesh-poll-{me}`) over a [`polling::Poller`] — `epoll` on
//! Linux, `poll(2)` elsewhere — so the thread inventory is O(1) in peer
//! count instead of the previous reader-thread-per-peer O(n).
//!
//! Each peer has one outbound buffer ([`OutBuf`]), owned by the peer's
//! mutex. [`MeshLink::send_remote`] takes the lock and encodes the
//! envelope *into that buffer* — length prefix from the exact
//! `encoded_len()`, measured once for both the [`MAX_FRAME`] check and
//! the prefix, then the body, once, in place; no frame is ever a heap
//! object of its own. Still under the lock it hands the socket
//! everything unsent with one plain `write`, so frames queued behind a
//! busy socket leave together in one syscall, which is where the syscall
//! amortization of batched workloads comes from. If the socket
//! backpressures (`EWOULDBLOCK`) the bytes stay where they are, the
//! poller is woken, and it resumes the write from the same cursor when
//! the kernel reports the socket writable again. A partial write moves a
//! byte cursor and nothing else; frame boundaries need no bookkeeping
//! because the bytes are already laid out in stream order. The buffer
//! reclaims its written prefix only while backlogged, resets when fully
//! drained, and gives its allocation back once it has grown past 64 KiB,
//! so an idle peer holds no more than that. An envelope whose frame would
//! exceed [`MAX_FRAME`] — which the receiving decoder answers by dropping
//! the connection — is refused with [`SendError`] before anything is
//! queued; the link stays usable.
//!
//! Inbound, the poller reads each ready socket straight into that
//! connection's [`FrameDecoder`] (the decoder owns the receive buffer;
//! there is no bounce buffer) and decodes every complete frame *where it
//! lies* — a frame body is a `&[u8]` view of the receive buffer, consumed
//! by moving a cursor. Decoded envelopes go to an [`EnvelopeSink`] —
//! either a [`Network`] mailbox (served by an engine thread) or, as
//! `dsm-net`'s cluster wires it, the engine's inline server, which
//! serves each request directly on the poller thread. So an envelope's
//! bytes are copied once on the way out (encode) and once on the way in
//! (decode into the owned message); the kernel does the rest. TCP gives
//! per-connection FIFO and reliability, which is exactly the paper's §3
//! network assumption — see `docs/NET.md`.
//!
//! # Claimed streams
//!
//! The poller is not the only reader. An application thread about to
//! block on an owner round trip *claims* the owner's stream through the
//! [`simnet::claim`] rendezvous: [`MeshLink::send_remote`], on that
//! thread and before the request is written, disarms the socket's read
//! interest (one `epoll_ctl`); the thread then probes that one socket,
//! and after a short spin sleeps on it and the mesh's doorbell, reads its
//! reply through the same read path the poller uses, and on release
//! re-arms the socket. A peer's read side — socket and decoder —
//! therefore lives in the mesh's shared state under its own lock, and a
//! stream's frames are read and delivered only under that lock, so
//! per-link FIFO holds whoever reads.
//! Every change to a socket's registration is made under the peer's send
//! lock by one function (`Shared::rearm`), from (claimed, wants write).
//!
//! # Reconnection (session mode)
//!
//! With `reconnect on` in the spec, every peer link runs through a
//! [`ReliableLink`] session: envelope bodies travel inside
//! `SessionMsg::Data` frames with per-link sequence numbers and
//! cumulative acks. The session keeps every unacked body for replay, so
//! here a body *is* an owned buffer ([`RawBody`]): the sender encodes it
//! once into its own allocation (shared with the unacked window) and
//! copies it into the outbound buffer behind the session header; the
//! receiver copies it out of the receive buffer before the session layer
//! decides whether it is in order. That is one extra copy and one
//! allocation per envelope each way, paid only in this mode. A dropped
//! socket is then survivable: the
//! higher-numbered side redials (mirroring the establish direction, so
//! the pair cannot cross-connect), the acceptor hands the replacement
//! connection to the poller, and the session layer replays the entire
//! unacked window ([`ReliableLink::retransmit_to`]) — the receiver's
//! duplicate suppression discards anything that did survive the old
//! socket. Sends issued while the link is down park in the session's
//! unacked window rather than failing. Without `reconnect`, a dead
//! socket fails sends with [`SendError`], as before.
//!
//! Sockets default to `TCP_NODELAY`: the protocol is request/reply and
//! Nagle batching would serialize the owner protocol's round trips.
//! `nodelay`, `sndbuf`, and `rcvbuf` in the spec tune this per cluster.

use std::io;
use std::marker::PhantomData;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::io::RawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crossbeam_channel::{unbounded, Receiver, Sender};
use dsm_faults::{ReliableLink, SessionMsg};
use memcore::NodeId;
use parking_lot::Mutex;
use polling::{Interest, Poller};
use simnet::claim::{self, Lost, StreamClaim};
use simnet::codec::{FrameDecoder, Wire};
use simnet::{Envelope, Network, RemoteLink, SendError, Tagged};

use crate::framing::{
    decode_body, decode_envelope_slice, read_hello, write_hello, ConnKind, EnvelopeBody, Hello,
    OutBuf, RawBody, MAX_FRAME,
};
use crate::spec::ClusterSpec;

/// How long each side of a handshake may stall before the connection is
/// abandoned.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(2);

/// Backoff between dial attempts while a peer is still binding (and
/// between redial attempts while it restarts its listener).
const DIAL_RETRY: Duration = Duration::from_millis(25);

/// A connection plus the decoder holding any bytes read past the
/// handshake — the two must travel together or early frames are lost.
pub struct CtrlConn {
    /// The raw control socket.
    pub stream: TcpStream,
    /// Decoder primed with any bytes that followed the hello.
    pub dec: FrameDecoder,
}

struct Conn {
    stream: TcpStream,
    dec: FrameDecoder,
}

/// Where the poller hands decoded inbound envelopes — the local engine's
/// ingress.
///
/// [`Network`] implements this by injecting into the destination node's
/// mailbox, to be consumed by a server thread; `dsm-net`'s cluster
/// instead implements it over the engine's inline server, so the poller
/// thread *is* the server loop and a request is served the moment its
/// frame decodes (no mailbox, no second thread, no scheduler hop).
pub trait EnvelopeSink<M>: Send + 'static {
    /// Cluster size, for destination range validation.
    fn nodes(&self) -> usize;
    /// Whether `dst` is hosted by this process.
    fn hosts(&self, dst: NodeId) -> bool;
    /// Delivers one envelope on the calling thread: the poller, or a
    /// thread that claimed the envelope's stream (see the module docs).
    ///
    /// # Errors
    ///
    /// [`SinkClosed`] means the engine has shut down; the transport stops
    /// delivering (and redialing).
    fn deliver(&self, env: Envelope<M>) -> Result<(), SinkClosed>;
}

/// The engine behind an [`EnvelopeSink`] has shut down.
#[derive(Clone, Copy, Debug)]
pub struct SinkClosed;

impl<M: Tagged + Send + 'static> EnvelopeSink<M> for Network<M> {
    fn nodes(&self) -> usize {
        self.len()
    }

    fn hosts(&self, dst: NodeId) -> bool {
        dst.index() < self.len() && self.is_local(dst)
    }

    fn deliver(&self, env: Envelope<M>) -> Result<(), SinkClosed> {
        self.inject(env).map_err(|_| SinkClosed)
    }
}

/// Wire-level counters for one mesh endpoint, all monotonic.
///
/// These count *frames and syscalls*, deliberately a different currency
/// from the logical per-kind message counters `Network` keeps: logical
/// counts are the paper's Figure-4 bill and never change with batching
/// or transport; these measure what actually crossed the kernel.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Data frames handed to the wire (one per envelope, so a
    /// `Msg::Batch` run counts once).
    pub frames: u64,
    /// Of those, frames whose payload was a batch envelope.
    pub batch_frames: u64,
    /// Session ack frames enqueued (reconnect mode).
    pub acks: u64,
    /// Session retransmission frames enqueued (reconnect mode).
    pub retx: u64,
    /// `write` syscalls issued for peer traffic (the name predates the
    /// contiguous outbound buffer, when the drain was a `writev`).
    pub writev_calls: u64,
    /// Bytes handed to the kernel for peer traffic.
    pub bytes: u64,
    /// Peer connections re-established after a drop.
    pub reconnects: u64,
}

impl std::ops::AddAssign for WireStats {
    fn add_assign(&mut self, rhs: WireStats) {
        self.frames += rhs.frames;
        self.batch_frames += rhs.batch_frames;
        self.acks += rhs.acks;
        self.retx += rhs.retx;
        self.writev_calls += rhs.writev_calls;
        self.bytes += rhs.bytes;
        self.reconnects += rhs.reconnects;
    }
}

#[derive(Default)]
struct WireCounters {
    frames: AtomicU64,
    batch_frames: AtomicU64,
    acks: AtomicU64,
    retx: AtomicU64,
    writev_calls: AtomicU64,
    bytes: AtomicU64,
    reconnects: AtomicU64,
}

impl WireCounters {
    fn snapshot(&self) -> WireStats {
        WireStats {
            frames: self.frames.load(Ordering::Relaxed),
            batch_frames: self.batch_frames.load(Ordering::Relaxed),
            acks: self.acks.load(Ordering::Relaxed),
            retx: self.retx.load(Ordering::Relaxed),
            writev_calls: self.writev_calls.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
        }
    }
}

/// One peer's connection state, shared by senders, the poller and a
/// claiming thread.
struct Peer {
    tx: Mutex<PeerTx>,
    /// The read side. A stream is read, and its frames delivered, only
    /// under this lock — by the poller or by the thread that claimed it —
    /// so per-link FIFO holds whoever reads. A delivery under it may send
    /// (and so take the engine's outbox and then `tx`); nothing that holds
    /// `tx` or the outbox may take it.
    rx: Mutex<Option<PeerRead>>,
    /// A thread has claimed this stream; the poller leaves it unread.
    /// Written under the `tx` lock, read by the poller without it.
    claimed: AtomicBool,
}

/// Per-peer outbound state, shared between sender threads and the
/// poller behind one mutex.
struct PeerTx {
    /// The connection's socket, shared with the read side; `None` while
    /// the connection is down.
    stream: Option<Arc<TcpStream>>,
    /// Encoded frames awaiting the socket, back to back.
    out: OutBuf,
    /// The poller should poll this socket for writability.
    want_write: bool,
    /// The read socket's poll registration; `None` while no connection
    /// is installed. Changed only by [`Shared::rearm`].
    reg: Option<Registration>,
    /// A connection was installed before, so the next one is a reconnect.
    connected_once: bool,
    /// A redial thread is already running for this peer.
    redialing: bool,
    /// Session endpoint (reconnect mode); speaks only to this peer.
    link: Option<ReliableLink<RawBody>>,
}

/// A read socket as the poller knows it.
struct Registration {
    fd: RawFd,
    /// What it is armed for; `None` until it joins the poll set.
    armed: Option<Interest>,
}

/// The poll interest of a peer's socket: readable unless a thread has
/// claimed it, writable while sends are queued behind it. A claimed
/// socket stays in the poll set, armed for nothing to read, so a claim
/// and its release cost one cheap `epoll_ctl` modify each. Only a
/// hang-up is still reported for it (epoll always reports those); the
/// poller skips the event, and the claimer, woken by the same hang-up,
/// lets go.
fn interest(claimed: bool, want_write: bool) -> Interest {
    Interest {
        read: !claimed,
        write: want_write,
    }
}

/// Transport knobs resolved from the spec.
struct MeshConfig {
    nodelay: bool,
    sndbuf: u32,
    rcvbuf: u32,
    /// `Some(rto_ms)` iff reconnect mode is on.
    session: Option<u64>,
}

/// What a drain attempt left behind.
enum Drain {
    /// Nothing left unsent; write interest can be dropped.
    Idle,
    /// Socket backpressured; `want_write` is set, wake the poller.
    Blocked,
    /// The connection died mid-write and was torn down locally.
    Dead,
}

/// State shared by senders, the acceptor, redialers, and the poller.
struct Shared {
    me: NodeId,
    cfg: MeshConfig,
    /// Indexed by peer id; `None` at our own slot.
    peers: Vec<Option<Peer>>,
    stats: WireCounters,
    stop: AtomicBool,
    /// Cleared when the local engine stops accepting injected traffic,
    /// which also stops redialing.
    delivering: AtomicBool,
    /// Origin of the session clock (milliseconds).
    epoch: Instant,
    poller: Poller,
    /// Peer listen addresses, for redialing.
    addrs: Vec<String>,
    /// Feeds fresh connections (acceptor- or redial-side) to the poller.
    conn_tx: Sender<(NodeId, Conn)>,
    /// The read path as a [`StreamClaim`], set by [`TcpMesh::start`].
    /// Weak: the poller thread owns it (and with it the sink), and a
    /// claimer holds it only while its claim lasts.
    reader: OnceLock<Weak<dyn StreamClaim>>,
    /// The stream claimed at the moment, if any, with its socket (held
    /// open until the claim is released). One claim per mesh: the node
    /// it hosts has one blocked operation at a time.
    held: Mutex<Option<(NodeId, Arc<TcpStream>)>>,
    /// The claim doorbell: a claimer sleeps on its socket and this
    /// ([`Poller::wait_fd`]); [`StreamClaim::ring`] notifies it.
    bell: Poller,
    /// The acceptor sleeps on its listener and this; stopping the mesh
    /// notifies it.
    accept_bell: Poller,
}

impl Shared {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    fn peer(&self, key: usize) -> Option<&Peer> {
        self.peers.get(key).and_then(Option::as_ref)
    }

    /// Brings `key`'s poll registration in line with [`interest`]. The
    /// one writer of registrations — the poller's reconcile, a claim and
    /// its release all come here, under the peer's `tx` lock — so no
    /// change can undo another and leave a stream deaf.
    fn rearm(&self, peer: &Peer, key: usize, tx: &mut PeerTx) {
        let want_write = tx.want_write && tx.stream.is_some();
        let Some(reg) = tx.reg.as_mut() else {
            return;
        };
        let want = interest(peer.claimed.load(Ordering::Acquire), want_write);
        if reg.armed == Some(want) {
            return;
        }
        let changed = match reg.armed {
            None => self.poller.add(reg.fd, key, want),
            Some(_) => self.poller.modify(reg.fd, key, want),
        };
        if changed.is_ok() {
            reg.armed = Some(want);
            // The portable backend snapshots registrations per wait.
            if self.poller.backend_name() == "poll" {
                let _ = self.poller.notify();
            }
        }
    }

    /// Takes `peer`'s stream away from the poller for the calling
    /// thread, if no other claim is held and the connection is up.
    /// Called under the peer's `tx` lock, before a request is written.
    fn claim(&self, peer: &Peer, id: NodeId, tx: &mut PeerTx) -> Option<Arc<dyn StreamClaim>> {
        let reader = self.reader.get()?.upgrade()?;
        let stream = tx.stream.as_ref()?;
        {
            let mut held = self.held.lock();
            if held.is_some() {
                return None;
            }
            *held = Some((id, Arc::clone(stream)));
        }
        peer.claimed.store(true, Ordering::Release);
        self.rearm(peer, id.index(), tx);
        Some(reader)
    }

    /// Gives the claimed stream back to the poller. The claimer has
    /// delivered every complete frame it read, and whatever is still in
    /// the socket makes it readable the moment it is re-armed.
    fn release(&self) {
        let Some((id, _stream)) = self.held.lock().take() else {
            return;
        };
        let peer = self.peer(id.index()).expect("claims name installed peers");
        let mut tx = peer.tx.lock();
        peer.claimed.store(false, Ordering::Release);
        self.rearm(peer, id.index(), &mut tx);
    }

    /// Writes `tx`'s outbound buffer until empty, the socket
    /// backpressures, or the connection dies. Caller holds the lock.
    fn drain_locked(&self, tx: &mut PeerTx) -> Drain {
        let Some(stream) = tx.stream.as_deref() else {
            return Drain::Idle;
        };
        while !tx.out.is_empty() {
            match tx.out.write_to(&mut &*stream) {
                Ok(0) => return Self::kill_locked(tx),
                Ok(n) => {
                    self.stats.writev_calls.fetch_add(1, Ordering::Relaxed);
                    self.stats.bytes.fetch_add(n as u64, Ordering::Relaxed);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    tx.want_write = true;
                    return Drain::Blocked;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Self::kill_locked(tx),
            }
        }
        tx.want_write = false;
        Drain::Idle
    }

    /// Write failure: tear the connection down locally. The shutdown
    /// makes the poller's read half report EOF/error, which runs the
    /// central cleanup (and redial policy) promptly.
    fn kill_locked(tx: &mut PeerTx) -> Drain {
        if let Some(s) = tx.stream.take() {
            let _ = s.shutdown(Shutdown::Both);
        }
        tx.out.clear();
        tx.want_write = false;
        Drain::Dead
    }
}

/// The sending side of the mesh: encodes envelopes into `env.dst`'s
/// outbound buffer and writes the buffer to the socket.
///
/// Holds only the shared peer state, so the `Network` → `MeshLink`
/// reference is acyclic; the mesh's poller owns a `Network` clone and
/// exits when the mesh shuts down.
pub struct MeshLink<M> {
    shared: Arc<Shared>,
    _marker: PhantomData<fn(M) -> M>,
}

impl<M: Wire + Tagged> RemoteLink<M> for MeshLink<M> {
    fn send_remote(&self, env: Envelope<M>) -> Result<(), SendError> {
        let dst = env.dst;
        let shared = &*self.shared;
        let is_batch = env.payload.is_batch();
        let peer = shared
            .peer(dst.index())
            .unwrap_or_else(|| panic!("no mesh connection toward {dst}"));
        let mut tx = peer.tx.lock();
        // The receiver's decoder treats a frame above `MAX_FRAME` as a
        // protocol error and drops the connection, with every other
        // operation in flight on it. Refuse it here instead, before a
        // byte is queued or a session sequence number spent: the send
        // fails, the link stays up.
        let session = tx.link.is_some();
        let header = if session {
            SessionMsg::<RawBody>::DATA_HEADER_LEN
        } else {
            0
        };
        let body = EnvelopeBody::new(&env);
        if header + body.encoded_len() > MAX_FRAME {
            return Err(SendError { dst });
        }
        shared.stats.frames.fetch_add(1, Ordering::Relaxed);
        if is_batch {
            shared.stats.batch_frames.fetch_add(1, Ordering::Relaxed);
        }
        // A sending thread that will block on the reply claims the stream
        // it arrives on — before the write: on one processor the owner's
        // poller can answer inside it, and the reply must find the stream
        // already out of our poller's hands.
        let claimed = if claim::wanted(dst) {
            shared.claim(peer, dst, &mut tx)
        } else {
            None
        };
        let outcome = if let Some(link) = tx.link.as_mut() {
            // Session mode: the payload parks in the unacked window, so
            // a down link delays rather than fails the send — the frame
            // is replayed from the window on reconnect.
            let msg = link.send(shared.now_ms(), dst, RawBody(body.to_bytes()));
            if tx.stream.is_some() {
                tx.out.push_frame(&msg);
                shared.drain_locked(&mut tx)
            } else {
                Drain::Idle
            }
        } else {
            if tx.stream.is_none() {
                return Err(SendError { dst });
            }
            tx.out.push_frame(&body);
            shared.drain_locked(&mut tx)
        };
        drop(tx);
        if let Some(reader) = claimed {
            claim::deposit(reader);
        }
        match outcome {
            Drain::Idle => Ok(()),
            Drain::Blocked => {
                // The poller finishes the drain once the socket is
                // writable; it must wake to arm write interest.
                let _ = shared.poller.notify();
                Ok(())
            }
            Drain::Dead => {
                let _ = shared.poller.notify();
                if session {
                    Ok(())
                } else {
                    Err(SendError { dst })
                }
            }
        }
    }
}

/// One process's endpoint of the cluster's TCP fabric.
///
/// Build with [`establish`](TcpMesh::establish) (blocks until the full
/// mesh is up), wire into a partial [`Network`] via
/// [`link`](TcpMesh::link), then call [`start`](TcpMesh::start) to spawn
/// the poller. [`shutdown`](TcpMesh::shutdown) tears all of it
/// down; it is idempotent and also runs on drop.
pub struct TcpMesh<M> {
    shared: Arc<Shared>,
    /// Connections collected by `establish`, waiting for `start`.
    pending: Mutex<Vec<(NodeId, Conn)>>,
    /// Receiver of acceptor-side connections; taken by `start` for the
    /// poller (replacement connections in reconnect mode).
    conn_rx: Mutex<Option<Receiver<(NodeId, Conn)>>>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    started: AtomicBool,
    ctrl_rx: Receiver<CtrlConn>,
    _marker: PhantomData<fn(M) -> M>,
}

impl<M> std::fmt::Debug for TcpMesh<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TcpMesh({}, {} slots)",
            self.shared.me,
            self.shared.peers.len()
        )
    }
}

fn timeout_err(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::TimedOut, what.to_owned())
}

/// Blocking-handshake socket setup; the mesh config (nodelay, buffers,
/// non-blocking mode) is applied when the connection joins the poller.
fn configure(stream: &TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_nonblocking(false)
}

/// Performs the acceptor's half of a handshake and classifies the
/// connection.
fn greet_inbound(me: NodeId, mut stream: TcpStream) -> io::Result<(Hello, Conn)> {
    configure(&stream)?;
    stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
    let mut dec = FrameDecoder::new(MAX_FRAME);
    let hello = read_hello(&mut stream, &mut dec)?;
    write_hello(&mut stream, hello.kind, me)?;
    stream.set_read_timeout(None)?;
    Ok((hello, Conn { stream, dec }))
}

fn run_acceptor(shared: Arc<Shared>, listener: TcpListener, ctrl_tx: Sender<CtrlConn>) {
    use std::os::unix::io::AsRawFd;
    let me = shared.me;
    while !shared.stop.load(Ordering::Acquire) {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                // Sleep until a dialer connects or the mesh stops (its
                // notify follows the `stop` store, so it cannot be lost).
                if shared
                    .accept_bell
                    .wait_fd(listener.as_raw_fd(), None)
                    .is_err()
                {
                    break;
                }
                continue;
            }
            Err(_) => break,
        };
        // A botched handshake abandons that connection, not the acceptor.
        let Ok((hello, conn)) = greet_inbound(me, stream) else {
            continue;
        };
        match hello.kind {
            ConnKind::Peer => {
                // establish (then the poller) validates and installs;
                // out-of-range or duplicate peers are dropped there.
                if shared.conn_tx.send((hello.node, conn)).is_err() {
                    return;
                }
                let _ = shared.poller.notify();
            }
            ConnKind::Ctrl => {
                let _ = ctrl_tx.send(CtrlConn {
                    stream: conn.stream,
                    dec: conn.dec,
                });
            }
        }
    }
}

/// Dialer's half of a handshake against an already-connected `stream`.
fn handshake_out(me: NodeId, peer: NodeId, addr: &str, mut stream: TcpStream) -> io::Result<Conn> {
    configure(&stream)?;
    stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
    write_hello(&mut stream, ConnKind::Peer, me)?;
    let mut dec = FrameDecoder::new(MAX_FRAME);
    let hello = read_hello(&mut stream, &mut dec)?;
    if hello.kind != ConnKind::Peer || hello.node != peer {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "{addr} answered as {:?} {}, expected {peer}",
                hello.kind, hello.node
            ),
        ));
    }
    stream.set_read_timeout(None)?;
    Ok(Conn { stream, dec })
}

/// Dials `addr`, retrying refused connections until `deadline` — the
/// peer may still be binding its listener. Handshake errors are final.
fn dial(me: NodeId, peer: NodeId, addr: &str, deadline: Instant) -> io::Result<Conn> {
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return handshake_out(me, peer, addr, stream),
            Err(e) => {
                if Instant::now() + DIAL_RETRY >= deadline {
                    return Err(io::Error::new(
                        e.kind(),
                        format!("dialing {peer} at {addr}: {e}"),
                    ));
                }
                thread::sleep(DIAL_RETRY);
            }
        }
    }
}

/// Redials a dropped peer until it answers or the mesh stops, then hands
/// the fresh connection to the poller. Runs detached: it re-checks the
/// stop flag every [`DIAL_RETRY`], so it outlives shutdown by at most
/// one backoff.
fn run_redial(shared: Arc<Shared>, peer: NodeId) {
    let addr = shared.addrs[peer.index()].clone();
    loop {
        if shared.stop.load(Ordering::Acquire) || !shared.delivering.load(Ordering::Acquire) {
            break;
        }
        let attempt = TcpStream::connect(&addr)
            .and_then(|stream| handshake_out(shared.me, peer, &addr, stream));
        match attempt {
            Ok(conn) => {
                if shared.conn_tx.send((peer, conn)).is_ok() {
                    let _ = shared.poller.notify();
                }
                return;
            }
            Err(_) => thread::sleep(DIAL_RETRY),
        }
    }
    // Gave up (mesh stopping): let a future drop spawn a fresh redialer.
    if let Some(slot) = shared.peer(peer.index()) {
        slot.tx.lock().redialing = false;
    }
}

impl<M: Wire + Tagged + Send + 'static> TcpMesh<M> {
    /// Connects this process to every peer in `spec`, blocking until the
    /// full mesh is up or `timeout` expires.
    ///
    /// `listener` must already be bound to `spec.addr(me)` (binding is
    /// the caller's job so tests can bind port 0 and read the real
    /// address back). Transport knobs — `nodelay`, `sndbuf`/`rcvbuf`,
    /// `reconnect`, `rto_ms` — come from [`ClusterSpec::net`].
    ///
    /// # Errors
    ///
    /// Fails if a peer cannot be dialed, a handshake is malformed, or the
    /// higher-numbered peers do not dial in before the deadline.
    ///
    /// # Panics
    ///
    /// Panics if `me` is out of range for `spec`.
    pub fn establish(
        me: NodeId,
        spec: &ClusterSpec,
        listener: TcpListener,
        timeout: Duration,
    ) -> io::Result<Self> {
        let n = spec.nodes() as usize;
        assert!(me.index() < n, "node {me} out of range for spec");
        let deadline = Instant::now() + timeout;
        let net = spec.net();
        let cfg = MeshConfig {
            nodelay: net.nodelay,
            sndbuf: net.sndbuf,
            rcvbuf: net.rcvbuf,
            session: net.reconnect.then_some(net.rto_ms),
        };
        let peers = (0..n)
            .map(|j| {
                (j != me.index()).then(|| Peer {
                    tx: Mutex::new(PeerTx {
                        stream: None,
                        out: OutBuf::default(),
                        want_write: false,
                        reg: None,
                        connected_once: false,
                        redialing: false,
                        link: cfg.session.map(ReliableLink::new),
                    }),
                    rx: Mutex::new(None),
                    claimed: AtomicBool::new(false),
                })
            })
            .collect();
        let (conn_tx, conn_rx) = unbounded();
        let (ctrl_tx, ctrl_rx) = unbounded();
        let shared = Arc::new(Shared {
            me,
            cfg,
            peers,
            stats: WireCounters::default(),
            stop: AtomicBool::new(false),
            delivering: AtomicBool::new(true),
            epoch: Instant::now(),
            poller: Poller::new()?,
            addrs: (0..spec.nodes())
                .map(|j| spec.addr(NodeId::new(j)).to_owned())
                .collect(),
            conn_tx,
            reader: OnceLock::new(),
            held: Mutex::new(None),
            bell: Poller::with_poll_backend()?,
            accept_bell: Poller::with_poll_backend()?,
        });
        listener.set_nonblocking(true)?;
        let acceptor = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name(format!("accept-{me}"))
                .spawn(move || run_acceptor(shared, listener, ctrl_tx))?
        };

        // Collect one connection per peer: dial down, accept up.
        let mut conns: Vec<Option<Conn>> = (0..n).map(|_| None).collect();
        let result = (|| -> io::Result<()> {
            for (j, slot) in conns.iter_mut().enumerate().take(me.index()) {
                let peer = NodeId::new(j as u32);
                *slot = Some(dial(me, peer, spec.addr(peer), deadline)?);
            }
            let mut missing = n - me.index() - 1;
            while missing > 0 {
                let budget = deadline
                    .checked_duration_since(Instant::now())
                    .ok_or_else(|| timeout_err("peers did not connect in time"))?;
                match conn_rx.recv_timeout(budget) {
                    Ok((peer, conn)) => {
                        let idx = peer.index();
                        // Out-of-range or duplicate peers are dropped on
                        // the floor, exactly like the poller does later.
                        if idx < n && idx != me.index() && conns[idx].is_none() {
                            if idx > me.index() {
                                missing -= 1;
                            }
                            conns[idx] = Some(conn);
                        }
                    }
                    Err(_) => return Err(timeout_err("peers did not connect in time")),
                }
            }
            Ok(())
        })();
        if let Err(e) = result {
            shared.stop.store(true, Ordering::Release);
            let _ = shared.accept_bell.notify();
            let _ = acceptor.join();
            return Err(e);
        }

        let pending: Vec<(NodeId, Conn)> = conns
            .into_iter()
            .enumerate()
            .filter_map(|(j, conn)| conn.map(|c| (NodeId::new(j as u32), c)))
            .collect();

        Ok(TcpMesh {
            shared,
            pending: Mutex::new(pending),
            conn_rx: Mutex::new(Some(conn_rx)),
            threads: Mutex::new(vec![acceptor]),
            started: AtomicBool::new(false),
            ctrl_rx,
            _marker: PhantomData,
        })
    }

    /// The node this endpoint speaks for.
    #[must_use]
    pub fn me(&self) -> NodeId {
        self.shared.me
    }

    /// The sending side, for [`Network::partial`].
    #[must_use]
    pub fn link(&self) -> Arc<MeshLink<M>> {
        Arc::new(MeshLink {
            shared: Arc::clone(&self.shared),
            _marker: PhantomData,
        })
    }

    /// Control connections accepted by the listener, in arrival order.
    #[must_use]
    pub fn ctrl_conns(&self) -> &Receiver<CtrlConn> {
        &self.ctrl_rx
    }

    /// Wire-level counters (frames, syscalls, retransmissions) for this
    /// endpoint.
    #[must_use]
    pub fn wire_stats(&self) -> WireStats {
        self.shared.stats.snapshot()
    }

    /// Mesh threads currently owned by this endpoint: the acceptor plus
    /// (after [`start`](TcpMesh::start)) the poller — O(1) in peer
    /// count. Transient redial threads are detached and not counted.
    #[must_use]
    pub fn thread_count(&self) -> usize {
        self.threads.lock().len()
    }

    /// Rebases every peer session to speak for incarnation `inc` of this
    /// node. No-op outside reconnect mode. Call between
    /// [`establish`](TcpMesh::establish) and [`start`](TcpMesh::start),
    /// before any traffic: a node that recovered its state from disk
    /// announces the bumped incarnation so peers fence frames addressed
    /// to — or leaking out of — its previous life, instead of feeding
    /// the old sequence space.
    pub fn set_incarnation(&self, inc: u32) {
        let Some(rto) = self.shared.cfg.session else {
            return;
        };
        for peer in self.shared.peers.iter().flatten() {
            peer.tx.lock().link = Some(ReliableLink::with_incarnation(rto, inc));
        }
    }

    /// Hard-drops the connection to `peer` (both directions), as if the
    /// socket died. Chaos hook: in reconnect mode the mesh heals via
    /// redial + session retransmission; otherwise the peer stays dead.
    pub fn sever(&self, peer: NodeId) {
        if let Some(slot) = self.shared.peer(peer.index()) {
            let tx = slot.tx.lock();
            if let Some(s) = &tx.stream {
                let _ = s.shutdown(Shutdown::Both);
            }
        }
        let _ = self.shared.poller.notify();
    }

    /// Spawns the poller thread, delivering decoded envelopes into `sink`
    /// (which must host this node and treat the peers as remote). The
    /// poller owns the sink and shares it only with a thread that has
    /// claimed a stream, for as long as the claim lasts: once the poller
    /// exits and no claim is held, the sink drops — for an inline-server
    /// sink that is what disconnects application handles still blocked
    /// on replies. Returns once the poller thread is running.
    ///
    /// # Panics
    ///
    /// Panics if called twice — the connections are claimed on first use.
    pub fn start<S: EnvelopeSink<M> + Sync>(&self, sink: S) {
        assert!(
            !self.started.swap(true, Ordering::AcqRel),
            "mesh readers already started"
        );
        let pending = std::mem::take(&mut *self.pending.lock());
        let conn_rx = self
            .conn_rx
            .lock()
            .take()
            .expect("connection receiver present until start");
        // Install the established connections here, synchronously: sends
        // must work the moment start() returns, not when the poller
        // thread gets scheduled.
        for (peer, conn) in pending {
            install(&self.shared, peer, conn);
        }
        let reader = Arc::new(Reader {
            shared: Arc::clone(&self.shared),
            sink,
            _marker: PhantomData,
        });
        let weak: Weak<Reader<M, S>> = Arc::downgrade(&reader);
        let _ = self.shared.reader.set(weak);
        let (running, started) = unbounded();
        let handle = thread::Builder::new()
            .name(format!("mesh-poll-{}", self.shared.me))
            .spawn(move || {
                let _ = running.send(());
                run_poller(&reader, &conn_rx);
            })
            .expect("spawn mesh poller");
        // std names the OS thread before running its body, so once the
        // poller has signalled, a listing of this process's threads finds
        // it by name.
        let _ = started.recv();
        self.threads.lock().push(handle);
    }

    /// Stops the acceptor and poller and closes every connection.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        self.teardown();
    }
}

impl<M> TcpMesh<M> {
    fn teardown(&self) {
        if self.shared.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        // Wake the poller, the acceptor and any claimer, and shut every
        // socket, which unblocks the peers' pollers (and ours) mid-`read`.
        let _ = self.shared.poller.notify();
        let _ = self.shared.bell.notify();
        let _ = self.shared.accept_bell.notify();
        for peer in self.shared.peers.iter().flatten() {
            let mut tx = peer.tx.lock();
            if let Some(s) = tx.stream.take() {
                let _ = s.shutdown(Shutdown::Both);
            }
        }
        for (_, conn) in self.pending.lock().drain(..) {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        let threads = std::mem::take(&mut *self.threads.lock());
        for handle in threads {
            let _ = handle.join();
        }
    }
}

impl<M> Drop for TcpMesh<M> {
    fn drop(&mut self) {
        self.teardown();
    }
}

/// A connection's read state: its socket (shared with the send side)
/// and the decoder that owns the receive buffer.
struct PeerRead {
    stream: Arc<TcpStream>,
    dec: FrameDecoder,
}

fn raw_fd(stream: &TcpStream) -> RawFd {
    use std::os::unix::io::AsRawFd;
    stream.as_raw_fd()
}

/// The read path — sink and shared state — owned by the poller thread
/// and lent to a thread that claims a stream.
struct Reader<M, S> {
    shared: Arc<Shared>,
    sink: S,
    _marker: PhantomData<fn(M) -> M>,
}

impl<M: Wire + Tagged + Send + 'static, S: EnvelopeSink<M> + Sync> StreamClaim for Reader<M, S> {
    fn pump(&self, timeout: Option<Duration>) -> Result<(), Lost> {
        let shared = &*self.shared;
        let Some((id, stream)) = shared.held.lock().clone() else {
            return Err(Lost);
        };
        if shared.stop.load(Ordering::Acquire) {
            return Err(Lost);
        }
        match shared.bell.wait_fd(raw_fd(&stream), timeout) {
            Ok(true) => {}
            Ok(false) => return Ok(()),
            Err(_) => return Err(Lost),
        }
        let peer = shared
            .peer(id.index())
            .expect("claims name installed peers");
        let mut rx = peer.rx.lock();
        // A replacement connection is the poller's to read.
        let Some(pr) = rx.as_mut().filter(|pr| Arc::ptr_eq(&pr.stream, &stream)) else {
            return Err(Lost);
        };
        read_ready(shared, &self.sink, id, pr).map_err(|reason| {
            // Leave the teardown to the poller: the shut socket reads as
            // closed once the claim is released and it is re-armed.
            report(shared, id, &reason);
            let _ = stream.shutdown(Shutdown::Both);
            Lost
        })
    }

    fn ring(&self) {
        let _ = self.shared.bell.notify();
    }

    fn release(&self) {
        self.shared.release();
    }
}

/// Why a connection left the poll set.
enum DeadReason {
    /// EOF, reset, or any other socket-level failure.
    Socket,
    /// The peer sent bytes that do not decode; resynchronization is
    /// impossible on a stream, so the connection is dropped.
    Protocol(io::Error),
    /// The local engine stopped accepting injections (teardown).
    Engine,
}

fn run_poller<M: Wire + Tagged, S: EnvelopeSink<M>>(
    reader: &Reader<M, S>,
    conn_rx: &Receiver<(NodeId, Conn)>,
) {
    let shared = &*reader.shared;
    let mut events = Vec::new();
    while !shared.stop.load(Ordering::Acquire) {
        // Adopt replacement connections from the acceptor or redialers.
        while let Ok((peer, conn)) = conn_rx.try_recv() {
            install(&reader.shared, peer, conn);
        }

        // Fire due session retransmission timers; find the next deadline.
        let timeout = if shared.cfg.session.is_some() {
            let now = shared.now_ms();
            let mut next: Option<u64> = None;
            for peer in shared.peers.iter().flatten() {
                let mut tx = peer.tx.lock();
                let Some(link) = tx.link.as_mut() else {
                    continue;
                };
                if link.next_timer().is_some_and(|d| d <= now) {
                    let frames = link.on_timer(now);
                    if tx.stream.is_some() {
                        shared
                            .stats
                            .retx
                            .fetch_add(frames.len() as u64, Ordering::Relaxed);
                        for (_, msg) in frames {
                            tx.out.push_frame(&msg);
                        }
                        let _ = shared.drain_locked(&mut tx);
                    }
                    // With no socket the frames are dropped: on_timer
                    // still refreshed their send times, and the
                    // reconnect path replays the window anyway.
                }
                if let Some(d) = tx.link.as_ref().and_then(ReliableLink::next_timer) {
                    next = Some(next.map_or(d, |v: u64| v.min(d)));
                }
            }
            next.map(|d| Duration::from_millis(d.saturating_sub(now).max(1)))
        } else {
            None
        };

        // Reconcile write interest with what the senders left queued.
        for (key, peer) in shared.peers.iter().enumerate() {
            if let Some(peer) = peer {
                shared.rearm(peer, key, &mut peer.tx.lock());
            }
        }

        if shared.poller.wait(&mut events, timeout).is_err() {
            break;
        }

        let mut dead: Vec<(usize, DeadReason)> = Vec::new();
        for &ev in events.iter() {
            let Some(peer) = shared.peer(ev.key) else {
                continue;
            };
            if ev.writable {
                // A death surfaces on the read side, below or on the
                // next wait.
                let _ = shared.drain_locked(&mut peer.tx.lock());
            }
            // A claimed stream is its claimer's to read.
            if ev.readable && !peer.claimed.load(Ordering::Acquire) {
                let mut rx = peer.rx.lock();
                let Some(pr) = rx.as_mut() else {
                    continue; // already removed this round
                };
                let id = NodeId::new(ev.key as u32);
                if let Err(reason) = read_ready(shared, &reader.sink, id, pr) {
                    dead.push((ev.key, reason));
                }
            }
        }
        for (key, reason) in dead {
            conn_dead(&reader.shared, key, reason);
        }
    }
    // Teardown: deregister and close whatever is still registered.
    for peer in shared.peers.iter().flatten() {
        if let Some(pr) = peer.rx.lock().take() {
            deregister(shared, &mut peer.tx.lock());
            let _ = pr.stream.shutdown(Shutdown::Both);
        }
    }
}

/// Takes a peer's read socket out of the poll set for good.
fn deregister(shared: &Shared, tx: &mut PeerTx) {
    if let Some(Registration { fd, armed: Some(_) }) = tx.reg.take() {
        let _ = shared.poller.delete(fd);
    }
}

/// Adopts a fresh connection for `peer` into the poll set, replacing a
/// stale one in reconnect mode (duplicates are dropped otherwise).
fn install(shared: &Arc<Shared>, peer: NodeId, conn: Conn) {
    let key = peer.index();
    let Some(slot) = shared.peer(key) else {
        return; // out of range or our own id: dropped on the floor
    };
    let mut rx = slot.rx.lock();
    if let Some(stale) = rx.take() {
        if shared.cfg.session.is_none() {
            *rx = Some(stale);
            return; // duplicate peer connection: dropped on the floor
        }
        // Reconnect mode: the newer connection wins; the old one is a
        // casualty of whatever made the peer redial. Shutting it also
        // wakes a thread that holds it claimed, which then finds the
        // replacement and lets go.
        deregister(shared, &mut slot.tx.lock());
        let _ = stale.stream.shutdown(Shutdown::Both);
    }
    let stream = conn.stream;
    if stream.set_nodelay(shared.cfg.nodelay).is_err() {
        return;
    }
    if shared.cfg.sndbuf > 0 {
        let _ = polling::sockopt::set_send_buffer(raw_fd(&stream), shared.cfg.sndbuf as usize);
    }
    if shared.cfg.rcvbuf > 0 {
        let _ = polling::sockopt::set_recv_buffer(raw_fd(&stream), shared.cfg.rcvbuf as usize);
    }
    if stream.set_nonblocking(true).is_err() {
        return;
    }
    let stream = Arc::new(stream);
    let mut tx = slot.tx.lock();
    tx.redialing = false;
    tx.stream = Some(Arc::clone(&stream));
    tx.out.clear();
    tx.want_write = false;
    if std::mem::replace(&mut tx.connected_once, true) {
        shared.stats.reconnects.fetch_add(1, Ordering::Relaxed);
    }
    // Announce our incarnation before replaying the window: after a
    // restart-from-disk this fences the peer's stale sequence space in
    // one frame instead of waiting out an RTO round of rejected
    // retransmissions. On an unchanged incarnation the peer treats it
    // as a duplicate announcement and ignores it.
    let PeerTx { link, out, .. } = &mut *tx;
    if let Some(link) = link {
        out.push_frame(&link.hello());
        // Replay the whole unacked window: frames that survived the old
        // socket are discarded by the peer's duplicate suppression.
        let replay = link.retransmit_to(shared.now_ms(), peer);
        shared
            .stats
            .retx
            .fetch_add(replay.len() as u64, Ordering::Relaxed);
        for msg in replay {
            out.push_frame(&msg);
        }
    }
    if let Drain::Dead = shared.drain_locked(&mut tx) {
        // Died before it ever joined the poll set; the usual redial
        // policy applies.
        drop(tx);
        drop(rx);
        maybe_redial(shared, peer);
        return;
    }
    tx.reg = Some(Registration {
        fd: raw_fd(&stream),
        armed: None,
    });
    shared.rearm(slot, key, &mut tx);
    *rx = Some(PeerRead {
        stream,
        dec: conn.dec,
    });
}

/// Spawns a detached redial thread toward `peer` if reconnect policy
/// says so (reconnect mode, mesh alive, we are the dialing side, no
/// redialer already running).
fn maybe_redial(shared: &Arc<Shared>, peer: NodeId) {
    if shared.cfg.session.is_none()
        || shared.stop.load(Ordering::Acquire)
        || !shared.delivering.load(Ordering::Acquire)
        || shared.me.index() < peer.index()
    {
        return;
    }
    let Some(slot) = shared.peer(peer.index()) else {
        return;
    };
    {
        let mut tx = slot.tx.lock();
        if tx.redialing {
            return;
        }
        tx.redialing = true;
    }
    let shared = Arc::clone(shared);
    let _ = thread::Builder::new()
        .name(format!("redial-{}-{peer}", shared.me))
        .spawn(move || run_redial(shared, peer));
}

/// Reads everything currently available on `peer`'s socket into its
/// decoder, decoding and delivering complete frames where they lie. The
/// caller — the poller or the stream's claimer — holds the peer's
/// read-side lock, and every complete frame is delivered before this
/// returns: nothing waits in the decoder for a wake-up that only socket
/// readiness would bring.
fn read_ready<M: Wire + Tagged, S: EnvelopeSink<M>>(
    shared: &Shared,
    sink: &S,
    peer: NodeId,
    pr: &mut PeerRead,
) -> Result<(), DeadReason> {
    loop {
        let filled = match pr.dec.read_from(&mut &*pr.stream) {
            Ok((0, _)) => return Err(DeadReason::Socket),
            Ok((_, filled)) => filled,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(DeadReason::Socket),
        };
        loop {
            let body = match pr.dec.next_body() {
                Ok(Some(body)) => body,
                Ok(None) => break,
                Err(e) => {
                    return Err(DeadReason::Protocol(io::Error::new(
                        io::ErrorKind::InvalidData,
                        e.to_string(),
                    )))
                }
            };
            deliver_frame(shared, sink, peer, body)?;
        }
        if !filled {
            // Level-triggered: if more arrived meanwhile, the next wait
            // reports the socket readable again.
            return Ok(());
        }
    }
}

/// Decodes one inbound frame body and hands its envelope(s) to the
/// engine, running the session layer first in reconnect mode.
fn deliver_frame<M: Wire + Tagged, S: EnvelopeSink<M>>(
    shared: &Shared,
    sink: &S,
    peer: NodeId,
    body: &[u8],
) -> Result<(), DeadReason> {
    if shared.cfg.session.is_none() {
        let env = decode_envelope_slice::<M>(body).map_err(DeadReason::Protocol)?;
        return inject(shared, sink, peer, env);
    }
    let msg: SessionMsg<RawBody> = decode_body(body).map_err(DeadReason::Protocol)?;
    let slot = shared
        .peer(peer.index())
        .expect("session frames only arrive from installed peers");
    let released = {
        let mut tx = slot.tx.lock();
        let now = shared.now_ms();
        let link = tx.link.as_mut().expect("session mode has a link per peer");
        let (replies, delivered) = link.on_receive(now, peer, msg);
        if !replies.is_empty() && tx.stream.is_some() {
            shared
                .stats
                .acks
                .fetch_add(replies.len() as u64, Ordering::Relaxed);
            for reply in replies {
                tx.out.push_frame(&reply);
            }
            let _ = shared.drain_locked(&mut tx);
        }
        delivered
    };
    for raw in released {
        let env = decode_envelope_slice::<M>(&raw.0).map_err(DeadReason::Protocol)?;
        inject(shared, sink, peer, env)?;
    }
    Ok(())
}

fn inject<M, S: EnvelopeSink<M>>(
    shared: &Shared,
    sink: &S,
    peer: NodeId,
    env: Envelope<M>,
) -> Result<(), DeadReason> {
    if env.dst.index() >= sink.nodes() || !sink.hosts(env.dst) {
        return Err(DeadReason::Protocol(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{peer} sent an envelope for non-local {}", env.dst),
        )));
    }
    if sink.deliver(env).is_err() {
        // Local engine is shutting down; stop delivering and redialing.
        shared.delivering.store(false, Ordering::Release);
        return Err(DeadReason::Engine);
    }
    Ok(())
}

/// Undecodable bytes are always worth a line; a plain socket close is
/// not — without sessions it is almost always the peer shutting down
/// first (every loopback-harness teardown), and the loss surfaces to the
/// application as failed sends anyway.
fn report(shared: &Shared, peer: NodeId, reason: &DeadReason) {
    if let DeadReason::Protocol(e) = reason {
        if !shared.stop.load(Ordering::Acquire) {
            eprintln!("mesh: connection from {peer} failed: {e}");
        }
    }
}

/// Removes a dead connection from the poll set, resets the peer's
/// outbound state, and applies the redial policy.
fn conn_dead(shared: &Arc<Shared>, key: usize, reason: DeadReason) {
    let Some(slot) = shared.peer(key) else {
        return;
    };
    let Some(pr) = slot.rx.lock().take() else {
        return;
    };
    {
        let mut tx = slot.tx.lock();
        deregister(shared, &mut tx);
        if let Some(s) = tx.stream.take() {
            let _ = s.shutdown(Shutdown::Both);
        }
        tx.out.clear();
        tx.want_write = false;
    }
    let _ = pr.stream.shutdown(Shutdown::Both);
    let peer = NodeId::new(key as u32);
    report(shared, peer, &reason);
    if !matches!(reason, DeadReason::Engine) {
        maybe_redial(shared, peer);
    }
}

#[cfg(test)]
mod tests {
    use std::io::Write as _;

    use simnet::codec::{frame, CodecError};
    use simnet::Tagged;

    use super::*;
    use crate::framing::{ctrl_node, read_frame, write_frame};
    use crate::spec::NetOptions;

    #[derive(Clone, Debug, PartialEq)]
    struct Ping(u64);

    impl Tagged for Ping {
        fn kind(&self) -> &'static str {
            "PING"
        }
    }

    impl Wire for Ping {
        fn encode(&self, buf: &mut bytes::BytesMut) {
            self.0.encode(buf);
        }
        fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
            Ok(Ping(u64::decode(buf)?))
        }
        fn encoded_len(&self) -> usize {
            8
        }
    }

    fn loopback_spec(n: usize) -> (ClusterSpec, Vec<TcpListener>) {
        let listeners: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
            .collect();
        let addrs = listeners
            .iter()
            .map(|l| l.local_addr().unwrap().to_string())
            .collect();
        (ClusterSpec::new(8, addrs), listeners)
    }

    #[test]
    fn two_node_mesh_carries_traffic_both_ways() {
        let (spec, mut listeners) = loopback_spec(2);
        let spec1 = spec.clone();
        let l1 = listeners.pop().unwrap();
        let l0 = listeners.pop().unwrap();
        let timeout = Duration::from_secs(10);

        let side = move |me: u32, listener: TcpListener, spec: ClusterSpec| {
            let me = NodeId::new(me);
            let mesh: TcpMesh<Ping> = TcpMesh::establish(me, &spec, listener, timeout).unwrap();
            let net = Network::partial(2, &[me], mesh.link());
            mesh.start(net.clone());
            let mb = net.take_mailbox(me);
            let other = NodeId::new(1 - me.index() as u32);
            for i in 0..50 {
                net.send(me, other, Ping(u64::from(me.index() as u32) * 1000 + i))
                    .unwrap();
            }
            let mut got = Vec::new();
            for _ in 0..50 {
                got.push(mb.recv().unwrap());
            }
            (mesh, got)
        };

        let peer = thread::spawn(move || side(1, l1, spec1));
        let (mesh0, got0) = side(0, l0, spec);
        let (mesh1, got1) = peer.join().unwrap();

        // FIFO per link, nothing lost, sources correct.
        for (i, env) in got0.iter().enumerate() {
            assert_eq!(env.src, NodeId::new(1));
            assert_eq!(env.payload, Ping(1000 + i as u64));
        }
        for (i, env) in got1.iter().enumerate() {
            assert_eq!(env.src, NodeId::new(0));
            assert_eq!(env.payload, Ping(i as u64));
        }
        // One poller + one acceptor each, and the wire counters saw the
        // frames (batch-free traffic, no retransmissions).
        assert_eq!(mesh0.thread_count(), 2);
        let stats = mesh0.wire_stats();
        assert_eq!(stats.frames, 50);
        assert_eq!(stats.batch_frames, 0);
        assert_eq!(stats.retx, 0);
        assert!(stats.writev_calls > 0 && stats.writev_calls <= 50);
        assert!(stats.bytes >= 50 * (4 + 4 + 4 + 8));
        mesh0.shutdown();
        mesh1.shutdown();
    }

    #[test]
    fn session_mesh_carries_traffic_and_acks() {
        let (spec, mut listeners) = loopback_spec(2);
        let net_opts = NetOptions {
            reconnect: true,
            rto_ms: 200,
            ..NetOptions::default()
        };
        let spec = spec.with_net(net_opts);
        let spec1 = spec.clone();
        let l1 = listeners.pop().unwrap();
        let l0 = listeners.pop().unwrap();
        let timeout = Duration::from_secs(10);

        let side = move |me: u32, listener: TcpListener, spec: ClusterSpec| {
            let me = NodeId::new(me);
            let mesh: TcpMesh<Ping> = TcpMesh::establish(me, &spec, listener, timeout).unwrap();
            let net = Network::partial(2, &[me], mesh.link());
            mesh.start(net.clone());
            let mb = net.take_mailbox(me);
            let other = NodeId::new(1 - me.index() as u32);
            for i in 0..50 {
                net.send(me, other, Ping(u64::from(me.index() as u32) * 1000 + i))
                    .unwrap();
            }
            let mut got = Vec::new();
            for _ in 0..50 {
                got.push(mb.recv().unwrap());
            }
            (mesh, got)
        };

        let peer = thread::spawn(move || side(1, l1, spec1));
        let (mesh0, got0) = side(0, l0, spec);
        let (mesh1, got1) = peer.join().unwrap();
        for (i, env) in got0.iter().enumerate() {
            assert_eq!(env.payload, Ping(1000 + i as u64));
        }
        for (i, env) in got1.iter().enumerate() {
            assert_eq!(env.payload, Ping(i as u64));
        }
        let stats = mesh0.wire_stats();
        assert_eq!(stats.frames, 50);
        assert!(stats.acks > 0, "session mode must ack inbound data");
        mesh0.shutdown();
        mesh1.shutdown();
    }

    #[derive(Clone, Debug, PartialEq)]
    struct Blob(Vec<u8>);

    impl Tagged for Blob {
        fn kind(&self) -> &'static str {
            "BLOB"
        }
    }

    impl Wire for Blob {
        fn encode(&self, buf: &mut bytes::BytesMut) {
            (self.0.len() as u32).encode(buf);
            buf.extend_from_slice(&self.0);
        }
        fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
            let len = u32::decode(buf)? as usize;
            Ok(Blob(simnet::codec::take(buf, len)?.to_vec()))
        }
        fn encoded_len(&self) -> usize {
            4 + self.0.len()
        }
    }

    #[test]
    fn tiny_socket_buffers_force_partial_writes_without_corruption() {
        // Frames far larger than the kernel buffers: no single writev
        // can take a whole frame, so the drain stops mid-frame on
        // EWOULDBLOCK and the poller resumes it at the recorded offset.
        // Any slip in that bookkeeping shears a frame and the decoder
        // (or the payload comparison) catches it. The buffers stay at
        // one loopback MSS (64 KiB) — smaller trips the kernel's
        // silly-window avoidance and the test spends seconds in TCP
        // persist timers instead of exercising the drain path.
        let (spec, mut listeners) = loopback_spec(2);
        let spec = spec.with_net(NetOptions {
            sndbuf: 64 * 1024,
            rcvbuf: 64 * 1024,
            ..NetOptions::default()
        });
        let spec1 = spec.clone();
        let l1 = listeners.pop().unwrap();
        let l0 = listeners.pop().unwrap();
        let timeout = Duration::from_secs(10);

        let blobs: Vec<Blob> = (0..16u8)
            .map(|i| Blob((0..256 * 1024).map(|j| i ^ (j % 251) as u8).collect()))
            .collect();
        let expect = blobs.clone();

        let receiver = thread::spawn(move || {
            let me = NodeId::new(0);
            let mesh: TcpMesh<Blob> = TcpMesh::establish(me, &spec, l0, timeout).unwrap();
            let net = Network::partial(2, &[me], mesh.link());
            mesh.start(net.clone());
            let mb = net.take_mailbox(me);
            let mut got = Vec::new();
            for _ in 0..16 {
                got.push(mb.recv().unwrap().payload);
            }
            (mesh, got)
        });

        let me = NodeId::new(1);
        let mesh: TcpMesh<Blob> = TcpMesh::establish(me, &spec1, l1, timeout).unwrap();
        let net = Network::partial(2, &[me], mesh.link());
        mesh.start(net.clone());
        for blob in blobs {
            net.send(me, NodeId::new(0), blob).unwrap();
        }
        let (peer_mesh, got) = receiver.join().unwrap();
        assert_eq!(got, expect, "frame boundaries slipped under partial writes");
        let stats = mesh.wire_stats();
        assert_eq!(stats.frames, 16);
        assert!(
            stats.writev_calls > 16,
            "4 MiB through 8 KiB buffers cannot avoid partial writes \
             (saw {} writev calls)",
            stats.writev_calls
        );
        mesh.shutdown();
        peer_mesh.shutdown();
    }

    #[test]
    fn an_oversized_envelope_fails_at_the_sender_and_the_link_survives() {
        for reconnect in [false, true] {
            let (spec, mut listeners) = loopback_spec(2);
            let spec = spec.with_net(NetOptions {
                reconnect,
                ..NetOptions::default()
            });
            let spec1 = spec.clone();
            let l1 = listeners.pop().unwrap();
            let l0 = listeners.pop().unwrap();
            let timeout = Duration::from_secs(10);

            let receiver = thread::spawn(move || {
                let me = NodeId::new(0);
                let mesh: TcpMesh<Blob> = TcpMesh::establish(me, &spec, l0, timeout).unwrap();
                let net = Network::partial(2, &[me], mesh.link());
                mesh.start(net.clone());
                let mb = net.take_mailbox(me);
                let got: Vec<usize> = (0..2).map(|_| mb.recv().unwrap().payload.0.len()).collect();
                (mesh, got)
            });

            let me = NodeId::new(1);
            let mesh: TcpMesh<Blob> = TcpMesh::establish(me, &spec1, l1, timeout).unwrap();
            let net = Network::partial(2, &[me], mesh.link());
            mesh.start(net.clone());
            // The largest blob whose frame still fits: src, dst and the
            // blob's own length prefix, behind the session header if any.
            let header = if reconnect {
                SessionMsg::<RawBody>::DATA_HEADER_LEN
            } else {
                0
            };
            let fits = MAX_FRAME - header - (4 + 4 + 4);
            let dst = NodeId::new(0);
            net.send(me, dst, Blob(vec![0; fits + 1]))
                .expect_err("one byte over the receiver's limit");
            net.send(me, dst, Blob(vec![7; 3])).unwrap();
            net.send(me, dst, Blob(vec![0; fits])).unwrap();
            let (peer_mesh, got) = receiver.join().unwrap();
            assert_eq!(got, [3, fits], "reconnect {reconnect}");
            assert_eq!(mesh.wire_stats().frames, 2, "a refused send is not a frame");
            mesh.shutdown();
            peer_mesh.shutdown();
        }
    }

    #[test]
    fn ctrl_connections_keep_bytes_read_past_the_hello() {
        let (spec, mut listeners) = loopback_spec(1);
        let listener = listeners.pop().unwrap();
        let addr = spec.addr(NodeId::new(0)).to_owned();
        let mesh: TcpMesh<Ping> =
            TcpMesh::establish(NodeId::new(0), &spec, listener, Duration::from_secs(5)).unwrap();

        // Hello and first frame arrive in one segment: the handshake's
        // decoder buffers the frame, and the handoff must not lose it.
        let mut burst = Vec::new();
        write_hello(&mut burst, ConnKind::Ctrl, ctrl_node()).unwrap();
        burst.extend_from_slice(&frame(&42u64));
        let mut client = TcpStream::connect(&addr).unwrap();
        client.write_all(&burst).unwrap();

        let mut client_dec = FrameDecoder::new(MAX_FRAME);
        let reply = read_hello(&mut client, &mut client_dec).unwrap();
        assert_eq!(reply.kind, ConnKind::Ctrl);
        assert_eq!(reply.node, NodeId::new(0));

        let mut conn = mesh
            .ctrl_conns()
            .recv_timeout(Duration::from_secs(5))
            .expect("ctrl connection");
        let body = read_frame(&mut conn.stream, &mut conn.dec)
            .unwrap()
            .unwrap();
        assert_eq!(crate::framing::decode_body::<u64>(&body).unwrap(), 42);

        // Server side can answer on the same socket.
        write_frame(&mut conn.stream, &43u64).unwrap();
        let body = read_frame(&mut client, &mut client_dec).unwrap().unwrap();
        assert_eq!(crate::framing::decode_body::<u64>(&body).unwrap(), 43);
        mesh.shutdown();
    }

    #[test]
    fn establish_times_out_when_peers_never_dial() {
        let (spec, mut listeners) = loopback_spec(2);
        let _l1 = listeners.pop().unwrap();
        let l0 = listeners.pop().unwrap();
        // Node 0 waits for node 1, which never comes.
        let err = TcpMesh::<Ping>::establish(NodeId::new(0), &spec, l0, Duration::from_millis(200))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }

    #[test]
    fn severed_session_mesh_heals_and_redelivers() {
        let (spec, mut listeners) = loopback_spec(2);
        let spec = spec.with_net(NetOptions {
            reconnect: true,
            rto_ms: 30,
            ..NetOptions::default()
        });
        let spec1 = spec.clone();
        let l1 = listeners.pop().unwrap();
        let l0 = listeners.pop().unwrap();
        let timeout = Duration::from_secs(10);

        // Node 1 (higher id, so the redialing side) severs the link
        // mid-stream; every ping must still arrive exactly once.
        let receiver = thread::spawn(move || {
            let me = NodeId::new(0);
            let mesh: TcpMesh<Ping> = TcpMesh::establish(me, &spec, l0, timeout).unwrap();
            let net = Network::partial(2, &[me], mesh.link());
            mesh.start(net.clone());
            let mb = net.take_mailbox(me);
            let mut got = Vec::new();
            for _ in 0..200 {
                let env = mb
                    .recv_timeout(Duration::from_secs(20))
                    .ok()
                    .flatten()
                    .expect("ping before timeout");
                got.push(env.payload);
            }
            (mesh, got)
        });

        let me = NodeId::new(1);
        let mesh: TcpMesh<Ping> = TcpMesh::establish(me, &spec1, l1, timeout).unwrap();
        let net = Network::partial(2, &[me], mesh.link());
        mesh.start(net.clone());
        for i in 0..200u64 {
            if i == 70 {
                mesh.sever(NodeId::new(0));
            }
            net.send(me, NodeId::new(0), Ping(i)).unwrap();
            if i % 50 == 0 {
                thread::sleep(Duration::from_millis(5));
            }
        }
        let (peer_mesh, got) = receiver.join().unwrap();
        assert_eq!(got.len(), 200);
        let expect: Vec<Ping> = (0..200).map(Ping).collect();
        assert_eq!(got, expect, "exactly-once, in order, across the drop");
        let stats = mesh.wire_stats();
        assert!(
            stats.reconnects >= 1 || peer_mesh.wire_stats().reconnects >= 1,
            "the drop must have forced a reconnect"
        );
        // The send issued right after sever() hit a dead socket, parked
        // in the session window, and was replayed on reconnect.
        assert!(stats.retx >= 1, "healing must go through retransmission");
        mesh.shutdown();
        peer_mesh.shutdown();
    }
}
