//! Spans at the three seams the stack exposes, recorded from outside it.
//!
//! [`TimedLink`] wraps the mesh's `RemoteLink` (every outbound envelope),
//! [`TimedSink`] wraps `InlineServer::deliver` (every inbound envelope,
//! on the poller thread) and [`TimedDisk`] wraps the WAL's `Disk`. The
//! client loop adds one span per timed call. Each thread pushes into its
//! own preallocated buffer; [`take_spans`] collects them after the run
//! and [`link`](link_spans) rebuilds which span caused which:
//!
//! * a span's parent is the span enclosing it on the same thread (a
//!   request send inside a client call, a reply send or disk write inside
//!   a deliver);
//! * a deliver's parent is the send that carried its envelope — the k-th
//!   deliver at `b` from `a` is the k-th send from `a` to `b`, because a
//!   link is one FIFO TCP stream and one envelope is one frame.
//!
//! Spans are recorded only between [`set_recording`]`(true)`, which
//! callers flip while no envelope is in flight, and either
//! `set_recording(false)` or the moment a thread's buffer is nearly full,
//! whichever comes first. A span is recorded when recording was on at
//! its start, and a send starts before its deliver, so a recorded
//! deliver always finds its send; sends cut off from their delivers at
//! the end are left without children.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use causal_dsm::{InlineServer, Msg};
use dsm_durable::{DirDisk, Disk, DiskImage};
use dsm_net::{EnvelopeSink, Payload, SinkClosed};
use memcore::NodeId;
use simnet::{Envelope, RemoteLink, SendError};

/// What a span brackets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One timed client call (`node` hosts the client).
    Client,
    /// `RemoteLink::send_remote` from `node` to `peer`.
    Send,
    /// `InlineServer::deliver` at `node` of a request from `peer`.
    DeliverRequest,
    /// `InlineServer::deliver` at `node` of a reply from `peer`.
    DeliverReply,
    /// `Disk::append` at `node`.
    DiskAppend,
    /// `Disk::sync` at `node`.
    DiskSync,
    /// `Disk::commit` (checkpoint install) at `node`.
    DiskCommit,
}

/// One recorded interval, in nanoseconds since [`now_ns`]'s epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The seam.
    pub kind: Kind,
    /// The node the span ran on.
    pub node: u8,
    /// The other end of the link, for sends and delivers.
    pub peer: u8,
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
    /// For sends, the time within the span that the sending thread spent
    /// on a processor: a send that wakes a thread on its own processor is
    /// descheduled in favour of it, and that time is the wake-up's, not
    /// the send's. 0 elsewhere.
    pub busy: u64,
    /// For client spans, the op's identifier; 0 elsewhere until
    /// [`link_spans`] propagates it from the root.
    pub op: u64,
}

impl Span {
    /// `end - start`.
    #[must_use]
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Spans one thread may hold. The first thread to come within
/// [`NESTING`] of it stops the recording for all of them, so every
/// buffer covers the same window; the client loop ends its phase there.
const THREAD_CAPACITY: usize = 1 << 20;
/// Spans that may still be open on a thread when it stops the recording
/// (a client call around a send, a deliver around a disk write), and
/// must fit behind the span that stopped it.
const NESTING: usize = 4;
/// Envelopes and log bytes kept for the replay microbenchmarks.
const CAPTURE_ENVELOPES: usize = 4096;
const CAPTURE_LOG_BYTES: usize = 1 << 20;

static RECORDING: AtomicBool = AtomicBool::new(false);
static CAPTURING: AtomicBool = AtomicBool::new(false);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static DISK_APPEND_BYTES: AtomicU64 = AtomicU64::new(0);

type Buffer = Arc<Mutex<Vec<Span>>>;
static BUFFERS: Mutex<Vec<Buffer>> = Mutex::new(Vec::new());
static ENVELOPES: Mutex<Vec<Envelope<Msg<Payload>>>> = Mutex::new(Vec::new());
static LOG_BYTES: Mutex<Vec<u8>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: RefCell<Option<Buffer>> = const { RefCell::new(None) };
}

/// Nanoseconds since the first call in this process — the one clock
/// every latency and span of the benchmark is read from.
#[must_use]
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Nanoseconds the calling thread has spent running on a processor
/// (`CLOCK_THREAD_CPUTIME_ID`); the wall clock where that is unavailable,
/// which counts a descheduled thread as busy.
fn thread_cpu_ns() -> u64 {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        #[repr(C)]
        struct Timespec {
            sec: i64,
            nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
        }
        const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
        let mut time = Timespec { sec: 0, nsec: 0 };
        // SAFETY: `time` is a writable `struct timespec` (two 64-bit
        // fields on every 64-bit Linux target), which is all the call
        // writes.
        if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut time) } == 0 {
            return time.sec as u64 * 1_000_000_000 + time.nsec as u64;
        }
    }
    now_ns()
}

/// Turns span recording on or off. Call only while no envelope is in
/// flight.
pub fn set_recording(on: bool) {
    RECORDING.store(on, Ordering::SeqCst);
}

/// Turns envelope and log-byte capture (for the replay microbenchmarks)
/// on or off.
pub fn set_capturing(on: bool) {
    CAPTURING.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
#[must_use]
pub fn recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Runs `f` on the calling thread's span buffer, allocating and
/// registering it on first use.
fn with_local_buffer<R>(f: impl FnOnce(&mut Vec<Span>) -> R) -> R {
    LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        let buffer = local.get_or_insert_with(|| {
            let buffer = Arc::new(Mutex::new(Vec::with_capacity(THREAD_CAPACITY)));
            BUFFERS
                .lock()
                .expect("no thread panics holding the registry")
                .push(Arc::clone(&buffer));
            buffer
        });
        let mut spans = buffer.lock().expect("only the owning thread pushes");
        f(&mut spans)
    })
}

/// Allocates the calling thread's span buffer, so the first recorded
/// span does not pay for it.
pub fn prepare_thread() {
    with_local_buffer(|_| ());
}

/// Appends `span` to the calling thread's buffer.
pub fn record(span: Span) {
    with_local_buffer(|spans| {
        if spans.len() < THREAD_CAPACITY {
            spans.push(span);
        } else {
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
        if spans.len() >= THREAD_CAPACITY - NESTING {
            RECORDING.store(false, Ordering::SeqCst);
        }
    });
}

/// Everything the traced run left behind.
pub struct Collected {
    /// Every thread's spans, one list per thread, in push order.
    pub threads: Vec<Vec<Span>>,
    /// Spans that did not fit a thread buffer. Recording stops before a
    /// buffer is full, so any is a bug in this module.
    pub dropped: u64,
    /// Envelopes delivered while capturing, in delivery order per node.
    pub envelopes: Vec<Envelope<Msg<Payload>>>,
    /// WAL bytes appended while capturing.
    pub log_bytes: Vec<u8>,
    /// WAL bytes appended while recording.
    pub disk_append_bytes: u64,
}

/// Drains every buffer and counter of this module.
#[must_use]
pub fn take_spans() -> Collected {
    let buffers = BUFFERS.lock().expect("registry lock");
    Collected {
        threads: buffers
            .iter()
            .map(|b| std::mem::take(&mut *b.lock().expect("buffer lock")))
            .collect(),
        dropped: DROPPED.swap(0, Ordering::Relaxed),
        envelopes: std::mem::take(&mut *ENVELOPES.lock().expect("capture lock")),
        log_bytes: std::mem::take(&mut *LOG_BYTES.lock().expect("capture lock")),
        disk_append_bytes: DISK_APPEND_BYTES.swap(0, Ordering::Relaxed),
    }
}

/// Whether `msg` answers a request (looking inside batches).
fn is_reply(msg: &Msg<Payload>) -> bool {
    match msg {
        Msg::Batch(parts) => parts.first().is_some_and(is_reply),
        other => other.is_reply(),
    }
}

/// The mesh's outbound link with a span around every send.
pub struct TimedLink<L> {
    /// The wrapped link.
    pub inner: Arc<L>,
    /// The sending node.
    pub me: NodeId,
}

impl<L: RemoteLink<Msg<Payload>>> RemoteLink<Msg<Payload>> for TimedLink<L> {
    fn send_remote(&self, env: Envelope<Msg<Payload>>) -> Result<(), SendError> {
        if !recording() {
            return self.inner.send_remote(env);
        }
        let peer = env.dst.index() as u8;
        let start = now_ns();
        let on_cpu = thread_cpu_ns();
        let result = self.inner.send_remote(env);
        let busy = thread_cpu_ns() - on_cpu;
        record(Span {
            kind: Kind::Send,
            node: self.me.index() as u8,
            peer,
            start,
            end: now_ns(),
            busy,
            op: 0,
        });
        result
    }
}

/// The engine's inline server with a span around every deliver.
pub struct TimedSink {
    /// The wrapped server loop.
    pub server: InlineServer<Payload>,
    /// Cluster size.
    pub nodes: usize,
    /// The hosting node.
    pub me: NodeId,
}

impl EnvelopeSink<Msg<Payload>> for TimedSink {
    fn nodes(&self) -> usize {
        self.nodes
    }

    fn hosts(&self, dst: NodeId) -> bool {
        dst == self.me
    }

    fn deliver(&self, env: Envelope<Msg<Payload>>) -> Result<(), SinkClosed> {
        if CAPTURING.load(Ordering::Relaxed) {
            let mut kept = ENVELOPES.lock().expect("capture lock");
            if kept.len() < CAPTURE_ENVELOPES {
                kept.push(env.clone());
            }
        }
        if !recording() {
            return self.server.deliver(env).map_err(|_| SinkClosed);
        }
        let kind = if is_reply(&env.payload) {
            Kind::DeliverReply
        } else {
            Kind::DeliverRequest
        };
        let peer = env.src.index() as u8;
        let start = now_ns();
        let result = self.server.deliver(env).map_err(|_| SinkClosed);
        record(Span {
            kind,
            node: self.me.index() as u8,
            peer,
            start,
            end: now_ns(),
            busy: 0,
            op: 0,
        });
        result
    }
}

/// A node's WAL directory with a span around every disk operation.
pub struct TimedDisk {
    /// The wrapped directory.
    pub inner: DirDisk,
    /// The hosting node.
    pub me: NodeId,
}

impl TimedDisk {
    fn timed<R>(&mut self, kind: Kind, op: impl FnOnce(&mut DirDisk) -> R) -> R {
        if !recording() {
            return op(&mut self.inner);
        }
        let start = now_ns();
        let result = op(&mut self.inner);
        record(Span {
            kind,
            node: self.me.index() as u8,
            peer: self.me.index() as u8,
            start,
            end: now_ns(),
            busy: 0,
            op: 0,
        });
        result
    }
}

impl Disk for TimedDisk {
    fn load(&mut self) -> DiskImage {
        self.inner.load()
    }

    fn append(&mut self, bytes: &[u8]) {
        if CAPTURING.load(Ordering::Relaxed) {
            let mut kept = LOG_BYTES.lock().expect("capture lock");
            if kept.len() + bytes.len() <= CAPTURE_LOG_BYTES {
                kept.extend_from_slice(bytes);
            }
        }
        if recording() {
            DISK_APPEND_BYTES.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        }
        self.timed(Kind::DiskAppend, |disk| disk.append(bytes));
    }

    fn sync(&mut self) {
        self.timed(Kind::DiskSync, DirDisk::sync);
    }

    fn commit(&mut self, checkpoint: &[u8], seq: u64) {
        self.timed(Kind::DiskCommit, |disk| disk.commit(checkpoint, seq));
    }
}

/// A span with its place in the causal tree.
#[derive(Clone, Copy, Debug)]
pub struct Linked {
    /// The span, with `op` filled in from its root client span (0 when
    /// the chain does not lead back to one).
    pub span: Span,
    /// Index of the parent in the linked list, if any.
    pub parent: Option<usize>,
}

/// Flattens the per-thread span lists and links every span to its
/// parent (see the module docs for the two rules).
#[must_use]
pub fn link_spans(threads: &[Vec<Span>]) -> Vec<Linked> {
    let mut all: Vec<Linked> = Vec::with_capacity(threads.iter().map(Vec::len).sum());
    for spans in threads {
        // Same-thread nesting. Children are pushed before the span that
        // encloses them, so order by start (outermost first on ties).
        let base = all.len();
        let mut order: Vec<usize> = (0..spans.len()).collect();
        order.sort_by_key(|&i| (spans[i].start, std::cmp::Reverse(spans[i].end)));
        let mut open: Vec<usize> = Vec::new();
        for (slot, &i) in order.iter().enumerate() {
            let span = spans[i];
            while open.last().is_some_and(|&p| all[p].span.end < span.end) {
                open.pop();
            }
            all.push(Linked {
                span,
                parent: open.last().copied(),
            });
            open.push(base + slot);
        }
    }
    // Cross-thread: pair the k-th send a→b with the k-th deliver at b
    // from a.
    let mut links: BTreeMap<(u8, u8), (Vec<usize>, Vec<usize>)> = BTreeMap::new();
    for (i, l) in all.iter().enumerate() {
        let s = &l.span;
        match s.kind {
            Kind::Send => links.entry((s.node, s.peer)).or_default().0.push(i),
            Kind::DeliverRequest | Kind::DeliverReply => {
                links.entry((s.peer, s.node)).or_default().1.push(i);
            }
            _ => {}
        }
    }
    for (sent, delivered) in links.values_mut() {
        sent.sort_by_key(|&i| all[i].span.start);
        delivered.sort_by_key(|&i| all[i].span.start);
        for (&s, &d) in sent.iter().zip(delivered.iter()) {
            all[d].parent = Some(s);
        }
    }
    // Propagate op ids from the roots. A parent always starts before its
    // child, so one pass in start order reaches every descendant.
    let mut by_start: Vec<usize> = (0..all.len()).collect();
    by_start.sort_by_key(|&i| all[i].span.start);
    for i in by_start {
        if let Some(p) = all[i].parent {
            all[i].span.op = all[p].span.op;
        }
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, node: u8, peer: u8, start: u64, end: u64, op: u64) -> Span {
        Span {
            kind,
            node,
            peer,
            start,
            end,
            busy: 0,
            op,
        }
    }

    #[test]
    fn a_round_trip_links_back_to_its_client_span() {
        // Client thread of node 0: the send is pushed before the call
        // that encloses it.
        let client = vec![
            span(Kind::Send, 0, 1, 12, 15, 0),
            span(Kind::Client, 0, 0, 10, 60, 7),
        ];
        // Poller of node 1: reply send and disk write inside the deliver.
        let owner = vec![
            span(Kind::DiskSync, 1, 1, 22, 30, 0),
            span(Kind::Send, 1, 0, 31, 34, 0),
            span(Kind::DeliverRequest, 1, 0, 20, 36, 0),
        ];
        let poller0 = vec![span(Kind::DeliverReply, 0, 1, 45, 50, 0)];
        let linked = link_spans(&[client, owner, poller0]);
        assert_eq!(linked.len(), 6);
        assert!(linked.iter().all(|l| l.span.op == 7), "{linked:#?}");
        let find = |k: Kind, node: u8| {
            linked
                .iter()
                .position(|l| l.span.kind == k && l.span.node == node)
        };
        let root = find(Kind::Client, 0).unwrap();
        let request = find(Kind::Send, 0).unwrap();
        let serve = find(Kind::DeliverRequest, 1).unwrap();
        let reply = find(Kind::Send, 1).unwrap();
        assert_eq!(linked[root].parent, None);
        assert_eq!(linked[request].parent, Some(root));
        assert_eq!(linked[serve].parent, Some(request));
        assert_eq!(linked[reply].parent, Some(serve));
        assert_eq!(linked[find(Kind::DiskSync, 1).unwrap()].parent, Some(serve));
        assert_eq!(
            linked[find(Kind::DeliverReply, 0).unwrap()].parent,
            Some(reply)
        );
    }
}
