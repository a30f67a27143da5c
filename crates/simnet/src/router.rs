//! The thread transport: crossbeam-channel mailboxes with FIFO links and
//! instrumented sends.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam_channel::{unbounded, Receiver, Sender};
use memcore::{kinds, NetStats, NodeId};
use parking_lot::Mutex;

use crate::envelope::{Envelope, Tagged};
use crate::fault::FaultHook;

/// A send failed because the destination's mailbox was closed.
///
/// This only happens during shutdown; the paper's network is reliable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SendError {
    /// The unreachable destination.
    pub dst: NodeId,
}

impl fmt::Display for SendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mailbox of {} is closed", self.dst)
    }
}

impl std::error::Error for SendError {}

/// Forwards envelopes addressed to nodes a partial [`Network`] does not
/// host locally.
///
/// A remote transport (e.g. a TCP mesh) implements this to carry traffic
/// off-process; envelopes arriving from the wire come back in through
/// [`Network::inject`]. The link sees envelopes *after* statistics are
/// recorded and the fault hook has ruled, so the message-counting story is
/// identical for local and remote destinations.
pub trait RemoteLink<M>: Send + Sync {
    /// Carries `env` toward the process hosting `env.dst`.
    ///
    /// # Errors
    ///
    /// Returns [`SendError`] if the remote peer is unreachable (shutdown).
    fn send_remote(&self, env: Envelope<M>) -> Result<(), SendError>;
}

/// What a mailbox queues: an envelope, or `None` — the close marker (see
/// [`Network::close_mailbox`]).
type Slot<M> = Option<Envelope<M>>;

struct Inner<M> {
    // `None` marks a node hosted by another process (partial networks);
    // traffic for it goes through `remote`.
    senders: Vec<Option<Sender<Slot<M>>>>,
    mailboxes: Vec<Mutex<Option<Receiver<Slot<M>>>>>,
    remote: Option<Arc<dyn RemoteLink<M>>>,
    msgs: NetStats,
    bytes: NetStats,
    envelopes: NetStats,
    metadata: NetStats,
    fault: Mutex<Option<Arc<dyn FaultHook>>>,
    // Mirrors `fault.is_some()`, so sends can skip the lock when no hook is
    // installed. Written under the `fault` lock.
    fault_installed: AtomicBool,
    // Logical clock for fault hooks: the thread transport has no simulated
    // time, so each send gets a fresh tick.
    ticks: AtomicU64,
}

impl<M> Inner<M> {
    /// Counts `parts` logical messages of `kind` from `src`, and their
    /// encoded `bytes` when the kind has a wire size.
    fn record_parts(&self, src: NodeId, kind: &'static str, parts: u64, bytes: Option<u64>) {
        self.msgs.record_n(src, kind, parts);
        if let Some(bytes) = bytes {
            self.bytes.record_n(src, kind, bytes);
        }
    }
}

/// Distinct kinds one [`BatchTally`] holds; a batch mixing more counts the
/// overflow part by part.
const TALLY_KINDS: usize = 8;

/// A batch's parts summed per kind on the stack, so the shared counters
/// (one lock each) are updated once per kind present, not once per part.
#[derive(Default)]
struct BatchTally {
    slots: [(&'static str, u64, Option<u64>); TALLY_KINDS],
    len: usize,
}

impl BatchTally {
    /// Adds one part; `false` when the tally is full of other kinds.
    fn add(&mut self, kind: &'static str, size: Option<usize>) -> bool {
        let slot = match self.slots[..self.len]
            .iter()
            .position(|(k, ..)| std::ptr::eq(*k, kind) || *k == kind)
        {
            Some(i) => i,
            None if self.len < TALLY_KINDS => {
                self.slots[self.len] = (kind, 0, None);
                self.len += 1;
                self.len - 1
            }
            None => return false,
        };
        let (_, parts, bytes) = &mut self.slots[slot];
        *parts += 1;
        if let Some(size) = size {
            *bytes.get_or_insert(0) += size as u64;
        }
        true
    }

    /// `(kind, parts, bytes)` per kind added, in first-seen order.
    fn kinds(&self) -> &[(&'static str, u64, Option<u64>)] {
        &self.slots[..self.len]
    }
}

/// A reliable, per-link-FIFO network connecting `n` nodes.
///
/// Each node has one mailbox; sends from a given source arrive at a given
/// destination in send order (crossbeam channels preserve per-producer
/// order), delivery is reliable until the mailbox is dropped, and every
/// send is counted into the message (and optionally byte) statistics.
///
/// `Network` is cheap to clone; engines keep one clone per node handle.
///
/// # Examples
///
/// ```
/// use memcore::NodeId;
/// use simnet::{Envelope, Network, Tagged};
///
/// #[derive(Clone, Debug)]
/// struct Ping;
/// impl Tagged for Ping {
///     fn kind(&self) -> &'static str { "PING" }
/// }
///
/// let net: Network<Ping> = Network::new(2);
/// let mailbox = net.take_mailbox(NodeId::new(1));
/// net.send(NodeId::new(0), NodeId::new(1), Ping).unwrap();
/// let env = mailbox.recv().unwrap();
/// assert_eq!(env.src, NodeId::new(0));
/// assert_eq!(net.messages().snapshot().total(), 1);
/// ```
pub struct Network<M> {
    inner: Arc<Inner<M>>,
}

impl<M> Clone for Network<M> {
    fn clone(&self) -> Self {
        Network {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<M: Tagged> Network<M> {
    /// Creates a network of `n` nodes with fresh statistics counters.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self::build(n, None, None)
    }

    /// Creates a *partial* network: mailboxes exist only for the nodes in
    /// `local`; envelopes addressed to any other node are handed to `link`.
    ///
    /// Traffic arriving from remote processes is delivered with
    /// [`inject`](Network::inject). Statistics counters still span all `n`
    /// nodes so per-node snapshots keep their indices, but only local
    /// senders record into them.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero, `local` is empty, or any id in `local` is out
    /// of range.
    #[must_use]
    pub fn partial(n: usize, local: &[NodeId], link: Arc<dyn RemoteLink<M>>) -> Self {
        assert!(!local.is_empty(), "partial network needs a local node");
        assert!(
            local.iter().all(|id| id.index() < n),
            "local node out of range"
        );
        Self::build(n, Some(local), Some(link))
    }

    fn build(n: usize, local: Option<&[NodeId]>, link: Option<Arc<dyn RemoteLink<M>>>) -> Self {
        assert!(n > 0, "network needs at least one node");
        let mut senders = Vec::with_capacity(n);
        let mut mailboxes = Vec::with_capacity(n);
        for i in 0..n {
            if local.is_none_or(|ids| ids.contains(&NodeId::new(i as u32))) {
                let (tx, rx) = unbounded();
                senders.push(Some(tx));
                mailboxes.push(Mutex::new(Some(rx)));
            } else {
                senders.push(None);
                mailboxes.push(Mutex::new(None));
            }
        }
        Network {
            inner: Arc::new(Inner {
                senders,
                mailboxes,
                remote: link,
                msgs: NetStats::new(n),
                bytes: NetStats::new(n),
                envelopes: NetStats::new(n),
                metadata: NetStats::new(n),
                fault: Mutex::new(None),
                fault_installed: AtomicBool::new(false),
                ticks: AtomicU64::new(0),
            }),
        }
    }

    /// `true` iff `node`'s mailbox lives in this process.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn is_local(&self, node: NodeId) -> bool {
        self.inner.senders[node.index()].is_some()
    }

    /// Delivers an envelope that arrived from a remote process into its
    /// local mailbox.
    ///
    /// No statistics are recorded: the sending process already counted the
    /// send, and double-counting would skew the paper's message bills.
    ///
    /// # Errors
    ///
    /// Returns [`SendError`] if the destination's mailbox was dropped
    /// (shutdown).
    ///
    /// # Panics
    ///
    /// Panics if the destination is out of range or not local.
    pub fn inject(&self, env: Envelope<M>) -> Result<(), SendError> {
        let dst = env.dst;
        self.inner.senders[dst.index()]
            .as_ref()
            .expect("inject target is not a local node")
            .send(Some(env))
            .map_err(|_| SendError { dst })
    }

    /// Closes `node`'s mailbox: once its reader has consumed everything
    /// queued before this call, [`Mailbox::recv`] returns `None`. This is
    /// how an engine stops a node's message loop — a transport-level
    /// signal, not a protocol message, so no peer can forge it. Sends to
    /// the node start failing once its reader drops the mailbox.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or not local to this process.
    pub fn close_mailbox(&self, node: NodeId) {
        let tx = self.inner.senders[node.index()]
            .as_ref()
            .expect("close target is not a local node");
        // A reader that is already gone needs no signal.
        let _ = tx.send(None);
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.senders.len()
    }

    /// Always `false`; a network has at least one node.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Removes and returns `node`'s mailbox. Each mailbox can be taken once;
    /// the engine's message loop owns it.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range, not local to this process, or its
    /// mailbox was already taken.
    #[must_use]
    pub fn take_mailbox(&self, node: NodeId) -> Mailbox<M> {
        let rx = self.inner.mailboxes[node.index()]
            .lock()
            .take()
            .expect("mailbox already taken or node not local");
        Mailbox { rx }
    }

    /// Installs (or, with `None`, removes) a fault hook consulted on every
    /// subsequent [`send`](Network::send).
    ///
    /// With a hook installed the transport is no longer reliable: messages
    /// may be dropped or duplicated, so only protocols layered over a
    /// session protocol (see `dsm-faults`) should run on a faulty network.
    /// Extra per-copy delays in a [`SendFate`](crate::SendFate) are ignored
    /// — channel delivery has no timers; use the simulator for delay
    /// spikes.
    pub fn set_fault_hook(&self, hook: Option<Arc<dyn FaultHook>>) {
        let mut slot = self.inner.fault.lock();
        // Release pairs with the Acquire load in `send`: a sender that
        // sees the flag then finds the hook behind the lock.
        self.inner
            .fault_installed
            .store(hook.is_some(), Ordering::Release);
        *slot = hook;
    }

    fn transmit(&self, src: NodeId, dst: NodeId, payload: M) -> Result<(), SendError> {
        match &self.inner.senders[dst.index()] {
            Some(tx) => tx
                .send(Some(Envelope::new(src, dst, payload)))
                .map_err(|_| SendError { dst }),
            None => self
                .inner
                .remote
                .as_ref()
                .expect("no remote link for non-local destination")
                .send_remote(Envelope::new(src, dst, payload)),
        }
    }

    /// The per-(node, kind) message counters.
    #[must_use]
    pub fn messages(&self) -> &NetStats {
        &self.inner.msgs
    }

    /// The per-(node, kind) byte counters (only populated for payloads with
    /// a wire size).
    #[must_use]
    pub fn bytes(&self) -> &NetStats {
        &self.inner.bytes
    }

    /// The per-(node, kind) *physical envelope* counters.
    ///
    /// One entry per [`send`](Network::send): a batch payload counts once
    /// under [`kinds::BATCH`] here while its constituents land in
    /// [`messages`](Network::messages) under their own kinds. Without
    /// batching this mirrors `messages` exactly, so
    /// `messages - envelopes` is the coalescing win.
    #[must_use]
    pub fn envelopes(&self) -> &NetStats {
        &self.inner.envelopes
    }

    /// The per-(node, kind) causal-metadata byte counters: encoded vector
    /// timestamps only (see [`Tagged::metadata_size`]). Batches record
    /// their total under the envelope's kind; without timestamps in
    /// flight the counter stays empty.
    #[must_use]
    pub fn metadata(&self) -> &NetStats {
        &self.inner.metadata
    }
}

impl<M: Tagged + Clone> Network<M> {
    /// Sends `payload` from `src` to `dst`, recording statistics.
    ///
    /// Messages to self are delivered through the same path (the owner
    /// protocol never sends to self, but applications may).
    ///
    /// With a fault hook installed (see
    /// [`set_fault_hook`](Network::set_fault_hook)), the hook decides the
    /// message's fate:
    /// drops are counted under [`kinds::DROP`] and silently succeed (a real
    /// network gives the sender no signal), extra copies are counted under
    /// [`kinds::DUP`]. The attempted send is always counted under the
    /// payload's own kind, so protocol counts stay comparable across fault
    /// levels.
    ///
    /// # Errors
    ///
    /// Returns [`SendError`] if `dst`'s mailbox has been dropped (shutdown).
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is out of range.
    pub fn send(&self, src: NodeId, dst: NodeId, payload: M) -> Result<(), SendError> {
        // Logical counts are batching-invariant: a batch records each
        // constituent under its own kind and only the envelope counter sees
        // the single physical send.
        let inner = &*self.inner;
        if payload.is_batch() {
            let mut tally = BatchTally::default();
            payload.for_each_batch_part(&mut |kind, size| {
                if !tally.add(kind, size) {
                    inner.record_parts(src, kind, 1, size.map(|n| n as u64));
                }
            });
            for &(kind, parts, bytes) in tally.kinds() {
                inner.record_parts(src, kind, parts, bytes);
            }
            inner.envelopes.record(src, kinds::BATCH);
        } else {
            inner.msgs.record(src, payload.kind());
            if let Some(size) = payload.wire_size() {
                inner.bytes.record_n(src, payload.kind(), size as u64);
            }
            inner.envelopes.record(src, payload.kind());
        }
        let meta = payload.metadata_size();
        if meta > 0 {
            self.inner
                .metadata
                .record_n(src, payload.kind(), meta as u64);
        }
        // Fault-free networks (every production one) pay one atomic load
        // here, not a mutex and a reference count per message.
        if !self.inner.fault_installed.load(Ordering::Acquire) {
            return self.transmit(src, dst, payload);
        }
        let hook = self.inner.fault.lock().clone();
        let Some(hook) = hook else {
            return self.transmit(src, dst, payload);
        };
        let now = self.inner.ticks.fetch_add(1, Ordering::Relaxed);
        if hook.down_until(dst, now).is_some() {
            self.inner.msgs.record(src, kinds::DROP);
            return Ok(());
        }
        let fate = hook.on_send(src, dst, payload.kind(), now);
        if fate.is_drop() {
            self.inner.msgs.record(src, kinds::DROP);
            return Ok(());
        }
        for _ in 1..fate.copies.len() {
            self.inner.msgs.record(src, kinds::DUP);
            self.transmit(src, dst, payload.clone())?;
        }
        self.transmit(src, dst, payload)
    }
}

/// The receiving end of one node's mailbox.
pub struct Mailbox<M> {
    rx: Receiver<Slot<M>>,
}

impl<M> Mailbox<M> {
    /// Blocks until a message arrives.
    ///
    /// # Errors
    ///
    /// Returns `None` when the mailbox was closed
    /// ([`Network::close_mailbox`]) or every sender is gone (network
    /// dropped).
    pub fn recv(&self) -> Option<Envelope<M>> {
        self.rx.recv().ok().flatten()
    }

    /// Receives with a timeout; `Ok(None)` on timeout.
    ///
    /// # Errors
    ///
    /// Returns `Err(())` when the mailbox was closed or every sender is
    /// gone.
    #[allow(clippy::result_unit_err)]
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Option<Envelope<M>>, ()> {
        match self.rx.recv_timeout(timeout) {
            Ok(Some(env)) => Ok(Some(env)),
            Ok(None) => Err(()),
            Err(crossbeam_channel::RecvTimeoutError::Timeout) => Ok(None),
            Err(crossbeam_channel::RecvTimeoutError::Disconnected) => Err(()),
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Envelope<M>> {
        self.rx.try_recv().ok().flatten()
    }
}

impl<M> fmt::Debug for Mailbox<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Mailbox(pending: {})", self.rx.len())
    }
}

impl<M> fmt::Debug for Network<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Network({} nodes)", self.inner.senders.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    enum Msg {
        Read(u32),
        Reply(u32),
    }

    impl Tagged for Msg {
        fn kind(&self) -> &'static str {
            match self {
                Msg::Read(_) => "READ",
                Msg::Reply(_) => "R_REPLY",
            }
        }
        fn wire_size(&self) -> Option<usize> {
            Some(5)
        }
    }

    fn p(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn a_closed_mailbox_drains_then_ends_and_is_not_a_counted_message() {
        let net: Network<Msg> = Network::new(2);
        let mb = net.take_mailbox(p(1));
        net.send(p(0), p(1), Msg::Read(1)).unwrap();
        net.close_mailbox(p(1));
        assert_eq!(mb.recv().unwrap().payload, Msg::Read(1));
        assert!(mb.recv().is_none(), "the close marker ends the stream");
        assert_eq!(net.messages().snapshot().total(), 1);
        drop(mb);
        assert!(net.send(p(0), p(1), Msg::Read(2)).is_err());
        net.close_mailbox(p(1)); // closing a dropped mailbox is a no-op
    }

    #[test]
    fn delivery_preserves_per_link_fifo() {
        let net: Network<Msg> = Network::new(2);
        let mb = net.take_mailbox(p(1));
        for i in 0..100 {
            net.send(p(0), p(1), Msg::Read(i)).unwrap();
        }
        for i in 0..100 {
            assert_eq!(mb.recv().unwrap().payload, Msg::Read(i));
        }
    }

    #[test]
    fn sends_are_counted_by_kind_and_bytes() {
        let net: Network<Msg> = Network::new(2);
        let _mb = net.take_mailbox(p(1));
        net.send(p(0), p(1), Msg::Read(1)).unwrap();
        net.send(p(0), p(1), Msg::Reply(1)).unwrap();
        let snap = net.messages().snapshot();
        assert_eq!(snap.get(p(0), "READ"), 1);
        assert_eq!(snap.get(p(0), "R_REPLY"), 1);
        assert_eq!(net.bytes().snapshot().node_total(p(0)), 10);
    }

    #[test]
    fn batch_payloads_split_logical_and_physical_counters() {
        #[derive(Clone, Debug)]
        struct Wrapper(Vec<Msg>);
        impl Tagged for Wrapper {
            fn kind(&self) -> &'static str {
                kinds::BATCH
            }
            fn is_batch(&self) -> bool {
                true
            }
            fn for_each_batch_part(&self, visit: &mut dyn FnMut(&'static str, Option<usize>)) {
                for m in &self.0 {
                    visit(m.kind(), m.wire_size());
                }
            }
        }

        let net: Network<Wrapper> = Network::new(2);
        let mb = net.take_mailbox(p(1));
        net.send(
            p(0),
            p(1),
            Wrapper(vec![Msg::Read(1), Msg::Read(2), Msg::Reply(1)]),
        )
        .unwrap();
        // One physical envelope arrives…
        assert_eq!(mb.recv().unwrap().payload.0.len(), 3);
        // …but the logical counters saw the three constituents.
        let msgs = net.messages().snapshot();
        assert_eq!(msgs.get(p(0), "READ"), 2);
        assert_eq!(msgs.get(p(0), "R_REPLY"), 1);
        assert_eq!(msgs.get(p(0), kinds::BATCH), 0);
        assert_eq!(net.bytes().snapshot().node_total(p(0)), 15);
        let envs = net.envelopes().snapshot();
        assert_eq!(envs.get(p(0), kinds::BATCH), 1);
        assert_eq!(envs.node_total(p(0)), 1);
    }

    #[test]
    fn a_mixed_batch_counts_exactly_like_its_parts_sent_one_by_one() {
        // More kinds than the tally holds, one without a wire size, and
        // repeats spread across the batch.
        #[derive(Clone, Debug)]
        enum Env {
            One(&'static str, Option<usize>),
            Batch(Vec<(&'static str, Option<usize>)>),
        }
        impl Tagged for Env {
            fn kind(&self) -> &'static str {
                match self {
                    Env::One(kind, _) => kind,
                    Env::Batch(_) => kinds::BATCH,
                }
            }
            fn wire_size(&self) -> Option<usize> {
                match self {
                    Env::One(_, size) => *size,
                    Env::Batch(parts) => Some(parts.iter().filter_map(|p| p.1).sum()),
                }
            }
            fn metadata_size(&self) -> usize {
                match self {
                    Env::One(_, size) => size.map_or(0, |n| n / 2),
                    Env::Batch(parts) => parts.iter().filter_map(|p| p.1).map(|n| n / 2).sum(),
                }
            }
            fn is_batch(&self) -> bool {
                matches!(self, Env::Batch(_))
            }
            fn for_each_batch_part(&self, visit: &mut dyn FnMut(&'static str, Option<usize>)) {
                if let Env::Batch(parts) = self {
                    for &(kind, size) in parts {
                        visit(kind, size);
                    }
                }
            }
        }

        let names = ["K0", "K1", "K2", "K3", "K4", "K5", "K6", "K7", "K8", "K9"];
        let parts: Vec<(&'static str, Option<usize>)> = (0..31)
            .map(|i| {
                let kind = names[(i * 7) % names.len()];
                (kind, (kind != "K3").then_some(10 + i))
            })
            .collect();
        let one_by_one: Network<Env> = Network::new(2);
        let batched: Network<Env> = Network::new(2);
        let _mb = (one_by_one.take_mailbox(p(1)), batched.take_mailbox(p(1)));
        for &(kind, size) in &parts {
            one_by_one.send(p(0), p(1), Env::One(kind, size)).unwrap();
        }
        batched.send(p(0), p(1), Env::Batch(parts.clone())).unwrap();

        assert_eq!(
            batched.messages().snapshot(),
            one_by_one.messages().snapshot()
        );
        assert_eq!(batched.bytes().snapshot(), one_by_one.bytes().snapshot());
        assert_eq!(batched.bytes().snapshot().get(p(0), "K3"), 0);
        assert_eq!(
            batched.metadata().snapshot().node_total(p(0)),
            one_by_one.metadata().snapshot().node_total(p(0))
        );
        let envs = batched.envelopes().snapshot();
        assert_eq!(envs.get(p(0), kinds::BATCH), 1);
        assert_eq!(envs.total(), 1);
    }

    #[test]
    fn unbatched_sends_mirror_into_envelope_counters() {
        let net: Network<Msg> = Network::new(2);
        let _mb = net.take_mailbox(p(1));
        net.send(p(0), p(1), Msg::Read(1)).unwrap();
        net.send(p(0), p(1), Msg::Reply(1)).unwrap();
        assert_eq!(
            net.envelopes().snapshot().by_kind(),
            net.messages().snapshot().by_kind()
        );
    }

    #[test]
    fn send_to_dropped_mailbox_errors() {
        let net: Network<Msg> = Network::new(2);
        {
            let _mb = net.take_mailbox(p(1));
        }
        let err = net.send(p(0), p(1), Msg::Read(0)).unwrap_err();
        assert_eq!(err.dst, p(1));
        assert_eq!(err.to_string(), "mailbox of P1 is closed");
    }

    #[test]
    #[should_panic(expected = "mailbox already taken")]
    fn mailbox_can_only_be_taken_once() {
        let net: Network<Msg> = Network::new(1);
        let _a = net.take_mailbox(p(0));
        let _b = net.take_mailbox(p(0));
    }

    #[test]
    fn try_recv_and_timeout_behave() {
        let net: Network<Msg> = Network::new(2);
        let mb = net.take_mailbox(p(0));
        assert_eq!(mb.try_recv(), None);
        assert_eq!(mb.recv_timeout(Duration::from_millis(1)), Ok(None));
        net.send(p(1), p(0), Msg::Read(9)).unwrap();
        assert_eq!(mb.try_recv().unwrap().payload, Msg::Read(9));
    }

    #[test]
    fn fault_hook_drops_and_duplicates() {
        use crate::fault::{FaultHook, SendFate};

        struct DropReadsDupReplies;
        impl FaultHook for DropReadsDupReplies {
            fn on_send(
                &self,
                _src: NodeId,
                _dst: NodeId,
                kind: &'static str,
                _now: u64,
            ) -> SendFate {
                if kind == "READ" {
                    SendFate::dropped()
                } else {
                    SendFate { copies: vec![0, 0] }
                }
            }
        }

        let net: Network<Msg> = Network::new(2);
        let mb = net.take_mailbox(p(1));
        net.set_fault_hook(Some(Arc::new(DropReadsDupReplies)));
        net.send(p(0), p(1), Msg::Read(1)).unwrap();
        net.send(p(0), p(1), Msg::Reply(2)).unwrap();
        // The read was dropped; the reply arrives twice.
        assert_eq!(mb.recv().unwrap().payload, Msg::Reply(2));
        assert_eq!(mb.recv().unwrap().payload, Msg::Reply(2));
        assert_eq!(mb.try_recv(), None);
        let snap = net.messages().snapshot();
        assert_eq!(snap.get(p(0), "READ"), 1); // attempted sends still counted
        assert_eq!(snap.get(p(0), kinds::DROP), 1);
        assert_eq!(snap.get(p(0), kinds::DUP), 1);
        // Removing the hook restores reliable delivery.
        net.set_fault_hook(None);
        net.send(p(0), p(1), Msg::Read(3)).unwrap();
        assert_eq!(mb.recv().unwrap().payload, Msg::Read(3));
    }

    #[test]
    fn fault_hook_down_node_loses_traffic() {
        use crate::fault::{FaultHook, SendFate};

        struct NodeOneDown;
        impl FaultHook for NodeOneDown {
            fn on_send(
                &self,
                _src: NodeId,
                _dst: NodeId,
                _kind: &'static str,
                _now: u64,
            ) -> SendFate {
                SendFate::deliver()
            }
            fn down_until(&self, node: NodeId, _at: u64) -> Option<u64> {
                (node == NodeId::new(1)).then_some(u64::MAX)
            }
        }

        let net: Network<Msg> = Network::new(2);
        let mb = net.take_mailbox(p(1));
        net.set_fault_hook(Some(Arc::new(NodeOneDown)));
        net.send(p(0), p(1), Msg::Read(1)).unwrap();
        assert_eq!(mb.try_recv(), None);
        assert_eq!(net.messages().snapshot().get(p(0), kinds::DROP), 1);
    }

    #[test]
    fn partial_network_hands_remote_traffic_to_the_link() {
        struct Capture(Mutex<Vec<Envelope<Msg>>>);
        impl RemoteLink<Msg> for Capture {
            fn send_remote(&self, env: Envelope<Msg>) -> Result<(), SendError> {
                self.0.lock().push(env);
                Ok(())
            }
        }

        let link = Arc::new(Capture(Mutex::new(Vec::new())));
        // This process hosts node 0 of a 3-node cluster.
        let net: Network<Msg> = Network::partial(3, &[p(0)], link.clone());
        assert!(net.is_local(p(0)));
        assert!(!net.is_local(p(1)));
        let mb = net.take_mailbox(p(0));

        // Remote destination: counted here, carried by the link.
        net.send(p(0), p(2), Msg::Read(1)).unwrap();
        let captured = link.0.lock();
        assert_eq!(captured.len(), 1);
        assert_eq!(captured[0].dst, p(2));
        drop(captured);
        assert_eq!(net.messages().snapshot().get(p(0), "READ"), 1);

        // Wire arrival: injected into the local mailbox, NOT re-counted —
        // the sending process already billed the send.
        net.inject(Envelope::new(p(2), p(0), Msg::Reply(7)))
            .unwrap();
        assert_eq!(mb.recv().unwrap().payload, Msg::Reply(7));
        assert_eq!(net.messages().snapshot().get(p(2), "R_REPLY"), 0);
        assert_eq!(net.envelopes().snapshot().node_total(p(2)), 0);
    }

    #[test]
    #[should_panic(expected = "inject target is not a local node")]
    fn inject_to_remote_node_panics() {
        struct Null;
        impl RemoteLink<Msg> for Null {
            fn send_remote(&self, _env: Envelope<Msg>) -> Result<(), SendError> {
                Ok(())
            }
        }
        let net: Network<Msg> = Network::partial(2, &[p(0)], Arc::new(Null));
        let _ = net.inject(Envelope::new(p(0), p(1), Msg::Read(0)));
    }

    #[test]
    fn concurrent_senders_each_preserve_order() {
        let net: Network<Msg> = Network::new(3);
        let mb = net.take_mailbox(p(2));
        let net_a = net.clone();
        let net_b = net.clone();
        let a = std::thread::spawn(move || {
            for i in 0..500 {
                net_a.send(p(0), p(2), Msg::Read(i)).unwrap();
            }
        });
        let b = std::thread::spawn(move || {
            for i in 0..500 {
                net_b.send(p(1), p(2), Msg::Reply(i)).unwrap();
            }
        });
        a.join().unwrap();
        b.join().unwrap();
        let (mut next_a, mut next_b) = (0, 0);
        for _ in 0..1000 {
            match mb.recv().unwrap() {
                Envelope {
                    payload: Msg::Read(i),
                    ..
                } => {
                    assert_eq!(i, next_a);
                    next_a += 1;
                }
                Envelope {
                    payload: Msg::Reply(i),
                    ..
                } => {
                    assert_eq!(i, next_b);
                    next_b += 1;
                }
            }
        }
        assert_eq!((next_a, next_b), (500, 500));
    }
}
