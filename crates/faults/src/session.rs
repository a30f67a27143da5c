//! The reliable-delivery session layer: re-deriving the paper's
//! "reliable, ordered message passing" assumption over a lossy link.
//!
//! The owner protocol (Figure 4) is only correct on a network that
//! delivers every message exactly once, in per-link FIFO order. A faulty
//! network drops, duplicates, delays, and reorders. This module closes the
//! gap with a classical sliding-window session protocol:
//!
//! * every payload from one node to one peer carries a per-link **sequence
//!   number** ([`SessionMsg::Data`]);
//! * the receiver holds out-of-order arrivals in a **reorder buffer** and
//!   releases payloads strictly in sequence, exactly once (duplicates are
//!   suppressed and re-acknowledged);
//! * every delivery is answered with a **cumulative ack** carrying the
//!   next sequence number the receiver expects ([`SessionMsg::Ack`]);
//! * the sender keeps unacknowledged payloads and **retransmits them all**
//!   when its retransmission timer (RTO) fires, re-arming until acked.
//!
//! [`ReliableLink`] is one node's endpoint; [`Session`] puts one under any
//! [`Driver`], so every executor can run a protocol over it.
//!
//! Termination under faults: as long as every partition heals, every
//! crashed node restarts, and per-message drop probability is below 1, the
//! retransmit/re-ack loop makes every payload eventually delivered exactly
//! once — so a protocol that terminates on a reliable network terminates
//! on the faulty one, with the overhead showing up as
//! [`kinds::RETX`] / [`kinds::ACK`]
//! traffic in the message statistics.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use causal_dsm::{Driver, EffectsOf, Op};
use dsm_sim::SimDriver;
use memcore::{kinds, Location, NodeId, WriteId};
use simnet::codec::Wire;
use simnet::Tagged;

/// A session-layer frame wrapping the protocol's own message type `M`.
///
/// Sequenced frames are **incarnation-stamped**: `src_inc` is the
/// sender's current incarnation (0 for a first life, bumped by every
/// durable recovery), `dst_inc` the receiver's incarnation as the sender
/// last learned it. The stamps fence a crashed life's traffic — a frame
/// from or to a dead incarnation is dropped instead of corrupting the
/// survivor's sequence space — and are how a recovered node is
/// fast-forwarded by retransmission instead of re-educated via SUSPECT
/// (see [`SessionMsg::Hello`]).
#[derive(Clone, Debug, PartialEq)]
pub enum SessionMsg<M> {
    /// A (possibly retransmitted) payload with its per-link sequence
    /// number.
    Data {
        /// Sequence number on the `src -> dst` link, from 0.
        seq: u64,
        /// `true` iff this is a retransmission (counted as
        /// [`kinds::RETX`] instead of the payload's own kind).
        retx: bool,
        /// The sender's incarnation.
        src_inc: u32,
        /// The receiver's incarnation, as known to the sender.
        dst_inc: u32,
        /// The protocol message being carried.
        payload: M,
    },
    /// A cumulative acknowledgement: the receiver has delivered every
    /// sequence number below `cum` on this link.
    Ack {
        /// The next sequence number the receiver expects.
        cum: u64,
        /// The sender's incarnation.
        src_inc: u32,
        /// The receiver's incarnation, as known to the sender.
        dst_inc: u32,
    },
    /// An unsequenced, unacknowledged datagram. Used for liveness probes
    /// ([`kinds::HEARTBEAT`]): a lost heartbeat is superseded by the next
    /// one, and giving heartbeats sequence numbers would retransmit them
    /// to a crashed peer forever, growing the unacked buffer without
    /// bound. Delivered to the protocol as-is — no dedup, no reordering
    /// repair — which heartbeats tolerate by construction.
    Raw(M),
    /// An incarnation announcement. Broadcast by a restarted node so
    /// peers rebase their sequence spaces toward it, and sent as the
    /// reply to any frame stamped with a stale `dst_inc` — which makes
    /// the retransmit/re-ack loop itself carry the news: a peer that
    /// missed the broadcast keeps retransmitting, each retransmission
    /// draws a `Hello`, and the first one to arrive resynchronizes the
    /// link. Unsequenced and never retransmitted.
    Hello {
        /// The announcer's current incarnation.
        inc: u32,
    },
}

impl<M> SessionMsg<M> {
    /// Encoded bytes a [`SessionMsg::Data`] frame spends before its
    /// payload (discriminant, `seq`, `retx`, both incarnations): what a
    /// transport with a frame-size limit must leave room for.
    pub const DATA_HEADER_LEN: usize = 1 + 8 + 1 + 4 + 4;
}

impl<M: Tagged> Tagged for SessionMsg<M> {
    fn kind(&self) -> &'static str {
        match self {
            // Fresh data keeps the payload's kind so protocol message
            // counts stay comparable with and without the session layer.
            SessionMsg::Data {
                retx: false,
                payload,
                ..
            } => payload.kind(),
            SessionMsg::Data { retx: true, .. } => kinds::RETX,
            SessionMsg::Ack { .. } => kinds::ACK,
            SessionMsg::Raw(payload) => payload.kind(),
            SessionMsg::Hello { .. } => kinds::HELLO,
        }
    }

    fn wire_size(&self) -> Option<usize> {
        // The data header, or tag (1) + cum (8) + incarnations (4 + 4), or
        // tag (1), or tag (1) + inc (4).
        match self {
            SessionMsg::Data { payload, .. } => {
                payload.wire_size().map(|s| s + Self::DATA_HEADER_LEN)
            }
            SessionMsg::Ack { .. } => Some(17),
            SessionMsg::Raw(payload) => payload.wire_size().map(|s| s + 1),
            SessionMsg::Hello { .. } => Some(5),
        }
    }

    // Fresh data carrying a transport batch stays transparent to the
    // logical counters, exactly like its kind; retransmissions and acks
    // are session overhead and count as themselves.
    fn is_batch(&self) -> bool {
        match self {
            SessionMsg::Data {
                retx: false,
                payload,
                ..
            } => payload.is_batch(),
            _ => false,
        }
    }

    fn for_each_batch_part(&self, visit: &mut dyn FnMut(&'static str, Option<usize>)) {
        if let SessionMsg::Data {
            retx: false,
            payload,
            ..
        } = self
        {
            payload.for_each_batch_part(visit);
        }
    }
}

// The payload goes last: a `RawBody` payload decodes the rest of the
// frame.
simnet::wire_enum! {
    impl[M: Wire] for SessionMsg<M> {
        0 => Data { seq, retx, src_inc, dst_inc, payload },
        1 => Ack { cum, src_inc, dst_inc },
        2 => Raw(payload),
        3 => Hello { inc },
    }
}

/// Counters kept by one node's [`ReliableLink`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Fresh payloads sent (first transmissions).
    pub data_sent: u64,
    /// Retransmitted payloads.
    pub retransmits: u64,
    /// Acks sent.
    pub acks_sent: u64,
    /// Incoming payloads discarded as already-delivered duplicates.
    pub duplicates_suppressed: u64,
}

#[derive(Clone, Debug)]
struct TxPeer<M> {
    next_seq: u64,
    /// seq -> (last transmission time, payload).
    unacked: BTreeMap<u64, (u64, M)>,
}

impl<M> Default for TxPeer<M> {
    fn default() -> Self {
        TxPeer {
            next_seq: 0,
            unacked: BTreeMap::new(),
        }
    }
}

#[derive(Clone, Debug)]
struct RxPeer<M> {
    next_expected: u64,
    buffer: BTreeMap<u64, M>,
}

impl<M> Default for RxPeer<M> {
    fn default() -> Self {
        RxPeer {
            next_expected: 0,
            buffer: BTreeMap::new(),
        }
    }
}

/// One node's end of the session protocol, covering its links to every
/// peer (sequence numbers and acks are tracked per peer).
#[derive(Clone, Debug)]
pub struct ReliableLink<M> {
    rto: u64,
    /// This endpoint's incarnation (0 for a first life; a durable
    /// recovery constructs the link with the bumped number).
    inc: u32,
    /// Each peer's incarnation, as last learned. Absent means "never
    /// heard": the first stamped frame's `src_inc` is adopted as-is.
    peer_inc: HashMap<u32, u32>,
    tx: HashMap<u32, TxPeer<M>>,
    rx: HashMap<u32, RxPeer<M>>,
    /// When the retransmission timer should next fire; `None` while
    /// nothing is unacknowledged.
    deadline: Option<u64>,
    stats: SessionStats,
}

impl<M: Clone> ReliableLink<M> {
    /// A fresh session endpoint with retransmission timeout `rto` (time
    /// units between a send and its first retransmission).
    ///
    /// # Panics
    ///
    /// Panics if `rto` is zero.
    #[must_use]
    pub fn new(rto: u64) -> Self {
        Self::with_incarnation(rto, 0)
    }

    /// A fresh session endpoint running as incarnation `inc` — what a
    /// node recovering from its write-ahead log constructs (the WAL
    /// records which incarnations existed; the new life runs one past
    /// the persisted maximum, fencing every frame its predecessor left
    /// in flight).
    ///
    /// # Panics
    ///
    /// Panics if `rto` is zero.
    #[must_use]
    pub fn with_incarnation(rto: u64, inc: u32) -> Self {
        assert!(rto > 0, "retransmission timeout must be positive");
        ReliableLink {
            rto,
            inc,
            peer_inc: HashMap::new(),
            tx: HashMap::new(),
            rx: HashMap::new(),
            deadline: None,
            stats: SessionStats::default(),
        }
    }

    /// This endpoint's incarnation.
    #[must_use]
    pub fn incarnation(&self) -> u32 {
        self.inc
    }

    /// The [`SessionMsg::Hello`] announcing this endpoint's incarnation.
    /// A restarted node broadcasts it to every peer; lost copies are
    /// compensated by the stale-`dst_inc` reply path.
    #[must_use]
    pub fn hello(&self) -> SessionMsg<M> {
        SessionMsg::Hello { inc: self.inc }
    }

    /// Wraps `payload` for transmission to `dst`, assigning the link's
    /// next sequence number and arming the retransmission timer.
    pub fn send(&mut self, now: u64, dst: NodeId, payload: M) -> SessionMsg<M> {
        let dst_inc = self.known_inc(dst.index() as u32);
        let peer = self.tx.entry(dst.index() as u32).or_default();
        let seq = peer.next_seq;
        peer.next_seq += 1;
        peer.unacked.insert(seq, (now, payload.clone()));
        let due = now + self.rto;
        self.deadline = Some(self.deadline.map_or(due, |d| d.min(due)));
        self.stats.data_sent += 1;
        SessionMsg::Data {
            seq,
            retx: false,
            src_inc: self.inc,
            dst_inc,
            payload,
        }
    }

    /// The incarnation this endpoint believes `peer` runs as (0 until a
    /// stamped frame or Hello says otherwise — first lives are 0, so the
    /// default is right for peers that never crashed).
    fn known_inc(&self, peer: u32) -> u32 {
        self.peer_inc.get(&peer).copied().unwrap_or(0)
    }

    /// Absorbs an incarnation claim from `peer`. A *newer* incarnation
    /// means the peer crashed and restarted: its rx state is gone, so
    /// every unacked frame we hold is resequenced from 0 (in order) and
    /// returned for immediate retransmission — the recovered peer is
    /// fast-forwarded by the retransmission window instead of waiting to
    /// be re-educated through SUSPECT/failover. Our rx state for the
    /// peer resets too (its old sequence space is dead). Returns `None`
    /// if the claim was stale or already known.
    fn adopt_inc(&mut self, now: u64, peer: u32, claimed: u32) -> Option<Vec<SessionMsg<M>>> {
        match self.peer_inc.get(&peer) {
            Some(&known) if claimed <= known => return None,
            // First contact: adopt the claim without touching state —
            // there is no stale sequence space to fence.
            None => {
                self.peer_inc.insert(peer, claimed);
                return None;
            }
            Some(_) => {}
        }
        self.peer_inc.insert(peer, claimed);
        self.rx.remove(&peer);
        let mut rebased = Vec::new();
        if let Some(tx) = self.tx.get_mut(&peer) {
            let old = std::mem::take(&mut tx.unacked);
            tx.next_seq = old.len() as u64;
            for (new_seq, (_, (_, payload))) in old.into_iter().enumerate() {
                rebased.push(SessionMsg::Data {
                    seq: new_seq as u64,
                    retx: true,
                    src_inc: self.inc,
                    dst_inc: claimed,
                    payload: payload.clone(),
                });
                tx.unacked.insert(new_seq as u64, (now, payload));
            }
        }
        self.stats.retransmits += rebased.len() as u64;
        self.recompute_deadline();
        Some(rebased)
    }

    /// Processes an incoming frame from `from`.
    ///
    /// Returns `(replies, delivered)`: session frames to send back to
    /// `from` (acks), and payloads released to the protocol — strictly in
    /// per-link sequence order, each exactly once.
    pub fn on_receive(
        &mut self,
        now: u64,
        from: NodeId,
        msg: SessionMsg<M>,
    ) -> (Vec<SessionMsg<M>>, Vec<M>) {
        let f = from.index() as u32;
        // Incarnation fencing happens before any sequence-space state is
        // touched: a frame from a dead life must not perturb the live
        // link, and a frame *to* a dead life of ours proves the sender
        // has not heard about our restart yet.
        let (src_inc, dst_inc) = match &msg {
            SessionMsg::Data {
                src_inc, dst_inc, ..
            }
            | SessionMsg::Ack {
                src_inc, dst_inc, ..
            } => (*src_inc, *dst_inc),
            SessionMsg::Raw(_) => {
                let SessionMsg::Raw(payload) = msg else {
                    unreachable!()
                };
                // Datagrams carry no session state: release immediately.
                return (Vec::new(), vec![payload]);
            }
            SessionMsg::Hello { inc } => {
                // A newer incarnation rebases the link toward the
                // announcer; anything else is a duplicate announcement.
                let rebased = self.adopt_inc(now, f, *inc).unwrap_or_default();
                return (rebased, Vec::new());
            }
        };
        let mut replies = Vec::new();
        if src_inc < self.known_inc(f) {
            // A dead life's leftover: drop silently (its ack would only
            // confuse the old sequence space).
            return (replies, Vec::new());
        }
        if let Some(rebased) = self.adopt_inc(now, f, src_inc) {
            // The peer restarted: the frame itself is from the new life
            // and processes below, against the freshly reset state.
            replies.extend(rebased);
        }
        if dst_inc != self.inc {
            // Addressed to a dead life of ours — its sequence numbers
            // mean nothing here. Tell the sender who we are now; their
            // retransmission loop re-drives the payload with fresh
            // stamps.
            replies.push(SessionMsg::Hello { inc: self.inc });
            return (replies, Vec::new());
        }
        match msg {
            SessionMsg::Data { seq, payload, .. } => {
                let peer = self.rx.entry(f).or_default();
                let mut delivered = Vec::new();
                if seq < peer.next_expected || peer.buffer.contains_key(&seq) {
                    // Already delivered or already buffered: suppress, but
                    // re-ack — the original ack may have been lost.
                    self.stats.duplicates_suppressed += 1;
                } else {
                    peer.buffer.insert(seq, payload);
                    while let Some(p) = peer.buffer.remove(&peer.next_expected) {
                        delivered.push(p);
                        peer.next_expected += 1;
                    }
                }
                let cum = peer.next_expected;
                self.stats.acks_sent += 1;
                replies.push(SessionMsg::Ack {
                    cum,
                    src_inc: self.inc,
                    dst_inc: src_inc,
                });
                (replies, delivered)
            }
            SessionMsg::Ack { cum, .. } => {
                if let Some(peer) = self.tx.get_mut(&f) {
                    peer.unacked = peer.unacked.split_off(&cum);
                }
                self.recompute_deadline();
                (replies, Vec::new())
            }
            SessionMsg::Raw(_) | SessionMsg::Hello { .. } => unreachable!("handled above"),
        }
    }

    /// Fires the retransmission timer: if it is due, every payload that
    /// has gone unacknowledged for a full RTO (to any peer) is
    /// retransmitted and the timer re-arms for the next oldest payload.
    pub fn on_timer(&mut self, now: u64) -> Vec<(NodeId, SessionMsg<M>)> {
        if self.deadline.is_none_or(|d| d > now) {
            return Vec::new();
        }
        let rto = self.rto;
        let mut out = Vec::new();
        let mut peers: Vec<u32> = self.tx.keys().copied().collect();
        peers.sort_unstable(); // deterministic iteration order
        for p in peers {
            let dst_inc = self.known_inc(p);
            let peer = self.tx.get_mut(&p).expect("key from iteration");
            for (&seq, entry) in peer.unacked.iter_mut() {
                if entry.0 + rto <= now {
                    entry.0 = now;
                    out.push((
                        NodeId::new(p),
                        SessionMsg::Data {
                            seq,
                            retx: true,
                            src_inc: self.inc,
                            dst_inc,
                            payload: entry.1.clone(),
                        },
                    ));
                }
            }
        }
        self.stats.retransmits += out.len() as u64;
        self.recompute_deadline();
        out
    }

    /// Immediately retransmits everything unacknowledged to `dst`,
    /// regardless of how recently it was sent, and re-arms the timer as
    /// if each frame were freshly transmitted.
    ///
    /// This is the reconnection hook: when a transport re-establishes a
    /// dropped connection it cannot know which in-flight frames died in
    /// the old socket's buffers, so it replays the whole unacked window
    /// and lets the receiver's duplicate suppression sort it out.
    pub fn retransmit_to(&mut self, now: u64, dst: NodeId) -> Vec<SessionMsg<M>> {
        let dst_inc = self.known_inc(dst.index() as u32);
        let src_inc = self.inc;
        let Some(peer) = self.tx.get_mut(&(dst.index() as u32)) else {
            return Vec::new();
        };
        let mut out = Vec::with_capacity(peer.unacked.len());
        for (&seq, entry) in peer.unacked.iter_mut() {
            entry.0 = now;
            out.push(SessionMsg::Data {
                seq,
                retx: true,
                src_inc,
                dst_inc,
                payload: entry.1.clone(),
            });
        }
        self.stats.retransmits += out.len() as u64;
        self.recompute_deadline();
        out
    }

    /// When the retransmission timer should next fire, if armed.
    #[must_use]
    pub fn next_timer(&self) -> Option<u64> {
        self.deadline
    }

    /// Total payloads awaiting acknowledgement, across peers.
    #[must_use]
    pub fn unacked(&self) -> usize {
        self.tx.values().map(|p| p.unacked.len()).sum()
    }

    /// The endpoint's counters.
    #[must_use]
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Earliest `last_sent + rto` over every unacknowledged payload.
    fn recompute_deadline(&mut self) {
        let rto = self.rto;
        self.deadline = self
            .tx
            .values()
            .flat_map(|p| p.unacked.values().map(|(sent, _)| sent + rto))
            .min();
    }
}

/// A [`Driver`] combinator inserting a [`ReliableLink`] *under* any
/// driver: the wrapped protocol runs unchanged, believing the network is
/// reliable and FIFO, while the session layer earns that belief over a
/// faulty one. Any executor runs it: the simulator (it is a
/// [`SimDriver`] when `D` is), the threaded engine, the inline poller.
#[derive(Clone, Debug)]
pub struct Session<D: Driver> {
    inner: D,
    link: ReliableLink<D::Msg>,
    /// The wrapped driver's effects, framed into the caller's.
    fx: EffectsOf<D>,
}

impl<D: Driver> Session<D> {
    /// Wraps `inner` with a session endpoint using retransmission timeout
    /// `rto`.
    ///
    /// # Panics
    ///
    /// Panics if `rto` is zero.
    #[must_use]
    pub fn new(inner: D, rto: u64) -> Self {
        Self::with_incarnation(inner, rto, 0)
    }

    /// Wraps `inner` with a session endpoint running as incarnation
    /// `inc` — what a durable recovery constructs, so the new life's
    /// frames fence its predecessor's.
    ///
    /// # Panics
    ///
    /// Panics if `rto` is zero.
    #[must_use]
    pub fn with_incarnation(inner: D, rto: u64, inc: u32) -> Self {
        Session {
            inner,
            link: ReliableLink::with_incarnation(rto, inc),
            fx: EffectsOf::<D>::default(),
        }
    }

    /// The wrapped driver (inspection).
    #[must_use]
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// The session endpoint (inspection: its incarnation, its
    /// [`hello`](ReliableLink::hello), its counters).
    #[must_use]
    pub fn link(&self) -> &ReliableLink<D::Msg> {
        &self.link
    }

    /// Moves the wrapped driver's effects into `fx`, framing each send:
    /// heartbeats go as unsequenced datagrams (see [`SessionMsg::Raw`]),
    /// everything else through the reliable link.
    fn forward(&mut self, now: u64, fx: &mut EffectsOf<Self>) {
        for (dst, m) in self.fx.sends.drain(..) {
            let framed = if m.kind() == kinds::HEARTBEAT {
                SessionMsg::Raw(m)
            } else {
                self.link.send(now, dst, m)
            };
            fx.sends.push((dst, framed));
        }
        if let Some(done) = self.fx.done.take() {
            fx.done = Some(done);
        }
    }
}

impl<D: Driver> Driver for Session<D> {
    type Value = D::Value;
    type Msg = SessionMsg<D::Msg>;
    type Config = D::Config;
    const NAME: &'static str = D::NAME;

    fn submit(&mut self, now: u64, op: Op<D::Value>, fx: &mut EffectsOf<Self>) {
        self.inner.submit(now, op, &mut self.fx);
        self.forward(now, fx);
    }

    /// Replies (acks, `Hello`s, rebased retransmissions) go back to `from`
    /// first; then each payload the link releases — in sequence, or a
    /// datagram as it came — is delivered to the wrapped driver.
    fn deliver(&mut self, now: u64, from: NodeId, msg: Self::Msg, fx: &mut EffectsOf<Self>) {
        let (replies, released) = self.link.on_receive(now, from, msg);
        fx.sends.extend(replies.into_iter().map(|m| (from, m)));
        for payload in released {
            self.inner.deliver(now, from, payload, &mut self.fx);
        }
        self.forward(now, fx);
    }

    /// The retransmission timer needs time even when the wrapped driver
    /// does not.
    fn timed(&self) -> bool {
        true
    }

    /// The earlier of the link's retransmission deadline and whatever the
    /// wrapped driver wants (heartbeats and suspicion under failover).
    fn next_timer(&self) -> Option<u64> {
        match (self.link.next_timer(), self.inner.next_timer()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn on_timer(&mut self, now: u64, fx: &mut EffectsOf<Self>) {
        fx.sends.extend(self.link.on_timer(now));
        if self.inner.next_timer().is_some_and(|want| want <= now) {
            // The driver's timer-driven traffic rides the session layer
            // like any other payload (heartbeats as datagrams).
            self.inner.on_timer(now, &mut self.fx);
            self.forward(now, fx);
        }
    }

    fn transport_down(&mut self) -> bool {
        self.inner.transport_down()
    }

    fn needs_delivery(msg: &Self::Msg) -> bool {
        match msg {
            SessionMsg::Data { payload, .. } | SessionMsg::Raw(payload) => {
                D::needs_delivery(payload)
            }
            SessionMsg::Ack { .. } | SessionMsg::Hello { .. } => false,
        }
    }

    // No `write_local` fast path: its side traffic would need a time to
    // arm retransmission with, so owner-local writes take `submit`.
    fn read_hit(&self, loc: Location) -> Option<(Arc<D::Value>, WriteId)> {
        self.inner.read_hit(loc)
    }
}

impl<D: SimDriver> SimDriver for Session<D> {
    fn authority(&self, loc: Location) -> NodeId {
        self.inner.authority(loc)
    }

    fn peek(&self, loc: Location) -> Option<D::Value> {
        self.inner.peek(loc)
    }
}

#[cfg(test)]
mod tests {
    use bytes::BytesMut;
    use simnet::codec::CodecError;

    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    struct P(u32);
    impl Tagged for P {
        fn kind(&self) -> &'static str {
            "P"
        }
        fn wire_size(&self) -> Option<usize> {
            Some(4)
        }
    }

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn in_order_delivery_with_cumulative_acks() {
        let mut tx: ReliableLink<P> = ReliableLink::new(10);
        let mut rx: ReliableLink<P> = ReliableLink::new(10);
        let m0 = tx.send(0, n(1), P(0));
        let m1 = tx.send(0, n(1), P(1));
        let (acks, got) = rx.on_receive(1, n(0), m0);
        assert_eq!(got, vec![P(0)]);
        assert_eq!(
            acks,
            vec![SessionMsg::Ack {
                cum: 1,
                src_inc: 0,
                dst_inc: 0,
            }]
        );
        let (acks, got) = rx.on_receive(2, n(0), m1);
        assert_eq!(got, vec![P(1)]);
        assert_eq!(
            acks,
            vec![SessionMsg::Ack {
                cum: 2,
                src_inc: 0,
                dst_inc: 0,
            }]
        );
        // Acks drain the sender's unacked set and disarm the timer.
        assert_eq!(tx.unacked(), 2);
        tx.on_receive(
            3,
            n(1),
            SessionMsg::Ack {
                cum: 2,
                src_inc: 0,
                dst_inc: 0,
            },
        );
        assert_eq!(tx.unacked(), 0);
        assert_eq!(tx.next_timer(), None);
    }

    #[test]
    fn reordering_is_repaired_by_the_buffer() {
        let mut tx: ReliableLink<P> = ReliableLink::new(10);
        let mut rx: ReliableLink<P> = ReliableLink::new(10);
        let m0 = tx.send(0, n(1), P(0));
        let m1 = tx.send(0, n(1), P(1));
        let m2 = tx.send(0, n(1), P(2));
        // Arrivals: 2, 0, 1 — released: [], [0], [1, 2].
        let (acks, got) = rx.on_receive(1, n(0), m2);
        assert!(got.is_empty());
        assert_eq!(
            acks,
            vec![SessionMsg::Ack {
                cum: 0,
                src_inc: 0,
                dst_inc: 0,
            }]
        );
        let (_, got) = rx.on_receive(2, n(0), m0);
        assert_eq!(got, vec![P(0)]);
        let (acks, got) = rx.on_receive(3, n(0), m1);
        assert_eq!(got, vec![P(1), P(2)]);
        assert_eq!(
            acks,
            vec![SessionMsg::Ack {
                cum: 3,
                src_inc: 0,
                dst_inc: 0,
            }]
        );
    }

    #[test]
    fn duplicates_are_suppressed_but_reacked() {
        let mut tx: ReliableLink<P> = ReliableLink::new(10);
        let mut rx: ReliableLink<P> = ReliableLink::new(10);
        let m0 = tx.send(0, n(1), P(0));
        let (_, got) = rx.on_receive(1, n(0), m0.clone());
        assert_eq!(got, vec![P(0)]);
        let (acks, got) = rx.on_receive(2, n(0), m0);
        assert!(got.is_empty());
        assert_eq!(
            acks,
            vec![SessionMsg::Ack {
                cum: 1,
                src_inc: 0,
                dst_inc: 0,
            }]
        );
        assert_eq!(rx.stats().duplicates_suppressed, 1);
    }

    #[test]
    fn timer_retransmits_all_unacked_until_acked() {
        let mut tx: ReliableLink<P> = ReliableLink::new(5);
        let _ = tx.send(0, n(1), P(0));
        let _ = tx.send(0, n(2), P(1));
        assert_eq!(tx.next_timer(), Some(5));
        assert!(tx.on_timer(4).is_empty()); // not due yet
        let retx = tx.on_timer(5);
        assert_eq!(retx.len(), 2);
        assert!(retx
            .iter()
            .all(|(_, m)| matches!(m, SessionMsg::Data { retx: true, .. })));
        assert_eq!(retx[0].0, n(1)); // deterministic peer order
        assert_eq!(tx.next_timer(), Some(10)); // re-armed
        assert_eq!(tx.stats().retransmits, 2);
        // Partial ack: only peer 1's payload clears.
        tx.on_receive(
            11,
            n(1),
            SessionMsg::Ack {
                cum: 1,
                src_inc: 0,
                dst_inc: 0,
            },
        );
        assert_eq!(tx.unacked(), 1);
        assert!(tx.next_timer().is_some());
    }

    #[test]
    fn retransmit_to_replays_the_whole_unacked_window() {
        let mut tx: ReliableLink<P> = ReliableLink::new(10);
        let _ = tx.send(0, n(1), P(0));
        let _ = tx.send(1, n(1), P(1));
        let _ = tx.send(2, n(2), P(9));
        // A reconnect to peer 1 replays its frames even though no RTO
        // has elapsed, in sequence order, flagged as retransmissions.
        let replay = tx.retransmit_to(3, n(1));
        assert_eq!(replay.len(), 2);
        assert!(matches!(
            replay[0],
            SessionMsg::Data {
                seq: 0,
                retx: true,
                ..
            }
        ));
        assert!(matches!(replay[1], SessionMsg::Data { seq: 1, .. }));
        assert_eq!(tx.stats().retransmits, 2);
        // Peer 2 is untouched; the timer re-arms from the replay time.
        assert_eq!(tx.unacked(), 3);
        assert_eq!(tx.next_timer(), Some(12)); // peer 2's 2 + rto 10
                                               // A peer with nothing unacked replays nothing.
        assert!(tx.retransmit_to(4, n(3)).is_empty());
        // Delivery after replay still happens exactly once downstream.
        let mut rx: ReliableLink<P> = ReliableLink::new(10);
        let mut got = Vec::new();
        for m in replay {
            got.extend(rx.on_receive(5, n(0), m).1);
        }
        assert_eq!(got, vec![P(0), P(1)]);
    }

    #[test]
    fn restart_rebases_the_window_and_fences_the_old_life() {
        let mut a: ReliableLink<P> = ReliableLink::new(10);
        let mut b: ReliableLink<P> = ReliableLink::new(10);
        // A sends two frames; B delivers and acks the first, then
        // crashes before seeing the second.
        let m0 = a.send(0, n(1), P(0));
        let m1 = a.send(0, n(1), P(1));
        let (acks, got) = b.on_receive(1, n(0), m0);
        assert_eq!(got, vec![P(0)]);
        a.on_receive(1, n(1), acks[0].clone());
        assert_eq!(a.unacked(), 1);
        // B restarts as incarnation 1 (recovered from its WAL).
        let mut b2: ReliableLink<P> = ReliableLink::with_incarnation(10, 1);
        assert_eq!(b2.incarnation(), 1);
        // Its Hello makes A rebase: the surviving unacked frame is
        // resequenced from 0 and returned for immediate retransmission —
        // the recovered node is fast-forwarded by the window.
        let (rebased, got) = a.on_receive(2, n(1), b2.hello());
        assert!(got.is_empty());
        assert_eq!(rebased.len(), 1);
        assert!(matches!(
            rebased[0],
            SessionMsg::Data {
                seq: 0,
                retx: true,
                src_inc: 0,
                dst_inc: 1,
                ..
            }
        ));
        let (_, got) = b2.on_receive(3, n(0), rebased[0].clone());
        assert_eq!(got, vec![P(1)]);
        // The old life's in-flight frame reaches the new life: dropped,
        // answered with a Hello instead of corrupting the fresh space.
        let (replies, got) = b2.on_receive(4, n(0), m1);
        assert!(got.is_empty());
        assert_eq!(replies, vec![SessionMsg::Hello { inc: 1 }]);
        // And a dead life's ack reaching A is dropped silently.
        let before = a.unacked();
        let (replies, got) = a.on_receive(
            5,
            n(1),
            SessionMsg::Ack {
                cum: 99,
                src_inc: 0,
                dst_inc: 0,
            },
        );
        assert!(replies.is_empty() && got.is_empty());
        assert_eq!(a.unacked(), before);
    }

    #[test]
    fn session_kinds_separate_fresh_retx_and_acks() {
        let fresh = SessionMsg::Data {
            seq: 0,
            retx: false,
            src_inc: 0,
            dst_inc: 0,
            payload: P(1),
        };
        let again = SessionMsg::Data {
            seq: 0,
            retx: true,
            src_inc: 0,
            dst_inc: 0,
            payload: P(1),
        };
        let ack: SessionMsg<P> = SessionMsg::Ack {
            cum: 1,
            src_inc: 0,
            dst_inc: 0,
        };
        let hello: SessionMsg<P> = SessionMsg::Hello { inc: 2 };
        assert_eq!(fresh.kind(), "P");
        assert_eq!(again.kind(), kinds::RETX);
        assert_eq!(ack.kind(), kinds::ACK);
        assert_eq!(hello.kind(), kinds::HELLO);
        // Incarnation stamps cost 8 bytes per sequenced frame; data pays
        // its whole 18-byte header, tag included.
        assert_eq!(fresh.wire_size(), Some(22));
        assert_eq!(ack.wire_size(), Some(17));
        assert_eq!(hello.wire_size(), Some(5));
    }

    #[test]
    fn session_msgs_round_trip_on_the_wire() {
        fn round_trip(msg: SessionMsg<u64>) {
            let mut buf = BytesMut::new();
            msg.encode(&mut buf);
            assert_eq!(buf.len(), msg.encoded_len());
            let mut cursor = &buf[..];
            assert_eq!(SessionMsg::<u64>::decode(&mut cursor).unwrap(), msg);
            assert!(cursor.is_empty());
        }
        round_trip(SessionMsg::Data {
            seq: 42,
            retx: true,
            src_inc: 3,
            dst_inc: 1,
            payload: 7,
        });
        round_trip(SessionMsg::Ack {
            cum: 9,
            src_inc: 2,
            dst_inc: 0,
        });
        round_trip(SessionMsg::Raw(3));
        round_trip(SessionMsg::Hello { inc: 5 });
        // The one hand-kept copy of the data header agrees with the table.
        let empty = SessionMsg::Data {
            seq: 0,
            retx: false,
            src_inc: 0,
            dst_inc: 0,
            payload: Vec::<u8>::new(),
        };
        let header = empty.encoded_len() - Vec::<u8>::new().encoded_len();
        assert_eq!(header, SessionMsg::<Vec<u8>>::DATA_HEADER_LEN);
        assert_eq!(
            SessionMsg::<u64>::decode(&mut &[9u8][..]),
            Err(CodecError::BadDiscriminant(9))
        );
    }
}
