//! Causal-broadcast replica memory as a pure state machine.
//!
//! Every node holds a full replica; a write applies locally and is
//! broadcast; receivers delay delivery until all causally prior updates
//! have been delivered (Birman–Schiper–Stephenson vector-clock delivery,
//! after the ISIS causal broadcast the paper cites). Reads are local.

use memcore::{Location, NodeId, Value, WriteId};
use simnet::Tagged;
use vclock::VectorClock;

/// The single protocol message: a replicated update.
#[derive(Clone, Debug, PartialEq)]
pub enum BMsg<V> {
    /// Apply `value` to `loc`, ordered by the attached broadcast clock.
    Update {
        /// The written location.
        loc: Location,
        /// The written value.
        value: V,
        /// The write's unique tag.
        wid: WriteId,
        /// The sender's broadcast clock (its own component counts this
        /// message).
        vt: VectorClock,
    },
}

impl<V: Value> Tagged for BMsg<V> {
    fn kind(&self) -> &'static str {
        "UPDATE"
    }

    fn wire_size(&self) -> Option<usize> {
        let BMsg::Update { vt, .. } = self;
        Some(1 + 4 + std::mem::size_of::<V>() + 12 + 4 + 8 * vt.len())
    }
}

#[derive(Clone, Debug)]
struct Held<V> {
    from: NodeId,
    loc: Location,
    value: V,
    wid: WriteId,
    vt: VectorClock,
}

/// One node's replica plus the causal delivery machinery.
///
/// # Examples
///
/// ```
/// use broadcast_mem::BroadcastState;
/// use memcore::{Location, NodeId, Word};
///
/// let mut p0 = BroadcastState::<Word>::new(NodeId::new(0), 2, 2);
/// let mut p1 = BroadcastState::<Word>::new(NodeId::new(1), 2, 2);
/// let (_, outgoing) = p0.write(Location::new(0), Word::Int(1));
/// for (dst, msg) in outgoing {
///     assert_eq!(dst, NodeId::new(1));
///     p1.on_message(NodeId::new(0), msg);
/// }
/// assert_eq!(p1.read(Location::new(0)).0, Word::Int(1));
/// ```
#[derive(Debug)]
pub struct BroadcastState<V> {
    id: NodeId,
    n: usize,
    /// Count of delivered broadcasts per sender (own writes included).
    delivered: VectorClock,
    replica: Vec<(V, WriteId)>,
    holdback: Vec<Held<V>>,
    write_seq: u64,
}

impl<V: Value + Default> BroadcastState<V> {
    /// Creates node `id`'s replica of `locations` locations, all holding
    /// `V::default()`.
    ///
    /// # Panics
    ///
    /// Panics if `n` or `locations` is zero.
    #[must_use]
    pub fn new(id: NodeId, n: usize, locations: u32) -> Self {
        assert!(n > 0, "at least one node required");
        assert!(locations > 0, "at least one location required");
        BroadcastState {
            id,
            n,
            delivered: VectorClock::new(n),
            replica: (0..locations)
                .map(|i| (V::default(), WriteId::initial(Location::new(i))))
                .collect(),
            holdback: Vec::new(),
            write_seq: 0,
        }
    }
}

impl<V: Value> BroadcastState<V> {
    /// This node's identifier.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The per-sender delivered counts.
    #[must_use]
    pub fn delivered(&self) -> &VectorClock {
        &self.delivered
    }

    /// Number of updates parked awaiting causally prior deliveries.
    #[must_use]
    pub fn holdback_len(&self) -> usize {
        self.holdback.len()
    }

    /// Reads `loc` from the local replica.
    ///
    /// # Panics
    ///
    /// Panics if `loc` is out of range.
    #[must_use]
    pub fn read(&self, loc: Location) -> (V, WriteId) {
        let (v, wid) = &self.replica[loc.index()];
        (v.clone(), *wid)
    }

    /// Writes locally and returns the broadcast to every other node.
    ///
    /// # Panics
    ///
    /// Panics if `loc` is out of range.
    pub fn write(&mut self, loc: Location, value: V) -> (WriteId, Vec<(NodeId, BMsg<V>)>) {
        let wid = WriteId::new(self.id, self.write_seq);
        self.write_seq += 1;
        self.delivered.increment(self.id.index());
        self.replica[loc.index()] = (value.clone(), wid);
        let vt = self.delivered.clone();
        let outgoing = (0..self.n)
            .map(|i| NodeId::new(i as u32))
            .filter(|&dst| dst != self.id)
            .map(|dst| {
                (
                    dst,
                    BMsg::Update {
                        loc,
                        value: value.clone(),
                        wid,
                        vt: vt.clone(),
                    },
                )
            })
            .collect();
        (wid, outgoing)
    }

    /// Receives a broadcast; delivers it (and anything it unblocks) as
    /// soon as causal order permits. Returns the number of updates applied.
    pub fn on_message(&mut self, from: NodeId, msg: BMsg<V>) -> usize {
        let BMsg::Update {
            loc,
            value,
            wid,
            vt,
        } = msg;
        self.holdback.push(Held {
            from,
            loc,
            value,
            wid,
            vt,
        });
        self.deliver_ready()
    }

    /// BSS delivery condition: from `j` with clock `vt`, deliverable iff
    /// `vt[j] == delivered[j] + 1` and `vt[k] <= delivered[k]` for `k ≠ j`.
    fn deliverable(&self, held: &Held<V>) -> bool {
        let j = held.from.index();
        held.vt.iter().enumerate().all(|(k, &c)| {
            if k == j {
                c == self.delivered.get(k) + 1
            } else {
                c <= self.delivered.get(k)
            }
        })
    }

    fn deliver_ready(&mut self) -> usize {
        let mut applied = 0;
        loop {
            let Some(pos) = self.holdback.iter().position(|h| self.deliverable(h)) else {
                return applied;
            };
            let held = self.holdback.swap_remove(pos);
            self.delivered.increment(held.from.index());
            self.replica[held.loc.index()] = (held.value, held.wid);
            applied += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memcore::Word;

    fn p(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn loc(i: u32) -> Location {
        Location::new(i)
    }

    fn update_for(outgoing: &[(NodeId, BMsg<Word>)], dst: NodeId) -> BMsg<Word> {
        outgoing
            .iter()
            .find(|(d, _)| *d == dst)
            .map(|(_, m)| m.clone())
            .expect("message for destination")
    }

    #[test]
    fn writes_apply_locally_and_broadcast() {
        let mut p0 = BroadcastState::<Word>::new(p(0), 3, 2);
        let (_, outgoing) = p0.write(loc(0), Word::Int(4));
        assert_eq!(outgoing.len(), 2);
        assert_eq!(p0.read(loc(0)).0, Word::Int(4));
        assert_eq!(p0.delivered().get(0), 1);
    }

    #[test]
    fn in_order_updates_deliver_immediately() {
        let mut p0 = BroadcastState::<Word>::new(p(0), 2, 2);
        let mut p1 = BroadcastState::<Word>::new(p(1), 2, 2);
        let (_, out) = p0.write(loc(0), Word::Int(1));
        assert_eq!(p1.on_message(p(0), update_for(&out, p(1))), 1);
        assert_eq!(p1.read(loc(0)).0, Word::Int(1));
        assert_eq!(p1.holdback_len(), 0);
    }

    #[test]
    fn out_of_causal_order_updates_are_held_back() {
        // P0 writes x then y; P1 receives y's update first: it must wait.
        let mut p0 = BroadcastState::<Word>::new(p(0), 2, 2);
        let mut p1 = BroadcastState::<Word>::new(p(1), 2, 2);
        let (_, out_x) = p0.write(loc(0), Word::Int(1));
        let (_, out_y) = p0.write(loc(1), Word::Int(2));
        assert_eq!(p1.on_message(p(0), update_for(&out_y, p(1))), 0);
        assert_eq!(p1.holdback_len(), 1);
        assert_eq!(p1.read(loc(1)).0, Word::Zero); // not yet visible
                                                   // x's update arrives: both deliver, in causal order.
        assert_eq!(p1.on_message(p(0), update_for(&out_x, p(1))), 2);
        assert_eq!(p1.read(loc(0)).0, Word::Int(1));
        assert_eq!(p1.read(loc(1)).0, Word::Int(2));
    }

    #[test]
    fn cross_process_causality_is_respected() {
        // P0 writes x; P1 sees it, then writes y; P2 receives y's update
        // before x's — y must wait for x.
        let mut p0 = BroadcastState::<Word>::new(p(0), 3, 2);
        let mut p1 = BroadcastState::<Word>::new(p(1), 3, 2);
        let mut p2 = BroadcastState::<Word>::new(p(2), 3, 2);
        let (_, out_x) = p0.write(loc(0), Word::Int(1));
        p1.on_message(p(0), update_for(&out_x, p(1)));
        let (_, out_y) = p1.write(loc(1), Word::Int(2));
        // P2 gets y first: held.
        assert_eq!(p2.on_message(p(1), update_for(&out_y, p(2))), 0);
        assert_eq!(p2.read(loc(1)).0, Word::Zero);
        // Then x: both deliver.
        assert_eq!(p2.on_message(p(0), update_for(&out_x, p(2))), 2);
        assert_eq!(p2.read(loc(1)).0, Word::Int(2));
    }

    #[test]
    fn concurrent_writes_may_deliver_in_either_order() {
        // P0 and P1 write x concurrently; P2 applies them in arrival
        // order — last arrival wins, and different replicas may disagree.
        let mut p0 = BroadcastState::<Word>::new(p(0), 3, 1);
        let mut p1 = BroadcastState::<Word>::new(p(1), 3, 1);
        let mut p2 = BroadcastState::<Word>::new(p(2), 3, 1);
        let (_, out_a) = p0.write(loc(0), Word::Int(1));
        let (_, out_b) = p1.write(loc(0), Word::Int(2));
        // P2: a then b → ends at 2.
        p2.on_message(p(0), update_for(&out_a, p(2)));
        p2.on_message(p(1), update_for(&out_b, p(2)));
        assert_eq!(p2.read(loc(0)).0, Word::Int(2));
        // P0 gets b → ends at 2; P1 gets a → ends at 1: replicas disagree,
        // which causal memory permits for concurrent writes.
        p0.on_message(p(1), update_for(&out_b, p(0)));
        p1.on_message(p(0), update_for(&out_a, p(1)));
        assert_eq!(p0.read(loc(0)).0, Word::Int(2));
        assert_eq!(p1.read(loc(0)).0, Word::Int(1));
    }

    #[test]
    fn message_kinds_and_sizes() {
        let msg: BMsg<Word> = BMsg::Update {
            loc: loc(0),
            value: Word::Int(1),
            wid: WriteId::new(p(0), 0),
            vt: VectorClock::new(4),
        };
        assert_eq!(msg.kind(), "UPDATE");
        assert!(msg.wire_size().unwrap() > 4 * 8, "the clock is counted");
    }
}
