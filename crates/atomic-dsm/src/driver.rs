//! The atomic baseline's node driver: [`AtomicState`] plus the matching of
//! replies to the node's one outstanding operation, as a sans-I/O
//! [`Driver`] — so the threaded engine and the deterministic simulator
//! that run the causal protocol run the comparator too, and what the
//! model checker certifies about atomic memory is what ships.

use std::sync::Arc;

use causal_dsm::{Done, Driver, Effects, Op, WriteDone};
use memcore::{Location, NodeId, Value, WriteId};

use crate::config::AtomicConfig;
use crate::msg::AMsg;
use crate::state::{AReadStep, AWriteStep, AtomicState};

/// The one operation the node is blocked on. Replies are matched by
/// *content* — the page of a fetch, the tag of a write — so one that
/// outlives an abandoned operation ([`Driver::transport_down`]) is
/// dropped, never misattributed.
#[derive(Clone, Debug)]
enum Pending<V> {
    Read {
        loc: Location,
    },
    /// Awaiting the owner's confirmation.
    RemoteWrite {
        loc: Location,
        value: Arc<V>,
        wid: WriteId,
    },
    /// An owner write awaiting invalidation acks (or queued behind a
    /// remote-initiated write that is).
    LocalWrite {
        loc: Location,
        value: Arc<V>,
        wid: WriteId,
    },
}

/// One node of the atomic DSM, minus I/O.
#[derive(Clone, Debug)]
pub struct AtomicDriver<V> {
    state: AtomicState<V>,
    pending: Option<Pending<V>>,
}

fn wrote<V>(loc: Location, value: Arc<V>, wid: WriteId) -> Option<Done<V>> {
    let done = WriteDone::Applied { wid };
    Some(Done::Wrote { loc, value, done })
}

impl<V: Value> AtomicDriver<V> {
    /// Wraps a node's protocol state.
    #[must_use]
    pub fn new(state: AtomicState<V>) -> Self {
        AtomicDriver {
            state,
            pending: None,
        }
    }

    /// The wrapped protocol state (inspection).
    #[must_use]
    pub fn state(&self) -> &AtomicState<V> {
        &self.state
    }
}

impl<V: Value> Driver for AtomicDriver<V> {
    type Value = V;
    type Msg = AMsg<V>;
    type Config = AtomicConfig<V>;
    const NAME: &'static str = "Atomic";

    /// Every write is the protocol's one blocking write (there is no
    /// pipeline to gate), and complete when it returns, so a flush has
    /// nothing to wait for.
    fn submit(&mut self, _now: u64, op: Op<V>, fx: &mut Effects<V, AMsg<V>>) {
        assert!(self.pending.is_none(), "one outstanding op per node");
        match op {
            Op::Read(loc) | Op::ReadFresh(loc) => {
                if matches!(op, Op::ReadFresh(_)) {
                    self.state.discard(loc);
                }
                match self.state.begin_read(loc) {
                    AReadStep::Hit { value, wid } => {
                        let value = Arc::new(value);
                        fx.done = Some(Done::Read { loc, value, wid });
                    }
                    AReadStep::Miss { owner, request } => {
                        self.pending = Some(Pending::Read { loc });
                        fx.sends.push((owner, request));
                    }
                }
            }
            Op::Write(loc, value) | Op::WritePipelined(loc, value) => {
                match self.state.begin_write(loc, (*value).clone()) {
                    AWriteStep::Done { wid, outgoing } => {
                        fx.sends.extend(outgoing);
                        fx.done = wrote(loc, value, wid);
                    }
                    AWriteStep::Blocked { wid, outgoing } => {
                        self.pending = Some(Pending::LocalWrite { loc, value, wid });
                        fx.sends.extend(outgoing);
                    }
                    AWriteStep::Remote {
                        wid,
                        owner,
                        request,
                    } => {
                        self.pending = Some(Pending::RemoteWrite { loc, value, wid });
                        fx.sends.push((owner, request));
                    }
                }
            }
            Op::Discard(loc) => {
                self.state.discard(loc);
                fx.done = Some(Done::Discarded);
            }
            Op::Flush => fx.done = Some(Done::Flushed),
        }
    }

    fn deliver(&mut self, _now: u64, from: NodeId, msg: AMsg<V>, fx: &mut Effects<V, AMsg<V>>) {
        let page_size = self.state.config().page_size();
        match (&msg, &self.pending) {
            (AMsg::ReadReply { page, .. }, &Some(Pending::Read { loc }))
                if *page == loc.page(page_size) =>
            {
                self.pending = None;
                let (value, wid) = self.state.finish_read(loc, msg);
                let value = Arc::new(value);
                fx.done = Some(Done::Read { loc, value, wid });
            }
            (
                AMsg::WriteReply { wid, .. },
                Some(Pending::RemoteWrite {
                    loc,
                    value,
                    wid: want,
                }),
            ) if wid == want => {
                fx.done = wrote(*loc, Arc::clone(value), *want);
                self.pending = None;
                self.state.finish_write(msg);
            }
            // A reply nothing waits for: its operation was abandoned.
            (AMsg::ReadReply { .. } | AMsg::WriteReply { .. }, _) => {}
            _ => {
                let transition = self.state.on_message(from, msg);
                fx.sends.extend(transition.outgoing);
                if let Some(done) = transition.local_write_done {
                    match self.pending.take() {
                        Some(Pending::LocalWrite { loc, value, wid }) if wid == done => {
                            fx.done = wrote(loc, value, wid);
                        }
                        other => self.pending = other,
                    }
                }
            }
        }
    }

    fn transport_down(&mut self) -> bool {
        self.pending.take().is_some()
    }

    /// Requests await their reply, and an invalidation may be one an
    /// acknowledged-mode write is blocked on.
    fn needs_delivery(msg: &AMsg<V>) -> bool {
        msg.is_request() || matches!(msg, AMsg::Inval { .. })
    }
}
