//! Protocol actors: uniform adapters over the pure state machines of the
//! three memory implementations, so one scheduler drives them all.

use memcore::{Location, NodeId, OpRecord, Value, WriteId};
use simnet::Tagged;

use crate::client::{ClientOp, Outcome};

/// A completed operation: the client-visible outcome plus the record the
/// specification checker consumes.
#[derive(Clone, Debug)]
pub struct Completion<V> {
    /// What the client sees.
    pub outcome: Outcome<V>,
    /// What the checker sees (absent for discards).
    pub record: Option<OpRecord<V>>,
}

/// The effects of submitting an operation or delivering a message.
#[derive(Debug)]
pub struct Effects<V, M> {
    /// Messages to send.
    pub outgoing: Vec<(NodeId, M)>,
    /// Present when the node's outstanding operation completed.
    pub completion: Option<Completion<V>>,
}

impl<V, M> Effects<V, M> {
    /// No messages, no completion — the effect of an absorbed event.
    #[must_use]
    pub fn empty() -> Self {
        Effects {
            outgoing: Vec::new(),
            completion: None,
        }
    }

    fn done(outcome: Outcome<V>, record: Option<OpRecord<V>>) -> Self {
        Effects {
            outgoing: Vec::new(),
            completion: Some(Completion { outcome, record }),
        }
    }

    fn sent(outgoing: Vec<(NodeId, M)>) -> Self {
        Effects {
            outgoing,
            completion: None,
        }
    }
}

/// One simulated node: a protocol state machine with at most one
/// outstanding application operation.
pub trait Actor<V: Value>: Send {
    /// The protocol's message type.
    type Msg: Tagged + Clone + Send + std::fmt::Debug;

    /// This node's identifier.
    fn id(&self) -> NodeId;

    /// Submits an application operation ([`ClientOp::WaitUntil`] is
    /// decomposed by the scheduler and never reaches actors).
    ///
    /// Returns either an immediate completion or the messages whose
    /// replies will complete it.
    fn submit(&mut self, op: &ClientOp<V>) -> Effects<V, Self::Msg>;

    /// Delivers a protocol message.
    fn deliver(&mut self, from: NodeId, msg: Self::Msg) -> Effects<V, Self::Msg>;

    /// The node whose copy of `loc` is authoritative for wait-signaling:
    /// the owner for owner protocols, this node for replicated memory.
    fn authority(&self, loc: Location) -> NodeId;

    /// This node's current value of `loc`, if it holds one (owned, cached
    /// or replicated). No protocol side effects.
    fn peek(&self, loc: Location) -> Option<V>;

    /// Time-aware [`submit`](Actor::submit): the scheduler calls this form
    /// so wrappers that keep clocks (the session layer in `dsm-faults`)
    /// can observe the current simulated time. Plain actors ignore it.
    fn submit_at(&mut self, now: u64, op: &ClientOp<V>) -> Effects<V, Self::Msg> {
        let _ = now;
        self.submit(op)
    }

    /// Time-aware [`deliver`](Actor::deliver); see
    /// [`submit_at`](Actor::submit_at).
    fn deliver_at(&mut self, now: u64, from: NodeId, msg: Self::Msg) -> Effects<V, Self::Msg> {
        let _ = now;
        self.deliver(from, msg)
    }

    /// The earliest time this actor needs a timer to fire (retransmission
    /// deadlines, …), or `None`. The scheduler re-reads this after every
    /// interaction with the actor and schedules accordingly; plain actors
    /// never need timers.
    fn next_timer(&self) -> Option<u64> {
        None
    }

    /// Fires the actor's timer at `now`. Called only when
    /// [`next_timer`](Actor::next_timer) returned a time `<= now`.
    fn on_timer(&mut self, now: u64) -> Effects<V, Self::Msg> {
        let _ = now;
        Effects::empty()
    }

    /// Called once when this node comes back up after a crash window
    /// (the fault model reported it down and the downtime elapsed),
    /// before any other event reaches it. Actors that persist state
    /// reload from disk here and may announce their new life (a session
    /// HELLO broadcast); plain actors — which model the paper's
    /// fail-stop world with no disk — restart empty and do nothing.
    fn on_restart(&mut self, now: u64) -> Effects<V, Self::Msg> {
        let _ = now;
        Effects::empty()
    }
}

// ---------------------------------------------------------------------
// Causal owner protocol
// ---------------------------------------------------------------------

/// [`Actor`] over the causal owner protocol: a [`ClientOp`]/[`Outcome`]
/// adapter around [`causal_dsm::NodeDriver`] — the same driver the
/// threaded engine and the inline TCP poller execute, so every schedule
/// explored or sampled here certifies the code that ships. Simulated time
/// is the driver's clock; its timers (heartbeats, attempt deadlines,
/// give-up budgets) surface through [`Actor::next_timer`].
#[derive(Clone, Debug)]
pub struct CausalActor<V> {
    driver: causal_dsm::NodeDriver<V>,
    fx: causal_dsm::Effects<V>,
}

impl<V: Value> CausalActor<V> {
    /// Wraps a node's protocol state.
    #[must_use]
    pub fn new(state: causal_dsm::CausalState<V>) -> Self {
        CausalActor {
            driver: causal_dsm::NodeDriver::new(state),
            fx: causal_dsm::Effects::default(),
        }
    }

    /// The wrapped protocol state (inspection).
    #[must_use]
    pub fn state(&self) -> &causal_dsm::CausalState<V> {
        self.driver.state()
    }

    /// Mutable access to the wrapped protocol state — what a durability
    /// wrapper needs to drain the state's journal after each event.
    #[must_use]
    pub fn state_mut(&mut self) -> &mut causal_dsm::CausalState<V> {
        self.driver.state_mut()
    }

    /// Hands the driver's effects to the scheduler. An operation the
    /// driver gave up on ([`causal_dsm::Done::Failed`]) never completes
    /// here: the node stays blocked and the run reports it stuck, which
    /// is how every harness already treats a wedged client.
    fn effects(&mut self) -> Effects<V, causal_dsm::Msg<V>> {
        use causal_dsm::Done;
        let completion = self.fx.done.take().and_then(|done| match done {
            Done::Read { loc, value, wid } => Some(Completion {
                outcome: Outcome::Read {
                    value: (*value).clone(),
                    wid,
                },
                record: Some(OpRecord::read(loc, (*value).clone(), wid)),
            }),
            Done::Wrote { loc, value, done } => Some(Completion {
                outcome: Outcome::Wrote {
                    wid: done.wid(),
                    applied: done.is_applied(),
                },
                record: Some(OpRecord::write(loc, (*value).clone(), done.wid())),
            }),
            Done::Discarded => Some(Completion {
                outcome: Outcome::Discarded,
                record: None,
            }),
            Done::Flushed => Some(Completion {
                outcome: Outcome::Flushed,
                record: None,
            }),
            Done::Failed(_) => None,
        });
        Effects {
            outgoing: std::mem::take(&mut self.fx.sends),
            completion,
        }
    }
}

impl<V: Value> Actor<V> for CausalActor<V> {
    type Msg = causal_dsm::Msg<V>;

    fn id(&self) -> NodeId {
        self.driver.state().id()
    }

    fn submit(&mut self, op: &ClientOp<V>) -> Effects<V, Self::Msg> {
        self.submit_at(0, op)
    }

    fn deliver(&mut self, from: NodeId, msg: Self::Msg) -> Effects<V, Self::Msg> {
        self.deliver_at(0, from, msg)
    }

    fn submit_at(&mut self, now: u64, op: &ClientOp<V>) -> Effects<V, Self::Msg> {
        use causal_dsm::Op;
        let shared = |v: &V| std::sync::Arc::new(v.clone());
        let op = match op {
            ClientOp::Read(loc) => Op::Read(*loc),
            ClientOp::ReadFresh(loc) => Op::ReadFresh(*loc),
            // With a pipeline window configured, plain writes flow
            // through it, so chaos plans exercise the layer.
            ClientOp::Write(loc, v) => Op::WritePipelined(*loc, shared(v)),
            ClientOp::WriteBlocking(loc, v) => Op::Write(*loc, shared(v)),
            ClientOp::WriteNonblocking(loc, v) => Op::WriteUngated(*loc, shared(v)),
            ClientOp::Discard(loc) => Op::Discard(*loc),
            ClientOp::Flush => Op::Flush,
            ClientOp::WaitUntil(..) => unreachable!("scheduler decomposes waits"),
        };
        self.driver.submit(now, op, &mut self.fx);
        self.effects()
    }

    fn deliver_at(&mut self, now: u64, from: NodeId, msg: Self::Msg) -> Effects<V, Self::Msg> {
        self.driver.deliver(now, from, msg, &mut self.fx);
        self.effects()
    }

    fn authority(&self, loc: Location) -> NodeId {
        // Dynamic under failover: waits signal off the copy held by the
        // node *currently* serving the page.
        let state = self.driver.state();
        state.current_owner(loc.page(state.config().page_size()))
    }

    fn peek(&self, loc: Location) -> Option<V> {
        self.driver.state().peek(loc).map(|(v, _)| v.clone())
    }

    fn next_timer(&self) -> Option<u64> {
        self.driver.next_timer()
    }

    fn on_timer(&mut self, now: u64) -> Effects<V, Self::Msg> {
        self.driver.on_timer(now, &mut self.fx);
        self.effects()
    }
}

// ---------------------------------------------------------------------
// Atomic baseline
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
enum AtomicPending<V> {
    Read {
        loc: Location,
    },
    RemoteWrite {
        loc: Location,
        value: V,
        wid: WriteId,
    },
    LocalWrite {
        loc: Location,
        value: V,
        wid: WriteId,
    },
}

/// [`Actor`] over the atomic baseline's
/// [`AtomicState`](atomic_dsm::AtomicState).
#[derive(Clone, Debug)]
pub struct AtomicActor<V> {
    state: atomic_dsm::AtomicState<V>,
    pending: Option<AtomicPending<V>>,
}

impl<V: Value> AtomicActor<V> {
    /// Wraps a node's protocol state.
    #[must_use]
    pub fn new(state: atomic_dsm::AtomicState<V>) -> Self {
        AtomicActor {
            state,
            pending: None,
        }
    }

    /// The wrapped protocol state (inspection).
    #[must_use]
    pub fn state(&self) -> &atomic_dsm::AtomicState<V> {
        &self.state
    }
}

impl<V: Value> Actor<V> for AtomicActor<V> {
    type Msg = atomic_dsm::AMsg<V>;

    fn id(&self) -> NodeId {
        self.state.id()
    }

    fn submit(&mut self, op: &ClientOp<V>) -> Effects<V, Self::Msg> {
        assert!(self.pending.is_none(), "one outstanding op per node");
        match op {
            ClientOp::Read(loc) | ClientOp::ReadFresh(loc) => {
                if matches!(op, ClientOp::ReadFresh(_)) {
                    self.state.discard(*loc);
                }
                match self.state.begin_read(*loc) {
                    atomic_dsm::AReadStep::Hit { value, wid } => Effects::done(
                        Outcome::Read {
                            value: value.clone(),
                            wid,
                        },
                        Some(OpRecord::read(*loc, value, wid)),
                    ),
                    atomic_dsm::AReadStep::Miss { owner, request } => {
                        self.pending = Some(AtomicPending::Read { loc: *loc });
                        Effects::sent(vec![(owner, request)])
                    }
                }
            }
            ClientOp::Write(loc, value)
            | ClientOp::WriteBlocking(loc, value)
            | ClientOp::WriteNonblocking(loc, value) => {
                match self.state.begin_write(*loc, value.clone()) {
                    atomic_dsm::AWriteStep::Done { wid, outgoing } => Effects {
                        outgoing,
                        completion: Some(Completion {
                            outcome: Outcome::Wrote { wid, applied: true },
                            record: Some(OpRecord::write(*loc, value.clone(), wid)),
                        }),
                    },
                    atomic_dsm::AWriteStep::Blocked { wid, outgoing } => {
                        self.pending = Some(AtomicPending::LocalWrite {
                            loc: *loc,
                            value: value.clone(),
                            wid,
                        });
                        Effects::sent(outgoing)
                    }
                    atomic_dsm::AWriteStep::Remote {
                        wid,
                        owner,
                        request,
                    } => {
                        self.pending = Some(AtomicPending::RemoteWrite {
                            loc: *loc,
                            value: value.clone(),
                            wid,
                        });
                        Effects::sent(vec![(owner, request)])
                    }
                }
            }
            ClientOp::Discard(loc) => {
                self.state.discard(*loc);
                Effects::done(Outcome::Discarded, None)
            }
            // Every write is complete when it returns: nothing to wait for.
            ClientOp::Flush => Effects::done(Outcome::Flushed, None),
            ClientOp::WaitUntil(..) => unreachable!("scheduler decomposes waits"),
        }
    }

    fn deliver(&mut self, from: NodeId, msg: Self::Msg) -> Effects<V, Self::Msg> {
        match msg {
            atomic_dsm::AMsg::ReadReply { .. } => {
                let Some(AtomicPending::Read { loc }) = self.pending.take() else {
                    panic!("read reply with no outstanding read");
                };
                let (value, wid) = self.state.finish_read(loc, msg);
                Effects::done(
                    Outcome::Read {
                        value: value.clone(),
                        wid,
                    },
                    Some(OpRecord::read(loc, value, wid)),
                )
            }
            atomic_dsm::AMsg::WriteReply { .. } => {
                let Some(AtomicPending::RemoteWrite { loc, value, wid }) = self.pending.take()
                else {
                    panic!("write reply with no outstanding remote write");
                };
                let confirmed = self.state.finish_write(msg);
                debug_assert_eq!(confirmed, wid);
                Effects::done(
                    Outcome::Wrote { wid, applied: true },
                    Some(OpRecord::write(loc, value, wid)),
                )
            }
            other => {
                let transition = self.state.on_message(from, other);
                let completion = transition.local_write_done.map(|wid| {
                    let Some(AtomicPending::LocalWrite {
                        loc,
                        value,
                        wid: pw,
                    }) = self.pending.take()
                    else {
                        panic!("local write done with no blocked local write");
                    };
                    debug_assert_eq!(pw, wid);
                    Completion {
                        outcome: Outcome::Wrote { wid, applied: true },
                        record: Some(OpRecord::write(loc, value, wid)),
                    }
                });
                Effects {
                    outgoing: transition.outgoing,
                    completion,
                }
            }
        }
    }

    fn authority(&self, loc: Location) -> NodeId {
        use memcore::OwnerMap as _;
        self.state.config().owners().owner_of(loc)
    }

    fn peek(&self, loc: Location) -> Option<V> {
        self.state.peek(loc).map(|(v, _)| v.clone())
    }
}

// ---------------------------------------------------------------------
// Causal broadcast replica
// ---------------------------------------------------------------------

/// [`Actor`] over the broadcast replica's
/// [`BroadcastState`](broadcast_mem::BroadcastState). Never blocks.
#[derive(Debug)]
pub struct BroadcastActor<V> {
    state: broadcast_mem::BroadcastState<V>,
}

impl<V: Value> BroadcastActor<V> {
    /// Wraps a node's replica state.
    #[must_use]
    pub fn new(state: broadcast_mem::BroadcastState<V>) -> Self {
        BroadcastActor { state }
    }

    /// The wrapped replica state (inspection).
    #[must_use]
    pub fn state(&self) -> &broadcast_mem::BroadcastState<V> {
        &self.state
    }
}

impl<V: Value> Actor<V> for BroadcastActor<V> {
    type Msg = broadcast_mem::BMsg<V>;

    fn id(&self) -> NodeId {
        self.state.id()
    }

    fn submit(&mut self, op: &ClientOp<V>) -> Effects<V, Self::Msg> {
        match op {
            ClientOp::Read(loc) | ClientOp::ReadFresh(loc) => {
                let (value, wid) = self.state.read(*loc);
                Effects::done(
                    Outcome::Read {
                        value: value.clone(),
                        wid,
                    },
                    Some(OpRecord::read(*loc, value, wid)),
                )
            }
            ClientOp::Write(loc, value)
            | ClientOp::WriteBlocking(loc, value)
            | ClientOp::WriteNonblocking(loc, value) => {
                let (wid, outgoing) = self.state.write(*loc, value.clone());
                Effects {
                    outgoing,
                    completion: Some(Completion {
                        outcome: Outcome::Wrote { wid, applied: true },
                        record: Some(OpRecord::write(*loc, value.clone(), wid)),
                    }),
                }
            }
            ClientOp::Discard(_) => Effects::done(Outcome::Discarded, None),
            ClientOp::Flush => Effects::done(Outcome::Flushed, None),
            ClientOp::WaitUntil(..) => unreachable!("scheduler decomposes waits"),
        }
    }

    fn deliver(&mut self, from: NodeId, msg: Self::Msg) -> Effects<V, Self::Msg> {
        self.state.on_message(from, msg);
        Effects {
            outgoing: Vec::new(),
            completion: None,
        }
    }

    fn authority(&self, _loc: Location) -> NodeId {
        // Replication is push-based: a wait is satisfied when the value
        // reaches *this* replica.
        self.state.id()
    }

    fn peek(&self, loc: Location) -> Option<V> {
        Some(self.state.read(loc).0)
    }
}
