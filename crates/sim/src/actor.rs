//! Protocol actors: the simulator as an executor of [`Driver`]s. One
//! adapter, [`DriverActor`], turns the scheduler's [`ClientOp`]s into
//! driver operations and the driver's completions into [`Outcome`]s and
//! checker records, for all three memory implementations.

use std::sync::Arc;

use atomic_dsm::AtomicDriver;
use broadcast_mem::BroadcastDriver;
use causal_dsm::{Done, Driver, EffectsOf, NodeDriver, Op};
use memcore::{Location, NodeId, OpRecord, OwnerMap as _, Value};
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
}

/// One simulated node: a protocol state machine with at most one
/// outstanding application operation.
pub trait Actor<V: Value>: Send {
    /// The protocol's message type.
    type Msg: Tagged + Clone + Send + std::fmt::Debug;

    /// Submits an application operation at simulated time `now`
    /// ([`ClientOp::WaitUntil`] is decomposed by the scheduler and never
    /// reaches actors).
    ///
    /// Returns either an immediate completion or the messages whose
    /// replies will complete it.
    fn submit(&mut self, now: u64, op: &ClientOp<V>) -> Effects<V, Self::Msg>;

    /// Delivers a protocol message at simulated time `now`.
    fn deliver(&mut self, now: u64, from: NodeId, msg: Self::Msg) -> Effects<V, Self::Msg>;

    /// The node whose copy of `loc` is authoritative for wait-signaling:
    /// the owner for owner protocols, this node for replicated memory.
    fn authority(&self, loc: Location) -> NodeId;

    /// This node's current value of `loc`, if it holds one (owned, cached
    /// or replicated). No protocol side effects.
    fn peek(&self, loc: Location) -> Option<V>;

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

/// What only the simulator asks of a driver, beyond the executor
/// contract: where wait-signaling looks, and a side-effect-free peek.
pub trait SimDriver: Driver {
    /// The node whose copy of `loc` is authoritative for wait-signaling:
    /// the owner for owner protocols, this node for replicated memory.
    fn authority(&self, loc: Location) -> NodeId;

    /// This node's current value of `loc`, if it holds one (owned, cached
    /// or replicated). No protocol side effects.
    fn peek(&self, loc: Location) -> Option<Self::Value>;
}

impl<V: Value> SimDriver for NodeDriver<V> {
    fn authority(&self, loc: Location) -> NodeId {
        // Dynamic under failover: waits signal off the copy held by the
        // node *currently* serving the page.
        let state = self.state();
        state.current_owner(loc.page(state.config().page_size()))
    }

    fn peek(&self, loc: Location) -> Option<V> {
        self.state().peek(loc).map(|(v, _)| v.clone())
    }
}

impl<V: Value> SimDriver for AtomicDriver<V> {
    fn authority(&self, loc: Location) -> NodeId {
        self.state().config().owners().owner_of(loc)
    }

    fn peek(&self, loc: Location) -> Option<V> {
        self.state().peek(loc).map(|(v, _)| v.clone())
    }
}

impl<V: Value> SimDriver for BroadcastDriver<V> {
    fn authority(&self, _loc: Location) -> NodeId {
        // Replication is push-based: a wait is satisfied when the value
        // reaches *this* replica.
        self.state().id()
    }

    fn peek(&self, loc: Location) -> Option<V> {
        Some(self.state().read(loc).0)
    }
}

/// [`Actor`] over any [`Driver`] — the same drivers the threaded engine
/// and the inline TCP poller execute, so every schedule explored or
/// sampled here certifies the code that ships. Simulated time is the
/// driver's clock; its timers (heartbeats, attempt deadlines, give-up
/// budgets) surface through [`Actor::next_timer`].
#[derive(Clone, Debug)]
pub struct DriverActor<D: Driver> {
    driver: D,
    fx: EffectsOf<D>,
}

/// The causal owner protocol's actor.
pub type CausalActor<V> = DriverActor<NodeDriver<V>>;
/// The atomic baseline's actor.
pub type AtomicActor<V> = DriverActor<AtomicDriver<V>>;
/// The causal-broadcast replica's actor. Never blocks.
pub type BroadcastActor<V> = DriverActor<BroadcastDriver<V>>;

impl<D: Driver> DriverActor<D> {
    /// Wraps a node's driver.
    #[must_use]
    pub fn new(driver: D) -> Self {
        DriverActor {
            driver,
            fx: EffectsOf::<D>::default(),
        }
    }

    /// The wrapped driver (inspection).
    #[must_use]
    pub fn driver(&self) -> &D {
        &self.driver
    }

    /// Hands the driver's effects to the scheduler. An operation the
    /// driver gave up on ([`Done::Failed`]) never completes here: the
    /// node stays blocked and the run reports it stuck, which is how
    /// every harness already treats a wedged client.
    fn effects(&mut self) -> Effects<D::Value, D::Msg> {
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

impl<D: SimDriver> Actor<D::Value> for DriverActor<D> {
    type Msg = D::Msg;

    fn submit(&mut self, now: u64, op: &ClientOp<D::Value>) -> Effects<D::Value, D::Msg> {
        let shared = |v: &D::Value| Arc::new(v.clone());
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

    fn deliver(&mut self, now: u64, from: NodeId, msg: D::Msg) -> Effects<D::Value, D::Msg> {
        self.driver.deliver(now, from, msg, &mut self.fx);
        self.effects()
    }

    fn authority(&self, loc: Location) -> NodeId {
        self.driver.authority(loc)
    }

    fn peek(&self, loc: Location) -> Option<D::Value> {
        self.driver.peek(loc)
    }

    fn next_timer(&self) -> Option<u64> {
        self.driver.next_timer()
    }

    fn on_timer(&mut self, now: u64) -> Effects<D::Value, D::Msg> {
        self.driver.on_timer(now, &mut self.fx);
        self.effects()
    }
}
