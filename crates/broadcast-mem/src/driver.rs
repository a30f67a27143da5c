//! The broadcast replica as a sans-I/O [`Driver`]: no operation ever
//! blocks — writes broadcast and return, reads are local — so the driver
//! is [`BroadcastState`] behind the operation vocabulary the executors
//! (threaded engine, deterministic simulator) speak.

use std::sync::Arc;

use causal_dsm::{Done, Driver, Effects, Op, WriteDone};
use memcore::{NodeId, Value};

use crate::state::{BMsg, BroadcastState};

/// One replica of the causal-broadcast memory, minus I/O.
#[derive(Debug)]
pub struct BroadcastDriver<V> {
    state: BroadcastState<V>,
}

impl<V: Value> BroadcastDriver<V> {
    /// Wraps a node's replica state.
    #[must_use]
    pub fn new(state: BroadcastState<V>) -> Self {
        BroadcastDriver { state }
    }

    /// The wrapped replica state (inspection).
    #[must_use]
    pub fn state(&self) -> &BroadcastState<V> {
        &self.state
    }
}

impl<V: Value> Driver for BroadcastDriver<V> {
    type Value = V;
    type Msg = BMsg<V>;
    type Config = ();
    const NAME: &'static str = "Broadcast";

    /// Replicas hold no caches and never wait: a fresh read is a read,
    /// discard and flush are no-ops.
    fn submit(&mut self, _now: u64, op: Op<V>, fx: &mut Effects<V, BMsg<V>>) {
        fx.done = Some(match op {
            Op::Read(loc) | Op::ReadFresh(loc) => {
                let (value, wid) = self.state.read(loc);
                let value = Arc::new(value);
                Done::Read { loc, value, wid }
            }
            Op::Write(loc, value) | Op::WritePipelined(loc, value) => {
                let (wid, outgoing) = self.state.write(loc, (*value).clone());
                fx.sends.extend(outgoing);
                let done = WriteDone::Applied { wid };
                Done::Wrote { loc, value, done }
            }
            Op::Discard(_) => Done::Discarded,
            Op::Flush => Done::Flushed,
        });
    }

    fn deliver(&mut self, _now: u64, from: NodeId, msg: BMsg<V>, _fx: &mut Effects<V, BMsg<V>>) {
        self.state.on_message(from, msg);
    }

    fn transport_down(&mut self) -> bool {
        false
    }

    /// An update that cannot leave breaks the replica group: the write
    /// that produced it reports the failure.
    fn needs_delivery(_msg: &BMsg<V>) -> bool {
        true
    }
}
