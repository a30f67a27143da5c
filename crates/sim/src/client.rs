//! Client programs: what each simulated node runs.
//!
//! A [`Client`] is asked for its next operation whenever its previous one
//! completes. Two kinds ship: a [`Script`] of fixed operations (the
//! explorer's and the register workloads'), and a [`Program`] — an
//! ordinary straight-line function over [`SharedMemory`], such as the
//! Figure-6 solver's workers or the typed objects, run inside the
//! deterministic simulator unchanged.

use std::fmt;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

pub use memcore::Pred;
use memcore::{Location, MemoryError, NodeId, SharedMemory, Value, WriteId};

/// One operation a client can ask the memory to perform.
#[derive(Clone)]
pub enum ClientOp<V> {
    /// `r(x)` — may hit the cache.
    Read(Location),
    /// `w(x)v`. Under the causal protocol with a pipeline window
    /// configured this is the engine's `write_pipelined` (it completes at
    /// issue while the window has room); otherwise it blocks for the
    /// owner's reply.
    Write(Location, V),
    /// `w(x)v`, always blocking for the owner's reply — the engine's
    /// `write` — even with a pipeline window configured.
    WriteBlocking(Location, V),
    /// Discard any cached copy, then read: forces owner communication.
    ReadFresh(Location),
    /// Drop the cached copy (the paper's `discard`).
    Discard(Location),
    /// A non-blocking write (the causal protocol's reduced-blocking
    /// enhancement); completes at issue, the owner's reply is absorbed in
    /// the background. Other protocols treat it as a normal write.
    WriteNonblocking(Location, V),
    /// Barrier: completes once every pipelined or non-blocking write's
    /// reply has been absorbed (the engine's `flush`).
    Flush,
    /// Block until the location's value satisfies the predicate (the
    /// paper's `wait(B)`); how aggressively this re-reads is the
    /// simulator's `WaitMode`.
    WaitUntil(Location, Pred<V>),
}

impl<V> ClientOp<V> {
    /// Convenience constructor for [`ClientOp::WaitUntil`].
    pub fn wait_until(loc: Location, pred: impl Fn(&V) -> bool + Send + Sync + 'static) -> Self {
        ClientOp::WaitUntil(loc, Arc::new(pred))
    }
}

impl<V: fmt::Debug> fmt::Debug for ClientOp<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientOp::Read(loc) => write!(f, "r({loc})"),
            ClientOp::Write(loc, v) => write!(f, "w({loc}){v:?}"),
            ClientOp::WriteBlocking(loc, v) => write!(f, "w_b({loc}){v:?}"),
            ClientOp::Flush => write!(f, "flush"),
            ClientOp::ReadFresh(loc) => write!(f, "r!({loc})"),
            ClientOp::Discard(loc) => write!(f, "discard({loc})"),
            ClientOp::WriteNonblocking(loc, v) => write!(f, "w_nb({loc}){v:?}"),
            ClientOp::WaitUntil(loc, _) => write!(f, "wait({loc})"),
        }
    }
}

/// What a completed operation produced.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome<V> {
    /// A read (or satisfied wait) returned this value.
    Read {
        /// The value read.
        value: V,
        /// The write it reads from.
        wid: WriteId,
    },
    /// A write completed.
    Wrote {
        /// The write's tag.
        wid: WriteId,
        /// `false` only when an owner-favored resolution rejected it.
        applied: bool,
    },
    /// A discard completed (no payload).
    Discarded,
    /// A flush completed (no payload).
    Flushed,
}

/// What one simulated node runs: asked for its next operation whenever
/// the previous one completes.
pub trait Client<V>: Send {
    /// The outcome of the previous operation (`None` on the first call) is
    /// offered; the client returns its next operation, or `None` when
    /// finished.
    fn next(&mut self, last: Option<&Outcome<V>>) -> Option<ClientOp<V>>;
}

/// A fixed script of operations (outcomes ignored).
///
/// # Examples
///
/// ```
/// use dsm_sim::{ClientOp, Script};
/// use memcore::{Location, Word};
///
/// let script = Script::new(vec![
///     ClientOp::Write(Location::new(0), Word::Int(1)),
///     ClientOp::Read(Location::new(1)),
/// ]);
/// # let _ = script;
/// ```
#[derive(Debug)]
pub struct Script<V> {
    ops: std::vec::IntoIter<ClientOp<V>>,
}

impl<V> Script<V> {
    /// Wraps a list of operations.
    #[must_use]
    pub fn new(ops: Vec<ClientOp<V>>) -> Self {
        Script {
            ops: ops.into_iter(),
        }
    }
}

impl<V: Value> Client<V> for Script<V> {
    fn next(&mut self, _last: Option<&Outcome<V>>) -> Option<ClientOp<V>> {
        self.ops.next()
    }
}

/// A straight-line program run as a simulated node's client.
///
/// The body gets a [`SimMemory`] and runs on its own thread. Each of its
/// memory calls becomes one [`ClientOp`] and blocks until the scheduler
/// hands back the [`Outcome`]; when the body returns, the client is
/// finished. A body must return once its calls start failing.
///
/// **Determinism.** [`Client::next`] and the program strictly alternate:
/// `next` passes the previous outcome to the program and blocks until the
/// program asks for its next operation or returns. So exactly one of the
/// scheduler and the program runs at a time, and a seeded run is as
/// replayable as one of [`Script`]s.
///
/// A panic in the body surfaces from [`Sim::run`](crate::Sim::run) with
/// the body's message. Dropping the program mid-operation (say, a `Sim`
/// cut short by its [`RunLimits`](crate::RunLimits)) makes the pending
/// call return [`MemoryError::Shutdown`] and joins the thread, so no
/// thread outlives its `Sim`.
///
/// # Examples
///
/// ```
/// use causal_dsm::CausalConfig;
/// use dsm_sim::{causal_sim, Program, SimMemory, SimOpts};
/// use memcore::{Location, NodeId, SharedMemory, Word};
///
/// let config = CausalConfig::<Word>::builder(2, 2).build();
/// let mut sim = causal_sim(&config, SimOpts::default());
/// sim.set_client(0, Program::new(NodeId::new(0), |mem: SimMemory<Word>| {
///     // P0 bumps x1, owned by P1: one round trip for the read, one for
///     // the write.
///     let x1 = Location::new(1);
///     let v = mem.read(x1).expect("the run completes").as_int().unwrap_or(0);
///     mem.write(x1, Word::Int(v + 1)).expect("the run completes");
/// }));
/// assert!(sim.run_to_completion().all_done);
/// assert_eq!(sim.messages().snapshot().total(), 4);
/// ```
pub struct Program<V> {
    node: NodeId,
    body: Option<Box<dyn FnOnce(SimMemory<V>) + Send>>,
    running: Option<Running<V>>,
}

/// The scheduler's ends of a started program.
struct Running<V> {
    /// The program's operations; disconnects when the body returns or
    /// panics.
    requests: Receiver<ClientOp<V>>,
    replies: Sender<Outcome<V>>,
    thread: JoinHandle<()>,
}

impl<V: Value> Program<V> {
    /// The program `body`, run as node `node`.
    #[must_use]
    pub fn new(node: NodeId, body: impl FnOnce(SimMemory<V>) + Send + 'static) -> Self {
        Program {
            node,
            body: Some(Box::new(body)),
            running: None,
        }
    }

    fn start(&mut self, body: Box<dyn FnOnce(SimMemory<V>) + Send>) -> &Running<V> {
        let (request_tx, requests) = channel();
        let (replies, reply_rx) = channel();
        let mem = SimMemory {
            node: self.node,
            requests: request_tx,
            replies: reply_rx,
        };
        let thread = std::thread::Builder::new()
            .name(format!("sim-program-{}", self.node.index()))
            .spawn(move || body(mem))
            .expect("spawn a program thread");
        self.running.insert(Running {
            requests,
            replies,
            thread,
        })
    }
}

impl<V: Value> Client<V> for Program<V> {
    fn next(&mut self, last: Option<&Outcome<V>>) -> Option<ClientOp<V>> {
        let running = match self.body.take() {
            Some(body) => self.start(body),
            None => {
                let running = self.running.as_ref()?;
                let outcome = last.expect("a resumed program gets its operation's outcome");
                // The body is blocked on this reply; it cannot have gone.
                let _ = running.replies.send(outcome.clone());
                running
            }
        };
        if let Ok(op) = running.requests.recv() {
            return Some(op);
        }
        let running = self.running.take().expect("started");
        if let Err(panic) = running.thread.join() {
            std::panic::resume_unwind(panic);
        }
        None
    }
}

impl<V> Drop for Program<V> {
    fn drop(&mut self) {
        if let Some(Running {
            requests,
            replies,
            thread,
        }) = self.running.take()
        {
            // Closing both channels fails the pending call and every later
            // one with `Shutdown`; the body returns and the thread ends.
            drop((requests, replies));
            let _ = thread.join();
        }
    }
}

impl<V> fmt::Debug for Program<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Program")
            .field("node", &self.node)
            .field("started", &self.body.is_none())
            .finish()
    }
}

/// A [`Program`]'s memory: each call is one simulator operation.
///
/// `read`/`read_tagged` issue [`ClientOp::Read`], `write`/`write_tagged`
/// [`ClientOp::Write`] (the pipelined write when the protocol has a
/// window), `read_fresh` [`ClientOp::ReadFresh`], `discard`
/// [`ClientOp::Discard`] and `wait_until` [`ClientOp::WaitUntil`] with the
/// caller's predicate, which the scheduler evaluates under its
/// [`WaitMode`](crate::WaitMode). Every call returns
/// [`MemoryError::Shutdown`] once the simulation is dropped.
pub struct SimMemory<V> {
    node: NodeId,
    requests: Sender<ClientOp<V>>,
    replies: Receiver<Outcome<V>>,
}

impl<V: Value> SimMemory<V> {
    fn call(&self, op: ClientOp<V>) -> Result<Outcome<V>, MemoryError> {
        self.requests.send(op).map_err(|_| MemoryError::Shutdown)?;
        self.replies.recv().map_err(|_| MemoryError::Shutdown)
    }

    fn read_outcome(&self, op: ClientOp<V>) -> Result<(V, WriteId), MemoryError> {
        match self.call(op)? {
            Outcome::Read { value, wid } => Ok((value, wid)),
            other => unreachable!("a read completed as {other:?}"),
        }
    }
}

impl<V: Value> SharedMemory<V> for SimMemory<V> {
    fn node(&self) -> NodeId {
        self.node
    }

    fn read(&self, loc: Location) -> Result<V, MemoryError> {
        self.read_outcome(ClientOp::Read(loc)).map(|(v, _)| v)
    }

    fn write(&self, loc: Location, value: V) -> Result<(), MemoryError> {
        self.write_tagged(loc, value).map(drop)
    }

    fn discard(&self, loc: Location) {
        // Only a dropped simulation fails a discard, and then the
        // program's next call reports it.
        let _ = self.call(ClientOp::Discard(loc));
    }

    fn read_tagged(&self, loc: Location) -> Result<(V, Option<WriteId>), MemoryError> {
        self.read_outcome(ClientOp::Read(loc))
            .map(|(v, wid)| (v, Some(wid)))
    }

    fn write_tagged(&self, loc: Location, value: V) -> Result<Option<WriteId>, MemoryError> {
        match self.call(ClientOp::Write(loc, value))? {
            Outcome::Wrote { wid, .. } => Ok(Some(wid)),
            other => unreachable!("a write completed as {other:?}"),
        }
    }

    fn read_fresh(&self, loc: Location) -> Result<V, MemoryError> {
        self.read_outcome(ClientOp::ReadFresh(loc)).map(|(v, _)| v)
    }

    fn wait_until<P>(&self, loc: Location, pred: P) -> Result<V, MemoryError>
    where
        P: Fn(&V) -> bool + Send + Sync + 'static,
    {
        self.read_outcome(ClientOp::WaitUntil(loc, Arc::new(pred)))
            .map(|(v, _)| v)
    }
}

impl<V> fmt::Debug for SimMemory<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimMemory")
            .field("node", &self.node)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memcore::Word;

    #[test]
    fn script_yields_ops_in_order_then_ends() {
        let mut script = Script::new(vec![
            ClientOp::Write(Location::new(0), Word::Int(1)),
            ClientOp::Read(Location::new(0)),
        ]);
        assert!(matches!(script.next(None), Some(ClientOp::Write(..))));
        assert!(matches!(script.next(None), Some(ClientOp::Read(_))));
        assert!(script.next(None).is_none());
    }

    #[test]
    fn op_debug() {
        let op: ClientOp<Word> = ClientOp::wait_until(Location::new(3), |v| *v == Word::Int(1));
        assert_eq!(format!("{op:?}"), "wait(x3)");
        let read: ClientOp<Word> = ClientOp::Read(Location::new(1));
        assert_eq!(format!("{read:?}"), "r(x1)");
    }
}
