//! Client programs: applications expressed as resumable operation
//! streams, driven by the simulator.
//!
//! A [`Client`] is asked for its next operation whenever its previous one
//! completes; in between it holds its own state (phase counters, partial
//! sums, …). This is how the paper's programs — the Figure-6 solver's
//! workers and coordinator, the dictionary's processes — run inside the
//! deterministic simulator.

use std::fmt;
use std::sync::Arc;

use memcore::{Location, Value, WriteId};

/// A predicate over a location's value, used by [`ClientOp::WaitUntil`].
pub type Pred<V> = Arc<dyn Fn(&V) -> bool + Send + Sync>;

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

    /// The location this operation touches (`None` for
    /// [`ClientOp::Flush`]).
    pub fn loc(&self) -> Option<Location> {
        Some(match self {
            ClientOp::Flush => return None,
            ClientOp::Read(loc)
            | ClientOp::Write(loc, _)
            | ClientOp::WriteBlocking(loc, _)
            | ClientOp::ReadFresh(loc)
            | ClientOp::Discard(loc)
            | ClientOp::WriteNonblocking(loc, _)
            | ClientOp::WaitUntil(loc, _) => *loc,
        })
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

impl<V: Clone> Outcome<V> {
    /// The value carried by a read outcome.
    ///
    /// # Panics
    ///
    /// Panics if this is not a read outcome.
    pub fn value(&self) -> V {
        match self {
            Outcome::Read { value, .. } => value.clone(),
            Outcome::Wrote { .. } => panic!("write outcome carries no value"),
            Outcome::Discarded | Outcome::Flushed => panic!("outcome carries no value"),
        }
    }
}

/// A resumable program run by one simulated node.
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

/// A client driven by a closure (full access to previous outcomes).
pub struct FnClient<V, F> {
    f: F,
    _marker: std::marker::PhantomData<fn() -> V>,
}

impl<V, F> FnClient<V, F>
where
    F: FnMut(Option<&Outcome<V>>) -> Option<ClientOp<V>> + Send,
{
    /// Wraps `f` as a client.
    pub fn new(f: F) -> Self {
        FnClient {
            f,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<V: Value, F> Client<V> for FnClient<V, F>
where
    F: FnMut(Option<&Outcome<V>>) -> Option<ClientOp<V>> + Send,
{
    fn next(&mut self, last: Option<&Outcome<V>>) -> Option<ClientOp<V>> {
        (self.f)(last)
    }
}

impl<V, F> fmt::Debug for FnClient<V, F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FnClient")
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
    fn fn_client_sees_outcomes() {
        let mut calls = 0;
        let mut client = FnClient::<Word, _>::new(move |last| {
            calls += 1;
            match calls {
                1 => {
                    assert!(last.is_none());
                    Some(ClientOp::Read(Location::new(0)))
                }
                2 => {
                    assert!(matches!(last, Some(Outcome::Read { .. })));
                    None
                }
                _ => unreachable!(),
            }
        });
        assert!(client.next(None).is_some());
        let outcome = Outcome::Read {
            value: Word::Zero,
            wid: WriteId::initial(Location::new(0)),
        };
        assert!(client.next(Some(&outcome)).is_none());
    }

    #[test]
    fn op_debug_and_loc() {
        let op: ClientOp<Word> = ClientOp::wait_until(Location::new(3), |v| *v == Word::Int(1));
        assert_eq!(op.loc(), Some(Location::new(3)));
        assert_eq!(format!("{op:?}"), "wait(x3)");
        let read: ClientOp<Word> = ClientOp::Read(Location::new(1));
        assert_eq!(format!("{read:?}"), "r(x1)");
    }

    #[test]
    fn outcome_value_accessor() {
        let outcome = Outcome::Read {
            value: Word::Int(4),
            wid: WriteId::initial(Location::new(0)),
        };
        assert_eq!(outcome.value(), Word::Int(4));
    }

    #[test]
    #[should_panic(expected = "carries no value")]
    fn write_outcome_has_no_value() {
        let outcome: Outcome<Word> = Outcome::Discarded;
        let _ = outcome.value();
    }
}
