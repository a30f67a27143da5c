//! The claim rendezvous: how a thread about to block on a reply asks the
//! remote transport for the stream that reply will arrive on.
//!
//! A blocked operation over a remote link costs a wake-up of the
//! transport's reader thread, which reads the reply, hands it over and
//! wakes the blocked thread in turn. A thread that *claims* the inbound
//! stream first reads the reply itself. The engine and the transport never
//! name each other, so they meet here, on the sending thread:
//!
//! 1. the engine, about to put a request on the wire, marks the peer whose
//!    reply it will wait for ([`intend`]);
//! 2. the transport's [`RemoteLink::send_remote`](crate::RemoteLink), on
//!    the same thread, sees the mark ([`wanted`]), takes the stream away
//!    from its reader *before* the request leaves (a reply must not beat
//!    the claim), and leaves a handle to it behind ([`deposit`]);
//! 3. the engine picks the handle up ([`take`]) and pumps the stream until
//!    its operation completes, then releases it.
//!
//! Because everything passes through the sending thread, wrappers around a
//! link or a sink (which forward only `send_remote` and `deliver`) carry
//! a claim without knowing about it. A transport that does not claim, and
//! the in-process [`Network`](crate::Network), leave [`take`] empty, and
//! the engine waits as it always did.

use std::cell::{Cell, RefCell};
use std::sync::Arc;
use std::time::Duration;

use memcore::NodeId;

/// A claimed inbound stream, held by the thread waiting on it.
///
/// Frames read by [`pump`](StreamClaim::pump) go through the transport's
/// own delivery path, so a completion reaches the waiting thread the way
/// it always does; the claimer just finds it there without sleeping.
pub trait StreamClaim: Send + Sync {
    /// Sleeps until the claimed stream is readable, [`ring`] is called, or
    /// `timeout` passes (`None`: no timeout); then reads the stream and
    /// delivers every complete frame on it, in link order.
    ///
    /// A zero `timeout` probes without sleeping. A ring it finds is
    /// consumed all the same, so before pumping again the caller must
    /// look for the completion that ring announced.
    ///
    /// # Errors
    ///
    /// [`Lost`] once the stream can no longer be pumped — it closed, its
    /// bytes do not decode, a new connection replaced it, or the
    /// transport is stopping. The caller should release the claim and wait
    /// for its completion some other way.
    ///
    /// [`ring`]: StreamClaim::ring
    fn pump(&self, timeout: Option<Duration>) -> Result<(), Lost>;

    /// The doorbell: wakes a [`pump`](StreamClaim::pump) sleeping on
    /// another thread, so a completion produced elsewhere is noticed.
    fn ring(&self);

    /// Hands the stream back to the transport's reader. Every complete
    /// frame already read has been delivered by then.
    fn release(&self);
}

/// A [`StreamClaim`] can no longer be pumped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Lost;

thread_local! {
    static INTENT: Cell<Option<NodeId>> = const { Cell::new(None) };
    static CLAIMED: RefCell<Option<Arc<dyn StreamClaim>>> = const { RefCell::new(None) };
}

/// Marks (or, with `None`, unmarks) `peer` as the one whose reply the
/// calling thread is about to wait for.
pub fn intend(peer: Option<NodeId>) {
    INTENT.with(|intent| intent.set(peer));
}

/// Whether the calling thread wants to claim the stream from `dst`;
/// consumes the mark, so one send claims at most once.
#[must_use]
pub fn wanted(dst: NodeId) -> bool {
    INTENT.with(|intent| {
        let hit = intent.get() == Some(dst);
        if hit {
            intent.set(None);
        }
        hit
    })
}

/// Leaves a claim for the calling thread to [`take`].
pub fn deposit(claim: Arc<dyn StreamClaim>) {
    CLAIMED.with(|claimed| *claimed.borrow_mut() = Some(claim));
}

/// The claim the calling thread's last sends deposited, if any.
#[must_use]
pub fn take() -> Option<Arc<dyn StreamClaim>> {
    CLAIMED.with(|claimed| claimed.borrow_mut().take())
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Nothing;

    impl StreamClaim for Nothing {
        fn pump(&self, _timeout: Option<Duration>) -> Result<(), Lost> {
            Err(Lost)
        }
        fn ring(&self) {}
        fn release(&self) {}
    }

    #[test]
    fn an_intent_is_consumed_by_the_first_send_to_its_peer() {
        let (p1, p2) = (NodeId::new(1), NodeId::new(2));
        intend(Some(p1));
        assert!(!wanted(p2), "another peer's send does not claim");
        assert!(wanted(p1));
        assert!(!wanted(p1), "one send claims at most once");
        intend(Some(p2));
        intend(None);
        assert!(!wanted(p2));
    }

    #[test]
    fn a_deposit_is_taken_once_and_only_on_its_thread() {
        assert!(take().is_none());
        deposit(Arc::new(Nothing));
        std::thread::spawn(|| assert!(take().is_none()))
            .join()
            .unwrap();
        assert!(take().is_some());
        assert!(take().is_none());
    }
}
