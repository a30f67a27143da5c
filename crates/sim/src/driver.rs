//! The simulator as an executor of [`Driver`]s: what it asks of a driver
//! beyond the executor contract, for all three memory implementations.

use atomic_dsm::AtomicDriver;
use broadcast_mem::BroadcastDriver;
use causal_dsm::{Driver, NodeDriver};
use memcore::{Location, NodeId, OwnerMap as _, Value};

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
