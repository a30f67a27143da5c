//! The causal-broadcast replica memory on the threaded engine: a front
//! over [`causal_dsm::Cluster`], the executor the causal protocol runs on.
//!
//! Unlike the owner protocols, no operation ever blocks: writes broadcast
//! and return, reads are local. The cost is full replication and an
//! `n − 1`-message broadcast per write — and, as Figure 3 of the paper
//! shows, the result is *not* causal memory.

use causal_dsm::{Cluster, Handle};
use memcore::{MemoryError, NodeId, Recorder, Value};

use crate::driver::BroadcastDriver;
use crate::state::BroadcastState;

/// A running causal-broadcast memory: full replicas updated by
/// causally-ordered broadcasts. Dereferences to the [`Cluster`] it runs
/// on (`handle`, `messages`, `shutdown`, …).
///
/// # Examples
///
/// ```
/// use broadcast_mem::BroadcastCluster;
/// use memcore::{Location, SharedMemory, Word};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cluster = BroadcastCluster::<Word>::new(2, 4)?;
/// let p0 = cluster.handle(0);
/// let p1 = cluster.handle(1);
/// p0.write(Location::new(0), Word::Int(1))?;
/// // Replication is asynchronous; wait for the update to land.
/// let v = p1.wait_until(Location::new(0), |v| *v == Word::Int(1))?;
/// assert_eq!(v, Word::Int(1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct BroadcastCluster<V: Value>(Cluster<BroadcastDriver<V>>);

/// A per-process handle onto a [`BroadcastCluster`]; implements
/// [`memcore::SharedMemory`].
pub type BroadcastHandle<V> = Handle<BroadcastDriver<V>>;

impl<V: Value + Default> BroadcastCluster<V> {
    /// Builds a cluster of `nodes` full replicas of `locations` locations.
    ///
    /// # Errors
    ///
    /// Currently infallible; returns `Result` for forward compatibility.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` or `locations` is zero.
    pub fn new(nodes: u32, locations: u32) -> Result<Self, MemoryError> {
        Self::with_recorder(nodes, locations, None)
    }

    /// Builds a cluster that records operations into `recorder`.
    ///
    /// # Errors
    ///
    /// Currently infallible; returns `Result` for forward compatibility.
    pub fn with_recorder(
        nodes: u32,
        locations: u32,
        recorder: Option<Recorder<V>>,
    ) -> Result<Self, MemoryError> {
        let drivers = (0..nodes)
            .map(|i| {
                let state = BroadcastState::new(NodeId::new(i), nodes as usize, locations);
                BroadcastDriver::new(state)
            })
            .collect();
        Ok(BroadcastCluster(Cluster::new(
            (),
            locations,
            drivers,
            recorder,
        )))
    }
}

impl<V: Value> std::ops::Deref for BroadcastCluster<V> {
    type Target = Cluster<BroadcastDriver<V>>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}
