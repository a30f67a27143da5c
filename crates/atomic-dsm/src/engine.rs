//! The atomic baseline on the threaded engine: a configuration front over
//! [`causal_dsm::Cluster`], the executor the causal protocol runs on.
//! Server threads, operation serialization, ordered sends, recording and
//! shutdown are the executor's; the protocol is [`AtomicDriver`]'s.

use causal_dsm::{Cluster, Handle};
use memcore::{MemoryError, NodeId, Recorder, Value};

use crate::config::{AtomicConfig, AtomicConfigBuilder};
use crate::driver::AtomicDriver;
use crate::state::AtomicState;

/// A running atomic DSM: the strong-consistency comparator for every
/// "causal vs atomic" experiment in the paper's §4. Dereferences to the
/// [`Cluster`] it runs on (`handle`, `handles`, `config`, `messages`,
/// `bytes`, `shutdown`, …).
///
/// # Examples
///
/// ```
/// use atomic_dsm::AtomicCluster;
/// use memcore::{Location, SharedMemory, Word};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cluster = AtomicCluster::<Word>::builder(2, 4).build()?;
/// let p0 = cluster.handle(0);
/// let p1 = cluster.handle(1);
/// p0.write(Location::new(0), Word::Int(1))?;
/// assert_eq!(p1.read(Location::new(0))?, Word::Int(1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct AtomicCluster<V: Value>(Cluster<AtomicDriver<V>>);

/// A per-process handle onto an [`AtomicCluster`]; implements
/// [`memcore::SharedMemory`].
pub type AtomicHandle<V> = Handle<AtomicDriver<V>>;

/// Builder for [`AtomicCluster`].
pub struct AtomicClusterBuilder<V: Value> {
    config: AtomicConfigBuilder<V>,
    recorder: Option<Recorder<V>>,
}

impl<V: Value + Default> AtomicCluster<V> {
    /// Starts building a cluster of `nodes` processors sharing `locations`
    /// locations.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` or `locations` is zero.
    #[must_use]
    pub fn builder(nodes: u32, locations: u32) -> AtomicClusterBuilder<V> {
        AtomicClusterBuilder {
            config: AtomicConfig::builder(nodes, locations),
            recorder: None,
        }
    }
}

impl<V: Value> AtomicClusterBuilder<V> {
    /// Applies `f` to the underlying protocol configuration builder.
    #[must_use]
    pub fn configure(
        mut self,
        f: impl FnOnce(AtomicConfigBuilder<V>) -> AtomicConfigBuilder<V>,
    ) -> Self {
        self.config = f(self.config);
        self
    }

    /// Records every completed operation into `recorder`.
    #[must_use]
    pub fn recorder(mut self, recorder: Recorder<V>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Builds the cluster and spawns its server threads.
    ///
    /// # Errors
    ///
    /// Currently infallible; returns `Result` for forward compatibility.
    pub fn build(self) -> Result<AtomicCluster<V>, MemoryError> {
        AtomicCluster::with_config(self.config.build(), self.recorder)
    }
}

impl<V: Value> AtomicCluster<V> {
    /// Builds a cluster from an explicit configuration.
    ///
    /// # Errors
    ///
    /// Currently infallible; returns `Result` for forward compatibility.
    pub fn with_config(
        config: AtomicConfig<V>,
        recorder: Option<Recorder<V>>,
    ) -> Result<Self, MemoryError> {
        let drivers = (0..config.nodes())
            .map(|i| AtomicDriver::new(AtomicState::new(NodeId::new(i), config.clone())))
            .collect();
        let locations = config.locations();
        Ok(AtomicCluster(Cluster::new(
            config, locations, drivers, recorder,
        )))
    }

    /// Total invalidations received across nodes.
    #[must_use]
    pub fn total_invalidations(&self) -> u64 {
        (0..self.config().nodes())
            .map(|i| self.inspect(i, |d| d.state().invalidation_count()))
            .sum()
    }
}

impl<V: Value> std::ops::Deref for AtomicCluster<V> {
    type Target = Cluster<AtomicDriver<V>>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}
