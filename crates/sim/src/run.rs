//! Convenience constructors: one call to stand up a simulated cluster of
//! each protocol.

use atomic_dsm::{AtomicDriver, AtomicState};
use broadcast_mem::{BroadcastDriver, BroadcastState};
use causal_dsm::{CausalConfig, CausalState, NodeDriver};
use memcore::{NodeId, Value};

use crate::sched::{Sim, SimOpts};

/// A simulated causal-DSM cluster: one [`NodeDriver`] per node.
///
/// # Examples
///
/// ```
/// use causal_dsm::CausalConfig;
/// use dsm_sim::{causal_sim, ClientOp, Script, SimOpts};
/// use memcore::{Location, Word};
///
/// let config = CausalConfig::<Word>::builder(2, 2).build();
/// let mut sim = causal_sim(&config, SimOpts::default());
/// sim.set_client(0, Script::new(vec![ClientOp::Write(Location::new(0), Word::Int(1))]));
/// assert!(sim.run_to_completion().all_done);
/// ```
#[must_use]
pub fn causal_sim<V: Value>(config: &CausalConfig<V>, opts: SimOpts<V>) -> Sim<NodeDriver<V>> {
    Sim::new(causal_drivers(config), opts)
}

/// One fresh causal driver per node of `config`.
pub(crate) fn causal_drivers<V: Value>(config: &CausalConfig<V>) -> Vec<NodeDriver<V>> {
    (0..config.nodes())
        .map(|i| NodeDriver::new(CausalState::new(NodeId::new(i), config.clone())))
        .collect()
}

/// A simulated atomic-DSM cluster: one [`AtomicDriver`] per node.
#[must_use]
pub fn atomic_sim<V: Value>(
    config: &atomic_dsm::AtomicConfig<V>,
    opts: SimOpts<V>,
) -> Sim<AtomicDriver<V>> {
    Sim::new(atomic_drivers(config), opts)
}

/// One fresh atomic driver per node of `config`.
pub(crate) fn atomic_drivers<V: Value>(
    config: &atomic_dsm::AtomicConfig<V>,
) -> Vec<AtomicDriver<V>> {
    (0..config.nodes())
        .map(|i| AtomicState::new(NodeId::new(i), config.clone()))
        .map(AtomicDriver::new)
        .collect()
}

/// A simulated causal-broadcast replica cluster. Never blocks.
#[must_use]
pub fn broadcast_sim<V: Value + Default>(
    nodes: u32,
    locations: u32,
    opts: SimOpts<V>,
) -> Sim<BroadcastDriver<V>> {
    let drivers = (0..nodes)
        .map(|i| BroadcastState::new(NodeId::new(i), nodes as usize, locations))
        .map(BroadcastDriver::new)
        .collect();
    Sim::new(drivers, opts)
}
