//! Convenience constructors: one call to stand up a simulated cluster of
//! each protocol.

use atomic_dsm::{AtomicDriver, AtomicState};
use broadcast_mem::{BroadcastDriver, BroadcastState};
use causal_dsm::{CausalConfig, CausalState, NodeDriver};
use memcore::{NodeId, Value};

use crate::actor::{AtomicActor, BroadcastActor, CausalActor};
use crate::sched::{Sim, SimOpts};

/// A simulated causal-DSM cluster: one [`CausalActor`] per node.
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
pub fn causal_sim<V: Value>(config: &CausalConfig<V>, opts: SimOpts<V>) -> Sim<V, CausalActor<V>> {
    Sim::new(causal_actors(config), opts)
}

/// One fresh causal actor per node of `config`.
pub(crate) fn causal_actors<V: Value>(config: &CausalConfig<V>) -> Vec<CausalActor<V>> {
    (0..config.nodes())
        .map(|i| NodeDriver::new(CausalState::new(NodeId::new(i), config.clone())))
        .map(CausalActor::new)
        .collect()
}

/// A simulated atomic-DSM cluster: one [`AtomicActor`] per node.
#[must_use]
pub fn atomic_sim<V: Value>(
    config: &atomic_dsm::AtomicConfig<V>,
    opts: SimOpts<V>,
) -> Sim<V, AtomicActor<V>> {
    Sim::new(atomic_actors(config), opts)
}

/// One fresh atomic actor per node of `config`.
pub(crate) fn atomic_actors<V: Value>(config: &atomic_dsm::AtomicConfig<V>) -> Vec<AtomicActor<V>> {
    (0..config.nodes())
        .map(|i| AtomicDriver::new(AtomicState::new(NodeId::new(i), config.clone())))
        .map(AtomicActor::new)
        .collect()
}

/// A simulated causal-broadcast replica cluster.
#[must_use]
pub fn broadcast_sim<V: Value + Default>(
    nodes: u32,
    locations: u32,
    opts: SimOpts<V>,
) -> Sim<V, BroadcastActor<V>> {
    let actors = (0..nodes)
        .map(|i| BroadcastState::new(NodeId::new(i), nodes as usize, locations))
        .map(|state| BroadcastActor::new(BroadcastDriver::new(state)))
        .collect();
    Sim::new(actors, opts)
}
