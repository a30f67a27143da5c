//! The paper's applications (§4), written once against
//! [`memcore::SharedMemory`] and run unchanged on causal and atomic DSM.
//!
//! * [`run_worker`] / [`run_coordinator`] — the Figure-6 synchronous
//!   iterative linear solver. The threaded engines run it one thread per
//!   process; the E6 message-count experiment runs the same functions
//!   inside the deterministic simulator ([`install_solver`],
//!   [`run_causal_solver_sim`] / [`run_atomic_solver_sim`]).
//! * [`run_async_worker`] — the asynchronous, handshake-free solver
//!   variant (§4.1 last paragraph, E7), likewise run by
//!   [`run_async_solver_sim`].
//! * [`Dictionary`] — the §4.2 distributed dictionary, a veneer over the
//!   typed object layer's observed-remove set (`dsm-objects`), relying on
//!   the causal engine's owner-favored write policy (E8); [`dict_program`]
//!   runs it in the simulator.
//! * [`WorkloadSpec`] — synthetic read/write mixes for throughput benches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod async_solver;
mod dict_sim;
mod dictionary;
mod solver;
mod solver_sim;
mod sync;
mod system;
mod workload;

pub use async_solver::{run_async_solver_sim, run_async_worker, AsyncLayout, AsyncRun};
pub use dict_sim::{dict_program, DictOp, DictResults};
pub use dictionary::{DictLayout, Dictionary};
pub use solver::{publish_system, run_coordinator, run_worker, SolverLayout};
pub use solver_sim::{
    install_solver, run_atomic_solver_sim, run_broadcast_solver_sim, run_causal_solver_sim,
    SolverRun, SolverSimConfig,
};
pub use sync::{CausalBarrier, EventCount};
pub use system::LinearSystem;
pub use workload::{WorkloadOp, WorkloadSpec};
