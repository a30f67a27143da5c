//! # causalmem — causal distributed shared memory
//!
//! A reproduction of *"Implementing and Programming Causal Distributed
//! Shared Memory"* (Hutto, Ahamad, John — ICDCS 1991): the simple owner
//! protocol for causal DSM, the atomic-DSM and causal-broadcast comparators
//! it is evaluated against, an executable specification of causal memory
//! (live sets per Definition 1, plus sequential-consistency and
//! session-guarantee checkers), a deterministic protocol simulator with an
//! exhaustive schedule explorer, and the paper's applications (iterative
//! linear solvers, the distributed dictionary, synchronization variables
//! on causal memory).
//!
//! This facade re-exports the workspace crates under stable module names.
//!
//! # Quickstart
//!
//! ```
//! use causalmem::causal::{CausalCluster, CausalConfig};
//! use causalmem::memcore::{Location, SharedMemory, Word};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 2 processes, 8 locations; locations are round-robin owned.
//! let cluster = CausalCluster::<Word>::builder(2, 8).build()?;
//! let p0 = cluster.handle(0);
//! let p1 = cluster.handle(1);
//!
//! p0.write(Location::new(0), Word::Int(42))?;
//! // P1 misses in its cache and fetches from the owner (P0).
//! assert_eq!(p1.read(Location::new(0))?, Word::Int(42));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Shared vocabulary: identifiers, the [`SharedMemory`](memcore::SharedMemory)
/// trait, operation records and message statistics.
pub use memcore;

/// Vector timestamps.
pub use vclock;

/// The reliable FIFO message-passing substrate.
pub use simnet;

/// The paper's contribution: the Figure-4 owner protocol for causal DSM.
pub use causal_dsm as causal;

/// Durability: CRC-framed write-ahead log, checkpoints, crash recovery.
pub use dsm_durable as durable;

/// The strong-consistency baseline: a Li/Hudak-style atomic DSM.
pub use atomic_dsm as atomic;

/// The Figure-3 comparator: causally-ordered broadcast replica memory.
pub use broadcast_mem as broadcast;

/// Executable specification: live sets, causal and SC checkers.
pub use causal_spec as spec;

/// Deterministic discrete-event protocol simulator: one more executor of
/// the [`causal::Driver`]s the threaded engine runs.
pub use dsm_sim as sim;

/// Typed causal objects over `SharedMemory`: PN-counter, observed-remove
/// set, map with pluggable merge policies, FIFO append-queue, and their
/// per-object sequential-spec oracles.
pub use dsm_objects as objects;

/// The paper's applications: linear solvers and the distributed dictionary.
pub use dsm_apps as apps;

/// Fault injection, the reliable-delivery session layer (a
/// [`causal::Driver`] over any driver), and the chaos suite.
pub use dsm_faults as faults;

/// The real network transport: TCP mesh, framing, the server/load
/// binaries' building blocks, and the loopback cluster harness.
pub use dsm_net as net;
