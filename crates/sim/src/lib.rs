//! Deterministic discrete-event simulation of the DSM protocols.
//!
//! The threaded engines are good for throughput; this simulator is good
//! for *science*: it drives the **same** sans-I/O protocol code — the
//! [`causal_dsm::Driver`]s the threaded engine executes:
//! [`causal_dsm::NodeDriver`], [`atomic_dsm::AtomicDriver`] and
//! [`broadcast_mem::BroadcastDriver`] — under a seeded scheduler with
//! configurable link latencies, preserving per-link FIFO, counting every
//! message, and recording every operation for the `causal-spec` checker.
//!
//! Three pieces:
//!
//! * [`Client`] — application programs as resumable operation streams
//!   (the Figure-6 solver's workers, the dictionary's processes, random
//!   workloads);
//! * [`SimDriver`] — what the scheduler drives: any
//!   [`causal_dsm::Driver`] that can also name a location's authoritative
//!   copy and peek at it, for wait-signaling;
//! * [`Sim`] — the event loop: client steps, deliveries, timers, crash
//!   windows, wait handling. It turns each [`ClientOp`] into the driver's
//!   [`causal_dsm::Op`] and each completion into the client's [`Outcome`]
//!   and the checker's record.
//!
//! [`WaitMode`] matters for reproducing the paper's numbers: the §4.1
//! analysis assumes each handshake flag is fetched exactly once per phase
//! ([`WaitMode::IdealSignal`]); [`WaitMode::Poll`] instead measures what
//! honest spinning costs.
//!
//! # Examples
//!
//! Count the messages of one remote read under 10-unit link latency:
//!
//! ```
//! use causal_dsm::CausalConfig;
//! use dsm_sim::{causal_sim, ClientOp, Script, SimOpts};
//! use memcore::{Location, Word};
//! use simnet::latency::Constant;
//!
//! let config = CausalConfig::<Word>::builder(2, 2).build();
//! let mut sim = causal_sim(&config, SimOpts {
//!     latency: Box::new(Constant::new(10)),
//!     ..SimOpts::default()
//! });
//! // P1 reads x0, owned by P0: one READ + one R_REPLY, 20 time units.
//! sim.set_client(1, Script::new(vec![ClientOp::Read(Location::new(0))]));
//! let report = sim.run_to_completion();
//! assert!(report.all_done);
//! assert_eq!(sim.messages().snapshot().total(), 2);
//! assert_eq!(report.time, 20);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod driver;
mod explore;
mod run;
mod sched;
pub mod witness;

pub use client::{Client, ClientOp, FnClient, Outcome, Pred, Script};
pub use driver::SimDriver;
pub use explore::{explore_atomic, explore_causal, ExploreReport};
pub use run::{atomic_sim, broadcast_sim, causal_sim};
pub use sched::{RunLimits, Sim, SimOpts, SimReport, WaitMode};
