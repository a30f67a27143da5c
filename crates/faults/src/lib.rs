//! Deterministic fault injection, a reliable-delivery session layer, and
//! a chaos suite for the causal DSM.
//!
//! The paper's owner protocol assumes "reliable, ordered message passing".
//! This crate removes the assumption and then earns it back:
//!
//! * [`plan`] — [`FaultPlan`]: a replayable description of everything the
//!   network will do wrong (per-link drop/duplication/delay-spike
//!   probabilities, scheduled partitions that heal, node crash/restart
//!   windows);
//! * [`injector`] — [`FaultInjector`]: a plan plus a seeded RNG, exposed
//!   as the [`simnet::FaultHook`] both transports consult; identical
//!   seeds replay identical faults;
//! * [`session`] — [`ReliableLink`] / [`Session`]: sequence numbers,
//!   cumulative acks, retransmission timers, and duplicate suppression
//!   under any [`causal_dsm::Driver`], re-deriving per-link FIFO
//!   exactly-once delivery over the lossy link (overhead shows up as
//!   [`memcore::kinds`] counters);
//! * [`workload`] × [`Faults`] — the chaos grid: register, typed-object
//!   and broken-merge-policy [`Workload`]s under a reliable network,
//!   random plans, permanent owner crashes or WAL-recovering restarts
//!   (a node killed at an injected WAL offset, mid-record tears
//!   included, recovers under a bumped incarnation), every execution fed
//!   to [`causal_spec::check_causal`] plus the workload's and the fault
//!   family's own oracles, failures reported with their reproducing seed
//!   and plan ([`harness`]; the `smoke` binary runs the CI grid).
//!
//! # Examples
//!
//! One seeded chaos run end to end:
//!
//! ```
//! use dsm_faults::{run_chaos, ChaosConfig, Faults, Registers};
//!
//! let outcome = run_chaos(&Registers, Faults::Random, 42, &ChaosConfig::default());
//! assert!(outcome.ok(), "{outcome}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod injector;
pub mod plan;
pub mod session;
pub mod workload;

pub use harness::{run_chaos, run_chaos_batch, ChaosBatch, ChaosConfig, ChaosOutcome, Faults};
pub use injector::FaultInjector;
pub use plan::{Crash, FaultPlan, LinkFaults, Partition};
pub use session::{ReliableLink, Session, SessionMsg, SessionStats};
pub use workload::{Mutant, Objects, Registers, Shape, Workload};
