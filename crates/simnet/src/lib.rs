//! Reliable, ordered message passing between processors — the network
//! substrate the ICDCS'91 owner protocol assumes.
//!
//! The paper's implementation section begins: *"we show how to implement a
//! causal DSM using only local memory accesses and reliable, ordered message
//! passing between any two processors."* This crate provides exactly that
//! substrate, twice over:
//!
//! * [`Network`] — a thread transport built on crossbeam channels: one
//!   mailbox per node, per-link FIFO and reliable delivery, with every send
//!   counted into [`memcore::NetStats`] (messages and, where the payload
//!   implements [`codec::Wire`], bytes). This backs the threaded engines
//!   used by examples and throughput benches.
//! * the [`latency`] module — latency models consumed by the deterministic
//!   simulator (`dsm-sim`), which replays the same protocol state machines
//!   under controlled delays while preserving per-link FIFO order.
//!
//! The [`codec`] module provides a small length-prefixed wire format (on
//! `bytes`) so protocol messages have a realistic encoded size; byte counts
//! feed the overhead ablations. The [`claim`] module is where an engine
//! blocked on a reply and a remote transport meet, so the blocked thread
//! can read the reply's stream itself.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod claim;
pub mod codec;
mod envelope;
pub mod fault;
pub mod latency;
mod router;

pub use envelope::{Envelope, Tagged};
pub use fault::{FaultHook, NoFaults, SendFate};
pub use router::{Mailbox, Network, RemoteLink, SendError};
