//! `dsm-benchmark`: the causal DSM measured the way its users see it —
//! client threads calling `read` / `write` / `discard` /
//! `write_pipelined` / `flush` on a `CausalHandle` of a three-node
//! cluster whose nodes talk only through loopback TCP — plus a traced
//! run that attributes an op's time to the layers it crosses.
//!
//! See `README.md` beside this package for the workloads, the metrics
//! and how they interact.

#![warn(missing_docs)]

pub mod alloc;
pub mod client;
pub mod cluster;
pub mod hist;
pub mod micro;
pub mod pin;
pub mod run;
pub mod timeline;
pub mod trace;
pub mod workload;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;
