//! `dsm-net`: the causal DSM over real TCP.
//!
//! The repo's engines normally run all nodes in one process over
//! crossbeam channels. This crate swaps that floor out for sockets while
//! changing nothing above it:
//!
//! - [`framing`] — length-prefixed frames over byte streams, reusing the
//!   workspace `Wire` codec, plus the connection-opening handshake.
//! - [`mesh`] — one TCP connection per node pair ([`mesh::TcpMesh`]),
//!   feeding a partial [`simnet::Network`] through its `RemoteLink`
//!   hook; TCP's per-connection FIFO and reliability are exactly the
//!   paper's §3 network assumptions (`docs/NET.md`).
//! - [`spec`] — the cluster spec file every process loads.
//! - [`cluster`] — [`cluster::NetCluster`], one process's node of a
//!   multi-process causal memory.
//! - [`ctrl`] — the control protocol `dsm-load` drives servers with.
//! - [`harness`] — the deterministic mixed workload and the loopback
//!   multi-threaded-over-sockets runner.
//!
//! The `dsm-server` binary hosts one node per process; `dsm-load` brings
//! up a cluster, drives the workload, and checks the merged history
//! against `causal-spec`'s Definition-2 oracle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod ctrl;
pub mod framing;
pub mod harness;
pub mod mesh;
pub mod spec;

pub use cluster::{bind_reusable, NetCluster, Payload};
pub use ctrl::{CtrlMsg, WireOp};
pub use harness::{mixed_script, run_loopback, run_node, LoopbackReport, Script};
pub use mesh::{CtrlConn, EnvelopeSink, MeshLink, SinkClosed, TcpMesh, WireStats};
pub use spec::{ClusterSpec, NetOptions, SpecError};
