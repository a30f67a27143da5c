//! The ICDCS'91 simple owner protocol for **causal distributed shared
//! memory** (Hutto, Ahamad, John — "Implementing and Programming Causal
//! Distributed Shared Memory", Figure 4).
//!
//! Causal memory requires reads to return values *live* under the
//! potential-causality order of reads and writes; unlike atomic or
//! sequentially consistent memory it does not totally order writes, so it
//! can be implemented with **no global synchronization**: every operation
//! involves at most one round-trip to a single processor (the location's
//! owner), and several processors may write concurrently without
//! coordinating.
//!
//! The protocol in one paragraph: the namespace is partitioned among
//! processors (*owners*); every processor keeps its owned locations plus a
//! cache of others. Each processor carries a vector timestamp; every write
//! increments it, and every value carries the writestamp it was produced
//! under. Read misses and non-owned writes do a round-trip to the owner;
//! whenever a new value is introduced into local memory, every cached value
//! with a strictly older writestamp is invalidated — that single rule is
//! what makes all reads causally safe.
//!
//! # Crate layout
//!
//! * [`CausalState`] — Figure 4 as a pure state machine (no I/O).
//! * [`NodeDriver`] — everything a runtime must decide *around* that
//!   state machine (message dispatch, reply matching, the bounded write
//!   pipeline, failover retry, timeouts, the write-ahead log of a node
//!   opened on a disk), without network I/O: operations, messages and
//!   time in; ordered sends and completions out. The
//!   threaded engine, `dsm-net`'s poller and the deterministic simulator
//!   (`dsm-sim`) all execute this one driver.
//! * [`Driver`] — that contract as a trait, so the same executors run
//!   the paper's comparators (`atomic-dsm`, `broadcast-mem`) too.
//! * [`Cluster`] / [`Handle`] — the threaded engine, generic over the
//!   driver; [`CausalCluster`] / [`CausalHandle`] name the causal
//!   instantiation. Handles implement [`memcore::SharedMemory`].
//! * [`CausalConfig`] — page size, invalidation mode, concurrent-write
//!   policy (§4.2 owner-favored), cache capacity, constant segments.
//! * [`Msg`] — the four protocol messages of Figure 4.
//!
//! # Examples
//!
//! ```
//! use causal_dsm::CausalCluster;
//! use memcore::{Location, SharedMemory, Word};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cluster = CausalCluster::<Word>::builder(3, 9).build()?;
//! let p0 = cluster.handle(0);
//! let p2 = cluster.handle(2);
//!
//! // P0 owns x0 (round-robin): this write is purely local.
//! p0.write(Location::new(0), Word::Int(1))?;
//! // P2 read-misses, fetches from P0 and caches.
//! assert_eq!(p2.read(Location::new(0))?, Word::Int(1));
//! // Exactly one READ + one R_REPLY crossed the network.
//! assert_eq!(cluster.messages().snapshot().total(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod driver;
pub mod engine;
mod failover;
mod fxmap;
mod msg;
mod state;

pub use config::{
    CausalConfig, CausalConfigBuilder, FailoverConfig, InvalidationMode, WritePolicy,
};
pub use driver::{Done, Driver, Effects, EffectsOf, NodeDriver, Op};
pub use dsm_durable::{
    DirDisk, Disk, DurableConfig, MemDisk, Recovered, Store, SyncPolicy, WalRecord,
};
pub use engine::{
    CausalCluster, CausalClusterBuilder, CausalHandle, Cluster, ClusterSnapshot, Handle,
};
pub use failover::owner_at;
pub use msg::{Msg, SlotData, Stamp, WriteVerdict};
pub use state::{CausalState, ReadStep, WriteDone, WriteStep};

/// The causal node's server loop as a value (see
/// [`CausalClusterBuilder::build_inline`]).
pub type InlineServer<V> = engine::InlineServer<NodeDriver<V>>;
