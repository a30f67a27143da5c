//! Causally-ordered broadcast replica memory — the paper's §2 comparator
//! showing that **"causal broadcasting is not causal memory"** (Figure 3).
//!
//! Each node holds a full replica; writes apply locally and broadcast an
//! update delivered at every other node in causal order
//! (Birman–Schiper–Stephenson vector-clock delivery, after the ISIS causal
//! broadcast the paper cites). Reads are local.
//!
//! The paper's point, reproduced by this workspace's E3 experiment: even
//! with causally ordered delivery, *concurrent* writes to the same
//! location may be applied in different orders at different replicas, and
//! a process can first observe evidence that a concurrent write has been
//! superseded and then still read it — an outcome Definition 2 forbids.
//! See `tests/separation.rs` at the workspace root.
//!
//! # Examples
//!
//! ```
//! use broadcast_mem::BroadcastCluster;
//! use memcore::{Location, SharedMemory, Word};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cluster = BroadcastCluster::<Word>::new(3, 4)?;
//! let p0 = cluster.handle(0);
//! let p2 = cluster.handle(2);
//! p0.write(Location::new(1), Word::Int(7))?;
//! let v = p2.wait_until(Location::new(1), &|v| *v == Word::Int(7))?;
//! assert_eq!(v, Word::Int(7));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod driver;
mod engine;
mod state;

pub use driver::BroadcastDriver;
pub use engine::{BroadcastCluster, BroadcastHandle};
pub use state::{BMsg, BroadcastState};
