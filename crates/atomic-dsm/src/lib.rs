//! The strong-consistency baseline: a fixed-ownership, write-invalidate
//! **atomic DSM** in the style of Li & Hudak's shared virtual memory — the
//! comparator the ICDCS'91 paper measures its causal protocol against.
//!
//! Owners track a *copyset* per page (who holds cached copies); every write
//! invalidates all cached copies, which is where atomic memory pays the
//! "potential global synchronization" the causal protocol avoids: an owner
//! write costs `|copyset|` extra invalidation messages (§4.1 of the paper
//! counts `n − 1` for the solver), versus **zero** for a causal owner
//! write.
//!
//! Two invalidation modes:
//!
//! * [`InvalMode::FireAndForget`] — invalidations are sent but not awaited
//!   (the paper's message accounting; admits transient staleness);
//! * [`InvalMode::Acknowledged`] — invalidate-before-write: the write
//!   blocks until all copies are dropped (properly atomic; used for
//!   correctness tests).
//!
//! # Examples
//!
//! ```
//! use atomic_dsm::{AtomicCluster, InvalMode};
//! use memcore::{Location, SharedMemory, Word};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cluster = AtomicCluster::<Word>::builder(3, 3)
//!     .configure(|c| c.inval_mode(InvalMode::Acknowledged))
//!     .build()?;
//! let p0 = cluster.handle(0);
//! let p2 = cluster.handle(2);
//! p2.read(Location::new(0))?; // P2 caches x0, entering P0's copyset
//! p0.write(Location::new(0), Word::Int(1))?; // invalidates P2's copy
//! assert_eq!(p2.read(Location::new(0))?, Word::Int(1)); // fresh fetch
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod driver;
mod engine;
mod msg;
mod state;

pub use config::{AtomicConfig, AtomicConfigBuilder, InvalMode};
pub use driver::AtomicDriver;
pub use engine::{AtomicCluster, AtomicClusterBuilder, AtomicHandle};
pub use msg::{AMsg, SlotData};
pub use state::{AReadStep, AWriteStep, AtomicState, Transition};
