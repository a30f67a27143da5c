//! dsm-objects: a typed causal-object layer over [`memcore::SharedMemory`].
//!
//! The paper's §4.2 shows one object — a distributed dictionary — built
//! from nothing but causal reads, writes, and owner-favored conflict
//! resolution. This crate generalizes that construction into a small
//! library of **typed objects**, each encoding its state through the
//! same single-writer row-grid trick ([`GridLayout`]) so it rides every
//! layer the registers already have (pipelining, batching, failover,
//! hash-ring scoping, durability) without touching the wire protocol:
//!
//! * [`PnCounter`] — increment/decrement via per-process `(pos, neg)`
//!   component cells;
//! * [`CausalSet`] — grow/observed-remove set, the dictionary itself;
//! * [`CausalMap`] — key→value bindings whose concurrent writes are
//!   resolved by a pluggable [`MergePolicy`];
//! * [`FifoQueue`] — a per-producer FIFO append-stream whose gap-free
//!   delivery comes from causality alone.
//!
//! Cells hold [`ObjVal`], a [`simnet::codec::Wire`]-codable value type, so
//! objects serialize onto pages exactly like `Word` registers do —
//! register traffic stays byte-identical to Figure 4.
//!
//! Every object records the tagged register accesses behind each
//! high-level operation (via [`memcore::SharedMemory::read_tagged`]);
//! the recorded history is checked against the family's **sequential
//! specification** by [`ObjectOracle`] + [`causal_spec::check_object`],
//! following the lifting of causal registers to sequential-spec objects
//! in Mostéfaoui–Perrin–Raynal. [`run_script`] applies a scripted
//! [`ObjOp`] sequence through these same objects; the chaos grid runs it
//! inside the deterministic simulator, so the oracle judges the objects
//! that ship.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counter;
pub mod layout;
pub mod map;
pub mod ops;
pub mod oracle;
pub mod policy;
pub mod queue;
mod script;
pub mod set;
mod trace;
pub mod value;

pub use counter::PnCounter;
pub use layout::GridLayout;
pub use map::CausalMap;
pub use ops::{ObjOp, ObjRecorder, ObjRet, ObjTypedOp};
pub use oracle::{Family, ObjectOracle};
pub use policy::{BrokenFirstObserved, Candidate, MergePolicy, PolicyKind};
pub use queue::FifoQueue;
pub use script::run_script;
pub use set::CausalSet;
pub use value::ObjVal;
