//! Shared vocabulary for the causal-DSM workspace.
//!
//! Every engine in this workspace — the causal owner protocol
//! (`causal-dsm`), the atomic baseline (`atomic-dsm`) and the
//! causal-broadcast comparator (`broadcast-mem`) — speaks in terms of the
//! types defined here: process and location identifiers, unique write tags,
//! the [`SharedMemory`] trait that application code programs against,
//! operation records consumed by the executable specification
//! (`causal-spec`), and message statistics.
//!
//! Keeping the vocabulary in one crate is what lets the paper's point stand
//! in code form: *the same application source runs unchanged on causal and
//! atomic memory* (§4 of the paper), differing only in which engine's handle
//! is passed in.
//!
//! # Examples
//!
//! ```
//! use memcore::{Location, NodeId, WriteId};
//!
//! let loc = Location::new(7);
//! assert_eq!(loc.page(4).index(), 1); // locations 4..8 share page 1
//! let w = WriteId::new(NodeId::new(2), 1);
//! assert!(!w.is_initial());
//! assert!(WriteId::initial(loc).is_initial());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod ids;
mod op;
mod owner;
mod ring;
mod stats;
mod value;

pub use error::MemoryError;
pub use ids::{Location, NodeId, OwnerEpoch, PageId, RoundRobinOwners, WriteId};
pub use op::{OpKind, OpRecord, Recorder};
pub use owner::{ExplicitOwners, OwnerMap};
pub use ring::HashRingOwners;
pub use stats::{kinds, NetStats, StatsSnapshot};
pub use value::{Value, Word};

/// A predicate over a location's value: what
/// [`SharedMemory::wait_until`] waits for. Shared and thread-safe, so an
/// executor may evaluate it wherever the value lives.
pub type Pred<V> = std::sync::Arc<dyn Fn(&V) -> bool + Send + Sync>;

/// The interface applications program against — the paper's plain shared
/// memory of locations, read and written one at a time.
///
/// Implemented by the per-process handles of every engine in this workspace.
/// `discard` is the paper's cache-drop action (§3.1, the `discard`
/// procedure); engines without caches implement it as a no-op.
///
/// # Examples
///
/// Application code is generic over the memory, exactly as the paper's
/// programs are written once and run on either consistency level:
///
/// ```
/// use memcore::{Location, MemoryError, SharedMemory};
///
/// fn bump<M: SharedMemory<i64>>(mem: &M, loc: Location) -> Result<i64, MemoryError> {
///     let v = mem.read(loc)?;
///     mem.write(loc, v + 1)?;
///     Ok(v + 1)
/// }
/// ```
pub trait SharedMemory<V: Value> {
    /// The process this handle performs operations as.
    fn node(&self) -> NodeId;

    /// Performs `r_i(x)` and returns the value read.
    ///
    /// # Errors
    ///
    /// Returns an error if the engine has shut down or the location is
    /// outside the configured namespace.
    fn read(&self, loc: Location) -> Result<V, MemoryError>;

    /// Performs `w_i(x)v`.
    ///
    /// # Errors
    ///
    /// Returns an error if the engine has shut down or the location is
    /// outside the configured namespace.
    fn write(&self, loc: Location, value: V) -> Result<(), MemoryError>;

    /// Drops any locally cached copy of `loc` (the paper's `discard`).
    ///
    /// Locations owned by this process are never invalidated, as in the
    /// paper; discarding them is a no-op.
    fn discard(&self, loc: Location);

    /// Performs `r_i(x)` and also reports which write the returned value
    /// came from, when the engine tracks write tags.
    ///
    /// Typed object layers (`dsm-objects`) use the tag to log which
    /// concrete writes each high-level operation observed, which is what
    /// lets the per-object sequential-spec checker reconstruct an
    /// operation's view. Engines without write tagging fall back to this
    /// default and report `None`; the causal engine overrides it.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`SharedMemory::read`].
    fn read_tagged(&self, loc: Location) -> Result<(V, Option<WriteId>), MemoryError> {
        Ok((self.read(loc)?, None))
    }

    /// Performs `w_i(x)v` and reports the write's unique tag, when the
    /// engine assigns one.
    ///
    /// The counterpart to [`SharedMemory::read_tagged`]: typed object
    /// layers log the tag of every write an operation issued so the
    /// checker can match observations to their originating operations.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`SharedMemory::write`].
    fn write_tagged(&self, loc: Location, value: V) -> Result<Option<WriteId>, MemoryError> {
        self.write(loc, value)?;
        Ok(None)
    }

    /// Discards then reads: forces the next read to consult the owner.
    ///
    /// This is the idiom the paper's liveness discussion calls for —
    /// "occasional execution of *discard* can … ensure eventual
    /// communication".
    ///
    /// # Errors
    ///
    /// Propagates errors from [`SharedMemory::read`].
    fn read_fresh(&self, loc: Location) -> Result<V, MemoryError> {
        self.discard(loc);
        self.read(loc)
    }

    /// Spins (with discard, so progress is guaranteed) until `pred` holds
    /// for the value of `loc`, returning that value.
    ///
    /// This is the paper's `wait(B)` ("while (¬B) skip") made live on a
    /// caching DSM. The predicate is taken by value and is `'static`,
    /// `Send` and `Sync`, so an implementation may hand it to whatever
    /// evaluates it (the simulator checks it on every state change, see
    /// [`Pred`]).
    ///
    /// # Errors
    ///
    /// Propagates errors from [`SharedMemory::read`].
    fn wait_until<P>(&self, loc: Location, pred: P) -> Result<V, MemoryError>
    where
        P: Fn(&V) -> bool + Send + Sync + 'static,
    {
        loop {
            let v = self.read_fresh(loc)?;
            if pred(&v) {
                return Ok(v);
            }
            std::thread::yield_now();
        }
    }
}
