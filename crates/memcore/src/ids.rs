//! Identifiers: processes, locations, pages and unique write tags.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Identifies one of the `n` processes sharing the memory.
///
/// # Examples
///
/// ```
/// let p = memcore::NodeId::new(3);
/// assert_eq!(p.index(), 3);
/// assert_eq!(p.to_string(), "P3");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a process identifier from its index.
    #[inline]
    #[must_use]
    pub fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// The process index, usable to index per-process arrays and vector
    /// clock components.
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(index: u32) -> Self {
        NodeId(index)
    }
}

/// A location (address) in the causal memory namespace `N`.
///
/// # Examples
///
/// ```
/// let x = memcore::Location::new(10);
/// assert_eq!(x.page(4).index(), 2);
/// assert_eq!(x.page_offset(4), 2);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Location(u32);

impl Location {
    /// Creates a location from its flat index.
    #[inline]
    #[must_use]
    pub fn new(index: u32) -> Self {
        Location(index)
    }

    /// The flat index of this location.
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The page containing this location for a given page size.
    ///
    /// Page size 1 gives the paper's per-location protocol; larger sizes are
    /// the paper's "scaling the unit of sharing to a page" enhancement.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is zero.
    #[must_use]
    pub fn page(self, page_size: u32) -> PageId {
        assert!(page_size > 0, "page size must be positive");
        PageId(self.0 / page_size)
    }

    /// The offset of this location within its page.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is zero.
    #[must_use]
    pub fn page_offset(self, page_size: u32) -> usize {
        assert!(page_size > 0, "page size must be positive");
        (self.0 % page_size) as usize
    }
}

impl fmt::Debug for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

impl From<u32> for Location {
    fn from(index: u32) -> Self {
        Location(index)
    }
}

/// A page: the unit of ownership, caching and invalidation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PageId(u32);

impl PageId {
    /// Creates a page identifier from its index.
    #[inline]
    #[must_use]
    pub fn new(index: u32) -> Self {
        PageId(index)
    }

    /// The page index.
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The first location of this page for a given page size.
    #[must_use]
    pub fn first_location(self, page_size: u32) -> Location {
        Location(self.0 * page_size)
    }

    /// Iterates the locations contained in this page.
    pub fn locations(self, page_size: u32) -> impl Iterator<Item = Location> {
        let base = self.0 * page_size;
        (0..page_size).map(move |o| Location(base + o))
    }
}

impl fmt::Debug for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pg{}", self.0)
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pg{}", self.0)
    }
}

/// The ownership epoch of a page under the owner-failover layer.
///
/// The Figure-4 protocol assigns each page one static owner; the failover
/// layer makes that role migratable by pairing every page with an epoch
/// that is bumped on each migration. Requests and replies carry the
/// requester's epoch; an owner serves a request only at its own current
/// epoch and NACKs stale ones with a redirect. Epoch `0` is the static
/// assignment, so a cluster with failover disabled never leaves it.
///
/// Epochs are totally ordered and the highest epoch always wins, which is
/// what resolves dueling migrations deterministically.
///
/// # Examples
///
/// ```
/// use memcore::OwnerEpoch;
///
/// let e = OwnerEpoch::ZERO;
/// assert_eq!(e.next().get(), 1);
/// assert!(e < e.next());
/// ```
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct OwnerEpoch(u32);

impl OwnerEpoch {
    /// The initial epoch: the static ownership assignment.
    pub const ZERO: OwnerEpoch = OwnerEpoch(0);

    /// Creates an epoch from its counter value.
    #[inline]
    #[must_use]
    pub fn new(epoch: u32) -> Self {
        OwnerEpoch(epoch)
    }

    /// The raw counter value.
    #[inline]
    #[must_use]
    pub fn get(self) -> u32 {
        self.0
    }

    /// The epoch after one more migration.
    #[must_use]
    pub fn next(self) -> Self {
        OwnerEpoch(self.0 + 1)
    }
}

impl fmt::Display for OwnerEpoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Uniquely tags a write operation.
///
/// The paper assumes "all writes are unique (easily implemented by
/// associating a timestamp with writes)"; this is that timestamp. It lets
/// the executable specification recover the exact reads-from relation, and
/// it lets the owner protocol detect concurrent writes for the §4.2
/// owner-favored resolution policy.
///
/// The distinguished initial writes of value 0/⊥ that the paper assumes for
/// every location are represented by [`WriteId::initial`].
///
/// # Examples
///
/// ```
/// use memcore::{Location, NodeId, WriteId};
///
/// let w = WriteId::new(NodeId::new(1), 4);
/// assert_eq!(w.writer(), Some(NodeId::new(1)));
/// assert_eq!(WriteId::initial(Location::new(9)).writer(), None);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct WriteId {
    writer: u32,
    seq: u64,
}

const INITIAL_WRITER: u32 = u32::MAX;

impl WriteId {
    /// Tags the `seq`th write performed by `writer`.
    ///
    /// # Panics
    ///
    /// Panics if `writer` is the reserved initial-write marker
    /// (`u32::MAX`).
    #[inline]
    #[must_use]
    pub fn new(writer: NodeId, seq: u64) -> Self {
        assert_ne!(
            writer.index() as u32,
            INITIAL_WRITER,
            "node index reserved for initial writes"
        );
        WriteId {
            writer: writer.index() as u32,
            seq,
        }
    }

    /// The distinguished initial write to `loc`, causally preceding all
    /// operations of every process.
    #[inline]
    #[must_use]
    pub fn initial(loc: Location) -> Self {
        WriteId {
            writer: INITIAL_WRITER,
            seq: loc.index() as u64,
        }
    }

    /// `true` iff this is an initial write.
    #[inline]
    #[must_use]
    pub fn is_initial(self) -> bool {
        self.writer == INITIAL_WRITER
    }

    /// The process that performed this write, or `None` for initial writes.
    #[inline]
    #[must_use]
    pub fn writer(self) -> Option<NodeId> {
        (!self.is_initial()).then(|| NodeId::new(self.writer))
    }

    /// The per-writer sequence number (the location index for initial
    /// writes).
    #[inline]
    #[must_use]
    pub fn seq(self) -> u64 {
        self.seq
    }
}

impl fmt::Debug for WriteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_initial() {
            write!(f, "w_init(x{})", self.seq)
        } else {
            write!(f, "w{}#{}", self.writer, self.seq)
        }
    }
}

impl fmt::Display for WriteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// The static partition of pages among processors used by every owner
/// protocol in this workspace: page `p` is owned by processor
/// `p mod n`.
///
/// The paper partitions the shared memory among processors ("the locations
/// assigned to a processor are *owned* by that processor") but leaves the
/// assignment abstract; round-robin is the simplest total assignment and the
/// experiments pick namespaces so that each application variable lands on
/// the node the paper's analysis assumes.
///
/// # Examples
///
/// ```
/// use memcore::{Location, NodeId, RoundRobinOwners};
///
/// let owners = RoundRobinOwners::new(3, 1);
/// assert_eq!(owners.owner_of(Location::new(4)), NodeId::new(1));
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundRobinOwners {
    nodes: u32,
    page_size: u32,
}

impl RoundRobinOwners {
    /// Creates the partition for `nodes` processors and a given page size.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` or `page_size` is zero.
    #[must_use]
    pub fn new(nodes: u32, page_size: u32) -> Self {
        assert!(nodes > 0, "at least one node required");
        assert!(page_size > 0, "page size must be positive");
        RoundRobinOwners { nodes, page_size }
    }

    /// Number of processors in the partition.
    #[must_use]
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    /// The configured page size.
    #[must_use]
    pub fn page_size(&self) -> u32 {
        self.page_size
    }

    /// The owner of a page.
    #[must_use]
    pub fn owner_of_page(&self, page: PageId) -> NodeId {
        NodeId::new(page.index() as u32 % self.nodes)
    }

    /// The owner of a location.
    #[must_use]
    pub fn owner_of(&self, loc: Location) -> NodeId {
        self.owner_of_page(loc.page(self.page_size))
    }

    /// `true` iff `node` owns `loc`.
    #[must_use]
    pub fn owns(&self, node: NodeId, loc: Location) -> bool {
        self.owner_of(loc) == node
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let p = NodeId::new(7);
        assert_eq!(p.index(), 7);
        assert_eq!(NodeId::from(7u32), p);
        assert_eq!(format!("{p}"), "P7");
    }

    #[test]
    fn location_page_math() {
        let x = Location::new(13);
        assert_eq!(x.page(4), PageId::new(3));
        assert_eq!(x.page_offset(4), 1);
        assert_eq!(x.page(1), PageId::new(13));
        assert_eq!(x.page_offset(1), 0);
    }

    #[test]
    #[should_panic(expected = "page size must be positive")]
    fn zero_page_size_panics() {
        let _ = Location::new(0).page(0);
    }

    #[test]
    fn page_locations_enumerate_in_order() {
        let locs: Vec<_> = PageId::new(2).locations(3).collect();
        assert_eq!(
            locs,
            vec![Location::new(6), Location::new(7), Location::new(8)]
        );
        assert_eq!(PageId::new(2).first_location(3), Location::new(6));
    }

    #[test]
    fn write_ids_are_unique_per_writer_seq() {
        let a = WriteId::new(NodeId::new(0), 0);
        let b = WriteId::new(NodeId::new(0), 1);
        let c = WriteId::new(NodeId::new(1), 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.writer(), Some(NodeId::new(0)));
        assert_eq!(b.seq(), 1);
    }

    #[test]
    fn initial_writes_are_distinguished_per_location() {
        let i0 = WriteId::initial(Location::new(0));
        let i1 = WriteId::initial(Location::new(1));
        assert!(i0.is_initial());
        assert_ne!(i0, i1);
        assert_eq!(i0.writer(), None);
        assert_eq!(format!("{i1:?}"), "w_init(x1)");
    }

    #[test]
    fn round_robin_partitions_all_pages() {
        let owners = RoundRobinOwners::new(4, 2);
        assert_eq!(owners.nodes(), 4);
        assert_eq!(owners.page_size(), 2);
        // Page p -> node p % 4; locations 2p, 2p+1.
        assert_eq!(owners.owner_of(Location::new(0)), NodeId::new(0));
        assert_eq!(owners.owner_of(Location::new(1)), NodeId::new(0));
        assert_eq!(owners.owner_of(Location::new(2)), NodeId::new(1));
        assert_eq!(owners.owner_of(Location::new(9)), NodeId::new(0));
        assert!(owners.owns(NodeId::new(1), Location::new(3)));
        assert!(!owners.owns(NodeId::new(2), Location::new(3)));
    }
}
