//! Ownership assignment: which processor owns which page.
//!
//! The paper partitions the shared memory among processors ("the locations
//! assigned to a processor are *owned* by that processor") but leaves the
//! assignment policy abstract. Engines take any [`OwnerMap`]; the
//! applications use [`ExplicitOwners`] to pin each variable to the node the
//! paper's analysis assumes (e.g. `P_i` owns `x_i` and its handshake bits in
//! §4.1, and row `i` of the dictionary in §4.2).

use std::fmt;
use std::sync::Arc;

use crate::{Location, NodeId, PageId, RoundRobinOwners};

/// Maps every page to its owning processor.
///
/// Implementations must be total over the namespace and stable for the
/// lifetime of a cluster: this is the *static* (epoch-zero) assignment the
/// paper's protocol uses directly. The owner-failover layer layers
/// per-page [`OwnerEpoch`](crate::OwnerEpoch)s on top — the node serving a
/// page at epoch `e` is derived deterministically from the static owner —
/// so the map itself never changes even when the serving node does.
pub trait OwnerMap: Send + Sync + 'static {
    /// Number of processors.
    fn nodes(&self) -> u32;

    /// The unit of sharing, in locations per page. Page size 1 is the
    /// paper's per-location protocol.
    fn page_size(&self) -> u32;

    /// The owner of `page`.
    fn owner_of_page(&self, page: PageId) -> NodeId;

    /// The owner of the page containing `loc`.
    fn owner_of(&self, loc: Location) -> NodeId {
        self.owner_of_page(loc.page(self.page_size()))
    }

    /// `true` iff `node` owns the page containing `loc`.
    fn owns(&self, node: NodeId, loc: Location) -> bool {
        self.owner_of(loc) == node
    }

    /// The node serving `page` at ownership epoch `epoch`.
    ///
    /// Epoch 0 must equal [`OwnerMap::owner_of_page`]; each epoch bump
    /// (one suspected-owner migration) moves the page to the next node in
    /// the map's deterministic succession order. The default is the
    /// failover layer's original formula, `(static_owner + e) mod n`;
    /// ring-structured maps override it so succession follows the ring.
    fn owner_at_epoch(&self, page: PageId, epoch: u32) -> NodeId {
        let base = self.owner_of_page(page).index() as u32;
        NodeId::new((base + epoch % self.nodes()) % self.nodes())
    }
}

impl OwnerMap for RoundRobinOwners {
    fn nodes(&self) -> u32 {
        RoundRobinOwners::nodes(self)
    }

    fn page_size(&self) -> u32 {
        RoundRobinOwners::page_size(self)
    }

    fn owner_of_page(&self, page: PageId) -> NodeId {
        RoundRobinOwners::owner_of_page(self, page)
    }
}

impl<T: OwnerMap + ?Sized> OwnerMap for Arc<T> {
    fn nodes(&self) -> u32 {
        (**self).nodes()
    }

    fn page_size(&self) -> u32 {
        (**self).page_size()
    }

    fn owner_of_page(&self, page: PageId) -> NodeId {
        (**self).owner_of_page(page)
    }

    fn owner_at_epoch(&self, page: PageId, epoch: u32) -> NodeId {
        (**self).owner_at_epoch(page, epoch)
    }
}

/// An explicit page-to-owner table.
///
/// # Examples
///
/// ```
/// use memcore::{ExplicitOwners, Location, NodeId, OwnerMap};
///
/// // Three pages, owned by P1, P0, P1 respectively; one location per page.
/// let owners = ExplicitOwners::new(2, 1, vec![
///     NodeId::new(1),
///     NodeId::new(0),
///     NodeId::new(1),
/// ]);
/// assert_eq!(owners.owner_of(Location::new(2)), NodeId::new(1));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExplicitOwners {
    nodes: u32,
    page_size: u32,
    table: Vec<NodeId>,
}

impl ExplicitOwners {
    /// Creates an explicit assignment; `table[p]` owns page `p`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` or `page_size` is zero, the table is empty, or any
    /// entry names a node `>= nodes`.
    #[must_use]
    pub fn new(nodes: u32, page_size: u32, table: Vec<NodeId>) -> Self {
        assert!(nodes > 0, "at least one node required");
        assert!(page_size > 0, "page size must be positive");
        assert!(!table.is_empty(), "owner table must not be empty");
        for owner in &table {
            assert!(
                (owner.index() as u32) < nodes,
                "owner {owner} out of range for {nodes} nodes"
            );
        }
        ExplicitOwners {
            nodes,
            page_size,
            table,
        }
    }

    /// Number of pages covered by the table. Pages past the end fall back
    /// to round-robin.
    #[must_use]
    pub fn table_len(&self) -> usize {
        self.table.len()
    }
}

impl OwnerMap for ExplicitOwners {
    fn nodes(&self) -> u32 {
        self.nodes
    }

    fn page_size(&self) -> u32 {
        self.page_size
    }

    fn owner_of_page(&self, page: PageId) -> NodeId {
        self.table
            .get(page.index())
            .copied()
            .unwrap_or_else(|| NodeId::new(page.index() as u32 % self.nodes))
    }
}

impl fmt::Display for ExplicitOwners {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ExplicitOwners({} nodes, {} pages)",
            self.nodes,
            self.table.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_implements_owner_map() {
        let owners: &dyn OwnerMap = &RoundRobinOwners::new(3, 2);
        assert_eq!(owners.nodes(), 3);
        assert_eq!(owners.page_size(), 2);
        assert_eq!(owners.owner_of(Location::new(2)), NodeId::new(1));
        assert!(owners.owns(NodeId::new(1), Location::new(3)));
    }

    #[test]
    fn explicit_table_lookup() {
        let owners =
            ExplicitOwners::new(3, 1, vec![NodeId::new(2), NodeId::new(2), NodeId::new(0)]);
        assert_eq!(owners.owner_of_page(PageId::new(0)), NodeId::new(2));
        assert_eq!(owners.owner_of_page(PageId::new(2)), NodeId::new(0));
        assert_eq!(owners.table_len(), 3);
        // Past the table: round-robin fallback.
        assert_eq!(owners.owner_of_page(PageId::new(4)), NodeId::new(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn explicit_rejects_out_of_range_owner() {
        let _ = ExplicitOwners::new(2, 1, vec![NodeId::new(5)]);
    }

    #[test]
    fn arc_delegation_works() {
        let owners = Arc::new(RoundRobinOwners::new(2, 1));
        assert_eq!(owners.owner_of(Location::new(3)), NodeId::new(1));
        let dynamic: Arc<dyn OwnerMap> = owners;
        assert_eq!(dynamic.owner_of(Location::new(3)), NodeId::new(1));
    }
}
