//! Consistent-hash page ownership: the scale-out generalization of the
//! failover layer's `(static_owner + e) mod n` succession.
//!
//! [`HashRingOwners`] places every node on a hash ring at
//! [`HashRingOwners::vnodes`] pseudo-random points (virtual nodes) and
//! assigns each page to the first node clockwise of the page's own hash.
//! Ownership stays *computed, never stored* — any node can derive any
//! page's owner (at any epoch) from the membership count alone, which is
//! what lets the failover layer's NACK/redirect machinery work unchanged
//! on top: epoch `e` of a page is served by the `e`-th distinct node
//! walking clockwise from the page's position.
//!
//! Compared to round-robin, the ring buys two scale properties:
//!
//! * **Minimal reshuffle.** Growing the membership from `n` to `n+1`
//!   nodes moves only the pages whose arc the new node's points capture —
//!   O(pages/n) in expectation — instead of remapping almost everything
//!   the way `page % n` does.
//! * **A circular node order.** The ring induces a deterministic order
//!   of the nodes ([`HashRingOwners::ring_order`]), so a workload can
//!   give each node a ring neighbourhood to work in.
//!
//! Hashing is a fixed splitmix64 — fully deterministic across runs and
//! processes, like every other seed-driven component in this workspace.

use std::fmt;

use crate::{NodeId, OwnerMap, PageId};

/// Finalizer from splitmix64: a fast, well-mixed, deterministic 64-bit
/// hash. Good enough for ring placement (we need spread, not adversarial
/// collision resistance) and dependency-free.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Where node `node`'s `v`th virtual node sits on the ring.
fn vnode_point(node: u32, v: u32) -> u64 {
    mix64(((node as u64) << 32) | v as u64)
}

/// Where a page sits on the ring (salted so pages and vnodes draw from
/// different streams even at equal raw values).
fn page_point(page: u32) -> u64 {
    mix64(0x5CA1_AB1E_0000_0000 ^ page as u64)
}

/// Consistent-hash ownership with virtual nodes.
///
/// # Examples
///
/// ```
/// use memcore::{HashRingOwners, OwnerMap, PageId};
///
/// let ring = HashRingOwners::new(4, 1, 64);
/// let page = PageId::new(7);
/// let owner = ring.owner_of_page(page);
/// // Epoch 0 is the static owner; epoch 1 is the next distinct node
/// // clockwise, and succession cycles through all members.
/// assert_eq!(ring.owner_at_epoch(page, 0), owner);
/// assert_ne!(ring.owner_at_epoch(page, 1), owner);
/// assert_eq!(ring.owner_at_epoch(page, 4), owner);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HashRingOwners {
    nodes: u32,
    page_size: u32,
    vnodes: u32,
    /// All virtual-node points, sorted by position (ties broken by node
    /// id, so the ring is well-defined even under hash collisions).
    ring: Vec<(u64, NodeId)>,
}

impl HashRingOwners {
    /// Builds the ring for `nodes` members with `vnodes` virtual nodes
    /// each.
    ///
    /// More virtual nodes smooth the page distribution (relative spread
    /// shrinks roughly with `1/sqrt(vnodes)`); 64 is plenty for the
    /// cluster sizes the sim runs.
    ///
    /// # Panics
    ///
    /// Panics if `nodes`, `page_size`, or `vnodes` is zero.
    #[must_use]
    pub fn new(nodes: u32, page_size: u32, vnodes: u32) -> Self {
        assert!(nodes > 0, "at least one node required");
        assert!(page_size > 0, "page size must be positive");
        assert!(vnodes > 0, "at least one virtual node per node required");
        let mut ring = Vec::with_capacity(nodes as usize * vnodes as usize);
        for node in 0..nodes {
            for v in 0..vnodes {
                ring.push((vnode_point(node, v), NodeId::new(node)));
            }
        }
        ring.sort_unstable();
        HashRingOwners {
            nodes,
            page_size,
            vnodes,
            ring,
        }
    }

    /// Number of processors on the ring.
    #[must_use]
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    /// Locations per page.
    #[must_use]
    pub fn page_size(&self) -> u32 {
        self.page_size
    }

    /// Virtual nodes per member.
    #[must_use]
    pub fn vnodes(&self) -> u32 {
        self.vnodes
    }

    /// The circular node order the ring induces: every node once, sorted
    /// by its first (lowest) point on the ring.
    #[must_use]
    pub fn ring_order(&self) -> Vec<NodeId> {
        let mut seen = vec![false; self.nodes as usize];
        let mut order = Vec::with_capacity(self.nodes as usize);
        for &(_, node) in &self.ring {
            if !std::mem::replace(&mut seen[node.index()], true) {
                order.push(node);
            }
        }
        order
    }

    /// Index into `ring` of the first point at or clockwise of `h`.
    fn successor_index(&self, h: u64) -> usize {
        match self.ring.binary_search(&(h, NodeId::new(0))) {
            Ok(i) => i,
            Err(i) if i == self.ring.len() => 0,
            Err(i) => i,
        }
    }

    /// The distinct nodes met walking clockwise from `page`'s position:
    /// element 0 is the static owner, element `e % n` serves epoch `e`.
    fn succession(&self, page: PageId) -> Vec<NodeId> {
        let start = self.successor_index(page_point(page.index() as u32));
        let mut seen = vec![false; self.nodes as usize];
        let mut walk = Vec::with_capacity(self.nodes as usize);
        for i in 0..self.ring.len() {
            let (_, node) = self.ring[(start + i) % self.ring.len()];
            if !seen[node.index()] {
                seen[node.index()] = true;
                walk.push(node);
                if walk.len() == self.nodes as usize {
                    break;
                }
            }
        }
        walk
    }
}

impl OwnerMap for HashRingOwners {
    fn nodes(&self) -> u32 {
        self.nodes
    }

    fn page_size(&self) -> u32 {
        self.page_size
    }

    fn owner_of_page(&self, page: PageId) -> NodeId {
        let at = self.successor_index(page_point(page.index() as u32));
        self.ring[at].1
    }

    fn owner_at_epoch(&self, page: PageId, epoch: u32) -> NodeId {
        if epoch == 0 {
            return self.owner_of_page(page);
        }
        let walk = self.succession(page);
        walk[(epoch as usize) % walk.len()]
    }
}

impl fmt::Display for HashRingOwners {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "HashRingOwners({} nodes x {} vnodes, page_size {})",
            self.nodes, self.vnodes, self.page_size
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Location;

    #[test]
    fn ring_is_deterministic_and_total() {
        let a = HashRingOwners::new(5, 2, 16);
        let b = HashRingOwners::new(5, 2, 16);
        for p in 0..1000u32 {
            let page = PageId::new(p);
            assert_eq!(a.owner_of_page(page), b.owner_of_page(page));
            assert!(a.owner_of_page(page).index() < 5);
        }
        assert_eq!(a, b);
        assert_eq!(
            a.owner_of(Location::new(3)),
            a.owner_of_page(PageId::new(1))
        );
        assert!(a.owns(a.owner_of(Location::new(9)), Location::new(9)));
    }

    #[test]
    fn epoch_zero_is_static_owner_and_succession_cycles() {
        let ring = HashRingOwners::new(4, 1, 32);
        for p in 0..64u32 {
            let page = PageId::new(p);
            assert_eq!(ring.owner_at_epoch(page, 0), ring.owner_of_page(page));
            // One full cycle returns to the static owner...
            assert_eq!(ring.owner_at_epoch(page, 4), ring.owner_of_page(page));
            // ...and the first n epochs visit n distinct nodes.
            let mut seen: Vec<NodeId> = (0..4).map(|e| ring.owner_at_epoch(page, e)).collect();
            seen.sort();
            seen.dedup();
            assert_eq!(seen.len(), 4, "page {p} epochs revisit a node early");
        }
    }

    #[test]
    fn ring_order_sorts_nodes_by_their_lowest_point() {
        let ring = HashRingOwners::new(9, 1, 8);
        let mut firsts: Vec<(u64, NodeId)> = (0..9)
            .map(|node| {
                let lowest = (0..8).map(|v| vnode_point(node, v)).min().unwrap();
                (lowest, NodeId::new(node))
            })
            .collect();
        firsts.sort_unstable();
        let expected: Vec<NodeId> = firsts.into_iter().map(|(_, node)| node).collect();
        assert_eq!(ring.ring_order(), expected);
    }

    #[test]
    fn single_node_ring_owns_everything() {
        let ring = HashRingOwners::new(1, 4, 8);
        assert_eq!(ring.owner_of_page(PageId::new(123)), NodeId::new(0));
        assert_eq!(ring.owner_at_epoch(PageId::new(123), 7), NodeId::new(0));
        assert_eq!(ring.ring_order(), vec![NodeId::new(0)]);
    }
}
