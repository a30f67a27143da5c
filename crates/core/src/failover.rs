//! Owner failover: liveness tracking, per-page ownership epochs, and
//! hot-standby shadow pages.
//!
//! The paper assumes "a reliable network" and owners that always answer;
//! this module makes that assumption *derived* instead of axiomatic. Each
//! page carries an [`OwnerEpoch`]: the node serving the page at epoch `e`
//! is a pure function of the static assignment,
//!
//! ```text
//! owner(page, e) = (static_owner(page) + e) mod nodes
//! ```
//!
//! so migrating a page is nothing more than agreeing (eventually, via
//! gossip on `SUSPECT` messages and NACK redirects) on a larger epoch —
//! there is no owner *table* to replicate, only a per-page counter to
//! max-merge. The successor of the owner at epoch `e` is by definition the
//! owner at epoch `e + 1`; owners ship every certified write to their
//! successor as a `REPL` shadow, so when suspicion promotes the successor
//! it already holds a causally consistent, certified copy of the page
//! (see `docs/FAULTS.md` §4 for why this preserves Definition 2).
//!
//! All of this is inert unless a [`FailoverConfig`] is attached to the
//! [`CausalConfig`](crate::CausalConfig): with failover disabled no epoch
//! is ever non-zero, no heartbeat, shadow, or stamp is ever produced, and
//! the wire traffic is byte-identical to Figure 4.

use std::sync::Arc;

use memcore::{NodeId, OwnerEpoch, OwnerMap, PageId, WriteId};
use vclock::VectorClock;

use crate::config::FailoverConfig;
use crate::fxmap::FastMap;

/// The node serving `page` at `epoch` — delegated to the owner map's
/// succession rule. Round-robin maps keep the historical
/// `(static_owner + e) mod n` rotation; a
/// [`memcore::HashRingOwners`] walks the `e`-th distinct node clockwise
/// from the page's ring position. Epoch 0 is always the static
/// assignment, so everything below this line is unchanged by the choice
/// of map.
#[must_use]
pub fn owner_at(owners: &dyn OwnerMap, page: PageId, epoch: OwnerEpoch) -> NodeId {
    owners.owner_at_epoch(page, epoch.get())
}

/// A hot-standby copy of a page, shipped by the owner after each certified
/// write. Stored outside the cache so invalidation sweeps and capacity
/// eviction never touch it; consumed on promotion.
#[derive(Clone, Debug)]
pub(crate) struct ShadowPage<V> {
    pub vt: VectorClock,
    pub slots: Vec<(Arc<V>, WriteId)>,
    pub origins: Vec<VectorClock>,
}

/// Per-node failover bookkeeping, embedded in
/// [`CausalState`](crate::CausalState) when failover is configured.
#[derive(Clone, Debug)]
pub(crate) struct FailoverState<V> {
    pub config: FailoverConfig,
    /// Per-page ownership epochs; absent means [`OwnerEpoch::ZERO`].
    pub epochs: FastMap<PageId, OwnerEpoch>,
    /// Shadow copies this node holds as some page's successor.
    pub shadows: FastMap<PageId, ShadowPage<V>>,
    /// Owned pages written since the last replication drain.
    pub pending_repl: Vec<PageId>,
    /// Last time (transport clock) each peer was heard from.
    pub last_heard: Vec<u64>,
    /// Peers currently believed crashed.
    pub suspected: Vec<bool>,
    /// Sequence number of the next outgoing heartbeat.
    pub heartbeat_seq: u64,
    /// Monotone id stamped onto each remote operation attempt, so late
    /// replies to abandoned attempts are recognizably stale.
    pub next_op: u64,
}

impl<V> FailoverState<V> {
    pub fn new(config: FailoverConfig, nodes: usize) -> Self {
        FailoverState {
            config,
            epochs: FastMap::default(),
            shadows: FastMap::default(),
            pending_repl: Vec::new(),
            last_heard: vec![0; nodes],
            suspected: vec![false; nodes],
            heartbeat_seq: 0,
            next_op: 0,
        }
    }

    pub fn epoch_of(&self, page: PageId) -> OwnerEpoch {
        self.epochs.get(&page).copied().unwrap_or(OwnerEpoch::ZERO)
    }

    /// Records that `peer` was heard from at `now`; a suspected peer that
    /// speaks again is unsuspected (it is back — as a cache-only node for
    /// any page that migrated away in the meantime).
    pub fn record_alive(&mut self, peer: NodeId, now: u64) {
        let i = peer.index();
        if let Some(t) = self.last_heard.get_mut(i) {
            *t = (*t).max(now);
            self.suspected[i] = false;
        }
    }

    /// Peers (other than `me`) whose silence now exceeds
    /// `heartbeat_interval × suspicion_threshold`; marks them suspected and
    /// returns only the *newly* suspected ones. Every peer probes every
    /// other, so every peer's silence is judged.
    pub fn check_suspicions(&mut self, me: NodeId, now: u64) -> Vec<NodeId> {
        let limit = self
            .config
            .heartbeat_interval
            .saturating_mul(u64::from(self.config.suspicion_threshold));
        let mut newly = Vec::new();
        for i in 0..self.last_heard.len() {
            if i == me.index() || self.suspected[i] {
                continue;
            }
            if now.saturating_sub(self.last_heard[i]) > limit {
                self.suspected[i] = true;
                newly.push(NodeId::new(i as u32));
            }
        }
        newly
    }

    pub fn is_suspected(&self, node: NodeId) -> bool {
        self.suspected.get(node.index()).copied().unwrap_or(false)
    }

    /// Queues `page` for replication to its successor (deduplicated).
    pub fn mark_dirty(&mut self, page: PageId) {
        if !self.pending_repl.contains(&page) {
            self.pending_repl.push(page);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memcore::RoundRobinOwners;

    #[test]
    fn owner_rotates_with_epoch_and_epoch_zero_is_static() {
        let owners = RoundRobinOwners::new(3, 1);
        let page = PageId::new(1);
        let static_owner = owners.owner_of_page(page);
        assert_eq!(owner_at(&owners, page, OwnerEpoch::ZERO), static_owner);
        assert_eq!(owner_at(&owners, page, OwnerEpoch::new(1)), NodeId::new(2));
        assert_eq!(owner_at(&owners, page, OwnerEpoch::new(2)), NodeId::new(0));
        // Full cycle returns to the static owner.
        assert_eq!(owner_at(&owners, page, OwnerEpoch::new(3)), static_owner);
    }

    #[test]
    fn suspicion_fires_after_threshold_and_clears_on_contact() {
        let mut fo: FailoverState<memcore::Word> = FailoverState::new(FailoverConfig::default(), 3);
        let me = NodeId::new(0);
        // interval 25 × threshold 4 = 100: silence of exactly 100 is fine.
        assert!(fo.check_suspicions(me, 100).is_empty());
        let newly = fo.check_suspicions(me, 101);
        assert_eq!(newly, vec![NodeId::new(1), NodeId::new(2)]);
        // Already suspected: not reported again.
        assert!(fo.check_suspicions(me, 500).is_empty());
        assert!(fo.is_suspected(NodeId::new(1)));
        // Hearing from it clears the suspicion.
        fo.record_alive(NodeId::new(1), 600);
        assert!(!fo.is_suspected(NodeId::new(1)));
        assert!(fo.is_suspected(NodeId::new(2)));
    }

    #[test]
    fn dirty_pages_are_deduplicated() {
        let mut fo: FailoverState<memcore::Word> = FailoverState::new(FailoverConfig::default(), 2);
        fo.mark_dirty(PageId::new(3));
        fo.mark_dirty(PageId::new(1));
        fo.mark_dirty(PageId::new(3));
        assert_eq!(fo.pending_repl, vec![PageId::new(3), PageId::new(1)]);
    }
}
