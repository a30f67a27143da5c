//! Message statistics: the instrument behind the paper's §4.1
//! message-counting argument.
//!
//! Every transport in this workspace records each protocol message it
//! carries, keyed by *sending* node and message kind. The solver experiment
//! (E6 in `DESIGN.md`) reads these counters to reproduce the paper's
//! `2n + 6` vs `3n + 5` per-processor-per-iteration comparison.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::NodeId;

/// Well-known counter kinds for fault and session-layer accounting.
///
/// Protocol messages are counted under their own kinds (`"READ"`,
/// `"W_REPLY"`, …). The fault-injection and reliable-delivery layers
/// (`dsm-faults`) add bookkeeping events under these names so overhead is
/// separable from protocol cost in any [`StatsSnapshot`].
pub mod kinds {
    /// A session-layer retransmission of an unacknowledged message.
    pub const RETX: &str = "RETX";
    /// A duplicate copy delivered by the (faulty) network.
    pub const DUP: &str = "DUP";
    /// A message dropped by the network (loss, partition, or dead node).
    pub const DROP: &str = "DROP";
    /// A session-layer cumulative acknowledgement.
    pub const ACK: &str = "ACK";
    /// A failure-detector liveness probe (owner-failover layer).
    pub const HEARTBEAT: &str = "HEARTBEAT";
    /// A suspicion broadcast announcing a migrated ownership epoch.
    pub const SUSPECT: &str = "SUSPECT";
    /// A stale-epoch rejection carrying the current owner as a redirect.
    pub const NACK: &str = "NACK";
    /// A hot-standby shadow copy shipped to a page's successor.
    pub const REPL: &str = "REPL";
    /// An interest-set update: a node telling a page's owner it no longer
    /// caches the page (partial-replication layer). Registration is
    /// implicit in the first READ/WRITE, so only drops are messages.
    pub const INTEREST: &str = "INTEREST";
    /// A session-layer incarnation announcement: a restarted node (or a
    /// peer fencing its stale frames) advertising its current
    /// incarnation so both ends rebase their sequence spaces.
    pub const HELLO: &str = "HELLO";
    /// A transport envelope carrying several logical messages (batching).
    ///
    /// Never recorded in the *logical* per-kind counters — those always see
    /// the constituent messages under their own kinds — only in the
    /// physical-envelope counters, where one batch is one send.
    pub const BATCH: &str = "BATCH";

    /// Every overhead kind, as an enum so the overhead/protocol split in
    /// [`StatsSnapshot`](super::StatsSnapshot) stays exhaustive by
    /// construction: adding a variant without extending [`Overhead::name`]
    /// or [`Overhead::VARIANTS`] is a compile error, so a new bookkeeping
    /// kind can never be silently misclassified as protocol traffic.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    #[repr(usize)]
    pub enum Overhead {
        /// [`RETX`].
        Retx = 0,
        /// [`DUP`].
        Dup,
        /// [`DROP`].
        Drop,
        /// [`ACK`].
        Ack,
        /// [`HEARTBEAT`].
        Heartbeat,
        /// [`SUSPECT`].
        Suspect,
        /// [`NACK`].
        Nack,
        /// [`REPL`].
        Repl,
        /// [`INTEREST`].
        Interest,
        /// [`HELLO`].
        Hello,
    }

    impl Overhead {
        /// Number of overhead kinds.
        pub const COUNT: usize = Overhead::Hello as usize + 1;

        /// Every variant, in discriminant order (checked at compile time
        /// below).
        pub const VARIANTS: [Overhead; Overhead::COUNT] = [
            Overhead::Retx,
            Overhead::Dup,
            Overhead::Drop,
            Overhead::Ack,
            Overhead::Heartbeat,
            Overhead::Suspect,
            Overhead::Nack,
            Overhead::Repl,
            Overhead::Interest,
            Overhead::Hello,
        ];

        /// The counter name this kind is recorded under. The match is
        /// deliberately wildcard-free: extending the enum forces the name —
        /// and through [`ALL`], the overhead split — to follow.
        #[must_use]
        pub const fn name(self) -> &'static str {
            match self {
                Overhead::Retx => RETX,
                Overhead::Dup => DUP,
                Overhead::Drop => DROP,
                Overhead::Ack => ACK,
                Overhead::Heartbeat => HEARTBEAT,
                Overhead::Suspect => SUSPECT,
                Overhead::Nack => NACK,
                Overhead::Repl => REPL,
                Overhead::Interest => INTEREST,
                Overhead::Hello => HELLO,
            }
        }
    }

    // Compile-time exhaustiveness: VARIANTS must list every variant exactly
    // once, in order. Forgetting one fails this constant's evaluation.
    const _: () = {
        let mut i = 0;
        while i < Overhead::COUNT {
            assert!(
                Overhead::VARIANTS[i] as usize == i,
                "kinds::Overhead::VARIANTS must list every overhead kind in order"
            );
            i += 1;
        }
    };

    /// All fault/session bookkeeping kinds, for filtering reports. Derived
    /// from [`Overhead`] so it can never drift from the enum.
    pub const ALL: [&str; Overhead::COUNT] = {
        let mut out = [""; Overhead::COUNT];
        let mut i = 0;
        while i < Overhead::COUNT {
            out[i] = Overhead::VARIANTS[i].name();
            i += 1;
        }
        out
    };

    /// `true` iff `kind` is fault/session/failover bookkeeping rather than
    /// protocol traffic.
    #[must_use]
    pub fn is_overhead(kind: &str) -> bool {
        let mut i = 0;
        while i < Overhead::COUNT {
            if ALL[i].as_bytes() == kind.as_bytes() {
                return true;
            }
            i += 1;
        }
        false
    }
}

/// One node's counters: a slot per kind seen so far, in first-seen order.
///
/// A dozen kinds exist, and a sender names the same few over and over, so
/// a linear scan of a small vector is the whole lookup — no hashing or
/// tree walk of the kind string on the per-message path.
#[derive(Debug, Default)]
struct KindSlots(Vec<(&'static str, u64)>);

impl KindSlots {
    fn add(&mut self, kind: &'static str, n: u64) {
        // Kinds are literals, so a repeat is almost always the very same
        // pointer; contents are compared only to catch a second copy of
        // one name (two crates, two literals).
        match self
            .0
            .iter_mut()
            .find(|(k, _)| std::ptr::eq(*k, kind) || *k == kind)
        {
            Some((_, count)) => *count += n,
            None => self.0.push((kind, n)),
        }
    }
}

/// Shared, thread-safe message counters, one slot per (node, kind).
///
/// Cheap to clone (internally shared).
///
/// # Examples
///
/// ```
/// use memcore::{NetStats, NodeId};
///
/// let stats = NetStats::new(2);
/// stats.record(NodeId::new(0), "READ");
/// stats.record(NodeId::new(0), "READ");
/// stats.record(NodeId::new(1), "R_REPLY");
/// let snap = stats.snapshot();
/// assert_eq!(snap.total(), 3);
/// assert_eq!(snap.node_total(NodeId::new(0)), 2);
/// assert_eq!(snap.kind_total("READ"), 2);
/// ```
#[derive(Clone, Debug)]
pub struct NetStats {
    nodes: Arc<Vec<Mutex<KindSlots>>>,
}

impl NetStats {
    /// Creates counters for `n` nodes.
    #[must_use]
    pub fn new(n: usize) -> Self {
        NetStats {
            nodes: Arc::new((0..n).map(|_| Mutex::default()).collect()),
        }
    }

    /// Counts one message of `kind` sent by `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn record(&self, node: NodeId, kind: &'static str) {
        self.record_n(node, kind, 1);
    }

    /// Adds `n` to the counter for (`node`, `kind`) — used for byte
    /// accounting, where one message contributes its encoded size.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn record_n(&self, node: NodeId, kind: &'static str, n: u64) {
        self.nodes[node.index()].lock().add(kind, n);
    }

    /// Takes a consistent copy of all counters.
    #[must_use]
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            per_node: self
                .nodes
                .iter()
                .map(|m| {
                    m.lock()
                        .0
                        .iter()
                        .map(|(k, v)| ((*k).to_owned(), *v))
                        .collect()
                })
                .collect(),
        }
    }

    /// Resets all counters to zero (scopes measurement to a program phase).
    pub fn clear(&self) {
        for m in self.nodes.iter() {
            m.lock().0.clear();
        }
    }
}

/// An immutable copy of message counters at one instant.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatsSnapshot {
    per_node: Vec<BTreeMap<String, u64>>,
}

impl StatsSnapshot {
    /// Total messages sent system-wide.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.per_node.iter().flat_map(|m| m.values()).sum()
    }

    /// Total messages sent by one node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn node_total(&self, node: NodeId) -> u64 {
        self.per_node[node.index()].values().sum()
    }

    /// Total messages of one kind, across nodes.
    #[must_use]
    pub fn kind_total(&self, kind: &str) -> u64 {
        self.per_node.iter().filter_map(|m| m.get(kind)).sum()
    }

    /// Count for a single (node, kind) cell.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn get(&self, node: NodeId, kind: &str) -> u64 {
        self.per_node[node.index()].get(kind).copied().unwrap_or(0)
    }

    /// Per-kind totals, for reporting.
    #[must_use]
    pub fn by_kind(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for m in &self.per_node {
            for (k, v) in m {
                *out.entry(k.clone()).or_insert(0) += v;
            }
        }
        out
    }

    /// Messages per node, in node order.
    #[must_use]
    pub fn per_node_totals(&self) -> Vec<u64> {
        self.per_node.iter().map(|m| m.values().sum()).collect()
    }

    /// Total fault/session bookkeeping messages ([`kinds::ALL`]): the
    /// overhead the reliable-delivery layer paid on top of the protocol.
    #[must_use]
    pub fn overhead_total(&self) -> u64 {
        kinds::ALL.iter().map(|k| self.kind_total(k)).sum()
    }

    /// Total protocol messages, excluding fault/session bookkeeping — the
    /// quantity the paper's §4.1 message-counting argument is about.
    #[must_use]
    pub fn protocol_total(&self) -> u64 {
        self.total() - self.overhead_total()
    }

    /// The difference `self - earlier`, cell-wise (saturating at zero).
    ///
    /// Used to measure one phase of a long-running program.
    #[must_use]
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        let mut per_node = Vec::with_capacity(self.per_node.len());
        for (i, m) in self.per_node.iter().enumerate() {
            let base = earlier.per_node.get(i);
            per_node.push(
                m.iter()
                    .map(|(k, v)| {
                        let b = base.and_then(|bm| bm.get(k)).copied().unwrap_or(0);
                        (k.clone(), v.saturating_sub(b))
                    })
                    .filter(|(_, v)| *v > 0)
                    .collect(),
            );
        }
        StatsSnapshot { per_node }
    }
}

impl fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "total messages: {}", self.total())?;
        for (kind, count) in self.by_kind() {
            writeln!(f, "  {kind:<12} {count}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_node_and_kind() {
        let stats = NetStats::new(3);
        stats.record(NodeId::new(0), "READ");
        stats.record(NodeId::new(1), "READ");
        stats.record(NodeId::new(1), "WRITE");
        let snap = stats.snapshot();
        assert_eq!(snap.total(), 3);
        assert_eq!(snap.node_total(NodeId::new(1)), 2);
        assert_eq!(snap.kind_total("READ"), 2);
        assert_eq!(snap.kind_total("WRITE"), 1);
        assert_eq!(snap.get(NodeId::new(1), "WRITE"), 1);
        assert_eq!(snap.get(NodeId::new(2), "WRITE"), 0);
        assert_eq!(snap.per_node_totals(), vec![1, 2, 0]);
    }

    #[test]
    fn equal_kind_names_share_a_slot_whatever_their_address() {
        // Two copies of one name (as two crates' literals would be) must
        // land in one cell, and a zero-count cell is still a cell — both
        // exactly as the map-backed counters behaved.
        let copy: &'static str = Box::leak(String::from("READ").into_boxed_str());
        assert!(!std::ptr::eq(copy, "READ"));
        let stats = NetStats::new(1);
        stats.record(NodeId::new(0), "READ");
        stats.record(NodeId::new(0), copy);
        stats.record_n(NodeId::new(0), "WRITE", 0);
        let snap = stats.snapshot();
        assert_eq!(snap.get(NodeId::new(0), "READ"), 2);
        assert_eq!(snap.by_kind().len(), 2);
        assert_eq!(snap.total(), 2);
    }

    #[test]
    fn clear_zeroes_counters() {
        let stats = NetStats::new(1);
        stats.record(NodeId::new(0), "READ");
        stats.clear();
        assert_eq!(stats.snapshot().total(), 0);
    }

    #[test]
    fn since_subtracts_cellwise() {
        let stats = NetStats::new(2);
        stats.record(NodeId::new(0), "READ");
        let before = stats.snapshot();
        stats.record(NodeId::new(0), "READ");
        stats.record(NodeId::new(1), "WRITE");
        let delta = stats.snapshot().since(&before);
        assert_eq!(delta.total(), 2);
        assert_eq!(delta.get(NodeId::new(0), "READ"), 1);
        assert_eq!(delta.get(NodeId::new(1), "WRITE"), 1);
    }

    #[test]
    fn by_kind_aggregates_across_nodes() {
        let stats = NetStats::new(2);
        stats.record(NodeId::new(0), "A");
        stats.record(NodeId::new(1), "A");
        stats.record(NodeId::new(1), "B");
        let by_kind = stats.snapshot().by_kind();
        assert_eq!(by_kind["A"], 2);
        assert_eq!(by_kind["B"], 1);
    }

    #[test]
    fn overhead_is_separable_from_protocol() {
        let stats = NetStats::new(2);
        stats.record(NodeId::new(0), "READ");
        stats.record(NodeId::new(0), kinds::RETX);
        stats.record(NodeId::new(1), kinds::ACK);
        stats.record(NodeId::new(1), kinds::DUP);
        stats.record(NodeId::new(1), kinds::DROP);
        let snap = stats.snapshot();
        assert_eq!(snap.overhead_total(), 4);
        assert_eq!(snap.protocol_total(), 1);
        assert_eq!(snap.total(), 5);
    }

    #[test]
    fn failover_kinds_count_as_overhead() {
        // The exhaustive enum is what keeps this true: HEARTBEAT/SUSPECT/
        // NACK/REPL must land on the overhead side of the split.
        let stats = NetStats::new(1);
        stats.record(NodeId::new(0), "WRITE");
        stats.record(NodeId::new(0), kinds::HEARTBEAT);
        stats.record(NodeId::new(0), kinds::SUSPECT);
        stats.record(NodeId::new(0), kinds::NACK);
        stats.record(NodeId::new(0), kinds::REPL);
        stats.record(NodeId::new(0), kinds::INTEREST);
        stats.record(NodeId::new(0), kinds::HELLO);
        let snap = stats.snapshot();
        assert_eq!(snap.overhead_total(), 6);
        assert_eq!(snap.protocol_total(), 1);
        for kind in kinds::ALL {
            assert!(kinds::is_overhead(kind), "{kind} misclassified");
        }
        assert!(!kinds::is_overhead("WRITE"));
        assert!(!kinds::is_overhead(kinds::BATCH), "BATCH is envelope-only");
        for (i, v) in kinds::Overhead::VARIANTS.iter().enumerate() {
            assert_eq!(kinds::ALL[i], v.name());
        }
    }

    #[test]
    fn display_lists_kinds() {
        let stats = NetStats::new(1);
        stats.record(NodeId::new(0), "READ");
        let text = stats.snapshot().to_string();
        assert!(text.contains("total messages: 1"));
        assert!(text.contains("READ"));
    }

    #[test]
    fn clones_share_counters() {
        let stats = NetStats::new(1);
        let stats2 = stats.clone();
        stats2.record(NodeId::new(0), "READ");
        assert_eq!(stats.snapshot().total(), 1);
    }
}
