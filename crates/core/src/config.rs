//! Configuration of the causal owner protocol.

use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

use dsm_durable::DurableConfig;
use memcore::{OwnerMap, PageId, RoundRobinOwners, Value};

/// Which cache sweeps run when a new value is introduced.
///
/// The paper's prose says values are invalidated "each time a new value is
/// introduced into local memory by a read or write", but its Figure 4
/// pseudocode only sweeps on read-miss completion and at the owner when
/// servicing a remote `WRITE` — the *writer* of a remote write does not
/// sweep on `W_REPLY`. Both readings are implemented; the difference is an
/// ablation (A1 in `DESIGN.md`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum InvalidationMode {
    /// Exactly Figure 4: no sweep at the writer on `W_REPLY`.
    #[default]
    PaperExact,
    /// Additionally sweep the writer's cache with the merged timestamp when
    /// a remote write completes.
    WriterInvalidate,
}

/// How an owner resolves a remote write that is *concurrent* with the value
/// currently installed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum WritePolicy {
    /// Always install the incoming write (the arriving write's merged
    /// timestamp dominates, so owner memory remains monotone).
    #[default]
    LastArrival,
    /// §4.2: "writes by the owner are always favored when resolving
    /// concurrent writes" — an incoming write concurrent with a value the
    /// owner itself wrote is rejected, and the reply carries the surviving
    /// value so the loser's cache converges. The distributed dictionary
    /// relies on this policy.
    OwnerFavored,
}

/// Configuration of the owner-failover layer: heartbeat failure detection,
/// hot-standby replication to each page's deterministic successor, and
/// epoch-stamped ownership migration (see `docs/FAULTS.md` §4).
///
/// Attached via [`CausalConfigBuilder::failover`]; absent (the default),
/// the protocol is byte-identical to Figure 4 — no heartbeats, no stamps,
/// no shadow copies.
///
/// Time quantities are in transport time units: simulator ticks under the
/// deterministic simulator, milliseconds under the threaded engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FailoverConfig {
    /// Interval between liveness probes to every peer.
    pub heartbeat_interval: u64,
    /// Consecutive missed heartbeat intervals before a peer is suspected
    /// and its pages migrate to their successors.
    pub suspicion_threshold: u32,
    /// Base delay of the exponential retry backoff after a timed-out or
    /// NACKed owner round-trip.
    pub backoff_base: u64,
    /// Ceiling of the exponential retry backoff.
    pub backoff_max: u64,
    /// Retries (redirects or timeouts) an operation consumes before
    /// surfacing [`memcore::MemoryError::Timeout`].
    pub max_retries: u32,
}

impl Default for FailoverConfig {
    fn default() -> Self {
        FailoverConfig {
            heartbeat_interval: 25,
            suspicion_threshold: 4,
            backoff_base: 10,
            backoff_max: 400,
            max_retries: 8,
        }
    }
}

impl FailoverConfig {
    /// The retry backoff before attempt `attempt` (0-based), with a small
    /// deterministic jitter derived from `salt` so colliding retriers
    /// spread out identically on replay.
    #[must_use]
    pub fn backoff(&self, attempt: u32, salt: u64) -> u64 {
        let exp = self
            .backoff_base
            .saturating_mul(1u64 << attempt.min(16))
            .min(self.backoff_max);
        // Deterministic jitter in [0, exp/4]: a cheap hash of the salt.
        let jitter = (salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48) % (exp / 4 + 1);
        exp + jitter
    }
}

/// Full configuration of a causal DSM instance.
///
/// Build with [`CausalConfig::builder`].
#[derive(Clone)]
pub struct CausalConfig<V> {
    nodes: u32,
    locations: u32,
    owners: Arc<dyn OwnerMap>,
    initial: V,
    invalidation: InvalidationMode,
    policy: WritePolicy,
    cache_capacity: Option<usize>,
    const_pages: HashSet<PageId>,
    pipeline_window: u32,
    batching: bool,
    failover: Option<FailoverConfig>,
    interest_scoping: bool,
    durability: Option<DurableConfig>,
}

impl<V: Value> CausalConfig<V> {
    /// Starts building a configuration for `nodes` processors sharing
    /// `locations` locations (round-robin page ownership by default).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` or `locations` is zero.
    #[must_use]
    pub fn builder(nodes: u32, locations: u32) -> CausalConfigBuilder<V>
    where
        V: Default,
    {
        CausalConfigBuilder::new(nodes, locations)
    }

    /// Number of processors.
    #[must_use]
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    /// Size of the shared namespace, in locations.
    #[must_use]
    pub fn locations(&self) -> u32 {
        self.locations
    }

    /// The ownership assignment.
    #[must_use]
    pub fn owners(&self) -> &Arc<dyn OwnerMap> {
        &self.owners
    }

    /// Locations per page.
    #[must_use]
    pub fn page_size(&self) -> u32 {
        self.owners.page_size()
    }

    /// Number of pages in the namespace.
    #[must_use]
    pub fn page_count(&self) -> u32 {
        self.locations.div_ceil(self.page_size())
    }

    /// The distinguished initial value every location starts with.
    #[must_use]
    pub fn initial(&self) -> &V {
        &self.initial
    }

    /// The configured invalidation mode.
    #[must_use]
    pub fn invalidation(&self) -> InvalidationMode {
        self.invalidation
    }

    /// The configured concurrent-write resolution policy.
    #[must_use]
    pub fn policy(&self) -> WritePolicy {
        self.policy
    }

    /// Maximum number of cached (non-owned) pages per node, if bounded.
    #[must_use]
    pub fn cache_capacity(&self) -> Option<usize> {
        self.cache_capacity
    }

    /// `true` iff `page` is marked constant (never invalidated or evicted —
    /// the paper's footnote-2 enhancement for the solver's `A` and `b`).
    #[must_use]
    pub fn is_const_page(&self, page: PageId) -> bool {
        self.const_pages.contains(&page)
    }

    /// Maximum number of pipelined writes a node may have in flight to one
    /// owner at a time (the paper's "reducing the blocking of processors"
    /// enhancement, bounded).
    ///
    /// `0` (the default) disables the pipeline entirely: `write_pipelined`
    /// degenerates to the blocking Figure-4 round-trip and the protocol is
    /// byte-identical to the paper's.
    #[must_use]
    pub fn pipeline_window(&self) -> u32 {
        self.pipeline_window
    }

    /// Whether pipelined writes to the same owner may share one transport
    /// envelope (`Msg::Batch`), with the owner coalescing its invalidation
    /// sweeps over the batch and piggybacking all acks on one reply.
    ///
    /// `false` (the default) sends every message in its own envelope —
    /// byte-identical to the paper's protocol. Logical per-kind message
    /// counts are unchanged either way; only the *physical envelope* count
    /// drops when enabled. Batching needs a pipeline window and no
    /// failover (every failover request travels in its own stamped
    /// envelope); [`CausalConfigBuilder::build`] rejects anything else.
    #[must_use]
    pub fn batching(&self) -> bool {
        self.batching
    }

    /// The owner-failover layer's configuration, or `None` (the default)
    /// for the paper's static-ownership protocol.
    #[must_use]
    pub fn failover(&self) -> Option<FailoverConfig> {
        self.failover
    }

    /// Reopens a finished configuration for the cluster builder's
    /// `configure` hook; `build()` gives the same configuration back.
    pub(crate) fn into_builder(self) -> CausalConfigBuilder<V> {
        CausalConfigBuilder {
            nodes: self.nodes,
            locations: self.locations,
            page_size: self.owners.page_size(),
            owners: Some(self.owners),
            initial: self.initial,
            invalidation: self.invalidation,
            policy: self.policy,
            cache_capacity: self.cache_capacity,
            const_pages: self.const_pages,
            pipeline_window: self.pipeline_window,
            batching: self.batching,
            failover: self.failover,
            interest_scoping: self.interest_scoping,
            durability: self.durability,
        }
    }

    /// Whether metadata is interest-scoped (the partial-replication
    /// layer): owners track which nodes cache each page and ship
    /// replications/interest messages only to them, and every timestamp
    /// leaves the node in the sparse wire encoding
    /// ([`crate::Stamp`]). `false` (the default) is byte-identical to
    /// Figure 4.
    #[must_use]
    pub fn interest_scoping(&self) -> bool {
        self.interest_scoping
    }

    /// The durability layer's tuning, or `None` (the default) when the
    /// node journals nothing. Off ⇒ no write-ahead appends, no journal
    /// records, and — like every gated layer — wire traffic
    /// byte-identical to Figure 4.
    #[must_use]
    pub fn durability(&self) -> Option<DurableConfig> {
        self.durability
    }
}

impl<V> fmt::Debug for CausalConfig<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CausalConfig")
            .field("nodes", &self.nodes)
            .field("locations", &self.locations)
            .field("page_size", &self.owners.page_size())
            .field("invalidation", &self.invalidation)
            .field("policy", &self.policy)
            .field("cache_capacity", &self.cache_capacity)
            .field("const_pages", &self.const_pages.len())
            .field("pipeline_window", &self.pipeline_window)
            .field("batching", &self.batching)
            .field("failover", &self.failover)
            .field("interest_scoping", &self.interest_scoping)
            .field("durability", &self.durability)
            .finish()
    }
}

/// Builder for [`CausalConfig`].
///
/// # Examples
///
/// ```
/// use causal_dsm::{CausalConfig, InvalidationMode, WritePolicy};
/// use memcore::Word;
///
/// let config = CausalConfig::<Word>::builder(4, 64)
///     .page_size(4)
///     .policy(WritePolicy::OwnerFavored)
///     .invalidation(InvalidationMode::PaperExact)
///     .cache_capacity(8)
///     .build();
/// assert_eq!(config.page_count(), 16);
/// ```
pub struct CausalConfigBuilder<V> {
    nodes: u32,
    locations: u32,
    page_size: u32,
    owners: Option<Arc<dyn OwnerMap>>,
    initial: V,
    invalidation: InvalidationMode,
    policy: WritePolicy,
    cache_capacity: Option<usize>,
    const_pages: HashSet<PageId>,
    pipeline_window: u32,
    batching: bool,
    failover: Option<FailoverConfig>,
    interest_scoping: bool,
    durability: Option<DurableConfig>,
}

impl<V: Value + Default> CausalConfigBuilder<V> {
    fn new(nodes: u32, locations: u32) -> Self {
        assert!(nodes > 0, "at least one node required");
        assert!(locations > 0, "at least one location required");
        CausalConfigBuilder {
            nodes,
            locations,
            page_size: 1,
            owners: None,
            initial: V::default(),
            invalidation: InvalidationMode::default(),
            policy: WritePolicy::default(),
            cache_capacity: None,
            const_pages: HashSet::new(),
            pipeline_window: 0,
            batching: false,
            failover: None,
            interest_scoping: false,
            durability: None,
        }
    }
}

impl<V: Value> CausalConfigBuilder<V> {
    /// Sets the unit of sharing (default 1 — the paper-exact protocol).
    ///
    /// Ignored if [`CausalConfigBuilder::owners`] is also set (the owner
    /// map carries its own page size).
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is zero.
    #[must_use]
    pub fn page_size(mut self, page_size: u32) -> Self {
        assert!(page_size > 0, "page size must be positive");
        self.page_size = page_size;
        self
    }

    /// Sets an explicit ownership assignment (default round-robin).
    #[must_use]
    pub fn owners(mut self, owners: impl OwnerMap) -> Self {
        self.owners = Some(Arc::new(owners));
        self
    }

    /// Sets the initial value of every location (default `V::default()`).
    #[must_use]
    pub fn initial(mut self, initial: V) -> Self {
        self.initial = initial;
        self
    }

    /// Sets the invalidation mode (default [`InvalidationMode::PaperExact`]).
    #[must_use]
    pub fn invalidation(mut self, mode: InvalidationMode) -> Self {
        self.invalidation = mode;
        self
    }

    /// Sets the concurrent-write policy (default
    /// [`WritePolicy::LastArrival`]).
    #[must_use]
    pub fn policy(mut self, policy: WritePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Bounds the number of cached (non-owned) pages per node; the oldest
    /// cached page is discarded to make room (the paper's `discard` as a
    /// replacement policy).
    #[must_use]
    pub fn cache_capacity(mut self, pages: usize) -> Self {
        self.cache_capacity = Some(pages);
        self
    }

    /// Marks pages as constant: cached copies are never invalidated or
    /// evicted. Safe only for data written once before sharing (the
    /// solver's `A` and `b`).
    #[must_use]
    pub fn const_pages(mut self, pages: impl IntoIterator<Item = PageId>) -> Self {
        self.const_pages.extend(pages);
        self
    }

    /// Allows up to `window` pipelined writes in flight to one owner at a
    /// time (default 0 — every write blocks for its `W_REPLY`, exactly
    /// Figure 4). See [`CausalConfig::pipeline_window`].
    #[must_use]
    pub fn pipeline_window(mut self, window: u32) -> Self {
        self.pipeline_window = window;
        self
    }

    /// Lets pipelined writes and their replies share transport envelopes
    /// (default `false` — one envelope per message). Needs a
    /// [`pipeline_window`](Self::pipeline_window) and no failover. See
    /// [`CausalConfig::batching`].
    #[must_use]
    pub fn batching(mut self, batching: bool) -> Self {
        self.batching = batching;
        self
    }

    /// Enables the owner-failover layer with the given knobs (default:
    /// disabled — static ownership, exactly Figure 4). See
    /// [`FailoverConfig`].
    #[must_use]
    pub fn failover(mut self, failover: FailoverConfig) -> Self {
        self.failover = Some(failover);
        self
    }

    /// Enables interest-scoped metadata: per-page interest sets at owners
    /// and sparse timestamp encoding on the wire (default `false` —
    /// byte-identical to Figure 4). See
    /// [`CausalConfig::interest_scoping`].
    #[must_use]
    pub fn interest_scoping(mut self, on: bool) -> Self {
        self.interest_scoping = on;
        self
    }

    /// Enables the durability layer with the given tuning (default: off).
    ///
    /// With durability on, a node's driver — opened on a disk by
    /// [`NodeDriver::open`](crate::NodeDriver::open) — appends every
    /// certified write (and every epoch advance, page install, and
    /// interest change) to its write-ahead log *before* replying, per the
    /// configured [`SyncPolicy`](dsm_durable::SyncPolicy); see
    /// [`CausalConfig::durability`]. A cluster whose hosted node has this
    /// setting but no disk is rejected at build time.
    #[must_use]
    pub fn durability(mut self, durability: DurableConfig) -> Self {
        self.durability = Some(durability);
        self
    }

    /// Finalizes the configuration.
    ///
    /// # Panics
    ///
    /// Panics if an explicit owner map disagrees with the node count, or
    /// if batching is on without a pipeline window or with failover.
    #[must_use]
    pub fn build(self) -> CausalConfig<V> {
        let owners = self
            .owners
            .unwrap_or_else(|| Arc::new(RoundRobinOwners::new(self.nodes, self.page_size)));
        assert_eq!(
            owners.nodes(),
            self.nodes,
            "owner map node count disagrees with configuration"
        );
        assert!(
            !self.batching || self.pipeline_window > 0,
            "batching needs a pipeline window: only pipelined writes share envelopes"
        );
        assert!(
            !self.batching || self.failover.is_none(),
            "batching under failover: every failover request travels in its own stamped envelope"
        );
        CausalConfig {
            nodes: self.nodes,
            locations: self.locations,
            owners,
            initial: self.initial,
            invalidation: self.invalidation,
            policy: self.policy,
            cache_capacity: self.cache_capacity,
            const_pages: self.const_pages,
            pipeline_window: self.pipeline_window,
            batching: self.batching,
            failover: self.failover,
            interest_scoping: self.interest_scoping,
            durability: self.durability,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memcore::{ExplicitOwners, Location, NodeId, Word};

    #[test]
    fn defaults_are_paper_exact() {
        let config = CausalConfig::<Word>::builder(2, 4).build();
        assert_eq!(config.nodes(), 2);
        assert_eq!(config.locations(), 4);
        assert_eq!(config.page_size(), 1);
        assert_eq!(config.page_count(), 4);
        assert_eq!(config.invalidation(), InvalidationMode::PaperExact);
        assert_eq!(config.policy(), WritePolicy::LastArrival);
        assert_eq!(config.cache_capacity(), None);
        assert_eq!(config.initial(), &Word::Zero);
    }

    #[test]
    fn page_count_rounds_up() {
        let config = CausalConfig::<Word>::builder(2, 10).page_size(4).build();
        assert_eq!(config.page_count(), 3);
    }

    #[test]
    fn explicit_owners_override_round_robin() {
        let owners = ExplicitOwners::new(2, 1, vec![NodeId::new(1), NodeId::new(1)]);
        let config = CausalConfig::<Word>::builder(2, 2).owners(owners).build();
        assert_eq!(config.owners().owner_of(Location::new(0)), NodeId::new(1));
    }

    #[test]
    fn const_pages_are_flagged() {
        let config = CausalConfig::<Word>::builder(2, 8)
            .const_pages([PageId::new(3)])
            .build();
        assert!(config.is_const_page(PageId::new(3)));
        assert!(!config.is_const_page(PageId::new(2)));
    }

    #[test]
    #[should_panic(expected = "disagrees")]
    fn mismatched_owner_map_panics() {
        let owners = ExplicitOwners::new(3, 1, vec![NodeId::new(0)]);
        let _ = CausalConfig::<Word>::builder(2, 2).owners(owners).build();
    }

    #[test]
    fn debug_output_is_nonempty() {
        let config = CausalConfig::<Word>::builder(2, 4).build();
        assert!(format!("{config:?}").contains("CausalConfig"));
    }

    #[test]
    #[should_panic(expected = "batching needs a pipeline window")]
    fn batching_without_a_window_is_rejected() {
        let _ = CausalConfig::<Word>::builder(2, 4).batching(true).build();
    }

    #[test]
    #[should_panic(expected = "batching under failover")]
    fn batching_under_failover_is_rejected() {
        let _ = CausalConfig::<Word>::builder(2, 4)
            .pipeline_window(4)
            .batching(true)
            .failover(FailoverConfig::default())
            .build();
    }

    #[test]
    fn pipelining_and_batching_default_off() {
        let config = CausalConfig::<Word>::builder(2, 4).build();
        assert_eq!(config.pipeline_window(), 0);
        assert!(!config.batching());
        let config = CausalConfig::<Word>::builder(2, 4)
            .pipeline_window(8)
            .batching(true)
            .build();
        assert_eq!(config.pipeline_window(), 8);
        assert!(config.batching());
    }

    #[test]
    fn failover_defaults_off_and_backoff_is_bounded() {
        let config = CausalConfig::<Word>::builder(2, 4).build();
        assert_eq!(config.failover(), None, "failover must be opt-in");
        let fo = FailoverConfig::default();
        let config = CausalConfig::<Word>::builder(2, 4).failover(fo).build();
        assert_eq!(config.failover(), Some(fo));
        // Backoff grows, saturates at the ceiling (+ jitter ≤ 25%), and is
        // deterministic per (attempt, salt).
        let b0 = fo.backoff(0, 1);
        let b3 = fo.backoff(3, 1);
        assert!(b3 >= b0);
        for attempt in 0..40 {
            let b = fo.backoff(attempt, 7);
            assert!(b <= fo.backoff_max + fo.backoff_max / 4, "{b}");
            assert_eq!(b, fo.backoff(attempt, 7));
        }
        assert_ne!(
            fo.backoff(2, 1),
            fo.backoff(2, 2),
            "jitter must vary by salt"
        );
    }

    #[test]
    fn interest_scoping_defaults_off() {
        let config = CausalConfig::<Word>::builder(2, 4).build();
        assert!(
            !config.interest_scoping(),
            "interest scoping must be opt-in"
        );
        let config = CausalConfig::<Word>::builder(2, 4)
            .interest_scoping(true)
            .build();
        assert!(config.interest_scoping());
    }
}
