//! The Figure-4 owner protocol as a pure state machine.
//!
//! [`CausalState`] is one processor's entire protocol state: its vector
//! timestamp `VT_i`, its local memory `M_i` (owned pages plus cache `C_i`),
//! and the five procedures of the paper's Figure 4 — local read, local
//! write, servicing `READ`, servicing `WRITE`, and `discard`. The state
//! machine performs no I/O: operations either complete locally or return
//! the message that must be sent, and the caller ([`crate::NodeDriver`], run by the threaded engine or the
//! deterministic simulator in `dsm-sim`) moves messages and feeds replies
//! back in. This is what lets one implementation
//! be driven by real threads *and* replayed under controlled schedules.
//!
//! Each transition is annotated with the corresponding line of Figure 4.

use std::sync::Arc;

use memcore::{Location, NodeId, OwnerEpoch, OwnerMap, PageId, Value, WriteId};
use vclock::VectorClock;

use dsm_durable::WalRecord;

use crate::config::{CausalConfig, FailoverConfig, InvalidationMode, WritePolicy};
use crate::failover::{owner_at, FailoverState, ShadowPage};
use crate::fxmap::FastMap;
use crate::msg::{Msg, SlotData, Stamp, WriteVerdict};

/// One location's content in local memory: the value, the unique tag of
/// the write that produced it, and that write's *origin* stamp (the
/// writer's timestamp as sent, used only by the owner to detect concurrent
/// writes for the §4.2 resolution policy — Figure 4 itself stores the
/// merged stamp, which lives on the page).
///
/// Both the value and the origin stamp are behind `Arc`: a value is deep-
/// copied at most once per write (when the application hands it over), and
/// one origin stamp is shared by every slot a page install touches, so
/// reads, page serves and cache installs move pointers, not payloads.
///
/// A write overwrites those cells in place when nothing else holds them
/// (see [`Slot::install`]), so a repeated owner-local write allocates
/// nothing.
#[derive(Clone, Debug)]
struct Slot<V> {
    value: Arc<V>,
    wid: WriteId,
    origin: Arc<VectorClock>,
}

/// A written value on its way into a [`Slot`]: the application's own
/// (an owner-local write), or one already shared with a message.
enum Incoming<V> {
    Owned(V),
    Shared(Arc<V>),
}

impl<V> Incoming<V> {
    fn into_shared(self) -> Arc<V> {
        match self {
            Incoming::Owned(value) => Arc::new(value),
            Incoming::Shared(value) => value,
        }
    }
}

impl<V> Slot<V> {
    /// `M_i[x] := (v, origin)`, storing into this slot's own cells when
    /// they are unshared. [`Arc::get_mut`] succeeds only if no reader's
    /// `Arc`, completion, journal record, replica shadow or message holds
    /// the cell, so a value or stamp anyone else can see is never changed
    /// under it: a shared cell is replaced by a fresh one instead.
    fn install(&mut self, value: Incoming<V>, wid: WriteId, origin: &VectorClock) {
        match value {
            Incoming::Owned(value) => match Arc::get_mut(&mut self.value) {
                Some(cell) => *cell = value,
                None => self.value = Arc::new(value),
            },
            Incoming::Shared(value) => self.value = value,
        }
        self.wid = wid;
        match Arc::get_mut(&mut self.origin) {
            Some(cell) => cell.clone_from(origin),
            None => self.origin = Arc::new(origin.clone()),
        }
    }
}

/// A page of local memory `M_i`: per-location slots plus the page's
/// writestamp (`M_i[x].VT` in the paper).
#[derive(Clone, Debug)]
struct PageEntry<V> {
    vt: VectorClock,
    slots: Vec<Slot<V>>,
    /// Monotone installation tick, used by the bounded-cache replacement
    /// policy (`discard` as eviction).
    installed_at: u64,
}

/// Result of starting a read: either a local hit or the `[READ, x]`
/// message that must be sent to the owner.
#[derive(Clone, Debug)]
pub enum ReadStep<V> {
    /// The location is owned or validly cached; the read completes
    /// immediately.
    Hit {
        /// The value read, shared with local memory (cheap to clone).
        value: Arc<V>,
        /// The write the value was produced by (reads-from).
        wid: WriteId,
    },
    /// A read miss: send `request` to `owner` and feed the reply to
    /// [`CausalState::finish_read`].
    Miss {
        /// The owner of the missing page.
        owner: NodeId,
        /// The `[READ, x]` request.
        request: Msg<V>,
    },
}

/// Result of starting a write: done locally (writer owns the location) or
/// the `[WRITE, x, v, VT]` message that must be certified by the owner.
// The size gap between `Done` and `Remote` is deliberate: boxing the
// request would put a heap allocation on the remote-write path, which
// the perf harness counts per op and gates. The enum lives for exactly
// one dispatch, never in a collection.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum WriteStep<V> {
    /// The writer owns the location; the write is installed.
    Done {
        /// The unique tag assigned to this write.
        wid: WriteId,
    },
    /// Send `request` to `owner` and feed the reply to
    /// [`CausalState::finish_write`].
    Remote {
        /// The owner of the written page.
        owner: NodeId,
        /// The unique tag assigned to this write.
        wid: WriteId,
        /// The `[WRITE, x, v, VT]` request.
        request: Msg<V>,
    },
}

/// Outcome of a completed write, after any owner round-trip.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WriteDone {
    /// The write is installed at the owner (and, for remote writes, cached
    /// at the writer).
    Applied {
        /// The unique tag assigned to this write.
        wid: WriteId,
    },
    /// The write lost to a concurrent owner write under
    /// [`WritePolicy::OwnerFavored`]; the surviving write's tag is given.
    Rejected {
        /// The tag this write would have carried.
        wid: WriteId,
        /// The surviving write at the owner.
        winner: WriteId,
    },
}

impl WriteDone {
    /// The unique tag assigned to the attempted write.
    #[must_use]
    pub fn wid(&self) -> WriteId {
        match self {
            WriteDone::Applied { wid } | WriteDone::Rejected { wid, .. } => *wid,
        }
    }

    /// `true` iff the write was installed.
    #[must_use]
    pub fn is_applied(&self) -> bool {
        matches!(self, WriteDone::Applied { .. })
    }
}

/// One processor's protocol state (Figure 4).
///
/// # Examples
///
/// A two-node system where `P0` owns everything; `P1`'s read misses and is
/// completed by feeding the owner's reply back in:
///
/// ```
/// use causal_dsm::{CausalConfig, CausalState, ReadStep, WriteStep};
/// use memcore::{ExplicitOwners, Location, NodeId, Word};
///
/// let config = CausalConfig::<Word>::builder(2, 1)
///     .owners(ExplicitOwners::new(2, 1, vec![NodeId::new(0)]))
///     .build();
/// let mut p0 = CausalState::new(NodeId::new(0), config.clone());
/// let mut p1 = CausalState::new(NodeId::new(1), config);
///
/// // P0 owns x0: its write completes locally.
/// assert!(matches!(p0.begin_write(Location::new(0), Word::Int(9)), WriteStep::Done { .. }));
///
/// // P1 misses; the owner serves the READ; P1 finishes the read.
/// let ReadStep::Miss { owner, request } = p1.begin_read(Location::new(0)) else {
///     unreachable!()
/// };
/// assert_eq!(owner, NodeId::new(0));
/// let reply = p0.serve(NodeId::new(1), request).unwrap();
/// let (value, _wid) = p1.finish_read(Location::new(0), reply);
/// assert_eq!(*value, Word::Int(9));
/// ```
#[derive(Clone, Debug)]
pub struct CausalState<V> {
    id: NodeId,
    config: CausalConfig<V>,
    /// `VT_i` — this processor's vector timestamp.
    vt: VectorClock,
    /// `M_i` — owned pages (always present) plus the cache `C_i`.
    pages: FastMap<PageId, PageEntry<V>>,
    /// Next write sequence number (write uniqueness).
    write_seq: u64,
    /// Monotone tick for cache replacement.
    tick: u64,
    /// Cumulative count of cache invalidations performed (ablation metric).
    invalidations: u64,
    /// Cumulative count of cache sweep passes (coalescing merges the
    /// per-write sweeps of a batch into one pass).
    sweeps: u64,
    /// `VT_i` as of the start of the (single) outstanding remote
    /// operation — used to detect knowledge absorbed while a reply was in
    /// flight (see the in-flight-reply guards in `finish_read` /
    /// `finish_write`).
    op_begin_vt: VectorClock,
    /// Failover bookkeeping (epochs, shadows, liveness); `None` unless a
    /// [`FailoverConfig`] is attached — in which case nothing here ever
    /// touches the wire.
    failover: Option<FailoverState<V>>,
    /// Owner-side interest sets: which peers cache (or once cached and
    /// have not dropped) each page this node serves. Populated only under
    /// [`CausalConfig::interest_scoping`]; membership is a safe
    /// over-approximation — a stale entry costs scoping precision, never
    /// correctness.
    interest: FastMap<PageId, Vec<NodeId>>,
    /// Outgoing `[INTEREST]` drops queued by cache evictions, drained by
    /// the engine alongside replications.
    pending_interest: Vec<(NodeId, Msg<V>)>,
    /// Durability journal: records queued since the last
    /// [`CausalState::take_journal`] drain. Always empty unless
    /// [`CausalConfig::durability`] is set — the gate every hook below
    /// checks before allocating anything.
    journal: Vec<WalRecord<V>>,
    /// Process incarnation: 0 for a first life, `persisted + 1` after
    /// every crash recovery. Session layers stamp frames with it so a
    /// previous life's traffic can be fenced.
    incarnation: u32,
}

impl<V: Value> CausalState<V> {
    /// Creates processor `id`'s state with every owned page initialized to
    /// the distinguished initial value (the paper's "initial writes ...
    /// that precede all operations").
    #[must_use]
    pub fn new(id: NodeId, config: CausalConfig<V>) -> Self {
        let mut pages = FastMap::default();
        let n = config.nodes() as usize;
        for page_index in 0..config.page_count() {
            let page = PageId::new(page_index);
            if config.owners().owner_of_page(page) == id {
                pages.insert(page, Self::initial_page(&config, page, n));
            }
        }
        let failover = config.failover().map(|fo| FailoverState::new(fo, n));
        let mut state = CausalState {
            id,
            config,
            vt: VectorClock::new(n),
            pages,
            write_seq: 0,
            tick: 0,
            invalidations: 0,
            sweeps: 0,
            op_begin_vt: VectorClock::new(n),
            failover,
            interest: FastMap::default(),
            pending_interest: Vec::new(),
            journal: Vec::new(),
            incarnation: 0,
        };
        if state.journaling() {
            // Baseline watermark: even a life that never writes leaves
            // proof it existed, so the next life's incarnation is larger.
            state.journal.push(WalRecord::Node {
                vt: state.vt.clone(),
                write_seq: 0,
                incarnation: 0,
            });
        }
        state
    }

    fn initial_page(config: &CausalConfig<V>, page: PageId, n: usize) -> PageEntry<V> {
        let _ = n;
        let initial = Arc::new(config.initial().clone());
        let origin = Arc::new(VectorClock::new(config.nodes() as usize));
        let slots = page
            .locations(config.page_size())
            .map(|loc| Slot {
                value: Arc::clone(&initial),
                wid: WriteId::initial(loc),
                origin: Arc::clone(&origin),
            })
            .collect();
        PageEntry {
            vt: VectorClock::new(config.nodes() as usize),
            slots,
            installed_at: 0,
        }
    }

    /// This processor's identifier.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// This processor's current vector timestamp `VT_i`.
    #[must_use]
    pub fn vt(&self) -> &VectorClock {
        &self.vt
    }

    /// The configuration this state was built with.
    #[must_use]
    pub fn config(&self) -> &CausalConfig<V> {
        &self.config
    }

    /// Number of cached (non-owned) pages currently valid — `|C_i|`.
    #[must_use]
    pub fn cached_pages(&self) -> usize {
        self.pages
            .keys()
            .filter(|p| self.current_owner(**p) != self.id)
            .count()
    }

    /// Cumulative count of cache invalidations this node has performed.
    #[must_use]
    pub fn invalidation_count(&self) -> u64 {
        self.invalidations
    }

    /// Cumulative count of cache sweep passes. With invalidation
    /// coalescing, a batch of `k` writes costs one pass instead of `k`;
    /// the invalidation *count* (pages dropped) is unaffected.
    #[must_use]
    pub fn sweep_count(&self) -> u64 {
        self.sweeps
    }

    /// `true` iff this node currently owns `loc` — under failover, the
    /// page's epoch decides; without it, the static map.
    #[must_use]
    pub fn owns(&self, loc: Location) -> bool {
        self.current_owner(self.page_of(loc)) == self.id
    }

    /// The node currently serving `page`: the static owner rotated by the
    /// page's [`OwnerEpoch`] (identical to the static owner when failover
    /// is disabled — every epoch is zero).
    #[must_use]
    pub fn current_owner(&self, page: PageId) -> NodeId {
        match &self.failover {
            Some(fo) => owner_at(self.config.owners().as_ref(), page, fo.epoch_of(page)),
            None => self.config.owners().owner_of_page(page),
        }
    }

    /// The ownership epoch this node believes `page` is at.
    #[must_use]
    pub fn epoch_of(&self, page: PageId) -> OwnerEpoch {
        self.failover
            .as_ref()
            .map_or(OwnerEpoch::ZERO, |fo| fo.epoch_of(page))
    }

    /// `true` iff `loc` is readable locally (owned or cached) —
    /// `M_i[x] ≠ ⊥`.
    #[must_use]
    pub fn has_valid_copy(&self, loc: Location) -> bool {
        self.pages.contains_key(&self.page_of(loc))
    }

    fn page_of(&self, loc: Location) -> PageId {
        loc.page(self.config.page_size())
    }

    fn offset_of(&self, loc: Location) -> usize {
        loc.page_offset(self.config.page_size())
    }

    /// Peeks at the locally visible value of `loc` without performing a
    /// read (no protocol side effects). Used by the simulator's
    /// ideal-signaling waits and by tests.
    #[must_use]
    pub fn peek(&self, loc: Location) -> Option<(&V, WriteId)> {
        let entry = self.pages.get(&self.page_of(loc))?;
        let slot = &entry.slots[self.offset_of(loc)];
        Some((slot.value.as_ref(), slot.wid))
    }

    /// A read of `loc` that completes only if it hits locally — the
    /// non-mutating half of [`CausalState::begin_read`].
    ///
    /// Figure 4's read procedure touches no protocol state on a hit
    /// (`M_i[x] ≠ ⊥ → v := M_i[x].value`), so a hit needs only `&self`:
    /// the threaded engine uses this to serve cached reads under a shared
    /// (read) lock, concurrently with other readers. Returns `None` on a
    /// miss — the caller then takes the write lock and runs `begin_read`.
    #[must_use]
    pub fn read_hit(&self, loc: Location) -> Option<(Arc<V>, WriteId)> {
        let entry = self.pages.get(&self.page_of(loc))?;
        let slot = &entry.slots[self.offset_of(loc)];
        Some((Arc::clone(&slot.value), slot.wid))
    }

    // ------------------------------------------------------------------
    // r_i(x)v  — Figure 4, first procedure
    // ------------------------------------------------------------------

    /// Starts a read of `loc`.
    ///
    /// Figure 4: `if M_i[x] = ⊥` the read misses and a `[READ, x]` is sent
    /// to `owner(x)`; otherwise `v := M_i[x].value`.
    pub fn begin_read(&mut self, loc: Location) -> ReadStep<V> {
        let page = self.page_of(loc);
        if let Some(entry) = self.pages.get(&page) {
            let slot = &entry.slots[self.offset_of(loc)];
            ReadStep::Hit {
                value: Arc::clone(&slot.value),
                wid: slot.wid,
            }
        } else {
            self.op_begin_vt = self.vt.clone();
            ReadStep::Miss {
                owner: self.current_owner(page),
                request: Msg::Read { page },
            }
        }
    }

    /// Completes a read miss with the owner's `[R_REPLY, x, v', VT']`.
    ///
    /// Figure 4: `VT_i := update(VT_i, VT')`; `M_i[x] := (v', VT')`;
    /// `∀y ∈ C_i : M_i[y].VT < VT' → M_i[y] := ⊥`; `v := M_i[x].value`.
    ///
    /// One guard beyond the figure's text: if, while the fetch was in
    /// flight, this node absorbed knowledge (by servicing requests) whose
    /// merged stamp *strictly dominates* the reply's page stamp, the page
    /// is **not cached** — the read still completes with the fetched
    /// value (legal: no operation of this process can yet causally follow
    /// the newer accesses), but caching it would let later reads return a
    /// provably overwritten value. The figure's sweep cannot catch this
    /// because the page arrives *after* the knowledge; see
    /// `late_reply_is_not_cached_over_fresher_knowledge` and
    /// `docs/PROTOCOL.md`.
    ///
    /// # Panics
    ///
    /// Panics if `reply` is not a `ReadReply` for `loc`'s page (engine
    /// invariant: one outstanding operation per node).
    pub fn finish_read(&mut self, loc: Location, reply: Msg<V>) -> (Arc<V>, WriteId) {
        let Msg::ReadReply { page, vt, slots } = reply else {
            panic!("finish_read fed a non-ReadReply message");
        };
        let vt = vt.into_inner();
        assert_eq!(page, self.page_of(loc), "reply for wrong page");

        // Staleness check BEFORE the merge: dangerous only if knowledge
        // arrived *while this reply was in flight* (the clock moved since
        // the request) and that knowledge strictly dominates the fetched
        // page. A page merely older than what we knew at request time is
        // the paper's sanctioned "wide range of writestamps" case and
        // caches normally.
        let overtaken = self.vt != self.op_begin_vt && vt.dominated_by(&self.vt);

        // VT_i := update(VT_i, VT')
        self.vt.update(&vt);

        // ∀y ∈ C_i: M_i[y].VT < VT' → invalidate. This must run even for
        // an overtaken reply: the fetched values are real knowledge, and
        // cached entries the page stamp dominates may include this node's
        // own stale copy of the very page being read.
        self.sweep_cache(&vt);

        if overtaken {
            let offset = self.offset_of(loc);
            let (value, wid) = slots
                .into_iter()
                .nth(offset)
                .expect("reply carries the full page");
            return (value, wid);
        }

        // M_i[x] := (v', VT')  — note: the *sent* stamp VT', not VT_i.
        // One origin stamp is interned per install and shared by every
        // slot on the page.
        self.tick += 1;
        let origin = Arc::new(vt.clone());
        let entry = PageEntry {
            vt,
            slots: slots
                .into_iter()
                .map(|(value, wid)| Slot {
                    value,
                    wid,
                    origin: Arc::clone(&origin),
                })
                .collect(),
            installed_at: self.tick,
        };
        self.pages.insert(page, entry);
        self.enforce_cache_capacity(page);

        let slot = &self.pages[&page].slots[self.offset_of(loc)];
        (Arc::clone(&slot.value), slot.wid)
    }

    // ------------------------------------------------------------------
    // w_i(x)v  — Figure 4, second procedure
    // ------------------------------------------------------------------

    /// Starts a write of `value` to `loc`.
    ///
    /// Figure 4: `VT_i := increment(VT_i)`; if the writer owns `x` the
    /// write installs locally (`M_i[x] := (v, VT_i)`), otherwise a
    /// `[WRITE, x, v, VT_i]` is sent to the owner.
    ///
    /// An owner-local write stores `value` into the slot's existing cells
    /// when no one else holds them, allocating nothing; a remote write
    /// wraps it once for the request.
    pub fn begin_write(&mut self, loc: Location, value: V) -> WriteStep<V> {
        self.begin_write_incoming(loc, Incoming::Owned(value))
    }

    /// [`CausalState::begin_write`] with a value already behind an `Arc`.
    ///
    /// Callers that also need the value afterwards (to record it, or to
    /// feed [`CausalState::finish_write`]) wrap it once and clone the
    /// pointer — the value itself is never deep-copied by the protocol.
    pub fn begin_write_shared(&mut self, loc: Location, value: Arc<V>) -> WriteStep<V> {
        self.begin_write_incoming(loc, Incoming::Shared(value))
    }

    fn begin_write_incoming(&mut self, loc: Location, value: Incoming<V>) -> WriteStep<V> {
        let page = self.page_of(loc);
        let owner = self.current_owner(page);
        if owner == self.id {
            let wid = self.write_own_page(loc, page, value);
            return WriteStep::Done { wid };
        }
        let wid = self.mint_write();
        let value = value.into_shared();
        if self.journaling() {
            // Watermark the minted WriteId: a recovered node must
            // never reuse a sequence number, even for writes served
            // (and journaled) elsewhere.
            self.journal.push(WalRecord::Node {
                vt: self.vt.clone(),
                write_seq: self.write_seq,
                incarnation: self.incarnation,
            });
        }
        self.op_begin_vt = self.vt.clone();
        let vt = self.stamp(self.vt.clone());
        WriteStep::Remote {
            owner,
            wid,
            request: Msg::Write {
                loc,
                value,
                wid,
                vt,
            },
        }
    }

    /// An owner-local write of `value` to `loc` as one step, classified
    /// by a single ownership lookup: [`CausalState::begin_write`] when
    /// this node owns `loc`'s page.
    ///
    /// # Errors
    ///
    /// Returns `value` untouched, with no state changed, when another
    /// node owns the page.
    pub fn write_owned(&mut self, loc: Location, value: V) -> Result<WriteId, V> {
        let page = self.page_of(loc);
        if self.current_owner(page) != self.id {
            return Err(value);
        }
        Ok(self.write_own_page(loc, page, Incoming::Owned(value)))
    }

    /// `VT_i := increment(VT_i)` and a fresh tag for the write.
    fn mint_write(&mut self) -> WriteId {
        self.vt.increment(self.id.index());
        let wid = WriteId::new(self.id, self.write_seq);
        self.write_seq += 1;
        wid
    }

    /// Figure 4's write at the owner: `VT_i := increment(VT_i)`;
    /// `M_i[x] := (v, VT_i)`. `page` is `loc`'s page, owned here.
    fn write_own_page(&mut self, loc: Location, page: PageId, value: Incoming<V>) -> WriteId {
        let wid = self.mint_write();
        let offset = self.offset_of(loc);
        let journaling = self.journaling();
        let entry = self
            .pages
            .get_mut(&page)
            .expect("owned pages are always present");
        let slot = &mut entry.slots[offset];
        slot.install(value, wid, &self.vt);
        // The journal shares the stored cell; `persist` drops the record
        // before the next write, which finds the cell unshared.
        let stored = journaling.then(|| Arc::clone(&slot.value));
        entry.vt.clone_from(&self.vt);
        if let Some(value) = stored {
            self.journal.push(WalRecord::Write {
                loc,
                value,
                wid,
                origin: self.vt.clone(),
                node_vt: self.vt.clone(),
                applied: true,
            });
        }
        self.note_owned_write(page);
        wid
    }

    /// Completes a remote write with the owner's `[W_REPLY, x, v, VT']`.
    ///
    /// Figure 4: `VT_i := update(VT_i, VT')`; the figure then caches under
    /// the merged clock, `M_i[x] := (v, VT_i)`. This implementation caches
    /// under the **sent** stamp instead — `M_i[x] := (v, VT')` — the same
    /// deviation [`CausalState::finish_read`] makes, and for the same
    /// reason: a writer that owns pages can absorb third-party knowledge
    /// (by certifying peers' writes) while its own W_REPLY is in flight.
    /// Caching under the merged clock would fold that unrelated knowledge
    /// into the entry's stamp, and a later page stamp from the owner —
    /// which causally dominates every overwrite of this value — could no
    /// longer dominate the inflated entry, leaving a provably overwritten
    /// value unsweepable. Caching under VT' keeps the entry exactly as
    /// sweepable as the owner's history requires (the ring-ownership scale
    /// sims hit this with concurrent writer/owner roles; see
    /// `writer_owner_race_keeps_cache_sweepable`).
    ///
    /// Under [`InvalidationMode::WriterInvalidate`] the cache sweep the
    /// paper's prose implies is also applied here (ablation A1).
    ///
    /// # Panics
    ///
    /// Panics if `reply` is not a `WriteReply` for `loc`.
    pub fn finish_write(&mut self, value: Arc<V>, wid: WriteId, reply: Msg<V>) -> WriteDone {
        let Msg::WriteReply {
            loc, vt, verdict, ..
        } = reply
        else {
            panic!("finish_write fed a non-WriteReply message");
        };
        let vt = vt.into_inner();

        // Same in-flight-reply guard as finish_read: if knowledge absorbed
        // while this reply travelled strictly dominates the owner's clock
        // at certification time, the certified value may already be
        // overwritten by something this node knows — and caching it (even
        // under the sent stamp) could serve a provably overwritten value
        // until the next sweep. Complete the write without caching.
        let overtaken = self.vt != self.op_begin_vt && vt.dominated_by(&self.vt);

        // VT_i := update(VT_i, VT')
        self.vt.update(&vt);

        if self.config.invalidation() == InvalidationMode::WriterInvalidate {
            self.sweep_cache(&self.vt.clone());
        }

        if overtaken {
            return match verdict {
                WriteVerdict::Applied => WriteDone::Applied { wid },
                WriteVerdict::Rejected { wid: winner, .. } => WriteDone::Rejected { wid, winner },
            };
        }

        // M_i[x] := (v, VT') — cache the surviving value under the owner's
        // certification stamp (see the method docs for why not VT_i). At
        // page granularity > 1 we cannot fabricate the rest of the page, so
        // the update only applies if the page is already cached (the next
        // read of an uncached page will fetch it whole).
        let (install_value, install_wid) = match &verdict {
            WriteVerdict::Applied => (value, wid),
            WriteVerdict::Rejected {
                value: winner_value,
                wid: winner_wid,
            } => (Arc::clone(winner_value), *winner_wid),
        };
        let page = self.page_of(loc);
        let offset = self.offset_of(loc);
        let vt_now = vt;
        if let Some(entry) = self.pages.get_mut(&page) {
            entry.slots[offset].install(Incoming::Shared(install_value), install_wid, &vt_now);
            entry.vt = vt_now;
        } else if self.config.page_size() == 1 {
            self.tick += 1;
            let entry = PageEntry {
                slots: vec![Slot {
                    value: install_value,
                    wid: install_wid,
                    origin: Arc::new(vt_now.clone()),
                }],
                vt: vt_now,
                installed_at: self.tick,
            };
            self.pages.insert(page, entry);
            self.enforce_cache_capacity(page);
        }

        match verdict {
            WriteVerdict::Applied => WriteDone::Applied { wid },
            WriteVerdict::Rejected { wid: winner, .. } => WriteDone::Rejected { wid, winner },
        }
    }

    /// Starts a **non-blocking** write — the "reducing the blocking of
    /// processors" enhancement the paper defers to its technical report.
    ///
    /// Like [`CausalState::begin_write`], but a remote write additionally
    /// installs the value into the local cache *optimistically* (so the
    /// writer reads its own write immediately) and the caller need not
    /// block: feed the owner's eventual reply to
    /// [`CausalState::absorb_write_reply`] whenever it arrives.
    ///
    /// **Correctness boundary**: this node's own view stays consistent
    /// (per-link FIFO orders the write before this node's later requests
    /// to the same owner), but third parties that causally learn of the
    /// in-flight write can be served the pre-write value. The step is
    /// sound only behind a drain gate: [`NodeDriver`](crate::NodeDriver)'s
    /// bounded pipeline, which holds back every operation that would
    /// export the increment until the owner has certified it. See
    /// `docs/PROTOCOL.md`.
    pub fn begin_write_nonblocking(&mut self, loc: Location, value: V) -> WriteStep<V> {
        self.begin_write_nonblocking_shared(loc, Arc::new(value))
    }

    /// [`CausalState::begin_write_nonblocking`] with a value already
    /// behind an `Arc` (see [`CausalState::begin_write_shared`]).
    pub fn begin_write_nonblocking_shared(&mut self, loc: Location, value: Arc<V>) -> WriteStep<V> {
        let step = self.begin_write_shared(loc, Arc::clone(&value));
        if let WriteStep::Remote { wid, .. } = step {
            // M_i[x] := (v, VT_i) now instead of at reply time.
            let page = self.page_of(loc);
            let offset = self.offset_of(loc);
            if let Some(entry) = self.pages.get_mut(&page) {
                entry.slots[offset].install(Incoming::Shared(value), wid, &self.vt);
                entry.vt.clone_from(&self.vt);
            } else if self.config.page_size() == 1 {
                self.tick += 1;
                let entry = PageEntry {
                    vt: self.vt.clone(),
                    slots: vec![Slot {
                        value,
                        wid,
                        origin: Arc::new(self.vt.clone()),
                    }],
                    installed_at: self.tick,
                };
                self.pages.insert(page, entry);
                self.enforce_cache_capacity(page);
            }
        }
        step
    }

    /// Absorbs the owner's reply to a non-blocking write: merges the
    /// timestamp and, if the owner-favored policy rejected the write,
    /// repairs the optimistic cache entry with the surviving value.
    ///
    /// # Panics
    ///
    /// Panics if `reply` is not a `WriteReply`.
    pub fn absorb_write_reply(&mut self, reply: Msg<V>) -> WriteDone {
        let Msg::WriteReply {
            loc,
            wid,
            vt,
            verdict,
        } = reply
        else {
            panic!("absorb_write_reply fed a non-WriteReply message");
        };
        // Same in-flight-reply guard as finish_write: an overtaken reply
        // must not repair the cache with a value older than knowledge
        // already absorbed.
        let overtaken = vt.dominated_by(&self.vt);
        self.vt.update(&vt);
        if self.config.invalidation() == InvalidationMode::WriterInvalidate {
            self.sweep_cache(&self.vt.clone());
        }
        match verdict {
            WriteVerdict::Applied => WriteDone::Applied { wid },
            WriteVerdict::Rejected { .. } if overtaken => {
                let WriteVerdict::Rejected { wid: winner, .. } = verdict else {
                    unreachable!()
                };
                WriteDone::Rejected { wid, winner }
            }
            WriteVerdict::Rejected {
                value: winner_value,
                wid: winner,
            } => {
                // Repair: only overwrite if our optimistic value is still
                // the one installed (a later write may have superseded it).
                let page = self.page_of(loc);
                let offset = self.offset_of(loc);
                if let Some(entry) = self.pages.get_mut(&page) {
                    if entry.slots[offset].wid == wid {
                        entry.slots[offset].install(
                            Incoming::Shared(winner_value),
                            winner,
                            &self.vt,
                        );
                        entry.vt.clone_from(&self.vt);
                    }
                }
                WriteDone::Rejected { wid, winner }
            }
        }
    }

    // ------------------------------------------------------------------
    // Owner service — Figure 4, third and fourth procedures
    // ------------------------------------------------------------------

    /// Services an incoming request, returning the reply to send back.
    ///
    /// Returns `None` for non-request messages (`Halt`, stray replies).
    pub fn serve(&mut self, from: NodeId, request: Msg<V>) -> Option<Msg<V>> {
        match request {
            Msg::Read { page } => Some(self.serve_read(from, page)),
            Msg::Write {
                loc,
                value,
                wid,
                vt,
            } => Some(self.serve_write(from, loc, value, wid, vt.into_inner())),
            Msg::Interest { page } => {
                self.handle_interest_drop(page, from);
                None
            }
            _ => None,
        }
    }

    /// Services a batched run of requests from one peer, coalescing the
    /// owner-side invalidation sweeps.
    ///
    /// Each write merges timestamps and installs exactly as
    /// [`serve`](CausalState::serve) would, but the Figure-4 cache sweep
    /// `∀y ∈ C_i : M_i[y].VT < VT_i → M_i[y] := ⊥` runs once, after the
    /// run, with the final merged timestamp. Every per-write threshold is
    /// dominated by the final one, so the surviving cache set is identical
    /// — the batch only saves the intermediate sweep passes. Replies come
    /// back in request order, one per request, ready to ride a single
    /// envelope (the acks are piggybacked on the batch reply).
    pub fn serve_batch(&mut self, from: NodeId, parts: Vec<Msg<V>>) -> Vec<Msg<V>> {
        let mut replies = Vec::with_capacity(parts.len());
        let mut wrote = false;
        for part in parts {
            match part {
                Msg::Read { page } => replies.push(self.serve_read(from, page)),
                Msg::Write {
                    loc,
                    value,
                    wid,
                    vt,
                } => {
                    wrote = true;
                    replies.push(self.serve_write_unswept(from, loc, value, wid, vt.into_inner()));
                }
                _ => {}
            }
        }
        if wrote {
            self.sweep_cache(&self.vt.clone());
        }
        replies
    }

    /// Services `[READ, x]`: replies with the owned page and its
    /// writestamp. Figure 4: `send [R_REPLY, x, M_i[x].value, M_i[x].VT]`.
    ///
    /// # Panics
    ///
    /// Panics if this node does not own `page` (a routing bug).
    fn serve_read(&mut self, from: NodeId, page: PageId) -> Msg<V> {
        assert_eq!(
            self.current_owner(page),
            self.id,
            "READ routed to non-owner"
        );
        self.register_interest(page, from);
        let entry = &self.pages[&page];
        Msg::ReadReply {
            page,
            vt: self.stamp(entry.vt.clone()),
            slots: entry
                .slots
                .iter()
                .map(|s| (Arc::clone(&s.value), s.wid))
                .collect(),
        }
    }

    /// Services `[WRITE, x, v, VT]`.
    ///
    /// Figure 4: `VT_i := update(VT_i, VT)`; `M_i[x] := (v, VT_i)`;
    /// `∀y ∈ C_i : M_i[y].VT < VT_i → M_i[y] := ⊥`; reply
    /// `[W_REPLY, x, v, VT_i]`.
    ///
    /// Under [`WritePolicy::OwnerFavored`], an incoming write whose origin
    /// stamp is *concurrent* with the currently installed slot's origin
    /// stamp loses if the current value was written by the owner itself
    /// (§4.2); the reply then carries the surviving value.
    ///
    /// # Panics
    ///
    /// Panics if this node does not own `loc` (a routing bug).
    fn serve_write(
        &mut self,
        from: NodeId,
        loc: Location,
        value: Arc<V>,
        wid: WriteId,
        vt: VectorClock,
    ) -> Msg<V> {
        let reply = self.serve_write_unswept(from, loc, value, wid, vt);
        // ∀y ∈ C_i : M_i[y].VT < VT_i → M_i[y] := ⊥
        // (A potential causal interaction with the writer occurred, applied
        // or not — the owner's timestamp already merged the writer's.)
        let threshold = self.vt.clone();
        self.sweep_cache(&threshold);
        reply
    }

    /// [`serve_write`](CausalState::serve_write) minus the trailing cache
    /// sweep — the caller must sweep with the final merged timestamp before
    /// yielding control (see [`serve_batch`](CausalState::serve_batch)).
    fn serve_write_unswept(
        &mut self,
        from: NodeId,
        loc: Location,
        value: Arc<V>,
        wid: WriteId,
        vt: VectorClock,
    ) -> Msg<V> {
        let page = self.page_of(loc);
        assert_eq!(
            self.current_owner(page),
            self.id,
            "WRITE routed to non-owner"
        );
        self.register_interest(page, from);

        // VT_i := update(VT_i, VT)
        self.vt.update(&vt);

        let offset = self.offset_of(loc);
        // A write whose origin stamp is strictly dominated by the
        // installed value's origin is *already overwritten on arrival*:
        // the current value was written with knowledge of this one. This
        // can only happen with non-blocking writes (a blocking writer's
        // increment cannot be known anywhere before the owner sees it);
        // installing it would let readers regress to an overwritten value.
        // It counts as applied — applied and instantly overwritten.
        let (reject, stale) = {
            let slot = &self.pages[&page].slots[offset];
            (
                self.config.policy() == WritePolicy::OwnerFavored
                    && slot.wid.writer() == Some(self.id)
                    && slot.origin.concurrent(&vt),
                vt.dominated_by(&slot.origin),
            )
        };

        if self.journaling() {
            // Append before the install (and the caller syncs before the
            // reply leaves): a certified write is on disk first. Verdicts
            // that install nothing still journal the clock merge.
            self.journal.push(WalRecord::Write {
                loc,
                value: Arc::clone(&value),
                wid,
                origin: vt.clone(),
                node_vt: self.vt.clone(),
                applied: !reject && !stale,
            });
        }

        let verdict = if reject {
            let slot = &self.pages[&page].slots[offset];
            WriteVerdict::Rejected {
                value: Arc::clone(&slot.value),
                wid: slot.wid,
            }
        } else if stale {
            WriteVerdict::Applied
        } else {
            // M_i[x] := (v, VT_i)
            let entry = self
                .pages
                .get_mut(&page)
                .expect("owned pages are always present");
            entry.slots[offset].install(Incoming::Shared(value), wid, &vt);
            entry.vt.clone_from(&self.vt);
            self.note_owned_write(page);
            WriteVerdict::Applied
        };

        Msg::WriteReply {
            loc,
            wid,
            vt: self.stamp(self.vt.clone()),
            verdict,
        }
    }

    // ------------------------------------------------------------------
    // discard — Figure 4, fifth procedure
    // ------------------------------------------------------------------

    /// Discards the cached copy of the page containing `loc`, if any.
    ///
    /// Owned and constant pages are never discarded. Returns `true` if a
    /// copy was dropped.
    pub fn discard(&mut self, loc: Location) -> bool {
        let page = self.page_of(loc);
        if self.current_owner(page) == self.id || self.config.is_const_page(page) {
            return false;
        }
        let dropped = self.pages.remove(&page).is_some();
        if dropped {
            self.note_dropped(page);
        }
        dropped
    }

    /// Discards an arbitrary cached page (the paper's nondeterministic
    /// `discard :: M_i[y] := ⊥ : ∃y ∈ C_i`), choosing the least recently
    /// installed. Returns the discarded page, if any.
    pub fn discard_any(&mut self) -> Option<PageId> {
        let victim = self
            .pages
            .iter()
            .filter(|(p, _)| self.current_owner(**p) != self.id && !self.config.is_const_page(**p))
            .min_by_key(|(_, e)| e.installed_at)
            .map(|(p, _)| *p)?;
        self.pages.remove(&victim);
        self.note_dropped(victim);
        Some(victim)
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Invalidate every cached page strictly older than `threshold` —
    /// the Figure-4 sweep `∀y ∈ C_i : M_i[y].VT < VT → M_i[y] := ⊥`.
    fn sweep_cache(&mut self, threshold: &VectorClock) {
        self.sweeps += 1;
        let id = self.id;
        let owners = self.config.owners().clone();
        let before = self.pages.len();
        let config = &self.config;
        let failover = &self.failover;
        self.pages.retain(|page, entry| {
            let owner = match failover {
                Some(fo) => owner_at(owners.as_ref(), *page, fo.epoch_of(*page)),
                None => owners.owner_of_page(*page),
            };
            owner == id || config.is_const_page(*page) || !entry.vt.dominated_by(threshold)
        });
        self.invalidations += (before - self.pages.len()) as u64;
    }

    /// Evict oldest cached pages until within the configured capacity,
    /// never evicting `keep` (the page just installed).
    fn enforce_cache_capacity(&mut self, keep: PageId) {
        let Some(cap) = self.config.cache_capacity() else {
            return;
        };
        while self.cached_pages() > cap {
            let victim = self
                .pages
                .iter()
                .filter(|(p, _)| {
                    **p != keep
                        && self.current_owner(**p) != self.id
                        && !self.config.is_const_page(**p)
                })
                .min_by_key(|(_, e)| e.installed_at)
                .map(|(p, _)| *p);
            match victim {
                Some(page) => {
                    self.pages.remove(&page);
                    self.note_dropped(page);
                }
                None => break,
            }
        }
    }

    // ------------------------------------------------------------------
    // Interest scoping (inert unless `interest_scoping` is configured)
    // ------------------------------------------------------------------

    /// Wraps a timestamp for the wire: sparse under interest scoping,
    /// dense (the Figure-4 byte-identical shape) otherwise.
    fn stamp(&self, vt: VectorClock) -> Stamp {
        Stamp::new(vt, self.config.interest_scoping())
    }

    /// Records that `peer` holds a copy of `page` — it was just served
    /// one, or certified a write it will cache. Registration is implicit
    /// in the request; no extra message exists for it.
    fn register_interest(&mut self, page: PageId, peer: NodeId) {
        if !self.config.interest_scoping() || peer == self.id {
            return;
        }
        let set = self.interest.entry(page).or_default();
        let newly = !set.contains(&peer);
        if newly {
            set.push(peer);
        }
        if newly && self.journaling() {
            self.journal.push(WalRecord::Interest {
                page,
                node: peer,
                registered: true,
            });
        }
    }

    /// Absorbs a peer's `[INTEREST]` drop: it evicted its copy of `page`
    /// and no longer needs this node's scoped shipments for it.
    pub fn handle_interest_drop(&mut self, page: PageId, peer: NodeId) {
        let mut removed = false;
        if let Some(set) = self.interest.get_mut(&page) {
            let before = set.len();
            set.retain(|p| *p != peer);
            removed = set.len() != before;
            if set.is_empty() {
                self.interest.remove(&page);
            }
        }
        if removed && self.journaling() {
            self.journal.push(WalRecord::Interest {
                page,
                node: peer,
                registered: false,
            });
        }
    }

    /// The peers registered as caching `page` (always empty unless this
    /// node serves the page under interest scoping).
    #[must_use]
    pub fn interested(&self, page: PageId) -> &[NodeId] {
        self.interest.get(&page).map_or(&[], |set| set.as_slice())
    }

    /// Queues an `[INTEREST]` drop to `page`'s owner after evicting the
    /// cached copy. Invalidation sweeps do not send drops: a swept page
    /// is typically re-fetched promptly, and an over-full interest set is
    /// a safe over-approximation.
    fn note_dropped(&mut self, page: PageId) {
        if !self.config.interest_scoping() {
            return;
        }
        let owner = self.current_owner(page);
        if owner != self.id {
            self.pending_interest.push((owner, Msg::Interest { page }));
        }
    }

    /// Drains the queued `[INTEREST]` drops; the engine sends each to the
    /// page's owner.
    pub fn take_interest_msgs(&mut self) -> Vec<(NodeId, Msg<V>)> {
        std::mem::take(&mut self.pending_interest)
    }

    // ------------------------------------------------------------------
    // Owner failover (inert unless a FailoverConfig is attached)
    // ------------------------------------------------------------------

    /// The attached failover configuration, if any.
    #[must_use]
    pub fn failover_config(&self) -> Option<FailoverConfig> {
        self.failover.as_ref().map(|fo| fo.config)
    }

    /// Hands out the next operation id for stamping a remote request.
    /// Ids are monotone per node, so a late reply to an abandoned attempt
    /// can never be mistaken for the current one.
    pub fn next_op_id(&mut self) -> u64 {
        match &mut self.failover {
            Some(fo) => {
                let op = fo.next_op;
                fo.next_op += 1;
                op
            }
            None => 0,
        }
    }

    /// Adopts `epoch` for `page` if it is newer than what this node
    /// believes (epochs only ever grow — a max-merge). If the adoption
    /// makes this node the page's owner, the page is promoted: the shadow
    /// copy (or, failing that, a cached or fabricated initial copy)
    /// becomes the authoritative owned page.
    pub fn observe_epoch(&mut self, page: PageId, epoch: OwnerEpoch) {
        let Some(fo) = &self.failover else { return };
        if epoch <= fo.epoch_of(page) {
            return;
        }
        let was_owner = self.current_owner(page) == self.id;
        self.failover
            .as_mut()
            .expect("checked above")
            .epochs
            .insert(page, epoch);
        if self.journaling() {
            self.journal.push(WalRecord::Epoch { page, epoch });
        }
        if !was_owner && self.current_owner(page) == self.id {
            self.promote(page);
        }
        // If this node *lost* ownership (it is the crashed ex-owner,
        // rejoining), nothing needs doing: its copy of the page simply
        // becomes a cache entry, sweepable and discardable like any other.
    }

    /// Installs the best available copy of a page this node just became
    /// owner of. Preference order: the certified shadow (unless a local
    /// copy is strictly fresher), then an existing cached copy, then the
    /// distinguished initial page (possible only if no write to the page
    /// was ever certified — certification replicates).
    fn promote(&mut self, page: PageId) {
        let shadow = self
            .failover
            .as_mut()
            .expect("promote requires failover")
            .shadows
            .remove(&page);
        if let Some(shadow) = shadow {
            let stale = self
                .pages
                .get(&page)
                .is_some_and(|e| shadow.vt.dominated_by(&e.vt));
            if !stale {
                // Installing the shadow introduces its knowledge: merge
                // the clock and run the Figure-4 sweep, exactly as a
                // read-miss install would.
                self.vt.update(&shadow.vt);
                let threshold = shadow.vt.clone();
                self.sweep_cache(&threshold);
                self.tick += 1;
                let entry = PageEntry {
                    vt: shadow.vt,
                    slots: shadow
                        .slots
                        .into_iter()
                        .zip(shadow.origins)
                        .map(|((value, wid), origin)| Slot {
                            value,
                            wid,
                            origin: Arc::new(origin),
                        })
                        .collect(),
                    installed_at: self.tick,
                };
                self.pages.insert(page, entry);
            }
        } else if !self.pages.contains_key(&page) {
            let n = self.config.nodes() as usize;
            let entry = Self::initial_page(&self.config, page, n);
            self.pages.insert(page, entry);
        }
        if self.journaling() {
            // Journal the authoritative copy this promotion settled on —
            // shadow, surviving local copy, or fabricated initial page —
            // so recovery rebuilds exactly what this owner now serves.
            if let Some(entry) = self.pages.get(&page) {
                let record = WalRecord::PageInstall {
                    page,
                    vt: entry.vt.clone(),
                    slots: entry
                        .slots
                        .iter()
                        .map(|s| (Arc::clone(&s.value), s.wid))
                        .collect(),
                    origins: entry.slots.iter().map(|s| (*s.origin).clone()).collect(),
                    shadow: false,
                };
                self.journal.push(record);
            }
        }
    }

    /// Services an epoch-stamped request (the failover envelope).
    ///
    /// * Request epoch behind ours, or we are not the owner → `[NACK]`
    ///   carrying our epoch and a redirect to the node we believe serves
    ///   the page.
    /// * Request epoch ahead of ours → adopt it (promoting ourselves if
    ///   we are the successor the sender migrated to), then serve.
    /// * Otherwise → serve `inner` exactly as Figure 4 would and wrap the
    ///   reply in the same `(epoch, op)` stamp so the client can match it.
    pub fn serve_stamped(
        &mut self,
        from: NodeId,
        epoch: OwnerEpoch,
        op: u64,
        inner: Msg<V>,
    ) -> Option<Msg<V>> {
        self.failover.as_ref()?;
        let page = match &inner {
            Msg::Read { page } => *page,
            Msg::Write { loc, .. } => self.page_of(*loc),
            _ => return None,
        };
        self.observe_epoch(page, epoch);
        let mine = self.epoch_of(page);
        if epoch < mine || self.current_owner(page) != self.id {
            return Some(Msg::Nack {
                page,
                op,
                epoch: mine,
                redirect: self.current_owner(page),
            });
        }
        let reply = self.serve(from, inner)?;
        Some(Msg::Stamped {
            epoch: mine,
            op,
            inner: Box::new(reply),
        })
    }

    /// Declares `node` crashed: every page it currently serves migrates
    /// to its successor (epoch + 1), promoting this node wherever it is
    /// that successor. Returns the migrated pages with their new epochs —
    /// the payload of the `[SUSPECT]` broadcast that spreads the decision
    /// (and, retransmitted by the session layer, eventually re-educates
    /// the crashed node itself when it comes back).
    pub fn suspect(&mut self, node: NodeId) -> Vec<(PageId, OwnerEpoch)> {
        if self.failover.is_none() || node == self.id {
            return Vec::new();
        }
        let mut migrated = Vec::new();
        for page_index in 0..self.config.page_count() {
            let page = PageId::new(page_index);
            if self.current_owner(page) == node {
                let next = self.epoch_of(page).next();
                self.observe_epoch(page, next);
                migrated.push((page, next));
            }
        }
        if let Some(fo) = &mut self.failover {
            if let Some(s) = fo.suspected.get_mut(node.index()) {
                *s = true;
            }
        }
        migrated
    }

    /// Absorbs a peer's `[SUSPECT]` broadcast, adopting each migrated
    /// epoch. When this node *is* the suspect — it crashed, recovered,
    /// and is now being told the cluster moved on — it thereby learns its
    /// former pages migrated and rejoins as a cache-only peer for them.
    pub fn absorb_suspect(&mut self, suspect: NodeId, epochs: &[(PageId, OwnerEpoch)]) {
        if self.failover.is_none() {
            return;
        }
        for (page, epoch) in epochs {
            self.observe_epoch(*page, *epoch);
        }
        if suspect != self.id {
            if let Some(fo) = &mut self.failover {
                if let Some(s) = fo.suspected.get_mut(suspect.index()) {
                    *s = true;
                }
            }
        }
    }

    /// Stores a `[REPL]` shadow from the page's current owner, unless a
    /// strictly fresher shadow is already held.
    pub fn apply_replicate(
        &mut self,
        page: PageId,
        vt: VectorClock,
        slots: Vec<SlotData<V>>,
        origins: Vec<VectorClock>,
    ) {
        let Some(fo) = &self.failover else { return };
        let newer = match fo.shadows.get(&page) {
            Some(s) => !vt.dominated_by(&s.vt),
            None => true,
        };
        if !newer {
            return;
        }
        if self.journaling() {
            self.journal.push(WalRecord::PageInstall {
                page,
                vt: vt.clone(),
                slots: slots.clone(),
                origins: origins.clone(),
                shadow: true,
            });
        }
        self.failover
            .as_mut()
            .expect("checked above")
            .shadows
            .insert(page, ShadowPage { vt, slots, origins });
    }

    /// Drains the owned pages written since the last drain into one
    /// `[REPL]` per page, addressed to its successor. Engines call this
    /// whenever the node yields control (after an operation or a service
    /// round), so the successor's shadow lags the owner by at most the
    /// in-flight window.
    pub fn take_replications(&mut self) -> Vec<(NodeId, Msg<V>)> {
        let dirty = match &mut self.failover {
            Some(fo) => std::mem::take(&mut fo.pending_repl),
            None => return Vec::new(),
        };
        if self.config.nodes() < 2 {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(dirty.len());
        for page in dirty {
            // Migrated away since the write: the new owner replicates.
            if self.current_owner(page) != self.id {
                continue;
            }
            let successor = owner_at(
                self.config.owners().as_ref(),
                page,
                self.epoch_of(page).next(),
            );
            if successor == self.id {
                continue;
            }
            let Some(entry) = self.pages.get(&page) else {
                continue;
            };
            out.push((
                successor,
                Msg::Replicate {
                    page,
                    vt: self.stamp(entry.vt.clone()),
                    slots: entry
                        .slots
                        .iter()
                        .map(|s| (Arc::clone(&s.value), s.wid))
                        .collect(),
                    origins: entry.slots.iter().map(|s| (*s.origin).clone()).collect(),
                },
            ));
        }
        out
    }

    // ------------------------------------------------------------------
    // Durability (config-gated; see `dsm_durable`)
    // ------------------------------------------------------------------

    /// `true` iff a [`dsm_durable::DurableConfig`] is attached — the gate
    /// every journal emission checks before allocating anything.
    fn journaling(&self) -> bool {
        self.config.durability().is_some()
    }

    /// This life's incarnation number (0 for a first life; recovered
    /// lives get the persisted maximum plus one). Session layers stamp
    /// frames with it to fence a previous life's traffic.
    #[must_use]
    pub fn incarnation(&self) -> u32 {
        self.incarnation
    }

    /// Drains the records journaled since the last drain. A
    /// [`NodeDriver`](crate::NodeDriver) with a log calls this at the end
    /// of every entry point and appends the batch *before* returning any
    /// reply — certification implies durability (to the extent the sync
    /// policy promises). Always empty when durability is off.
    pub fn take_journal(&mut self) -> Vec<WalRecord<V>> {
        std::mem::take(&mut self.journal)
    }

    /// A self-contained record sequence reproducing this node's durable
    /// state — what checkpoint compaction writes. Replaying it through
    /// [`CausalState::recover`] on an empty state yields this state
    /// minus the (always discardable) cache.
    #[must_use]
    pub fn durable_image(&self) -> Vec<WalRecord<V>> {
        let mut out = vec![WalRecord::Node {
            vt: self.vt.clone(),
            write_seq: self.write_seq,
            incarnation: self.incarnation,
        }];
        if let Some(fo) = &self.failover {
            let mut epochs: Vec<_> = fo.epochs.iter().map(|(p, e)| (*p, *e)).collect();
            epochs.sort_unstable_by_key(|(p, _)| *p);
            for (page, epoch) in epochs {
                out.push(WalRecord::Epoch { page, epoch });
            }
        }
        let mut owned: Vec<_> = self
            .pages
            .iter()
            .filter(|(p, _)| self.current_owner(**p) == self.id)
            .collect();
        owned.sort_unstable_by_key(|(p, _)| **p);
        for (page, entry) in owned {
            out.push(WalRecord::PageInstall {
                page: *page,
                vt: entry.vt.clone(),
                slots: entry
                    .slots
                    .iter()
                    .map(|s| (Arc::clone(&s.value), s.wid))
                    .collect(),
                origins: entry.slots.iter().map(|s| (*s.origin).clone()).collect(),
                shadow: false,
            });
        }
        if let Some(fo) = &self.failover {
            let mut shadows: Vec<_> = fo.shadows.iter().collect();
            shadows.sort_unstable_by_key(|(p, _)| **p);
            for (page, sh) in shadows {
                out.push(WalRecord::PageInstall {
                    page: *page,
                    vt: sh.vt.clone(),
                    slots: sh.slots.clone(),
                    origins: sh.origins.clone(),
                    shadow: true,
                });
            }
        }
        let mut interest: Vec<_> = self.interest.iter().collect();
        interest.sort_unstable_by_key(|(p, _)| **p);
        for (page, peers) in interest {
            for peer in peers {
                out.push(WalRecord::Interest {
                    page: *page,
                    node: *peer,
                    registered: true,
                });
            }
        }
        out
    }

    /// Rebuilds processor `id` from a recovered record stream
    /// (checkpoint image followed by the surviving log tail, in append
    /// order) as incarnation `incarnation`.
    ///
    /// Recovery is deliberately conservative: the cache is *not*
    /// restored (a cold cache is always causally safe — refetching from
    /// owners is monotone), and any owned page with no durable record
    /// comes back as the initial page (possible only for pages never
    /// written under a certifying sync policy). Replay is idempotent,
    /// so records duplicated across a checkpoint image and the log tail
    /// (the benign checkpoint race) are harmless.
    #[must_use]
    pub fn recover(
        id: NodeId,
        config: CausalConfig<V>,
        records: Vec<WalRecord<V>>,
        incarnation: u32,
    ) -> Self {
        let mut state = Self::new(id, config);
        state.incarnation = incarnation;
        for record in records {
            state.replay(record);
        }
        // Drop everything this node does not currently own: cached
        // copies may be stale relative to writes certified elsewhere
        // while we were down, and shadow-promoted pages belong to the
        // epoch table rebuilt above.
        let owned: Vec<PageId> = state
            .pages
            .keys()
            .filter(|p| state.current_owner(**p) == state.id)
            .copied()
            .collect();
        state.pages.retain(|p, _| owned.contains(p));
        // Safety net: an owned page with no durable record at all (never
        // certified a write under `every_op`, or lost under a weaker
        // policy) restarts from the initial image.
        let n = state.config.nodes() as usize;
        for page_index in 0..state.config.page_count() {
            let page = PageId::new(page_index);
            if state.current_owner(page) == state.id && !state.pages.contains_key(&page) {
                let entry = Self::initial_page(&state.config, page, n);
                state.pages.insert(page, entry);
            }
        }
        state.op_begin_vt = state.vt.clone();
        // The replay helpers above re-journal what they install; none of
        // it is new information. Start this life's journal with a single
        // rejoin watermark carrying the bumped incarnation.
        state.journal.clear();
        if state.journaling() {
            state.journal.push(WalRecord::Node {
                vt: state.vt.clone(),
                write_seq: state.write_seq,
                incarnation,
            });
        }
        state
    }

    /// Applies one WAL record during [`CausalState::recover`].
    fn replay(&mut self, record: WalRecord<V>) {
        match record {
            WalRecord::Node {
                vt,
                write_seq,
                incarnation: _,
            } => {
                self.vt.update(&vt);
                self.write_seq = self.write_seq.max(write_seq);
            }
            WalRecord::Write {
                loc,
                value,
                wid,
                origin,
                node_vt,
                applied,
            } => {
                self.vt.update(&node_vt);
                if wid.writer() == Some(self.id) {
                    self.write_seq = self.write_seq.max(wid.seq() + 1);
                }
                if !applied {
                    return;
                }
                let page = self.page_of(loc);
                let offset = self.offset_of(loc);
                let n = self.config.nodes() as usize;
                let entry = self
                    .pages
                    .entry(page)
                    .or_insert_with(|| Self::initial_page(&self.config, page, n));
                entry.slots[offset] = Slot {
                    value,
                    wid,
                    origin: Arc::new(origin),
                };
                entry.vt.update(&node_vt);
                self.note_owned_write(page);
            }
            WalRecord::PageInstall {
                page,
                vt,
                slots,
                origins,
                shadow,
            } => {
                if shadow {
                    self.apply_replicate(page, vt, slots, origins);
                } else {
                    let slots = slots
                        .into_iter()
                        .zip(origins)
                        .map(|((value, wid), origin)| Slot {
                            value,
                            wid,
                            origin: Arc::new(origin),
                        })
                        .collect();
                    let installed_at = self.tick;
                    self.pages.insert(
                        page,
                        PageEntry {
                            vt,
                            slots,
                            installed_at,
                        },
                    );
                    self.note_owned_write(page);
                }
            }
            WalRecord::Epoch { page, epoch } => {
                if let Some(fo) = &mut self.failover {
                    let merged = fo.epoch_of(page).max(epoch);
                    fo.epochs.insert(page, merged);
                }
            }
            WalRecord::Interest {
                page,
                node,
                registered,
            } => {
                if registered {
                    self.register_interest(page, node);
                } else {
                    self.handle_interest_drop(page, node);
                }
            }
        }
    }

    fn note_owned_write(&mut self, page: PageId) {
        if let Some(fo) = &mut self.failover {
            fo.mark_dirty(page);
        }
    }

    /// Records that `peer` was heard from at transport time `now` (any
    /// message counts as life, not just heartbeats).
    pub fn record_alive(&mut self, peer: NodeId, now: u64) {
        if let Some(fo) = &mut self.failover {
            fo.record_alive(peer, now);
        }
    }

    /// The next outgoing `[HEARTBEAT]`, or `None` with failover disabled.
    pub fn heartbeat_msg(&mut self) -> Option<Msg<V>> {
        let fo = self.failover.as_mut()?;
        let seq = fo.heartbeat_seq;
        fo.heartbeat_seq += 1;
        Some(Msg::Heartbeat { seq })
    }

    /// Peers whose silence now exceeds the suspicion budget
    /// (`heartbeat_interval × suspicion_threshold`); each is returned at
    /// most once. The caller follows up with [`CausalState::suspect`] and
    /// broadcasts the result.
    pub fn check_suspicions(&mut self, now: u64) -> Vec<NodeId> {
        let id = self.id;
        match &mut self.failover {
            Some(fo) => fo.check_suspicions(id, now),
            None => Vec::new(),
        }
    }

    /// `true` iff this node currently believes `node` has crashed.
    #[must_use]
    pub fn is_suspected(&self, node: NodeId) -> bool {
        self.failover
            .as_ref()
            .is_some_and(|fo| fo.is_suspected(node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memcore::Word;

    fn p(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn loc(i: u32) -> Location {
        Location::new(i)
    }

    /// Two nodes; P0 owns even locations, P1 owns odd (round-robin,
    /// page size 1, 4 locations).
    fn pair() -> (CausalState<Word>, CausalState<Word>) {
        let config = CausalConfig::<Word>::builder(2, 4).build();
        (
            CausalState::new(p(0), config.clone()),
            CausalState::new(p(1), config),
        )
    }

    /// Drives a full remote write from `writer` certified by `owner`.
    fn remote_write(
        writer: &mut CausalState<Word>,
        owner: &mut CausalState<Word>,
        l: Location,
        v: Word,
    ) -> WriteDone {
        match writer.begin_write(l, v) {
            WriteStep::Remote {
                owner: dst,
                wid,
                request,
            } => {
                assert_eq!(dst, owner.id());
                let reply = owner.serve(writer.id(), request).unwrap();
                writer.finish_write(Arc::new(v), wid, reply)
            }
            WriteStep::Done { .. } => panic!("expected remote write"),
        }
    }

    /// Drives a full remote read from `reader` served by `owner`.
    fn remote_read(
        reader: &mut CausalState<Word>,
        owner: &mut CausalState<Word>,
        l: Location,
    ) -> (Word, WriteId) {
        match reader.begin_read(l) {
            ReadStep::Miss {
                owner: dst,
                request,
            } => {
                assert_eq!(dst, owner.id());
                let reply = owner.serve(reader.id(), request).unwrap();
                let (value, wid) = reader.finish_read(l, reply);
                (*value, wid)
            }
            ReadStep::Hit { value, wid } => (*value, wid),
        }
    }

    #[test]
    fn initial_reads_of_owned_locations_return_initial_value() {
        let (mut p0, _) = pair();
        match p0.begin_read(loc(0)) {
            ReadStep::Hit { value, wid } => {
                assert_eq!(*value, Word::Zero);
                assert!(wid.is_initial());
            }
            ReadStep::Miss { .. } => panic!("owned location must hit"),
        }
    }

    #[test]
    fn owned_write_completes_locally_and_bumps_vt() {
        let (mut p0, _) = pair();
        let step = p0.begin_write(loc(0), Word::Int(5));
        assert!(matches!(step, WriteStep::Done { .. }));
        assert_eq!(p0.vt().get(0), 1);
        assert_eq!(p0.peek(loc(0)).unwrap().0, &Word::Int(5));
    }

    #[test]
    fn read_miss_fetches_from_owner_and_caches() {
        let (mut p0, mut p1) = pair();
        p0.begin_write(loc(0), Word::Int(7));
        let (v, wid) = remote_read(&mut p1, &mut p0, loc(0));
        assert_eq!(v, Word::Int(7));
        assert_eq!(wid.writer(), Some(p(0)));
        // Cached: second read hits locally.
        assert!(matches!(p1.begin_read(loc(0)), ReadStep::Hit { .. }));
        assert_eq!(p1.cached_pages(), 1);
        // Reader's VT picked up the owner's page stamp.
        assert_eq!(p1.vt().get(0), 1);
    }

    #[test]
    fn remote_write_round_trip_updates_both_timestamps() {
        let (mut p0, mut p1) = pair();
        let done = remote_write(&mut p1, &mut p0, loc(0), Word::Int(3));
        assert!(done.is_applied());
        // Writer incremented its own component; owner merged it.
        assert_eq!(p1.vt().get(1), 1);
        assert_eq!(p0.vt().get(1), 1);
        // Owner installed the value.
        assert_eq!(p0.peek(loc(0)).unwrap().0, &Word::Int(3));
        // Writer caches the written value (M_i[x] := (v, VT_i)).
        assert_eq!(p1.peek(loc(0)).unwrap().0, &Word::Int(3));
    }

    #[test]
    fn serve_batch_matches_sequential_service_with_one_sweep() {
        // The same three pipelined writes served one-by-one and as a batch:
        // identical replies, identical final memory, but the batch pays a
        // single sweep pass where sequential service pays three.
        let mk = || pair();
        let (mut seq_owner, mut seq_writer) = mk();
        let (mut batch_owner, mut batch_writer) = mk();

        let writes = [
            (loc(0), Word::Int(1)),
            (loc(2), Word::Int(2)),
            (loc(0), Word::Int(3)),
        ];

        let mut seq_replies = Vec::new();
        let mut batch_requests = Vec::new();
        for (l, v) in writes {
            let WriteStep::Remote { request, .. } = seq_writer.begin_write(l, v) else {
                panic!("expected remote write");
            };
            seq_replies.push(seq_owner.serve(seq_writer.id(), request).unwrap());
            let WriteStep::Remote { request, .. } = batch_writer.begin_write(l, v) else {
                panic!("expected remote write");
            };
            batch_requests.push(request);
        }
        let sweeps_before = batch_owner.sweep_count();
        let batch_replies = batch_owner.serve_batch(batch_writer.id(), batch_requests);

        assert_eq!(batch_replies, seq_replies);
        assert_eq!(batch_owner.vt(), seq_owner.vt());
        assert_eq!(
            batch_owner.peek(loc(0)).unwrap().0,
            seq_owner.peek(loc(0)).unwrap().0
        );
        assert_eq!(batch_owner.sweep_count() - sweeps_before, 1);
        assert!(seq_owner.sweep_count() >= 3);
    }

    #[test]
    fn batched_sweep_drops_the_same_cache_entries_as_sequential() {
        // The owner caches a page of the writer's; a batch of writes must
        // invalidate it exactly as sequential service would.
        let (mut seq_owner, mut seq_writer) = pair();
        let (mut batch_owner, mut batch_writer) = pair();
        for (owner, writer) in [
            (&mut seq_owner, &mut seq_writer),
            (&mut batch_owner, &mut batch_writer),
        ] {
            writer.begin_write(loc(1), Word::Int(7));
            let _ = remote_read(owner, writer, loc(1));
            assert!(owner.has_valid_copy(loc(1)));
            // The writer writes x1 again so its next request's stamp
            // dominates the owner's cached copy of x1.
            writer.begin_write(loc(1), Word::Int(8));
        }

        let WriteStep::Remote { request, .. } = seq_writer.begin_write(loc(0), Word::Int(9)) else {
            panic!("expected remote write");
        };
        let _ = seq_owner.serve(seq_writer.id(), request).unwrap();

        let WriteStep::Remote { request, .. } = batch_writer.begin_write(loc(0), Word::Int(9))
        else {
            panic!("expected remote write");
        };
        let _ = batch_owner.serve_batch(batch_writer.id(), vec![request]);

        assert_eq!(
            batch_owner.has_valid_copy(loc(1)),
            seq_owner.has_valid_copy(loc(1))
        );
        assert!(!batch_owner.has_valid_copy(loc(1)));
        assert_eq!(
            batch_owner.invalidation_count(),
            seq_owner.invalidation_count()
        );
    }

    #[test]
    fn new_value_invalidates_causally_older_cache_entries() {
        // P1 caches x0 (owned by P0). P0 then writes x0 again and x2; when
        // P1 reads x2 it must invalidate its stale cached x0 because the
        // cached stamp is dominated by the incoming one.
        let (mut p0, mut p1) = pair();
        p0.begin_write(loc(0), Word::Int(1));
        let _ = remote_read(&mut p1, &mut p0, loc(0));
        assert!(p1.has_valid_copy(loc(0)));

        p0.begin_write(loc(0), Word::Int(2));
        p0.begin_write(loc(2), Word::Int(9));
        let (v, _) = remote_read(&mut p1, &mut p0, loc(2));
        assert_eq!(v, Word::Int(9));
        // The cached x0 (stamp [1,0]) is dominated by x2's stamp [3,0]:
        // invalidated.
        assert!(!p1.has_valid_copy(loc(0)));
        assert_eq!(p1.invalidation_count(), 1);
        // Next read of x0 misses and sees the new value.
        let (v, _) = remote_read(&mut p1, &mut p0, loc(0));
        assert_eq!(v, Word::Int(2));
    }

    #[test]
    fn concurrent_cache_entries_survive_introduction() {
        // P1 writes its own location x1 (concurrent with everything P0
        // does), then reads x0 from P0. The fetched stamp is concurrent
        // with nothing cached — and P1's own pages are owned, never
        // invalidated.
        let (mut p0, mut p1) = pair();
        p1.begin_write(loc(1), Word::Int(8));
        p0.begin_write(loc(0), Word::Int(4));
        let _ = remote_read(&mut p1, &mut p0, loc(0));
        assert_eq!(p1.peek(loc(1)).unwrap().0, &Word::Int(8));
    }

    #[test]
    fn owner_write_service_invalidates_owner_cache() {
        // P0 caches x1 (owned by P1). P1 then writes x1 (local), writes
        // again... to get the owner's cache swept we need P1 to *send* a
        // write to P0: P1 writes x0. P0's cached copy of x1 is older than
        // the merged stamp → invalidated.
        let (mut p0, mut p1) = pair();
        p1.begin_write(loc(1), Word::Int(1)); // VT1=[0,1]
        let _ = remote_read(&mut p0, &mut p1, loc(1)); // P0 caches x1@[0,1], VT0=[0,1]
        assert!(p0.has_valid_copy(loc(1)));

        p1.begin_write(loc(1), Word::Int(2)); // VT1=[0,2]
        let done = remote_write(&mut p1, &mut p0, loc(0), Word::Int(5)); // VT1=[0,3]
        assert!(done.is_applied());
        // P0's cached x1 has stamp [0,1] < merged [0,3] → invalidated.
        assert!(!p0.has_valid_copy(loc(1)));
    }

    #[test]
    fn paper_exact_mode_does_not_sweep_writer_cache() {
        // Figure 4's writer does not invalidate on W_REPLY. Construct:
        // P1 caches x0@old. P0 advances (writes x0 twice). P1 then writes
        // x2 (owned by P0); the merged reply stamp dominates the cached
        // x0, but PaperExact leaves it; WriterInvalidate drops it.
        for (mode, expect_valid) in [
            (InvalidationMode::PaperExact, true),
            (InvalidationMode::WriterInvalidate, false),
        ] {
            let config = CausalConfig::<Word>::builder(2, 4)
                .invalidation(mode)
                .build();
            let mut p0 = CausalState::new(p(0), config.clone());
            let mut p1 = CausalState::new(p(1), config);

            p0.begin_write(loc(0), Word::Int(1));
            let _ = remote_read(&mut p1, &mut p0, loc(0));
            p0.begin_write(loc(0), Word::Int(2));
            p0.begin_write(loc(0), Word::Int(3));
            let _ = remote_write(&mut p1, &mut p0, loc(2), Word::Int(9));
            assert_eq!(
                p1.has_valid_copy(loc(0)),
                expect_valid,
                "mode {mode:?}: cached x0 validity"
            );
        }
    }

    #[test]
    fn owner_favored_policy_rejects_concurrent_remote_write() {
        // §4.2 scenario: the owner (P0) writes x0; P1, not having seen
        // that write, concurrently writes x0. Under OwnerFavored the
        // remote write is rejected and P1 learns the surviving value.
        let config = CausalConfig::<Word>::builder(2, 4)
            .policy(WritePolicy::OwnerFavored)
            .build();
        let mut p0 = CausalState::new(p(0), config.clone());
        let mut p1 = CausalState::new(p(1), config);

        p0.begin_write(loc(0), Word::Int(10)); // owner's write, origin [1,0]
        let done = remote_write(&mut p1, &mut p0, loc(0), Word::Int(20)); // origin [0,1] — concurrent
        let WriteDone::Rejected { winner, .. } = done else {
            panic!("expected rejection, got {done:?}");
        };
        assert_eq!(winner.writer(), Some(p(0)));
        assert_eq!(p0.peek(loc(0)).unwrap().0, &Word::Int(10));
        // Loser's cache converged to the winner.
        assert_eq!(p1.peek(loc(0)).unwrap().0, &Word::Int(10));
    }

    #[test]
    fn owner_favored_policy_accepts_causally_later_write() {
        // P1 first *reads* x0 (seeing the owner's write), then writes: the
        // write causally follows and must be applied.
        let config = CausalConfig::<Word>::builder(2, 4)
            .policy(WritePolicy::OwnerFavored)
            .build();
        let mut p0 = CausalState::new(p(0), config.clone());
        let mut p1 = CausalState::new(p(1), config);

        p0.begin_write(loc(0), Word::Int(10));
        let _ = remote_read(&mut p1, &mut p0, loc(0));
        let done = remote_write(&mut p1, &mut p0, loc(0), Word::Int(20));
        assert!(done.is_applied());
        assert_eq!(p0.peek(loc(0)).unwrap().0, &Word::Int(20));
    }

    #[test]
    fn owner_favored_does_not_protect_non_owner_values() {
        // The installed value was written by P1 (remote); another
        // concurrent remote write by P1... use 3 nodes: P1 and P2 write
        // concurrently to x0 owned by P0. Neither is the owner, so even
        // OwnerFavored applies the later arrival.
        let config = CausalConfig::<Word>::builder(3, 3)
            .policy(WritePolicy::OwnerFavored)
            .build();
        let mut p0 = CausalState::new(p(0), config.clone());
        let mut p1 = CausalState::new(p(1), config.clone());
        let mut p2 = CausalState::new(p(2), config);

        let d1 = remote_write(&mut p1, &mut p0, loc(0), Word::Int(1));
        assert!(d1.is_applied());
        let d2 = remote_write(&mut p2, &mut p0, loc(0), Word::Int(2));
        assert!(d2.is_applied());
        assert_eq!(p0.peek(loc(0)).unwrap().0, &Word::Int(2));
    }

    #[test]
    fn discard_drops_cached_but_not_owned_pages() {
        let (mut p0, mut p1) = pair();
        p0.begin_write(loc(0), Word::Int(1));
        let _ = remote_read(&mut p1, &mut p0, loc(0));
        assert!(p1.has_valid_copy(loc(0)));
        assert!(p1.discard(loc(0)));
        assert!(!p1.has_valid_copy(loc(0)));
        assert!(!p1.discard(loc(0))); // already gone
        assert!(!p0.discard(loc(0))); // owner never discards
        assert!(p0.has_valid_copy(loc(0)));
    }

    #[test]
    fn discard_any_evicts_oldest_cached_page() {
        // Fetch the causally *newer* page first so the second fetch's
        // older stamp does not sweep it: both stay cached.
        let (mut p0, mut p1) = pair();
        p0.begin_write(loc(0), Word::Int(1)); // stamp [1,0]
        p0.begin_write(loc(2), Word::Int(2)); // stamp [2,0]
        let _ = remote_read(&mut p1, &mut p0, loc(2));
        let _ = remote_read(&mut p1, &mut p0, loc(0));
        assert_eq!(p1.cached_pages(), 2);
        let victim = p1.discard_any().unwrap();
        assert_eq!(victim, loc(2).page(1));
        assert_eq!(p1.cached_pages(), 1);
        assert!(p1.has_valid_copy(loc(0)));
    }

    #[test]
    fn cache_capacity_evicts_oldest() {
        let config = CausalConfig::<Word>::builder(2, 8)
            .cache_capacity(1)
            .build();
        let mut p0 = CausalState::new(p(0), config.clone());
        let mut p1 = CausalState::new(p(1), config);
        p0.begin_write(loc(0), Word::Int(1)); // stamp [1,0]
        p0.begin_write(loc(2), Word::Int(2)); // stamp [2,0]
                                              // Fetch newer first (no sweep on the second fetch), so capacity —
                                              // not invalidation — is what evicts.
        let _ = remote_read(&mut p1, &mut p0, loc(2));
        let _ = remote_read(&mut p1, &mut p0, loc(0));
        assert_eq!(p1.cached_pages(), 1);
        assert!(p1.has_valid_copy(loc(0)));
        assert!(!p1.has_valid_copy(loc(2)));
    }

    #[test]
    fn const_pages_survive_sweeps_and_discard() {
        let config = CausalConfig::<Word>::builder(2, 4)
            .const_pages([loc(2).page(1)])
            .build();
        let mut p0 = CausalState::new(p(0), config.clone());
        let mut p1 = CausalState::new(p(1), config);

        p0.begin_write(loc(2), Word::Int(9));
        let _ = remote_read(&mut p1, &mut p0, loc(2));
        // P0 races far ahead; P1 reads x0 with a dominating stamp.
        p0.begin_write(loc(0), Word::Int(1));
        p0.begin_write(loc(0), Word::Int(2));
        let _ = remote_read(&mut p1, &mut p0, loc(0));
        // Const page survived the sweep even though its stamp is dominated.
        assert!(p1.has_valid_copy(loc(2)));
        // And discard refuses to drop it.
        assert!(!p1.discard(loc(2)));
    }

    #[test]
    fn page_granularity_transfers_whole_pages() {
        let config = CausalConfig::<Word>::builder(2, 8).page_size(4).build();
        let mut p0 = CausalState::new(p(0), config.clone());
        let mut p1 = CausalState::new(p(1), config);
        // P0 owns page 0 (locations 0..4).
        p0.begin_write(loc(1), Word::Int(11));
        p0.begin_write(loc(3), Word::Int(33));
        let (v, _) = remote_read(&mut p1, &mut p0, loc(1));
        assert_eq!(v, Word::Int(11));
        // The whole page came over: location 3 now hits locally.
        match p1.begin_read(loc(3)) {
            ReadStep::Hit { value, .. } => assert_eq!(*value, Word::Int(33)),
            ReadStep::Miss { .. } => panic!("page fetch must cache all slots"),
        }
    }

    #[test]
    fn weakly_consistent_execution_of_figure_5_is_produced() {
        // Figure 5: P1: r(y)0 w(x)1 r(y)0 / P2: r(x)0 w(y)1 r(x)0, with
        // P1 = owner(x), P2 = owner(y). Our implementation admits it when
        // each process reads the other's location before any communication.
        let config = CausalConfig::<Word>::builder(2, 2).build();
        // loc0 = x (owner P0), loc1 = y (owner P1).
        let mut p0 = CausalState::new(p(0), config.clone());
        let mut p1 = CausalState::new(p(1), config);

        // Both fetch the other's location first (caching the 0s).
        let (y0, _) = remote_read(&mut p0, &mut p1, loc(1));
        let (x0, _) = remote_read(&mut p1, &mut p0, loc(0));
        assert_eq!((y0, x0), (Word::Zero, Word::Zero));

        // Both write their own location locally (no messages).
        assert!(matches!(
            p0.begin_write(loc(0), Word::Int(1)),
            WriteStep::Done { .. }
        ));
        assert!(matches!(
            p1.begin_write(loc(1), Word::Int(1)),
            WriteStep::Done { .. }
        ));

        // Both re-read the cached copy: still 0. This is the weakly
        // consistent outcome no sequentially consistent memory allows.
        match p0.begin_read(loc(1)) {
            ReadStep::Hit { value, .. } => assert_eq!(*value, Word::Zero),
            ReadStep::Miss { .. } => panic!("cached"),
        }
        match p1.begin_read(loc(0)) {
            ReadStep::Hit { value, .. } => assert_eq!(*value, Word::Zero),
            ReadStep::Miss { .. } => panic!("cached"),
        }
    }

    #[test]
    fn serve_ignores_non_requests() {
        let (mut p0, _) = pair();
        assert!(p0.serve(p(1), Msg::Halt).is_none());
        assert!(p0
            .serve(
                p(1),
                Msg::WriteReply {
                    loc: loc(0),
                    wid: memcore::WriteId::new(p(1), 0),
                    vt: VectorClock::new(2).into(),
                    verdict: WriteVerdict::Applied,
                }
            )
            .is_none());
    }

    #[test]
    #[should_panic(expected = "non-owner")]
    fn misrouted_read_panics() {
        let (_, mut p1) = pair();
        let _ = p1.serve(
            p(0),
            Msg::Read {
                page: loc(0).page(1),
            },
        );
    }

    #[test]
    fn late_stale_write_does_not_clobber_causally_newer_value() {
        // Regression for the non-blocking enhancement: P2 issues a
        // non-blocking write w2 of x (owned by P0) whose request is slow;
        // P2 then writes its own y; P1 reads y (learning of w2's
        // existence) and writes w1 of x, which the owner certifies FIRST.
        // Causally w2 →* w1. When w2 finally arrives, the owner must NOT
        // install it over w1 — otherwise later readers regress to an
        // overwritten value, violating Definition 2.
        let config = CausalConfig::<Word>::builder(3, 3).build();
        // Round-robin: P0 owns x0, P1 owns x1, P2 owns x2. Use x0 as "x"
        // and x2 as "y".
        let mut p0 = CausalState::new(p(0), config.clone());
        let mut p1 = CausalState::new(p(1), config.clone());
        let mut p2 = CausalState::new(p(2), config);
        let (x, y) = (loc(0), loc(2));

        // P2's slow non-blocking write of x.
        let WriteStep::Remote {
            request: w2_request,
            ..
        } = p2.begin_write_nonblocking(x, Word::Int(2))
        else {
            panic!("P2 does not own x");
        };
        // P2 writes its own y (local).
        assert!(matches!(
            p2.begin_write(y, Word::Int(7)),
            WriteStep::Done { .. }
        ));
        // P1 reads y from P2, picking up w2's causal footprint.
        let (v, _) = remote_read(&mut p1, &mut p2, y);
        assert_eq!(v, Word::Int(7));
        // P1 writes x; the owner certifies it first.
        let done = remote_write(&mut p1, &mut p0, x, Word::Int(1));
        assert!(done.is_applied());
        // Now w2's stale request finally lands at the owner.
        let reply = p0.serve(p(2), w2_request).expect("serve write");
        p2.absorb_write_reply(reply);
        // The owner keeps the causally newer value.
        assert_eq!(
            p0.peek(x).unwrap().0,
            &Word::Int(1),
            "stale write clobbered a causally newer value"
        );
    }

    #[test]
    fn late_reply_is_not_cached_over_fresher_knowledge() {
        // The race the threaded stress suite caught: P1's fetch of x2 is
        // served, then — while the reply is in flight — P1 (as owner of
        // x1) services a write from P0 that causally carries knowledge of
        // a NEWER write of x2. Installing the stale page would let P1's
        // later reads return a provably overwritten value.
        let config = CausalConfig::<Word>::builder(3, 3).build();
        // Round-robin: P0 owns x0, P1 owns x1, P2 owns x2.
        let mut p0 = CausalState::new(p(0), config.clone());
        let mut p1 = CausalState::new(p(1), config.clone());
        let mut p2 = CausalState::new(p(2), config);
        let (x1, x2) = (loc(1), loc(2));

        // P2 writes A; P1's fetch of x2 is served with A; the reply is
        // now "in flight".
        p2.begin_write(x2, Word::Int(100));
        let ReadStep::Miss { request, .. } = p1.begin_read(x2) else {
            panic!("P1 does not own x2");
        };
        let stale_reply = p2.serve(p(1), request).expect("serve read");

        // P2 overwrites with B; P0 reads B (learning of it), then writes
        // x1 — serviced by P1, which thereby absorbs B's causal footprint.
        p2.begin_write(x2, Word::Int(200));
        let _ = remote_read(&mut p0, &mut p2, x2);
        let done = remote_write(&mut p0, &mut p1, x1, Word::Int(7));
        assert!(done.is_applied());

        // The stale reply lands. The read completes with A (legal: no
        // operation of P1 yet follows B), but the page must NOT be cached.
        let (v, _) = p1.finish_read(x2, stale_reply);
        assert_eq!(*v, Word::Int(100));
        assert!(
            !p1.has_valid_copy(x2),
            "stale page cached over fresher knowledge"
        );

        // P1 reads its own x1 (an operation causally following B), then
        // re-reads x2: it must MISS and fetch the current value.
        let ReadStep::Hit { .. } = p1.begin_read(x1) else {
            panic!("owned")
        };
        let (v, _) = remote_read(&mut p1, &mut p2, x2);
        assert_eq!(v, Word::Int(200), "must observe the overwrite");
    }

    #[test]
    fn writer_owner_race_keeps_cache_sweepable() {
        // The race the ring-ownership scale sims caught: P0's write of x1
        // is in flight at owner P1 while P0 — itself the owner of x0 —
        // certifies a write from P2, inflating P0's clock with knowledge
        // P1 never saw. The W_REPLY's stamp is then *concurrent* with
        // P0's clock (neither dominates), so the overtaken guard cannot
        // fire. Caching the written value under the merged clock would
        // fold P2's unrelated component into the entry's stamp, and P1's
        // later page stamps — which causally dominate every overwrite of
        // x1 — could never dominate the inflated entry: the copy would be
        // unsweepable, and P0 could read its own provably overwritten
        // write forever. Caching under the sent stamp VT' keeps the sweep
        // exact.
        let config = CausalConfig::<Word>::builder(3, 6).build();
        // Round-robin: P0 owns x0/x3, P1 owns x1/x4, P2 owns x2/x5.
        let mut p0 = CausalState::new(p(0), config.clone());
        let mut p1 = CausalState::new(p(1), config.clone());
        let mut p2 = CausalState::new(p(2), config);
        let (x0, x1, x4) = (loc(0), loc(1), loc(4));

        // P1 has local activity of its own, so its certification stamp
        // will be concurrent with (not dominated by) P0's inflated clock.
        p1.begin_write(x4, Word::Int(0));

        // P0's remote write of x1 goes in flight.
        let WriteStep::Remote { wid, request, .. } = p0.begin_write(x1, Word::Int(10)) else {
            panic!("P0 does not own x1");
        };

        // While it travels, P0 (as owner of x0) certifies P2's write —
        // absorbing P2's clock component, which P1 knows nothing about.
        let done = remote_write(&mut p2, &mut p0, x0, Word::Int(99));
        assert!(done.is_applied());

        // P1 certifies P0's write and the reply lands: concurrent stamps,
        // so the value caches — and must cache under P1's stamp.
        let reply = p1.serve(p(0), request).expect("serve write");
        let done = p0.finish_write(Arc::new(Word::Int(10)), wid, reply);
        assert!(done.is_applied());
        assert!(p0.has_valid_copy(x1), "certified write caches normally");

        // P1 overwrites x1 locally, then touches x4 so its next page
        // stamp carries the overwrite's causal footprint.
        p1.begin_write(x1, Word::Int(20));
        p1.begin_write(x4, Word::Int(1));

        // P0 fetches x4: the reply stamp dominates P1's certification
        // stamp for x1, so the sweep must evict P0's now-stale copy.
        let _ = remote_read(&mut p0, &mut p1, x4);
        assert!(
            !p0.has_valid_copy(x1),
            "stale copy survived the sweep under an inflated stamp"
        );

        // And the re-read observes the overwrite.
        let (v, _) = remote_read(&mut p0, &mut p1, x1);
        assert_eq!(v, Word::Int(20), "must observe P1's overwrite");
    }

    #[test]
    fn write_ids_are_unique_and_ordered_per_writer() {
        let (mut p0, _) = pair();
        let WriteStep::Done { wid: w1 } = p0.begin_write(loc(0), Word::Int(1)) else {
            panic!()
        };
        let WriteStep::Done { wid: w2 } = p0.begin_write(loc(0), Word::Int(2)) else {
            panic!()
        };
        assert_ne!(w1, w2);
        assert!(w1.seq() < w2.seq());
    }

    #[test]
    fn interest_registers_on_service_and_drops_on_eviction() {
        // Registration is implicit in the request: serving a READ or a
        // WRITE records the peer as holding a copy. Eviction queues the
        // one explicit message the feature has, an [INTEREST] drop to the
        // owner, and absorbing it removes the peer from the set.
        let config = CausalConfig::<Word>::builder(2, 4)
            .interest_scoping(true)
            .cache_capacity(1)
            .build();
        let mut p0 = CausalState::new(p(0), config.clone());
        let mut p1 = CausalState::new(p(1), config);
        let (page0, page2) = (PageId::new(0), PageId::new(2));

        assert!(p0.interested(page0).is_empty());

        // A served READ registers the reader...
        let _ = remote_read(&mut p1, &mut p0, loc(0));
        assert_eq!(p0.interested(page0), &[p(1)]);
        // ...idempotently...
        p1.discard(loc(0));
        let _ = p1.take_interest_msgs(); // drop from the explicit discard
        let _ = remote_read(&mut p1, &mut p0, loc(0));
        assert_eq!(p0.interested(page0), &[p(1)]);
        // ...and a certified WRITE registers the writer too.
        let done = remote_write(&mut p1, &mut p0, loc(2), Word::Int(5));
        assert!(done.is_applied());
        assert_eq!(p0.interested(page2), &[p(1)]);

        // Capacity 1: caching page 2 evicted page 0, queueing a drop.
        let drops = p1.take_interest_msgs();
        assert_eq!(drops.len(), 1);
        let (to, msg) = &drops[0];
        assert_eq!(*to, p(0));
        assert!(matches!(msg, Msg::Interest { page } if *page == page0));
        // The owner absorbs it and forgets the evicted copy — but keeps
        // the page the peer still holds.
        p0.handle_interest_drop(page0, p(1));
        assert!(p0.interested(page0).is_empty());
        assert_eq!(p0.interested(page2), &[p(1)]);
    }
}
