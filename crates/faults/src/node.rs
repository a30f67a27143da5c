//! The one simulated node type every chaos cell runs: a causal
//! [`NodeDriver`] under a [`SessionActor`], with a write-ahead log under it
//! when — and only when — its configuration carries
//! [`CausalConfig::durability`].
//!
//! Without durability the node is exactly `SessionActor<CausalActor>`,
//! and coming back from a crash window is a no-op — a pause-crash,
//! protocol state intact, the rule the threaded executor follows too.
//! With it, the driver is [opened](NodeDriver::open) on a [`MemDisk`]
//! kept outside the protocol (the platter survives the process), and the
//! driver itself makes each call's records durable before its effects —
//! including any reply — go on the wire, so under
//! [`SyncPolicy::EveryOp`] a certified write is durable by the time
//! anyone can observe it. [`Actor::on_restart`] is then an amnesia crash:
//! the disk loses its unsynced tail plus a seeded mid-record tear, the
//! driver is opened on it again (recovering its state), and the new life
//! is announced with a session `Hello` so peers fast-forward it by
//! retransmission instead of re-educating it via SUSPECT.

use std::collections::BTreeMap;

use causal_dsm::{CausalConfig, CausalState, MemDisk, NodeDriver, SyncPolicy, WalRecord};
use dsm_sim::{Actor, CausalActor, ClientOp, Effects};
use memcore::{Location, NodeId, Value, WriteId};
use simnet::codec::Wire;

use crate::session::{SessionActor, SessionMsg};

/// A session-layered causal node, durable iff its configuration says so
/// (see the module docs).
#[derive(Debug)]
pub struct DurableActor<V: Value + Wire> {
    inner: SessionActor<V, CausalActor<V>>,
    /// The platter; `None` without durability.
    disk: Option<MemDisk>,
    config: CausalConfig<V>,
    rto: u64,
    /// Seeds the per-crash torn-tail length, so the WAL offset the crash
    /// lands on is part of the reproduction recipe.
    torn_seed: u64,
    restarts: u32,
    /// Certified writes found lost at recovery instants.
    violations: Vec<String>,
}

impl<V: Value + Wire> DurableActor<V> {
    /// A fresh node (virgin disk, if any; incarnation 0).
    ///
    /// # Panics
    ///
    /// Panics if `rto` is zero.
    #[must_use]
    pub fn new(id: NodeId, config: CausalConfig<V>, rto: u64, torn_seed: u64) -> Self {
        let disk = config.durability().map(|_| MemDisk::new());
        let driver = match &disk {
            Some(disk) => NodeDriver::open(id, config.clone(), Box::new(disk.clone())),
            None => NodeDriver::new(CausalState::new(id, config.clone())),
        };
        DurableActor {
            inner: SessionActor::new(CausalActor::new(driver), rto),
            disk,
            config,
            rto,
            torn_seed,
            restarts: 0,
            violations: Vec::new(),
        }
    }

    /// How many times this node recovered from its disk.
    #[must_use]
    pub fn restarts(&self) -> u32 {
        self.restarts
    }

    /// The session incarnation the node currently runs as.
    #[must_use]
    pub fn incarnation(&self) -> u32 {
        self.state().incarnation()
    }

    /// Certified writes found lost at recovery instants (empty for
    /// correct runs; only ever checked under [`SyncPolicy::EveryOp`]).
    #[must_use]
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// The protocol state (inspection).
    #[must_use]
    pub fn state(&self) -> &CausalState<V> {
        self.inner.inner().driver().state()
    }

    /// The per-write oracle, run at the recovery instant: fold the
    /// record stream the crash left on the platter to the last applied
    /// certified write per location, and demand the rebuilt state reads
    /// back exactly that write for every page it still owns. Sound only
    /// when certified implies durable, i.e. under [`SyncPolicy::EveryOp`].
    fn check_certified(&mut self, records: &[WalRecord<V>], state: &CausalState<V>) {
        let page_size = self.config.page_size();
        let mut last: BTreeMap<Location, WriteId> = BTreeMap::new();
        for record in records {
            match record {
                WalRecord::Write {
                    loc,
                    wid,
                    applied: true,
                    ..
                } => {
                    last.insert(*loc, *wid);
                }
                // A checkpoint image's owned-page installs compact the
                // writes before them: they reset the fold.
                WalRecord::PageInstall {
                    page,
                    slots,
                    shadow: false,
                    ..
                } => {
                    for (i, (_, wid)) in slots.iter().enumerate() {
                        let loc = Location::new(page.index() as u32 * page_size + i as u32);
                        if wid.is_initial() {
                            last.remove(&loc);
                        } else {
                            last.insert(loc, *wid);
                        }
                    }
                }
                _ => {}
            }
        }
        for (loc, wid) in last {
            // Pages no longer owned were pruned by recovery (their
            // authoritative copy lives at the migrated owner now). Write
            // identity is the check: equal ids mean the slot holds
            // exactly the certified write.
            let got = state.peek(loc).map(|(_, w)| w);
            if state.current_owner(loc.page(page_size)) == state.id() && got != Some(wid) {
                self.violations.push(format!(
                    "certified write lost at {loc:?}: expected {wid:?}, recovered {got:?}"
                ));
            }
        }
    }
}

impl<V: Value + Wire> Actor<V> for DurableActor<V> {
    type Msg = SessionMsg<causal_dsm::Msg<V>>;

    fn submit(&mut self, now: u64, op: &ClientOp<V>) -> Effects<V, Self::Msg> {
        self.inner.submit(now, op)
    }

    fn deliver(&mut self, now: u64, from: NodeId, msg: Self::Msg) -> Effects<V, Self::Msg> {
        self.inner.deliver(now, from, msg)
    }

    fn next_timer(&self) -> Option<u64> {
        self.inner.next_timer()
    }

    fn on_timer(&mut self, now: u64) -> Effects<V, Self::Msg> {
        self.inner.on_timer(now)
    }

    fn on_restart(&mut self, _now: u64) -> Effects<V, Self::Msg> {
        let Some(disk) = self.disk.clone() else {
            return Effects::empty(); // a pause-crash: nothing was lost
        };
        self.restarts += 1;
        // The crash decides what the platter kept: everything synced
        // plus a seeded sliver of torn tail (a mid-record tear whenever
        // it lands inside a frame). Deterministic in (torn_seed,
        // restart ordinal) — part of the reproduction recipe.
        let torn = ((self
            .torn_seed
            .wrapping_add(u64::from(self.restarts).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            % 24) as usize;
        disk.crash(torn);
        let certifying = self.config.durability().map(|d| d.sync) == Some(SyncPolicy::EveryOp);
        let survived = certifying.then(|| disk.recovered::<V>().records);
        let id = self.state().id();
        let driver = NodeDriver::open(id, self.config.clone(), Box::new(disk));
        if let Some(records) = survived {
            self.check_certified(&records, driver.state());
        }
        let inc = driver.state().incarnation();
        self.inner = SessionActor::with_incarnation(CausalActor::new(driver), self.rto, inc);
        // Announce the new life so peers rebase their sequence spaces
        // now; lost copies are compensated by the stale-stamp reply
        // path, so the broadcast is an optimization, not a correctness
        // requirement.
        let hello = self.inner.hello();
        let outgoing = (0..self.config.nodes())
            .map(NodeId::new)
            .filter(|p| *p != id)
            .map(|p| (p, hello.clone()))
            .collect();
        Effects {
            outgoing,
            completion: None,
        }
    }

    fn authority(&self, loc: Location) -> NodeId {
        self.inner.authority(loc)
    }

    fn peek(&self, loc: Location) -> Option<V> {
        self.inner.peek(loc)
    }
}
