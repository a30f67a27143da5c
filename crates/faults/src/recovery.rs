//! Restart-with-disk chaos: crash a durable owner at an injected WAL
//! offset, restart it against the surviving bytes, and check that the
//! recovered node rejoins as a full peer without losing a certified
//! write or corrupting causality.
//!
//! The moving parts assembled here:
//!
//! * [`DurableActor`] — a [`SessionActor`]-wrapped causal node whose
//!   protocol state journals into a [`Store`] over a [`MemDisk`] kept
//!   *outside* the actor (the platter survives the process). On
//!   [`Actor::on_restart`] the disk is crashed — losing the unsynced
//!   tail plus a seeded mid-record tear — then reopened, the state
//!   rebuilt via [`CausalState::recover`], and the new life announced
//!   with a session `Hello` so peers fast-forward it by retransmission
//!   instead of re-educating it via SUSPECT.
//! * [`recovery_crash_plan`] — the seeded scenario: the owner of a
//!   seed-chosen page crashes partway through the run and restarts a
//!   quarter-horizon later, composing with a light seed-derived drop
//!   rate.
//! * [`run_recovery_chaos_once`] / [`run_recovery_chaos_batch`] — the
//!   harness, with an **extended oracle**: the run must terminate, the
//!   recorded execution must satisfy [`causal_spec::check_causal`], the
//!   victim must actually have restarted with a bumped incarnation,
//!   and — under [`SyncPolicy::EveryOp`], where certified implies
//!   durable — every write the victim certified before the crash must
//!   be readable in its recovered state (checked at the recovery
//!   instant, before any post-restart traffic).
//!
//! Under weaker sync policies a certified write *may* legally be lost
//! (that is the policy's contract), so the per-write oracle arms only
//! under `EveryOp`; [`run_recovery_liveness_once`] runs the same
//! scenario under [`SyncPolicy::Interval`] checking termination and
//! causality alone.

use std::fmt::Write as _;
use std::sync::Arc;

use causal_dsm::{
    CausalConfig, CausalState, DurableConfig, MemDisk, NodeDriver, Store, SyncPolicy, WalRecord,
};
use causal_spec::{check_causal, Execution};
use dsm_apps::{WorkloadOp, WorkloadSpec};
use dsm_sim::{Actor, CausalActor, ClientOp, Effects, RunLimits, Script, Sim, SimOpts};
use memcore::{Location, NodeId, Recorder, Value, Word, WriteId};
use simnet::codec::Wire;
use simnet::latency::Uniform;

use crate::chaos::{ChaosConfig, ChaosOutcome};
use crate::injector::FaultInjector;
use crate::plan::FaultPlan;
use crate::session::{SessionActor, SessionMsg};

/// A causal node with a write-ahead log under it and a session layer
/// around it, restartable by the simulator's crash machinery.
///
/// Event flow: every submit/deliver/timer runs the wrapped protocol,
/// then drains the state's journal into the store — append happens
/// before the effects (including any reply) go on the wire, so under
/// [`SyncPolicy::EveryOp`] a certified write is durable by the time the
/// client can observe it.
#[derive(Debug)]
pub struct DurableActor<V: Value + Wire> {
    inner: SessionActor<V, CausalActor<V>>,
    /// The platter: shared-handle in-memory disk that survives the
    /// simulated process restart.
    disk: MemDisk,
    store: Store<V>,
    config: CausalConfig<V>,
    rto: u64,
    /// Seeds the per-crash torn-tail length, so the WAL offset the
    /// crash lands on is part of the reproduction recipe.
    torn_seed: u64,
    restarts: u32,
    /// Extended-oracle violations found at recovery instants.
    violations: Vec<String>,
}

impl<V: Value + Wire> DurableActor<V> {
    /// A fresh durable node (virgin disk, incarnation 0).
    ///
    /// # Panics
    ///
    /// Panics if `config` carries no durability configuration, or if
    /// `rto` is zero.
    #[must_use]
    pub fn new(id: NodeId, config: CausalConfig<V>, rto: u64, torn_seed: u64) -> Self {
        let dcfg = config
            .durability()
            .expect("DurableActor requires a durability config");
        let disk = MemDisk::new();
        let (store, recovered) = Store::open(Box::new(disk.clone()), dcfg);
        debug_assert!(recovered.is_virgin());
        let state = CausalState::new(id, config.clone());
        let mut actor = DurableActor {
            inner: SessionActor::new(CausalActor::new(NodeDriver::new(state)), rto),
            disk,
            store,
            config,
            rto,
            torn_seed,
            restarts: 0,
            violations: Vec::new(),
        };
        actor.persist(); // the baseline Node record
        // Identity is durable before the node joins, whatever the sync
        // policy: a crash must never recover a virgin disk once this
        // life has talked to anyone, or the next life would reuse
        // incarnation 0 and its frames would not be fenced.
        actor.store.sync();
        actor
    }

    /// How many times this node crash-recovered.
    #[must_use]
    pub fn restarts(&self) -> u32 {
        self.restarts
    }

    /// The session incarnation the node currently runs as.
    #[must_use]
    pub fn incarnation(&self) -> u32 {
        self.state().incarnation()
    }

    /// Extended-oracle violations recorded at recovery instants (empty
    /// for correct runs).
    #[must_use]
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// The recovered protocol state (inspection).
    #[must_use]
    pub fn state(&self) -> &CausalState<V> {
        self.inner.inner().driver().state()
    }

    /// Journal-before-reply, by the helper every executor shares
    /// ([`CausalState::persist_journal`]): the caller sends nothing of
    /// the event that journaled these records until this returns.
    fn persist(&mut self) {
        let state = self.inner.inner_mut().driver_mut().state_mut();
        state.persist_journal(&mut self.store);
    }

    /// The per-write oracle, run at the recovery instant: fold the
    /// recovered record stream to the last applied certified write per
    /// location, and demand the rebuilt state reads back exactly that
    /// write for every page it still owns. Sound only when certified
    /// implies durable, i.e. under [`SyncPolicy::EveryOp`].
    fn check_certified(&mut self, records: &[WalRecord<V>], state: &CausalState<V>) {
        let page_size = self.config.page_size();
        let mut last: std::collections::HashMap<Location, (Arc<V>, WriteId)> =
            std::collections::HashMap::new();
        for record in records {
            match record {
                WalRecord::Write {
                    loc,
                    value,
                    wid,
                    applied: true,
                    ..
                } => {
                    last.insert(*loc, (Arc::clone(value), *wid));
                }
                // A checkpoint image's owned-page installs compact the
                // writes before them: they reset the fold.
                WalRecord::PageInstall {
                    page,
                    slots,
                    shadow: false,
                    ..
                } => {
                    for (i, (value, wid)) in slots.iter().enumerate() {
                        let loc = Location::new(page.index() as u32 * page_size + i as u32);
                        if wid.is_initial() {
                            last.remove(&loc);
                        } else {
                            last.insert(loc, (Arc::clone(value), *wid));
                        }
                    }
                }
                _ => {}
            }
        }
        for (loc, (_value, wid)) in last {
            // Pages no longer owned were pruned by recovery (their
            // authoritative copy lives at the migrated owner now).
            if state.current_owner(loc.page(page_size)) != state.id() {
                continue;
            }
            match state.peek(loc) {
                // Write identity is the check: equal ids mean the slot
                // holds exactly the certified write (values ride along).
                Some((_, w)) if w == wid => {}
                got => {
                    let mut msg = String::new();
                    let _ = write!(
                        msg,
                        "certified write lost at {loc:?}: expected {wid:?}, recovered {:?}",
                        got.map(|(_, w)| w)
                    );
                    self.violations.push(msg);
                }
            }
        }
    }
}

impl<V: Value + Wire> Actor<V> for DurableActor<V> {
    type Msg = SessionMsg<causal_dsm::Msg<V>>;

    fn submit(&mut self, now: u64, op: &ClientOp<V>) -> Effects<V, Self::Msg> {
        let effects = self.inner.submit(now, op);
        self.persist();
        effects
    }

    fn deliver(&mut self, now: u64, from: NodeId, msg: Self::Msg) -> Effects<V, Self::Msg> {
        let effects = self.inner.deliver(now, from, msg);
        self.persist();
        effects
    }

    fn next_timer(&self) -> Option<u64> {
        self.inner.next_timer()
    }

    fn on_timer(&mut self, now: u64) -> Effects<V, Self::Msg> {
        let effects = self.inner.on_timer(now);
        self.persist();
        effects
    }

    fn on_restart(&mut self, _now: u64) -> Effects<V, Self::Msg> {
        self.restarts += 1;
        // The crash decides what the platter kept: everything synced
        // plus a seeded sliver of torn tail (a mid-record tear whenever
        // it lands inside a frame). Deterministic in (torn_seed,
        // restart ordinal) — part of the reproduction recipe.
        let torn = ((self
            .torn_seed
            .wrapping_add(u64::from(self.restarts).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            % 24) as usize;
        self.disk.crash(torn);
        let dcfg = self
            .config
            .durability()
            .expect("DurableActor requires a durability config");
        let (store, recovered) = Store::open(Box::new(self.disk.clone()), dcfg);
        self.store = store;
        let id = self.state().id();
        let inc = recovered.next_incarnation();
        let state = if recovered.is_virgin() {
            CausalState::new(id, self.config.clone())
        } else {
            let records = recovered.records.clone();
            let state = CausalState::recover(id, self.config.clone(), recovered.records, inc);
            if dcfg.sync == SyncPolicy::EveryOp {
                self.check_certified(&records, &state);
            }
            state
        };
        let actor = CausalActor::new(NodeDriver::new(state));
        self.inner = SessionActor::with_incarnation(actor, self.rto, inc);
        self.persist(); // the rejoin Node record, under the new incarnation
        self.store.sync(); // identity durable before rejoining (see `new`)
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

/// Deterministically derives the recovery scenario for `seed`: the
/// owner of a seed-chosen page crashes inside `[horizon/4, horizon/2)`
/// and restarts a quarter-horizon later, over links with a light
/// seed-derived drop rate. Returns the plan and the victim's index.
#[must_use]
pub fn recovery_crash_plan(seed: u64, cfg: &ChaosConfig, pages: u32) -> (FaultPlan, u32) {
    let config = CausalConfig::<Word>::builder(cfg.nodes, pages).build();
    let page = memcore::PageId::new((seed % u64::from(config.page_count())) as u32);
    let victim = {
        use memcore::OwnerMap as _;
        config.owners().owner_of_page(page).index() as u32
    };
    let quarter = (cfg.horizon / 4).max(1);
    let crash_at = quarter + seed.wrapping_mul(6151) % quarter;
    let restart_at = crash_at + quarter.max(2);
    let drop = (seed % 6) as f64 * 0.01;
    let plan = FaultPlan::uniform(crate::plan::LinkFaults::dropping(drop))
        .crash_owner_at(config.owners().as_ref(), page, crash_at)
        .restart_at(restart_at);
    (plan, victim)
}

/// The durable cluster simulation [`run_recovery_chaos_once`] drives.
fn recovery_sim(
    config: &CausalConfig<Word>,
    rto: u64,
    seed: u64,
    opts: SimOpts<Word>,
) -> Sim<Word, DurableActor<Word>> {
    let actors = (0..config.nodes())
        .map(|i| {
            DurableActor::new(
                NodeId::new(i),
                config.clone(),
                rto,
                seed ^ u64::from(i).wrapping_mul(0xA24B_AED4_963E_E407),
            )
        })
        .collect();
    Sim::new(actors, opts)
}

/// Runs one seeded restart-with-disk chaos execution under `sync`.
///
/// The victim (the seed-chosen page's static owner) is a pure server —
/// it gets no client — so `wedged == false` states that every surviving
/// client ran to completion across the crash *and* the recovery. The
/// extended oracle adds: the victim restarted with a bumped
/// incarnation, and (under [`SyncPolicy::EveryOp`]) no certified write
/// was lost at the recovery instant.
#[must_use]
pub fn run_recovery_chaos_once(seed: u64, cfg: &ChaosConfig, sync: SyncPolicy) -> ChaosOutcome {
    let spec = WorkloadSpec {
        nodes: cfg.nodes as usize,
        locations_per_node: cfg.locations_per_node as usize,
        ops_per_node: cfg.ops_per_node,
        read_ratio: cfg.read_ratio,
        locality: cfg.locality,
        seed,
    };
    let (plan, victim) = recovery_crash_plan(seed, cfg, spec.locations());
    let faults: Arc<dyn simnet::FaultHook> = Arc::new(FaultInjector::new(seed, plan.clone()));
    let recorder: Recorder<Word> = Recorder::new(cfg.nodes as usize);
    let config = CausalConfig::<Word>::builder(cfg.nodes, spec.locations())
        .pipeline_window(cfg.pipeline_window)
        .failover(causal_dsm::FailoverConfig::default())
        .durability(DurableConfig {
            sync,
            // Small enough that multi-crash seeds exercise checkpoint +
            // log-tail recovery, not just log replay.
            checkpoint_every: 32,
        })
        .build();
    let mut sim = recovery_sim(
        &config,
        cfg.rto,
        seed,
        SimOpts {
            latency: Box::new(Uniform::new(1, 8)),
            seed,
            recorder: Some(recorder.clone()),
            faults: Some(faults),
            ..SimOpts::default()
        },
    );
    for (node, ops) in spec.generate().into_iter().enumerate() {
        if node == victim as usize {
            continue;
        }
        let script: Vec<ClientOp<Word>> = ops
            .into_iter()
            .map(|op| match op {
                WorkloadOp::Read(l) => ClientOp::Read(l),
                WorkloadOp::Write(l, v) => ClientOp::Write(l, Word::Int(v)),
            })
            .collect();
        sim.set_client(node, Script::new(script));
    }
    let limits = RunLimits {
        max_events: cfg.limits.max_events,
        max_time: cfg.limits.max_time.min(cfg.horizon.saturating_mul(10)),
    };
    let report = sim.run(limits);
    let exec = Execution::from_recorder(&recorder);
    let mut violations: Vec<String> = match check_causal(&exec) {
        Ok(causal) => causal.violations.iter().map(ToString::to_string).collect(),
        Err(err) => vec![format!("execution graph error: {err}")],
    };
    let victim_actor = sim.actor(victim as usize);
    if victim_actor.restarts() == 0 {
        violations.push(format!("victim {victim} never restarted"));
    } else if victim_actor.incarnation() == 0 {
        violations.push(format!("victim {victim} restarted without bumping incarnation"));
    }
    violations.extend(victim_actor.violations().iter().cloned());
    ChaosOutcome {
        seed,
        plan,
        wedged: !report.all_done,
        violations,
        time: report.time,
        messages: sim.messages().snapshot(),
        ops_recorded: recorder.total_ops(),
        ops: recorder.processes(),
        pipeline_window: cfg.pipeline_window,
        batching: false,
    }
}

/// The recovery scenario under a weaker sync policy
/// ([`SyncPolicy::Interval`]`(4)`): a crash may legally lose the last
/// few certified writes, so only termination, causality of the
/// *recorded* execution, and the incarnation bump are checked — the
/// liveness half of the durability contract.
#[must_use]
pub fn run_recovery_liveness_once(seed: u64, cfg: &ChaosConfig) -> ChaosOutcome {
    run_recovery_chaos_once(seed, cfg, SyncPolicy::Interval(4))
}

/// The recovery grid: the pipeline window alternates between `0` (the
/// paper's blocking protocol) and `32` with seed parity, batching stays
/// off (stamped failover envelopes travel solo). Deterministic in
/// `(base, seed)`.
#[must_use]
pub fn sample_recovery_config(base: &ChaosConfig, seed: u64) -> ChaosConfig {
    let mut cfg = base.clone();
    cfg.pipeline_window = [0, 32][(seed % 2) as usize];
    cfg.batching = false;
    cfg
}

/// Runs `count` restart-with-disk chaos executions with seeds
/// `first_seed..`, every one under [`SyncPolicy::EveryOp`] (the policy
/// whose contract the per-write oracle states), collecting every
/// failure with its reproduction recipe.
#[must_use]
pub fn run_recovery_chaos_batch(
    first_seed: u64,
    count: usize,
    cfg: &ChaosConfig,
) -> crate::chaos::ChaosBatch {
    let mut failures = Vec::new();
    let mut protocol_messages = 0;
    let mut overhead_messages = 0;
    for seed in first_seed..first_seed + count as u64 {
        let outcome =
            run_recovery_chaos_once(seed, &sample_recovery_config(cfg, seed), SyncPolicy::EveryOp);
        protocol_messages += outcome.messages.protocol_total();
        overhead_messages += outcome.messages.overhead_total();
        if !outcome.ok() {
            failures.push(outcome);
        }
    }
    crate::chaos::ChaosBatch {
        runs: count,
        failures,
        protocol_messages,
        overhead_messages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_run_restarts_the_owner_and_survives() {
        let cfg = ChaosConfig::default();
        let outcome = run_recovery_chaos_once(0, &cfg, SyncPolicy::EveryOp);
        assert!(outcome.ok(), "{outcome}");
        // The plan really contains a crash *with* a restart.
        assert!(outcome
            .plan
            .crashes
            .iter()
            .all(|c| c.restart != u64::MAX));
        assert_eq!(
            outcome.ops_recorded,
            (cfg.nodes as usize - 1) * cfg.ops_per_node
        );
    }

    #[test]
    fn recovery_runs_reproduce_exactly() {
        let base = ChaosConfig::default();
        for seed in [1u64, 2] {
            let cfg = sample_recovery_config(&base, seed);
            let a = run_recovery_chaos_once(seed, &cfg, SyncPolicy::EveryOp);
            let b = run_recovery_chaos_once(seed, &cfg, SyncPolicy::EveryOp);
            assert_eq!(a.plan, b.plan);
            assert_eq!(a.time, b.time);
            assert_eq!(a.messages.by_kind(), b.messages.by_kind());
            assert_eq!(a.ops, b.ops);
        }
    }

    #[test]
    fn weaker_sync_still_terminates_causally() {
        let outcome = run_recovery_liveness_once(3, &ChaosConfig::default());
        assert!(outcome.ok(), "{outcome}");
    }

    #[test]
    fn small_batch_passes_the_extended_oracle() {
        let batch = run_recovery_chaos_batch(0, 4, &ChaosConfig::default());
        assert!(batch.all_ok(), "{batch}");
        assert!(batch.protocol_messages > 0);
    }
}
