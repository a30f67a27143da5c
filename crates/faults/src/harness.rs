//! The chaos harness: one seeded run is a [`Workload`] × a [`Faults`]
//! family × the oracles the two imply, replayed through the
//! session-layered causal protocol in the deterministic simulator.
//!
//! The workload supplies the value type, the clients, the configuration
//! shape and its own oracle; the fault family supplies the plan, the
//! victim, whether failover and durability are on, the pipeline/batching
//! grid, the time clamp and the victim checks. Every cell runs the one
//! node type, the causal [`NodeDriver`] under a [`Session`], and is judged
//! by [`causal_spec::check_causal`] (Definition 2) first — the session
//! layer is supposed to make the faulty network indistinguishable, to the
//! protocol, from the reliable FIFO network the paper assumes. A wedged
//! run — clients not finishing within the event/time limits — is also a
//! failure.
//!
//! Each run is a pure function of one seed: the seed generates the
//! workload, the fault plan and the injector's dice, so any failure is
//! reproduced exactly by re-running its seed, and the printed
//! [`ChaosOutcome`] *is* the reproduction recipe.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};

use causal_dsm::{
    CausalConfig, CausalState, DurableConfig, EffectsOf, FailoverConfig, MemDisk, NodeDriver,
    SyncPolicy, WalRecord,
};
use causal_spec::{check_causal, Execution};
use dsm_sim::{RunLimits, Sim, SimOpts};
use memcore::{
    Location, NodeId, OwnerMap as _, PageId, Recorder, StatsSnapshot, Value, Word, WriteId,
};
use simnet::codec::Wire;
use simnet::latency::Uniform;

use crate::injector::FaultInjector;
use crate::plan::{FaultPlan, LinkFaults};
use crate::session::Session;
use crate::workload::{Shape, Workload};

/// Shape of one chaos run (everything except the seed and the cell).
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Cluster size.
    pub nodes: u32,
    /// Locations owned by each node (register workloads).
    pub locations_per_node: u32,
    /// Operations issued by each node's client.
    pub ops_per_node: usize,
    /// Fraction of reads in the register workload.
    pub read_ratio: f64,
    /// Probability a register operation targets the issuing node's own
    /// partition.
    pub locality: f64,
    /// Session-layer retransmission timeout (simulator time units).
    pub rto: u64,
    /// Expected run length, used to scale fault windows.
    pub horizon: u64,
    /// Event/time budget; exhausting it counts as a wedged run.
    pub limits: RunLimits,
    /// Bounded write-pipeline window handed to the protocol configuration
    /// (`0` disables pipelining — the paper's blocking protocol).
    pub pipeline_window: u32,
    /// Transport batching of pipelined writes (owner-side coalesced
    /// invalidation sweeps, batched reply envelopes). Needs a window and
    /// a fault family without failover: the protocol configuration
    /// rejects anything else at build.
    pub batching: bool,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            nodes: 3,
            locations_per_node: 2,
            ops_per_node: 12,
            read_ratio: 0.5,
            locality: 0.6,
            rto: 40,
            horizon: 600,
            limits: RunLimits {
                max_events: 2_000_000,
                max_time: u64::MAX,
            },
            pipeline_window: 0,
            batching: false,
        }
    }
}

/// The fault axis of the chaos grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Faults {
    /// A reliable FIFO network: no plan, no injector — the baseline for
    /// what faults and the session layer's recovery traffic cost.
    None,
    /// [`FaultPlan::random`]: drops up to 20 %, duplicates, delay spikes,
    /// usually a healing partition and a pause-crash.
    Random,
    /// The owner of a seed-chosen page fail-stops for good partway
    /// through the run, over links with a light seed-derived drop rate;
    /// failover is on, and its pages must migrate to their successors for
    /// the surviving clients to finish.
    OwnerCrash,
    /// That owner is killed instead — losing its unsynced WAL tail plus a
    /// seeded mid-record tear — and restarts from its write-ahead log,
    /// synced under this policy; failover and durability are on. The
    /// victim must restart under a bumped incarnation, and under
    /// [`SyncPolicy::EveryOp`] (where certified implies durable) no write
    /// it certified may be missing from its recovered state.
    Restart(SyncPolicy),
}

impl Faults {
    /// Whether the family turns owner failover on (and with it a finite
    /// time budget: heartbeat timers never let the event queue drain).
    #[must_use]
    pub fn failover(self) -> bool {
        matches!(self, Faults::OwnerCrash | Faults::Restart(_))
    }

    /// The grid a batch walks: the pipeline window cycles through
    /// `{0, 4, 32}` with the seed and batching follows seed parity
    /// wherever there is a window to batch — except under failover, which
    /// sends every pipelined write in its own stamped envelope, so
    /// batching stays off and the window alternates `{0, 32}` (batching
    /// without a window or under failover is a combination
    /// `CausalConfigBuilder::build` rejects). A deterministic function of
    /// `(base, seed)`, so a failure reproduces by re-running its seed (the
    /// outcome also records the sampled values).
    #[must_use]
    pub fn grid(self, base: &ChaosConfig, seed: u64) -> ChaosConfig {
        let (window, batching) = if self.failover() {
            ([0, 32][(seed % 2) as usize], false)
        } else {
            let window = [0, 4, 32][(seed % 3) as usize];
            (window, seed % 2 == 1 && window > 0)
        };
        ChaosConfig {
            pipeline_window: window,
            batching,
            ..base.clone()
        }
    }

    /// The seed's fault plan under `config`, and the crash victim if the
    /// family has one: the static owner of page `seed mod pages`, crashed
    /// inside `[horizon/4, horizon/2)` and — for [`Faults::Restart`] —
    /// restarted a quarter-horizon later. Pure data: printing the plan
    /// with the seed is the complete reproduction recipe.
    #[must_use]
    pub fn plan<V: Value>(
        self,
        seed: u64,
        cfg: &ChaosConfig,
        config: &CausalConfig<V>,
    ) -> (FaultPlan, Option<usize>) {
        let restart = match self {
            Faults::None => return (FaultPlan::none(), None),
            Faults::Random => return (FaultPlan::random(seed, cfg.nodes, cfg.horizon), None),
            Faults::OwnerCrash => false,
            Faults::Restart(_) => true,
        };
        let owners = config.owners();
        let page = PageId::new((seed % u64::from(config.page_count())) as u32);
        let quarter = (cfg.horizon / 4).max(1);
        let crash_at = quarter + seed.wrapping_mul(7919) % quarter;
        let drop = (seed % 8) as f64 * 0.01;
        let mut plan = FaultPlan::uniform(LinkFaults::dropping(drop)).crash_owner_at(
            owners.as_ref(),
            page,
            crash_at,
        );
        if restart {
            plan = plan.restart_at(crash_at + quarter.max(2));
        }
        (plan, Some(owners.owner_of_page(page).index()))
    }
}

/// Everything needed to understand — and reproduce — one chaos run.
#[derive(Clone, Debug)]
pub struct ChaosOutcome<V: Value = Word> {
    /// The seed that determines the whole run.
    pub seed: u64,
    /// The fault plan the run executed under.
    pub plan: FaultPlan,
    /// `true` iff some client failed to finish within the limits.
    pub wedged: bool,
    /// Violations found by the oracles (empty for correct runs).
    pub violations: Vec<String>,
    /// Final simulated time.
    pub time: u64,
    /// Message counters, including session-layer overhead kinds.
    pub messages: StatsSnapshot,
    /// Operations the oracle checked.
    pub ops_recorded: usize,
    /// The recorded per-process operation logs — two runs of the same
    /// seed must produce these byte-for-byte identical.
    pub ops: Vec<Vec<memcore::OpRecord<V>>>,
    /// Pipeline window the run executed under (part of the reproduction
    /// recipe: [`Faults::grid`] samples it per seed).
    pub pipeline_window: u32,
    /// Whether transport batching was on (ditto).
    pub batching: bool,
}

impl<V: Value> ChaosOutcome<V> {
    /// `true` iff the run terminated and the oracles found no violations.
    #[must_use]
    pub fn ok(&self) -> bool {
        !self.wedged && self.violations.is_empty()
    }
}

impl<V: Value> fmt::Display for ChaosOutcome<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.ok() {
            return write!(
                f,
                "seed {}: ok ({} ops, {} msgs, t={})",
                self.seed,
                self.ops_recorded,
                self.messages.total(),
                self.time
            );
        }
        writeln!(
            f,
            "seed {}: FAILED — reproduce with this seed + plan:",
            self.seed
        )?;
        writeln!(f, "  plan: {:?}", self.plan)?;
        writeln!(
            f,
            "  pipeline_window: {}, batching: {}",
            self.pipeline_window, self.batching
        )?;
        if self.wedged {
            writeln!(f, "  wedged: clients did not finish (t={})", self.time)?;
        }
        for v in &self.violations {
            writeln!(f, "  violation: {v}")?;
        }
        Ok(())
    }
}

/// Runs one seeded chaos execution of `workload` under `faults`, exactly
/// as configured by `cfg` (batches sample it through [`Faults::grid`]),
/// and judges it: termination, Definition 2, the fault family's victim
/// checks, then the workload's own oracle.
///
/// Identical `(workload, faults, seed, cfg)` always produce an identical
/// execution — identical message counts and identical recorded
/// operations.
#[must_use]
pub fn run_chaos<W: Workload>(
    workload: &W,
    faults: Faults,
    seed: u64,
    cfg: &ChaosConfig,
) -> ChaosOutcome<W::Value> {
    let failover = faults.failover();
    let Shape {
        config,
        clients,
        check,
    } = workload.shape(seed, cfg);
    let mut config = config
        .pipeline_window(cfg.pipeline_window)
        .batching(cfg.batching);
    if failover {
        config = config.failover(FailoverConfig::default());
    }
    if let Faults::Restart(sync) = faults {
        // Small enough that multi-crash seeds exercise checkpoint +
        // log-tail recovery, not just log replay.
        config = config.durability(DurableConfig {
            sync,
            checkpoint_every: 32,
        });
    }
    let config = config.build();
    let (plan, victim) = faults.plan(seed, cfg, &config);
    // Durable nodes boot on their platters, and a crash window ends in a
    // recovery; otherwise it is a pause.
    let reboots = config
        .durability()
        .is_some()
        .then(|| Reboots::new(&config, cfg.rto, seed));
    let nodes = (0..config.nodes())
        .map(NodeId::new)
        .map(|id| match &reboots {
            Some(reboots) => reboots.open(id),
            None => NodeDriver::new(CausalState::new(id, config.clone())),
        })
        .map(|driver| Session::new(driver, cfg.rto))
        .collect();
    let recorder: Recorder<W::Value> = Recorder::new(cfg.nodes as usize);
    let mut sim = Sim::new(
        nodes,
        SimOpts {
            latency: Box::new(Uniform::new(1, 8)),
            seed,
            recorder: Some(recorder.clone()),
            faults: (faults != Faults::None)
                .then(|| Arc::new(FaultInjector::new(seed, plan.clone())) as _),
            ..SimOpts::default()
        },
    );
    if let Some(reboots) = reboots.clone() {
        sim.set_restart_rule(move |id, node, fx| reboots.restart(id, node, fx));
    }
    // The victim is a pure server, so "not wedged" states exactly that
    // every surviving client finished.
    for (node, client) in clients.into_iter().enumerate() {
        if let Some(client) = client.filter(|_| Some(node) != victim) {
            sim.set_client_boxed(node, client);
        }
    }
    let limits = RunLimits {
        max_time: if failover {
            cfg.limits.max_time.min(cfg.horizon.saturating_mul(10))
        } else {
            cfg.limits.max_time
        },
        ..cfg.limits
    };
    let report = sim.run(limits);
    let exec = Execution::from_recorder(&recorder);
    let mut violations: Vec<String> = match check_causal(&exec) {
        Ok(causal) => causal.violations.iter().map(ToString::to_string).collect(),
        Err(err) => vec![format!("execution graph error: {err}")],
    };
    if let (Some(reboots), Some(v)) = (&reboots, victim) {
        let log = reboots.log.lock().expect("a restart rule panicked");
        if log.restarts[v] == 0 {
            violations.push(format!("victim {v} never restarted"));
        } else if sim.driver(v).inner().state().incarnation() == 0 {
            violations.push(format!("victim {v} restarted without bumping incarnation"));
        }
        violations.extend(log.lost.iter().cloned());
    }
    violations.extend(check());
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
        batching: cfg.batching,
    }
}

/// The one node type every cell runs.
type Node<V> = Session<NodeDriver<V>>;

/// A durable run's restart rule, installed on the simulator: what the end
/// of a crash window does to a node. It holds what outlives the process —
/// each node's [`MemDisk`] platter — and, like a [`Recorder`], is read
/// back after the run.
#[derive(Clone)]
struct Reboots<V: Value> {
    config: CausalConfig<V>,
    rto: u64,
    disks: Vec<MemDisk>,
    /// Seeds the torn-tail lengths, so the WAL offset a crash lands on is
    /// part of the reproduction recipe.
    seed: u64,
    log: Arc<Mutex<RebootLog>>,
}

/// What the restarts of one run did and found.
struct RebootLog {
    /// Recoveries per node.
    restarts: Vec<u32>,
    /// Certified writes found lost at recovery instants (empty for
    /// correct runs; only ever checked under [`SyncPolicy::EveryOp`]).
    lost: Vec<String>,
}

impl<V: Value + Wire> Reboots<V> {
    fn new(config: &CausalConfig<V>, rto: u64, seed: u64) -> Self {
        let nodes = config.nodes();
        Reboots {
            config: config.clone(),
            rto,
            disks: (0..nodes).map(|_| MemDisk::new()).collect(),
            seed,
            log: Arc::new(Mutex::new(RebootLog {
                restarts: vec![0; nodes as usize],
                lost: Vec::new(),
            })),
        }
    }

    /// Node `id`'s driver, opened on its platter: a first boot, or a
    /// recovery of whatever the platter kept.
    fn open(&self, id: NodeId) -> NodeDriver<V> {
        let disk = self.disks[id.index()].clone();
        NodeDriver::open(id, self.config.clone(), Box::new(disk))
    }

    /// An amnesia crash: the platter loses its unsynced tail plus a seeded
    /// mid-record tear, and the driver is opened on it again. The new life
    /// is announced with a session `Hello`, so peers rebase their sequence
    /// spaces now and fast-forward it by retransmission instead of
    /// re-educating it via SUSPECT. Lost copies are compensated by the
    /// stale-stamp reply path: the broadcast is an optimization, not a
    /// correctness requirement.
    fn restart(&self, id: NodeId, node: &mut Node<V>, fx: &mut EffectsOf<Node<V>>) {
        let mut log = self.log.lock().expect("a restart rule panicked");
        let i = id.index();
        log.restarts[i] += 1;
        // Deterministic in (seed, node, restart ordinal): a mid-record
        // tear whenever it lands inside a frame.
        let torn_seed = self.seed ^ (i as u64).wrapping_mul(0xA24B_AED4_963E_E407);
        let ordinal = u64::from(log.restarts[i]).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let disk = &self.disks[i];
        disk.crash((torn_seed.wrapping_add(ordinal) % 24) as usize);
        let certifying = self.config.durability().map(|d| d.sync) == Some(SyncPolicy::EveryOp);
        let survived = certifying.then(|| disk.recovered::<V>().records);
        let driver = self.open(id);
        if let Some(records) = survived {
            log.lost
                .extend(lost_certified_writes(&records, driver.state()));
        }
        let inc = driver.state().incarnation();
        *node = Session::with_incarnation(driver, self.rto, inc);
        let hello = node.link().hello();
        let peers = (0..self.config.nodes())
            .map(NodeId::new)
            .filter(|p| *p != id);
        fx.sends.extend(peers.map(|p| (p, hello.clone())));
    }
}

/// The per-write oracle, run at the recovery instant: fold the record
/// stream the crash left on the platter to the last applied certified
/// write per location, and demand the rebuilt state reads back exactly
/// that write for every page it still owns. Sound only when certified
/// implies durable, i.e. under [`SyncPolicy::EveryOp`].
fn lost_certified_writes<V: Value>(
    records: &[WalRecord<V>],
    state: &CausalState<V>,
) -> Vec<String> {
    let page_size = state.config().page_size();
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
            // A checkpoint image's owned-page installs compact the writes
            // before them: they reset the fold.
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
    // Pages no longer owned were pruned by recovery (their authoritative
    // copy lives at the migrated owner now). Write identity is the check:
    // equal ids mean the slot holds exactly the certified write.
    let lost = |(loc, wid): (Location, WriteId)| {
        let got = state.peek(loc).map(|(_, w)| w);
        (state.current_owner(loc.page(page_size)) == state.id() && got != Some(wid)).then(|| {
            format!("certified write lost at {loc:?}: expected {wid:?}, recovered {got:?}")
        })
    };
    last.into_iter().filter_map(lost).collect()
}

/// Result of a batch of chaos runs.
#[derive(Clone, Debug)]
pub struct ChaosBatch<V: Value = Word> {
    /// Runs executed.
    pub runs: usize,
    /// Outcomes that wedged or violated an oracle (empty on success).
    pub failures: Vec<ChaosOutcome<V>>,
    /// Protocol messages across all runs (payload kinds only).
    pub protocol_messages: u64,
    /// Session/fault overhead messages across all runs (retransmissions,
    /// acks, duplicates, drops, liveness probes).
    pub overhead_messages: u64,
}

impl<V: Value> ChaosBatch<V> {
    /// `true` iff every run terminated correctly.
    #[must_use]
    pub fn all_ok(&self) -> bool {
        self.failures.is_empty()
    }
}

impl<V: Value> fmt::Display for ChaosBatch<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} runs, {} failures ({} protocol msgs, {} overhead msgs)",
            self.runs,
            self.failures.len(),
            self.protocol_messages,
            self.overhead_messages
        )?;
        for failure in &self.failures {
            write!(f, "{failure}")?;
        }
        Ok(())
    }
}

/// The fault families by their `smoke` command-line names.
pub const FAULT_FAMILIES: [(&str, Faults); 5] = [
    ("none", Faults::None),
    ("random", Faults::Random),
    ("owner-crash", Faults::OwnerCrash),
    ("restart", Faults::Restart(SyncPolicy::EveryOp)),
    ("restart-interval", Faults::Restart(SyncPolicy::Interval(4))),
];

/// The CI chaos grid: workload name, fault family name (see
/// [`FAULT_FAMILIES`]) and seed count, from seed 0, under
/// [`ChaosConfig::default`]. `smoke` runs it; `tests/grid_totals.rs`
/// pins its totals.
pub const GRID: [(&str, &str, usize); 8] = [
    ("registers", "random", 25),
    ("registers", "owner-crash", 10),
    ("registers", "restart", 100),
    ("registers", "restart-interval", 10),
    ("objects", "none", 100),
    ("objects", "random", 100),
    ("objects", "owner-crash", 8),
    ("objects", "restart", 100),
];

/// Runs `count` executions of one cell with seeds `first_seed..`, each
/// under [`Faults::grid`], collecting every failure with its reproduction
/// recipe.
#[must_use]
pub fn run_chaos_batch<W: Workload>(
    workload: &W,
    faults: Faults,
    first_seed: u64,
    count: usize,
    cfg: &ChaosConfig,
) -> ChaosBatch<W::Value> {
    let mut batch = ChaosBatch {
        runs: count,
        failures: Vec::new(),
        protocol_messages: 0,
        overhead_messages: 0,
    };
    for seed in first_seed..first_seed + count as u64 {
        let outcome = run_chaos(workload, faults, seed, &faults.grid(cfg, seed));
        batch.protocol_messages += outcome.messages.protocol_total();
        batch.overhead_messages += outcome.messages.overhead_total();
        if !outcome.ok() {
            batch.failures.push(outcome);
        }
    }
    batch
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{object_family, object_workload, Mutant, Objects, Registers};

    /// One run of a cell at the default configuration, which must pass.
    fn passes<W: Workload>(workload: &W, faults: Faults, seed: u64) -> ChaosOutcome<W::Value> {
        let outcome = run_chaos(workload, faults, seed, &ChaosConfig::default());
        assert!(outcome.ok(), "{} {faults:?}: {outcome}", W::NAME);
        assert!(outcome.ops_recorded > 0);
        outcome
    }

    #[test]
    fn single_runs_pass_every_oracle() {
        let cfg = ChaosConfig::default();
        let survivors = (cfg.nodes as usize - 1) * cfg.ops_per_node;
        passes(&Registers, Faults::Random, 3);
        // A dead owner: every surviving client's ops were recorded and
        // checked, the crash is permanent, and the failure detector ran.
        let crash = passes(&Registers, Faults::OwnerCrash, 0);
        assert_eq!(crash.ops_recorded, survivors);
        assert!(crash.plan.crashes.iter().any(|c| c.restart == u64::MAX));
        assert!(crash.messages.kind_total(memcore::kinds::HEARTBEAT) > 0);
        // A crash *with* a restart, survived the same way.
        let restart = passes(&Registers, Faults::Restart(SyncPolicy::EveryOp), 0);
        assert!(restart.plan.crashes.iter().all(|c| c.restart != u64::MAX));
        assert_eq!(restart.ops_recorded, survivors);
        passes(&Registers, Faults::Restart(SyncPolicy::Interval(4)), 3);
        for seed in 0..4 {
            assert_eq!(object_workload(seed, &cfg).0, object_family(seed));
            passes(&Objects, Faults::Random, seed);
        }
        for seed in 0..2 {
            let crash = passes(&Objects, Faults::OwnerCrash, seed);
            assert!(crash.plan.crashes.iter().any(|c| c.restart == u64::MAX));
        }
        let restart = passes(&Objects, Faults::Restart(SyncPolicy::EveryOp), 0);
        assert!(restart.plan.crashes.iter().all(|c| c.restart != u64::MAX));
    }

    #[test]
    fn small_batches_sweep_the_grid_green() {
        let cfg = ChaosConfig::default();
        let registers = run_chaos_batch(&Registers, Faults::Random, 0, 3, &cfg);
        let restart = run_chaos_batch(&Registers, Faults::Restart(SyncPolicy::EveryOp), 0, 4, &cfg);
        let objects = run_chaos_batch(&Objects, Faults::Random, 0, 8, &cfg);
        assert!(registers.all_ok(), "{registers}");
        assert!(restart.all_ok(), "{restart}");
        assert!(objects.all_ok(), "{objects}");
        assert_eq!((registers.runs, restart.runs, objects.runs), (3, 4, 8));
        assert!(registers.protocol_messages > 0);
        assert!(restart.protocol_messages > 0);
        assert!(objects.protocol_messages > 0);
    }

    #[test]
    fn broken_merge_policy_is_rejected_by_the_oracle() {
        // A seeded chaos run whose views are known to observe concurrent
        // bindings: the broken first-observed runtime answer diverges
        // from the declared commutative spec and must be flagged.
        let outcome = run_chaos(&Mutant, Faults::Random, 1, &ChaosConfig::default());
        assert!(!outcome.ok(), "mutation escaped the oracle: {outcome}");
        assert!(
            outcome
                .violations
                .iter()
                .any(|v| v.contains("sequential spec")),
            "{outcome}"
        );
    }
}
