//! The workload axis of the chaos grid: what the clients do, over which
//! value type, under which protocol configuration shape, and which oracle
//! judges the run on top of Definition 2.
//!
//! * [`Registers`] — the seeded read/write mix of [`dsm_apps::WorkloadSpec`]
//!   over [`Word`] cells, round-robin owners; Definition 2 alone.
//! * [`Objects`] — typed objects (PN-counter, set, map, FIFO queue; the
//!   family cycles with the seed) on single-writer grid rows under
//!   owner-favored writes, every return value checked by
//!   [`causal_spec::check_object`] against the family's sequential spec.
//! * [`Mutant`] — a map whose runtime resolves conflicts with the broken,
//!   order-dependent [`BrokenFirstObserved`] policy while the oracle
//!   checks the declared commutative one: runs the oracle must reject.

use causal_dsm::{CausalConfig, CausalConfigBuilder, WritePolicy};
use causal_spec::check_object;
use dsm_apps::{WorkloadOp, WorkloadSpec};
use dsm_objects::{
    BrokenFirstObserved, Family, GridLayout, MergePolicy, ObjOp, ObjRecorder, ObjVal, ObjectClient,
    ObjectOracle, PolicyKind,
};
use dsm_sim::{Client, ClientOp, Script};
use memcore::{Value, Word};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use simnet::codec::Wire;

use crate::harness::ChaosConfig;

/// What a workload contributes to one run.
pub struct Shape<V: Value> {
    /// The protocol configuration's shape — size, owners, write policy.
    /// The harness adds the pipeline and the fault family's failover and
    /// durability settings.
    pub config: CausalConfigBuilder<V>,
    /// One client per node, in node order; the harness takes the crash
    /// victim's away (it is a pure server).
    pub clients: Vec<Option<Box<dyn Client<V>>>>,
    /// The workload's own oracle, run after the causal one; returns
    /// rendered violations.
    pub check: Box<dyn FnOnce() -> Vec<String>>,
}

/// One row of the chaos grid's workload axis.
pub trait Workload {
    /// What a location holds.
    type Value: Value + Wire;
    /// The workload's name on the `smoke` command line.
    const NAME: &'static str;

    /// The seeded workload: identical `(seed, cfg)` give identical
    /// scripts.
    fn shape(&self, seed: u64, cfg: &ChaosConfig) -> Shape<Self::Value>;
}

/// Seeded register reads and writes (see the module docs).
#[derive(Clone, Copy, Debug, Default)]
pub struct Registers;

impl Workload for Registers {
    type Value = Word;
    const NAME: &'static str = "registers";

    fn shape(&self, seed: u64, cfg: &ChaosConfig) -> Shape<Word> {
        let spec = WorkloadSpec {
            nodes: cfg.nodes as usize,
            locations_per_node: cfg.locations_per_node as usize,
            ops_per_node: cfg.ops_per_node,
            read_ratio: cfg.read_ratio,
            locality: cfg.locality,
            seed,
        };
        let clients = spec
            .generate()
            .into_iter()
            .map(|ops| {
                let script: Vec<ClientOp<Word>> = ops
                    .into_iter()
                    .map(|op| match op {
                        WorkloadOp::Read(l) => ClientOp::Read(l),
                        WorkloadOp::Write(l, v) => ClientOp::Write(l, Word::Int(v)),
                    })
                    .collect();
                Some(Box::new(Script::new(script)) as Box<dyn Client<Word>>)
            })
            .collect();
        Shape {
            config: CausalConfig::builder(cfg.nodes, spec.locations()),
            clients,
            check: Box::new(Vec::new),
        }
    }
}

/// Typed objects under their sequential-spec oracle (see the module
/// docs).
#[derive(Clone, Copy, Debug, Default)]
pub struct Objects;

impl Workload for Objects {
    type Value = ObjVal;
    const NAME: &'static str = "objects";

    fn shape(&self, seed: u64, cfg: &ChaosConfig) -> Shape<ObjVal> {
        let (family, layout, policy, scripts) = object_workload(seed, cfg);
        let oracle = ObjectOracle::new(family, layout).with_policy(policy);
        object_shape(layout, scripts, policy, oracle)
    }
}

/// The broken-merge-policy map (see the module docs). Every node binds
/// key 0 to its own value and then repeatedly refreshes and looks the key
/// up, so views with two or more visible bindings are common; any lookup
/// whose first-observed binding is not the maximum diverges from the spec.
#[derive(Clone, Copy, Debug, Default)]
pub struct Mutant;

impl Workload for Mutant {
    type Value = ObjVal;
    const NAME: &'static str = "mutant";

    fn shape(&self, _seed: u64, cfg: &ChaosConfig) -> Shape<ObjVal> {
        let layout = GridLayout::new(cfg.nodes as usize, 2);
        let scripts = (0..cfg.nodes)
            .map(|row| {
                let mut script = vec![ObjOp::MapPut(0, i64::from(row) + 1)];
                for _ in 0..4 {
                    script.extend([ObjOp::Refresh, ObjOp::MapGet(0)]);
                }
                script
            })
            .collect();
        let oracle = ObjectOracle::new(Family::Map, layout).with_policy(PolicyKind::Commutative);
        object_shape(layout, scripts, BrokenFirstObserved, oracle)
    }
}

/// Object clients on the grid's rows, their typed traces handed to the
/// object oracle.
fn object_shape(
    layout: GridLayout,
    scripts: Vec<Vec<ObjOp>>,
    runtime: impl MergePolicy + Clone,
    oracle: ObjectOracle,
) -> Shape<ObjVal> {
    let typed = ObjRecorder::new(layout.rows());
    let clients = scripts
        .into_iter()
        .enumerate()
        .map(|(row, script)| {
            let client = ObjectClient::new(layout, row, script, runtime.clone());
            Some(Box::new(client.with_recorder(typed.clone())) as Box<dyn Client<ObjVal>>)
        })
        .collect();
    Shape {
        config: CausalConfig::builder(layout.rows() as u32, layout.locations())
            .owners(layout.owners())
            .policy(WritePolicy::OwnerFavored),
        clients,
        check: Box::new(move || check_object(&typed.processes(), &oracle).violations),
    }
}

/// The canonical family rotation: `seed % 4` picks the object family, so
/// any contiguous seed range covers all four.
#[must_use]
pub(crate) fn object_family(seed: u64) -> Family {
    [Family::Counter, Family::Set, Family::Map, Family::Queue][(seed % 4) as usize]
}

/// The seeded object workload for `seed`: the family (from
/// [`object_family`]), its grid layout, the merge policy the run
/// declares (maps cycle through all three canonical policies with
/// `seed / 4`), and one [`ObjOp`] script per node, drawn from a
/// seed-keyed RNG stream distinct from the fault/latency streams.
///
/// Every script ends with a `Refresh` + final query, so each run
/// exercises the read-your-refreshed-view path the §4.2 dictionary
/// relies on.
#[must_use]
pub(crate) fn object_workload(
    seed: u64,
    cfg: &ChaosConfig,
) -> (Family, GridLayout, PolicyKind, Vec<Vec<ObjOp>>) {
    let family = object_family(seed);
    let nodes = cfg.nodes as usize;
    let ops = cfg.ops_per_node.max(2);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x0B1E_C7F0_0D5E_ED01);
    let policy = match family {
        Family::Map => [
            PolicyKind::LastWriter,
            PolicyKind::OwnerWins { rows: nodes },
            PolicyKind::Commutative,
        ][((seed / 4) % 3) as usize],
        _ => PolicyKind::LastWriter,
    };
    let layout = match family {
        Family::Counter => GridLayout::new(nodes, 2),
        // Rows sized so a node appending on every op never runs out.
        Family::Set | Family::Queue => GridLayout::new(nodes, ops),
        Family::Map => GridLayout::new(nodes, 4),
    };
    let scripts = (0..nodes)
        .map(|row| {
            let mut script = Vec::with_capacity(ops + 2);
            let mut pushed = 0i64;
            for _ in 0..ops.saturating_sub(2) {
                let op = match family {
                    Family::Counter => match rng.gen_range(0..6u32) {
                        0..=2 => {
                            let d = rng.gen_range(1..=5i64);
                            ObjOp::CtrAdd(if rng.gen_bool(0.3) { -d } else { d })
                        }
                        3 => ObjOp::Refresh,
                        _ => ObjOp::CtrValue,
                    },
                    Family::Set => match rng.gen_range(0..6u32) {
                        0..=2 => ObjOp::SetAdd(rng.gen_range(0..6i64)),
                        3 => ObjOp::SetRemove(rng.gen_range(0..6i64)),
                        4 => ObjOp::SetContains(rng.gen_range(0..6i64)),
                        _ => ObjOp::Refresh,
                    },
                    Family::Map => match rng.gen_range(0..6u32) {
                        0..=2 => ObjOp::MapPut(rng.gen_range(0..4i64), rng.gen_range(1..100i64)),
                        3 => ObjOp::MapGet(rng.gen_range(0..4i64)),
                        4 => ObjOp::MapRemove(rng.gen_range(0..4i64)),
                        _ => ObjOp::Refresh,
                    },
                    Family::Queue => match rng.gen_range(0..6u32) {
                        0..=2 => {
                            pushed += 1;
                            ObjOp::QPush(row as i64 * 1_000 + pushed)
                        }
                        3..=4 => ObjOp::QPop,
                        _ => ObjOp::Refresh,
                    },
                };
                script.push(op);
            }
            script.push(ObjOp::Refresh);
            script.push(match family {
                Family::Counter => ObjOp::CtrValue,
                Family::Set => ObjOp::SetContains(rng.gen_range(0..6i64)),
                Family::Map => ObjOp::MapGet(rng.gen_range(0..4i64)),
                Family::Queue => ObjOp::QPop,
            });
            script
        })
        .collect();
    (family, layout, policy, scripts)
}
