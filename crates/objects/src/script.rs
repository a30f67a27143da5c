//! Scripted object processes: an [`ObjOp`] script applied through the
//! typed objects' own methods.
//!
//! [`run_script`] is how the chaos grid and the oracle tests drive the
//! objects: the simulator runs it as a `dsm_sim::Program`, so the history
//! the object oracle judges is the one the shipped objects produce.

use memcore::{MemoryError, SharedMemory};

use crate::counter::PnCounter;
use crate::layout::GridLayout;
use crate::map::CausalMap;
use crate::ops::{ObjOp, ObjRecorder, ObjRet};
use crate::oracle::Family;
use crate::policy::MergePolicy;
use crate::queue::FifoQueue;
use crate::set::CausalSet;
use crate::value::ObjVal;

/// One process's object of some family.
enum Object<M> {
    Counter(PnCounter<M>),
    Set(CausalSet<M>),
    Map(CausalMap<M>),
    Queue(FifoQueue<M>),
}

/// Applies `script`, in order, to the `family` object on `layout` as the
/// process `mem` acts for, and returns each operation's result. The
/// object is built once, so a queue's per-producer cursors
/// persist from pop to pop. Map lookups resolve concurrent bindings with
/// `policy`; with `rec`, every operation's typed trace is recorded.
///
/// # Errors
///
/// Stops at the first memory error and returns it.
///
/// # Panics
///
/// Panics on an operation of another family (`Refresh` belongs to all).
pub fn run_script<M: SharedMemory<ObjVal>>(
    mem: M,
    family: Family,
    layout: GridLayout,
    policy: impl MergePolicy,
    rec: Option<ObjRecorder>,
    script: &[ObjOp],
) -> Result<Vec<ObjRet>, MemoryError> {
    let rec = rec.as_ref();
    let object = match family {
        Family::Counter => Object::Counter(traced(
            PnCounter::new(mem, layout),
            rec,
            PnCounter::with_recorder,
        )),
        Family::Set => Object::Set(traced(
            CausalSet::new(mem, layout),
            rec,
            CausalSet::with_recorder,
        )),
        Family::Map => Object::Map(traced(
            CausalMap::new(mem, layout, policy),
            rec,
            CausalMap::with_recorder,
        )),
        Family::Queue => Object::Queue(traced(
            FifoQueue::new(mem, layout),
            rec,
            FifoQueue::with_recorder,
        )),
    };
    script
        .iter()
        .map(|&op| {
            Ok(match (&object, op) {
                (Object::Counter(c), ObjOp::Refresh) => {
                    c.refresh();
                    ObjRet::Unit
                }
                (Object::Set(s), ObjOp::Refresh) => {
                    s.refresh();
                    ObjRet::Unit
                }
                (Object::Map(m), ObjOp::Refresh) => {
                    m.refresh();
                    ObjRet::Unit
                }
                (Object::Queue(q), ObjOp::Refresh) => {
                    q.refresh();
                    ObjRet::Unit
                }
                (Object::Counter(c), ObjOp::CtrAdd(delta)) => {
                    c.add(delta)?;
                    ObjRet::Unit
                }
                (Object::Counter(c), ObjOp::CtrValue) => ObjRet::Int(c.value()?),
                (Object::Set(s), ObjOp::SetAdd(item)) => ObjRet::Bool(s.add(item)?),
                (Object::Set(s), ObjOp::SetRemove(item)) => ObjRet::Bool(s.remove(item)?),
                (Object::Set(s), ObjOp::SetContains(item)) => ObjRet::Bool(s.contains(item)?),
                (Object::Map(m), ObjOp::MapPut(key, val)) => ObjRet::Bool(m.put(key, val)?),
                (Object::Map(m), ObjOp::MapGet(key)) => ObjRet::Opt(m.get(key)?),
                (Object::Map(m), ObjOp::MapRemove(key)) => ObjRet::Bool(m.remove(key)?),
                (Object::Queue(q), ObjOp::QPush(item)) => ObjRet::Bool(q.push(item)?),
                (Object::Queue(q), ObjOp::QPop) => ObjRet::Opt(q.pop()?),
                (_, op) => panic!("{op:?} is not a {} operation", family.name()),
            })
        })
        .collect()
}

/// `object`, recording into `rec` when there is one.
fn traced<T>(object: T, rec: Option<&ObjRecorder>, attach: fn(T, ObjRecorder) -> T) -> T {
    match rec {
        Some(rec) => attach(object, rec.clone()),
        None => object,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use causal_dsm::{CausalConfig, WritePolicy};
    use causal_spec::{check_causal, check_object, Execution};
    use dsm_sim::{causal_sim, Program, RunLimits, SimOpts};
    use memcore::{NodeId, Recorder};
    use simnet::latency::Uniform;

    use crate::oracle::ObjectOracle;
    use crate::policy::PolicyKind;
    use crate::value::ObjVal;

    use ObjOp::*;

    /// Runs one [`run_script`] program per row under ten seeds of jittery
    /// latency; each history must pass the causal checker and the
    /// family's object oracle.
    fn assert_oracles_pass(
        family: Family,
        layout: GridLayout,
        policy: PolicyKind,
        scripts: &[Vec<ObjOp>],
    ) {
        for seed in 0..10u64 {
            let recorder: Recorder<ObjVal> = Recorder::new(layout.rows());
            let typed = ObjRecorder::new(layout.rows());
            let config = CausalConfig::<ObjVal>::builder(layout.rows() as u32, layout.locations())
                .owners(layout.owners())
                .policy(WritePolicy::OwnerFavored)
                .build();
            let mut sim = causal_sim(
                &config,
                SimOpts {
                    latency: Box::new(Uniform::new(1, 12)),
                    seed,
                    recorder: Some(recorder.clone()),
                    ..SimOpts::default()
                },
            );
            for (row, script) in scripts.iter().cloned().enumerate() {
                let typed = typed.clone();
                let program = Program::new(NodeId::new(row as u32), move |mem| {
                    run_script(mem, family, layout, policy, Some(typed), &script).unwrap();
                });
                sim.set_client(row, program);
            }
            let report = sim.run(RunLimits::default());
            assert!(report.all_done, "{report:?}");
            let exec = Execution::from_recorder(&recorder);
            assert!(check_causal(&exec).unwrap().is_correct(), "seed {seed}");
            let oracle = ObjectOracle::new(family, layout).with_policy(policy);
            let report = check_object(&typed.processes(), &oracle);
            assert!(report.is_correct(), "seed {seed}:\n{report}");
        }
    }

    #[test]
    fn simulated_counter_history_passes_its_oracle() {
        let scripts = [
            vec![CtrAdd(5), CtrAdd(-2), Refresh, CtrValue],
            vec![CtrAdd(3), Refresh, CtrValue],
        ];
        let layout = GridLayout::new(2, 2);
        assert_oracles_pass(Family::Counter, layout, PolicyKind::LastWriter, &scripts);
    }

    #[test]
    fn simulated_set_history_passes_its_oracle() {
        let scripts = [
            vec![SetAdd(1), SetAdd(2), Refresh, SetContains(10)],
            vec![SetAdd(10), Refresh, SetRemove(1)],
            vec![Refresh, SetContains(2), SetRemove(10)],
        ];
        let layout = GridLayout::new(3, 4);
        assert_oracles_pass(Family::Set, layout, PolicyKind::LastWriter, &scripts);
    }

    #[test]
    fn simulated_map_history_passes_its_oracle() {
        let scripts = [
            vec![MapPut(1, 10), Refresh, MapGet(1), MapGet(2)],
            vec![MapPut(1, 20), MapPut(2, 5), Refresh, MapRemove(2)],
        ];
        let policy = PolicyKind::OwnerWins { rows: 2 };
        assert_oracles_pass(Family::Map, GridLayout::new(2, 3), policy, &scripts);
    }

    #[test]
    fn simulated_queue_history_passes_its_oracle() {
        let scripts = [
            vec![QPush(10), QPush(11), QPush(12)],
            vec![Refresh, QPop, Refresh, QPop, Refresh, QPop],
        ];
        let layout = GridLayout::new(2, 4);
        assert_oracles_pass(Family::Queue, layout, PolicyKind::LastWriter, &scripts);
    }
}
