//! The §4.2 dictionary as a simulator client — lets the deterministic
//! scheduler drive dictionary workloads under controlled/adversarial
//! interleavings, with the recorded execution checked against the
//! specification.
//!
//! Since PR 10 the client is an adapter over the typed object layer's
//! [`ObjectClient`]: each [`DictOp`] maps onto its observed-remove-set
//! counterpart ([`ObjOp::SetAdd`]/[`ObjOp::SetRemove`]/
//! [`ObjOp::SetContains`]/[`ObjOp::Refresh`]), and finished results flow
//! back through the object client's finish hook. The register accesses
//! issued are exactly those of the retired hand-rolled state machine
//! (pinned by `tests/dict_port.rs`).

use std::sync::Arc;

use dsm_objects::{ObjOp, ObjRet, ObjVal, ObjectClient, PolicyKind};
use dsm_sim::{Client, ClientOp, Outcome};
use parking_lot::Mutex;

use crate::dictionary::DictLayout;

/// One high-level dictionary operation for a scripted process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DictOp {
    /// Insert an item into this process's own row.
    Insert(i64),
    /// Delete an item wherever this process's view finds it.
    Delete(i64),
    /// Look an item up in this process's view.
    Lookup(i64),
    /// Discard all cached (non-owned) slots, restoring view liveness.
    Refresh,
}

impl DictOp {
    /// The observed-remove-set operation this dictionary op lowers to.
    #[must_use]
    pub fn to_obj(self) -> ObjOp {
        match self {
            DictOp::Insert(v) => ObjOp::SetAdd(v),
            DictOp::Delete(v) => ObjOp::SetRemove(v),
            DictOp::Lookup(v) => ObjOp::SetContains(v),
            DictOp::Refresh => ObjOp::Refresh,
        }
    }

    fn from_obj(op: ObjOp) -> Option<Self> {
        match op {
            ObjOp::SetAdd(v) => Some(DictOp::Insert(v)),
            ObjOp::SetRemove(v) => Some(DictOp::Delete(v)),
            ObjOp::SetContains(v) => Some(DictOp::Lookup(v)),
            ObjOp::Refresh => Some(DictOp::Refresh),
            _ => None,
        }
    }
}

/// The boolean results of each completed [`DictOp`], in script order
/// (`Refresh` records `true`).
pub type DictResults = Arc<Mutex<Vec<(DictOp, bool)>>>;

/// A scripted dictionary process for the deterministic simulator.
///
/// Scans are performed exactly as [`Dictionary`](crate::Dictionary) does
/// on the threaded engine: row-major reads, first match wins, inserts
/// confined to the owner's row.
pub struct DictClient {
    inner: ObjectClient,
}

impl DictClient {
    /// A client for process `row`, running `script`; outcomes are pushed
    /// into `results`.
    #[must_use]
    pub fn new(layout: DictLayout, row: usize, script: Vec<DictOp>, results: DictResults) -> Self {
        assert!(row < layout.rows(), "row out of range");
        let lowered = script.into_iter().map(DictOp::to_obj).collect();
        let inner = ObjectClient::new(layout, row, lowered, PolicyKind::LastWriter)
            .with_finish_hook(Box::new(move |op, ret| {
                if let Some(op) = DictOp::from_obj(op) {
                    let ok = match ret {
                        ObjRet::Bool(b) => b,
                        _ => true, // Refresh returns Unit; record `true`.
                    };
                    results.lock().push((op, ok));
                }
            }));
        DictClient { inner }
    }
}

impl Client<ObjVal> for DictClient {
    fn next(&mut self, last: Option<&Outcome<ObjVal>>) -> Option<ClientOp<ObjVal>> {
        self.inner.next(last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use causal_dsm::{CausalConfig, WritePolicy};
    use causal_spec::{check_causal, Execution};
    use dsm_sim::{causal_sim, RunLimits, SimDriver, SimOpts};
    use memcore::Recorder;
    use simnet::latency::Uniform;

    fn results() -> DictResults {
        Arc::new(Mutex::new(Vec::new()))
    }

    struct ScriptRun {
        log: Vec<(DictOp, bool)>,
        slots: Vec<Option<ObjVal>>,
        exec: Execution<ObjVal>,
    }

    fn run_scripts(layout: DictLayout, scripts: Vec<Vec<DictOp>>, seed: u64) -> ScriptRun {
        let recorder: Recorder<ObjVal> = Recorder::new(layout.rows());
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
        let shared = results();
        for (row, script) in scripts.into_iter().enumerate() {
            sim.set_client(row, DictClient::new(layout, row, script, shared.clone()));
        }
        let report = sim.run(RunLimits::default());
        assert!(report.all_done, "{report:?}");
        // Ground truth: owner copies of every slot.
        let slots = (0..layout.rows() * layout.cols())
            .map(|flat| {
                let row = flat / layout.cols();
                sim.driver(row).peek(layout.slot(row, flat % layout.cols()))
            })
            .collect();
        let log = shared.lock().clone();
        ScriptRun {
            log,
            slots,
            exec: Execution::from_recorder(&recorder),
        }
    }

    #[test]
    fn scripted_insert_lookup_delete_flow() {
        let layout = DictLayout::new(2, 4);
        let ScriptRun { log, slots, exec } = run_scripts(
            layout,
            vec![
                vec![DictOp::Insert(10), DictOp::Lookup(10)],
                vec![DictOp::Refresh, DictOp::Lookup(10)],
            ],
            0,
        );
        // P0's insert and own lookup must succeed.
        assert!(log.contains(&(DictOp::Insert(10), true)));
        assert_eq!(
            log.iter()
                .filter(|(op, _)| *op == DictOp::Lookup(10))
                .count(),
            2
        );
        // The item sits in P0's row at the owner.
        assert!(slots.contains(&Some(ObjVal::Item(10))));
        assert!(check_causal(&exec).unwrap().is_correct());
    }

    #[test]
    fn random_schedules_keep_dictionary_executions_causal() {
        let layout = DictLayout::new(3, 6);
        for seed in 0..25u64 {
            let scripts = vec![
                vec![
                    DictOp::Insert(1),
                    DictOp::Insert(2),
                    DictOp::Lookup(20),
                    DictOp::Delete(1),
                    DictOp::Refresh,
                    DictOp::Lookup(30),
                ],
                vec![
                    DictOp::Insert(10),
                    DictOp::Refresh,
                    DictOp::Delete(2),
                    DictOp::Insert(20),
                    DictOp::Lookup(1),
                ],
                vec![
                    DictOp::Insert(30),
                    DictOp::Refresh,
                    DictOp::Lookup(10),
                    DictOp::Delete(30),
                    DictOp::Insert(31),
                ],
            ];
            let exec = run_scripts(layout, scripts, seed).exec;
            let verdict = check_causal(&exec).unwrap();
            assert!(verdict.is_correct(), "seed {seed}:\n{verdict}");
        }
    }

    #[test]
    fn own_row_survives_foreign_delete_then_reinsert_races() {
        // All processes hammer the same item id owned by P0, racing
        // deletes against P0's re-inserts across many schedules. Whatever
        // interleaving happens, executions stay causal and the final
        // owner state is one of the legal outcomes (7 present or absent).
        let layout = DictLayout::new(3, 2);
        for seed in 0..25u64 {
            let scripts = vec![
                vec![DictOp::Insert(7), DictOp::Delete(7), DictOp::Insert(7)],
                vec![DictOp::Refresh, DictOp::Delete(7)],
                vec![DictOp::Refresh, DictOp::Delete(7)],
            ];
            let ScriptRun { slots, exec, .. } = run_scripts(layout, scripts, seed);
            assert!(check_causal(&exec).unwrap().is_correct(), "seed {seed}");
            let sevens = slots
                .iter()
                .filter(|s| **s == Some(ObjVal::Item(7)))
                .count();
            assert!(sevens <= 1, "seed {seed}: duplicate item after races");
        }
    }
}
