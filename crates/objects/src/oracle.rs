//! The per-object sequential-spec oracles.
//!
//! One [`ObjectOracle`] covers all four families: given a typed
//! operation's recorded cell snapshot, it independently re-derives the
//! answer the sequential specification dictates and flags any runtime
//! that disagrees (this is how the mutation tests catch a broken merge
//! policy). On top of single-op conformance it checks the families'
//! stream invariants (monotone counter components, per-producer FIFO
//! order) and whole-history invariants (cross-process FIFO prefix
//! agreement).

use std::collections::HashMap;

use causal_spec::ObjectSpec;
use memcore::Location;

use crate::counter::{NEG, POS};
use crate::layout::GridLayout;
use crate::ops::{ObjOp, ObjRet, ObjTypedOp};
use crate::policy::{Candidate, PolicyKind};
use crate::value::ObjVal;

/// The object families the oracle knows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// PN-counter over `(pos, neg)` component rows.
    Counter,
    /// Grow/observed-remove set over item rows.
    Set,
    /// Map with policy-resolved concurrent bindings.
    Map,
    /// Per-producer FIFO append-queue.
    Queue,
}

impl Family {
    /// The family's display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Family::Counter => "counter",
            Family::Set => "set",
            Family::Map => "map",
            Family::Queue => "queue",
        }
    }
}

/// The sequential specification of one object family over a grid,
/// usable with [`causal_spec::check_object`].
#[derive(Clone, Copy, Debug)]
pub struct ObjectOracle {
    family: Family,
    layout: GridLayout,
    policy: PolicyKind,
}

impl ObjectOracle {
    /// An oracle for `family` over `layout`. Maps resolve concurrent
    /// bindings with [`PolicyKind::LastWriter`] unless overridden by
    /// [`with_policy`](Self::with_policy).
    #[must_use]
    pub fn new(family: Family, layout: GridLayout) -> Self {
        ObjectOracle {
            family,
            layout,
            policy: PolicyKind::LastWriter,
        }
    }

    /// Declares the merge policy the runtime map claims to implement;
    /// the oracle re-derives lookups with this (spec-side) policy.
    #[must_use]
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// The family this oracle specifies.
    #[must_use]
    pub fn family(&self) -> Family {
        self.family
    }

    fn counter_fold(&self, op: &ObjTypedOp) -> i64 {
        let mut total = 0i64;
        for obs in &op.observed {
            let (_, col) = self.layout.coords(obs.loc);
            let count = obs.value.as_count().unwrap_or(0) as i64;
            total += if col == POS { count } else { -count };
        }
        total
    }

    fn map_candidates(&self, op: &ObjTypedOp, key: i64) -> Vec<Candidate> {
        op.observed
            .iter()
            .filter_map(|obs| match obs.value {
                ObjVal::Entry(k, val) if k == key => Some(Candidate {
                    row: self.layout.coords(obs.loc).0,
                    wid: obs.wid,
                    val,
                }),
                _ => None,
            })
            .collect()
    }

    fn check_counter_stream(&self, process: usize, ops: &[ObjTypedOp]) -> Vec<String> {
        let mut violations = Vec::new();
        let mut seen: HashMap<Location, u64> = HashMap::new();
        for (i, op) in ops.iter().enumerate() {
            for obs in &op.observed {
                let count = obs.value.as_count().unwrap_or(0);
                let max = seen.entry(obs.loc).or_insert(count);
                if count < *max {
                    violations.push(format!(
                        "P{process}[{i}] {:?}: counter component {} regressed \
                         from {max} to {count}",
                        op.desc, obs.loc
                    ));
                } else {
                    *max = count;
                }
            }
            if let ObjOp::CtrAdd(delta) = op.desc {
                let (Some(old), Some(new)) = (op.observed.last(), op.wrote.last()) else {
                    continue;
                };
                let expect_col = if delta >= 0 { POS } else { NEG };
                let wrote_count = new.value.as_count().unwrap_or(0);
                let old_count = old.value.as_count().unwrap_or(0);
                if new.loc != old.loc
                    || self.layout.coords(new.loc).1 != expect_col
                    || wrote_count != old_count + delta.unsigned_abs()
                {
                    violations.push(format!(
                        "P{process}[{i}] {:?}: wrote {} = {wrote_count}, expected \
                         component {expect_col} of own row to become {}",
                        op.desc,
                        new.loc,
                        old_count + delta.unsigned_abs()
                    ));
                }
            }
        }
        violations
    }

    fn check_queue_stream(&self, process: usize, ops: &[ObjTypedOp]) -> Vec<String> {
        let mut violations = Vec::new();
        let mut push_next = 0usize;
        let mut pop_next = vec![0usize; self.layout.rows()];
        for (i, op) in ops.iter().enumerate() {
            match op.desc {
                ObjOp::QPush(item) => {
                    let Some(w) = op.wrote.last() else { continue };
                    let (row, col) = self.layout.coords(w.loc);
                    if row != process || col != push_next || w.value != ObjVal::Item(item) {
                        violations.push(format!(
                            "P{process}[{i}] {:?}: appended at {} (row {row}, col {col}), \
                             expected own row col {push_next}",
                            op.desc, w.loc
                        ));
                    }
                    push_next = col + 1;
                }
                ObjOp::QPop if matches!(op.returned, ObjRet::Opt(Some(_))) => {
                    let Some(obs) = op.observed.last() else {
                        continue;
                    };
                    let (row, col) = self.layout.coords(obs.loc);
                    if col != pop_next[row] {
                        violations.push(format!(
                            "P{process}[{i}] {:?}: consumed producer {row}'s col {col} \
                             but col {} is next — a FIFO gap",
                            op.desc, pop_next[row]
                        ));
                    }
                    pop_next[row] = col + 1;
                }
                _ => {}
            }
        }
        violations
    }

    /// What each producer pushed, in program order, from `history`.
    fn pushes(&self, history: &[Vec<ObjTypedOp>]) -> Vec<Vec<i64>> {
        let mut pushes = vec![Vec::new(); self.layout.rows()];
        for (p, ops) in history.iter().enumerate() {
            for op in ops {
                if let (ObjOp::QPush(item), Some(_)) = (op.desc, op.wrote.last()) {
                    if p < pushes.len() {
                        pushes[p].push(item);
                    }
                }
            }
        }
        pushes
    }
}

impl ObjectSpec<ObjVal> for ObjectOracle {
    type Desc = ObjOp;
    type Ret = ObjRet;

    fn expected(&self, op: &ObjTypedOp) -> Option<ObjRet> {
        match op.desc {
            ObjOp::CtrAdd(_) | ObjOp::Refresh => None,
            ObjOp::CtrValue => Some(ObjRet::Int(self.counter_fold(op))),
            ObjOp::SetAdd(_) | ObjOp::QPush(_) => Some(ObjRet::Bool(
                op.observed.last().is_some_and(|o| o.value.is_free()),
            )),
            ObjOp::SetRemove(item) => Some(ObjRet::Bool(
                op.observed.last().map(|o| o.value) == Some(ObjVal::Item(item)),
            )),
            ObjOp::SetContains(item) => Some(ObjRet::Bool(
                op.observed.iter().any(|o| o.value == ObjVal::Item(item)),
            )),
            ObjOp::MapPut(key, _) => {
                Some(ObjRet::Bool(op.observed.iter().any(|o| {
                    o.value.is_free() || matches!(o.value, ObjVal::Entry(k, _) if k == key)
                })))
            }
            ObjOp::MapGet(key) => {
                let candidates = self.map_candidates(op, key);
                Some(ObjRet::Opt(if candidates.is_empty() {
                    None
                } else {
                    Some(self.policy.resolve(key, &candidates))
                }))
            }
            ObjOp::MapRemove(key) => Some(ObjRet::Bool(
                op.observed
                    .iter()
                    .any(|o| matches!(o.value, ObjVal::Entry(k, _) if k == key)),
            )),
            ObjOp::QPop => Some(ObjRet::Opt(match op.observed.last().map(|o| o.value) {
                Some(ObjVal::Item(item)) => Some(item),
                _ => None,
            })),
        }
    }

    fn check_stream(&self, process: usize, ops: &[ObjTypedOp]) -> Vec<String> {
        match self.family {
            Family::Counter => self.check_counter_stream(process, ops),
            Family::Queue => self.check_queue_stream(process, ops),
            Family::Set | Family::Map => Vec::new(),
        }
    }

    fn check_history(&self, history: &[Vec<ObjTypedOp>]) -> Vec<String> {
        if self.family != Family::Queue {
            return Vec::new();
        }
        let pushes = self.pushes(history);
        let mut violations = Vec::new();
        for (consumer, ops) in history.iter().enumerate() {
            let mut popped = vec![Vec::new(); self.layout.rows()];
            for op in ops {
                if let (ObjOp::QPop, ObjRet::Opt(Some(item))) = (op.desc, op.returned) {
                    if let Some(obs) = op.observed.last() {
                        popped[self.layout.coords(obs.loc).0].push(item);
                    }
                }
            }
            for (producer, consumed) in popped.iter().enumerate() {
                if consumed.as_slice()
                    != &pushes[producer][..consumed.len().min(pushes[producer].len())]
                    || consumed.len() > pushes[producer].len()
                {
                    violations.push(format!(
                        "P{consumer} consumed {consumed:?} from producer {producer}, \
                         which is not a prefix of its pushes {:?}",
                        pushes[producer]
                    ));
                }
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use causal_spec::{check_object, Obs};
    use memcore::{NodeId, WriteId};

    fn obs(layout: GridLayout, row: usize, col: usize, seq: u64, value: ObjVal) -> Obs<ObjVal> {
        Obs::new(
            layout.slot(row, col),
            WriteId::new(NodeId::new(row as u32), seq),
            value,
        )
    }

    #[test]
    fn counter_fold_matches_components() {
        let layout = GridLayout::new(2, 2);
        let oracle = ObjectOracle::new(Family::Counter, layout);
        let op = ObjTypedOp {
            desc: ObjOp::CtrValue,
            returned: ObjRet::Int(3),
            observed: vec![
                obs(layout, 0, POS, 1, ObjVal::Count(5)),
                obs(layout, 0, NEG, 1, ObjVal::Count(2)),
                obs(layout, 1, POS, 0, ObjVal::Free),
                obs(layout, 1, NEG, 0, ObjVal::Free),
            ],
            wrote: vec![],
        };
        assert_eq!(oracle.expected(&op), Some(ObjRet::Int(3)));
    }

    #[test]
    fn a_fifo_gap_is_rejected() {
        let layout = GridLayout::new(2, 3);
        let oracle = ObjectOracle::new(Family::Queue, layout);
        // The consumer pops producer 0's col 1 without ever popping col 0.
        let pop = ObjTypedOp {
            desc: ObjOp::QPop,
            returned: ObjRet::Opt(Some(11)),
            observed: vec![obs(layout, 0, 1, 2, ObjVal::Item(11))],
            wrote: vec![],
        };
        let violations = oracle.check_stream(1, &[pop]);
        assert!(
            violations.iter().any(|v| v.contains("FIFO gap")),
            "{violations:?}"
        );
    }

    #[test]
    fn cross_process_pop_order_must_prefix_push_order() {
        let layout = GridLayout::new(2, 3);
        let oracle = ObjectOracle::new(Family::Queue, layout);
        let push = |col: usize, item: i64| ObjTypedOp {
            desc: ObjOp::QPush(item),
            returned: ObjRet::Bool(true),
            observed: vec![obs(layout, 0, col, 0, ObjVal::Free)],
            wrote: vec![obs(layout, 0, col, col as u64 + 1, ObjVal::Item(item))],
        };
        let pop = |col: usize, item: i64| ObjTypedOp {
            desc: ObjOp::QPop,
            returned: ObjRet::Opt(Some(item)),
            observed: vec![obs(layout, 0, col, col as u64 + 1, ObjVal::Item(item))],
            wrote: vec![],
        };
        // Producer pushes 10 then 11; a reordering consumer claims 11 first.
        let history = vec![vec![push(0, 10), push(1, 11)], vec![pop(0, 11), pop(1, 10)]];
        let report = check_object(&history, &oracle);
        assert!(
            report.violations.iter().any(|v| v.contains("not a prefix")),
            "{report}"
        );
    }

    #[test]
    fn map_lookup_is_rederived_with_the_declared_policy() {
        let layout = GridLayout::new(2, 1);
        let oracle = ObjectOracle::new(Family::Map, layout).with_policy(PolicyKind::Commutative);
        let op = ObjTypedOp {
            desc: ObjOp::MapGet(1),
            returned: ObjRet::Opt(Some(3)), // first-observed answer, not the max
            observed: vec![
                obs(layout, 0, 0, 1, ObjVal::Entry(1, 3)),
                obs(layout, 1, 0, 1, ObjVal::Entry(1, 9)),
            ],
            wrote: vec![],
        };
        assert_eq!(oracle.expected(&op), Some(ObjRet::Opt(Some(9))));
        let report = check_object(&[vec![op]], &oracle);
        assert!(!report.is_correct(), "broken policy must be rejected");
    }
}
