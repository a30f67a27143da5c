//! The PN-counter: increment/decrement with single-writer component
//! cells.
//!
//! Process `P_i` owns two cells — a positive and a negative event count —
//! and is the only writer of either, so updates are owner-local
//! read-modify-writes that never conflict. The counter's value is the
//! fold `Σ pos − Σ neg` over every process's components; causal memory
//! guarantees each component is observed monotonically, so a process's
//! reported value moves consistently with its causal past.

use memcore::{MemoryError, NodeId, SharedMemory};

use crate::layout::GridLayout;
use crate::ops::{ObjOp, ObjRecorder, ObjRet};
use crate::trace::Trace;
use crate::value::ObjVal;

/// Column of the positive component in a counter grid.
pub const POS: usize = 0;
/// Column of the negative component in a counter grid.
pub const NEG: usize = 1;

/// One process's handle on the shared PN-counter.
#[derive(Debug)]
pub struct PnCounter<M> {
    mem: M,
    layout: GridLayout,
    row: usize,
    rec: Option<ObjRecorder>,
}

impl<M: SharedMemory<ObjVal>> PnCounter<M> {
    /// The grid a counter for `nodes` processes occupies: one row of
    /// `(pos, neg)` cells per process.
    #[must_use]
    pub fn layout(nodes: usize) -> GridLayout {
        GridLayout::new(nodes, 2)
    }

    /// Wraps `mem` (whose node index selects this process's components).
    ///
    /// # Panics
    ///
    /// Panics if the node index exceeds the layout's rows.
    #[must_use]
    pub fn new(mem: M, layout: GridLayout) -> Self {
        let row = mem.node().index();
        assert!(row < layout.rows(), "node outside counter layout");
        PnCounter {
            mem,
            layout,
            row,
            rec: None,
        }
    }

    /// Records every operation's typed trace into `rec`.
    #[must_use]
    pub fn with_recorder(mut self, rec: ObjRecorder) -> Self {
        self.rec = Some(rec);
        self
    }

    /// Adds `delta` (negative deltas decrement): an owner-local
    /// read-modify-write of this process's own component cell.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn add(&self, delta: i64) -> Result<(), MemoryError> {
        let mut tr = Trace::new(self.rec.is_some());
        let col = if delta >= 0 { POS } else { NEG };
        let cell = self.layout.slot(self.row, col);
        let (old, _) = tr.read(&self.mem, cell)?;
        let count = old.as_count().expect("counter cell holds a count");
        tr.write(&self.mem, cell, ObjVal::Count(count + delta.unsigned_abs()))?;
        tr.emit(
            self.rec.as_ref(),
            self.node(),
            ObjOp::CtrAdd(delta),
            ObjRet::Unit,
        );
        Ok(())
    }

    /// The counter's value in this process's view: `Σ pos − Σ neg` over
    /// every row's components.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn value(&self) -> Result<i64, MemoryError> {
        let mut tr = Trace::new(self.rec.is_some());
        let mut total = 0i64;
        for row in 0..self.layout.rows() {
            for (col, sign) in [(POS, 1i64), (NEG, -1i64)] {
                let (v, _) = tr.read(&self.mem, self.layout.slot(row, col))?;
                let count = v.as_count().expect("counter cell holds a count");
                total += sign * count as i64;
            }
        }
        tr.emit(
            self.rec.as_ref(),
            self.node(),
            ObjOp::CtrValue,
            ObjRet::Int(total),
        );
        Ok(total)
    }

    /// Discards every cached (non-owned) component, so the next `value`
    /// fetches fresh copies — the paper's `discard`-based view liveness.
    /// With a recorder installed it records an [`ObjOp::Refresh`].
    pub fn refresh(&self) {
        crate::trace::refresh(&self.mem, &self.layout, self.row, self.rec.as_ref());
    }

    fn node(&self) -> NodeId {
        NodeId::new(self.row as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use causal_dsm::CausalCluster;
    use causal_spec::check_object;

    use crate::oracle::{Family, ObjectOracle};

    fn cluster(nodes: usize) -> CausalCluster<ObjVal> {
        let layout = PnCounter::<causal_dsm::CausalHandle<ObjVal>>::layout(nodes);
        CausalCluster::<ObjVal>::builder(nodes as u32, layout.locations())
            .configure(|c| c.owners(layout.owners()))
            .build()
            .expect("cluster")
    }

    #[test]
    fn increments_and_decrements_fold() {
        let cluster = cluster(3);
        let layout = PnCounter::<causal_dsm::CausalHandle<ObjVal>>::layout(3);
        let counters: Vec<_> = (0..3)
            .map(|i| PnCounter::new(cluster.handle(i), layout))
            .collect();
        counters[0].add(5).unwrap();
        counters[1].add(3).unwrap();
        counters[2].add(-2).unwrap();
        for c in &counters {
            c.refresh();
            assert_eq!(c.value().unwrap(), 6);
        }
        counters[0].add(-6).unwrap();
        counters[0].refresh();
        assert_eq!(counters[0].value().unwrap(), 0);
    }

    #[test]
    fn typed_traces_satisfy_the_counter_oracle() {
        let cluster = cluster(2);
        let layout = PnCounter::<causal_dsm::CausalHandle<ObjVal>>::layout(2);
        let rec = ObjRecorder::new(2);
        let counters: Vec<_> = (0..2)
            .map(|i| PnCounter::new(cluster.handle(i), layout).with_recorder(rec.clone()))
            .collect();
        counters[0].add(4).unwrap();
        counters[1].add(-1).unwrap();
        for c in &counters {
            c.refresh();
            let _ = c.value().unwrap();
        }
        let oracle = ObjectOracle::new(Family::Counter, layout);
        let report = check_object(&rec.processes(), &oracle);
        assert!(report.is_correct(), "{report}");
        // Two adds, two refreshes, two values.
        assert_eq!(report.ops_checked, 6);
    }
}
