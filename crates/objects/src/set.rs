//! The grow/observed-remove set — §4.2's distributed dictionary with a
//! typed face.
//!
//! `add` appends into the caller's own row (single-writer, conflict-free
//! at the register level); `remove` frees the *first observed* copy of
//! the item anywhere in the grid, so a remove only affects copies the
//! remover has seen (observed-remove semantics). The one genuine
//! write/write conflict — a foreign remove racing the owner's re-insert
//! of the same slot — is resolved by the engine's owner-favored write
//! policy, exactly as the paper prescribes.

use memcore::{MemoryError, NodeId, SharedMemory};

use crate::layout::GridLayout;
use crate::ops::{ObjOp, ObjRecorder, ObjRet};
use crate::trace::Trace;
use crate::value::ObjVal;

/// One process's handle on the shared observed-remove set.
#[derive(Debug)]
pub struct CausalSet<M> {
    mem: M,
    layout: GridLayout,
    row: usize,
    rec: Option<ObjRecorder>,
}

impl<M: SharedMemory<ObjVal>> CausalSet<M> {
    /// The grid a set for `nodes` processes with `slots` items per
    /// process occupies.
    #[must_use]
    pub fn layout(nodes: usize, slots: usize) -> GridLayout {
        GridLayout::new(nodes, slots)
    }

    /// Wraps `mem` (whose node index selects this process's row).
    ///
    /// # Panics
    ///
    /// Panics if the node index exceeds the layout's rows.
    #[must_use]
    pub fn new(mem: M, layout: GridLayout) -> Self {
        let row = mem.node().index();
        assert!(row < layout.rows(), "node outside set layout");
        CausalSet {
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

    /// Adds `item` into the first free slot of this process's own row.
    /// Returns `false` (without writing) when the row is full.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn add(&self, item: i64) -> Result<bool, MemoryError> {
        let mut tr = Trace::new(self.rec.is_some());
        let mut done = false;
        for col in 0..self.layout.cols() {
            let loc = self.layout.slot(self.row, col);
            let (v, _) = tr.read(&self.mem, loc)?;
            if v.is_free() {
                tr.write(&self.mem, loc, ObjVal::Item(item))?;
                done = true;
                break;
            }
        }
        tr.emit(
            self.rec.as_ref(),
            self.node(),
            ObjOp::SetAdd(item),
            ObjRet::Bool(done),
        );
        Ok(done)
    }

    /// Frees the first copy of `item` this view observes (row-major
    /// scan). Returns `false` when no copy is visible.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn remove(&self, item: i64) -> Result<bool, MemoryError> {
        let mut tr = Trace::new(self.rec.is_some());
        let mut done = false;
        'grid: for row in 0..self.layout.rows() {
            for col in 0..self.layout.cols() {
                let loc = self.layout.slot(row, col);
                let (v, _) = tr.read(&self.mem, loc)?;
                if v == ObjVal::Item(item) {
                    tr.write(&self.mem, loc, ObjVal::Free)?;
                    done = true;
                    break 'grid;
                }
            }
        }
        tr.emit(
            self.rec.as_ref(),
            self.node(),
            ObjOp::SetRemove(item),
            ObjRet::Bool(done),
        );
        Ok(done)
    }

    /// Whether this view observes a copy of `item`.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn contains(&self, item: i64) -> Result<bool, MemoryError> {
        let mut tr = Trace::new(self.rec.is_some());
        let mut found = false;
        'grid: for row in 0..self.layout.rows() {
            for col in 0..self.layout.cols() {
                let (v, _) = tr.read(&self.mem, self.layout.slot(row, col))?;
                if v == ObjVal::Item(item) {
                    found = true;
                    break 'grid;
                }
            }
        }
        tr.emit(
            self.rec.as_ref(),
            self.node(),
            ObjOp::SetContains(item),
            ObjRet::Bool(found),
        );
        Ok(found)
    }

    /// Every item in this process's view, row-major.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn items(&self) -> Result<Vec<i64>, MemoryError> {
        let mut out = Vec::new();
        for flat in 0..self.layout.locations() as usize {
            if let ObjVal::Item(item) = self.mem.read(self.layout.slot_flat(flat))? {
                out.push(item);
            }
        }
        Ok(out)
    }

    /// Discards every cached (non-owned) slot, so the next scan fetches
    /// fresh copies.
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
    use causal_dsm::{CausalCluster, WritePolicy};
    use causal_spec::check_object;

    use crate::oracle::{Family, ObjectOracle};

    fn cluster(layout: GridLayout) -> CausalCluster<ObjVal> {
        CausalCluster::<ObjVal>::builder(layout.rows() as u32, layout.locations())
            .configure(|c| c.owners(layout.owners()).policy(WritePolicy::OwnerFavored))
            .build()
            .expect("cluster")
    }

    #[test]
    fn add_contains_remove_round_trip() {
        let layout = CausalSet::<causal_dsm::CausalHandle<ObjVal>>::layout(3, 4);
        let cluster = cluster(layout);
        let sets: Vec<_> = (0..3)
            .map(|i| CausalSet::new(cluster.handle(i), layout))
            .collect();
        assert!(sets[0].add(7).unwrap());
        assert!(sets[1].add(8).unwrap());
        for s in &sets {
            s.refresh();
            assert!(s.contains(7).unwrap());
            assert!(s.contains(8).unwrap());
        }
        assert!(sets[2].remove(7).unwrap());
        sets[2].refresh();
        assert!(!sets[2].contains(7).unwrap());
    }

    #[test]
    fn full_row_rejects_further_adds() {
        let layout = CausalSet::<causal_dsm::CausalHandle<ObjVal>>::layout(2, 2);
        let cluster = cluster(layout);
        let set = CausalSet::new(cluster.handle(0), layout);
        assert!(set.add(1).unwrap());
        assert!(set.add(2).unwrap());
        assert!(!set.add(3).unwrap());
        assert_eq!(set.items().unwrap(), vec![1, 2]);
    }

    #[test]
    fn typed_traces_satisfy_the_set_oracle() {
        let layout = CausalSet::<causal_dsm::CausalHandle<ObjVal>>::layout(2, 3);
        let cluster = cluster(layout);
        let rec = ObjRecorder::new(2);
        let sets: Vec<_> = (0..2)
            .map(|i| CausalSet::new(cluster.handle(i), layout).with_recorder(rec.clone()))
            .collect();
        assert!(sets[0].add(5).unwrap());
        assert!(sets[1].add(6).unwrap());
        for s in &sets {
            s.refresh();
            let _ = s.contains(5).unwrap();
        }
        assert!(sets[1].remove(5).unwrap());
        sets[1].refresh();
        assert!(!sets[1].contains(5).unwrap());
        let oracle = ObjectOracle::new(Family::Set, layout);
        let report = check_object(&rec.processes(), &oracle);
        assert!(report.is_correct(), "{report}");
    }
}
