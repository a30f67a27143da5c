//! The map/dictionary: key→value bindings with policy-resolved reads.
//!
//! Each process binds keys by writing `Entry{key, val}` cells into its
//! own row (updating its own existing binding in place when it has one).
//! Different processes may therefore hold **concurrent bindings** for the
//! same key in different rows; `get` collects all of them as
//! [`Candidate`]s and lets the map's [`MergePolicy`] pick the reported
//! value — the read-side generalization of §4.2's owner-favored
//! resolution.

use std::sync::Arc;

use memcore::{MemoryError, NodeId, SharedMemory, WriteId};

use crate::layout::GridLayout;
use crate::ops::{ObjOp, ObjRecorder, ObjRet};
use crate::policy::{Candidate, MergePolicy};
use crate::trace::Trace;
use crate::value::ObjVal;

/// One process's handle on the shared map.
pub struct CausalMap<M> {
    mem: M,
    layout: GridLayout,
    row: usize,
    policy: Arc<dyn MergePolicy>,
    rec: Option<ObjRecorder>,
}

impl<M> std::fmt::Debug for CausalMap<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CausalMap")
            .field("layout", &self.layout)
            .field("row", &self.row)
            .field("policy", &self.policy.name())
            .finish_non_exhaustive()
    }
}

impl<M: SharedMemory<ObjVal>> CausalMap<M> {
    /// The grid a map for `nodes` processes with `slots` bindings per
    /// process occupies.
    #[must_use]
    pub fn layout(nodes: usize, slots: usize) -> GridLayout {
        GridLayout::new(nodes, slots)
    }

    /// Wraps `mem`, resolving concurrent bindings with `policy`.
    ///
    /// # Panics
    ///
    /// Panics if the node index exceeds the layout's rows.
    #[must_use]
    pub fn new(mem: M, layout: GridLayout, policy: impl MergePolicy) -> Self {
        let row = mem.node().index();
        assert!(row < layout.rows(), "node outside map layout");
        CausalMap {
            mem,
            layout,
            row,
            policy: Arc::new(policy),
            rec: None,
        }
    }

    /// Records every operation's typed trace into `rec`.
    #[must_use]
    pub fn with_recorder(mut self, rec: ObjRecorder) -> Self {
        self.rec = Some(rec);
        self
    }

    /// The policy resolving this map's concurrent bindings.
    #[must_use]
    pub fn policy(&self) -> &dyn MergePolicy {
        &*self.policy
    }

    /// Binds `key → val` in this process's own row, updating this
    /// process's existing binding in place when it has one, else taking
    /// the first free slot. Returns `false` when the row is full.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn put(&self, key: i64, val: i64) -> Result<bool, MemoryError> {
        let mut tr = Trace::new(self.rec.is_some());
        let mut target = None;
        let mut first_free = None;
        for col in 0..self.layout.cols() {
            let loc = self.layout.slot(self.row, col);
            let (v, _) = tr.read(&self.mem, loc)?;
            match v {
                ObjVal::Entry(k, _) if k == key => {
                    target = Some(loc);
                    break;
                }
                ObjVal::Free if first_free.is_none() => first_free = Some(loc),
                _ => {}
            }
        }
        let done = match target.or(first_free) {
            Some(loc) => {
                tr.write(&self.mem, loc, ObjVal::Entry(key, val))?;
                true
            }
            None => false,
        };
        tr.emit(
            self.rec.as_ref(),
            self.node(),
            ObjOp::MapPut(key, val),
            ObjRet::Bool(done),
        );
        Ok(done)
    }

    /// Looks `key` up in this process's view: collects every visible
    /// binding and resolves concurrent ones with the map's policy.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn get(&self, key: i64) -> Result<Option<i64>, MemoryError> {
        let mut tr = Trace::new(self.rec.is_some());
        let candidates = self.collect(&mut tr, key)?;
        let answer = if candidates.is_empty() {
            None
        } else {
            Some(self.policy.resolve(key, &candidates))
        };
        tr.emit(
            self.rec.as_ref(),
            self.node(),
            ObjOp::MapGet(key),
            ObjRet::Opt(answer),
        );
        Ok(answer)
    }

    /// Frees every binding of `key` this view observes (any row): reads
    /// the whole grid first, then writes `Free` into each match.
    /// Returns `false` when none is visible.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn remove(&self, key: i64) -> Result<bool, MemoryError> {
        let mut tr = Trace::new(self.rec.is_some());
        let mut matches = Vec::new();
        for flat in 0..self.layout.locations() as usize {
            let loc = self.layout.slot_flat(flat);
            let (v, _) = tr.read(&self.mem, loc)?;
            if matches!(v, ObjVal::Entry(k, _) if k == key) {
                matches.push(loc);
            }
        }
        for &loc in &matches {
            tr.write(&self.mem, loc, ObjVal::Free)?;
        }
        let done = !matches.is_empty();
        tr.emit(
            self.rec.as_ref(),
            self.node(),
            ObjOp::MapRemove(key),
            ObjRet::Bool(done),
        );
        Ok(done)
    }

    /// Every `(key, policy-resolved value)` pair in this process's view.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn entries(&self) -> Result<Vec<(i64, i64)>, MemoryError> {
        let mut keys = Vec::new();
        for flat in 0..self.layout.locations() as usize {
            if let ObjVal::Entry(key, _) = self.mem.read(self.layout.slot_flat(flat))? {
                if !keys.contains(&key) {
                    keys.push(key);
                }
            }
        }
        let mut out = Vec::with_capacity(keys.len());
        for key in keys {
            if let Some(val) = self.get(key)? {
                out.push((key, val));
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

    fn collect(&self, tr: &mut Trace, key: i64) -> Result<Vec<Candidate>, MemoryError> {
        let mut candidates = Vec::new();
        for flat in 0..self.layout.locations() as usize {
            let loc = self.layout.slot_flat(flat);
            let (v, wid) = tr.read(&self.mem, loc)?;
            if let ObjVal::Entry(k, val) = v {
                if k == key {
                    candidates.push(Candidate {
                        row: self.layout.coords(loc).0,
                        wid: wid.unwrap_or_else(|| WriteId::initial(loc)),
                        val,
                    });
                }
            }
        }
        Ok(candidates)
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
    use crate::policy::PolicyKind;

    fn cluster(layout: GridLayout) -> CausalCluster<ObjVal> {
        CausalCluster::<ObjVal>::builder(layout.rows() as u32, layout.locations())
            .configure(|c| c.owners(layout.owners()).policy(WritePolicy::OwnerFavored))
            .build()
            .expect("cluster")
    }

    #[test]
    fn put_get_remove_round_trip() {
        let layout = CausalMap::<causal_dsm::CausalHandle<ObjVal>>::layout(2, 3);
        let cluster = cluster(layout);
        let map = CausalMap::new(cluster.handle(0), layout, PolicyKind::LastWriter);
        assert!(map.put(10, 1).unwrap());
        assert!(map.put(10, 2).unwrap());
        assert_eq!(map.get(10).unwrap(), Some(2));
        // In-place update: the second put reused key 10's slot.
        assert!(map.put(11, 3).unwrap());
        assert_eq!(map.entries().unwrap(), vec![(10, 2), (11, 3)]);
        assert!(map.remove(10).unwrap());
        assert_eq!(map.get(10).unwrap(), None);
    }

    #[test]
    fn remove_reads_the_whole_grid_before_writing() {
        use memcore::{OpKind, Recorder};
        let layout = CausalMap::<causal_dsm::CausalHandle<ObjVal>>::layout(2, 2);
        let recorder: Recorder<ObjVal> = Recorder::new(2);
        let cluster = CausalCluster::<ObjVal>::builder(2, layout.locations())
            .configure(|c| c.owners(layout.owners()).policy(WritePolicy::OwnerFavored))
            .recorder(recorder.clone())
            .build()
            .expect("cluster");
        let maps: Vec<_> = (0..2)
            .map(|i| CausalMap::new(cluster.handle(i), layout, PolicyKind::LastWriter))
            .collect();
        assert!(maps[0].put(1, 10).unwrap());
        assert!(maps[1].put(1, 20).unwrap());
        maps[0].refresh();
        let before = recorder.processes()[0].len();
        assert!(maps[0].remove(1).unwrap());
        let kinds: Vec<OpKind> = recorder.processes()[0][before..]
            .iter()
            .map(|op| op.kind)
            .collect();
        let mut want = vec![OpKind::Read; layout.locations() as usize];
        want.extend([OpKind::Write; 2]);
        assert_eq!(kinds, want, "all reads, then one write per binding");
    }

    #[test]
    fn concurrent_bindings_resolve_by_policy() {
        let layout = CausalMap::<causal_dsm::CausalHandle<ObjVal>>::layout(2, 2);
        let cluster = cluster(layout);
        // Key 1's home row is 1 under owner-wins with 2 rows.
        let owner_wins = PolicyKind::OwnerWins { rows: 2 };
        let maps: Vec<_> = (0..2)
            .map(|i| CausalMap::new(cluster.handle(i), layout, owner_wins))
            .collect();
        assert!(maps[0].put(1, 100).unwrap());
        assert!(maps[1].put(1, 200).unwrap());
        for m in &maps {
            m.refresh();
            assert_eq!(m.get(1).unwrap(), Some(200), "home row binding wins");
        }
    }

    #[test]
    fn typed_traces_satisfy_the_map_oracle() {
        let layout = CausalMap::<causal_dsm::CausalHandle<ObjVal>>::layout(2, 2);
        let cluster = cluster(layout);
        let rec = ObjRecorder::new(2);
        let policy = PolicyKind::Commutative;
        let maps: Vec<_> = (0..2)
            .map(|i| CausalMap::new(cluster.handle(i), layout, policy).with_recorder(rec.clone()))
            .collect();
        assert!(maps[0].put(1, 10).unwrap());
        assert!(maps[1].put(1, 30).unwrap());
        for m in &maps {
            m.refresh();
            assert_eq!(m.get(1).unwrap(), Some(30), "commutative fold is max");
        }
        assert!(maps[0].remove(1).unwrap());
        assert_eq!(maps[0].get(1).unwrap(), None);
        let oracle = ObjectOracle::new(Family::Map, layout).with_policy(policy);
        let report = check_object(&rec.processes(), &oracle);
        assert!(report.is_correct(), "{report}");
    }
}
