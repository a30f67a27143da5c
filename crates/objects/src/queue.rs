//! The FIFO append-queue (pub/sub stream): per-producer FIFO delivery
//! from causal reads alone.
//!
//! Each producer appends items left-to-right into its own row; consumers
//! keep a **local cursor per producer row** and poll the cell under each
//! cursor, advancing past it once an item becomes visible. Because writes
//! to a row are causally ordered (same writer, ascending columns) and
//! causal memory never shows a write without its causal past, a consumer
//! can never observe item `k+1`'s cell filled while item `k`'s cell is
//! still a hole that it would skip: per-producer delivery is gap-free and
//! in push order. Pops are **read-only** — every consumer independently
//! consumes the whole stream, so the queue is a durable topic, not a
//! work-stealing queue.

use parking_lot::Mutex;

use memcore::{MemoryError, NodeId, SharedMemory};

use crate::layout::GridLayout;
use crate::ops::{ObjOp, ObjRecorder, ObjRet};
use crate::trace::Trace;
use crate::value::ObjVal;

/// One process's handle on the shared append-queue.
#[derive(Debug)]
pub struct FifoQueue<M> {
    mem: M,
    layout: GridLayout,
    row: usize,
    heads: Mutex<Vec<usize>>,
    rec: Option<ObjRecorder>,
}

impl<M: SharedMemory<ObjVal>> FifoQueue<M> {
    /// The grid a queue for `nodes` producers with `depth` items per
    /// producer occupies.
    #[must_use]
    pub fn layout(nodes: usize, depth: usize) -> GridLayout {
        GridLayout::new(nodes, depth)
    }

    /// Wraps `mem` (whose node index selects this producer's row).
    ///
    /// # Panics
    ///
    /// Panics if the node index exceeds the layout's rows.
    #[must_use]
    pub fn new(mem: M, layout: GridLayout) -> Self {
        let row = mem.node().index();
        assert!(row < layout.rows(), "node outside queue layout");
        FifoQueue {
            mem,
            layout,
            row,
            heads: Mutex::new(vec![0; layout.rows()]),
            rec: None,
        }
    }

    /// Records every operation's typed trace into `rec`.
    #[must_use]
    pub fn with_recorder(mut self, rec: ObjRecorder) -> Self {
        self.rec = Some(rec);
        self
    }

    /// Appends `item` after this producer's previous appends. Returns
    /// `false` (without writing) when the row is full.
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn push(&self, item: i64) -> Result<bool, MemoryError> {
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
            ObjOp::QPush(item),
            ObjRet::Bool(done),
        );
        Ok(done)
    }

    /// Consumes the next visible item: polls each producer row at this
    /// consumer's cursor and takes the first filled cell, advancing that
    /// cursor. Returns `None` when every cursor sits on a hole (or past
    /// the end of its row).
    ///
    /// # Errors
    ///
    /// Propagates memory errors.
    pub fn pop(&self) -> Result<Option<i64>, MemoryError> {
        let mut tr = Trace::new(self.rec.is_some());
        let mut heads = self.heads.lock();
        let mut popped = None;
        for (producer, head) in heads.iter_mut().enumerate() {
            if *head >= self.layout.cols() {
                continue;
            }
            let loc = self.layout.slot(producer, *head);
            let (v, _) = tr.read(&self.mem, loc)?;
            if let ObjVal::Item(item) = v {
                *head += 1;
                popped = Some(item);
                break;
            }
        }
        drop(heads);
        tr.emit(
            self.rec.as_ref(),
            self.node(),
            ObjOp::QPop,
            ObjRet::Opt(popped),
        );
        Ok(popped)
    }

    /// Discards every cached (non-owned) cell, so the next poll fetches
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
    use causal_dsm::CausalCluster;
    use causal_spec::check_object;

    use crate::oracle::{Family, ObjectOracle};

    fn cluster(layout: GridLayout) -> CausalCluster<ObjVal> {
        CausalCluster::<ObjVal>::builder(layout.rows() as u32, layout.locations())
            .configure(|c| c.owners(layout.owners()))
            .build()
            .expect("cluster")
    }

    #[test]
    fn consumer_sees_each_producer_in_push_order() {
        let layout = FifoQueue::<causal_dsm::CausalHandle<ObjVal>>::layout(2, 4);
        let cluster = cluster(layout);
        let producer = FifoQueue::new(cluster.handle(0), layout);
        let consumer = FifoQueue::new(cluster.handle(1), layout);
        for item in [10, 11, 12] {
            assert!(producer.push(item).unwrap());
        }
        consumer.refresh();
        let mut seen = Vec::new();
        while let Some(item) = consumer.pop().unwrap() {
            seen.push(item);
        }
        assert_eq!(seen, vec![10, 11, 12]);
        assert_eq!(consumer.pop().unwrap(), None);
    }

    #[test]
    fn full_row_rejects_further_pushes() {
        let layout = FifoQueue::<causal_dsm::CausalHandle<ObjVal>>::layout(1, 2);
        let cluster = cluster(layout);
        let q = FifoQueue::new(cluster.handle(0), layout);
        assert!(q.push(1).unwrap());
        assert!(q.push(2).unwrap());
        assert!(!q.push(3).unwrap());
    }

    #[test]
    fn typed_traces_satisfy_the_queue_oracle() {
        let layout = FifoQueue::<causal_dsm::CausalHandle<ObjVal>>::layout(2, 3);
        let cluster = cluster(layout);
        let rec = ObjRecorder::new(2);
        let producer = FifoQueue::new(cluster.handle(0), layout).with_recorder(rec.clone());
        let consumer = FifoQueue::new(cluster.handle(1), layout).with_recorder(rec.clone());
        for item in [5, 6] {
            assert!(producer.push(item).unwrap());
        }
        consumer.refresh();
        assert_eq!(consumer.pop().unwrap(), Some(5));
        assert_eq!(consumer.pop().unwrap(), Some(6));
        assert_eq!(consumer.pop().unwrap(), None);
        let oracle = ObjectOracle::new(Family::Queue, layout);
        let report = check_object(&rec.processes(), &oracle);
        assert!(report.is_correct(), "{report}");
    }
}
