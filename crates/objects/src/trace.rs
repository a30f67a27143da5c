//! Typed-op tracing for the threaded objects: every register access an
//! operation performs is captured — via the engines'
//! [`SharedMemory::read_tagged`]/[`SharedMemory::write_tagged`] hook —
//! and emitted as one [`crate::ObjTypedOp`] when the operation completes.
//!
//! Tracing is only as good as the engine's tagging: engines that do not
//! override the tagged accessors report no write tags, and untagged
//! accesses are omitted from the trace (the causal engine tags
//! everything, so traces over it are complete).

use causal_spec::Obs;
use memcore::{Location, MemoryError, NodeId, SharedMemory, WriteId};

use crate::layout::GridLayout;
use crate::ops::{ObjOp, ObjRecorder, ObjRet};
use crate::value::ObjVal;

/// Every object's `refresh`: discards each cell outside `row` (the ones
/// this process may cache), row-major, then records the [`ObjOp::Refresh`]
/// when tracing.
pub(crate) fn refresh<M: SharedMemory<ObjVal>>(
    mem: &M,
    layout: &GridLayout,
    row: usize,
    rec: Option<&ObjRecorder>,
) {
    for flat in 0..layout.locations() as usize {
        if flat / layout.cols() != row {
            mem.discard(layout.slot_flat(flat));
        }
    }
    Trace::new(rec.is_some()).emit(rec, NodeId::new(row as u32), ObjOp::Refresh, ObjRet::Unit);
}

/// Accumulates one operation's tagged register accesses.
#[derive(Debug, Default)]
pub(crate) struct Trace {
    on: bool,
    observed: Vec<Obs<ObjVal>>,
    wrote: Vec<Obs<ObjVal>>,
}

impl Trace {
    pub(crate) fn new(on: bool) -> Self {
        Trace {
            on,
            observed: Vec::new(),
            wrote: Vec::new(),
        }
    }

    /// Reads through the tagged hook, recording the observation (when
    /// tracing and the engine tags reads) and returning the value plus
    /// tag for callers that resolve by write order.
    pub(crate) fn read<M: SharedMemory<ObjVal>>(
        &mut self,
        mem: &M,
        loc: Location,
    ) -> Result<(ObjVal, Option<WriteId>), MemoryError> {
        let (value, wid) = mem.read_tagged(loc)?;
        if self.on {
            if let Some(wid) = wid {
                self.observed.push(Obs::new(loc, wid, value));
            }
        }
        Ok((value, wid))
    }

    /// Writes through the tagged hook, recording the issued write.
    pub(crate) fn write<M: SharedMemory<ObjVal>>(
        &mut self,
        mem: &M,
        loc: Location,
        value: ObjVal,
    ) -> Result<(), MemoryError> {
        let wid = mem.write_tagged(loc, value)?;
        if self.on {
            if let Some(wid) = wid {
                self.wrote.push(Obs::new(loc, wid, value));
            }
        }
        Ok(())
    }

    /// Emits the completed operation into `rec`, if recording.
    pub(crate) fn emit(self, rec: Option<&ObjRecorder>, node: NodeId, desc: ObjOp, ret: ObjRet) {
        if let (true, Some(rec)) = (self.on, rec) {
            rec.record(
                node,
                causal_spec::TypedOp {
                    desc,
                    returned: ret,
                    observed: self.observed,
                    wrote: self.wrote,
                },
            );
        }
    }
}
