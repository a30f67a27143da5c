//! The closed-loop client: one thread issuing its op stream through a
//! `CausalHandle`, timing each call from outside and checking each read.

use causal_dsm::CausalHandle;
use dsm_net::Payload;
use memcore::{MemoryError, SharedMemory};

use crate::hist::Hist;
use crate::pin;
use crate::trace::{self, Kind, Span};
use crate::workload::{Checker, Op, OpGen, Workload};

/// A client gives up after this many failed ops: a broken cluster fails
/// every op at once, and spinning on them would only delay the report.
const MAX_FAILURES: u64 = 1000;

/// The measured phase is cut into this many equal time slices, and every
/// metric is computed per slice. The box is a shared virtual machine: a
/// spinning thread here loses the processor for more than 2 µs about
/// 2800 times a second, in bursts that come and go over seconds. Such
/// interference only ever makes a slice slower, so a run reports what
/// its better slices reach (see `Measured` in `run.rs`), not their mean.
pub const SLICES: usize = 24;

/// When a client stops.
#[derive(Clone, Copy)]
pub enum Until {
    /// After this many ops (warm-up, oracle pass).
    Ops(u64),
    /// At `start + nanos` on the [`trace::now_ns`] clock.
    Deadline {
        /// Start of the measured phase, shared by all clients.
        start: u64,
        /// Length of the measured phase.
        nanos: u64,
    },
}

/// What one time slice of one client saw.
#[derive(Clone, Default)]
pub struct Slice {
    /// Ops completed in the slice.
    pub ops: u64,
    /// Durations of the timed read samples (`ops_per_sample` ops each).
    pub reads: Hist,
    /// Durations of the timed write samples.
    pub writes: Hist,
}

/// What one client did in one phase.
pub struct ClientReport {
    /// Ops attempted.
    pub ops: u64,
    /// Read ops attempted.
    pub reads: u64,
    /// Ops that returned an error or a value the checker rejects.
    pub failed: u64,
    /// The first failure, for the report.
    pub first_failure: Option<String>,
    /// From the phase's start to the end of the client's last op.
    pub elapsed_ns: u64,
    /// Per-slice results ([`SLICES`] for a deadline phase, one otherwise).
    pub slices: Vec<Slice>,
}

/// One client's state across phases.
pub struct Client {
    /// The node's operation handle.
    pub handle: CausalHandle<Payload>,
    /// The op stream.
    pub ops: OpGen,
    /// What reads may return.
    pub checker: Checker,
    /// The hosting node.
    pub me: u32,
    /// The workload, for its sampling and placement.
    pub workload: Workload,
    /// Record a [`Kind::Client`] span for every sample.
    pub traced: bool,
}

impl Client {
    fn execute(&mut self, op: Op) -> Result<(), String> {
        let broke = |e: MemoryError| format!("{op:?}: {e}");
        match op {
            Op::Read(loc) | Op::RefreshRead(loc) | Op::BarrierRead(loc) => {
                match op {
                    Op::RefreshRead(_) => self.handle.discard(loc),
                    Op::BarrierRead(_) => {
                        self.handle.flush().map_err(broke)?;
                        self.handle.discard(loc);
                    }
                    _ => {}
                }
                let value = self.handle.read_shared(loc).map_err(broke)?;
                self.checker.check_read(loc, &value)
            }
            Op::Write(loc) => {
                let (seq, value) = self.checker.next_value();
                self.handle.write(loc, value).map_err(broke)?;
                self.checker.acked(loc, seq);
                Ok(())
            }
            Op::PipelinedWrite(loc) => {
                let (seq, value) = self.checker.next_value();
                self.handle.write_pipelined(loc, value).map_err(broke)?;
                // Acknowledged by the flush of the run's barrier read,
                // which is the only read that follows.
                self.checker.acked(loc, seq);
                Ok(())
            }
        }
    }

    /// Issues ops until `until`, each only after the previous returned.
    pub fn run(&mut self, until: Until) -> ClientReport {
        let (slices, start, nanos) = match until {
            Until::Ops(_) => (1, trace::now_ns(), u64::MAX),
            Until::Deadline { start, nanos } => (SLICES, start, nanos),
        };
        let slice_ns = nanos / slices as u64;
        let mut report = ClientReport {
            ops: 0,
            reads: 0,
            failed: 0,
            first_failure: None,
            elapsed_ns: 0,
            slices: vec![Slice::default(); slices],
        };
        pin::enter(self.me, self.workload.processors());
        let ops_per_sample = self.workload.ops_per_sample();
        if self.traced {
            trace::prepare_thread();
        }
        // All clients of a phase begin together, at its shared start.
        while trace::now_ns() < start {
            std::hint::spin_loop();
        }
        let mut began = 0;
        loop {
            if let Until::Ops(n) = until {
                if report.ops == n {
                    break;
                }
            }
            let op = self.ops.next_op();
            if report.ops.is_multiple_of(ops_per_sample) {
                began = trace::now_ns();
            }
            let outcome = self.execute(op);
            report.ops += 1;
            report.reads += u64::from(op.is_read());
            if let Err(why) = outcome {
                report.failed += 1;
                report.first_failure.get_or_insert(why);
                if report.failed == MAX_FAILURES {
                    break;
                }
            }
            if !report.ops.is_multiple_of(ops_per_sample) {
                continue;
            }
            let ended = trace::now_ns();
            report.elapsed_ns = ended - start;
            // A sample belongs to the slice it completes in.
            let slice = (((ended - start) / slice_ns) as usize).min(slices - 1);
            let s = &mut report.slices[slice];
            s.ops += ops_per_sample;
            // The whole sample; readers of the histograms divide by the
            // ops in it, which keeps the fraction of a nanosecond.
            if op.is_read() {
                s.reads.record(ended - began);
            } else {
                s.writes.record(ended - began);
            }
            if self.traced {
                trace::record(Span {
                    kind: Kind::Client,
                    node: self.me as u8,
                    peer: self.me as u8,
                    start: began,
                    end: ended,
                    busy: 0,
                    op: u64::from(self.me) << 56 | report.ops,
                });
            }
            // A traced phase also ends when a span buffer has filled and
            // recording stopped: what follows would go unobserved.
            if ended - start >= nanos || (self.traced && !trace::recording()) {
                break;
            }
        }
        // Leave nothing in flight: every pipelined write is acknowledged
        // before the phase counts as over.
        if let Err(e) = self.handle.flush() {
            report.failed += 1;
            report
                .first_failure
                .get_or_insert(format!("final flush: {e}"));
        }
        report
    }
}
