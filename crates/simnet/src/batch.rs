//! Sender-side transport batching: accumulate messages bound for one
//! destination and flush them as a single physical envelope.
//!
//! The batcher is policy only — it decides *when* a buffered run is ready
//! (size, count, or explicit flush) and hands the run back; the protocol
//! layer owns the actual envelope type (e.g. `Msg::Batch` in `causal-dsm`)
//! because only it can name a batch on the wire. Logical per-kind counters
//! never see the envelope: [`crate::Tagged::for_each_batch_part`] lets
//! transports unbundle it for accounting.

use crate::envelope::Tagged;

/// When a [`Batcher`] considers a buffered run full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Flush once this many messages are buffered.
    pub max_msgs: usize,
    /// Flush once the buffered encoded sizes reach this many bytes
    /// (payloads without a wire size count zero toward it).
    pub max_bytes: usize,
}

impl Default for BatchPolicy {
    /// Eight messages or 4 KiB, whichever fills first.
    fn default() -> Self {
        BatchPolicy {
            max_msgs: 8,
            max_bytes: 4096,
        }
    }
}

impl BatchPolicy {
    /// A count-only policy (no byte bound).
    #[must_use]
    pub fn by_count(max_msgs: usize) -> Self {
        BatchPolicy {
            max_msgs,
            max_bytes: usize::MAX,
        }
    }
}

/// Accumulates messages for one destination until the policy says flush.
///
/// # Examples
///
/// ```
/// use simnet::{BatchPolicy, Batcher, Tagged};
///
/// #[derive(Debug, PartialEq)]
/// struct Ping;
/// impl Tagged for Ping {
///     fn kind(&self) -> &'static str { "PING" }
/// }
///
/// let mut batcher = Batcher::new(BatchPolicy::by_count(2));
/// assert!(batcher.push(Ping).is_none());
/// let run = batcher.push(Ping).expect("second push fills the batch");
/// assert_eq!(run.len(), 2);
/// assert!(batcher.is_empty());
/// ```
#[derive(Debug)]
pub struct Batcher<M> {
    policy: BatchPolicy,
    buf: Vec<M>,
    buffered_bytes: usize,
}

impl<M: Tagged> Batcher<M> {
    /// An empty batcher under `policy`.
    #[must_use]
    pub fn new(policy: BatchPolicy) -> Self {
        Batcher {
            policy,
            buf: Vec::new(),
            buffered_bytes: 0,
        }
    }

    /// Buffers `msg`; returns the full run when the policy's count or byte
    /// threshold is reached.
    pub fn push(&mut self, msg: M) -> Option<Vec<M>> {
        self.buffered_bytes += msg.wire_size().unwrap_or(0);
        self.buf.push(msg);
        (self.buf.len() >= self.policy.max_msgs.max(1)
            || self.buffered_bytes >= self.policy.max_bytes)
            .then(|| self.take())
    }

    /// Explicit flush: returns everything buffered (possibly empty).
    pub fn take(&mut self) -> Vec<M> {
        self.buffered_bytes = 0;
        std::mem::take(&mut self.buf)
    }

    /// Number of buffered messages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing is buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Sized(usize);
    impl Tagged for Sized {
        fn kind(&self) -> &'static str {
            "S"
        }
        fn wire_size(&self) -> Option<usize> {
            Some(self.0)
        }
    }

    #[test]
    fn count_threshold_flushes() {
        let mut b = Batcher::new(BatchPolicy::by_count(3));
        assert!(b.push(Sized(1)).is_none());
        assert!(b.push(Sized(1)).is_none());
        assert_eq!(b.len(), 2);
        let run = b.push(Sized(1)).unwrap();
        assert_eq!(run.len(), 3);
        assert!(b.is_empty());
    }

    #[test]
    fn byte_threshold_flushes() {
        let mut b = Batcher::new(BatchPolicy {
            max_msgs: 100,
            max_bytes: 10,
        });
        assert!(b.push(Sized(4)).is_none());
        let run = b.push(Sized(6)).unwrap();
        assert_eq!(run.len(), 2);
    }

    #[test]
    fn explicit_flush_returns_partial_runs() {
        let mut b = Batcher::new(BatchPolicy::default());
        assert!(b.push(Sized(1)).is_none());
        assert_eq!(b.take().len(), 1);
        assert!(b.take().is_empty());
    }

    #[test]
    fn zero_count_policy_degenerates_to_immediate_flush() {
        let mut b = Batcher::new(BatchPolicy::by_count(0));
        assert_eq!(b.push(Sized(1)).unwrap().len(), 1);
    }
}
