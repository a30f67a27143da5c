//! Message envelopes and the tagging trait used for instrumentation.

use std::fmt;

use memcore::NodeId;

/// Classifies protocol messages for the statistics counters.
///
/// The paper's evaluation is a message-counting argument, so every payload
/// type names its kind (`"READ"`, `"R_REPLY"`, `"WRITE"`, `"W_REPLY"`,
/// `"INVAL"`, …) and the transports count sends per (node, kind).
pub trait Tagged {
    /// A short static name for this message's kind.
    fn kind(&self) -> &'static str;

    /// Encoded size in bytes, if the payload supports wire encoding.
    ///
    /// Transports add this to the per-node byte counters when present;
    /// returning `None` (the default) skips byte accounting.
    fn wire_size(&self) -> Option<usize> {
        None
    }

    /// Causal-metadata bytes this message carries on the wire: the encoded
    /// size of its vector timestamps (recursively through batches and
    /// envelopes), excluding values, ids and headers. `0` (the default) for
    /// payloads without timestamps.
    ///
    /// Transports accumulate this into a dedicated counter so the scale
    /// benches can report `metadata_bytes_per_op` — the quantity the
    /// partial-replication layer exists to bound.
    fn metadata_size(&self) -> usize {
        0
    }

    /// `true` iff this payload is a batch envelope carrying several
    /// logical messages. `false` (the default) for ordinary payloads.
    ///
    /// Transports use this with
    /// [`for_each_batch_part`](Tagged::for_each_batch_part) to keep the
    /// *logical* per-kind counters batching-invariant: a batch records
    /// each constituent under its own kind and counts as a single send
    /// only in the physical-envelope counters (under
    /// [`memcore::kinds::BATCH`]). Wrapper payloads (e.g. a session layer)
    /// should forward the inner payload's answer.
    fn is_batch(&self) -> bool {
        false
    }

    /// Calls `visit(kind, wire_size)` for every logical message a batch
    /// envelope carries, in order; does nothing (the default) for
    /// ordinary payloads. Runs on every send, so implementations walk
    /// their parts in place rather than collecting them.
    fn for_each_batch_part(&self, _visit: &mut dyn FnMut(&'static str, Option<usize>)) {}
}

/// A message in flight: payload plus source and destination.
///
/// # Examples
///
/// ```
/// use memcore::NodeId;
/// use simnet::Envelope;
///
/// let env = Envelope::new(NodeId::new(0), NodeId::new(1), "ping");
/// assert_eq!(env.src, NodeId::new(0));
/// assert_eq!(env.payload, "ping");
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Sending node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// The protocol message.
    pub payload: M,
}

impl<M> Envelope<M> {
    /// Wraps `payload` for transmission from `src` to `dst`.
    pub fn new(src: NodeId, dst: NodeId, payload: M) -> Self {
        Envelope { src, dst, payload }
    }
}

impl<M: fmt::Debug> fmt::Debug for Envelope<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}→{}: {:?}", self.src, self.dst, self.payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_debug_shows_route() {
        let env = Envelope::new(NodeId::new(0), NodeId::new(2), 7u32);
        assert_eq!(format!("{env:?}"), "P0→P2: 7");
    }

    #[test]
    fn default_wire_size_is_none() {
        struct T;
        impl Tagged for T {
            fn kind(&self) -> &'static str {
                "T"
            }
        }
        assert_eq!(T.wire_size(), None);
        assert_eq!(T.kind(), "T");
    }
}
