//! The control protocol between `dsm-load` and `dsm-server`.
//!
//! A controller opens a [`ConnKind::Ctrl`](crate::framing::ConnKind)
//! connection to every server, sends one [`CtrlMsg::Run`], and collects a
//! [`CtrlMsg::Done`] carrying the node's recorded history — which the
//! controller merges across nodes and feeds to `causal-spec` as the
//! oracle. A final [`CtrlMsg::Shutdown`]/[`CtrlMsg::Bye`] exchange makes
//! clean exits observable: a server that answers `Bye` has torn its
//! cluster down.

use bytes::BytesMut;
use memcore::{Location, NodeId, OpRecord, WriteId};
use simnet::codec::{CodecError, Wire};

/// One recorded operation in wire form.
///
/// [`OpRecord`] lives in `memcore`, which does not know about the codec,
/// so the control protocol carries this mirror type (payloads are the
/// raw `Vec<u8>` values the load harness reads and writes).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireOp {
    /// `true` for a read record, `false` for a write.
    pub is_read: bool,
    /// The location acted on.
    pub loc: Location,
    /// The value written or returned.
    pub value: Vec<u8>,
    /// The write's own tag, or the tag a read reads from.
    pub write_id: WriteId,
}

impl WireOp {
    /// Converts from the recorder's type.
    #[must_use]
    pub fn from_record(op: &OpRecord<Vec<u8>>) -> Self {
        WireOp {
            is_read: op.is_read(),
            loc: op.loc,
            value: op.value.clone(),
            write_id: op.write_id,
        }
    }

    /// Converts back for the spec checker.
    #[must_use]
    pub fn into_record(self) -> OpRecord<Vec<u8>> {
        if self.is_read {
            OpRecord::read(self.loc, self.value, self.write_id)
        } else {
            OpRecord::write(self.loc, self.value, self.write_id)
        }
    }
}

impl Wire for WireOp {
    fn encode(&self, buf: &mut BytesMut) {
        self.is_read.encode(buf);
        self.loc.encode(buf);
        self.value.encode(buf);
        self.write_id.encode(buf);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(WireOp {
            is_read: bool::decode(buf)?,
            loc: Location::decode(buf)?,
            value: Vec::<u8>::decode(buf)?,
            write_id: WriteId::decode(buf)?,
        })
    }

    fn encoded_len(&self) -> usize {
        self.is_read.encoded_len()
            + self.loc.encoded_len()
            + self.value.encoded_len()
            + self.write_id.encoded_len()
    }
}

/// Control-plane messages (either direction is a single frame).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CtrlMsg {
    /// Controller → server: run your share of the mixed workload.
    Run {
        /// Seed of the cluster-wide script (same on every node).
        seed: u64,
        /// Operations per node.
        ops: u64,
        /// Percentage of operations that are reads (0–100).
        read_pct: u8,
    },
    /// Server → controller: workload finished; here is what I saw.
    Done {
        /// The reporting node.
        node: NodeId,
        /// Operations executed.
        ops: u64,
        /// Wall-clock spent executing them.
        elapsed_ns: u64,
        /// Protocol messages this node sent (owner-protocol kinds).
        protocol_msgs: u64,
        /// Overhead messages this node sent (heartbeats, acks, …).
        overhead_msgs: u64,
        /// The node's program-order operation log.
        history: Vec<WireOp>,
    },
    /// Controller → server: tear down and exit.
    Shutdown,
    /// Server → controller: teardown complete, exiting now.
    Bye,
}

simnet::wire_enum! {
    impl[] for CtrlMsg {
        0 => Run { seed, ops, read_pct },
        1 => Done { node, ops, elapsed_ns, protocol_msgs, overhead_msgs, history },
        2 => Shutdown,
        3 => Bye,
    }
}

#[cfg(test)]
mod tests {
    use simnet::codec::{deframe, frame};

    use super::*;

    fn round_trip(msg: &CtrlMsg) -> CtrlMsg {
        let framed = frame(msg);
        assert_eq!(framed.len(), 4 + msg.encoded_len());
        let mut cursor = &framed[..];
        let got: CtrlMsg = deframe(&mut cursor).unwrap();
        assert!(cursor.is_empty());
        got
    }

    #[test]
    fn ctrl_msgs_round_trip() {
        let history = vec![
            WireOp {
                is_read: false,
                loc: Location::new(3),
                value: vec![1, 2, 3],
                write_id: WriteId::new(NodeId::new(0), 7),
            },
            WireOp {
                is_read: true,
                loc: Location::new(3),
                value: vec![1, 2, 3],
                write_id: WriteId::new(NodeId::new(0), 7),
            },
        ];
        for msg in [
            CtrlMsg::Run {
                seed: 42,
                ops: 2048,
                read_pct: 70,
            },
            CtrlMsg::Done {
                node: NodeId::new(2),
                ops: 2048,
                elapsed_ns: 123_456,
                protocol_msgs: 99,
                overhead_msgs: 3,
                history: history.clone(),
            },
            CtrlMsg::Shutdown,
            CtrlMsg::Bye,
        ] {
            assert_eq!(round_trip(&msg), msg);
        }
    }

    #[test]
    fn wire_ops_convert_to_and_from_records() {
        let write = OpRecord::write(
            Location::new(5),
            vec![9u8; 4],
            WriteId::new(NodeId::new(1), 11),
        );
        let read = OpRecord::read(Location::new(5), vec![9u8; 4], write.write_id);
        for op in [write, read] {
            assert_eq!(WireOp::from_record(&op).into_record(), op);
        }
    }

    #[test]
    fn bad_discriminants_are_rejected() {
        assert!(matches!(
            CtrlMsg::decode(&mut &[9u8][..]),
            Err(CodecError::BadDiscriminant(9))
        ));
    }
}
