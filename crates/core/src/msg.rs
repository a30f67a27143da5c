//! Protocol messages — the four message types of Figure 4, at page
//! granularity.

use std::fmt;
use std::mem;
use std::sync::Arc;

use bytes::{BufMut, BytesMut};
use memcore::{Location, NodeId, OwnerEpoch, PageId, Value, WriteId};
use simnet::codec::{decode_clock_components, take, CodecError, Wire};
use simnet::Tagged;
use vclock::VectorClock;

/// One slot of a transferred page: a value and the unique tag of the write
/// that produced it.
///
/// Values ride in messages behind [`Arc`], so moving a page from the
/// owner's memory into a reply (and from a reply into the reader's cache)
/// shares the stored values instead of deep-copying them; the codec
/// ([`Wire`] for `Arc<T>`) encodes through the pointer, so the wire shape
/// is unchanged.
pub type SlotData<V> = (Arc<V>, WriteId);

/// The owner's verdict on a remote write (§4.2 resolution policies).
#[derive(Clone, Debug, PartialEq)]
pub enum WriteVerdict<V> {
    /// The write was installed at the owner.
    Applied,
    /// The write lost to a concurrent write by the owner
    /// ([`WritePolicy::OwnerFavored`](crate::WritePolicy::OwnerFavored));
    /// the surviving value is returned so the writer's cache converges.
    Rejected {
        /// The value that remains installed.
        value: Arc<V>,
        /// The tag of the surviving write.
        wid: WriteId,
    },
}

/// The bit distinguishing a sparse stamp's leading word from a dense
/// clock's length prefix (process counts stay far below 2^31).
const SPARSE_BIT: u32 = 1 << 31;

/// Most processes a sparse stamp may declare. The declared count sizes
/// the decoded clock whatever the stamp's own length, so it is bounded
/// here — far above any cluster this protocol is run on.
const MAX_SPARSE_PROCESSES: usize = 1 << 16;

/// A vector timestamp as it travels in a message, tagged with the wire
/// encoding it uses.
///
/// Dense (`u32` length + one `u64` per component) is Figure 4's historical
/// shape and the default — every existing construction site goes through
/// [`From<VectorClock>`], so configurations without interest scoping stay
/// byte-identical to the paper's protocol. Sparse writes only the nonzero
/// `(node, count)` pairs ([`VectorClock::nonzero`], rebuilt on decode by
/// [`VectorClock::from_sparse_entries`]); under interest scoping a node's
/// clock is nonzero only for the interest closure of the pages it
/// touched, so sparse stamps cost O(share graph) instead of O(n) on the
/// wire.
///
/// The two encodings are distinguished by the high bit of the leading
/// `u32` (`SPARSE_BIT`), carried per stamp, so a decoder reconstructs
/// exactly what was sent and mixed traffic stays unambiguous.
///
/// Equality compares the timestamp only: which encoding a stamp rode in
/// on is a transport detail, not protocol state.
#[derive(Clone, Debug)]
pub struct Stamp {
    vt: VectorClock,
    sparse: bool,
}

impl Stamp {
    /// Wraps `vt` with an explicit encoding choice.
    #[must_use]
    pub fn new(vt: VectorClock, sparse: bool) -> Self {
        Stamp { vt, sparse }
    }

    /// A dense stamp (the Figure-4 wire shape).
    #[must_use]
    pub fn dense(vt: VectorClock) -> Self {
        Stamp { vt, sparse: false }
    }

    /// A sparse stamp (nonzero pairs only).
    #[must_use]
    pub fn sparse(vt: VectorClock) -> Self {
        Stamp { vt, sparse: true }
    }

    /// The timestamp itself.
    #[must_use]
    pub fn clock(&self) -> &VectorClock {
        &self.vt
    }

    /// Unwraps into the timestamp.
    #[must_use]
    pub fn into_inner(self) -> VectorClock {
        self.vt
    }

    /// `true` if this stamp uses (or arrived in) the sparse encoding.
    #[must_use]
    pub fn is_sparse(&self) -> bool {
        self.sparse
    }
}

impl From<VectorClock> for Stamp {
    fn from(vt: VectorClock) -> Self {
        Stamp::dense(vt)
    }
}

impl std::ops::Deref for Stamp {
    type Target = VectorClock;
    fn deref(&self) -> &VectorClock {
        &self.vt
    }
}

impl PartialEq for Stamp {
    fn eq(&self, other: &Self) -> bool {
        self.vt == other.vt
    }
}

impl Eq for Stamp {}

impl PartialEq<VectorClock> for Stamp {
    fn eq(&self, other: &VectorClock) -> bool {
        self.vt == *other
    }
}

impl PartialEq<Stamp> for VectorClock {
    fn eq(&self, other: &Stamp) -> bool {
        *self == other.vt
    }
}

impl fmt::Display for Stamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.vt.fmt(f)
    }
}

impl Stamp {
    /// Encodes the nonzero `(node, count)` pairs: the sparse shape, kept
    /// out of line so the dense path stays small where it inlines.
    fn encode_sparse(&self, buf: &mut BytesMut) {
        ((self.vt.len() as u32) | SPARSE_BIT).encode(buf);
        (self.vt.nonzero_count() as u32).encode(buf);
        for (i, c) in self.vt.nonzero() {
            i.encode(buf);
            c.encode(buf);
        }
    }

    /// Decodes a sparse stamp's body after its leading word `head`.
    fn decode_sparse(head: u32, buf: &mut &[u8]) -> Result<Self, CodecError> {
        let n = (head & !SPARSE_BIT) as usize;
        let nnz = u32::decode(buf)? as usize;
        // Both counts are the sender's word: the pairs must all be present
        // before anything is sized from `nnz`, and a clock of `n` zeros is
        // only built for a plausible `n` — eight bytes must not be able to
        // ask for gigabytes.
        let pairs = take(buf, nnz.checked_mul(12).ok_or(CodecError::Truncated)?)?;
        if n > MAX_SPARSE_PROCESSES {
            return Err(CodecError::Truncated);
        }
        let pair = |p: &[u8]| {
            let (i, c) = p.split_at(4);
            (
                u32::from_be_bytes(i.try_into().expect("4 of 12 bytes")),
                u64::from_be_bytes(c.try_into().expect("8 of 12 bytes")),
            )
        };
        // A pair naming a process outside the declared count is
        // malformed; fail cleanly rather than panic.
        if pairs.chunks_exact(12).any(|p| pair(p).0 as usize >= n) {
            return Err(CodecError::Truncated);
        }
        let vt = VectorClock::from_sparse_entries(n, pairs.chunks_exact(12).map(pair));
        Ok(Stamp { vt, sparse: true })
    }
}

impl Wire for Stamp {
    #[inline]
    fn encode(&self, buf: &mut BytesMut) {
        if self.sparse {
            self.encode_sparse(buf);
        } else {
            self.vt.encode(buf);
        }
    }

    #[inline]
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let head = u32::decode(buf)?;
        if head & SPARSE_BIT != 0 {
            return Stamp::decode_sparse(head, buf);
        }
        Ok(Stamp {
            vt: decode_clock_components(head as usize, buf)?,
            sparse: false,
        })
    }

    #[inline]
    fn encoded_len(&self) -> usize {
        if self.sparse {
            8 + 12 * self.vt.nonzero_count()
        } else {
            self.vt.encoded_len()
        }
    }
}

/// A protocol message of the causal owner protocol.
///
/// `Read`/`ReadReply` and `Write`/`WriteReply` correspond one-to-one to the
/// paper's `[READ, x]`, `[R_REPLY, x, v, VT]`, `[WRITE, x, v, VT]` and
/// `[W_REPLY, x, v, VT]`; replies carry whole pages when the unit of
/// sharing is larger than one location. `Halt` is an engine-internal
/// shutdown sentinel and never appears in message counts attributed to the
/// protocol.
#[derive(Clone, Debug, PartialEq)]
pub enum Msg<V> {
    /// `[READ, x]` — request a current copy of a page from its owner.
    Read {
        /// The page being fetched.
        page: PageId,
    },
    /// `[R_REPLY, x, v, VT]` — the owner's copy of the page and its
    /// writestamp.
    ReadReply {
        /// The page transferred.
        page: PageId,
        /// The page's writestamp `VT'` at the owner.
        vt: Stamp,
        /// Per-location values and write tags.
        slots: Vec<SlotData<V>>,
    },
    /// `[WRITE, x, v, VT]` — ask the owner to certify a write.
    Write {
        /// The location written.
        loc: Location,
        /// The value written (shared, not copied, out of the writer).
        value: Arc<V>,
        /// The unique tag of this write.
        wid: WriteId,
        /// The writer's incremented timestamp (the write's origin stamp).
        vt: Stamp,
    },
    /// `[W_REPLY, x, v, VT]` — the owner's certification (or rejection).
    WriteReply {
        /// The location written.
        loc: Location,
        /// Echo of the certified write's unique tag (lets engines match
        /// replies to outstanding writes, needed for non-blocking writes).
        wid: WriteId,
        /// The owner's merged timestamp after servicing the write.
        vt: Stamp,
        /// Applied or rejected (owner-favored policy).
        verdict: WriteVerdict<V>,
    },
    /// Engine shutdown sentinel (not part of the paper's protocol).
    Halt,
    /// A transport envelope carrying several protocol messages (the
    /// batching enhancement; never sent unless
    /// [`batching`](crate::CausalConfig::batching) is on).
    ///
    /// Semantically transparent: receivers process the parts in order
    /// exactly as if each had arrived in its own envelope, and the logical
    /// per-kind message counters see only the parts
    /// ([`Tagged::for_each_batch_part`]). Only the physical-envelope counters — and
    /// the wire, which pays one envelope header instead of `k` — observe
    /// the batch itself.
    Batch(Vec<Msg<V>>),
    /// Failover envelope around a request or reply: the sender's view of
    /// the page's ownership epoch plus a per-node monotonic op id, used to
    /// validate requests against the current epoch and to discard stale
    /// replies after a retry.
    ///
    /// Only ever sent when the failover layer is enabled, so fault-free
    /// configurations keep Figure 4's wire traffic byte-identical.
    Stamped {
        /// The sender's ownership epoch for the page the inner message
        /// concerns (replies echo the request's epoch).
        epoch: OwnerEpoch,
        /// The sender's op id (replies echo the request's op id).
        op: u64,
        /// The Figure-4 message being stamped.
        inner: Box<Msg<V>>,
    },
    /// A failure-detector liveness probe (overhead, counted under
    /// [`memcore::kinds::HEARTBEAT`]).
    Heartbeat {
        /// Monotonic per-sender heartbeat sequence number.
        seq: u64,
    },
    /// A suspicion broadcast: the sender believes `suspect` has crashed and
    /// has migrated the listed pages to the next epoch. Teaches peers —
    /// including the suspect itself, once it recovers — the new epochs.
    Suspect {
        /// The node believed to have crashed.
        suspect: NodeId,
        /// The pages migrated away from the suspect, with their new epochs.
        epochs: Vec<(PageId, OwnerEpoch)>,
    },
    /// A stale-epoch rejection: the receiver is not the page's owner at the
    /// request's epoch. Carries the receiver's current epoch and the node
    /// serving the page at that epoch, so the requester can re-stamp and
    /// redirect its retry.
    Nack {
        /// The page the rejected request concerned.
        page: PageId,
        /// Echo of the rejected request's op id.
        op: u64,
        /// The receiver's current epoch for the page.
        epoch: OwnerEpoch,
        /// The owner of the page at that epoch.
        redirect: NodeId,
    },
    /// A hot-standby shadow copy: the owner ships the page's certified
    /// state to its deterministic successor after serving a write, so a
    /// promotion always starts from a causally-valid copy.
    Replicate {
        /// The shadowed page.
        page: PageId,
        /// The page's writestamp at the owner.
        vt: Stamp,
        /// Per-location values and write tags.
        slots: Vec<SlotData<V>>,
        /// Per-location origin stamps (the §4.2 concurrency evidence),
        /// parallel to `slots`.
        origins: Vec<VectorClock>,
    },
    /// An interest drop: the sender evicted its cached copy of `page`, so
    /// the owner may remove it from the page's interest set and stop
    /// shipping invalidations/replications there. Registration needs no
    /// message — owners learn interest from the first `READ`/`WRITE` they
    /// serve — so only the drop is wire traffic. Only ever sent when
    /// [`interest_scoping`](crate::CausalConfig::interest_scoping) is on,
    /// keeping default configurations byte-identical to Figure 4.
    Interest {
        /// The page the sender no longer caches.
        page: PageId,
    },
}

impl<V> Msg<V> {
    /// `true` for the request kinds serviced by owners. A stamped message
    /// classifies as its inner message does.
    pub fn is_request(&self) -> bool {
        match self {
            Msg::Read { .. } | Msg::Write { .. } => true,
            Msg::Stamped { inner, .. } => inner.is_request(),
            _ => false,
        }
    }

    /// `true` for the reply kinds consumed by a blocked operation. A
    /// stamped message classifies as its inner message does.
    pub fn is_reply(&self) -> bool {
        match self {
            Msg::ReadReply { .. } | Msg::WriteReply { .. } => true,
            Msg::Stamped { inner, .. } => inner.is_reply(),
            _ => false,
        }
    }
}

impl<V: Value> Tagged for Msg<V> {
    fn kind(&self) -> &'static str {
        match self {
            Msg::Read { .. } => "READ",
            Msg::ReadReply { .. } => "R_REPLY",
            Msg::Write { .. } => "WRITE",
            Msg::WriteReply { .. } => "W_REPLY",
            Msg::Halt => "HALT",
            Msg::Batch(_) => memcore::kinds::BATCH,
            // The stamp is an envelope: counting the inner kind keeps the
            // §4.1 protocol counts comparable with failover on.
            Msg::Stamped { inner, .. } => inner.kind(),
            Msg::Heartbeat { .. } => memcore::kinds::HEARTBEAT,
            Msg::Suspect { .. } => memcore::kinds::SUSPECT,
            Msg::Nack { .. } => memcore::kinds::NACK,
            Msg::Replicate { .. } => memcore::kinds::REPL,
            Msg::Interest { .. } => memcore::kinds::INTEREST,
        }
    }

    /// Approximate wire size: exact for headers, timestamps and tags;
    /// values are approximated by `size_of::<V>()` (a codec-exact size is
    /// available via [`Wire`] for encodable `V`).
    fn wire_size(&self) -> Option<usize> {
        let value_size = mem::size_of::<V>();
        Some(match self {
            Msg::Read { .. } => 1 + 4,
            Msg::ReadReply { vt, slots, .. } => {
                1 + 4 + vt.encoded_len() + 4 + slots.len() * (value_size + 12)
            }
            Msg::Write { vt, .. } => 1 + 4 + value_size + 12 + vt.encoded_len(),
            Msg::WriteReply { vt, verdict, .. } => {
                let verdict_size = match verdict {
                    WriteVerdict::Applied => 1,
                    WriteVerdict::Rejected { .. } => 1 + value_size + 12,
                };
                1 + 4 + 12 + vt.encoded_len() + verdict_size
            }
            Msg::Halt => 1,
            Msg::Batch(parts) => {
                1 + 4
                    + parts
                        .iter()
                        .map(|p| p.wire_size().unwrap_or(0))
                        .sum::<usize>()
            }
            Msg::Stamped { inner, .. } => 1 + 4 + 8 + inner.wire_size().unwrap_or(0),
            Msg::Heartbeat { .. } => 1 + 8,
            Msg::Suspect { epochs, .. } => 1 + 4 + 4 + epochs.len() * 8,
            Msg::Nack { .. } => 1 + 4 + 8 + 4 + 4,
            Msg::Replicate {
                vt, slots, origins, ..
            } => {
                1 + 4
                    + vt.encoded_len()
                    + 4
                    + slots.len() * (value_size + 12)
                    + 4
                    + origins.iter().map(VectorClock::encoded_len).sum::<usize>()
            }
            Msg::Interest { .. } => 1 + 4,
        })
    }

    /// Exact causal-metadata bytes: the wire size of every timestamp the
    /// message carries (honoring each stamp's dense/sparse encoding),
    /// recursively through batches and failover envelopes. This is the
    /// quantity the scale benches divide by operations.
    fn metadata_size(&self) -> usize {
        match self {
            Msg::ReadReply { vt, .. } | Msg::Write { vt, .. } | Msg::WriteReply { vt, .. } => {
                vt.encoded_len()
            }
            // Origin stamps are failover-only shadow state and always ride
            // dense; they are metadata all the same.
            Msg::Replicate { vt, origins, .. } => {
                vt.encoded_len() + origins.iter().map(VectorClock::encoded_len).sum::<usize>()
            }
            Msg::Batch(parts) => parts.iter().map(Tagged::metadata_size).sum(),
            Msg::Stamped { inner, .. } => inner.metadata_size(),
            _ => 0,
        }
    }

    fn is_batch(&self) -> bool {
        matches!(self, Msg::Batch(_))
    }

    fn for_each_batch_part(&self, visit: &mut dyn FnMut(&'static str, Option<usize>)) {
        if let Msg::Batch(parts) = self {
            for part in parts {
                visit(part.kind(), part.wire_size());
            }
        }
    }
}

impl<V: Wire> Wire for WriteVerdict<V> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            WriteVerdict::Applied => buf.put_u8(0),
            WriteVerdict::Rejected { value, wid } => {
                buf.put_u8(1);
                value.encode(buf);
                wid.encode(buf);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        match self {
            WriteVerdict::Applied => 1,
            WriteVerdict::Rejected { value, wid } => 1 + value.encoded_len() + wid.encoded_len(),
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        match u8::decode(buf)? {
            0 => Ok(WriteVerdict::Applied),
            1 => Ok(WriteVerdict::Rejected {
                value: Arc::new(V::decode(buf)?),
                wid: WriteId::decode(buf)?,
            }),
            d => Err(CodecError::BadDiscriminant(d)),
        }
    }
}

impl<V: Wire> Wire for Msg<V> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            Msg::Read { page } => {
                buf.put_u8(0);
                page.encode(buf);
            }
            Msg::ReadReply { page, vt, slots } => {
                buf.put_u8(1);
                page.encode(buf);
                vt.encode(buf);
                slots.encode(buf);
            }
            Msg::Write {
                loc,
                value,
                wid,
                vt,
            } => {
                buf.put_u8(2);
                loc.encode(buf);
                value.encode(buf);
                wid.encode(buf);
                vt.encode(buf);
            }
            Msg::WriteReply {
                loc,
                wid,
                vt,
                verdict,
            } => {
                buf.put_u8(3);
                loc.encode(buf);
                wid.encode(buf);
                vt.encode(buf);
                verdict.encode(buf);
            }
            Msg::Halt => buf.put_u8(4),
            Msg::Batch(parts) => {
                buf.put_u8(5);
                parts.encode(buf);
            }
            Msg::Stamped { epoch, op, inner } => {
                buf.put_u8(6);
                epoch.encode(buf);
                op.encode(buf);
                inner.as_ref().encode(buf);
            }
            Msg::Heartbeat { seq } => {
                buf.put_u8(7);
                seq.encode(buf);
            }
            Msg::Suspect { suspect, epochs } => {
                buf.put_u8(8);
                suspect.encode(buf);
                epochs.encode(buf);
            }
            Msg::Nack {
                page,
                op,
                epoch,
                redirect,
            } => {
                buf.put_u8(9);
                page.encode(buf);
                op.encode(buf);
                epoch.encode(buf);
                redirect.encode(buf);
            }
            Msg::Replicate {
                page,
                vt,
                slots,
                origins,
            } => {
                buf.put_u8(10);
                page.encode(buf);
                vt.encode(buf);
                slots.encode(buf);
                origins.encode(buf);
            }
            Msg::Interest { page } => {
                buf.put_u8(11);
                page.encode(buf);
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        match u8::decode(buf)? {
            0 => Ok(Msg::Read {
                page: PageId::decode(buf)?,
            }),
            1 => {
                let page = PageId::decode(buf)?;
                let vt = Stamp::decode(buf)?;
                let slots = Vec::decode(buf)?;
                Ok(Msg::ReadReply { page, vt, slots })
            }
            2 => Ok(Msg::Write {
                loc: Location::decode(buf)?,
                value: Arc::new(V::decode(buf)?),
                wid: WriteId::decode(buf)?,
                vt: Stamp::decode(buf)?,
            }),
            3 => Ok(Msg::WriteReply {
                loc: Location::decode(buf)?,
                wid: WriteId::decode(buf)?,
                vt: Stamp::decode(buf)?,
                verdict: WriteVerdict::decode(buf)?,
            }),
            4 => Ok(Msg::Halt),
            5 => Ok(Msg::Batch(Vec::decode(buf)?)),
            6 => Ok(Msg::Stamped {
                epoch: OwnerEpoch::decode(buf)?,
                op: u64::decode(buf)?,
                inner: Box::new(Msg::decode(buf)?),
            }),
            7 => Ok(Msg::Heartbeat {
                seq: u64::decode(buf)?,
            }),
            8 => Ok(Msg::Suspect {
                suspect: NodeId::decode(buf)?,
                epochs: Vec::decode(buf)?,
            }),
            9 => Ok(Msg::Nack {
                page: PageId::decode(buf)?,
                op: u64::decode(buf)?,
                epoch: OwnerEpoch::decode(buf)?,
                redirect: NodeId::decode(buf)?,
            }),
            10 => {
                let page = PageId::decode(buf)?;
                let vt = Stamp::decode(buf)?;
                let slots = Vec::decode(buf)?;
                Ok(Msg::Replicate {
                    page,
                    vt,
                    slots,
                    origins: Vec::decode(buf)?,
                })
            }
            11 => Ok(Msg::Interest {
                page: PageId::decode(buf)?,
            }),
            d => Err(CodecError::BadDiscriminant(d)),
        }
    }

    fn encoded_len(&self) -> usize {
        match self {
            Msg::Read { page } => 1 + page.encoded_len(),
            Msg::ReadReply { page, vt, slots } => {
                1 + page.encoded_len() + vt.encoded_len() + slots.encoded_len()
            }
            Msg::Write {
                loc,
                value,
                wid,
                vt,
            } => loc.encoded_len() + value.encoded_len() + wid.encoded_len() + vt.encoded_len() + 1,
            Msg::WriteReply {
                loc,
                wid,
                vt,
                verdict,
            } => {
                1 + loc.encoded_len() + wid.encoded_len() + vt.encoded_len() + verdict.encoded_len()
            }
            Msg::Halt => 1,
            Msg::Batch(parts) => 1 + parts.encoded_len(),
            Msg::Stamped { epoch, op, inner } => {
                1 + epoch.encoded_len() + op.encoded_len() + inner.encoded_len()
            }
            Msg::Heartbeat { seq } => 1 + seq.encoded_len(),
            Msg::Suspect { suspect, epochs } => 1 + suspect.encoded_len() + epochs.encoded_len(),
            Msg::Nack {
                page,
                op,
                epoch,
                redirect,
            } => {
                1 + page.encoded_len()
                    + op.encoded_len()
                    + epoch.encoded_len()
                    + redirect.encoded_len()
            }
            Msg::Replicate {
                page,
                vt,
                slots,
                origins,
            } => {
                1 + page.encoded_len()
                    + vt.encoded_len()
                    + slots.encoded_len()
                    + origins.encoded_len()
            }
            Msg::Interest { page } => 1 + page.encoded_len(),
        }
    }
}

impl<V: fmt::Display> fmt::Display for Msg<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Msg::Read { page } => write!(f, "[READ, {page}]"),
            Msg::ReadReply { page, vt, .. } => write!(f, "[R_REPLY, {page}, {vt}]"),
            Msg::Write { loc, value, vt, .. } => write!(f, "[WRITE, {loc}, {value}, {vt}]"),
            Msg::WriteReply { loc, vt, .. } => write!(f, "[W_REPLY, {loc}, {vt}]"),
            Msg::Halt => write!(f, "[HALT]"),
            Msg::Batch(parts) => {
                write!(f, "[BATCH")?;
                for part in parts {
                    write!(f, ", {part}")?;
                }
                write!(f, "]")
            }
            Msg::Stamped { epoch, op, inner } => write!(f, "[{epoch}#{op} {inner}]"),
            Msg::Heartbeat { seq } => write!(f, "[HEARTBEAT, {seq}]"),
            Msg::Suspect { suspect, epochs } => {
                write!(f, "[SUSPECT, {suspect}, {} pages]", epochs.len())
            }
            Msg::Nack {
                page,
                epoch,
                redirect,
                ..
            } => write!(f, "[NACK, {page}, {epoch} → {redirect}]"),
            Msg::Replicate { page, vt, .. } => write!(f, "[REPL, {page}, {vt}]"),
            Msg::Interest { page } => write!(f, "[INTEREST, {page}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memcore::{NodeId, Word};
    use proptest::prelude::*;

    fn vt(components: [u64; 2]) -> Stamp {
        Stamp::from(VectorClock::from(components))
    }

    fn sparse_vt(components: &[u64]) -> Stamp {
        Stamp::sparse(VectorClock::from(components.to_vec()))
    }

    #[test]
    fn kinds_match_paper_names() {
        let read: Msg<Word> = Msg::Read {
            page: PageId::new(0),
        };
        assert_eq!(read.kind(), "READ");
        assert!(read.is_request());
        assert!(!read.is_reply());

        let reply: Msg<Word> = Msg::ReadReply {
            page: PageId::new(0),
            vt: vt([0, 0]),
            slots: vec![],
        };
        assert_eq!(reply.kind(), "R_REPLY");
        assert!(reply.is_reply());

        let write: Msg<Word> = Msg::Write {
            loc: Location::new(0),
            value: Arc::new(Word::Int(1)),
            wid: WriteId::new(NodeId::new(0), 0),
            vt: vt([1, 0]),
        };
        assert_eq!(write.kind(), "WRITE");

        let wreply: Msg<Word> = Msg::WriteReply {
            loc: Location::new(0),
            wid: WriteId::new(NodeId::new(0), 0),
            vt: vt([1, 0]),
            verdict: WriteVerdict::Applied,
        };
        assert_eq!(wreply.kind(), "W_REPLY");
        assert_eq!(Msg::<Word>::Halt.kind(), "HALT");
    }

    #[test]
    fn wire_sizes_grow_with_clock_length() {
        let small: Msg<Word> = Msg::Write {
            loc: Location::new(0),
            value: Arc::new(Word::Int(1)),
            wid: WriteId::new(NodeId::new(0), 0),
            vt: VectorClock::new(2).into(),
        };
        let large: Msg<Word> = Msg::Write {
            loc: Location::new(0),
            value: Arc::new(Word::Int(1)),
            wid: WriteId::new(NodeId::new(0), 0),
            vt: VectorClock::new(16).into(),
        };
        assert!(large.wire_size().unwrap() > small.wire_size().unwrap());
    }

    fn fixture_messages() -> Vec<Msg<Word>> {
        vec![
            Msg::Read {
                page: PageId::new(3),
            },
            Msg::ReadReply {
                page: PageId::new(3),
                vt: vt([4, 2]),
                slots: vec![
                    (Arc::new(Word::Int(7)), WriteId::new(NodeId::new(1), 2)),
                    (Arc::new(Word::Zero), WriteId::initial(Location::new(7))),
                ],
            },
            Msg::Write {
                loc: Location::new(6),
                value: Arc::new(Word::Bool(true)),
                wid: WriteId::new(NodeId::new(0), 9),
                vt: vt([5, 0]),
            },
            Msg::WriteReply {
                loc: Location::new(6),
                wid: WriteId::new(NodeId::new(0), 9),
                vt: vt([5, 3]),
                verdict: WriteVerdict::Applied,
            },
            Msg::WriteReply {
                loc: Location::new(6),
                wid: WriteId::new(NodeId::new(0), 10),
                vt: vt([5, 3]),
                verdict: WriteVerdict::Rejected {
                    value: Arc::new(Word::Int(1)),
                    wid: WriteId::new(NodeId::new(1), 1),
                },
            },
            Msg::Halt,
            Msg::Stamped {
                epoch: memcore::OwnerEpoch::new(2),
                op: 41,
                inner: Box::new(Msg::Read {
                    page: PageId::new(3),
                }),
            },
            Msg::Heartbeat { seq: 17 },
            Msg::Suspect {
                suspect: NodeId::new(1),
                epochs: vec![(PageId::new(1), memcore::OwnerEpoch::new(1))],
            },
            Msg::Nack {
                page: PageId::new(3),
                op: 41,
                epoch: memcore::OwnerEpoch::new(3),
                redirect: NodeId::new(0),
            },
            Msg::Replicate {
                page: PageId::new(3),
                vt: vt([4, 2]),
                slots: vec![(Arc::new(Word::Int(7)), WriteId::new(NodeId::new(1), 2))],
                origins: vec![vt([4, 0]).into_inner()],
            },
            Msg::Interest {
                page: PageId::new(5),
            },
            // Sparse stamps: a mostly-zero clock and an all-zero clock.
            Msg::ReadReply {
                page: PageId::new(9),
                vt: sparse_vt(&[0, 0, 3, 0, 0, 0, 1, 0]),
                slots: vec![(Arc::new(Word::Int(2)), WriteId::new(NodeId::new(2), 1))],
            },
            Msg::WriteReply {
                loc: Location::new(1),
                wid: WriteId::new(NodeId::new(2), 5),
                vt: sparse_vt(&[0, 0, 0, 0]),
                verdict: WriteVerdict::Applied,
            },
            Msg::Batch(vec![
                Msg::Write {
                    loc: Location::new(6),
                    value: Arc::new(Word::Int(3)),
                    wid: WriteId::new(NodeId::new(0), 11),
                    vt: vt([6, 0]),
                },
                Msg::Write {
                    loc: Location::new(8),
                    value: Arc::new(Word::Float(1.5)),
                    wid: WriteId::new(NodeId::new(0), 12),
                    vt: vt([7, 0]),
                },
            ]),
            Msg::Batch(vec![]),
        ]
    }

    #[test]
    fn messages_round_trip_through_codec() {
        for msg in fixture_messages() {
            let mut buf = BytesMut::new();
            msg.encode(&mut buf);
            let mut cursor = &buf[..];
            assert_eq!(Msg::<Word>::decode(&mut cursor).unwrap(), msg);
            assert!(cursor.is_empty());
        }
    }

    #[test]
    fn encoded_len_is_exact_for_every_fixture_message() {
        // `encoded_len` has exact (non-measuring) implementations for every
        // protocol message shape; they must agree with the encoder
        // byte-for-byte.
        for msg in fixture_messages() {
            let mut buf = BytesMut::new();
            msg.encode(&mut buf);
            assert_eq!(
                msg.encoded_len(),
                buf.len(),
                "encoded_len disagrees with encode for {msg}"
            );
        }
    }

    #[test]
    fn batch_exposes_parts_to_the_counters() {
        let batch: Msg<Word> = Msg::Batch(vec![
            Msg::Read {
                page: PageId::new(1),
            },
            Msg::Write {
                loc: Location::new(0),
                value: Arc::new(Word::Int(1)),
                wid: WriteId::new(NodeId::new(0), 1),
                vt: vt([1, 0]),
            },
        ]);
        assert_eq!(batch.kind(), "BATCH");
        assert!(!batch.is_request());
        assert!(!batch.is_reply());
        assert!(batch.is_batch());
        let mut kinds = Vec::new();
        batch.for_each_batch_part(&mut |kind, size| kinds.push((kind, size.is_some())));
        assert_eq!(kinds, [("READ", true), ("WRITE", true)]);
        // Ordinary messages report no parts.
        let read = Msg::<Word>::Read {
            page: PageId::new(0),
        };
        assert!(!read.is_batch());
        read.for_each_batch_part(&mut |kind, _| panic!("{kind} is not a batch part"));
    }

    #[test]
    fn display_matches_paper_notation() {
        let msg: Msg<Word> = Msg::Read {
            page: PageId::new(1),
        };
        assert_eq!(msg.to_string(), "[READ, pg1]");
        let msg: Msg<Word> = Msg::Write {
            loc: Location::new(2),
            value: Arc::new(Word::Int(5)),
            wid: WriteId::new(NodeId::new(0), 0),
            vt: vt([1, 0]),
        };
        assert_eq!(msg.to_string(), "[WRITE, x2, 5, [1,0]]");
    }

    #[test]
    fn decode_rejects_unknown_discriminant() {
        assert_eq!(
            Msg::<Word>::decode(&mut &[42u8][..]),
            Err(CodecError::BadDiscriminant(42))
        );
    }

    #[test]
    fn failover_kinds_split_as_overhead_but_stamps_stay_protocol() {
        let hb: Msg<Word> = Msg::Heartbeat { seq: 0 };
        assert_eq!(hb.kind(), memcore::kinds::HEARTBEAT);
        let nack: Msg<Word> = Msg::Nack {
            page: PageId::new(0),
            op: 0,
            epoch: memcore::OwnerEpoch::ZERO,
            redirect: NodeId::new(0),
        };
        assert_eq!(nack.kind(), memcore::kinds::NACK);
        for kind in [
            hb.kind(),
            nack.kind(),
            memcore::kinds::SUSPECT,
            memcore::kinds::REPL,
        ] {
            assert!(memcore::kinds::is_overhead(kind), "{kind}");
        }
        // A stamped READ still counts as a READ: the failover envelope must
        // not perturb the §4.1 protocol accounting.
        let stamped: Msg<Word> = Msg::Stamped {
            epoch: memcore::OwnerEpoch::new(1),
            op: 9,
            inner: Box::new(Msg::Read {
                page: PageId::new(2),
            }),
        };
        assert_eq!(stamped.kind(), "READ");
        assert!(stamped.is_request());
        assert!(!memcore::kinds::is_overhead(stamped.kind()));
    }

    #[test]
    fn dense_stamp_is_byte_identical_to_raw_clock() {
        // The Figure-4 byte-identity guarantee: a dense stamp encodes
        // exactly as the bare `VectorClock` always did, so wrapping every
        // timestamp in `Stamp` changed no wire bytes in default configs.
        let clock = VectorClock::from(vec![3, 0, 7, 0, 0, 1]);
        let mut raw = BytesMut::new();
        clock.encode(&mut raw);
        let mut stamped = BytesMut::new();
        Stamp::dense(clock.clone()).encode(&mut stamped);
        assert_eq!(raw, stamped);
        assert_eq!(Stamp::dense(clock.clone()).encoded_len(), clock.encoded_len());
        let decoded = Stamp::decode(&mut &stamped[..]).unwrap();
        assert!(!decoded.is_sparse());
        assert_eq!(decoded.clock(), &clock);
    }

    #[test]
    fn sparse_stamp_shrinks_with_sparsity_and_round_trips() {
        // A 128-component clock with 3 nonzero entries: dense pays
        // 4 + 128*8 bytes, sparse pays 8 + 3*12.
        let mut components = vec![0u64; 128];
        components[5] = 2;
        components[77] = 1;
        components[127] = 9;
        let clock = VectorClock::from(components);
        let sparse = Stamp::sparse(clock.clone());
        assert_eq!(sparse.encoded_len(), 8 + 3 * 12);
        assert_eq!(Stamp::dense(clock.clone()).encoded_len(), 4 + 128 * 8);
        let mut buf = BytesMut::new();
        sparse.encode(&mut buf);
        assert_eq!(buf.len(), sparse.encoded_len());
        let decoded = Stamp::decode(&mut &buf[..]).unwrap();
        assert!(decoded.is_sparse());
        assert_eq!(decoded.clock(), &clock);
    }

    /// Mostly-zero clocks (about 80% zeros) with lengths straddling the
    /// 16→17-process inline→heap spill boundary, plus 128 processes.
    fn mostly_zero_clock() -> impl Strategy<Value = VectorClock> {
        let component = || (0u64..80).prop_map(|x| x.saturating_sub(63));
        prop_oneof![
            proptest::collection::vec(component(), 12..22),
            proptest::collection::vec(component(), 128..129),
        ]
        .prop_map(VectorClock::from)
    }

    proptest! {
        /// Both encodings decode to the clock and the encoding they were
        /// sent in, consuming exactly `encoded_len` bytes; a sparse stamp
        /// costs an 8-byte header plus 12 bytes per nonzero component.
        #[test]
        fn stamps_round_trip_at_their_declared_length(vt in mostly_zero_clock()) {
            for stamp in [Stamp::dense(vt.clone()), Stamp::sparse(vt.clone())] {
                let mut buf = BytesMut::new();
                stamp.encode(&mut buf);
                prop_assert_eq!(buf.len(), stamp.encoded_len());
                let mut rest = &buf[..];
                let decoded = Stamp::decode(&mut rest).unwrap();
                prop_assert!(rest.is_empty());
                prop_assert_eq!(decoded.clock(), &vt);
                prop_assert_eq!(decoded.is_sparse(), stamp.is_sparse());
            }
            prop_assert_eq!(
                Stamp::sparse(vt.clone()).encoded_len(),
                8 + 12 * vt.nonzero_count()
            );
        }
    }

    #[test]
    fn sparse_stamp_rejects_out_of_range_pair() {
        let mut buf = BytesMut::new();
        (4u32 | (1u32 << 31)).encode(&mut buf); // n = 4, sparse
        1u32.encode(&mut buf); // one pair
        9u32.encode(&mut buf); // index 9 >= n
        5u64.encode(&mut buf);
        assert!(Stamp::decode(&mut &buf[..]).is_err());
    }

    #[test]
    fn stamps_bound_their_declared_counts_before_sizing_anything() {
        // Eight bytes declaring 2^31 − 1 processes and no pairs: the clock
        // that would back that is 16 GiB of zeros.
        let mut buf = BytesMut::new();
        u32::MAX.encode(&mut buf); // sparse bit + n = 2^31 − 1
        0u32.encode(&mut buf);
        assert_eq!(Stamp::decode(&mut &buf[..]), Err(CodecError::Truncated));
        // A plausible n, but 2^32 − 1 pairs promised in a 20-byte buffer.
        let mut buf = BytesMut::new();
        (64u32 | SPARSE_BIT).encode(&mut buf);
        u32::MAX.encode(&mut buf);
        (1u32, 1u64).encode(&mut buf);
        assert_eq!(Stamp::decode(&mut &buf[..]), Err(CodecError::Truncated));
        // Dense: 2^31 − 1 components promised, eight bytes present.
        let mut buf = BytesMut::new();
        (SPARSE_BIT - 1).encode(&mut buf);
        7u64.encode(&mut buf);
        assert_eq!(Stamp::decode(&mut &buf[..]), Err(CodecError::Truncated));
    }

    #[test]
    fn a_byte_value_declaring_4_gib_in_a_40_byte_frame_is_truncated() {
        // [WRITE, loc, value…] whose value's length prefix is all ones:
        // the bulk byte path must notice the 31 bytes behind it cannot
        // back 4 GiB before it reserves anything.
        let mut body = [0xFFu8; 40];
        body[0] = 2; // Msg::Write
        assert_eq!(
            Msg::<Vec<u8>>::decode(&mut &body[..]),
            Err(CodecError::Truncated)
        );
        // The same lie one level down, inside a batch of one.
        let mut batch = vec![5u8, 0, 0, 0, 1];
        batch.extend_from_slice(&body[..35]);
        assert_eq!(
            Msg::<Vec<u8>>::decode(&mut &batch[..]),
            Err(CodecError::Truncated)
        );
    }

    #[test]
    fn decoding_random_garbage_never_panics() {
        // Byte soup — raw, and behind every message discriminant with a
        // sparse-stamp marker planted where a stamp may start — through the
        // decoders the bulk byte path and the in-place stamp decode feed.
        // Every outcome must be a clean `Ok`/`Err`.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..2000u32 {
            let mut garbage: Vec<u8> = (0..next() % 96).map(|_| next() as u8).collect();
            if let Some(first) = garbage.first_mut() {
                *first = (round % 13) as u8;
            }
            if round % 2 == 0 && garbage.len() > 12 {
                let at = 1 + (next() % 8) as usize;
                garbage[at] = 0x80;
                garbage[at + 1..at + 3].fill(0);
            }
            let _ = Msg::<Vec<u8>>::decode(&mut &garbage[..]);
            let _ = Msg::<Word>::decode(&mut &garbage[..]);
            let _ = Stamp::decode(&mut garbage.get(1..).unwrap_or_default());
            let _ = WriteVerdict::<Vec<u8>>::decode(&mut &garbage[..]);
        }
    }

    #[test]
    fn metadata_size_counts_exactly_the_timestamp_bytes() {
        let write: Msg<Word> = Msg::Write {
            loc: Location::new(6),
            value: Arc::new(Word::Int(3)),
            wid: WriteId::new(NodeId::new(0), 11),
            vt: vt([6, 0]),
        };
        assert_eq!(write.metadata_size(), 4 + 2 * 8);
        // A sparse stamp reports its sparse cost.
        let reply: Msg<Word> = Msg::ReadReply {
            page: PageId::new(9),
            vt: sparse_vt(&[0, 0, 3, 0, 0, 0, 1, 0]),
            slots: vec![],
        };
        assert_eq!(reply.metadata_size(), 8 + 2 * 12);
        // Envelopes aggregate recursively; plain requests carry none.
        let stamped: Msg<Word> = Msg::Stamped {
            epoch: memcore::OwnerEpoch::new(1),
            op: 1,
            inner: Box::new(write.clone()),
        };
        assert_eq!(stamped.metadata_size(), write.metadata_size());
        let batch: Msg<Word> = Msg::Batch(vec![write.clone(), reply.clone()]);
        assert_eq!(
            batch.metadata_size(),
            write.metadata_size() + reply.metadata_size()
        );
        assert_eq!(
            Msg::<Word>::Read {
                page: PageId::new(0)
            }
            .metadata_size(),
            0
        );
        assert_eq!(
            Msg::<Word>::Interest {
                page: PageId::new(0)
            }
            .metadata_size(),
            0
        );
    }

    #[test]
    fn interest_is_overhead_and_displays_its_page() {
        let msg: Msg<Word> = Msg::Interest {
            page: PageId::new(5),
        };
        assert_eq!(msg.kind(), memcore::kinds::INTEREST);
        assert!(memcore::kinds::is_overhead(msg.kind()));
        assert!(!msg.is_request() && !msg.is_reply());
        assert_eq!(msg.to_string(), "[INTEREST, pg5]");
    }
}
