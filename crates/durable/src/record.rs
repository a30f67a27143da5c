//! The write-ahead log's record vocabulary and its CRC framing.
//!
//! Each record is one protocol-visible durability event. The stream is
//! replayed in order by `causal-dsm`'s recovery to rebuild exactly the
//! state a restarted owner must not lose: page images with their
//! per-slot origin clocks, the owner-epoch table, interest sets, and
//! the node's clock / write-sequence / incarnation frontier.
//!
//! On the wire (well, on the platter) every record is framed as
//!
//! ```text
//! [len: u32 LE] [crc32(payload): u32 LE] [payload: len bytes]
//! ```
//!
//! where `payload` is the record's exact-`encoded_len`
//! [`Wire`](simnet::codec::Wire) encoding. [`decode_stream`] accepts
//! the longest prefix of frames whose header, CRC, and payload decode
//! all agree and stops at the first that does not — a torn tail is
//! data loss bounded by the sync policy, never a panic and never a
//! resurrected half-write.

use std::sync::Arc;

use bytes::BytesMut;
use memcore::{Location, NodeId, OwnerEpoch, PageId, WriteId};
use simnet::codec::Wire;
use vclock::VectorClock;

use crate::crc32;

/// Upper bound on a single record's payload (64 MiB). A length header
/// beyond this is treated as corruption, not an allocation request.
pub const MAX_RECORD_LEN: usize = 1 << 26;

/// One durability event in the write-ahead log.
///
/// The generic `V` is the memory's value type, exactly as in
/// `causal_dsm::Msg<V>`; values are `Arc`-shared and wire-transparent.
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord<V> {
    /// A certified write at this owner: the slot installed (or, when
    /// `applied` is false, the owner-favored reject/stale verdict whose
    /// clock merge must still survive a crash), the origin clock it
    /// carries, and the owner's merged clock right after serving.
    Write {
        /// Location written.
        loc: Location,
        /// Value installed (or proposed, when not applied).
        value: Arc<V>,
        /// The write's globally unique id.
        wid: WriteId,
        /// The writer's timestamp — the slot's origin clock.
        origin: VectorClock,
        /// This node's clock after `VT_i := update(VT_i, VT)`.
        node_vt: VectorClock,
        /// Whether the slot was installed (`false`: rejected/stale —
        /// replay merges the clocks but leaves the page image alone).
        applied: bool,
    },
    /// A full page image with per-slot origin clocks: checkpoint
    /// entries, hot-standby shadows, and failover promotions.
    PageInstall {
        /// Page installed.
        page: PageId,
        /// The page's vector timestamp.
        vt: VectorClock,
        /// Slot values and write ids, in location order.
        slots: Vec<(Arc<V>, WriteId)>,
        /// Per-slot origin clocks (parallel to `slots`).
        origins: Vec<VectorClock>,
        /// `true` for a hot-standby shadow (not served until promoted).
        shadow: bool,
    },
    /// An owner-epoch advance observed for `page`.
    Epoch {
        /// Page whose ownership moved.
        page: PageId,
        /// The epoch now in force.
        epoch: OwnerEpoch,
    },
    /// An interest-set change at this owner: `node` registered for (or
    /// dropped from) `page`'s invalidation fan-out.
    Interest {
        /// Page whose interest set changed.
        page: PageId,
        /// The caching node.
        node: NodeId,
        /// `true` on registration, `false` on an eviction drop.
        registered: bool,
    },
    /// Node watermark: the clock / write-sequence / incarnation
    /// frontier at the moment of the append. Written whenever the
    /// frontier advances without any other record capturing it, and
    /// once at every (re)start so incarnations strictly increase
    /// across process lifetimes.
    Node {
        /// The node's vector clock.
        vt: VectorClock,
        /// Next local write sequence number (duplicate-`WriteId` fence).
        write_seq: u64,
        /// Process incarnation (bumped on every recovery).
        incarnation: u32,
    },
}

simnet::wire_enum! {
    impl[V: Wire] for WalRecord<V> {
        0 => Write { loc, value, wid, origin, node_vt, applied },
        1 => PageInstall { page, vt, slots, origins, shadow },
        2 => Epoch { page, epoch },
        3 => Interest { page, node, registered },
        4 => Node { vt, write_seq, incarnation },
    }
}

/// Encodes `records` as a contiguous run of CRC frames.
///
/// Each record is encoded once, in place after its header; the header is
/// filled in behind it from the bytes that landed.
///
/// # Panics
///
/// Panics if a record encodes to a different length than its
/// `encoded_len()` claimed — the header would lie, and recovery would
/// stop at this frame.
#[must_use]
pub fn frame_records<V: Wire>(records: &[WalRecord<V>]) -> Vec<u8> {
    let payload_len: usize = records.iter().map(Wire::encoded_len).sum();
    let mut out = BytesMut::with_capacity(payload_len + 8 * records.len());
    for record in records {
        let len = record.encoded_len();
        let header_at = out.len();
        let prefix = u32::try_from(len).expect("record payloads stay below 4 GiB");
        out.extend_from_slice(&prefix.to_le_bytes());
        out.extend_from_slice(&[0; 4]);
        record.encode(&mut out);
        let payload_at = header_at + 8;
        assert_eq!(out.len() - payload_at, len, "encoded_len is exact");
        let crc = crc32(&out[payload_at..]);
        out[header_at + 4..payload_at].copy_from_slice(&crc.to_le_bytes());
    }
    out.into()
}

/// Decodes the longest valid frame prefix of `bytes`.
///
/// Returns the recovered records and the byte offset of the first
/// invalid frame (equal to `bytes.len()` when the whole stream is
/// valid). Never panics: a short header, an oversized length, a CRC
/// mismatch, a payload that fails to decode, or trailing payload bytes
/// all end the scan at the last good record.
#[must_use]
pub fn decode_stream<V: Wire>(bytes: &[u8]) -> (Vec<WalRecord<V>>, usize) {
    let mut records = Vec::new();
    let mut off = 0usize;
    loop {
        let rest = &bytes[off..];
        if rest.len() < 8 {
            break;
        }
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        let crc = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
        if len > MAX_RECORD_LEN || rest.len() - 8 < len {
            break;
        }
        let payload = &rest[8..8 + len];
        if crc32(payload) != crc {
            break;
        }
        let mut rest = payload;
        match WalRecord::<V>::decode(&mut rest) {
            Ok(record) if rest.is_empty() => records.push(record),
            _ => break,
        }
        off += 8 + len;
    }
    (records, off)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memcore::Word;

    fn sample() -> Vec<WalRecord<Word>> {
        let mut vt = VectorClock::new(3);
        vt.increment(1);
        vt.increment(1);
        vt.increment(2);
        vec![
            WalRecord::Node {
                vt: vt.clone(),
                write_seq: 7,
                incarnation: 2,
            },
            WalRecord::Write {
                loc: Location::new(5),
                value: Arc::new(Word::Int(42)),
                wid: WriteId::new(NodeId::new(1), 7),
                origin: vt.clone(),
                node_vt: vt.clone(),
                applied: true,
            },
            WalRecord::PageInstall {
                page: PageId::new(1),
                vt: vt.clone(),
                slots: vec![
                    (Arc::new(Word::Int(1)), WriteId::new(NodeId::new(0), 1)),
                    (Arc::new(Word::Bool(true)), WriteId::new(NodeId::new(2), 3)),
                ],
                origins: vec![vt.clone(), VectorClock::new(3)],
                shadow: true,
            },
            WalRecord::Epoch {
                page: PageId::new(1),
                epoch: OwnerEpoch::new(3),
            },
            WalRecord::Interest {
                page: PageId::new(0),
                node: NodeId::new(2),
                registered: false,
            },
        ]
    }

    #[test]
    fn encoded_len_is_exact_for_every_record_shape() {
        // `frame_records` writes each header from `encoded_len` before the
        // payload exists, so the two must agree to the byte — for word
        // values and for byte-vector values, which take the bulk path.
        fn check<V: Wire>(record: &WalRecord<V>) {
            let mut buf = BytesMut::new();
            record.encode(&mut buf);
            assert_eq!(buf.len(), record.encoded_len());
        }
        sample().iter().for_each(check);
        check(&WalRecord::Write {
            loc: Location::new(1),
            value: Arc::new(vec![7u8; 300]),
            wid: WriteId::new(NodeId::new(0), 1),
            origin: VectorClock::new(20),
            node_vt: VectorClock::new(20),
            applied: false,
        });
        check(&WalRecord::PageInstall {
            page: PageId::new(0),
            vt: VectorClock::new(2),
            slots: vec![(
                Arc::new(Vec::<u8>::new()),
                WriteId::initial(Location::new(0)),
            )],
            origins: vec![],
            shadow: false,
        });
    }

    #[test]
    fn frame_roundtrip() {
        let records = sample();
        let bytes = frame_records(&records);
        let (decoded, consumed) = decode_stream::<Word>(&bytes);
        assert_eq!(decoded, records);
        assert_eq!(consumed, bytes.len());
    }

    #[test]
    fn truncation_at_every_byte_offset_yields_a_prefix() {
        // The satellite task's contract, verbatim: cut the log at every
        // byte offset; recovery must neither panic nor resurrect a
        // record that was not fully certified to disk.
        let records = sample();
        let bytes = frame_records(&records);
        let mut boundaries = vec![0usize];
        for record in &records {
            boundaries.push(boundaries.last().unwrap() + 8 + record.encoded_len());
        }
        for cut in 0..=bytes.len() {
            let (decoded, consumed) = decode_stream::<Word>(&bytes[..cut]);
            // Exactly the records whose frames fit entirely below the cut.
            let whole = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
            assert_eq!(decoded.len(), whole, "cut at {cut}");
            assert_eq!(decoded[..], records[..whole], "cut at {cut}");
            assert_eq!(consumed, boundaries[whole], "cut at {cut}");
        }
    }

    #[test]
    fn corruption_at_every_byte_offset_never_panics_or_overreads() {
        let records = sample();
        let bytes = frame_records(&records);
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0xA5;
            let (decoded, consumed) = decode_stream::<Word>(&bad);
            // A flipped byte may shorten the stream but can never
            // produce a record that was not in the original prefix —
            // except in the headers, where it can only end the scan.
            assert!(decoded.len() <= records.len(), "corrupt at {i}");
            assert!(consumed <= bad.len(), "corrupt at {i}");
            for (d, r) in decoded.iter().zip(&records) {
                if d != r {
                    // The only tolerated divergence: a length-header
                    // flip that still frames a CRC-valid payload is
                    // impossible; a payload flip fails its CRC. So any
                    // decoded record must equal the original.
                    panic!("corrupt at {i} resurrected an altered record");
                }
            }
        }
    }

    #[test]
    fn oversized_length_header_is_corruption_not_allocation() {
        let mut bytes = frame_records(&sample());
        bytes[0..4].copy_from_slice(&(u32::MAX).to_le_bytes());
        let (decoded, consumed) = decode_stream::<Word>(&bytes);
        assert!(decoded.is_empty());
        assert_eq!(consumed, 0);
    }
}
