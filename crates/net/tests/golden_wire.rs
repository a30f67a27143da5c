//! Golden wire bytes: `encode_envelope` output for one fixture of each
//! message shape, captured at the commit before the bulk byte codec and
//! in-place framing landed. Any byte that moves here is a wire-format
//! change, which that work promised not to make.

use std::sync::Arc;

use causal_dsm::{Msg, Stamp, WriteVerdict};
use dsm_net::framing::{decode_envelope, encode_envelope};
use memcore::{Location, NodeId, OwnerEpoch, PageId, Word, WriteId};
use simnet::codec::Wire;
use simnet::Envelope;
use vclock::VectorClock;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn dense() -> Stamp {
    Stamp::dense(VectorClock::from([3u64, 0, 258]))
}

fn sparse() -> Stamp {
    Stamp::sparse(VectorClock::from([0u64, 7, 0, 0, 65536]))
}

fn wid(node: u32, seq: u64) -> WriteId {
    WriteId::new(NodeId::new(node), seq)
}

fn bytes_value(len: u8) -> Arc<Vec<u8>> {
    Arc::new((0..len).map(|i| i.wrapping_mul(37) ^ 0xA5).collect())
}

/// Encodes `msg` in an envelope 1 → 2, checks it against `golden`, and
/// checks that the golden bytes decode back to `msg`.
fn check<V>(name: &str, msg: Msg<V>, golden: &str)
where
    V: Wire + PartialEq + std::fmt::Debug,
{
    let env = Envelope::new(NodeId::new(1), NodeId::new(2), msg);
    let framed = encode_envelope(&env);
    assert_eq!(hex(&framed), golden, "{name}: wire bytes moved");
    let back: Envelope<Msg<V>> = decode_envelope(framed.slice(4..)).expect("golden bytes decode");
    assert_eq!(back, env, "{name}: decode disagrees");
}

#[test]
fn byte_vector_messages_match_the_golden_bytes() {
    check::<Vec<u8>>(
        "Read",
        Msg::Read {
            page: PageId::new(9),
        },
        "0000000d00000001000000020000000009",
    );
    check(
        "ReadReply",
        Msg::ReadReply {
            page: PageId::new(4),
            vt: dense(),
            slots: vec![
                (bytes_value(5), wid(0, 17)),
                (bytes_value(0), WriteId::initial(Location::new(6))),
            ],
        },
        "0000005200000001000000020100000004000000030000000000000003000000000000000000000000000001020000000200000005a580efca3100000000000000000000001100000000ffffffff0000000000000006",
    );
    check(
        "Write dense",
        Msg::Write {
            loc: Location::new(33),
            value: bytes_value(12),
            wid: wid(1, 300),
            vt: dense(),
        },
        "00000045000000010000000202000000210000000ca580efca311c7ba68de8d73200000001000000000000012c00000003000000000000000300000000000000000000000000000102",
    );
    check(
        "Write sparse",
        Msg::Write {
            loc: Location::new(33),
            value: bytes_value(12),
            wid: wid(1, 300),
            vt: sparse(),
        },
        "00000049000000010000000202000000210000000ca580efca311c7ba68de8d73200000001000000000000012c8000000500000002000000010000000000000007000000040000000000010000",
    );
    check::<Vec<u8>>(
        "WriteReply applied",
        Msg::WriteReply {
            loc: Location::new(33),
            wid: wid(1, 300),
            vt: sparse(),
            verdict: WriteVerdict::Applied,
        },
        "0000003a0000000100000002030000002100000001000000000000012c800000050000000200000001000000000000000700000004000000000001000000",
    );
    check(
        "WriteReply rejected",
        Msg::WriteReply {
            loc: Location::new(33),
            wid: wid(1, 300),
            vt: dense(),
            verdict: WriteVerdict::Rejected {
                value: bytes_value(3),
                wid: wid(2, 8),
            },
        },
        "000000490000000100000002030000002100000001000000000000012c000000030000000000000003000000000000000000000000000001020100000003a580ef000000020000000000000008",
    );
    check(
        "Batch",
        Msg::Batch(vec![
            Msg::Write {
                loc: Location::new(1),
                value: bytes_value(4),
                wid: wid(1, 1),
                vt: dense(),
            },
            Msg::Write {
                loc: Location::new(2),
                value: bytes_value(2),
                wid: wid(1, 2),
                vt: sparse(),
            },
            Msg::Read {
                page: PageId::new(0),
            },
        ]),
        "0000007e00000001000000020500000003020000000100000004a580efca00000001000000000000000100000003000000000000000300000000000000000000000000000102020000000200000002a58000000001000000000000000280000005000000020000000100000000000000070000000400000000000100000000000000",
    );
    check(
        "Stamped",
        Msg::Stamped {
            epoch: OwnerEpoch::new(2),
            op: 77,
            inner: Box::new(Msg::Write {
                loc: Location::new(5),
                value: bytes_value(6),
                wid: wid(1, 9),
                vt: dense(),
            }),
        },
        "0000004c00000001000000020600000002000000000000004d020000000500000006a580efca311c00000001000000000000000900000003000000000000000300000000000000000000000000000102",
    );
}

#[test]
fn word_messages_match_the_golden_bytes() {
    check(
        "ReadReply",
        Msg::ReadReply {
            page: PageId::new(4),
            vt: sparse(),
            slots: vec![
                (Arc::new(Word::Int(-2)), wid(0, 17)),
                (Arc::new(Word::Zero), WriteId::initial(Location::new(6))),
                (Arc::new(Word::Bool(true)), wid(2, 1)),
                (Arc::new(Word::Float(1.5)), wid(2, 2)),
            ],
        },
        "000000760000000100000002010000000480000005000000020000000100000000000000070000000400000000000100000000000401fffffffffffffffe00000000000000000000001100ffffffff00000000000000060201000000020000000000000001033ff8000000000000000000020000000000000002",
    );
    check(
        "Write",
        Msg::Write {
            loc: Location::new(33),
            value: Arc::new(Word::Int(1 << 40)),
            wid: wid(1, 300),
            vt: dense(),
        },
        "0000003e0000000100000002020000002101000001000000000000000001000000000000012c00000003000000000000000300000000000000000000000000000102",
    );
    check(
        "WriteReply rejected",
        Msg::WriteReply {
            loc: Location::new(33),
            wid: wid(1, 300),
            vt: dense(),
            verdict: WriteVerdict::Rejected {
                value: Arc::new(Word::Float(-0.25)),
                wid: wid(2, 8),
            },
        },
        "0000004b0000000100000002030000002100000001000000000000012c000000030000000000000003000000000000000000000000000001020103bfd0000000000000000000020000000000000008",
    );
    check::<Word>(
        "Stamped batch",
        Msg::Stamped {
            epoch: OwnerEpoch::new(1),
            op: 4,
            inner: Box::new(Msg::Batch(vec![
                Msg::Read {
                    page: PageId::new(3),
                },
                Msg::WriteReply {
                    loc: Location::new(0),
                    wid: wid(0, 1),
                    vt: sparse(),
                    verdict: WriteVerdict::Applied,
                },
            ])),
        },
        "00000051000000010000000206000000010000000000000004050000000200000000030300000000000000000000000000000001800000050000000200000001000000000000000700000004000000000001000000",
    );
}
