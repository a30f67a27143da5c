//! Golden wire bytes for every type on the wire or on disk.
//!
//! `Msg` fixtures are `encode_envelope` output for one fixture of each
//! message shape, captured at the commit before the bulk byte codec and
//! in-place framing landed. The other types (`WalRecord` in its CRC
//! frames, `SessionMsg`, `CtrlMsg`, `ObjVal`, `Word`, `WriteVerdict`,
//! `Hello`) were captured while each still had a hand-written codec,
//! before the `wire_enum!` tables replaced them. Any byte that moves here
//! is a wire-format change.
//!
//! The same bytes seed a mutation loop: every encoding with its tag one
//! past the last variant, each 4-byte window overwritten with a hostile
//! length, and single bytes flipped. Decoding must stay total — `Ok` or
//! `Err`, never a panic — and must not size an allocation from a word it
//! has not checked.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use bytes::{Bytes, BytesMut};
use causal_dsm::{Msg, Stamp, WriteVerdict};
use dsm_durable::{decode_stream, frame_records, WalRecord};
use dsm_faults::SessionMsg;
use dsm_net::ctrl::{CtrlMsg, WireOp};
use dsm_net::framing::{
    ctrl_node, decode_envelope, encode_envelope, encode_envelope_body, ConnKind, Hello, RawBody,
};
use dsm_objects::ObjVal;
use memcore::{Location, NodeId, OwnerEpoch, PageId, Word, WriteId};
use simnet::codec::{CodecError, Wire};
use simnet::Envelope;
use vclock::VectorClock;

struct LargestRequest;

thread_local! {
    // `const`-initialised and without a destructor, so the allocator can
    // touch it without allocating or re-entering itself.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: defers to the system allocator unchanged; only records sizes.
// `realloc` and `alloc_zeroed` keep their defaults, which call `alloc`.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LARGEST.try_with(|l| l.set(l.get().max(layout.size())));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: LargestRequest = LargestRequest;

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

/// A type's golden fixtures: a name, a value, and the hex of its bytes.
type Goldens<T> = Vec<(&'static str, T, &'static str)>;

fn byte_vector_messages() -> Goldens<Msg<Vec<u8>>> {
    vec![
        (
            "Read",
            Msg::Read {
                page: PageId::new(9),
            },
            "0000000d00000001000000020000000009",
        ),
        (
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
        ),
        (
            "Write dense",
            Msg::Write {
                loc: Location::new(33),
                value: bytes_value(12),
                wid: wid(1, 300),
                vt: dense(),
            },
            "00000045000000010000000202000000210000000ca580efca311c7ba68de8d73200000001000000000000012c00000003000000000000000300000000000000000000000000000102",
        ),
        (
            "Write sparse",
            Msg::Write {
                loc: Location::new(33),
                value: bytes_value(12),
                wid: wid(1, 300),
                vt: sparse(),
            },
            "00000049000000010000000202000000210000000ca580efca311c7ba68de8d73200000001000000000000012c8000000500000002000000010000000000000007000000040000000000010000",
        ),
        (
            "WriteReply applied",
            Msg::WriteReply {
                loc: Location::new(33),
                wid: wid(1, 300),
                vt: sparse(),
                verdict: WriteVerdict::Applied,
            },
            "0000003a0000000100000002030000002100000001000000000000012c800000050000000200000001000000000000000700000004000000000001000000",
        ),
        (
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
        ),
        (
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
        ),
        (
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
        ),
    ]
}

#[test]
fn byte_vector_messages_match_the_golden_bytes() {
    for (name, msg, golden) in byte_vector_messages() {
        check(name, msg, golden);
    }
}

fn word_messages() -> Goldens<Msg<Word>> {
    vec![
        (
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
        ),
        (
            "Write",
            Msg::Write {
                loc: Location::new(33),
                value: Arc::new(Word::Int(1 << 40)),
                wid: wid(1, 300),
                vt: dense(),
            },
            "0000003e0000000100000002020000002101000001000000000000000001000000000000012c00000003000000000000000300000000000000000000000000000102",
        ),
        (
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
        ),
        (
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
        ),
    ]
}

#[test]
fn word_messages_match_the_golden_bytes() {
    for (name, msg, golden) in word_messages() {
        check(name, msg, golden);
    }
}

/// Encodes `value`, checks the bytes against `golden` and `encoded_len`,
/// and checks that the golden bytes decode back to `value`, whole.
fn check_value<T>(name: &str, value: &T, golden: &str)
where
    T: Wire + PartialEq + Debug,
{
    let mut buf = BytesMut::new();
    value.encode(&mut buf);
    assert_eq!(hex(&buf), golden, "{name}: wire bytes moved");
    assert_eq!(value.encoded_len(), buf.len(), "{name}: encoded_len");
    let mut cursor = &buf[..];
    let back = T::decode(&mut cursor).expect("golden bytes decode");
    assert_eq!(&back, value, "{name}: decode disagrees");
    assert!(cursor.is_empty(), "{name}: decode left bytes behind");
}

fn vt() -> VectorClock {
    VectorClock::from([3u64, 0, 258])
}

/// Each record framed alone, as the log writes it:
/// `len: u32 LE | crc32: u32 LE | payload`.
fn wal_records() -> Goldens<WalRecord<Vec<u8>>> {
    vec![
        (
            "Write applied",
            WalRecord::Write {
                loc: Location::new(5),
                value: bytes_value(4),
                wid: wid(1, 7),
                origin: vt(),
                node_vt: VectorClock::from([3u64, 1, 258]),
                applied: true,
            },
            "52000000335d01fc000000000500000004a580efca000000010000000000000007000000030000000000000003000000000000000000000000000001020000000300000000000000030000000000000001000000000000010201",
        ),
        (
            "Write rejected",
            WalRecord::Write {
                loc: Location::new(5),
                value: bytes_value(0),
                wid: WriteId::initial(Location::new(5)),
                origin: VectorClock::new(2),
                node_vt: VectorClock::from([0u64, 9]),
                applied: false,
            },
            "3e000000d4a8a41d000000000500000000ffffffff00000000000000050000000200000000000000000000000000000000000000020000000000000000000000000000000900",
        ),
        (
            "PageInstall",
            WalRecord::PageInstall {
                page: PageId::new(1),
                vt: vt(),
                slots: vec![
                    (bytes_value(3), wid(0, 1)),
                    (bytes_value(0), WriteId::initial(Location::new(2))),
                ],
                origins: vec![vt(), VectorClock::new(3)],
                shadow: true,
            },
            "85000000a80bf4c20100000001000000030000000000000003000000000000000000000000000001020000000200000003a580ef00000000000000000000000100000000ffffffff000000000000000200000002000000030000000000000003000000000000000000000000000001020000000300000000000000000000000000000000000000000000000001",
        ),
        (
            "Epoch",
            WalRecord::Epoch {
                page: PageId::new(1),
                epoch: OwnerEpoch::new(3),
            },
            "090000002244966c020000000100000003",
        ),
        (
            "Interest",
            WalRecord::Interest {
                page: PageId::new(0),
                node: NodeId::new(2),
                registered: false,
            },
            "0a000000f7b18b3a03000000000000000200",
        ),
        (
            "Node",
            WalRecord::Node {
                vt: vt(),
                write_seq: 7,
                incarnation: 2,
            },
            "29000000a17325260400000003000000000000000300000000000000000000000000000102000000000000000700000002",
        ),
    ]
}

#[test]
fn wal_records_match_the_golden_bytes() {
    for (name, record, golden) in wal_records() {
        let framed = frame_records(std::slice::from_ref(&record));
        assert_eq!(hex(&framed), golden, "{name}: log bytes moved");
        assert_eq!(framed.len(), 8 + record.encoded_len(), "{name}");
        let (back, consumed) = decode_stream::<Vec<u8>>(&framed);
        assert_eq!(back, [record], "{name}: decode disagrees");
        assert_eq!(consumed, framed.len(), "{name}");
    }
}

fn envelope_body() -> RawBody {
    let env = Envelope::new(
        NodeId::new(1),
        NodeId::new(2),
        Msg::<Vec<u8>>::Read {
            page: PageId::new(9),
        },
    );
    RawBody(encode_envelope_body(&env))
}

fn session_msgs() -> Goldens<SessionMsg<RawBody>> {
    vec![
        (
            "Data",
            SessionMsg::Data {
                seq: 42,
                retx: false,
                src_inc: 1,
                dst_inc: 0,
                payload: envelope_body(),
            },
            "00000000000000002a00000000010000000000000001000000020000000009",
        ),
        (
            "Data retx, empty",
            SessionMsg::Data {
                seq: 1 << 33,
                retx: true,
                src_inc: 0,
                dst_inc: 7,
                payload: RawBody(Bytes::new()),
            },
            "000000000200000000010000000000000007",
        ),
        (
            "Ack",
            SessionMsg::Ack {
                cum: 43,
                src_inc: 0,
                dst_inc: 1,
            },
            "01000000000000002b0000000000000001",
        ),
        (
            "Raw",
            SessionMsg::Raw(envelope_body()),
            "0200000001000000020000000009",
        ),
        ("Hello", SessionMsg::Hello { inc: 3 }, "0300000003"),
    ]
}

fn ctrl_msgs() -> Goldens<CtrlMsg> {
    vec![
        (
            "Run",
            CtrlMsg::Run {
                seed: 42,
                ops: 2048,
                read_pct: 70,
            },
            "00000000000000002a000000000000080046",
        ),
        (
            "Done",
            CtrlMsg::Done {
                node: NodeId::new(2),
                ops: 2,
                elapsed_ns: 123_456,
                protocol_msgs: 99,
                overhead_msgs: 3,
                history: vec![
                    WireOp {
                        is_read: false,
                        loc: Location::new(3),
                        value: vec![1, 2, 3],
                        write_id: wid(2, 7),
                    },
                    WireOp {
                        is_read: true,
                        loc: Location::new(4),
                        value: vec![],
                        write_id: WriteId::initial(Location::new(4)),
                    },
                ],
            },
            "01000000020000000000000002000000000001e2400000000000000063000000000000000300000002000000000300000003010203000000020000000000000007010000000400000000ffffffff0000000000000004",
        ),
        ("Shutdown", CtrlMsg::Shutdown, "02"),
        ("Bye", CtrlMsg::Bye, "03"),
    ]
}

fn obj_vals() -> Goldens<ObjVal> {
    vec![
        ("Free", ObjVal::Free, "00"),
        ("Count", ObjVal::Count(42), "01000000000000002a"),
        ("Item", ObjVal::Item(-7), "02fffffffffffffff9"),
        (
            "Entry",
            ObjVal::Entry(3, -4),
            "030000000000000003fffffffffffffffc",
        ),
    ]
}

fn words() -> Goldens<Word> {
    vec![
        ("Zero", Word::Zero, "00"),
        ("Int", Word::Int(-2), "01fffffffffffffffe"),
        ("Bool", Word::Bool(false), "0200"),
        ("Float", Word::Float(1.5), "033ff8000000000000"),
    ]
}

fn verdicts() -> Goldens<WriteVerdict<Vec<u8>>> {
    vec![
        ("Applied", WriteVerdict::Applied, "00"),
        (
            "Rejected",
            WriteVerdict::Rejected {
                value: bytes_value(3),
                wid: wid(2, 8),
            },
            "0100000003a580ef000000020000000000000008",
        ),
    ]
}

fn hellos() -> Goldens<Hello> {
    vec![
        (
            "Peer",
            Hello {
                kind: ConnKind::Peer,
                node: NodeId::new(1),
            },
            "44534d31010000000001",
        ),
        (
            "Ctrl",
            Hello {
                kind: ConnKind::Ctrl,
                node: ctrl_node(),
            },
            "44534d310101ffffffff",
        ),
    ]
}

fn check_all<T: Wire + PartialEq + Debug>(goldens: Goldens<T>) {
    for (name, value, golden) in goldens {
        check_value(name, &value, golden);
    }
}

#[test]
fn session_frames_match_the_golden_bytes() {
    check_all(session_msgs());
}

#[test]
fn control_messages_match_the_golden_bytes() {
    check_all(ctrl_msgs());
}

#[test]
fn object_cells_and_words_match_the_golden_bytes() {
    check_all(obj_vals());
    check_all(words());
}

#[test]
fn write_verdicts_match_the_golden_bytes() {
    check_all(verdicts());
}

#[test]
fn hellos_match_the_golden_bytes() {
    check_all(hellos());
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("golden hex"))
        .collect()
}

/// The golden encodings of `goldens`, without their first `skip` bytes
/// (a frame's length prefix and envelope header, or a log frame's).
fn corpus<T>(goldens: Goldens<T>, skip: usize) -> Vec<Vec<u8>> {
    goldens
        .into_iter()
        .map(|(_, _, golden)| unhex(golden).split_off(skip))
        .collect()
}

/// Most bytes one decode of a mutant may ask the allocator for at once.
/// The largest honest request is a sparse stamp's clock at its declared
/// process bound (2^16 components, 512 KiB); a length word trusted
/// unchecked asks for gigabytes.
const MAX_REQUEST: usize = 1 << 20;

/// Deterministic xorshift: a failing mutant reproduces from the seed.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// Decodes `bytes` as `T`, which must return rather than panic, and must
/// not ask for more than [`MAX_REQUEST`] bytes at once.
fn decode_totally<T: Wire>(name: &str, what: &str, bytes: &[u8]) -> Result<T, CodecError> {
    LARGEST.with(|l| l.set(0));
    let outcome = catch_unwind(AssertUnwindSafe(|| T::decode(&mut &bytes[..])));
    let largest = LARGEST.with(Cell::get);
    let Ok(decoded) = outcome else {
        panic!("{name}, {what}: decoding {} panicked", hex(bytes));
    };
    assert!(
        largest <= MAX_REQUEST,
        "{name}, {what}: decoding {} asked for {largest} bytes",
        hex(bytes)
    );
    decoded
}

/// Runs every mutant of every encoding in `corpus` through `T::decode`;
/// `variants` is the type's tag count, so `variants` itself is the first
/// unknown tag. Returns how many mutants ran.
fn mutants_decode_totally<T: Wire>(
    name: &str,
    corpus: &[Vec<u8>],
    variants: Option<u8>,
    rng: &mut XorShift,
) -> usize {
    let mut ran = 0;
    for bytes in corpus {
        assert!(
            decode_totally::<T>(name, "as captured", bytes).is_ok(),
            "{name}: {} is golden",
            hex(bytes)
        );
        if let Some(unknown) = variants {
            let mut m = bytes.clone();
            m[0] = unknown;
            assert_eq!(
                decode_totally::<T>(name, "unknown tag", &m).err(),
                Some(CodecError::BadDiscriminant(unknown)),
                "{name}: tag {unknown} is one past the last variant"
            );
            ran += 1;
        }
        for at in 0..bytes.len().saturating_sub(3) {
            for word in [u32::MAX, 0x7FFF_FFFF, 0x8000_0000] {
                let mut m = bytes.clone();
                m[at..at + 4].copy_from_slice(&word.to_be_bytes());
                let _ = decode_totally::<T>(name, "hostile word", &m);
                ran += 1;
            }
        }
        for at in 0..bytes.len() {
            // Each single-bit flip, then one random nonzero mask.
            let masks = (0..8).map(|bit| 1u8 << bit);
            for mask in masks.chain([(rng.next() % 255 + 1) as u8]) {
                let mut m = bytes.clone();
                m[at] ^= mask;
                let _ = decode_totally::<T>(name, "flipped byte", &m);
                ran += 1;
            }
        }
    }
    ran
}

#[test]
fn mutated_encodings_decode_totally() {
    let mut rng = XorShift(0x5EED_C0DE_D15C_0DE5);
    let rng = &mut rng;
    // A peer-link frame: length prefix, then `src | dst`; a log frame:
    // length and CRC.
    let (envelope, log_frame) = (12, 8);
    let mut ran = 0;
    let msgs = corpus(byte_vector_messages(), envelope);
    ran += mutants_decode_totally::<Msg<Vec<u8>>>("Msg<Vec<u8>>", &msgs, Some(12), rng);
    let msgs = corpus(word_messages(), envelope);
    ran += mutants_decode_totally::<Msg<Word>>("Msg<Word>", &msgs, Some(12), rng);
    let verdicts = corpus(verdicts(), 0);
    ran += mutants_decode_totally::<WriteVerdict<Vec<u8>>>("WriteVerdict", &verdicts, Some(2), rng);
    let records = corpus(wal_records(), log_frame);
    ran += mutants_decode_totally::<WalRecord<Vec<u8>>>("WalRecord", &records, Some(5), rng);
    let frames = corpus(session_msgs(), 0);
    ran += mutants_decode_totally::<SessionMsg<RawBody>>("SessionMsg", &frames, Some(4), rng);
    let ctrl = corpus(ctrl_msgs(), 0);
    ran += mutants_decode_totally::<CtrlMsg>("CtrlMsg", &ctrl, Some(4), rng);
    let cells = corpus(obj_vals(), 0);
    ran += mutants_decode_totally::<ObjVal>("ObjVal", &cells, Some(4), rng);
    ran += mutants_decode_totally::<Word>("Word", &corpus(words(), 0), Some(4), rng);
    ran += mutants_decode_totally::<Hello>("Hello", &corpus(hellos(), 0), None, rng);
    assert!(ran > 10_000, "only {ran} mutants ran");
}
