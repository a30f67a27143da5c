//! Property tests for the wire codec: round trips, framing, and graceful
//! failure on corrupted input.

use bytes::BytesMut;
use memcore::{Location, NodeId, PageId, Word, WriteId};
use proptest::prelude::*;
use simnet::codec::{deframe, frame, CodecError, Wire};
use vclock::VectorClock;

fn word() -> impl Strategy<Value = Word> {
    prop_oneof![
        Just(Word::Zero),
        any::<i64>().prop_map(Word::Int),
        any::<bool>().prop_map(Word::Bool),
        // Finite floats only: NaN breaks PartialEq round-trip comparison.
        (-1e12f64..1e12).prop_map(Word::Float),
    ]
}

fn write_id() -> impl Strategy<Value = WriteId> {
    prop_oneof![
        (0u32..1000, any::<u64>()).prop_map(|(w, s)| WriteId::new(NodeId::new(w), s)),
        (0u32..1000).prop_map(|l| WriteId::initial(Location::new(l))),
    ]
}

fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(value: &T) {
    let mut buf = BytesMut::new();
    value.encode(&mut buf);
    assert_eq!(buf.len(), value.encoded_len(), "encoded_len disagrees");
    let mut cursor = &buf[..];
    let decoded = T::decode(&mut cursor).expect("decode");
    assert_eq!(&decoded, value);
    assert!(cursor.is_empty(), "trailing bytes after decode");
}

proptest! {
    #[test]
    fn words_round_trip(w in word()) {
        round_trip(&w);
    }

    #[test]
    fn write_ids_round_trip(wid in write_id()) {
        round_trip(&wid);
    }

    #[test]
    fn vector_clocks_round_trip(components in proptest::collection::vec(any::<u64>(), 0..32)) {
        round_trip(&VectorClock::from(components));
    }

    #[test]
    fn nested_structures_round_trip(
        pairs in proptest::collection::vec((any::<u32>(), any::<bool>()), 0..20),
        opt in proptest::option::of(any::<u64>()),
    ) {
        round_trip(&pairs);
        round_trip(&opt);
    }

    #[test]
    fn ids_round_trip(node in 0u32..10_000, l in any::<u32>(), page in any::<u32>()) {
        round_trip(&NodeId::new(node));
        round_trip(&Location::new(l));
        round_trip(&PageId::new(page));
    }

    #[test]
    fn frames_round_trip(components in proptest::collection::vec(any::<u64>(), 0..16)) {
        let vt = VectorClock::from(components);
        let framed = frame(&vt);
        let mut cursor = &framed[..];
        prop_assert_eq!(deframe::<VectorClock>(&mut cursor).unwrap(), vt);
        prop_assert!(cursor.is_empty());
    }

    /// Truncating a frame anywhere never panics — it errors.
    #[test]
    fn truncated_frames_error_not_panic(
        components in proptest::collection::vec(any::<u64>(), 1..8),
        cut_fraction in 0.0f64..1.0,
    ) {
        let vt = VectorClock::from(components);
        let framed = frame(&vt);
        let cut = ((framed.len() as f64) * cut_fraction) as usize;
        if cut < framed.len() {
            let result = deframe::<VectorClock>(&mut &framed[..cut]);
            prop_assert!(result.is_err());
        }
    }

    /// Arbitrary garbage decodes to an error or a value, never a panic.
    #[test]
    fn garbage_never_panics(garbage in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = Word::decode(&mut &garbage[..]);
        let _: Result<VectorClock, CodecError> = VectorClock::decode(&mut &garbage[..]);
        let _ = Vec::<u8>::decode(&mut &garbage[..]);
        let _ = deframe::<Vec<u64>>(&mut &garbage[..]);
    }
}
