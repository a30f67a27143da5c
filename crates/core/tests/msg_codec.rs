//! The codec over every `Msg` shape: random messages of all twelve
//! variants, for byte-vector and `Word` values, round-trip at exactly
//! their `encoded_len()`, and every strict prefix of an encoding is an
//! error rather than a panic or a shorter message.
//!
//! Batches mix part kinds and carry stamped parts; `Stamped` wraps both
//! requests and replies; stamps are dense or sparse over clocks that
//! straddle the 16→17-process inline→heap spill; both write verdicts
//! occur.

use std::fmt::Debug;
use std::sync::Arc;

use bytes::BytesMut;
use causal_dsm::{Msg, Stamp, WriteVerdict};
use memcore::{Location, NodeId, OwnerEpoch, PageId, Word, WriteId};
use proptest::collection::vec;
use proptest::prelude::*;
use rand::SeedableRng;
use simnet::codec::Wire;
use vclock::VectorClock;

/// Clocks of 1–20 processes (inline up to 16, spilled above), about half
/// of whose components are zero so sparse stamps skip some.
fn clock() -> impl Strategy<Value = VectorClock> {
    vec((0u64..40).prop_map(|x| x.saturating_sub(20)), 1..21).prop_map(VectorClock::from)
}

fn stamp() -> impl Strategy<Value = Stamp> {
    (clock(), any::<bool>()).prop_map(|(vt, sparse)| Stamp::new(vt, sparse))
}

fn write_id() -> BoxedStrategy<WriteId> {
    prop_oneof![
        (0u32..64, any::<u64>()).prop_map(|(node, seq)| WriteId::new(NodeId::new(node), seq)),
        (0u32..1024).prop_map(|loc| WriteId::initial(Location::new(loc))),
    ]
    .boxed()
}

fn page() -> impl Strategy<Value = PageId> {
    (0u32..1024).prop_map(PageId::new)
}

fn loc() -> impl Strategy<Value = Location> {
    (0u32..1024).prop_map(Location::new)
}

fn epoch() -> impl Strategy<Value = OwnerEpoch> {
    any::<u32>().prop_map(OwnerEpoch::new)
}

fn node() -> impl Strategy<Value = NodeId> {
    (0u32..64).prop_map(NodeId::new)
}

fn slots<V: Clone + 'static>(
    value: BoxedStrategy<V>,
) -> impl Strategy<Value = Vec<(Arc<V>, WriteId)>> {
    vec(
        (value, write_id()).prop_map(|(v, wid)| (Arc::new(v), wid)),
        0..5,
    )
}

fn verdict<V: Clone + 'static>(value: BoxedStrategy<V>) -> BoxedStrategy<WriteVerdict<V>> {
    prop_oneof![
        Just(WriteVerdict::Applied),
        (value, write_id()).prop_map(|(v, wid)| WriteVerdict::Rejected {
            value: Arc::new(v),
            wid,
        }),
    ]
    .boxed()
}

/// The four Figure-4 messages: what `Stamped` wraps.
fn request_or_reply<V: Clone + 'static>(value: BoxedStrategy<V>) -> BoxedStrategy<Msg<V>> {
    prop_oneof![
        page().prop_map(|page| Msg::Read { page }),
        (page(), stamp(), slots(value.clone())).prop_map(|(page, vt, slots)| Msg::ReadReply {
            page,
            vt,
            slots
        }),
        (loc(), value.clone(), write_id(), stamp()).prop_map(|(loc, v, wid, vt)| Msg::Write {
            loc,
            value: Arc::new(v),
            wid,
            vt,
        }),
        (loc(), write_id(), stamp(), verdict(value)).prop_map(|(loc, wid, vt, verdict)| {
            Msg::WriteReply {
                loc,
                wid,
                vt,
                verdict,
            }
        }),
    ]
    .boxed()
}

/// Every variant but the two envelopes.
fn leaf<V: Clone + 'static>(value: BoxedStrategy<V>) -> BoxedStrategy<Msg<V>> {
    prop_oneof![
        // Twice, so the four Figure-4 messages weigh as much as the rest.
        request_or_reply(value.clone()),
        request_or_reply(value.clone()),
        Just(Msg::Halt),
        any::<u64>().prop_map(|seq| Msg::Heartbeat { seq }),
        (node(), vec((page(), epoch()), 0..4))
            .prop_map(|(suspect, epochs)| Msg::Suspect { suspect, epochs }),
        (page(), any::<u64>(), epoch(), node()).prop_map(|(page, op, epoch, redirect)| {
            Msg::Nack {
                page,
                op,
                epoch,
                redirect,
            }
        }),
        (page(), stamp(), slots(value), vec(clock(), 0..3)).prop_map(
            |(page, vt, slots, origins)| Msg::Replicate {
                page,
                vt,
                slots,
                origins,
            }
        ),
        page().prop_map(|page| Msg::Interest { page }),
    ]
    .boxed()
}

fn stamped<V: Clone + 'static>(value: BoxedStrategy<V>) -> BoxedStrategy<Msg<V>> {
    (epoch(), any::<u64>(), request_or_reply(value))
        .prop_map(|(epoch, op, inner)| Msg::Stamped {
            epoch,
            op,
            inner: Box::new(inner),
        })
        .boxed()
}

/// Any message: a leaf, a stamped request or reply, or a batch of up to
/// seven mixed parts.
fn message<V: Clone + 'static>(value: BoxedStrategy<V>) -> BoxedStrategy<Msg<V>> {
    let part = prop_oneof![leaf(value.clone()), stamped(value.clone())];
    prop_oneof![
        leaf(value.clone()),
        stamped(value),
        vec(part, 0..8).prop_map(Msg::Batch),
    ]
    .boxed()
}

fn bytes_value() -> BoxedStrategy<Vec<u8>> {
    vec(any::<u8>(), 0..70).boxed()
}

fn word_value() -> BoxedStrategy<Word> {
    prop_oneof![
        Just(Word::Zero),
        any::<i64>().prop_map(Word::Int),
        any::<bool>().prop_map(Word::Bool),
        any::<f64>().prop_map(Word::Float),
    ]
    .boxed()
}

/// The codec's contract on one message.
fn round_trips<V: Wire + PartialEq + Debug>(msg: &Msg<V>) -> Result<(), TestCaseError> {
    let mut buf = BytesMut::new();
    msg.encode(&mut buf);
    prop_assert_eq!(
        msg.encoded_len(),
        buf.len(),
        "encoded_len {} but {} bytes encoded for {:?}",
        msg.encoded_len(),
        buf.len(),
        msg
    );
    let mut rest = &buf[..];
    let back = Msg::<V>::decode(&mut rest);
    prop_assert_eq!(back.as_ref(), Ok(msg), "decoded {:?} from {:?}", back, msg);
    prop_assert!(rest.is_empty(), "{} bytes left over", rest.len());
    for cut in 0..buf.len() {
        let mut prefix = &buf[..cut];
        let short = Msg::<V>::decode(&mut prefix);
        prop_assert!(
            short.is_err(),
            "the {cut}-byte prefix of a {}-byte encoding decoded to {:?}",
            buf.len(),
            short
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    fn byte_value_messages_round_trip_and_their_prefixes_are_errors(msg in message(bytes_value())) {
        round_trips(&msg)?;
    }

    fn word_value_messages_round_trip_and_their_prefixes_are_errors(msg in message(word_value())) {
        round_trips(&msg)?;
    }
}

#[test]
fn the_generator_reaches_every_shape() {
    let strategy = message(bytes_value());
    let mut rng = proptest::TestRng::seed_from_u64(7);
    let mut variants = [false; 12];
    let (mut dense, mut sparse, mut spilled) = (false, false, false);
    let (mut applied, mut rejected) = (false, false);
    let (mut stamped_request, mut stamped_reply, mut mixed_batch) = (false, false, false);
    let mut visit = |msg: &Msg<Vec<u8>>, variants: &mut [bool; 12]| {
        let mut buf = BytesMut::new();
        msg.encode(&mut buf);
        variants[usize::from(buf[0])] = true;
        let vt = match msg {
            Msg::ReadReply { vt, .. } | Msg::Write { vt, .. } | Msg::Replicate { vt, .. } => {
                Some(vt)
            }
            Msg::WriteReply { vt, verdict, .. } => {
                match verdict {
                    WriteVerdict::Applied => applied = true,
                    WriteVerdict::Rejected { .. } => rejected = true,
                }
                Some(vt)
            }
            Msg::Stamped { inner, .. } => {
                stamped_request |= inner.is_request();
                stamped_reply |= inner.is_reply();
                None
            }
            _ => None,
        };
        if let Some(vt) = vt {
            dense |= !vt.is_sparse();
            sparse |= vt.is_sparse();
            spilled |= vt.len() > vclock::INLINE_PROCESSES;
        }
    };
    for _ in 0..2000 {
        let msg = strategy.gen_one(&mut rng);
        visit(&msg, &mut variants);
        if let Msg::Batch(parts) = &msg {
            let first = parts.first().map(std::mem::discriminant);
            mixed_batch |= parts
                .iter()
                .any(|p| Some(std::mem::discriminant(p)) != first);
            for part in parts {
                visit(part, &mut variants);
            }
        }
    }
    assert_eq!(variants, [true; 12], "variants reached, by discriminant");
    assert!(
        dense && sparse && spilled,
        "stamps: dense {dense}, sparse {sparse}, spilled {spilled}"
    );
    assert!(
        applied && rejected,
        "verdicts: applied {applied}, rejected {rejected}"
    );
    assert!(stamped_request && stamped_reply && mixed_batch);
}
