//! A small length-prefixed wire format.
//!
//! Protocol messages in this workspace are Rust enums moved over in-process
//! channels, but their *encoded size* matters for the overhead ablations
//! (vector timestamps grow with `n`; pages grow with the page size). This
//! module gives every message a realistic byte representation: fixed-width
//! big-endian integers, length-prefixed sequences, and a one-byte
//! discriminant for enums.
//!
//! Encoding appends to a [`BytesMut`]; decoding reads from a `&mut &[u8]`
//! cursor that each [`Wire::decode`] advances past what it consumed, so a
//! frame is decoded where it lies in the receive buffer without becoming a
//! heap object of its own.
//!
//! # Examples
//!
//! ```
//! use bytes::BytesMut;
//! use simnet::codec::Wire;
//!
//! let mut buf = BytesMut::new();
//! 42u64.encode(&mut buf);
//! vec![1u64, 2, 3].encode(&mut buf);
//! let mut cursor = &buf[..];
//! assert_eq!(u64::decode(&mut cursor)?, 42);
//! assert_eq!(Vec::<u64>::decode(&mut cursor)?, vec![1, 2, 3]);
//! assert!(cursor.is_empty());
//! # Ok::<(), simnet::codec::CodecError>(())
//! ```

use std::error::Error;
use std::fmt;
use std::io::{self, Read};

use bytes::{BufMut, Bytes, BytesMut};

/// Decoding failed: the buffer was truncated, held an invalid
/// discriminant, or declared a frame larger than the configured bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// Fewer bytes remained than the type requires.
    Truncated,
    /// An enum discriminant byte was not a known variant.
    BadDiscriminant(u8),
    /// A frame header declared a body longer than the decoder's bound.
    ///
    /// A corrupt or adversarial length prefix must not translate into an
    /// attempt to buffer gigabytes; decoders with a bound reject the frame
    /// before allocating for it.
    Oversize {
        /// The declared body length.
        len: usize,
        /// The decoder's maximum accepted body length.
        max: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "buffer truncated"),
            CodecError::BadDiscriminant(d) => write!(f, "unknown discriminant {d}"),
            CodecError::Oversize { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte bound")
            }
        }
    }
}

impl Error for CodecError {}

/// Splits the first `n` bytes off the cursor.
///
/// # Errors
///
/// Returns [`CodecError::Truncated`] (leaving the cursor alone) if fewer
/// than `n` bytes remain.
#[inline]
pub fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], CodecError> {
    let (head, rest) = buf.split_at_checked(n).ok_or(CodecError::Truncated)?;
    *buf = rest;
    Ok(head)
}

/// Splits a fixed-width field off the cursor.
#[inline]
fn take_array<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], CodecError> {
    let (head, rest) = buf.split_first_chunk::<N>().ok_or(CodecError::Truncated)?;
    *buf = rest;
    Ok(*head)
}

/// Most items [`Wire::decode_seq`] reserves for before any has decoded.
const MAX_PREALLOC: usize = 1 << 16;

/// Types with a wire representation.
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut BytesMut);

    /// Decodes a value from the front of `buf`, advancing the cursor past
    /// the bytes it consumed.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] if the buffer is truncated or malformed.
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError>;

    /// The encoded size in bytes.
    ///
    /// The default *measures* by encoding into a scratch buffer — correct
    /// but costing a full encode (and its allocations) just to learn a
    /// length. Every hot type in this workspace (integers, ids, clocks,
    /// `Msg`, containers) overrides it with an exact arithmetic answer;
    /// override it for any payload whose size lands on a measurement path.
    /// It must be exact: [`frame_into`] writes the length prefix from it
    /// before encoding.
    fn encoded_len(&self) -> usize {
        let mut buf = BytesMut::new();
        self.encode(&mut buf);
        buf.len()
    }

    /// Appends the encodings of `items` back to back (no length prefix):
    /// the body of a `Vec<Self>`. `u8` overrides this with one bulk copy,
    /// which is what makes byte-vector payloads cost a `memcpy` instead of
    /// a call per byte.
    fn encode_seq(items: &[Self], buf: &mut BytesMut) {
        for item in items {
            item.encode(buf);
        }
    }

    /// Decodes `len` values laid back to back (the inverse of
    /// [`encode_seq`](Wire::encode_seq)).
    ///
    /// `len` comes off the wire, so nothing is reserved on its word alone:
    /// the up-front reservation is capped by the bytes actually present
    /// (and by a fixed item count, since one item may be many bytes in
    /// memory for one on the wire).
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] if the buffer is truncated or malformed.
    fn decode_seq(len: usize, buf: &mut &[u8]) -> Result<Vec<Self>, CodecError> {
        let mut out = Vec::with_capacity(len.min(buf.len()).min(MAX_PREALLOC));
        for _ in 0..len {
            out.push(Self::decode(buf)?);
        }
        Ok(out)
    }

    /// Encoded size of `items` laid back to back.
    fn seq_encoded_len(items: &[Self]) -> usize {
        items.iter().map(Wire::encoded_len).sum()
    }
}

impl Wire for u8 {
    #[inline]
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(*self);
    }
    #[inline]
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(take_array::<1>(buf)?[0])
    }
    #[inline]
    fn encoded_len(&self) -> usize {
        1
    }
    #[inline]
    fn encode_seq(items: &[Self], buf: &mut BytesMut) {
        buf.extend_from_slice(items);
    }
    #[inline]
    fn decode_seq(len: usize, buf: &mut &[u8]) -> Result<Vec<Self>, CodecError> {
        // The bounds check comes first: a declared length the buffer
        // cannot back is an error before it is an allocation.
        Ok(take(buf, len)?.to_vec())
    }
    #[inline]
    fn seq_encoded_len(items: &[Self]) -> usize {
        items.len()
    }
}

macro_rules! impl_wire_int {
    ($t:ty, $put:ident, $len:expr) => {
        impl Wire for $t {
            #[inline]
            fn encode(&self, buf: &mut BytesMut) {
                buf.$put(*self);
            }
            #[inline]
            fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
                Ok(<$t>::from_be_bytes(take_array(buf)?))
            }
            #[inline]
            fn encoded_len(&self) -> usize {
                $len
            }
        }
    };
}

impl_wire_int!(u32, put_u32, 4);
impl_wire_int!(u64, put_u64, 8);
impl_wire_int!(i64, put_i64, 8);
impl_wire_int!(f64, put_f64, 8);

impl Wire for bool {
    #[inline]
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(u8::from(*self));
    }
    #[inline]
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        match u8::decode(buf)? {
            0 => Ok(false),
            1 => Ok(true),
            d => Err(CodecError::BadDiscriminant(d)),
        }
    }
    #[inline]
    fn encoded_len(&self) -> usize {
        1
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, buf: &mut BytesMut) {
        (self.len() as u32).encode(buf);
        T::encode_seq(self, buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let len = u32::decode(buf)? as usize;
        T::decode_seq(len, buf)
    }
    fn encoded_len(&self) -> usize {
        4 + T::seq_encoded_len(self)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        match u8::decode(buf)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            d => Err(CodecError::BadDiscriminant(d)),
        }
    }
    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Wire::encoded_len)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok((A::decode(buf)?, B::decode(buf)?))
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len()
    }
}

impl<T: Wire> Wire for std::sync::Arc<T> {
    // Wire-transparent: an `Arc<T>` encodes exactly as its `T`, so protocol
    // types can share values in memory without changing a byte on the wire.
    fn encode(&self, buf: &mut BytesMut) {
        (**self).encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(std::sync::Arc::new(T::decode(buf)?))
    }
    fn encoded_len(&self) -> usize {
        (**self).encoded_len()
    }
}

impl Wire for memcore::NodeId {
    #[inline]
    fn encode(&self, buf: &mut BytesMut) {
        (self.index() as u32).encode(buf);
    }
    #[inline]
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(memcore::NodeId::new(u32::decode(buf)?))
    }
    #[inline]
    fn encoded_len(&self) -> usize {
        4
    }
}

impl Wire for memcore::Location {
    #[inline]
    fn encode(&self, buf: &mut BytesMut) {
        (self.index() as u32).encode(buf);
    }
    #[inline]
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(memcore::Location::new(u32::decode(buf)?))
    }
    #[inline]
    fn encoded_len(&self) -> usize {
        4
    }
}

impl Wire for memcore::PageId {
    #[inline]
    fn encode(&self, buf: &mut BytesMut) {
        (self.index() as u32).encode(buf);
    }
    #[inline]
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(memcore::PageId::new(u32::decode(buf)?))
    }
    #[inline]
    fn encoded_len(&self) -> usize {
        4
    }
}

impl Wire for memcore::OwnerEpoch {
    #[inline]
    fn encode(&self, buf: &mut BytesMut) {
        self.get().encode(buf);
    }
    #[inline]
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(memcore::OwnerEpoch::new(u32::decode(buf)?))
    }
    #[inline]
    fn encoded_len(&self) -> usize {
        4
    }
}

impl Wire for memcore::WriteId {
    // One 12-byte chunk each way: the writer (`u32::MAX` for an initial
    // write), then the sequence number.
    #[inline]
    fn encode(&self, buf: &mut BytesMut) {
        let writer = self.writer().map_or(u32::MAX, |node| node.index() as u32);
        let mut chunk = [0u8; 12];
        chunk[..4].copy_from_slice(&writer.to_be_bytes());
        chunk[4..].copy_from_slice(&self.seq().to_be_bytes());
        buf.put_slice(&chunk);
    }
    #[inline]
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let (writer, seq) = take(buf, 12)?.split_at(4);
        let writer = u32::from_be_bytes(writer.try_into().expect("4 of 12 bytes"));
        let seq = u64::from_be_bytes(seq.try_into().expect("8 of 12 bytes"));
        if writer == u32::MAX {
            Ok(memcore::WriteId::initial(memcore::Location::new(
                seq as u32,
            )))
        } else {
            Ok(memcore::WriteId::new(memcore::NodeId::new(writer), seq))
        }
    }
    #[inline]
    fn encoded_len(&self) -> usize {
        12
    }
}

/// Decodes `len` big-endian clock components straight into a
/// [`VectorClock`](vclock::VectorClock) — inline storage up to
/// [`vclock::INLINE_PROCESSES`], no intermediate `Vec<u64>`. The run is
/// bounds-checked as a whole first, so a hostile `len` reserves nothing.
///
/// # Errors
///
/// Returns [`CodecError::Truncated`] if fewer than `8 * len` bytes remain.
#[inline]
pub fn decode_clock_components(
    len: usize,
    buf: &mut &[u8],
) -> Result<vclock::VectorClock, CodecError> {
    let bytes = len.checked_mul(8).ok_or(CodecError::Truncated)?;
    let run = take(buf, bytes)?;
    Ok(vclock::VectorClock::from_components(
        run.chunks_exact(8)
            .map(|c| u64::from_be_bytes(c.try_into().expect("chunks_exact(8) yields 8 bytes"))),
    ))
}

impl Wire for vclock::VectorClock {
    #[inline]
    fn encode(&self, buf: &mut BytesMut) {
        // Same wire shape as Vec<u64> (u32 length prefix + components),
        // written straight from the borrowed slice — no clone.
        (self.len() as u32).encode(buf);
        for &c in self.iter() {
            c.encode(buf);
        }
    }
    #[inline]
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let len = u32::decode(buf)? as usize;
        decode_clock_components(len, buf)
    }
    #[inline]
    fn encoded_len(&self) -> usize {
        4 + 8 * self.len()
    }
}

impl Wire for memcore::Word {
    #[inline]
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            memcore::Word::Zero => buf.put_u8(0),
            memcore::Word::Int(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
            memcore::Word::Bool(v) => {
                buf.put_u8(2);
                v.encode(buf);
            }
            memcore::Word::Float(v) => {
                buf.put_u8(3);
                v.encode(buf);
            }
        }
    }
    #[inline]
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        match u8::decode(buf)? {
            0 => Ok(memcore::Word::Zero),
            1 => Ok(memcore::Word::Int(i64::decode(buf)?)),
            2 => Ok(memcore::Word::Bool(bool::decode(buf)?)),
            3 => Ok(memcore::Word::Float(f64::decode(buf)?)),
            d => Err(CodecError::BadDiscriminant(d)),
        }
    }
    #[inline]
    fn encoded_len(&self) -> usize {
        match self {
            memcore::Word::Zero => 1,
            memcore::Word::Int(_) | memcore::Word::Float(_) => 1 + 8,
            memcore::Word::Bool(_) => 1 + 1,
        }
    }
}

/// Appends `value` to `buf` as one frame: a `u32` length prefix written
/// from the exact [`encoded_len`](Wire::encoded_len), then the encoding —
/// one pass, in place, no scratch buffer.
///
/// # Panics
///
/// Panics if `value` encodes to a different length than its
/// `encoded_len()` claimed (the prefix would lie and the stream would lose
/// framing), or to more than `u32::MAX` bytes.
pub fn frame_into<T: Wire>(value: &T, buf: &mut BytesMut) {
    let len = value.encoded_len();
    let prefix = u32::try_from(len).expect("frame bodies stay below 4 GiB");
    buf.reserve(4 + len);
    buf.put_u32(prefix);
    let body_at = buf.len();
    value.encode(buf);
    assert_eq!(
        buf.len() - body_at,
        len,
        "encoded_len() must be exact: the frame's length prefix was written from it"
    );
}

/// Encodes a value into a fresh frame with a `u32` length prefix.
pub fn frame<T: Wire>(value: &T) -> Bytes {
    // `frame_into` reserves the exact size, so this is one allocation.
    let mut framed = BytesMut::new();
    frame_into(value, &mut framed);
    framed.freeze()
}

/// Decodes a length-prefixed frame produced by [`frame`] off the front of
/// the cursor.
///
/// # Errors
///
/// Returns [`CodecError`] if the frame is truncated or the body is
/// malformed.
pub fn deframe<T: Wire>(buf: &mut &[u8]) -> Result<T, CodecError> {
    let len = u32::decode(buf)? as usize;
    let mut body = take(buf, len)?;
    T::decode(&mut body)
}

/// Size of a [`FrameDecoder`]'s buffer until a frame needs more.
const DECODER_CHUNK: usize = 16 * 1024;

/// Least room [`FrameDecoder::read_from`] offers the reader, so a socket
/// read is never asked for a sliver.
const MIN_READ: usize = DECODER_CHUNK / 4;

/// A drained [`FrameDecoder`] whose buffer grew past this gives it back.
const DECODER_RETAIN: usize = 8 * DECODER_CHUNK;

/// Incremental reassembly of [`frame`]-format streams, as produced by a
/// byte-stream transport (TCP) that delivers frames in arbitrary chunks.
///
/// Bytes go in either by copy ([`extend`](FrameDecoder::extend)) or — the
/// transport's way — by reading straight into the decoder's own spare
/// room ([`read_from`](FrameDecoder::read_from)). Complete frames come
/// out as views of that same buffer
/// ([`next_body`](FrameDecoder::next_body)): consuming a frame moves a
/// cursor, and buffered bytes are only ever moved when the room at the end
/// runs out, at most one partial frame at a time.
///
/// The declared body length of every frame is checked against a bound
/// *before* the buffer grows for it, so a corrupt or hostile length
/// prefix cannot drive allocation; decoding never panics on any input
/// byte sequence.
///
/// # Examples
///
/// ```
/// use simnet::codec::{frame, FrameDecoder, Wire};
///
/// let framed = frame(&vec![1u64, 2, 3]);
/// let mut dec = FrameDecoder::new(1024);
/// // Bytes arrive split across arbitrary chunk boundaries…
/// dec.extend(&framed[..3]);
/// assert!(dec.next_body()?.is_none()); // header incomplete
/// dec.extend(&framed[3..]);
/// // …and the frame body comes out whole.
/// let mut body = dec.next_body()?.unwrap();
/// assert_eq!(Vec::<u64>::decode(&mut body)?, vec![1, 2, 3]);
/// # Ok::<(), simnet::codec::CodecError>(())
/// ```
#[derive(Debug)]
pub struct FrameDecoder {
    /// Backing store, initialised to its full length; the unread stream
    /// is `buf[head..tail]`.
    buf: Vec<u8>,
    head: usize,
    tail: usize,
    max_frame: usize,
}

impl FrameDecoder {
    /// Creates a decoder rejecting frames with bodies longer than
    /// `max_frame` bytes.
    #[must_use]
    pub fn new(max_frame: usize) -> Self {
        FrameDecoder {
            buf: Vec::new(),
            head: 0,
            tail: 0,
            max_frame,
        }
    }

    /// Appends raw stream bytes to the reassembly buffer.
    pub fn extend(&mut self, chunk: &[u8]) {
        self.make_room(chunk.len());
        self.buf[self.tail..self.tail + chunk.len()].copy_from_slice(chunk);
        self.tail += chunk.len();
    }

    /// Reads once from `r` straight into the decoder's spare room (at
    /// least a few KiB). Returns the byte count and whether the read
    /// filled the room, in which case more may be waiting.
    ///
    /// # Errors
    ///
    /// Propagates the reader's error.
    ///
    /// # Panics
    ///
    /// Panics if `r` reports more bytes than the buffer it was handed.
    pub fn read_from(&mut self, r: &mut impl Read) -> io::Result<(usize, bool)> {
        self.make_room(MIN_READ);
        let room = &mut self.buf[self.tail..];
        let offered = room.len();
        let n = r.read(room)?;
        assert!(
            n <= offered,
            "reader reported more bytes than it was offered"
        );
        self.tail += n;
        Ok((n, n == offered))
    }

    /// Bytes buffered but not yet drained as complete frames.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.tail - self.head
    }

    /// Takes the next complete frame body as a view of the decoder's
    /// buffer, or `Ok(None)` if more bytes are needed.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Oversize`] when a frame header declares a body
    /// longer than the bound. The stream is unrecoverable after an error
    /// (framing sync is lost); callers should drop the connection.
    pub fn next_body(&mut self) -> Result<Option<&[u8]>, CodecError> {
        let Some((prefix, rest)) = self.buf[self.head..self.tail].split_first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_be_bytes(*prefix) as usize;
        if len > self.max_frame {
            return Err(CodecError::Oversize {
                len,
                max: self.max_frame,
            });
        }
        if rest.len() < len {
            return Ok(None);
        }
        let body_at = self.head + 4;
        self.head = body_at + len;
        Ok(Some(&self.buf[body_at..self.head]))
    }

    /// [`next_body`](FrameDecoder::next_body), copied out into an owned
    /// [`Bytes`] for callers that keep the frame.
    ///
    /// # Errors
    ///
    /// As [`next_body`](FrameDecoder::next_body).
    pub fn next_frame(&mut self) -> Result<Option<Bytes>, CodecError> {
        Ok(self.next_body()?.map(Bytes::from))
    }

    /// Makes `buf[tail..]` at least `need` bytes long.
    fn make_room(&mut self, need: usize) {
        if self.head == self.tail {
            // Drained: restart at the front, and let go of a buffer that
            // one large frame inflated.
            self.head = 0;
            self.tail = 0;
            if self.buf.len() > DECODER_RETAIN {
                self.buf = Vec::new();
            }
        }
        if self.buf.len() - self.tail >= need {
            return;
        }
        let pending = self.tail - self.head;
        if self.buf.len() - pending >= need {
            // Room exists once the consumed prefix is reclaimed. What
            // moves is the one partial frame at the end, and the whole
            // buffer was filled since the last move, so this stays linear
            // in the bytes received.
            self.buf.copy_within(self.head..self.tail, 0);
        } else {
            // Doubling keeps regrowth linear too; nothing is ever sized
            // from a declared length, only from bytes that arrived.
            let grown = (pending + need).max(2 * self.buf.len()).max(DECODER_CHUNK);
            let mut buf = vec![0u8; grown];
            buf[..pending].copy_from_slice(&self.buf[self.head..self.tail]);
            self.buf = buf;
        }
        self.head = 0;
        self.tail = pending;
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn encoded<T: Wire>(value: &T) -> Vec<u8> {
        let mut buf = BytesMut::new();
        value.encode(&mut buf);
        buf.to_vec()
    }

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = encoded(&value);
        assert_eq!(bytes.len(), value.encoded_len());
        let mut cursor = &bytes[..];
        assert_eq!(T::decode(&mut cursor).unwrap(), value);
        assert!(cursor.is_empty());
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(255u8);
        round_trip(123456u32);
        round_trip(u64::MAX);
        round_trip(-42i64);
        round_trip(3.25f64);
        round_trip(true);
        round_trip(false);
    }

    #[test]
    fn collections_round_trip() {
        round_trip(vec![1u64, 2, 3]);
        round_trip(Vec::<u32>::new());
        round_trip(vec![0u8, 1, 254, 255]);
        round_trip(Vec::<u8>::new());
        round_trip(vec![vec![7u8; 3], vec![], vec![9u8]]);
        round_trip(Some(7u32));
        round_trip(Option::<u32>::None);
        round_trip((5u32, true));
    }

    #[test]
    fn truncated_buffers_error() {
        assert_eq!(u32::decode(&mut &[0u8, 0][..]), Err(CodecError::Truncated));
        assert_eq!(bool::decode(&mut &[][..]), Err(CodecError::Truncated));
    }

    #[test]
    fn failed_fixed_width_reads_leave_the_cursor_alone() {
        let mut cursor = &[1u8, 2, 3][..];
        assert_eq!(u64::decode(&mut cursor), Err(CodecError::Truncated));
        assert_eq!(cursor, [1, 2, 3]);
        assert_eq!(take(&mut cursor, 4), Err(CodecError::Truncated));
        assert_eq!(take(&mut cursor, 2).unwrap(), [1, 2]);
        assert_eq!(cursor, [3]);
    }

    #[test]
    fn bad_discriminants_error() {
        assert_eq!(
            bool::decode(&mut &[7u8][..]),
            Err(CodecError::BadDiscriminant(7))
        );
        assert_eq!(
            Option::<u32>::decode(&mut &[9u8, 0, 0, 0, 0][..]),
            Err(CodecError::BadDiscriminant(9))
        );
    }

    #[test]
    fn frames_round_trip_and_detect_truncation() {
        let framed = frame(&vec![1u64, 2]);
        let mut cursor = &framed[..];
        assert_eq!(deframe::<Vec<u64>>(&mut cursor).unwrap(), vec![1, 2]);
        assert!(cursor.is_empty());

        let mut cut = &framed[..framed.len() - 1];
        assert_eq!(deframe::<Vec<u64>>(&mut cut), Err(CodecError::Truncated));
    }

    #[test]
    fn frame_into_appends_in_place_after_what_is_already_there() {
        let mut buf = BytesMut::new();
        frame_into(&7u64, &mut buf);
        frame_into(&vec![1u8, 2, 3], &mut buf);
        let mut joined = frame(&7u64).to_vec();
        joined.extend_from_slice(&frame(&vec![1u8, 2, 3]));
        assert_eq!(&buf[..], &joined[..]);
    }

    /// A type whose `encoded_len` lies: one-pass framing must refuse it
    /// rather than emit a prefix that disagrees with the body.
    struct Liar;

    impl Wire for Liar {
        fn encode(&self, buf: &mut BytesMut) {
            buf.put_u8(0);
            buf.put_u8(0);
        }
        fn decode(_: &mut &[u8]) -> Result<Self, CodecError> {
            Ok(Liar)
        }
        fn encoded_len(&self) -> usize {
            1
        }
    }

    #[test]
    #[should_panic(expected = "encoded_len() must be exact")]
    fn framing_refuses_an_inexact_encoded_len() {
        let _ = frame(&Liar);
    }

    #[test]
    fn vector_clock_sized_payload_grows_with_n() {
        // A vector timestamp over n processes costs 4 + 8n bytes on the
        // wire — the quantity the overhead ablation reports.
        let vt_4 = vec![0u64; 4];
        let vt_16 = vec![0u64; 16];
        assert_eq!(vt_4.encoded_len(), 4 + 8 * 4);
        assert_eq!(vt_16.encoded_len(), 4 + 8 * 16);
    }

    #[test]
    fn domain_types_round_trip() {
        round_trip(memcore::NodeId::new(7));
        round_trip(memcore::Location::new(123));
        round_trip(memcore::PageId::new(9));
        round_trip(memcore::OwnerEpoch::new(3));
        round_trip(memcore::WriteId::new(memcore::NodeId::new(1), 44));
        round_trip(memcore::WriteId::initial(memcore::Location::new(3)));
        round_trip(vclock::VectorClock::from([0u64, 5, 2]));
        round_trip(vclock::VectorClock::from(vec![9u64; 40]));
        round_trip(memcore::Word::Zero);
        round_trip(memcore::Word::Int(-7));
        round_trip(memcore::Word::Bool(true));
        round_trip(memcore::Word::Float(2.5));
    }

    #[test]
    fn clocks_within_the_inline_bound_decode_without_spilling() {
        let vt = vclock::VectorClock::from(vec![3u64; vclock::INLINE_PROCESSES]);
        let bytes = encoded(&vt);
        let back = vclock::VectorClock::decode(&mut &bytes[..]).unwrap();
        assert!(back.is_inline());
        assert_eq!(back, vt);
    }

    #[test]
    fn errors_display() {
        assert_eq!(CodecError::Truncated.to_string(), "buffer truncated");
        assert_eq!(
            CodecError::BadDiscriminant(3).to_string(),
            "unknown discriminant 3"
        );
        assert_eq!(
            CodecError::Oversize { len: 900, max: 64 }.to_string(),
            "frame of 900 bytes exceeds the 64-byte bound"
        );
    }

    #[test]
    fn hostile_sequence_lengths_fail_before_they_allocate() {
        // A 40-byte frame body whose byte vector claims 4 GiB − 1: the
        // bulk path must see that 36 bytes cannot back that and stop,
        // not reserve for it. Were the reservation made first, this test
        // would ask the allocator for 4 GiB (and under the old per-item
        // path, for 64 Ki entries per nesting level).
        let body = vec![0xFFu8; 40];
        let framed = {
            let mut f = (body.len() as u32).to_be_bytes().to_vec();
            f.extend_from_slice(&body);
            f
        };
        assert_eq!(
            deframe::<Vec<u8>>(&mut &framed[..]),
            Err(CodecError::Truncated)
        );
        assert_eq!(
            Vec::<u64>::decode(&mut &body[..]),
            Err(CodecError::Truncated)
        );
        assert_eq!(
            vclock::VectorClock::decode(&mut &body[..]),
            Err(CodecError::Truncated)
        );
        // Nested: every inner vector repeats the lie.
        assert_eq!(
            Vec::<Vec<u8>>::decode(&mut &body[..]),
            Err(CodecError::Truncated)
        );
    }

    /// Deterministic xorshift for the fuzz tests below — no external rng
    /// needed, and failures reproduce from the printed seed.
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
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n.max(1) as u64) as usize
        }
    }

    #[test]
    fn frame_decoder_reassembles_across_arbitrary_chunking() {
        // Property: for random frame sequences split at random chunk
        // boundaries, the decoder yields exactly the original bodies.
        for seed in 1..=32u64 {
            let mut rng = XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let payloads: Vec<Vec<u64>> = (0..rng.below(8) + 1)
                .map(|_| (0..rng.below(64)).map(|_| rng.next()).collect())
                .collect();
            let mut stream = Vec::new();
            for p in &payloads {
                stream.extend_from_slice(&frame(p));
            }
            let mut dec = FrameDecoder::new(1 << 16);
            let mut out = Vec::new();
            let mut offset = 0;
            while offset < stream.len() {
                let take = (rng.below(13) + 1).min(stream.len() - offset);
                dec.extend(&stream[offset..offset + take]);
                offset += take;
                while let Some(mut body) = dec.next_body().unwrap() {
                    out.push(Vec::<u64>::decode(&mut body).unwrap());
                    assert!(body.is_empty());
                }
            }
            assert_eq!(out, payloads, "seed {seed}");
            assert_eq!(dec.pending(), 0, "seed {seed}");
        }
    }

    #[test]
    fn frame_decoder_reads_frames_larger_than_its_buffer_through_a_reader() {
        // Frames from empty up to several times the decoder's initial
        // buffer, delivered by a reader that hands over a random sliver
        // per call: the read path has to reclaim consumed room, grow for
        // the big ones, and give the buffer back afterwards.
        struct Slivers<'a> {
            stream: &'a [u8],
            rng: XorShift,
        }
        impl Read for Slivers<'_> {
            fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
                let n = (self.rng.below(3 * DECODER_CHUNK) + 1)
                    .min(out.len())
                    .min(self.stream.len());
                let (now, later) = self.stream.split_at(n);
                out[..n].copy_from_slice(now);
                self.stream = later;
                Ok(n)
            }
        }
        for seed in 1..=8u64 {
            let mut rng = XorShift(seed.wrapping_mul(0xA24B_AED4_963E_E407));
            let payloads: Vec<Vec<u8>> = (0..40)
                .map(|i| {
                    let len = match i % 4 {
                        0 => rng.below(32),
                        1 => rng.below(DECODER_CHUNK),
                        2 => DECODER_CHUNK - 8 + rng.below(16),
                        _ => rng.below(12 * DECODER_CHUNK),
                    };
                    (0..len).map(|_| rng.next() as u8).collect()
                })
                .collect();
            let mut stream = Vec::new();
            for p in &payloads {
                stream.extend_from_slice(&frame(p));
            }
            let mut reader = Slivers {
                stream: &stream,
                rng: XorShift(seed),
            };
            let mut dec = FrameDecoder::new(1 << 20);
            let mut out = Vec::new();
            loop {
                let (n, _) = dec.read_from(&mut reader).unwrap();
                if n == 0 {
                    break;
                }
                while let Some(mut body) = dec.next_body().unwrap() {
                    out.push(Vec::<u8>::decode(&mut body).unwrap());
                }
            }
            assert!(out == payloads, "seed {seed}: frames differ");
            assert_eq!(dec.pending(), 0, "seed {seed}");
            // Drained, and asked for room again: the inflated buffer is
            // gone.
            dec.extend(&[0]);
            assert!(dec.buf.len() <= DECODER_RETAIN, "seed {seed}");
        }
    }

    #[test]
    fn a_thousand_small_frames_in_one_extend_are_consumed_where_they_lie() {
        let mut stream = Vec::new();
        for i in 0..1000u64 {
            stream.extend_from_slice(&frame(&(i, i as u32)));
        }
        let mut dec = FrameDecoder::new(64);
        dec.extend(&stream);
        let mut last: Option<*const u8> = None;
        for i in 0..1000u64 {
            let mut body = dec.next_body().unwrap().expect("frame present");
            // Each body sits one frame (4 + 12 bytes) past the previous
            // one in the same buffer: consuming a frame moved a cursor,
            // not the 999 frames behind it.
            if let Some(prev) = last {
                assert_eq!(body.as_ptr() as usize - prev as usize, 16, "frame {i}");
            }
            last = Some(body.as_ptr());
            assert_eq!(<(u64, u32)>::decode(&mut body).unwrap(), (i, i as u32));
        }
        assert_eq!(dec.next_body(), Ok(None));
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn frame_decoder_bounds_declared_lengths() {
        let mut dec = FrameDecoder::new(64);
        // Header declares a 1 GiB body: rejected before any body bytes
        // arrive (and before any allocation for it).
        dec.extend(&(1u32 << 30).to_be_bytes());
        assert_eq!(
            dec.next_body(),
            Err(CodecError::Oversize {
                len: 1 << 30,
                max: 64
            })
        );
        assert!(dec.buf.len() <= DECODER_CHUNK);
    }

    #[test]
    fn frame_decoder_waits_on_truncated_frames() {
        let framed = frame(&vec![7u64; 4]);
        let mut dec = FrameDecoder::new(1 << 16);
        dec.extend(&framed[..framed.len() - 1]);
        // A truncated frame is indistinguishable from a slow sender: the
        // decoder reports "need more" rather than failing.
        assert_eq!(dec.next_frame(), Ok(None));
        assert_eq!(dec.pending(), framed.len() - 1);
        dec.extend(&framed[framed.len() - 1..]);
        assert_eq!(dec.next_frame().unwrap().unwrap(), framed.slice(4..));
    }

    #[test]
    fn decoding_random_garbage_never_panics() {
        // Fuzz the typed decoders with random byte soup: every outcome must
        // be a clean `Ok`/`Err`, never a panic or runaway allocation.
        for seed in 1..=64u64 {
            let mut rng = XorShift(seed.wrapping_mul(0xD134_2543_DE82_EF95));
            let garbage: Vec<u8> = (0..rng.below(48)).map(|_| rng.next() as u8).collect();
            let _ = Vec::<u64>::decode(&mut &garbage[..]);
            let _ = Vec::<u8>::decode(&mut &garbage[..]);
            let _ = Vec::<Vec<u8>>::decode(&mut &garbage[..]);
            let _ = Option::<memcore::Word>::decode(&mut &garbage[..]);
            let _ = memcore::Word::decode(&mut &garbage[..]);
            let _ = vclock::VectorClock::decode(&mut &garbage[..]);
            let _ = memcore::WriteId::decode(&mut &garbage[..]);
            let _ = deframe::<Vec<u64>>(&mut &garbage[..]);
            let mut dec = FrameDecoder::new(1 << 10);
            dec.extend(&garbage);
            // Drain until the decoder wants more bytes or rejects the
            // stream; either way it must return, not panic.
            while let Ok(Some(_)) = dec.next_body() {}
        }
    }

    /// The per-item sequence codec the bulk hooks replaced, kept as the
    /// reference the new paths are compared against.
    fn reference_encode_vec<T: Wire>(items: &[T], buf: &mut BytesMut) {
        (items.len() as u32).encode(buf);
        for item in items {
            item.encode(buf);
        }
    }

    fn reference_decode_vec<T: Wire>(buf: &mut &[u8]) -> Result<Vec<T>, CodecError> {
        let len = u32::decode(buf)? as usize;
        let mut out = Vec::with_capacity(len.min(1 << 16));
        for _ in 0..len {
            out.push(T::decode(buf)?);
        }
        Ok(out)
    }

    /// New and reference codecs agree on `items` (bytes and length) and on
    /// what `wire` — arbitrary bytes — decodes to, down to the bytes left
    /// over.
    fn agrees_with_reference<T>(items: &Vec<T>, wire: &[u8])
    where
        T: Wire + PartialEq + std::fmt::Debug,
    {
        let mut reference = BytesMut::new();
        reference_encode_vec(items, &mut reference);
        let bytes = encoded(items);
        assert_eq!(bytes, reference.to_vec());
        assert_eq!(items.encoded_len(), bytes.len());

        for input in [&bytes[..], wire] {
            let (mut new_cur, mut ref_cur) = (input, input);
            let new = Vec::<T>::decode(&mut new_cur);
            let reference = reference_decode_vec::<T>(&mut ref_cur);
            assert_eq!(new, reference);
            if new.is_ok() {
                assert_eq!(new_cur, ref_cur, "consumed different amounts");
            }
        }
    }

    proptest! {
        #[test]
        fn byte_vectors_match_the_per_item_reference(
            items in proptest::collection::vec(any::<u8>(), 0..300),
            wire in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            agrees_with_reference(&items, &wire);
            // A true prefix of a valid encoding fails both ways alike.
            let bytes = encoded(&items);
            agrees_with_reference(&items, &bytes[..bytes.len() / 2]);
        }

        #[test]
        fn other_vectors_match_the_per_item_reference(
            words in proptest::collection::vec(any::<u64>(), 0..40),
            pairs in proptest::collection::vec((any::<u32>(), any::<bool>()), 0..40),
            nested in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..20), 0..10),
            wire in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            agrees_with_reference(&words, &wire);
            agrees_with_reference(&pairs, &wire);
            agrees_with_reference(&nested, &wire);
        }
    }
}
