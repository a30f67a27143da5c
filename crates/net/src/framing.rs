//! Frame and handshake I/O over byte streams.
//!
//! The wire format is the workspace's existing length-prefixed codec
//! ([`simnet::codec::frame`]): a big-endian `u32` body length followed by
//! the body, with every protocol type encoded by its [`Wire`] impl. This
//! module adds the stream side — writing whole frames to a `Write`,
//! queueing them for a socket that may take only part ([`OutBuf`]),
//! reassembling them from a `Read` through the bounded
//! [`FrameDecoder`] — plus the connection-opening handshake.
//!
//! # Frame layout
//!
//! ```text
//! +----------------+----------------------+
//! | len: u32 (BE)  | body: len bytes      |
//! +----------------+----------------------+
//! ```
//!
//! Peer connections carry envelope frames:
//!
//! ```text
//! body = src: u32 | dst: u32 | payload: Wire encoding of M
//! ```
//!
//! Every connection opens with a hello frame in each direction:
//!
//! ```text
//! body = magic: u32 ("DSM1") | version: u8 | kind: u8 | node: u32
//! ```

use std::io::{self, Read, Write};

use bytes::{Buf, Bytes, BytesMut};
use memcore::NodeId;
use simnet::codec::{frame, frame_into, CodecError, FrameDecoder, Wire};
use simnet::Envelope;

/// First four bytes of every hello: `"DSM1"`.
pub const MAGIC: u32 = 0x4453_4D31;

/// Wire-protocol version; bumped on any incompatible frame change.
pub const VERSION: u8 = 1;

/// Maximum accepted frame body (16 MiB). Far above any protocol message —
/// a frame this size indicates corruption or a hostile peer, and the
/// bound keeps a bad length prefix from driving allocation.
pub const MAX_FRAME: usize = 16 << 20;

/// An idle [`OutBuf`] whose allocation grew past this gives it back, so a
/// burst (or one large frame) does not pin its high-water mark per peer.
const OUT_RETAIN: usize = 64 * 1024;

/// What a connection is for, declared in its hello.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnKind {
    /// A node-to-node protocol link of the mesh.
    Peer,
    /// A control connection (load generator, orchestration).
    Ctrl,
}

/// The identity frame opening every connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hello {
    /// Why the connection was opened.
    pub kind: ConnKind,
    /// The sender's node id (`u32::MAX` for controllers, which are not
    /// cluster nodes).
    pub node: NodeId,
}

/// The sentinel node id controllers identify with.
#[must_use]
pub fn ctrl_node() -> NodeId {
    NodeId::new(u32::MAX)
}

fn invalid<E: std::fmt::Display>(what: &str, err: E) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("{what}: {err}"))
}

/// Writes `value` as one frame.
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_frame<T: Wire>(w: &mut impl Write, value: &T) -> io::Result<()> {
    w.write_all(&frame(value))
}

/// Reads the next frame body from a blocking stream, `Ok(None)` on clean
/// EOF at a frame boundary.
///
/// # Errors
///
/// Transport errors propagate; an EOF inside a frame or an oversize
/// length prefix is [`io::ErrorKind::InvalidData`] /
/// [`io::ErrorKind::UnexpectedEof`].
pub fn read_frame(r: &mut impl Read, dec: &mut FrameDecoder) -> io::Result<Option<Bytes>> {
    loop {
        if let Some(body) = dec.next_frame().map_err(|e| invalid("bad frame", e))? {
            return Ok(Some(body));
        }
        let (n, _) = dec.read_from(r)?;
        if n == 0 {
            return if dec.pending() == 0 {
                Ok(None)
            } else {
                Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended mid-frame",
                ))
            };
        }
    }
}

/// Decodes a complete frame body as `T`, rejecting trailing bytes.
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidData`] on malformed bodies.
pub fn decode_body<T: Wire>(mut body: &[u8]) -> io::Result<T> {
    let value = T::decode(&mut body).map_err(|e| invalid("bad frame body", e))?;
    if !body.is_empty() {
        return Err(invalid(
            "bad frame body",
            format!("{} trailing bytes", body.len()),
        ));
    }
    Ok(value)
}

/// Frames an envelope for a peer link: `src | dst | payload`.
#[must_use]
pub fn encode_envelope<M: Wire>(env: &Envelope<M>) -> Bytes {
    frame(&EnvelopeBody::new(env))
}

/// Encodes an envelope *body* without the length prefix: the payload a
/// session frame carries, so reconnect-mode links can wrap
/// `src | dst | payload` inside a `SessionMsg::Data` frame.
#[must_use]
pub fn encode_envelope_body<M: Wire>(env: &Envelope<M>) -> Bytes {
    EnvelopeBody::new(env).to_bytes()
}

/// An opaque, already-encoded frame body.
///
/// Its [`Wire`] impl copies the bytes through verbatim and `decode`
/// consumes the whole remaining buffer, which is why session frames
/// place the payload last: `SessionMsg::<RawBody>::decode` hands the
/// rest of the frame to `RawBody`, which copies it out of the receive
/// buffer — the session layer may hold a body back until the gap before
/// it fills, so it cannot stay a view. The mesh uses it to run
/// [`ReliableLink`](dsm_faults::ReliableLink) sessions over encoded
/// envelopes without the session layer knowing the protocol type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RawBody(pub Bytes);

impl Wire for RawBody {
    fn encode(&self, buf: &mut BytesMut) {
        buf.extend_from_slice(&self.0);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(RawBody(Bytes::from(std::mem::take(buf))))
    }
    fn encoded_len(&self) -> usize {
        self.0.len()
    }
}

/// Decodes a peer-link frame body, where it lies, back into an envelope.
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidData`] on malformed bodies.
pub fn decode_envelope_slice<M: Wire>(mut body: &[u8]) -> io::Result<Envelope<M>> {
    let bad = |e| invalid("bad envelope", e);
    let src = NodeId::decode(&mut body).map_err(bad)?;
    let dst = NodeId::decode(&mut body).map_err(bad)?;
    let payload = M::decode(&mut body).map_err(bad)?;
    if !body.is_empty() {
        return Err(invalid(
            "bad envelope",
            format!("{} trailing bytes", body.len()),
        ));
    }
    Ok(Envelope::new(src, dst, payload))
}

/// [`decode_envelope_slice`] for a body held as [`Bytes`].
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidData`] on malformed bodies.
pub fn decode_envelope<M: Wire>(body: Bytes) -> io::Result<Envelope<M>> {
    decode_envelope_slice(&body)
}

/// Borrowing encoder so an envelope is framed without cloning the payload.
///
/// The body's length is measured once, at construction: a sender checks
/// it against [`MAX_FRAME`] and [`frame_into`] writes the length prefix
/// from it, so a send walks a batch's parts for their length once, not
/// twice. `frame_into` still asserts that the encoding matches it.
pub(crate) struct EnvelopeBody<'a, M> {
    env: &'a Envelope<M>,
    len: usize,
}

impl<'a, M: Wire> EnvelopeBody<'a, M> {
    pub(crate) fn new(env: &'a Envelope<M>) -> Self {
        EnvelopeBody {
            env,
            len: 4 + 4 + env.payload.encoded_len(),
        }
    }

    /// The body as one buffer, without a length prefix.
    pub(crate) fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.len);
        self.encode(&mut buf);
        buf.freeze()
    }
}

impl<M: Wire> Wire for EnvelopeBody<'_, M> {
    fn encode(&self, buf: &mut BytesMut) {
        self.env.src.encode(buf);
        self.env.dst.encode(buf);
        self.env.payload.encode(buf);
    }
    fn decode(_buf: &mut &[u8]) -> Result<Self, CodecError> {
        unreachable!("EnvelopeBody is encode-only; decode via decode_envelope")
    }
    fn encoded_len(&self) -> usize {
        self.len
    }
}

/// One peer's outbound bytes: frames encoded back to back into a single
/// contiguous buffer, and a cursor over how much of it the socket has
/// taken.
///
/// A frame is encoded exactly once, straight into this buffer
/// ([`push_frame`](OutBuf::push_frame)); a write hands the socket
/// everything unsent in one slice ([`write_to`](OutBuf::write_to)), so
/// any number of queued frames cost one syscall. A partial write just
/// advances the cursor — wherever it lands, mid-frame or mid-length-
/// prefix — and the next write resumes from it; frame boundaries are not
/// tracked because nothing needs them.
#[derive(Debug, Default)]
pub struct OutBuf {
    buf: BytesMut,
    /// `buf[..sent]` is already with the kernel.
    sent: usize,
}

impl OutBuf {
    /// `true` iff every queued byte has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sent == self.buf.len()
    }

    /// Queues `value` as one frame.
    pub fn push_frame<T: Wire>(&mut self, value: &T) {
        // Under backpressure, reclaim the written prefix once it is at
        // least as long as what remains: each byte moves at most once per
        // halving, so a long backlog stays linear.
        if self.sent > 0 && self.sent >= self.buf.len() - self.sent {
            self.buf.advance(self.sent);
            self.sent = 0;
        }
        frame_into(value, &mut self.buf);
    }

    /// Queues an envelope as one peer-link frame: `src | dst | payload`.
    pub fn push_envelope<M: Wire>(&mut self, env: &Envelope<M>) {
        self.push_frame(&EnvelopeBody::new(env));
    }

    /// Issues one `write` of everything unsent and advances the cursor by
    /// what was taken.
    ///
    /// # Errors
    ///
    /// Propagates the writer's error (including `WouldBlock`), leaving
    /// the cursor where it was.
    pub fn write_to(&mut self, w: &mut impl Write) -> io::Result<usize> {
        let n = w.write(&self.buf[self.sent..])?;
        self.sent += n;
        if self.is_empty() {
            self.clear();
        }
        Ok(n)
    }

    /// Drops everything queued (the connection it was for is gone).
    pub fn clear(&mut self) {
        self.sent = 0;
        if self.buf.capacity() > OUT_RETAIN {
            self.buf = BytesMut::new();
        } else {
            self.buf.clear();
        }
    }
}

impl Wire for Hello {
    fn encode(&self, buf: &mut BytesMut) {
        MAGIC.encode(buf);
        VERSION.encode(buf);
        match self.kind {
            ConnKind::Peer => 0u8.encode(buf),
            ConnKind::Ctrl => 1u8.encode(buf),
        }
        (self.node.index() as u32).encode(buf);
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let magic = u32::decode(buf)?;
        if magic != MAGIC {
            return Err(CodecError::BadDiscriminant((magic >> 24) as u8));
        }
        let version = u8::decode(buf)?;
        if version != VERSION {
            return Err(CodecError::BadDiscriminant(version));
        }
        let kind = match u8::decode(buf)? {
            0 => ConnKind::Peer,
            1 => ConnKind::Ctrl,
            d => return Err(CodecError::BadDiscriminant(d)),
        };
        Ok(Hello {
            kind,
            node: NodeId::new(u32::decode(buf)?),
        })
    }

    fn encoded_len(&self) -> usize {
        4 + 1 + 1 + 4
    }
}

/// Sends this side's hello.
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_hello(w: &mut impl Write, kind: ConnKind, node: NodeId) -> io::Result<()> {
    write_frame(w, &Hello { kind, node })
}

/// Reads and validates the peer's hello.
///
/// # Errors
///
/// Transport errors propagate; a missing, malformed, or wrong-magic hello
/// is [`io::ErrorKind::InvalidData`].
pub fn read_hello(r: &mut impl Read, dec: &mut FrameDecoder) -> io::Result<Hello> {
    let body = read_frame(r, dec)?
        .ok_or_else(|| invalid("handshake", "connection closed before hello"))?;
    decode_body(&body)
}

#[cfg(test)]
mod tests {
    use std::io::Cursor;

    use super::*;

    #[test]
    fn hello_round_trips() {
        for hello in [
            Hello {
                kind: ConnKind::Peer,
                node: NodeId::new(3),
            },
            Hello {
                kind: ConnKind::Ctrl,
                node: ctrl_node(),
            },
        ] {
            let mut buf = Vec::new();
            write_hello(&mut buf, hello.kind, hello.node).unwrap();
            assert_eq!(buf.len(), 4 + hello.encoded_len());
            let mut dec = FrameDecoder::new(MAX_FRAME);
            let got = read_hello(&mut Cursor::new(buf), &mut dec).unwrap();
            assert_eq!(got, hello);
        }
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &(0xBAAD_F00Du32, (VERSION, (0u8, 7u32)))).unwrap();
        let mut dec = FrameDecoder::new(MAX_FRAME);
        let err = read_hello(&mut Cursor::new(buf), &mut dec).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn envelopes_round_trip_with_exact_length() {
        let env = Envelope::new(NodeId::new(1), NodeId::new(2), vec![9u64, 8, 7]);
        let framed = encode_envelope(&env);
        // length prefix + src + dst + Vec<u64> body
        assert_eq!(framed.len(), 4 + 4 + 4 + (4 + 3 * 8));
        let mut dec = FrameDecoder::new(MAX_FRAME);
        dec.extend(&framed);
        let body = dec.next_frame().unwrap().unwrap();
        let got: Envelope<Vec<u64>> = decode_envelope(body).unwrap();
        assert_eq!(got, env);
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &(7u32, 9u32)).unwrap();
        let mut dec = FrameDecoder::new(MAX_FRAME);
        dec.extend(&buf);
        let body = dec.next_frame().unwrap().unwrap();
        assert!(decode_body::<u32>(&body).is_err());
        let env: io::Result<Envelope<u32>> = decode_envelope(body);
        assert!(env.is_err());
    }

    #[test]
    fn frames_survive_arbitrary_chunking() {
        use rand::{Rng, SeedableRng};

        // A realistic connection-opening byte stream — hello, then a run
        // of envelopes of assorted sizes — delivered in pseudo-random
        // slivers (1..=17 bytes), the shape non-blocking sockets produce
        // when writers are split across writev calls. The decoder must
        // reassemble every frame byte-identically regardless of where
        // the cuts fall.
        let envs: Vec<Envelope<Vec<u64>>> = (0..50u64)
            .map(|i| {
                Envelope::new(
                    NodeId::new(1),
                    NodeId::new(0),
                    (0..i % 19).map(|j| i * 100 + j).collect(),
                )
            })
            .collect();
        let mut stream = Vec::new();
        write_hello(&mut stream, ConnKind::Peer, NodeId::new(1)).unwrap();
        for env in &envs {
            stream.extend_from_slice(&encode_envelope(env));
        }

        for seed in 0..8u64 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut dec = FrameDecoder::new(MAX_FRAME);
            let mut fed = 0usize;
            let mut frames = Vec::new();
            while fed < stream.len() {
                let take = rng.gen_range(1..=17usize).min(stream.len() - fed);
                dec.extend(&stream[fed..fed + take]);
                fed += take;
                while let Some(body) = dec.next_frame().unwrap() {
                    frames.push(body);
                }
            }
            assert_eq!(dec.pending(), 0, "seed {seed}: bytes left mid-frame");
            assert_eq!(frames.len(), 1 + envs.len());
            let hello: Hello = decode_body(&frames[0]).unwrap();
            assert_eq!(hello.kind, ConnKind::Peer);
            assert_eq!(hello.node, NodeId::new(1));
            for (env, body) in envs.iter().zip(&frames[1..]) {
                let got: Envelope<Vec<u64>> = decode_envelope(body.clone()).unwrap();
                assert_eq!(&got, env, "seed {seed}");
            }
        }
    }

    /// Takes at most `quota` bytes, then reports `WouldBlock` until
    /// topped up: a socket whose send buffer fills at a chosen byte.
    struct Choked {
        taken: Vec<u8>,
        quota: usize,
    }

    impl Write for Choked {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.quota == 0 {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.quota);
            self.taken.extend_from_slice(&buf[..n]);
            self.quota -= n;
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Writes until the buffer drains or the sink chokes.
    fn pump(out: &mut OutBuf, sink: &mut Choked) {
        while !out.is_empty() {
            match out.write_to(sink) {
                Ok(n) => assert!(n > 0),
                Err(e) => {
                    assert_eq!(e.kind(), io::ErrorKind::WouldBlock);
                    return;
                }
            }
        }
    }

    #[test]
    fn out_buf_resumes_a_write_that_stopped_inside_a_length_prefix() {
        let envs: Vec<Envelope<Vec<u8>>> = (0..40u8)
            .map(|i| Envelope::new(NodeId::new(1), NodeId::new(0), vec![i; usize::from(i) * 3]))
            .collect();
        let expect: Vec<u8> = envs
            .iter()
            .flat_map(|e| encode_envelope(e).to_vec())
            .collect();

        // Stop after every possible byte count of the first two frames —
        // which covers each of the four bytes of a length prefix, twice —
        // queue the rest behind the stalled cursor, and finish in slivers.
        let two_frames = encode_envelope(&envs[0]).len() + encode_envelope(&envs[1]).len();
        for first_gulp in 0..=two_frames {
            let mut out = OutBuf::default();
            out.push_envelope(&envs[0]);
            out.push_envelope(&envs[1]);
            let mut sink = Choked {
                taken: Vec::new(),
                quota: first_gulp,
            };
            pump(&mut out, &mut sink);
            assert_eq!(out.is_empty(), first_gulp == two_frames);
            for env in &envs[2..] {
                out.push_envelope(env);
                sink.quota = 3;
                pump(&mut out, &mut sink);
            }
            sink.quota = usize::MAX;
            pump(&mut out, &mut sink);
            assert!(out.is_empty());
            assert_eq!(sink.taken, expect, "first write took {first_gulp} bytes");
        }
    }

    #[test]
    fn out_buf_gives_back_a_buffer_one_large_frame_inflated() {
        let mut out = OutBuf::default();
        out.push_frame(&vec![0u8; 4 * OUT_RETAIN]);
        assert!(out.buf.capacity() >= 4 * OUT_RETAIN);
        let mut sink = Choked {
            taken: Vec::new(),
            quota: usize::MAX,
        };
        pump(&mut out, &mut sink);
        assert!(out.is_empty());
        assert!(out.buf.capacity() <= OUT_RETAIN);
        // Small traffic keeps its (small) allocation across drains.
        out.push_frame(&7u64);
        pump(&mut out, &mut sink);
        let kept = out.buf.capacity();
        assert!(kept > 0 && kept <= OUT_RETAIN);
        out.push_frame(&8u64);
        assert_eq!(out.buf.capacity(), kept);
    }

    #[test]
    fn session_frames_of_random_garbage_never_panic() {
        use dsm_faults::SessionMsg;

        // What the poller does to every inbound frame in reconnect mode,
        // fed byte soup behind each session discriminant.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..2000u32 {
            let mut garbage: Vec<u8> = (0..next() % 64).map(|_| next() as u8).collect();
            if let Some(first) = garbage.first_mut() {
                *first = (round % 5) as u8;
            }
            if let Ok(SessionMsg::Data { payload, .. } | SessionMsg::Raw(payload)) =
                decode_body::<SessionMsg<RawBody>>(&garbage)
            {
                let _ = decode_envelope::<Vec<u8>>(payload.0);
            }
        }
    }

    #[test]
    fn raw_bodies_take_the_rest_of_the_frame() {
        use dsm_faults::SessionMsg;

        let env = Envelope::new(NodeId::new(2), NodeId::new(0), vec![5u8; 9]);
        let msg = SessionMsg::Data {
            seq: 3,
            retx: false,
            src_inc: 1,
            dst_inc: 0,
            payload: RawBody(encode_envelope_body(&env)),
        };
        let framed = frame(&msg);
        assert_eq!(framed.len(), 4 + msg.encoded_len());
        let back: SessionMsg<RawBody> = decode_body(&framed[4..]).unwrap();
        assert_eq!(back, msg);
        let SessionMsg::Data { payload, .. } = back else {
            unreachable!("decoded the Data frame it was given");
        };
        assert_eq!(decode_envelope::<Vec<u8>>(payload.0).unwrap(), env);
    }

    #[test]
    fn eof_mid_frame_errors_and_clean_eof_does_not() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &42u64).unwrap();
        let mut dec = FrameDecoder::new(MAX_FRAME);
        let mut cur = Cursor::new(&buf[..buf.len() - 2]);
        assert!(read_frame(&mut cur, &mut dec).is_err());

        let mut dec = FrameDecoder::new(MAX_FRAME);
        let mut cur = Cursor::new(&buf[..]);
        assert!(read_frame(&mut cur, &mut dec).unwrap().is_some());
        assert!(read_frame(&mut cur, &mut dec).unwrap().is_none());
    }
}
