//! Satellite of the TCP transport PR: the `dsm-faults` session protocol
//! over a *real* TCP connection that is hard-dropped and re-established
//! mid-run.
//!
//! TCP is reliable per connection, but a connection that dies takes its
//! in-flight bytes with it — exactly the gap `ReliableLink` closes with
//! sequence numbers, cumulative acks, and RTO retransmission. This test
//! kills the socket with unacknowledged writes outstanding, brings up a
//! fresh connection, lets the retransmission timer fire (twice, so real
//! duplicates cross the wire), and requires every payload to come out
//! exactly once, in order.

use std::io::Write as _;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::Duration;

use bytes::Bytes;
use dsm_faults::session::{ReliableLink, SessionMsg};
use dsm_net::framing::{read_frame, write_frame, MAX_FRAME};
use memcore::NodeId;
use simnet::codec::FrameDecoder;

fn a_id() -> NodeId {
    NodeId::new(0)
}
fn b_id() -> NodeId {
    NodeId::new(1)
}
const RTO: u64 = 10;

struct Endpoint {
    stream: TcpStream,
    dec: FrameDecoder,
}

impl Endpoint {
    fn new(stream: TcpStream) -> Self {
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        Endpoint {
            stream,
            dec: FrameDecoder::new(MAX_FRAME),
        }
    }

    fn send(&mut self, msg: &SessionMsg<u64>) {
        write_frame(&mut self.stream, msg).unwrap();
        self.stream.flush().unwrap();
    }

    fn recv(&mut self) -> SessionMsg<u64> {
        let body: Bytes = read_frame(&mut self.stream, &mut self.dec)
            .expect("socket alive")
            .expect("peer still sending");
        dsm_net::framing::decode_body(&body).expect("well-formed session frame")
    }
}

fn connect(listener: &TcpListener) -> (Endpoint, Endpoint) {
    let addr = listener.local_addr().unwrap();
    let client = TcpStream::connect(addr).unwrap();
    let (server, _) = listener.accept().unwrap();
    (Endpoint::new(client), Endpoint::new(server))
}

/// Ships `count` data frames A→B over `wire`, delivers them at B, and
/// routes B's acks back into A.
fn exchange(
    a: &mut (Endpoint, ReliableLink<u64>),
    b: &mut (Endpoint, ReliableLink<u64>),
    now: u64,
    values: std::ops::Range<u64>,
    delivered: &mut Vec<u64>,
) {
    let count = usize::try_from(values.end - values.start).unwrap();
    for v in values {
        let frame = a.1.send(now, b_id(), v);
        a.0.send(&frame);
    }
    for _ in 0..count {
        let msg = b.0.recv();
        let (replies, released) = b.1.on_receive(now, a_id(), msg);
        delivered.extend(released);
        for reply in replies {
            b.0.send(&reply);
        }
    }
    // Drain B's acks into A's link.
    while a.1.unacked() > 0 {
        let msg = a.0.recv();
        let (replies, released) = a.1.on_receive(now, b_id(), msg);
        assert!(replies.is_empty() && released.is_empty(), "acks are silent");
    }
}

#[test]
fn certified_writes_survive_a_tcp_connection_drop() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut link_a: ReliableLink<u64> = ReliableLink::new(RTO);
    let mut link_b: ReliableLink<u64> = ReliableLink::new(RTO);
    let mut delivered: Vec<u64> = Vec::new();

    // Healthy phase: 0..80 flow and are acknowledged.
    let (ep_a, ep_b) = connect(&listener);
    let mut a = (ep_a, link_a);
    let mut b = (ep_b, link_b);
    exchange(&mut a, &mut b, 0, 0..80, &mut delivered);
    assert_eq!(a.1.unacked(), 0);

    // Hard drop: 80..120 are sent into a connection B has already
    // abandoned — their bytes are lost with it.
    b.0.stream.shutdown(Shutdown::Both).unwrap();
    for v in 80..120 {
        let frame = a.1.send(1, b_id(), v);
        // The kernel may buffer or may fail with a reset; both are
        // fine — the point is B never sees these bytes.
        let _ = write_frame(&mut a.0.stream, &frame);
    }
    // May already be reset by the peer's shutdown — either way it's dead.
    let _ = a.0.stream.shutdown(Shutdown::Both);
    assert_eq!(a.1.unacked(), 40);

    // Reconnect and let the RTO fire twice before any ack comes back:
    // two full copies of every lost write cross the new connection, so
    // B's dedup is exercised by genuine wire duplicates.
    let (ep_a2, ep_b2) = connect(&listener);
    (link_a, link_b) = (a.1, b.1);
    let mut a = (ep_a2, link_a);
    let mut b = (ep_b2, link_b);
    let mut resent = 0;
    for fire in 1..=2 {
        let due = a.1.next_timer().expect("unacked writes arm the timer");
        for (dst, frame) in a.1.on_timer(due + fire) {
            assert_eq!(dst, b_id());
            a.0.send(&frame);
            resent += 1;
        }
    }
    assert_eq!(resent, 80, "two retransmission rounds of 40 writes");
    for _ in 0..resent {
        let msg = b.0.recv();
        let (replies, released) = b.1.on_receive(2, a_id(), msg);
        delivered.extend(released);
        for reply in replies {
            b.0.send(&reply);
        }
    }
    while a.1.unacked() > 0 {
        let msg = a.0.recv();
        a.1.on_receive(2, b_id(), msg);
    }

    // Healthy again: the session keeps going on the new connection.
    exchange(&mut a, &mut b, 100, 120..160, &mut delivered);

    // Exactly once, in order, nothing lost — despite 40 writes dying
    // with the first connection and 80 duplicates on the second.
    assert_eq!(delivered, (0..160).collect::<Vec<u64>>());
    assert_eq!(a.1.unacked(), 0);
    assert!(a.1.stats().retransmits >= 40);
}
