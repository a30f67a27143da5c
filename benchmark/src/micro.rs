//! Single layers timed in isolation: what the traced run captured,
//! replayed through one layer at a time, plus the two ladder rungs below
//! the engine (raw TCP, and the mesh with no engine behind it).
//!
//! Every timing is the median over `BATCHES` batches of the mean per
//! item inside a batch, so one descheduling does not move it.

use std::hint::black_box;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use causal_dsm::{CausalConfig, CausalState, Msg, WriteVerdict};
use dsm_durable::{decode_stream, frame_records, WalRecord};
use dsm_net::framing::{decode_envelope, encode_envelope};
use dsm_net::{ClusterSpec, EnvelopeSink, MeshLink, Payload, SinkClosed, TcpMesh};
use memcore::{Location, NodeId, WriteId};
use simnet::{Envelope, RemoteLink};
use vclock::VectorClock;

use crate::hist::median;
use crate::pin;
use crate::run::Outcome;
use crate::trace::Collected;
use crate::workload::{encode_value, Workload, LOCATIONS, NODES};

const BATCHES: usize = 9;
/// Round trips per ladder rung.
const RUNG_ROUND_TRIPS: usize = 4000;

/// Median over batches of `batch()`'s seconds divided by `items`.
fn per_item_ns(items: usize, mut batch: impl FnMut() -> Duration) -> f64 {
    if items == 0 {
        return 0.0;
    }
    let mut per_item: Vec<f64> = (0..BATCHES)
        .map(|_| batch().as_nanos() as f64 / items as f64)
        .collect();
    median(&mut per_item).expect("BATCHES > 0")
}

/// `msg` with every value it carries replaced by one of `size` bytes.
fn with_payload(msg: &Msg<Payload>, size: usize) -> Msg<Payload> {
    let big = || Arc::new(vec![0xA5u8; size]);
    match msg {
        Msg::Write { loc, wid, vt, .. } => Msg::Write {
            loc: *loc,
            value: big(),
            wid: *wid,
            vt: vt.clone(),
        },
        Msg::ReadReply { page, vt, slots } => Msg::ReadReply {
            page: *page,
            vt: vt.clone(),
            slots: slots.iter().map(|(_, wid)| (big(), *wid)).collect(),
        },
        Msg::WriteReply {
            loc,
            wid,
            vt,
            verdict,
        } => Msg::WriteReply {
            loc: *loc,
            wid: *wid,
            vt: vt.clone(),
            verdict: match verdict {
                WriteVerdict::Applied => WriteVerdict::Applied,
                WriteVerdict::Rejected { wid, .. } => WriteVerdict::Rejected {
                    value: big(),
                    wid: *wid,
                },
            },
        },
        Msg::Batch(parts) => Msg::Batch(parts.iter().map(|p| with_payload(p, size)).collect()),
        other => other.clone(),
    }
}

/// `net::framing` encode and decode cost per captured envelope.
fn framing(envelopes: &[Envelope<Msg<Payload>>]) -> (f64, f64) {
    let encode = per_item_ns(envelopes.len(), || {
        let began = Instant::now();
        for env in envelopes {
            black_box(encode_envelope(black_box(env)));
        }
        began.elapsed()
    });
    // `encode_envelope` prefixes the body with its length; the decoder
    // takes the body alone, as the mesh's frame decoder hands it over.
    let bodies: Vec<_> = envelopes
        .iter()
        .map(|env| encode_envelope(env).slice(4..))
        .collect();
    let decode = per_item_ns(bodies.len(), || {
        let began = Instant::now();
        for body in &bodies {
            black_box(
                decode_envelope::<Msg<Payload>>(black_box(body.clone()))
                    .expect("own encoding decodes"),
            );
        }
        began.elapsed()
    });
    (encode, decode)
}

/// The requests one owner received, replayed in order through a fresh
/// `CausalState`: the serve step alone, no locks, no transport.
fn state_replay(envelopes: &[Envelope<Msg<Payload>>]) -> (f64, usize) {
    let is_request = |m: &Msg<Payload>| match m {
        Msg::Batch(parts) => parts.first().is_some_and(Msg::is_request),
        other => other.is_request(),
    };
    let Some(owner) = envelopes
        .iter()
        .find(|e| is_request(&e.payload))
        .map(|e| e.dst)
    else {
        return (0.0, 0);
    };
    let requests: Vec<_> = envelopes
        .iter()
        .filter(|e| e.dst == owner && is_request(&e.payload))
        .collect();
    let msgs: usize = requests
        .iter()
        .map(|e| match &e.payload {
            Msg::Batch(parts) => parts.len(),
            _ => 1,
        })
        .sum();
    let config = CausalConfig::<Payload>::builder(NODES, LOCATIONS).build();
    let ns = per_item_ns(msgs, || {
        let mut state = CausalState::new(owner, config.clone());
        let replay: Vec<_> = requests
            .iter()
            .map(|e| (e.src, e.payload.clone()))
            .collect();
        let began = Instant::now();
        for (from, request) in replay {
            match request {
                Msg::Batch(parts) => {
                    black_box(state.serve_batch(from, parts));
                }
                single => {
                    black_box(state.serve(from, single));
                }
            }
        }
        began.elapsed()
    });
    (ns, msgs)
}

/// WAL framing: captured log bytes decoded into records and the records
/// framed again. Returns ns per framed record, decoded records per
/// second, and the record count.
fn wal(log_bytes: &[u8]) -> (f64, f64, usize) {
    let (records, _): (Vec<WalRecord<Payload>>, usize) = decode_stream(log_bytes);
    if records.is_empty() {
        return (0.0, 0.0, 0);
    }
    let frame_ns = per_item_ns(records.len(), || {
        let began = Instant::now();
        black_box(frame_records(black_box(&records)));
        began.elapsed()
    });
    let decode_ns = per_item_ns(records.len(), || {
        let began = Instant::now();
        black_box(decode_stream::<Payload>(black_box(log_bytes)));
        began.elapsed()
    });
    (frame_ns, 1e9 / decode_ns, records.len())
}

/// Vector-clock merge and compare at `n` components.
fn vclock_ns(n: usize) -> (f64, f64) {
    const CALLS: usize = 100_000;
    let a = VectorClock::from_components((0..n as u64).map(|i| i * 3 + 1));
    let b = VectorClock::from_components((0..n as u64).map(|i| 100 - i));
    let merge = per_item_ns(CALLS, || {
        let mut acc = a.clone();
        let began = Instant::now();
        for _ in 0..CALLS {
            black_box(&mut acc).update(black_box(&b));
        }
        began.elapsed()
    });
    let cmp = per_item_ns(CALLS, || {
        let began = Instant::now();
        for _ in 0..CALLS {
            black_box(black_box(&a).dominated_by(black_box(&b)));
        }
        began.elapsed()
    });
    (merge, cmp)
}

fn median_rtt_us(mut round_trip: impl FnMut() -> io::Result<()>) -> io::Result<f64> {
    let mut rtts = Vec::with_capacity(RUNG_ROUND_TRIPS);
    for i in 0..RUNG_ROUND_TRIPS + RUNG_ROUND_TRIPS / 10 {
        let began = Instant::now();
        round_trip()?;
        // The first tenth warms the path up.
        if i >= RUNG_ROUND_TRIPS / 10 {
            rtts.push(began.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    Ok(median(&mut rtts).expect("RUNG_ROUND_TRIPS > 0"))
}

/// Runs `rung` on a thread placed where node 0's client runs; the far
/// side of a rung places itself where node 1 runs, so a rung's round
/// trip crosses processors, or does not, exactly as the workload's ops.
fn beside_node_0<R: Send>(processors: usize, rung: impl FnOnce() -> R + Send) -> R {
    thread::scope(|scope| {
        scope
            .spawn(|| {
                pin::enter(0, processors);
                rung()
            })
            .join()
            .expect("rung thread panicked")
    })
}

/// Bottom rung: two threads ping-pong frames of the protocol's sizes
/// over one raw loopback `TcpStream` with `TCP_NODELAY` — what the kernel
/// alone charges for a round trip.
fn kernel_tcp_rtt_us(
    processors: usize,
    request_bytes: usize,
    reply_bytes: usize,
) -> io::Result<f64> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let mut near = TcpStream::connect(listener.local_addr()?)?;
    let (mut far, _) = listener.accept()?;
    near.set_nodelay(true)?;
    far.set_nodelay(true)?;
    let echo = thread::spawn(move || -> io::Result<()> {
        pin::enter(1, processors);
        let mut request = vec![0u8; request_bytes];
        let reply = vec![1u8; reply_bytes];
        // Ends when the near side closes.
        while far.read_exact(&mut request).is_ok() {
            far.write_all(&reply)?;
        }
        Ok(())
    });
    let request = vec![2u8; request_bytes];
    let mut reply = vec![0u8; reply_bytes];
    let rtt = median_rtt_us(|| {
        near.write_all(&request)?;
        near.read_exact(&mut reply)
    });
    drop(near);
    echo.join().expect("echo thread panicked")?;
    rtt
}

/// Sends every delivered envelope straight back where it came from.
struct EchoSink {
    link: Arc<MeshLink<Msg<Payload>>>,
}

impl EnvelopeSink<Msg<Payload>> for EchoSink {
    fn nodes(&self) -> usize {
        2
    }
    fn hosts(&self, dst: NodeId) -> bool {
        dst == NodeId::new(1)
    }
    fn deliver(&self, env: Envelope<Msg<Payload>>) -> Result<(), SinkClosed> {
        self.link
            .send_remote(Envelope::new(env.dst, env.src, env.payload))
            .map_err(|_| SinkClosed)
    }
}

/// Wakes the thread waiting for the echo.
struct NotifySink {
    arrived: mpsc::Sender<()>,
}

impl EnvelopeSink<Msg<Payload>> for NotifySink {
    fn nodes(&self) -> usize {
        2
    }
    fn hosts(&self, dst: NodeId) -> bool {
        dst == NodeId::new(0)
    }
    fn deliver(&self, _env: Envelope<Msg<Payload>>) -> Result<(), SinkClosed> {
        self.arrived.send(()).map_err(|_| SinkClosed)
    }
}

/// Middle rung: the shipped `TcpMesh` (framing, codec, `writev`, poller
/// wake-ups on both sides, and the hand-off to the waiting thread) with
/// an echo in place of the engine.
fn mesh_echo_rtt_us(processors: usize, request: &Envelope<Msg<Payload>>) -> io::Result<f64> {
    let listeners = [
        TcpListener::bind("127.0.0.1:0")?,
        TcpListener::bind("127.0.0.1:0")?,
    ];
    let addrs = listeners
        .iter()
        .map(|l| l.local_addr().map(|a| a.to_string()))
        .collect::<io::Result<Vec<_>>>()?;
    let spec = ClusterSpec::new(LOCATIONS, addrs);
    let timeout = Duration::from_secs(30);
    let [near_listener, far_listener] = listeners;
    let (near, far) = thread::scope(|scope| {
        let far = scope.spawn(|| {
            // The poller is spawned by `start` and inherits the placement.
            pin::enter(1, processors);
            let far =
                TcpMesh::<Msg<Payload>>::establish(NodeId::new(1), &spec, far_listener, timeout)?;
            far.start(EchoSink { link: far.link() });
            Ok::<_, io::Error>(far)
        });
        let near =
            TcpMesh::<Msg<Payload>>::establish(NodeId::new(0), &spec, near_listener, timeout);
        (near, far.join().expect("establish thread panicked"))
    });
    let (near, far) = (near?, far?);
    let (arrived, wait) = mpsc::channel();
    near.start(NotifySink { arrived });
    let link = near.link();
    let lost = |what: &str| io::Error::new(io::ErrorKind::BrokenPipe, what.to_owned());
    let rtt = median_rtt_us(|| {
        link.send_remote(request.clone())
            .map_err(|_| lost("echo mesh refused a send"))?;
        wait.recv()
            .map_err(|_| lost("echo mesh stopped delivering"))
    });
    near.shutdown();
    far.shutdown();
    rtt
}

/// A blocking remote write as node 0 would send it to node 1.
fn synthetic_write() -> Envelope<Msg<Payload>> {
    let (from, to) = (NodeId::new(0), NodeId::new(1));
    Envelope::new(
        from,
        to,
        Msg::Write {
            loc: Location::new(1),
            value: Arc::new(encode_value(0, 1)),
            wid: WriteId::new(from, 1),
            vt: VectorClock::new(NODES as usize).into(),
        },
    )
}

/// Adds the WAL framing microbenchmark on a durable traced phase's
/// captured log bytes to `out`; zeros where nothing was logged.
pub fn report_wal(out: &mut Outcome, log_bytes: &[u8]) {
    let (frame_ns, replay_rate, records) = wal(log_bytes);
    out.metric(
        "durable.frame_ns_per_record",
        frame_ns,
        "ns",
        records as u64,
    );
    out.metric(
        "durable.replay_records_per_s",
        replay_rate,
        "1/s",
        records as u64,
    );
}

/// Adds every other microbenchmark's metrics to `out`.
pub fn report(out: &mut Outcome, w: Workload, collected: &Collected) {
    let processors = w.processors();
    let envs = &collected.envelopes;
    let n = envs.len() as u64;
    let (encode, decode) = framing(envs);
    out.metric("framing.encode_ns_per_env", encode, "ns", n);
    out.metric("framing.decode_ns_per_env", decode, "ns", n);
    let big: Vec<_> = envs
        .iter()
        .map(|e| Envelope::new(e.src, e.dst, with_payload(&e.payload, 4096)))
        .collect();
    let (encode, decode) = framing(&big);
    out.metric("framing.encode_ns_per_env_4k", encode, "ns", n);
    out.metric("framing.decode_ns_per_env_4k", decode, "ns", n);

    let (serve_ns, msgs) = state_replay(envs);
    out.metric("state.serve_ns_per_msg", serve_ns, "ns", msgs as u64);

    let (merge3, cmp3) = vclock_ns(3);
    let (merge64, _) = vclock_ns(64);
    out.metric("vclock.merge_ns_n3", merge3, "ns", BATCHES as u64);
    out.metric("vclock.merge_ns_n64", merge64, "ns", BATCHES as u64);
    out.metric("vclock.cmp_ns_n3", cmp3, "ns", BATCHES as u64);

    // The rungs carry frames of this workload's own sizes when it sent
    // any, and a blocking write's otherwise.
    let request = envs
        .iter()
        .find(|e| e.src == NodeId::new(0) && e.dst == NodeId::new(1))
        .cloned()
        .unwrap_or_else(synthetic_write);
    let request_bytes = encode_envelope(&request).len();
    let reply_bytes = envs
        .iter()
        .find(|e| e.src == request.dst && e.dst == request.src)
        .map_or(request_bytes, |e| encode_envelope(e).len());
    for (name, rtt) in [
        (
            "kernel.tcp_rtt_us",
            beside_node_0(processors, || {
                kernel_tcp_rtt_us(processors, request_bytes, reply_bytes)
            }),
        ),
        (
            "mesh.echo_rtt_us",
            beside_node_0(processors, || mesh_echo_rtt_us(processors, &request)),
        ),
    ] {
        match rtt {
            Ok(us) => out.metric(name, us, "us", RUNG_ROUND_TRIPS as u64),
            Err(e) => out.fail(format!("{name}: {e}")),
        }
    }
}
