//! End-to-end: the causal-memory engine over real loopback TCP sockets,
//! checked against the executable Definition-2 specification.
//!
//! Every node of these clusters is a thread with its *own* partial
//! `Network`, connected to the others only through the kernel's TCP
//! stack — the same data path `dsm-server` processes use.

use causal_spec::check_causal;
use dsm_net::{run_loopback, run_loopback_with, run_loopback_workload, NetOptions};

#[test]
fn four_node_tcp_cluster_is_causal() {
    let report = run_loopback(4, 64, 42, 2048);
    // Entries are drawn uniformly over nodes; every node must have run
    // a meaningful slice.
    assert!(report.ops > 1500, "only {} ops ran", report.ops);
    assert_eq!(report.execution.processes().len(), 4);
    // A mixed workload at 64 locations across 4 owners cannot be
    // message-free; if the bill is empty the mesh was bypassed.
    assert!(
        report.protocol_msgs > 0,
        "no protocol messages crossed the sockets"
    );
    let verdict = check_causal(&report.execution).expect("well formed");
    assert!(verdict.is_correct(), "oracle rejected: {verdict}");
}

#[test]
fn batched_pipelined_cluster_keeps_the_logical_bill() {
    // The PR-7 transport invariant, end to end: switching on write
    // pipelining + batching changes what crosses the kernel — fewer
    // envelopes, batch frames on the wire — but the logical per-kind
    // message bill is byte-identical to the plain run, because batching
    // is an envelope, not a protocol change.
    let plain = run_loopback(4, 64, 42, 2048);
    let batched = run_loopback_with(
        4,
        64,
        42,
        2048,
        &NetOptions {
            pipeline: 8,
            batching: true,
            ..NetOptions::default()
        },
    );
    let verdict = check_causal(&batched.execution).expect("well formed");
    assert!(verdict.is_correct(), "oracle rejected: {verdict}");
    assert_eq!(batched.ops, plain.ops);
    // WRITE traffic is a pure function of the script (ownership is
    // static), so it must not move at all. READ counts are
    // cache-dependent — page fetches serve later reads locally, and the
    // interleaving differs between runs — but every REQUEST must still
    // pair with exactly one reply: the protocol's *shape* is untouched.
    assert_eq!(
        batched.msgs_by_kind.get("WRITE"),
        plain.msgs_by_kind.get("WRITE"),
        "batching must not change the logical WRITE bill"
    );
    assert_eq!(
        batched.msgs_by_kind.get("W_REPLY"),
        plain.msgs_by_kind.get("W_REPLY"),
        "batching must not change the logical W_REPLY bill"
    );
    for run in [&plain, &batched] {
        assert_eq!(
            run.msgs_by_kind.get("READ"),
            run.msgs_by_kind.get("R_REPLY"),
            "every READ pairs with one R_REPLY"
        );
    }
    assert!(
        batched.envelope_msgs < batched.protocol_msgs + batched.overhead_msgs,
        "batching never collapsed messages into shared envelopes \
         ({} envelopes for {} logical msgs)",
        batched.envelope_msgs,
        batched.protocol_msgs + batched.overhead_msgs
    );
    assert!(
        batched.wire.batch_frames > 0,
        "no batch envelope ever crossed a socket"
    );
    // No syscall comparison on the mixed runs: uniform-random owners
    // drain the window on almost every op, so batching saves only ~1%
    // of writev calls here and the draw can land either way. The
    // write-heavy pair below is where the saving is structural.
}

#[test]
fn batching_saves_syscalls_on_a_pipelined_write_stream() {
    // Two nodes, pure writes, deep window: every remote write targets
    // the same owner, so runs accumulate for a full round trip and
    // batching must collapse them into shared envelopes — the kernel
    // sees materially fewer writev calls than one-envelope-per-write.
    // (The bench suite's write_pipeline_tcp cells measure the same
    // shape at ~1.0 → ~0.75 syscalls/op.)
    let opts = NetOptions {
        pipeline: 32,
        ..NetOptions::default()
    };
    let plain = run_loopback_workload(2, 16, 42, 512, 0, &opts);
    let batched = run_loopback_workload(
        2,
        16,
        42,
        512,
        0,
        &NetOptions {
            batching: true,
            ..opts
        },
    );
    let verdict = check_causal(&batched.execution).expect("well formed");
    assert!(verdict.is_correct(), "oracle rejected: {verdict}");
    assert_eq!(batched.ops, plain.ops);
    assert_eq!(
        batched.msgs_by_kind.get("WRITE"),
        plain.msgs_by_kind.get("WRITE"),
        "batching must not change the logical WRITE bill"
    );
    assert!(
        batched.wire.batch_frames > 0,
        "no batch envelope ever crossed a socket"
    );
    // 10% margin: the structural gap is ~25%, far outside scheduling
    // noise in a syscall *count* (not a timing) comparison.
    assert!(
        batched.wire.writev_calls * 10 < plain.wire.writev_calls * 9,
        "batched run did not save syscalls ({} vs {})",
        batched.wire.writev_calls,
        plain.wire.writev_calls
    );
}

#[test]
fn two_node_tcp_cluster_is_causal_across_seeds() {
    for seed in [7, 1991] {
        let report = run_loopback(2, 16, seed, 512);
        let verdict = check_causal(&report.execution).expect("well formed");
        assert!(verdict.is_correct(), "seed {seed}: {verdict}");
    }
}

#[test]
fn a_peers_halt_frame_neither_drops_the_link_nor_stops_the_server() {
    // `Msg::Halt` has a wire tag, so any connected peer can put one in a
    // well-formed frame. Node 0 is a real `dsm-server` stack (engine
    // served inline by the poller); node 1 is a bare mesh endpoint
    // playing the peer. The Halt must be ignored, and the READ behind it
    // on the same link answered.
    use causal_dsm::Msg;
    use dsm_net::{ClusterSpec, NetCluster, Payload, TcpMesh};
    use memcore::{NodeId, PageId};
    use simnet::Network;
    use std::net::TcpListener;
    use std::time::Duration;

    let listeners: Vec<TcpListener> = (0..2)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    let addrs = listeners
        .iter()
        .map(|l| l.local_addr().unwrap().to_string())
        .collect();
    let spec = ClusterSpec::new(8, addrs);
    let [l0, l1] = <[TcpListener; 2]>::try_from(listeners).unwrap();
    let timeout = Duration::from_secs(10);
    let (p0, p1) = (NodeId::new(0), NodeId::new(1));

    let spec0 = spec.clone();
    let server = std::thread::spawn(move || NetCluster::start(&spec0, p0, l0, None, timeout));
    let mesh: TcpMesh<Msg<Payload>> = TcpMesh::establish(p1, &spec, l1, timeout).unwrap();
    let net = Network::partial(2, &[p1], mesh.link());
    mesh.start(net.clone());
    let inbox = net.take_mailbox(p1);
    let server = server.join().unwrap().unwrap();

    net.send(p1, p0, Msg::Halt).unwrap();
    let page = PageId::new(0);
    net.send(p1, p0, Msg::Read { page }).unwrap();
    let reply = inbox
        .recv_timeout(timeout)
        .expect("mesh alive")
        .expect("the READ behind the Halt was never answered");
    assert!(matches!(reply.payload, Msg::ReadReply { page: got, .. } if got == page));

    server.shutdown();
    mesh.shutdown();
}
