//! Chaos: a peer socket dies mid-run and the mesh must heal itself.
//!
//! A three-node loopback cluster runs the mixed workload with
//! session-backed links (`reconnect on`). Partway through its slice, the
//! highest-numbered node hard-drops its socket toward node 0 — both
//! directions, as a real network failure would. The redial policy brings
//! the connection back, the session layer replays the unacked window,
//! and the run must finish with a history the Definition-2 oracle
//! accepts. No operation may be lost, duplicated, or reordered by the
//! transport outage.
//!
//! A second test cuts the one link a blocked handle is reading itself:
//! the claimed stream.

mod common;

use std::net::TcpListener;
use std::sync::{mpsc, Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use causal_spec::{check_causal, Execution};
use common::{owned_by, p0, p1, BarePeer};
use dsm_net::harness::mixed_script;
use dsm_net::{ClusterSpec, NetCluster, NetOptions, WireStats};
use memcore::{NodeId, Recorder, SharedMemory};

const NODES: u32 = 3;
const LOCATIONS: u32 = 32;
const SCRIPT_LEN: usize = 1536;

#[test]
fn severed_socket_mid_run_heals_and_stays_causal() {
    let listeners: Vec<TcpListener> = (0..NODES)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    let addrs = listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr").to_string())
        .collect();
    let spec = ClusterSpec::new(LOCATIONS, addrs).with_net(NetOptions {
        reconnect: true,
        rto_ms: 30,
        ..NetOptions::default()
    });
    let recorder: Recorder<Vec<u8>> = Recorder::new(NODES as usize);
    let script = Arc::new(mixed_script(NODES, LOCATIONS, 99, SCRIPT_LEN, 60));
    let go = Arc::new(Barrier::new(NODES as usize));
    let done = Arc::new(Barrier::new(NODES as usize));

    let threads: Vec<_> = listeners
        .into_iter()
        .enumerate()
        .map(|(i, listener)| {
            let me = NodeId::new(i as u32);
            let spec = spec.clone();
            let recorder = recorder.clone();
            let script = Arc::clone(&script);
            let go = Arc::clone(&go);
            let done = Arc::clone(&done);
            thread::Builder::new()
                .name(format!("chaos-node-{me}"))
                .spawn(move || {
                    let cluster = NetCluster::start(
                        &spec,
                        me,
                        listener,
                        Some(recorder),
                        Duration::from_secs(30),
                    )
                    .expect("establish cluster");
                    // The event-driven mesh owns exactly two threads —
                    // an acceptor and the poller — however many peers.
                    assert_eq!(cluster.mesh_thread_count(), 2);
                    let handle = cluster.handle();
                    go.wait();
                    let mut executed = 0u64;
                    for (j, &(node, loc, is_read)) in script.entries.iter().enumerate() {
                        if node != me.index() as u32 {
                            continue;
                        }
                        executed += 1;
                        // The chaos: the redialing side (highest id)
                        // repeatedly kills its link to node 0 mid-run,
                        // including while requests are outstanding on it.
                        if me.index() == 2 && executed.is_multiple_of(100) {
                            cluster.sever(NodeId::new(0));
                        }
                        if is_read {
                            handle.read(loc).expect("read across the outage");
                        } else {
                            handle
                                .write(loc, script.pool[j & 63].clone())
                                .expect("write across the outage");
                        }
                    }
                    done.wait();
                    let wire = cluster.wire_stats();
                    cluster.shutdown();
                    (executed, wire)
                })
                .expect("spawn node thread")
        })
        .collect();

    let mut ops = 0u64;
    let mut wire = WireStats::default();
    for handle in threads {
        let (executed, node_wire) = handle.join().expect("node thread");
        ops += executed;
        wire += node_wire;
    }
    assert_eq!(ops, SCRIPT_LEN as u64, "every scripted op must complete");
    assert!(
        wire.reconnects >= 1,
        "the severed link must have been re-established"
    );
    assert!(
        wire.retx >= 1,
        "healing must replay the session window (saw {} reconnects)",
        wire.reconnects
    );

    let execution = Execution::from_recorder(&recorder);
    let verdict = check_causal(&execution).expect("well formed");
    assert!(
        verdict.is_correct(),
        "oracle rejected the healed run: {verdict}"
    );
}

#[test]
fn severing_a_claimed_link_mid_operation_heals_through_the_redial() {
    // Node 0 blocks on a read the peer owns and claims the peer's stream.
    // With the READ delivered and its reply not yet sent, node 0 cuts
    // that very link: the claimer loses its stream and falls back to the
    // completion channel, the peer redials, and its session replays the
    // reply over the new connection.
    let mut pair = BarePeer::start(&NetOptions {
        reconnect: true,
        rto_ms: 30,
        ..NetOptions::default()
    });
    let handle = pair.node.handle();
    let loc = owned_by(&pair.node, 1);
    let (result, wait) = mpsc::channel();
    let reader = thread::spawn(move || result.send(handle.read(loc)));
    let request = pair.recv();
    let start = Instant::now();
    pair.node.sever(p1());
    let reply = pair.answer(request);
    pair.net
        .send(p1(), p0(), reply)
        .expect("parks in the session window");
    wait.recv_timeout(Duration::from_secs(1))
        .expect("the read never completed after the redial")
        .expect("the read completes");
    assert!(start.elapsed() < Duration::from_secs(1));
    assert!(
        pair.node.wire_stats().reconnects >= 1,
        "the cut link must have been re-established"
    );
    reader.join().expect("reader").expect("result delivered");
    pair.shutdown();
}
