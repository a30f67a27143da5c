//! End-to-end: the causal-memory engine over real loopback TCP sockets,
//! checked against the executable Definition-2 specification.
//!
//! Every node of these clusters is a thread with its *own* partial
//! `Network`, connected to the others only through the kernel's TCP
//! stack — the same data path `dsm-server` processes use.

mod common;

use std::sync::mpsc;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use causal_dsm::Msg;
use causal_spec::check_causal;
use common::{owned_by, p0, p1, BarePeer};
use dsm_net::harness::DEFAULT_READ_PCT;
use dsm_net::{run_loopback, NetOptions};
use memcore::{Location, MemoryError, PageId, SharedMemory};

/// The tests of this file run one at a time: the context-switch gate
/// finds node 0's poller among the process's threads by name, and every
/// cluster here has a node 0.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn four_node_tcp_cluster_is_causal() {
    let _serial = serial();
    let report = run_loopback(4, 64, 42, 2048, DEFAULT_READ_PCT, &NetOptions::default());
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
    let _serial = serial();
    // The transport invariant, end to end: switching on write pipelining
    // + batching changes what crosses the kernel, but the logical
    // per-kind message bill is byte-identical to the plain run, because
    // batching is an envelope, not a protocol change.
    let plain = run_loopback(4, 64, 42, 2048, DEFAULT_READ_PCT, &NetOptions::default());
    let batched = run_loopback(
        4,
        64,
        42,
        2048,
        DEFAULT_READ_PCT,
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
    // Nothing about envelopes, batch frames or syscalls on the mixed
    // runs: uniform-random owners drain the window on almost every op, so
    // whether any run shares an envelope is a scheduling draw. The
    // write-only pair below is where the saving is structural.
}

#[test]
fn batching_saves_syscalls_on_a_pipelined_write_stream() {
    let _serial = serial();
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
    let plain = run_loopback(2, 16, 42, 512, 0, &opts);
    let batched = run_loopback(
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
    assert!(
        batched.envelope_msgs < batched.protocol_msgs + batched.overhead_msgs,
        "batching never collapsed messages into shared envelopes \
         ({} envelopes for {} logical msgs)",
        batched.envelope_msgs,
        batched.protocol_msgs + batched.overhead_msgs
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
    let _serial = serial();
    for seed in [7, 1991] {
        let report = run_loopback(2, 16, seed, 512, DEFAULT_READ_PCT, &NetOptions::default());
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
    let _serial = serial();
    let pair = BarePeer::start(&NetOptions::default());
    pair.net.send(p1(), p0(), Msg::Halt).unwrap();
    let page = PageId::new(0);
    pair.net.send(p1(), p0(), Msg::Read { page }).unwrap();
    let reply = pair.recv();
    assert!(matches!(reply.payload, Msg::ReadReply { page: got, .. } if got == page));
    pair.shutdown();
}

/// Context switches (voluntary and involuntary) of thread `tid` of this
/// process so far.
#[cfg(target_os = "linux")]
fn context_switches(tid: &str) -> u64 {
    let status =
        std::fs::read_to_string(format!("/proc/self/task/{tid}/status")).expect("thread status");
    status
        .lines()
        .filter(|line| line.contains("ctxt_switches:"))
        .map(|line| {
            let count = line.split(':').nth(1).expect("a count");
            count.trim().parse::<u64>().expect("a number")
        })
        .sum()
}

/// The ids of this process's threads named `name`.
#[cfg(target_os = "linux")]
fn threads_named(name: &str) -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("task list")
        .filter_map(|entry| {
            let tid = entry.ok()?.file_name().into_string().ok()?;
            let comm = std::fs::read_to_string(format!("/proc/self/task/{tid}/comm")).ok()?;
            (comm.trim_end() == name).then_some(tid)
        })
        .collect()
}

#[cfg(target_os = "linux")]
#[test]
fn the_client_nodes_poller_sleeps_through_its_claimed_round_trips() {
    // Every op is one blocking round trip from node 0 to a remote owner.
    // The handle reads its own reply off the stream it claimed, so node
    // 0's poller — which used to wake, read, absorb and hand the reply
    // over once per op — has nothing to do.
    const OPS: usize = 2_000;
    let _serial = serial();
    let before = threads_named("mesh-poll-P0");
    let nodes = common::cluster(3, 64, &NetOptions::default());
    let poller: Vec<String> = threads_named("mesh-poll-P0")
        .into_iter()
        .filter(|tid| !before.contains(tid))
        .collect();
    let [poller] = <[String; 1]>::try_from(poller).expect("one node 0 poller");
    let handle = nodes[0].handle();
    let owners = nodes[0].cluster().config().owners();
    let remote: Vec<Location> = (0..64)
        .map(Location::new)
        .filter(|&loc| owners.owner_of(loc) != p0())
        .collect();
    let op = |i: usize| {
        let loc = remote[i % remote.len()];
        if i.is_multiple_of(2) {
            // The refresh idiom: always a miss.
            handle.discard(loc);
            handle.read(loc).map(drop)
        } else {
            handle.write(loc, vec![i as u8; 64])
        }
    };
    for i in 0..100 {
        op(i).expect("warm-up op");
    }
    let sent = || -> u64 {
        nodes
            .iter()
            .map(|n| n.cluster().messages().snapshot().protocol_total())
            .sum()
    };
    let (msgs, switches) = (sent(), context_switches(&poller));
    for i in 0..OPS {
        op(i).expect("remote op");
    }
    let switches = context_switches(&poller) - switches;
    assert_eq!(
        sent() - msgs,
        2 * OPS as u64,
        "one request and one reply per op"
    );
    let per_op = switches as f64 / OPS as f64;
    assert!(
        per_op <= 0.05,
        "node 0's poller switched {switches} times in {OPS} round trips ({per_op:.3}/op)"
    );
    for node in nodes {
        node.shutdown();
    }
}

#[test]
fn a_blocking_write_gated_behind_another_owners_window_completes() {
    // Pipelined writes to owner 1 are in flight or buffered when a
    // blocking write to owner 2 arrives: the driver drains owner 1's
    // window first (the drain's batch claims owner 1's stream) and sends
    // the write only once that window is empty — and its reply then
    // arrives on owner 2's stream, read by the poller. The handle must
    // hear about a completion it did not read itself.
    let _serial = serial();
    let nodes = common::cluster(
        3,
        64,
        &NetOptions {
            pipeline: 8,
            batching: true,
            ..NetOptions::default()
        },
    );
    let handle = nodes[0].handle();
    let (one, two) = (owned_by(&nodes[0], 1), owned_by(&nodes[0], 2));
    let (finished, wait) = mpsc::channel();
    let start = Instant::now();
    let client = thread::spawn(move || {
        for i in 0..100u8 {
            for _ in 0..3 {
                handle.write_pipelined(one, vec![i; 64]).expect("pipelined");
            }
            handle.write(two, vec![i; 64]).expect("gated write");
        }
        let _ = finished.send(());
    });
    wait.recv_timeout(Duration::from_secs(1))
        .expect("a gated write never heard its completion");
    assert!(start.elapsed() < Duration::from_secs(1));
    client.join().expect("client");
    for node in nodes {
        node.shutdown();
    }
}

#[test]
fn a_peers_request_ahead_of_the_awaited_reply_is_served_in_link_order() {
    // Node 0 blocks on a read owned by the peer and claims the peer's
    // stream. The peer puts its own READ on that stream before the
    // reply: the claimer must serve it first, as the poller would.
    let _serial = serial();
    let mut pair = BarePeer::start(&NetOptions::default());
    let handle = pair.node.handle();
    let loc = owned_by(&pair.node, 1);
    let start = Instant::now();
    let reader = thread::spawn(move || handle.read(loc));
    let request = pair.recv();
    assert!(matches!(request.payload, Msg::Read { .. }), "{request:?}");
    let reply = pair.answer(request);
    let page = PageId::new(0);
    pair.net.send(p1(), p0(), Msg::Read { page }).unwrap();
    pair.net.send(p1(), p0(), reply).unwrap();
    reader.join().expect("reader").expect("the read completes");
    // Served before the reply was absorbed: its answer had left when the
    // read returned.
    let served = pair.node.cluster().messages().snapshot();
    assert_eq!(
        served.get(p0(), "R_REPLY"),
        1,
        "the peer's READ was not served first"
    );
    let answer = pair.recv();
    assert!(matches!(answer.payload, Msg::ReadReply { page: got, .. } if got == page));
    assert!(start.elapsed() < Duration::from_secs(1));
    pair.shutdown();
}

#[test]
fn shutdown_fails_a_handle_blocked_on_its_claimed_stream_promptly() {
    let _serial = serial();
    let pair = BarePeer::start(&NetOptions::default());
    let handle = pair.node.handle();
    let loc = owned_by(&pair.node, 1);
    let (result, wait) = mpsc::channel();
    let reader = thread::spawn(move || result.send(handle.read(loc)));
    // The READ is out, so the stream is claimed; it is never answered.
    let _request = pair.recv();
    let start = Instant::now();
    pair.shutdown();
    let outcome = wait
        .recv_timeout(Duration::from_secs(1))
        .expect("the blocked read never returned");
    assert_eq!(outcome, Err(MemoryError::Shutdown));
    assert!(start.elapsed() < Duration::from_secs(1));
    reader.join().expect("reader").expect("result delivered");
}
