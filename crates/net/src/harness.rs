//! The mixed-remote workload over real sockets.
//!
//! [`mixed_script`] reproduces the shape of the bench suite's
//! `mixed_remote` cell — same salt, same value pool, same
//! (node, location, is-read) draw — so the TCP numbers sit next to the
//! in-process ones in the bench report as like-for-like. Each node of a
//! cluster executes its slice of one cluster-wide script;
//! [`run_loopback`] drives all the nodes of a multi-*threaded*,
//! socket-connected cluster in one process (the form the tests and bench
//! use), while `dsm-server`/`dsm-load` run the same script across real
//! processes.

use std::collections::BTreeMap;
use std::net::TcpListener;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use causal_dsm::CausalHandle;
use causal_spec::Execution;
use memcore::{Location, NodeId, Recorder, SharedMemory};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::cluster::{NetCluster, Payload};
use crate::mesh::WireStats;
use crate::spec::{ClusterSpec, NetOptions};

/// Size of every value the workload writes.
pub const PAYLOAD_BYTES: usize = 64;

/// Seed salt shared with the bench suite's `mixed_remote` cell.
pub const MIXED_SEED_SALT: u64 = 0x517C_C1B7;

/// Default read fraction of the mixed workload, in percent.
pub const DEFAULT_READ_PCT: u8 = 70;

/// How long cluster bring-up (mesh establishment) may take.
pub const ESTABLISH_TIMEOUT: Duration = Duration::from_secs(30);

/// A deterministic cluster-wide workload: a value pool plus
/// (node, location, is-read) entries. A pure function of its parameters,
/// so every process of a cluster derives the identical script locally.
pub struct Script {
    /// The values writes draw from (entry `i` writes `pool[i % 64]`).
    pub pool: Vec<Payload>,
    /// The op sequence; each node executes the entries naming it.
    pub entries: Vec<(u32, Location, bool)>,
}

/// Draws the mixed workload script.
///
/// # Panics
///
/// Panics if `read_pct` exceeds 100 or `nodes`/`locations` is zero.
#[must_use]
pub fn mixed_script(nodes: u32, locations: u32, seed: u64, len: usize, read_pct: u8) -> Script {
    assert!(read_pct <= 100, "read_pct is a percentage");
    assert!(nodes > 0 && locations > 0, "empty cluster");
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ MIXED_SEED_SALT);
    let pool: Vec<Payload> = (0..64)
        .map(|_| {
            let mut v = vec![0u8; PAYLOAD_BYTES];
            for b in &mut v {
                *b = rng.gen_range(0..=255u32) as u8;
            }
            v
        })
        .collect();
    let entries = (0..len)
        .map(|_| {
            (
                rng.gen_range(0..nodes),
                Location::new(rng.gen_range(0..locations)),
                rng.gen_bool(f64::from(read_pct) / 100.0),
            )
        })
        .collect();
    Script { pool, entries }
}

/// Executes `me`'s slice of `script` through `handle`, returning the
/// number of operations performed. Reads block; writes block too unless
/// `pipelined` selects the engine's pipelined write path
/// (`write_pipelined` + one final `flush`), which is what lets a pipeline
/// window's worth of WRITEs share transport envelopes and `writev` calls.
///
/// # Panics
///
/// Panics if an operation fails — on a healthy cluster that is an engine
/// or transport bug.
pub fn run_node(
    handle: &CausalHandle<Payload>,
    me: NodeId,
    script: &Script,
    pipelined: bool,
) -> u64 {
    let mut ops = 0u64;
    for (i, &(node, loc, is_read)) in script.entries.iter().enumerate() {
        if node != me.index() as u32 {
            continue;
        }
        if is_read {
            handle.read(loc).expect("scripted read");
        } else if pipelined {
            handle
                .write_pipelined(loc, script.pool[i & 63].clone())
                .expect("scripted pipelined write");
        } else {
            handle
                .write(loc, script.pool[i & 63].clone())
                .expect("scripted write");
        }
        ops += 1;
    }
    if pipelined {
        handle.flush().expect("pipeline flush");
    }
    ops
}

/// What a loopback run measured; the merged history is the oracle's
/// input.
pub struct LoopbackReport {
    /// Operations executed across all nodes.
    pub ops: u64,
    /// Wall-clock of the op phase (slowest node; they start together).
    pub elapsed_ns: u64,
    /// Owner-protocol messages sent cluster-wide.
    pub protocol_msgs: u64,
    /// Bookkeeping messages (heartbeats, session overhead) cluster-wide.
    pub overhead_msgs: u64,
    /// Physical envelopes cluster-wide.
    pub envelope_msgs: u64,
    /// Message counts per kind, cluster-wide.
    pub msgs_by_kind: BTreeMap<String, u64>,
    /// Wire-level counters summed across all mesh endpoints (syscalls,
    /// frames, retransmissions, reconnects).
    pub wire: WireStats,
    /// The merged per-process history, for `causal_spec::check_causal`.
    pub execution: Execution<Payload>,
}

/// Runs the mixed workload (`read_pct` percent reads; the bench suite's
/// write-heavy TCP pipeline cells use 0) on an `nodes`-node cluster whose
/// members are threads of this process connected through real loopback
/// TCP sockets — every protocol message crosses the kernel's socket
/// layer. `net.pipeline` selects the pipelined write path, `net.batching`
/// seals pipelined sends into batch envelopes, `net.reconnect` runs
/// session-backed links.
///
/// # Panics
///
/// Panics if bring-up or any operation fails.
#[must_use]
pub fn run_loopback(
    nodes: u32,
    locations: u32,
    seed: u64,
    script_len: usize,
    read_pct: u8,
    net: &NetOptions,
) -> LoopbackReport {
    let listeners: Vec<TcpListener> = (0..nodes)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    let addrs = listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr").to_string())
        .collect();
    let spec = ClusterSpec::new(locations, addrs).with_net(net.clone());
    let pipelined = net.pipeline > 0;
    let recorder: Recorder<Payload> = Recorder::new(nodes as usize);
    let script = Arc::new(mixed_script(nodes, locations, seed, script_len, read_pct));
    // Two barriers bracket the op phase: all nodes start together, and
    // none begins teardown while a peer still has operations (and thus
    // owner round-trips) outstanding.
    let go = Arc::new(Barrier::new(nodes as usize));
    let done = Arc::new(Barrier::new(nodes as usize));

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
                .name(format!("node-{me}"))
                .spawn(move || {
                    let cluster =
                        NetCluster::start(&spec, me, listener, Some(recorder), ESTABLISH_TIMEOUT)
                            .expect("establish cluster");
                    go.wait();
                    let start = Instant::now();
                    let ops = run_node(&cluster.handle(), me, &script, pipelined);
                    done.wait();
                    let elapsed_ns = start.elapsed().as_nanos() as u64;
                    let msgs = cluster.cluster().messages().snapshot();
                    let envs = cluster.cluster().envelopes().snapshot();
                    let wire = cluster.wire_stats();
                    cluster.shutdown();
                    (ops, elapsed_ns, msgs, envs, wire)
                })
                .expect("spawn node thread")
        })
        .collect();

    let mut ops = 0u64;
    let mut elapsed_ns = 0u64;
    let mut protocol_msgs = 0u64;
    let mut overhead_msgs = 0u64;
    let mut envelope_msgs = 0u64;
    let mut msgs_by_kind = BTreeMap::new();
    let mut wire = WireStats::default();
    for handle in threads {
        let (node_ops, node_ns, msgs, envs, node_wire) = handle.join().expect("node thread");
        ops += node_ops;
        elapsed_ns = elapsed_ns.max(node_ns);
        // Each process slice counted only its own sends, so summing the
        // per-process snapshots double-counts nothing.
        protocol_msgs += msgs.protocol_total();
        overhead_msgs += msgs.overhead_total();
        envelope_msgs += envs.total();
        for (kind, count) in msgs.by_kind() {
            *msgs_by_kind.entry(kind).or_insert(0) += count;
        }
        wire += node_wire;
    }

    LoopbackReport {
        ops,
        elapsed_ns,
        protocol_msgs,
        overhead_msgs,
        envelope_msgs,
        msgs_by_kind,
        wire,
        execution: Execution::from_recorder(&recorder),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_are_deterministic_and_respect_read_pct() {
        let a = mixed_script(4, 64, 7, 4096, 70);
        let b = mixed_script(4, 64, 7, 4096, 70);
        assert_eq!(a.entries, b.entries);
        assert_eq!(a.pool, b.pool);
        assert_eq!(a.pool.len(), 64);
        assert!(a.pool.iter().all(|v| v.len() == PAYLOAD_BYTES));
        let reads = a.entries.iter().filter(|e| e.2).count();
        // 70% ± a generous tolerance.
        assert!((2500..=3250).contains(&reads), "reads = {reads}");
        assert!(a.entries.iter().all(|e| e.0 < 4));

        let c = mixed_script(4, 64, 8, 4096, 70);
        assert_ne!(a.entries, c.entries);
    }
}
