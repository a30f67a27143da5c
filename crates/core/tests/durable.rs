//! Engine-level durability roundtrip: a threaded cluster writes through
//! the full Figure-4 protocol with a WAL behind every owner, shuts
//! down, and is rebuilt from the same disks. Everything certified in
//! the first life must be readable in the second, and every node must
//! come back under a bumped incarnation.

use causal_dsm::{CausalCluster, DurableConfig, MemDisk, SyncPolicy};
use memcore::{Location, NodeId, SharedMemory, Word};

fn loc(i: u32) -> Location {
    Location::new(i)
}

/// A fully-local threaded cluster whose node `i` journals to `disks[i]`.
/// `MemDisk` clones share their backing store, so rebuilding with the
/// same slice *is* a restart from disk.
fn durable_cluster(disks: &[MemDisk], config: DurableConfig) -> CausalCluster<Word> {
    let n = disks.len() as u32;
    let mut builder = CausalCluster::<Word>::builder(n, 2 * n).configure(|c| c.durability(config));
    for (i, disk) in disks.iter().enumerate() {
        builder = builder.disk(NodeId::new(i as u32), Box::new(disk.clone()));
    }
    builder.build().expect("engine rejected configuration")
}

#[test]
fn certified_writes_survive_a_full_cluster_restart() {
    let disks: Vec<MemDisk> = (0..3).map(|_| MemDisk::new()).collect();
    let cluster = durable_cluster(&disks, DurableConfig::default());
    for i in 0..3 {
        assert_eq!(cluster.node_incarnation(i), 0, "first life of node {i}");
    }

    // Local writes, a remote write, and a cross-node read, so the logs
    // hold certified writes from both the owner and the requester path.
    cluster.handle(0).write(loc(0), Word::Int(10)).unwrap();
    cluster.handle(1).write(loc(1), Word::Int(11)).unwrap();
    cluster.handle(0).write(loc(2), Word::Int(12)).unwrap();
    assert_eq!(cluster.handle(2).read(loc(0)).unwrap(), Word::Int(10));
    cluster.shutdown();

    // Second life: same disks, fresh everything else.
    let cluster = durable_cluster(&disks, DurableConfig::default());
    for i in 0..3 {
        assert_eq!(cluster.node_incarnation(i), 1, "rebooted life of node {i}");
    }
    // Every certified write is served again — by its recovered owner,
    // to a node whose cache is cold by construction.
    assert_eq!(cluster.handle(1).read(loc(0)).unwrap(), Word::Int(10));
    assert_eq!(cluster.handle(2).read(loc(1)).unwrap(), Word::Int(11));
    assert_eq!(cluster.handle(1).read(loc(2)).unwrap(), Word::Int(12));
    // And the recovered state is live, not a read-only fossil.
    cluster.handle(2).write(loc(0), Word::Int(20)).unwrap();
    assert_eq!(cluster.handle(0).read(loc(0)).unwrap(), Word::Int(20));
    cluster.shutdown();
}

#[test]
fn restart_after_checkpoint_compaction_recovers_the_same_state() {
    // A checkpoint interval small enough that the write loop compacts
    // several times: recovery then replays a checkpoint image plus a
    // log tail rather than the full history.
    let cfg = DurableConfig {
        sync: SyncPolicy::EveryOp,
        checkpoint_every: 8,
    };
    let disks: Vec<MemDisk> = (0..2).map(|_| MemDisk::new()).collect();
    let cluster = durable_cluster(&disks, cfg);
    for round in 0..16i64 {
        for l in 0..4u32 {
            let writer = cluster.handle(u32::from(l % 2 == 0));
            writer
                .write(loc(l), Word::Int(round * 10 + i64::from(l)))
                .unwrap();
        }
    }
    cluster.shutdown();
    let compacted = disks.iter().map(MemDisk::log_len).sum::<usize>();

    let cluster = durable_cluster(&disks, cfg);
    for l in 0..4u32 {
        assert_eq!(
            cluster.handle(1).read(loc(l)).unwrap(),
            Word::Int(150 + i64::from(l)),
            "location {l} after compacted recovery"
        );
    }
    cluster.shutdown();

    // The log really was compacted: its surviving length is far below
    // what 64 certified writes plus page installs would occupy raw.
    let raw = 64 * 64; // coarse lower bound per uncompacted write frame
    assert!(
        compacted < raw,
        "no compaction happened: {compacted} bytes on disk"
    );
}

#[test]
fn the_journal_is_on_disk_before_the_reply_leaves() {
    // Journal-before-reply, observed at the transport: when the owner's
    // W_REPLY reaches the network, the certified write's record must
    // already be in its log (under `every_op`, synced). The fault hook
    // runs inside the send, so it sees the disk exactly as it is when the
    // reply leaves.
    use simnet::{FaultHook, SendFate};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    struct LogAtReply {
        owner_disk: MemDisk,
        seen: AtomicUsize,
    }
    impl FaultHook for LogAtReply {
        fn on_send(&self, _s: NodeId, _d: NodeId, kind: &'static str, _now: u64) -> SendFate {
            if kind == "W_REPLY" {
                self.seen
                    .store(self.owner_disk.synced_len(), Ordering::SeqCst);
            }
            SendFate::deliver()
        }
    }

    let disks: Vec<MemDisk> = (0..2).map(|_| MemDisk::new()).collect();
    let cluster = durable_cluster(&disks, DurableConfig::default());
    let hook = Arc::new(LogAtReply {
        owner_disk: disks[0].clone(),
        seen: AtomicUsize::new(0),
    });
    cluster.set_fault_hook(Some(hook.clone()));
    let before = disks[0].synced_len();
    // x0 is node 0's: node 1's write is certified there.
    cluster.handle(1).write(loc(0), Word::Int(5)).unwrap();
    let at_reply = hook.seen.load(Ordering::SeqCst);
    assert!(
        at_reply > before,
        "the reply left with {at_reply} synced log bytes ({before} before the write)"
    );
    assert_eq!(at_reply, disks[0].log_len(), "nothing journaled after it");
    cluster.set_fault_hook(None);
    cluster.shutdown();
}

#[test]
fn a_life_that_talked_is_never_reused_under_a_lazy_sync_policy() {
    // A life's identity record is synced whatever the policy. Without
    // that, a lazy policy loses it with everything else unsynced, the
    // disk recovers as virgin, and the next life reuses incarnation 0:
    // its frames would no longer fence the dead life's.
    for sync in [SyncPolicy::Interval(4), SyncPolicy::None] {
        let cfg = DurableConfig {
            sync,
            ..DurableConfig::default()
        };
        let disks: Vec<MemDisk> = (0..2).map(|_| MemDisk::new()).collect();
        let cluster = durable_cluster(&disks, cfg);
        // x1 is node 1's: node 0 talks to it.
        cluster.handle(0).write(loc(1), Word::Int(7)).unwrap();
        cluster.shutdown();
        for disk in &disks {
            disk.crash(0);
        }

        let cluster = durable_cluster(&disks, cfg);
        assert!(
            cluster.node_incarnation(0) >= 1,
            "node 0 reborn as incarnation {} under {sync:?}",
            cluster.node_incarnation(0)
        );
        cluster.shutdown();
    }
}

#[test]
#[should_panic(expected = "has no disk")]
fn a_durability_config_without_a_disk_is_rejected() {
    // Nobody would ever write the node's journal: it would only grow.
    let disk = MemDisk::new();
    let _ = CausalCluster::<Word>::builder(2, 4)
        .configure(|c| c.durability(DurableConfig::default()))
        .disk(NodeId::new(0), Box::new(disk))
        .build();
}
