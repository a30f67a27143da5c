//! The write-ahead log proper: policy-driven syncs, checkpointing, and
//! recovery.

use simnet::codec::Wire;

use crate::record::{decode_stream, frame_records};
use crate::{Disk, WalRecord};

/// When appended records become crash-durable.
///
/// The protocol layer replies to a write *after* its append returns, so
/// the policy is exactly the durability/latency dial:
///
/// * [`EveryOp`](SyncPolicy::EveryOp) — sync before returning from
///   every append: a certified write can never be lost. The recovery
///   oracle's batch runs under this policy.
/// * [`Interval`](SyncPolicy::Interval)`(n)` — sync every `n` appends:
///   a crash loses at most the last `n` operations, certified or not.
/// * [`None`](SyncPolicy::None) — never sync explicitly; only
///   checkpoints (and the OS, eventually) persist anything.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Never fsync on the append path.
    None,
    /// Fsync every `n` append batches (`Interval(1)` ≡ `EveryOp`).
    Interval(u32),
    /// Fsync before every append returns.
    EveryOp,
}

impl SyncPolicy {
    fn stride(self) -> Option<u32> {
        match self {
            SyncPolicy::None => None,
            SyncPolicy::Interval(n) => Some(n.max(1)),
            SyncPolicy::EveryOp => Some(1),
        }
    }
}

/// Tuning for a [`Store`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DurableConfig {
    /// When appends become crash-durable.
    pub sync: SyncPolicy,
    /// Checkpoint + compact after this many appended records.
    pub checkpoint_every: u64,
}

impl Default for DurableConfig {
    fn default() -> Self {
        DurableConfig {
            sync: SyncPolicy::EveryOp,
            checkpoint_every: 4096,
        }
    }
}

/// What [`Store::open`] recovered from disk.
#[derive(Clone, Debug)]
pub struct Recovered<V> {
    /// Checkpoint records followed by the valid log tail, in append
    /// order — replay them in order to rebuild protocol state.
    pub records: Vec<WalRecord<V>>,
    /// Highest incarnation seen in any [`WalRecord::Node`] record, or
    /// `None` on a virgin disk.
    pub incarnation: Option<u32>,
    /// Bytes of log tail that survived CRC validation (diagnostic).
    pub valid_log_bytes: usize,
}

impl<V> Recovered<V> {
    /// The incarnation the recovering process should run as: one past
    /// the highest persisted one (0 on a virgin disk, matching
    /// never-crashed peers).
    #[must_use]
    pub fn next_incarnation(&self) -> u32 {
        match self.incarnation {
            Some(i) => i.saturating_add(1),
            // Records with no Node watermark still prove a previous
            // life existed (it opened the store and wrote) — never hand
            // out incarnation 0 twice.
            None if self.records.is_empty() => 0,
            None => 1,
        }
    }

    /// Whether the disk held any state at all.
    #[must_use]
    pub fn is_virgin(&self) -> bool {
        self.records.is_empty() && self.incarnation.is_none()
    }
}

/// A CRC-framed write-ahead log over some [`Disk`].
///
/// `V` is the memory's value type. The store is single-writer: a
/// node's driver appends each call's records before the call returns
/// its replies (`causal_dsm::NodeDriver`). Only [`Store::open`] needs
/// `V: Wire`: it captures the record framing as a function pointer, so
/// appending and checkpointing need no bound.
pub struct Store<V> {
    disk: Box<dyn Disk>,
    cfg: DurableConfig,
    generation: u64,
    appends_unsynced: u32,
    records_since_ckpt: u64,
    frame: fn(&[WalRecord<V>]) -> Vec<u8>,
}

impl<V> std::fmt::Debug for Store<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("cfg", &self.cfg)
            .field("generation", &self.generation)
            .field("records_since_ckpt", &self.records_since_ckpt)
            .finish_non_exhaustive()
    }
}

impl<V: Wire> Store<V> {
    /// Opens the store, replaying checkpoint + valid log tail.
    ///
    /// A log whose generation header differs from the checkpoint's was
    /// reset-interrupted (crash between checkpoint install and log
    /// reset); its records are already reflected in the checkpoint
    /// image and are ignored.
    pub fn open(mut disk: Box<dyn Disk>, cfg: DurableConfig) -> (Self, Recovered<V>) {
        let image = disk.load();
        let (mut records, _) = decode_stream::<V>(&image.checkpoint);
        let valid_log_bytes = if image.log_seq == image.checkpoint_seq {
            let (tail, consumed) = decode_stream::<V>(&image.log);
            records.extend(tail);
            consumed
        } else {
            0
        };
        let incarnation = records
            .iter()
            .filter_map(|r| match r {
                WalRecord::Node { incarnation, .. } => Some(*incarnation),
                _ => None,
            })
            .max();
        let store = Store {
            disk,
            cfg,
            generation: image.checkpoint_seq,
            appends_unsynced: 0,
            records_since_ckpt: 0,
            frame: frame_records::<V>,
        };
        (
            store,
            Recovered {
                records,
                incarnation,
                valid_log_bytes,
            },
        )
    }
}

impl<V> Store<V> {
    /// Appends one operation's records, syncing per policy. Returns
    /// once the records are as durable as the policy promises — the
    /// caller may then certify (reply to) the operation.
    pub fn append(&mut self, records: &[WalRecord<V>]) {
        if records.is_empty() {
            return;
        }
        self.disk.append(&(self.frame)(records));
        self.records_since_ckpt += records.len() as u64;
        self.appends_unsynced += 1;
        if let Some(stride) = self.cfg.sync.stride() {
            if self.appends_unsynced >= stride {
                self.sync();
            }
        }
    }

    /// Forces all appended records durable regardless of policy.
    pub fn sync(&mut self) {
        if self.appends_unsynced > 0 {
            self.disk.sync();
            self.appends_unsynced = 0;
        }
    }

    /// Whether enough records accumulated that the owner should take a
    /// checkpoint (cheap to call; the driver checks after each append).
    #[must_use]
    pub fn wants_checkpoint(&self) -> bool {
        self.records_since_ckpt >= self.cfg.checkpoint_every
    }

    /// Installs `image` (a full state snapshot as a record stream) as
    /// the new checkpoint and compacts the log to empty.
    pub fn checkpoint(&mut self, image: &[WalRecord<V>]) {
        self.generation += 1;
        self.disk.commit(&(self.frame)(image), self.generation);
        self.records_since_ckpt = 0;
        self.appends_unsynced = 0;
    }

    /// The store's tuning.
    #[must_use]
    pub fn config(&self) -> DurableConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use memcore::{Location, NodeId, Word, WriteId};
    use vclock::VectorClock;

    use super::*;
    use crate::MemDisk;

    fn write(seq: u64) -> WalRecord<Word> {
        let mut vt = VectorClock::new(2);
        for _ in 0..=seq {
            vt.increment(0);
        }
        WalRecord::Write {
            loc: Location::new(seq as u32 % 4),
            value: Arc::new(Word::Int(seq as i64)),
            wid: WriteId::new(NodeId::new(0), seq),
            origin: vt.clone(),
            node_vt: vt,
            applied: true,
        }
    }

    fn node(incarnation: u32) -> WalRecord<Word> {
        WalRecord::Node {
            vt: VectorClock::new(2),
            write_seq: 0,
            incarnation,
        }
    }

    #[test]
    fn reopen_replays_everything_synced() {
        let disk = MemDisk::new();
        let (mut store, rec) =
            Store::<Word>::open(Box::new(disk.clone()), DurableConfig::default());
        assert!(rec.is_virgin());
        assert_eq!(rec.next_incarnation(), 0);
        let records: Vec<_> = (0..5).map(write).collect();
        for r in &records {
            store.append(std::slice::from_ref(r));
        }
        disk.crash(0); // EveryOp ⇒ nothing to lose.
        let (_, rec) = Store::<Word>::open(Box::new(disk), DurableConfig::default());
        assert_eq!(rec.records, records);
        assert!(rec.valid_log_bytes > 0);
    }

    #[test]
    fn sync_none_loses_unsynced_tail_on_crash() {
        let disk = MemDisk::new();
        let cfg = DurableConfig {
            sync: SyncPolicy::None,
            ..DurableConfig::default()
        };
        let (mut store, _) = Store::<Word>::open(Box::new(disk.clone()), cfg);
        for i in 0..5 {
            store.append(&[write(i)]);
        }
        disk.crash(0);
        let (_, rec) = Store::<Word>::open(Box::new(disk), cfg);
        assert!(rec.records.is_empty(), "nothing was ever synced");
    }

    #[test]
    fn interval_policy_bounds_the_loss() {
        let disk = MemDisk::new();
        let cfg = DurableConfig {
            sync: SyncPolicy::Interval(3),
            ..DurableConfig::default()
        };
        let (mut store, _) = Store::<Word>::open(Box::new(disk.clone()), cfg);
        for i in 0..8 {
            store.append(&[write(i)]);
        }
        // Appends 0..6 synced (two strides of 3); 6 and 7 are exposed.
        disk.crash(0);
        let (_, rec) = Store::<Word>::open(Box::new(disk), cfg);
        assert_eq!(rec.records.len(), 6);
        assert_eq!(rec.records, (0..6).map(write).collect::<Vec<_>>());
    }

    #[test]
    fn torn_tail_is_dropped_not_panicked() {
        let disk = MemDisk::new();
        let cfg = DurableConfig {
            sync: SyncPolicy::Interval(4),
            ..DurableConfig::default()
        };
        let (mut store, _) = Store::<Word>::open(Box::new(disk.clone()), cfg);
        for i in 0..6 {
            store.append(&[write(i)]);
        }
        // Crash keeps the 4 synced records plus 3 bytes of record 4's
        // frame — a mid-record tear.
        disk.crash(3);
        let (_, rec) = Store::<Word>::open(Box::new(disk), cfg);
        assert_eq!(rec.records, (0..4).map(write).collect::<Vec<_>>());
    }

    #[test]
    fn checkpoint_compacts_and_survives_reopen() {
        let disk = MemDisk::new();
        let (mut store, _) = Store::<Word>::open(Box::new(disk.clone()), DurableConfig::default());
        for i in 0..4 {
            store.append(&[write(i)]);
        }
        // The protocol would pass its full state image here; any record
        // stream works for the store.
        store.checkpoint(&[node(1), write(3)]);
        assert_eq!(disk.log_len(), 0, "log compacted");
        store.append(&[write(4)]);
        let (_, rec) = Store::<Word>::open(Box::new(disk), DurableConfig::default());
        assert_eq!(rec.records, vec![node(1), write(3), write(4)]);
        assert_eq!(rec.next_incarnation(), 2);
    }

    #[test]
    fn stale_generation_log_is_ignored() {
        let disk = MemDisk::new();
        let (mut store, _) = Store::<Word>::open(Box::new(disk.clone()), DurableConfig::default());
        store.checkpoint(&[node(0)]);
        store.append(&[write(9)]);
        // Forge the crash window between checkpoint install and log
        // reset: the log claims an older generation.
        disk.force_log_seq(0);
        let (_, rec) = Store::<Word>::open(Box::new(disk), DurableConfig::default());
        assert_eq!(rec.records, vec![node(0)], "stale log tail ignored");
    }

    #[test]
    fn wants_checkpoint_after_threshold() {
        let disk = MemDisk::new();
        let cfg = DurableConfig {
            checkpoint_every: 3,
            ..DurableConfig::default()
        };
        let (mut store, _) = Store::<Word>::open(Box::new(disk), cfg);
        store.append(&[write(0), write(1)]);
        assert!(!store.wants_checkpoint());
        store.append(&[write(2)]);
        assert!(store.wants_checkpoint());
        store.checkpoint(&[write(2)]);
        assert!(!store.wants_checkpoint());
    }

    #[test]
    fn dir_disk_roundtrip_and_compaction() {
        let dir = std::env::temp_dir().join(format!(
            "dsm-durable-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let disk = crate::DirDisk::open(&dir).expect("open dir disk");
            let (mut store, rec) = Store::<Word>::open(Box::new(disk), DurableConfig::default());
            assert!(rec.is_virgin());
            for i in 0..4 {
                store.append(&[write(i)]);
            }
            store.checkpoint(&[node(3), write(3)]);
            store.append(&[write(4)]);
        }
        {
            let disk = crate::DirDisk::open(&dir).expect("reopen dir disk");
            let (_, rec) = Store::<Word>::open(Box::new(disk), DurableConfig::default());
            assert_eq!(rec.records, vec![node(3), write(3), write(4)]);
            assert_eq!(rec.next_incarnation(), 4);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
