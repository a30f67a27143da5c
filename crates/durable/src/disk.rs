//! Storage backends for the write-ahead log.
//!
//! A [`Store`](crate::Store) keeps two byte streams: a **checkpoint**
//! (the last compacted state image) and a **log** (records appended
//! since). Both carry an 8-byte little-endian *generation* header so a
//! crash between "install new checkpoint" and "reset log" is
//! detectable: a log whose generation differs from the checkpoint's
//! predates it, and everything in it is already reflected in the
//! checkpoint image — recovery ignores it.
//!
//! Two implementations:
//!
//! * [`DirDisk`] — two files in a data directory, `fsync`ed appends and
//!   atomic-rename checkpoint installs. What `dsm-server --data-dir`
//!   uses.
//! * [`MemDisk`] — a shared in-memory disk with an explicit *synced*
//!   watermark and a [`crash`](MemDisk::crash) operator that discards
//!   (or tears mid-record) everything after it. What the deterministic
//!   simulator uses, so chaos plans can crash a node at an injected WAL
//!   offset and restart it against the surviving bytes.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;
use simnet::codec::Wire;

use crate::{DurableConfig, Recovered, Store};

/// What a backend read back at open time.
#[derive(Clone, Debug, Default)]
pub struct DiskImage {
    /// Generation of the checkpoint stream.
    pub checkpoint_seq: u64,
    /// Checkpoint bytes (CRC frames; possibly empty).
    pub checkpoint: Vec<u8>,
    /// Generation the log stream extends.
    pub log_seq: u64,
    /// Log bytes (CRC frames; possibly torn at the tail).
    pub log: Vec<u8>,
}

/// The storage operations a [`Store`](crate::Store) needs.
///
/// Implementations must make [`commit`](Disk::commit) atomic with
/// respect to crashes: after recovery either the old checkpoint and old
/// log generation are visible, or the new checkpoint with an empty log
/// of the new generation. [`append`](Disk::append)ed bytes become
/// crash-durable only once [`sync`](Disk::sync) returns.
pub trait Disk: Send {
    /// Reads both streams (called once, at open).
    fn load(&mut self) -> DiskImage;
    /// Appends raw frame bytes to the log.
    fn append(&mut self, bytes: &[u8]);
    /// Makes all appended bytes crash-durable.
    fn sync(&mut self);
    /// Atomically installs `checkpoint` as generation `seq` and resets
    /// the log to empty under the same generation.
    fn commit(&mut self, checkpoint: &[u8], seq: u64);
}

const CKPT_FILE: &str = "checkpoint.wal";
const LOG_FILE: &str = "log.wal";

/// A real data directory: `checkpoint.wal` + `log.wal`.
///
/// Appends go through a kept-open file handle; [`Disk::sync`] is
/// `fdatasync`; [`Disk::commit`] writes `checkpoint.tmp`, fsyncs it,
/// renames it over `checkpoint.wal`, then truncates the log to a fresh
/// generation header and fsyncs the directory.
#[derive(Debug)]
pub struct DirDisk {
    dir: PathBuf,
    log: File,
}

fn read_stream(path: &Path) -> (u64, Vec<u8>) {
    let Ok(mut f) = File::open(path) else {
        return (0, Vec::new());
    };
    let mut bytes = Vec::new();
    if f.read_to_end(&mut bytes).is_err() || bytes.len() < 8 {
        return (0, Vec::new());
    }
    let seq = u64::from_le_bytes(bytes[..8].try_into().expect("8-byte header"));
    (seq, bytes.split_off(8))
}

impl DirDisk {
    /// Opens (creating if needed) the data directory `dir`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors creating the directory or the log
    /// file.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let log_path = dir.join(LOG_FILE);
        if !log_path.exists() {
            // Fresh log: its generation is whatever checkpoint exists
            // (none ⇒ generation 0).
            let (seq, _) = read_stream(&dir.join(CKPT_FILE));
            let mut f = File::create(&log_path)?;
            f.write_all(&seq.to_le_bytes())?;
            f.sync_all()?;
        }
        let log = OpenOptions::new().append(true).open(&log_path)?;
        Ok(DirDisk { dir, log })
    }

    fn sync_dir(&self) {
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
    }
}

impl Disk for DirDisk {
    fn load(&mut self) -> DiskImage {
        let (checkpoint_seq, checkpoint) = read_stream(&self.dir.join(CKPT_FILE));
        let (log_seq, log) = read_stream(&self.dir.join(LOG_FILE));
        DiskImage {
            checkpoint_seq,
            checkpoint,
            log_seq,
            log,
        }
    }

    fn append(&mut self, bytes: &[u8]) {
        // An append that fails mid-write leaves a torn tail — exactly
        // what CRC framing exists to detect. Nothing useful to do here
        // beyond trying; certification happens at sync.
        let _ = self.log.write_all(bytes);
    }

    fn sync(&mut self) {
        let _ = self.log.sync_data();
    }

    fn commit(&mut self, checkpoint: &[u8], seq: u64) {
        let tmp = self.dir.join("checkpoint.tmp");
        let write_tmp = || -> std::io::Result<()> {
            let mut f = File::create(&tmp)?;
            f.write_all(&seq.to_le_bytes())?;
            f.write_all(checkpoint)?;
            f.sync_all()
        };
        if write_tmp().is_err() {
            return; // Old checkpoint + full log remain valid.
        }
        if fs::rename(&tmp, self.dir.join(CKPT_FILE)).is_err() {
            return;
        }
        self.sync_dir();
        // New checkpoint is durable; now reset the log under the new
        // generation. A crash before this completes leaves a log of the
        // *old* generation, which recovery ignores (its records are all
        // reflected in the checkpoint image).
        let reset = || -> std::io::Result<File> {
            let mut f = File::create(self.dir.join(LOG_FILE))?;
            f.write_all(&seq.to_le_bytes())?;
            f.sync_all()?;
            OpenOptions::new()
                .append(true)
                .open(self.dir.join(LOG_FILE))
        };
        if let Ok(log) = reset() {
            self.log = log;
        }
        self.sync_dir();
    }
}

#[derive(Debug, Default)]
struct MemInner {
    checkpoint_seq: u64,
    checkpoint: Vec<u8>,
    log_seq: u64,
    log: Vec<u8>,
    /// Bytes of `log` guaranteed to survive a crash.
    synced: usize,
}

/// A deterministic in-memory "disk" whose contents survive a simulated
/// process restart (the handle is cloned and kept outside the crashing
/// node, playing the role of the platter).
///
/// Unsynced bytes survive *until* [`crash`](MemDisk::crash) is called —
/// the crash operator is where the loss (and any torn tail) is decided,
/// which lets a seeded chaos plan choose the exact WAL offset.
#[derive(Clone, Debug, Default)]
pub struct MemDisk(Arc<Mutex<MemInner>>);

impl MemDisk {
    /// A fresh, empty disk.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Simulates the crash: all unsynced log bytes are lost except the
    /// first `torn` of them (a mid-record tear when `torn` lands inside
    /// a frame). Returns the surviving log length.
    pub fn crash(&self, torn: usize) -> usize {
        let mut inner = self.0.lock();
        let keep = (inner.synced + torn).min(inner.log.len());
        inner.log.truncate(keep);
        inner.synced = keep;
        keep
    }

    /// Bytes currently in the log (including unsynced ones).
    #[must_use]
    pub fn log_len(&self) -> usize {
        self.0.lock().log.len()
    }

    /// Bytes of the log guaranteed to survive a crash.
    #[must_use]
    pub fn synced_len(&self) -> usize {
        self.0.lock().synced
    }

    /// What a store opened on this disk right now would recover, read
    /// without taking the disk over: an oracle's view of the platter.
    #[must_use]
    pub fn recovered<V: Wire>(&self) -> Recovered<V> {
        Store::open(Box::new(self.clone()), DurableConfig::default()).1
    }

    /// Test hook: forges a log generation mismatch, as a crash between
    /// checkpoint install and log reset would leave on a real disk.
    pub fn force_log_seq(&self, seq: u64) {
        self.0.lock().log_seq = seq;
    }
}

impl Disk for MemDisk {
    fn load(&mut self) -> DiskImage {
        let inner = self.0.lock();
        DiskImage {
            checkpoint_seq: inner.checkpoint_seq,
            checkpoint: inner.checkpoint.clone(),
            log_seq: inner.log_seq,
            log: inner.log.clone(),
        }
    }

    fn append(&mut self, bytes: &[u8]) {
        self.0.lock().log.extend_from_slice(bytes);
    }

    fn sync(&mut self) {
        let mut inner = self.0.lock();
        inner.synced = inner.log.len();
    }

    fn commit(&mut self, checkpoint: &[u8], seq: u64) {
        // Atomic in the simulation model: commit happens within one
        // scheduler event, and simulated crashes fall between events.
        let mut inner = self.0.lock();
        inner.checkpoint_seq = seq;
        inner.checkpoint = checkpoint.to_vec();
        inner.log_seq = seq;
        inner.log.clear();
        inner.synced = 0;
    }
}
