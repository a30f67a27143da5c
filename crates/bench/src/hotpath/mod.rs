//! The hot-path suite: seeded workloads on the *threaded* engine, the
//! simulator and loopback TCP, emitting a machine-readable [`PerfReport`]
//! with ops/sec, latency percentiles, allocations per operation, and the
//! message, envelope and byte bills.
//!
//! [`check_regression`] holds every cell to its count proxies — messages,
//! allocations, wire bytes and metadata bytes per op — and the cells
//! marked `gated` to a wall-clock floor as well. The cells, each a pure
//! function of its seed:
//!
//! * `read_heavy_cached` — one node hammers reads that all hit its local
//!   cache (the paper's read-locality case; wall-clock gated).
//! * `write_heavy_owner_local` — one node writes locations it owns, the
//!   protocol's zero-message write path (wall-clock gated).
//! * `mixed_remote` — reads and writes spread over a 4-node cluster, with
//!   misses, owner round-trips and invalidation sweeps (wall-clock gated).
//! * `figure6_solver` — the Figure-6 Jacobi solver end-to-end: threaded
//!   wall-clock makespan plus the deterministic simulator's message bill.
//! * `write_pipeline_w{0,4,32}` — node 0 streams remote writes to node
//!   1's pages; the cells differ only in the configured pipeline window
//!   (0 = the paper's blocking write). Same logical message bill per
//!   cell; the window buys back the blocked round trips (wall-clock
//!   gated).
//! * `bursty_invalidate_{plain,batched}` — bursts of pipelined writes to
//!   one hot owner with transport batching off/on; identical logical
//!   counters, fewer physical envelopes per op when batched (wall-clock
//!   gated).
//! * `failover_migration` — owner failover enabled, the owner of the hot
//!   page fail-stops, and the cell reports the time to the first
//!   operation that succeeds against the promoted successor plus the
//!   heartbeat traffic per post-crash op. Recovery time is dominated by
//!   the configured suspicion/backoff budgets, not by hot-path code, so
//!   the cell has no wall-clock floor (`gated: false`).
//! * `recovery_replay` — WAL replay time vs log length: a `MemDisk`-backed
//!   owner logs thousands of certified writes with compaction off, and the
//!   cell reports the median time to rebuild protocol state from the full
//!   log (`ops` = records replayed, so `ops_per_sec` is replay throughput).
//!   No wall-clock floor: the number tracks the durability layer's decode
//!   path, not hot-path code.
//! * `counter_inc` / `set_churn` / `queue_pipe` — the typed-object family
//!   over the same engine: PN-counter bumps on owned cells (message-free,
//!   wall-clock gated), observed-remove-set churn in the owner's row with
//!   periodic remote audits (wall-clock gated), and a producer/consumer
//!   FIFO drain whose bill is 1.0 msgs/op by construction (no floor — one
//!   short append-only pass per cluster).
//! * `mixed_remote_tcp` — the `mixed_remote` script over `dsm-net`'s real
//!   loopback TCP sockets (one thread per node, each with its own partial
//!   network): every protocol message crosses the kernel. The cell also
//!   runs the merged history through `causal_spec::check_causal`.
//!   Wall-clock over real sockets is scheduling-noisy, so the TCP cells
//!   have no floor; concurrent interleaving moves their miss pattern —
//!   hence their counts — by about a percent, inside the proxy slack.
//! * `mixed_remote_tcp_batched` — the same script with pipelined writes
//!   and transport batching on: the real-socket ablation pair for the
//!   event-driven mesh (fewer envelopes and `writev` calls per op).
//! * `write_pipeline_tcp_w{0,32}` — the write-pipeline ablation over real
//!   sockets: a two-node pure-write script, blocking vs. pipelined +
//!   batched. Both TCP pairs report `syscalls_per_op` (`writev` calls
//!   counted by the mesh).
//! * `scale_n{16,64,128}{,_dense}` — the simulator at 16–128 nodes with
//!   interest-scoped vs. dense timestamps: metadata bytes per op against
//!   cluster size.
//!
//! Run via `cargo run --release -p dsm-bench --bin perf`: the bin installs
//! a counting global allocator and hands its probe in.
//!
//! The optimization contract enforced on top of this suite: hot-path work
//! may change *cost per message*, never *number of messages* — exactly
//! for the simulated fixtures (see `tests/msg_fixtures.rs`), and within
//! [`PROXY_SLACK`] of `BENCH_after.json` for every cell here.

mod cells;
mod gate;

pub use cells::{
    bursty_invalidate, counter_inc, failover_migration, figure6_solver, mixed_remote,
    mixed_remote_tcp, mixed_remote_tcp_batched, queue_pipe, read_heavy_cached, recovery_replay,
    scale_cell, set_churn, write_heavy_owner_local, write_pipeline, write_pipeline_tcp,
};
pub use gate::{check_regression, render_perf, PROXY_SLACK, THRESHOLD};

use std::collections::BTreeMap;
use std::time::Instant;

use memcore::StatsSnapshot;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// The value type the payload workloads store: a realistic small blob
/// (64 bytes), so the cost of copying values — the thing shared-value
/// reads eliminate — is visible to the allocator probe.
pub type Payload = Vec<u8>;

/// Bytes per stored payload value.
pub const PAYLOAD_BYTES: usize = 64;

/// A snapshot of the process-wide allocation counters, taken by the
/// probe of the counting allocator the `perf` bin installs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Heap allocations since process start.
    pub allocs: u64,
    /// Bytes requested since process start.
    pub bytes: u64,
}

/// A probe returning the current [`AllocSnapshot`]; `None` when no
/// counting allocator is installed, as in unit tests (`allocs_per_op` is
/// then reported as `-1`).
pub type AllocProbe = fn() -> AllocSnapshot;

/// Measurements for one (workload, seed) cell.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WorkloadReport {
    /// Workload name.
    pub name: String,
    /// The seed that determines the op sequence.
    pub seed: u64,
    /// Operations performed in the measured phase.
    pub ops: u64,
    /// Wall-clock nanoseconds for the measured phase.
    pub elapsed_ns: u64,
    /// Throughput over the measured phase.
    pub ops_per_sec: f64,
    /// Median single-op latency (sampled in a separate timed pass);
    /// `None` for cells that time no individual op (the TCP, scale and
    /// solver cells).
    pub p50_ns: Option<u64>,
    /// 99th-percentile single-op latency; `None` like `p50_ns`.
    pub p99_ns: Option<u64>,
    /// Heap allocations per measured op; `-1` without the probe.
    pub allocs_per_op: f64,
    /// Heap bytes requested per measured op; `-1` without the probe.
    pub alloc_bytes_per_op: f64,
    /// Protocol messages sent during the measured phase.
    pub protocol_msgs: u64,
    /// Fault/session bookkeeping messages during the measured phase.
    pub overhead_msgs: u64,
    /// Per-kind message counts (deterministic per seed for every
    /// workload except the threaded solver's polling waits).
    pub msgs_by_kind: BTreeMap<String, u64>,
    /// Physical envelopes sent during the measured phase. Equal to the
    /// logical message total unless transport batching coalesced runs;
    /// `messages - envelopes` is the coalescing win.
    pub envelope_msgs: u64,
    /// Logical protocol+overhead messages per measured op — the axis the
    /// "equal message counts" ablation contract is stated in.
    pub msgs_per_op: f64,
    /// Physical envelopes per measured op (what batching reduces).
    pub envelopes_per_op: f64,
    /// Estimated transport syscalls per measured op — `writev` calls
    /// counted by the TCP mesh, divided by ops. In-process workloads
    /// push nothing through the kernel, so the estimate is 0 there.
    pub syscalls_per_op: f64,
    /// Causal-metadata wire bytes per measured op: the exact encoded size
    /// of every vector timestamp shipped, honoring each stamp's
    /// dense/sparse encoding. The `scale_n*` cells exist to plot this
    /// against cluster size.
    pub metadata_bytes_per_op: f64,
    /// Bytes handed to the kernel for peer traffic per measured op, as
    /// counted by the TCP mesh (frame headers, envelope headers and
    /// session traffic included). 0 for in-process workloads.
    pub wire_bytes_per_op: f64,
    /// Whether the gate's wall-clock floor applies to this cell (the
    /// count proxies apply to every cell).
    pub gated: bool,
}

/// The whole suite's output — the schema of `BENCH_after.json`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PerfReport {
    /// Schema version of this JSON shape.
    pub schema: u32,
    /// One entry per (workload, seed).
    pub workloads: Vec<WorkloadReport>,
}

impl PerfReport {
    /// Looks up a cell by workload name and seed.
    #[must_use]
    pub fn cell(&self, name: &str, seed: u64) -> Option<&WorkloadReport> {
        self.workloads
            .iter()
            .find(|w| w.name == name && w.seed == seed)
    }
}

/// The fixed seeds the suite runs.
pub const SEEDS: [u64; 2] = [0xC0FFEE, 0x5EED];

/// The `p`-quantile of a sorted latency sample; `None` for a cell that
/// timed no individual op.
fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    let last = sorted.len().checked_sub(1)?;
    Some(sorted[(last as f64 * p).round() as usize])
}

/// Shared measurement scaffolding: runs `op` for `ops` iterations with
/// the clock and allocator probe around the whole loop, then a shorter
/// pass timing individual ops for percentiles.
struct Measured {
    ops: u64,
    /// Total operations actually executed (throughput + latency passes) —
    /// the denominator for per-op message and envelope rates, which are
    /// deltas over the whole measured region.
    executed: u64,
    elapsed_ns: u64,
    p50_ns: Option<u64>,
    p99_ns: Option<u64>,
    allocs_per_op: f64,
    alloc_bytes_per_op: f64,
}

/// Allocations and allocated bytes per op between two probe snapshots;
/// `-1` each without the probe.
fn alloc_rates(
    before: Option<AllocSnapshot>,
    after: Option<AllocSnapshot>,
    ops: u64,
) -> (f64, f64) {
    match (before, after) {
        (Some(b), Some(a)) => (
            (a.allocs - b.allocs) as f64 / ops as f64,
            (a.bytes - b.bytes) as f64 / ops as f64,
        ),
        _ => (-1.0, -1.0),
    }
}

fn measure(ops: u64, probe: Option<AllocProbe>, mut op: impl FnMut(u64)) -> Measured {
    // Throughput phase: no per-op timing, allocator probe around the loop.
    let before = probe.map(|p| p());
    let start = Instant::now();
    for i in 0..ops {
        op(i);
    }
    let elapsed_ns = start.elapsed().as_nanos() as u64;
    let after = probe.map(|p| p());
    let (allocs_per_op, alloc_bytes_per_op) = alloc_rates(before, after, ops);

    // Latency phase: per-op timing on a sample.
    let samples = ops.min(20_000);
    let mut lat: Vec<u64> = Vec::with_capacity(samples as usize);
    for i in 0..samples {
        let t = Instant::now();
        op(ops + i);
        lat.push(t.elapsed().as_nanos() as u64);
    }
    lat.sort_unstable();

    Measured {
        ops,
        executed: ops + samples,
        elapsed_ns,
        p50_ns: percentile(&lat, 0.50),
        p99_ns: percentile(&lat, 0.99),
        allocs_per_op,
        alloc_bytes_per_op,
    }
}

/// A cell that times only its whole run — no per-op latency, and no
/// allocation probe around it.
fn untimed(ops: u64, elapsed_ns: u64) -> Measured {
    Measured {
        ops,
        executed: ops,
        elapsed_ns,
        p50_ns: None,
        p99_ns: None,
        allocs_per_op: -1.0,
        alloc_bytes_per_op: -1.0,
    }
}

fn payload(rng: &mut ChaCha8Rng) -> Payload {
    let mut v = vec![0u8; PAYLOAD_BYTES];
    for b in &mut v {
        *b = rng.gen_range(0..=255u32) as u8;
    }
    v
}

fn report(
    name: &str,
    seed: u64,
    m: Measured,
    delta: StatsSnapshot,
    envelopes: StatsSnapshot,
    gated: bool,
) -> WorkloadReport {
    let executed = m.executed.max(1) as f64;
    WorkloadReport {
        name: name.to_owned(),
        seed,
        ops: m.ops,
        elapsed_ns: m.elapsed_ns,
        ops_per_sec: m.ops as f64 / (m.elapsed_ns.max(1) as f64 / 1e9),
        p50_ns: m.p50_ns,
        p99_ns: m.p99_ns,
        allocs_per_op: m.allocs_per_op,
        alloc_bytes_per_op: m.alloc_bytes_per_op,
        protocol_msgs: delta.protocol_total(),
        overhead_msgs: delta.overhead_total(),
        msgs_by_kind: delta.by_kind(),
        envelope_msgs: envelopes.total(),
        msgs_per_op: delta.total() as f64 / executed,
        envelopes_per_op: envelopes.total() as f64 / executed,
        syscalls_per_op: 0.0,
        metadata_bytes_per_op: 0.0,
        wire_bytes_per_op: 0.0,
        gated,
    }
}

/// Timing scaffold for the pipeline workloads: runs the whole seeded
/// loop (plus the trailing `flush`) under one clock and alloc-probe
/// region, sampling every 32nd op's latency inline so the message bill
/// stays a pure function of the seed (a separate latency pass would add
/// traffic and skew the per-op rates).
fn measure_inline(
    ops: u64,
    probe: Option<AllocProbe>,
    mut op: impl FnMut(u64),
    finish: impl FnOnce(),
) -> Measured {
    let mut lat: Vec<u64> = Vec::with_capacity((ops / 32 + 1) as usize);
    let before = probe.map(|p| p());
    let start = Instant::now();
    for i in 0..ops {
        if i & 31 == 0 {
            let t = Instant::now();
            op(i);
            lat.push(t.elapsed().as_nanos() as u64);
        } else {
            op(i);
        }
    }
    finish();
    let elapsed_ns = start.elapsed().as_nanos() as u64;
    let after = probe.map(|p| p());
    let (allocs_per_op, alloc_bytes_per_op) = alloc_rates(before, after, ops);
    lat.sort_unstable();
    Measured {
        ops,
        executed: ops,
        elapsed_ns,
        p50_ns: percentile(&lat, 0.50),
        p99_ns: percentile(&lat, 0.99),
        allocs_per_op,
        alloc_bytes_per_op,
    }
}

/// Runs the whole suite: every workload on every seed.
#[must_use]
pub fn run_suite(probe: Option<AllocProbe>) -> PerfReport {
    // Each cell is best-of-N: a workload run builds a fresh cluster and
    // replays the same seeded op sequence, so repetition changes only
    // which run's timing is reported — message and allocation counts are
    // identical across reps. Taking the max throughput filters the
    // one-sided scheduling noise of shared CI boxes, which is what a
    // regression gate needs (a genuine slowdown slows every rep; a noisy
    // neighbour slows some).
    const REPS: u32 = 3;
    let mut workloads = Vec::new();
    for seed in SEEDS {
        workloads.push(best_of(REPS, || read_heavy_cached(seed, probe)));
        workloads.push(best_of(REPS, || write_heavy_owner_local(seed, probe)));
        workloads.push(best_of(REPS, || mixed_remote(seed, probe)));
        workloads.push(best_of(REPS, || figure6_solver(seed)));
        for window in [0u32, 4, 32] {
            workloads.push(best_of(REPS, || write_pipeline(seed, probe, window)));
        }
        for batching in [false, true] {
            workloads.push(best_of(REPS, || bursty_invalidate(seed, probe, batching)));
        }
        // Typed-object workload family: the object veneer on the same
        // engine paths the register cells cover.
        workloads.push(best_of(REPS, || counter_inc(seed, probe)));
        workloads.push(best_of(REPS, || set_churn(seed, probe)));
        // One rep: no wall-clock floor (single short drain per cluster;
        // see the cell).
        workloads.push(queue_pipe(seed));
        // One rep: the cell reports a recovery *gap*, not a throughput —
        // best-of selection over ops_per_sec would just pick the shortest
        // gap, and the cell has no floor anyway.
        workloads.push(failover_migration(seed));
        // One rep: the cell's number is a median over its own internal
        // replay repetitions already.
        workloads.push(recovery_replay(seed));
        // One rep: real-socket wall-clock has no floor, and each run spins
        // up a full TCP mesh — repetition buys nothing the gate uses.
        workloads.push(mixed_remote_tcp(seed, probe));
        workloads.push(mixed_remote_tcp_batched(seed, probe));
        for window in [0u32, 32] {
            workloads.push(write_pipeline_tcp(seed, probe, window));
        }
        // One rep: fully seeded simulated traffic — repetition changes
        // only wall clock, which these cells have no floor on. The
        // scoped/dense pair per size plots metadata bytes against n.
        for n in [16u32, 64, 128] {
            workloads.push(scale_cell(seed, n, true));
            workloads.push(scale_cell(seed, n, false));
        }
    }
    PerfReport {
        schema: 2,
        workloads,
    }
}

fn best_of(reps: u32, run: impl Fn() -> WorkloadReport) -> WorkloadReport {
    let mut best = run();
    for _ in 1..reps {
        let next = run();
        if next.ops_per_sec > best.ops_per_sec {
            best = next;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_round_trip_through_json() {
        let report = PerfReport {
            schema: 2,
            workloads: vec![figure6_solver(3), queue_pipe(3)],
        };
        let text = serde_json::to_string_pretty(&report).expect("serialize");
        let back: PerfReport = serde_json::from_str(&text).expect("parse");
        assert_eq!(back.workloads[0].name, "figure6_solver");
        assert_eq!(
            back.workloads[0].protocol_msgs,
            report.workloads[0].protocol_msgs
        );
        // An untimed cell's latency is `null`, not a zero measurement.
        assert_eq!(back.workloads[0].p50_ns, None);
        assert_eq!(back.workloads[1].p50_ns, report.workloads[1].p50_ns);
        assert!(back.workloads[1].p50_ns.is_some());
    }

    #[test]
    fn the_checked_in_baseline_parses() {
        // The gate's only input besides the fresh run: a schema change
        // that leaves it stale fails here, not only in CI's perf job.
        let baseline: PerfReport =
            serde_json::from_str(include_str!("../../../../BENCH_after.json"))
                .expect("BENCH_after.json matches the report schema");
        assert_eq!(baseline.schema, 2);
        assert!(baseline.workloads.iter().all(|w| SEEDS.contains(&w.seed)));
    }
}
