//! The hot-path throughput/latency suite: seeded workloads on the
//! *threaded* engine, emitting a machine-readable [`PerfReport`]
//! (`BENCH_*.json`) with ops/sec, latency percentiles, allocations per
//! operation, and the protocol-vs-overhead message split.
//!
//! Four workloads, each a pure function of its seed:
//!
//! * `read_heavy_cached` — one node hammers reads that all hit its local
//!   cache (the paper's read-locality case; gated in CI).
//! * `write_heavy_owner_local` — one node writes locations it owns, the
//!   protocol's zero-message write path (gated in CI).
//! * `mixed_remote` — reads and writes spread over a 4-node cluster, with
//!   misses, owner round-trips and invalidation sweeps (gated in CI).
//! * `figure6_solver` — the Figure-6 Jacobi solver end-to-end: threaded
//!   wall-clock makespan plus the deterministic simulator's message bill.
//! * `write_pipeline_w{0,4,32}` — node 0 streams remote writes to node
//!   1's pages; the cells differ only in the configured pipeline window
//!   (0 = the paper's blocking write). Same logical message bill per
//!   cell; the window buys back the blocked round trips (gated in CI).
//! * `bursty_invalidate_{plain,batched}` — bursts of pipelined writes to
//!   one hot owner with transport batching off/on; identical logical
//!   counters, fewer physical envelopes per op when batched (gated).
//! * `failover_migration` — owner failover enabled, the owner of the hot
//!   page fail-stops, and the cell reports the time to the first
//!   operation that succeeds against the promoted successor plus the
//!   heartbeat traffic per post-crash op. Recovery time is dominated by
//!   the configured suspicion/backoff budgets, not by hot-path code, so
//!   this cell is excluded from the CI regression gate (`gated: false`).
//! * `recovery_replay` — WAL replay time vs log length: a `MemDisk`-backed
//!   owner logs thousands of certified writes with compaction off, and the
//!   cell reports the median time to rebuild protocol state from the full
//!   log (`ops` = records replayed, so `ops_per_sec` is replay throughput).
//!   Ungated: the number tracks the durability layer's decode path, not
//!   hot-path code.
//! * `counter_inc` / `set_churn` / `queue_pipe` — the PR-10 typed-object
//!   family over the same engine: PN-counter bumps on owned cells
//!   (message-free, gated), observed-remove-set churn in the owner's row
//!   with periodic remote audits (gated), and a producer/consumer FIFO
//!   drain whose bill is 1.0 msgs/op by construction (ungated — one
//!   short append-only pass per cluster).
//! * `mixed_remote_tcp` — the `mixed_remote` script over `dsm-net`'s real
//!   loopback TCP sockets (one thread per node, each with its own partial
//!   network): every protocol message crosses the kernel. The cell also
//!   runs the merged history through `causal_spec::check_causal`.
//!   Wall-clock over real sockets is scheduling-noisy and concurrent
//!   interleaving makes the miss pattern — hence the message bill —
//!   nondeterministic, so the cell is ungated.
//! * `mixed_remote_tcp_batched` — the same script with pipelined writes
//!   and transport batching on: the real-socket ablation pair for the
//!   PR-7 event-driven mesh (fewer envelopes and `writev` calls per op).
//! * `write_pipeline_tcp_w{0,32}` — the write-pipeline ablation over real
//!   sockets: a two-node pure-write script, blocking vs. pipelined +
//!   batched. Both TCP pairs report `syscalls_per_op` (`writev` calls
//!   counted by the mesh) and are ungated like `mixed_remote_tcp`.
//!
//! Run via `cargo run --release -p dsm-bench --bin perf`; pass
//! `--features alloc-count` to measure allocations with the counting
//! global allocator (the bin installs it and hands the probe in).
//!
//! The optimization contract enforced on top of this suite: hot-path work
//! may change *cost per message*, never *number of messages*. The
//! per-workload `msgs_by_kind` maps in the emitted JSON must be identical
//! between `BENCH_baseline.json` and `BENCH_after.json` for the seeded
//! deterministic workloads (see `tests/msg_fixtures.rs`).

use std::collections::BTreeMap;
use std::time::Instant;

use causal_dsm::{CausalCluster, CausalHandle};
use dsm_apps::{
    publish_system, run_causal_solver_sim, run_coordinator, run_worker, LinearSystem, SolverLayout,
    SolverSimConfig,
};
use memcore::{Location, SharedMemory, StatsSnapshot};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// The value type the payload workloads store: a realistic small blob
/// (64 bytes), so the cost of copying values — the thing shared-value
/// reads eliminate — is visible to the allocator probe.
pub type Payload = Vec<u8>;

/// Bytes per stored payload value.
pub const PAYLOAD_BYTES: usize = 64;

/// A snapshot of the process-wide allocation counters, taken by the
/// `alloc-count` probe the `perf` bin installs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Heap allocations since process start.
    pub allocs: u64,
    /// Bytes requested since process start.
    pub bytes: u64,
}

/// A probe returning the current [`AllocSnapshot`]; `None` when the
/// counting allocator is not compiled in (`allocs_per_op` is then
/// reported as `-1`).
pub type AllocProbe = fn() -> AllocSnapshot;

/// Suite parameters.
#[derive(Clone, Copy, Debug)]
pub struct PerfConfig {
    /// Quick mode: CI-sized op counts (seconds, not minutes).
    pub quick: bool,
}

/// Measurements for one (workload, seed) cell.
///
/// `Deserialize` is hand-written (below) so the three envelope-era
/// fields default when absent — old `BENCH_*.json` baselines predate
/// them, and schema drift must not break the regression gate.
#[derive(Clone, Debug, Serialize)]
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
    /// Median single-op latency (sampled in a separate timed pass).
    pub p50_ns: u64,
    /// 99th-percentile single-op latency.
    pub p99_ns: u64,
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
    /// `messages - envelopes` is the coalescing win. Defaults to 0 when
    /// read from a pre-batching report.
    pub envelope_msgs: u64,
    /// Logical protocol+overhead messages per measured op — the axis the
    /// "equal message counts" ablation contract is stated in.
    pub msgs_per_op: f64,
    /// Physical envelopes per measured op (what batching reduces).
    pub envelopes_per_op: f64,
    /// Estimated transport syscalls per measured op — `writev` calls
    /// counted by the TCP mesh, divided by ops. In-process workloads
    /// push nothing through the kernel, so the estimate is 0 there.
    /// Defaults to 0 when read from a pre-event-loop report.
    pub syscalls_per_op: f64,
    /// Causal-metadata wire bytes per measured op: the exact encoded size
    /// of every vector timestamp shipped, honoring each stamp's
    /// dense/sparse encoding. The `scale_n*` cells exist to plot this
    /// against cluster size. Defaults to 0 when read from a
    /// pre-interest-scoping report.
    pub metadata_bytes_per_op: f64,
    /// Bytes handed to the kernel for peer traffic per measured op, as
    /// counted by the TCP mesh (frame headers, envelope headers and
    /// session traffic included). 0 for in-process workloads and when
    /// read from a report that predates the field.
    pub wire_bytes_per_op: f64,
    /// Whether the CI regression gate applies to this cell.
    pub gated: bool,
}

impl Deserialize for WorkloadReport {
    fn from_value(v: &serde::value::Value) -> Result<Self, serde::DeError> {
        fn req<T: Deserialize>(v: &serde::value::Value, field: &str) -> Result<T, serde::DeError> {
            Deserialize::from_value(v.get(field).ok_or_else(|| {
                serde::DeError::msg(format!("missing field `{field}` in WorkloadReport"))
            })?)
        }
        // The envelope-era fields default when absent so pre-batching
        // baselines still parse (the stand-in derive has no `default`).
        fn opt<T: Deserialize + Default>(
            v: &serde::value::Value,
            field: &str,
        ) -> Result<T, serde::DeError> {
            match v.get(field) {
                Some(present) => Deserialize::from_value(present),
                None => Ok(T::default()),
            }
        }
        Ok(WorkloadReport {
            name: req(v, "name")?,
            seed: req(v, "seed")?,
            ops: req(v, "ops")?,
            elapsed_ns: req(v, "elapsed_ns")?,
            ops_per_sec: req(v, "ops_per_sec")?,
            p50_ns: req(v, "p50_ns")?,
            p99_ns: req(v, "p99_ns")?,
            allocs_per_op: req(v, "allocs_per_op")?,
            alloc_bytes_per_op: req(v, "alloc_bytes_per_op")?,
            protocol_msgs: req(v, "protocol_msgs")?,
            overhead_msgs: req(v, "overhead_msgs")?,
            msgs_by_kind: req(v, "msgs_by_kind")?,
            envelope_msgs: opt(v, "envelope_msgs")?,
            msgs_per_op: opt(v, "msgs_per_op")?,
            envelopes_per_op: opt(v, "envelopes_per_op")?,
            syscalls_per_op: opt(v, "syscalls_per_op")?,
            metadata_bytes_per_op: opt(v, "metadata_bytes_per_op")?,
            wire_bytes_per_op: opt(v, "wire_bytes_per_op")?,
            gated: req(v, "gated")?,
        })
    }
}

/// The whole suite's output — the schema of `BENCH_*.json`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PerfReport {
    /// Schema version of this JSON shape.
    pub schema: u32,
    /// `true` if produced in quick (CI) mode.
    pub quick: bool,
    /// `true` if the counting allocator was active.
    pub alloc_counting: bool,
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

/// The fixed seeds the quick-mode (CI) suite runs.
pub const QUICK_SEEDS: [u64; 2] = [0xC0FFEE, 0x5EED];

/// The seeds the full suite runs.
pub const FULL_SEEDS: [u64; 3] = [0xC0FFEE, 0x5EED, 0xD15EA5E];

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
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
    p50_ns: u64,
    p99_ns: u64,
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

/// The suite's hot cached-read step. This is the operation the headline
/// acceptance numbers are about: serve one cached location to the
/// application. Pre-PR the only path was the deep-copying
/// [`SharedMemory::read`]; the shared-value overhaul routes it through
/// the zero-copy fast path instead.
fn hot_read(handle: &CausalHandle<Payload>, loc: Location) -> usize {
    handle.read_shared(loc).expect("cached read").len()
}

/// Read-heavy cached workload: warm every location into node 1's memory
/// (owned + cached), then hammer seeded random reads — every one a hit.
///
/// # Panics
///
/// Panics if the cluster fails to build or an operation errors (both are
/// engine bugs).
#[must_use]
pub fn read_heavy_cached(seed: u64, cfg: &PerfConfig, probe: Option<AllocProbe>) -> WorkloadReport {
    const LOCATIONS: u32 = 256;
    // Long enough that a quick-mode run spans many scheduler quanta —
    // sub-10ms loops made the CI gate flake on busy boxes. Hits send no
    // messages, so the op count is free to grow without perturbing the
    // message-count fixtures.
    let ops: u64 = if cfg.quick { 1_000_000 } else { 2_000_000 };
    let mut rng = ChaCha8Rng::seed_from_u64(seed);

    let cluster = CausalCluster::<Payload>::builder(2, LOCATIONS)
        .build()
        .expect("build cluster");
    let writer0 = cluster.handle(0);
    let writer1 = cluster.handle(1);
    let reader = cluster.handle(1);

    // Populate: each node writes the locations it owns (round-robin).
    for i in 0..LOCATIONS {
        let value = payload(&mut rng);
        let handle = if i % 2 == 0 { &writer0 } else { &writer1 };
        handle.write(Location::new(i), value).expect("populate");
    }
    // Warm node 1's cache. Install order matters: installing a page
    // sweeps every cached page with a dominated timestamp (the paper's
    // conservative invalidation), and one owner's pages form a vt chain
    // in write order — so warm in *descending* write order, and repeat
    // until a pass sends no messages (a message-free pass is the all-hit
    // steady state the measured phase runs in).
    for _ in 0..4 {
        let before = cluster.messages().snapshot().total();
        for i in (0..LOCATIONS).rev() {
            reader.read(Location::new(i)).expect("warm");
        }
        if cluster.messages().snapshot().total() == before {
            break;
        }
    }

    // Pre-draw the location sequence so the RNG is outside the hot loop.
    let locs: Vec<Location> = (0..4096)
        .map(|_| Location::new(rng.gen_range(0..LOCATIONS)))
        .collect();

    let base = cluster.messages().snapshot();
    let env_base = cluster.envelopes().snapshot();
    let m = measure(ops, probe, |i| {
        let loc = locs[(i as usize) & 4095];
        std::hint::black_box(hot_read(&reader, loc));
    });
    let delta = cluster.messages().snapshot().since(&base);
    let envs = cluster.envelopes().snapshot().since(&env_base);
    report("read_heavy_cached", seed, m, delta, envs, true)
}

/// Write-heavy owner-local workload: node 0 writes locations it owns —
/// the protocol's message-free write path.
///
/// # Panics
///
/// Panics if the cluster fails to build or an operation errors.
#[must_use]
pub fn write_heavy_owner_local(
    seed: u64,
    cfg: &PerfConfig,
    probe: Option<AllocProbe>,
) -> WorkloadReport {
    const LOCATIONS: u32 = 256;
    // Owner-local writes send no messages either; see read_heavy_cached
    // for why quick mode still runs a long loop.
    let ops: u64 = if cfg.quick { 400_000 } else { 800_000 };
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x9E37_79B9);

    let cluster = CausalCluster::<Payload>::builder(2, LOCATIONS)
        .build()
        .expect("build cluster");
    let writer = cluster.handle(0);

    // Pre-build value pool and owned-location sequence (even = node 0's).
    let pool: Vec<Payload> = (0..64).map(|_| payload(&mut rng)).collect();
    let locs: Vec<Location> = (0..4096)
        .map(|_| Location::new(rng.gen_range(0..LOCATIONS / 2) * 2))
        .collect();

    let base = cluster.messages().snapshot();
    let env_base = cluster.envelopes().snapshot();
    let m = measure(ops, probe, |i| {
        let loc = locs[(i as usize) & 4095];
        let value = pool[(i as usize) & 63].clone();
        writer.write(loc, value).expect("owned write");
    });
    let delta = cluster.messages().snapshot().since(&base);
    let envs = cluster.envelopes().snapshot().since(&env_base);
    report("write_heavy_owner_local", seed, m, delta, envs, true)
}

/// Mixed remote workload: one driver issues seeded reads and writes round
/// the whole cluster, exercising misses, owner round-trips, and
/// invalidation sweeps. The op sequence — and therefore the protocol
/// message bill — is a pure function of the seed.
///
/// # Panics
///
/// Panics if the cluster fails to build or an operation errors.
#[must_use]
pub fn mixed_remote(seed: u64, cfg: &PerfConfig, probe: Option<AllocProbe>) -> WorkloadReport {
    const NODES: u32 = 4;
    const LOCATIONS: u32 = 64;
    let ops: u64 = if cfg.quick { 20_000 } else { 100_000 };
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x517C_C1B7);

    let cluster = CausalCluster::<Payload>::builder(NODES, LOCATIONS)
        .build()
        .expect("build cluster");
    let handles = cluster.handles();
    let pool: Vec<Payload> = (0..64).map(|_| payload(&mut rng)).collect();

    // Pre-draw (node, loc, is_read) triples.
    let script: Vec<(usize, Location, bool)> = (0..8192)
        .map(|_| {
            (
                rng.gen_range(0..NODES) as usize,
                Location::new(rng.gen_range(0..LOCATIONS)),
                rng.gen_bool(0.7),
            )
        })
        .collect();

    let base = cluster.messages().snapshot();
    let env_base = cluster.envelopes().snapshot();
    let m = measure(ops, probe, |i| {
        let (node, loc, is_read) = script[(i as usize) & 8191];
        if is_read {
            std::hint::black_box(handles[node].read(loc).expect("read").len());
        } else {
            let value = pool[(i as usize) & 63].clone();
            handles[node].write(loc, value).expect("write");
        }
    });
    let delta = cluster.messages().snapshot().since(&base);
    let envs = cluster.envelopes().snapshot().since(&env_base);
    report("mixed_remote", seed, m, delta, envs, true)
}

/// Figure-6 solver end-to-end: wall-clock makespan of the threaded
/// Jacobi solve, with the *deterministic simulator's* message bill for
/// the same configuration attached (threaded polling waits make the
/// threaded bill timing-dependent, so the simulated one is what the
/// before/after equality contract covers).
///
/// # Panics
///
/// Panics if the solve fails to converge on the machinery level (worker
/// or coordinator errors).
#[must_use]
pub fn figure6_solver(seed: u64, cfg: &PerfConfig) -> WorkloadReport {
    const N: usize = 4;
    let phases: usize = if cfg.quick { 8 } else { 20 };
    let system = LinearSystem::random(N, seed);
    let layout = SolverLayout::new(N);

    // Deterministic message bill from the simulator.
    let sim = run_causal_solver_sim(
        &system,
        &SolverSimConfig {
            workers: N,
            phases,
            seed,
            ..SolverSimConfig::default()
        },
    );
    assert!(sim.all_done, "simulated solver stuck");

    // Threaded end-to-end wall clock.
    let cluster = CausalCluster::<memcore::Word>::builder(layout.nodes(), layout.locations())
        .configure(|c| c.owners(layout.owners()).const_pages(layout.const_pages()))
        .build()
        .expect("build cluster");
    let mut handles = cluster.handles();
    let coordinator = handles.pop().expect("coordinator handle");
    publish_system(&coordinator, &layout, &system).expect("publish");
    let start = Instant::now();
    std::thread::scope(|scope| {
        for (i, mem) in handles.iter().enumerate() {
            scope.spawn(move || run_worker(mem, &layout, i, phases).expect("worker"));
        }
        scope.spawn(|| run_coordinator(&coordinator, &layout, phases).expect("coordinator"));
    });
    let elapsed_ns = start.elapsed().as_nanos() as u64;

    let ops = (N * phases) as u64; // one solved component per worker-phase
    let msgs = sim.messages.protocol_total() + sim.messages.overhead_total();
    WorkloadReport {
        name: "figure6_solver".to_owned(),
        seed,
        ops,
        elapsed_ns,
        ops_per_sec: ops as f64 / (elapsed_ns.max(1) as f64 / 1e9),
        p50_ns: 0,
        p99_ns: 0,
        allocs_per_op: -1.0,
        alloc_bytes_per_op: -1.0,
        protocol_msgs: sim.messages.protocol_total(),
        overhead_msgs: sim.messages.overhead_total(),
        msgs_by_kind: sim.messages.by_kind(),
        // The solver sim runs without batching, so every logical message
        // is its own envelope.
        envelope_msgs: msgs,
        msgs_per_op: msgs as f64 / ops.max(1) as f64,
        envelopes_per_op: msgs as f64 / ops.max(1) as f64,
        syscalls_per_op: 0.0,
        metadata_bytes_per_op: 0.0,
        wire_bytes_per_op: 0.0,
        gated: false,
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

/// Bounded-pipeline workload: node 0 streams writes to pages node 1
/// owns — every op a remote WRITE/W_REPLY pair. The `window` parameter
/// is the ablation axis: window 0 is the paper's blocking Figure-4
/// write (one stalled round trip per op), window `W` overlaps up to `W`
/// of them and `flush()` settles the tail. Every cell sends exactly the
/// same logical message bill — 2 msgs/op — so throughput differences
/// are pure blocking reduction, the enhancement §5 of the paper sketches.
///
/// # Panics
///
/// Panics if the cluster fails to build or an operation errors.
#[must_use]
pub fn write_pipeline(
    seed: u64,
    cfg: &PerfConfig,
    probe: Option<AllocProbe>,
    window: u32,
) -> WorkloadReport {
    const LOCATIONS: u32 = 64;
    let ops: u64 = if cfg.quick { 30_000 } else { 120_000 };
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x00B1_0C5E);

    let cluster = CausalCluster::<Payload>::builder(2, LOCATIONS)
        .configure(|c| c.pipeline_window(window))
        .build()
        .expect("build cluster");
    let writer = cluster.handle(0);

    // Pre-draw values and the remote-location sequence (odd = node 1's).
    let pool: Vec<Payload> = (0..64).map(|_| payload(&mut rng)).collect();
    let locs: Vec<Location> = (0..4096)
        .map(|_| Location::new(rng.gen_range(0..LOCATIONS / 2) * 2 + 1))
        .collect();

    let base = cluster.messages().snapshot();
    let env_base = cluster.envelopes().snapshot();
    let m = measure_inline(
        ops,
        probe,
        |i| {
            let loc = locs[(i as usize) & 4095];
            let value = pool[(i as usize) & 63].clone();
            writer.write_pipelined(loc, value).expect("remote write");
        },
        || writer.flush().expect("flush"),
    );
    let delta = cluster.messages().snapshot().since(&base);
    let envs = cluster.envelopes().snapshot().since(&env_base);
    report(
        &format!("write_pipeline_w{window}"),
        seed,
        m,
        delta,
        envs,
        true,
    )
}

/// Bursty-invalidation workload: node 0 fires bursts of pipelined writes
/// at one hot owner, then flushes and reads its own copy back (a hit —
/// the writer's cache holds the value it just wrote). With `batching`
/// the burst's WRITEs travel in coalesced envelopes, the owner serves
/// the run under one lock acquisition with a single trailing
/// invalidation sweep, and the replies ride back batched — same logical
/// counters, measurably fewer physical envelopes per op.
///
/// # Panics
///
/// Panics if the cluster fails to build or an operation errors.
#[must_use]
pub fn bursty_invalidate(
    seed: u64,
    cfg: &PerfConfig,
    probe: Option<AllocProbe>,
    batching: bool,
) -> WorkloadReport {
    const LOCATIONS: u32 = 64;
    const BURST: u64 = 16;
    const WINDOW: u32 = 8;
    let bursts: u64 = if cfg.quick { 2_000 } else { 8_000 };
    let ops = bursts * BURST;
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x1457_B075);

    let cluster = CausalCluster::<Payload>::builder(2, LOCATIONS)
        .configure(|c| c.pipeline_window(WINDOW).batching(batching))
        .build()
        .expect("build cluster");
    let writer = cluster.handle(0);

    let pool: Vec<Payload> = (0..64).map(|_| payload(&mut rng)).collect();
    let locs: Vec<Location> = (0..4096)
        .map(|_| Location::new(rng.gen_range(0..LOCATIONS / 2) * 2 + 1))
        .collect();

    let base = cluster.messages().snapshot();
    let env_base = cluster.envelopes().snapshot();
    let m = measure_inline(
        ops,
        probe,
        |i| {
            let loc = locs[(i as usize) & 4095];
            let value = pool[(i as usize) & 63].clone();
            writer.write_pipelined(loc, value).expect("burst write");
            // End of burst: settle the window, then touch the freshest
            // page — a cache hit on the writer's own copy, message-free.
            if (i + 1) % BURST == 0 {
                writer.flush().expect("flush");
                std::hint::black_box(writer.read_shared(loc).expect("read back").len());
            }
        },
        || writer.flush().expect("final flush"),
    );
    let delta = cluster.messages().snapshot().since(&base);
    let envs = cluster.envelopes().snapshot().since(&env_base);
    let tag = if batching { "batched" } else { "plain" };
    report(
        &format!("bursty_invalidate_{tag}"),
        seed,
        m,
        delta,
        envs,
        true,
    )
}

/// PN-counter object workload: node 0 hammers `add` on the cells it owns
/// — the typed layer's message-free hot path (each bump is one local
/// read-modify-write of an owned single-cell page) — while node 1
/// periodically refreshes and reads the merged `value()`, paying two
/// remote fetches per sample. Single-driver and seeded, so the message
/// bill is deterministic and the cell is gated: the object veneer must
/// not tax the register fast path.
///
/// # Panics
///
/// Panics if the cluster fails to build or an operation errors.
#[must_use]
pub fn counter_inc(seed: u64, cfg: &PerfConfig, probe: Option<AllocProbe>) -> WorkloadReport {
    use dsm_objects::{ObjVal, PnCounter};

    let ops: u64 = if cfg.quick { 200_000 } else { 400_000 };
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x0C0_47E6);

    let layout = dsm_objects::GridLayout::new(2, 2);
    let cluster = CausalCluster::<ObjVal>::builder(2, layout.locations())
        .configure(|c| {
            c.owners(layout.owners())
                .policy(causal_dsm::WritePolicy::OwnerFavored)
        })
        .build()
        .expect("build cluster");
    let c0 = PnCounter::new(cluster.handle(0), layout);
    let c1 = PnCounter::new(cluster.handle(1), layout);

    // Pre-draw signed deltas so the RNG stays outside the hot loop.
    let deltas: Vec<i64> = (0..4096)
        .map(|_| {
            let d = rng.gen_range(1..=5i64);
            if rng.gen_bool(0.25) {
                -d
            } else {
                d
            }
        })
        .collect();

    let base = cluster.messages().snapshot();
    let env_base = cluster.envelopes().snapshot();
    let m = measure(ops, probe, |i| {
        c0.add(deltas[(i as usize) & 4095]).expect("counter add");
        // Periodic cross-node audit: refresh + merged read (remote).
        if (i + 1) % 64 == 0 {
            c1.refresh();
            std::hint::black_box(c1.value().expect("counter value"));
        }
    });
    let delta = cluster.messages().snapshot().since(&base);
    let envs = cluster.envelopes().snapshot().since(&env_base);
    report("counter_inc", seed, m, delta, envs, true)
}

/// Observed-remove-set churn: node 0 alternates `add`/`remove` of a
/// cycling item window — both stay inside its own row, so the steady
/// state is local read + local write per op — while node 1 periodically
/// refreshes and scans `contains`, paying a full remote row fetch.
/// Single-driver and seeded ⇒ deterministic bill; gated like
/// `counter_inc`.
///
/// # Panics
///
/// Panics if the cluster fails to build or an operation errors.
#[must_use]
pub fn set_churn(seed: u64, cfg: &PerfConfig, probe: Option<AllocProbe>) -> WorkloadReport {
    use dsm_objects::{CausalSet, ObjVal};

    let ops: u64 = if cfg.quick { 120_000 } else { 240_000 };

    let layout = dsm_objects::GridLayout::new(2, 32);
    let cluster = CausalCluster::<ObjVal>::builder(2, layout.locations())
        .configure(|c| {
            c.owners(layout.owners())
                .policy(causal_dsm::WritePolicy::OwnerFavored)
        })
        .build()
        .expect("build cluster");
    let s0 = CausalSet::new(cluster.handle(0), layout);
    let s1 = CausalSet::new(cluster.handle(1), layout);

    let base = cluster.messages().snapshot();
    let env_base = cluster.envelopes().snapshot();
    let m = measure(ops, probe, |i| {
        let item = ((i / 2) % 16 + 1) as i64;
        if i % 2 == 0 {
            s0.add(item).expect("set add");
        } else {
            s0.remove(item).expect("set remove");
        }
        if (i + 1) % 64 == 0 {
            s1.refresh();
            std::hint::black_box(s1.contains(item).expect("set contains"));
        }
    });
    let delta = cluster.messages().snapshot().since(&base);
    let envs = cluster.envelopes().snapshot().since(&env_base);
    report("set_churn", seed, m, delta, envs, true)
}

/// FIFO append-queue pipe: node 0 fills its append-only row, then node 1
/// drains it — every pop a cold fetch of the next producer cell (one
/// READ/READ_REPLY round trip), so the cell's logical bill is exactly
/// 1.0 msgs/op by construction. Ungated: the append-only grid allows one
/// drain per cluster, so the pass is wall-clock short and too brief for
/// a stable throughput gate — the cell exists to pin the pipe's message
/// bill and plot pop latency.
///
/// # Panics
///
/// Panics if the cluster fails to build, an operation errors, or the
/// consumer fails to drain everything the producer pushed.
#[must_use]
pub fn queue_pipe(seed: u64, cfg: &PerfConfig) -> WorkloadReport {
    use dsm_objects::{FifoQueue, ObjVal};

    let depth: usize = if cfg.quick { 1_024 } else { 2_048 };
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x0F1F_00D1);

    let layout = dsm_objects::GridLayout::new(2, depth);
    let cluster = CausalCluster::<ObjVal>::builder(2, layout.locations())
        .configure(|c| {
            c.owners(layout.owners())
                .policy(causal_dsm::WritePolicy::OwnerFavored)
        })
        .build()
        .expect("build cluster");
    let producer = FifoQueue::new(cluster.handle(0), layout);
    let consumer = FifoQueue::new(cluster.handle(1), layout);

    let items: Vec<i64> = (0..depth).map(|_| rng.gen_range(1..=i64::MAX)).collect();

    let base = cluster.messages().snapshot();
    let env_base = cluster.envelopes().snapshot();
    let mut lat: Vec<u64> = Vec::with_capacity(depth);
    let start = Instant::now();
    for &item in &items {
        assert!(producer.push(item).expect("push"), "row filled early");
    }
    for expected in &items {
        let t = Instant::now();
        let got = consumer.pop().expect("pop");
        lat.push(t.elapsed().as_nanos() as u64);
        assert_eq!(got.as_ref(), Some(expected), "pipe reordered or dropped");
    }
    let elapsed_ns = start.elapsed().as_nanos() as u64;
    let delta = cluster.messages().snapshot().since(&base);
    let envs = cluster.envelopes().snapshot().since(&env_base);
    lat.sort_unstable();
    let m = Measured {
        ops: 2 * depth as u64, // pushes + pops
        executed: 2 * depth as u64,
        elapsed_ns,
        p50_ns: percentile(&lat, 0.50),
        p99_ns: percentile(&lat, 0.99),
        allocs_per_op: -1.0,
        alloc_bytes_per_op: -1.0,
    };
    report("queue_pipe", seed, m, delta, envs, false)
}

/// `node` is unreachable forever — the bench's fail-stop model (the
/// node's threads keep running; the transport discards everything
/// addressed to it, which is indistinguishable from death to its peers).
struct BenchDeadNode(u32);

impl simnet::FaultHook for BenchDeadNode {
    fn down_until(&self, node: memcore::NodeId, _at: u64) -> Option<u64> {
        (node.index() as u32 == self.0).then_some(u64::MAX)
    }
}

/// Owner-failover recovery cell: a 3-node cluster with failover enabled
/// runs warm traffic against node 0's pages, node 0 fail-stops, and the
/// cell times the first operation that completes against the promoted
/// successor (suspicion + epoch migration + retry — the availability gap
/// the tentpole bounds). The post-crash phase then measures the steady
/// running cost: heartbeat messages per operation show up in
/// `overhead_msgs`/`msgs_per_op`.
///
/// `elapsed_ns` *is* the recovery gap (and `ops_per_sec` its inverse);
/// p50/p99 cover the post-crash steady ops. Excluded from the regression
/// gate — the number tracks the configured suspicion and backoff
/// budgets, not hot-path code.
///
/// # Panics
///
/// Panics if the cluster fails to build or an operation errors (a
/// post-crash error means failover itself is broken).
#[must_use]
pub fn failover_migration(seed: u64, cfg: &PerfConfig) -> WorkloadReport {
    const LOCATIONS: u32 = 6;
    let steady_ops: u64 = if cfg.quick { 64 } else { 256 };
    // Milliseconds-scale budgets so the cell runs in bench time; the
    // *shape* (suspect after interval × threshold, exponential backoff)
    // matches production defaults.
    let fo = causal_dsm::FailoverConfig {
        heartbeat_interval: 10,
        suspicion_threshold: 2,
        backoff_base: 2,
        backoff_max: 16,
        max_retries: 8,
        heartbeat_fanout: 0,
    };
    let cluster = CausalCluster::<memcore::Word>::builder(3, LOCATIONS)
        .configure(|c| c.failover(fo))
        .build()
        .expect("build cluster");
    let h2 = cluster.handle(2);
    let hot = Location::new(0); // page 0: owned by node 0, successor node 1

    // Warm phase: certified writes give the successor a shadow to
    // promote from, so the measured gap includes no cold-start reads.
    for i in 0..8 {
        h2.write(hot, memcore::Word::Int(i)).expect("warm write");
    }

    // The owner dies. The next operation eats the timeout, migrates the
    // page, retries against the successor — that whole gap is the number.
    cluster.set_fault_hook(Some(std::sync::Arc::new(BenchDeadNode(0))));
    let base = cluster.messages().snapshot();
    let env_base = cluster.envelopes().snapshot();
    let start = Instant::now();
    h2.write(hot, memcore::Word::Int(1000))
        .expect("recovery write");
    let recovery_ns = start.elapsed().as_nanos() as u64;

    // Post-crash steady state: ownership has migrated; these ops measure
    // the failover layer's running overhead (heartbeats keep flowing).
    let mut lat: Vec<u64> = Vec::with_capacity(steady_ops as usize);
    for i in 0..steady_ops {
        let t = Instant::now();
        h2.write(hot, memcore::Word::Int(2000 + i as i64))
            .expect("steady write");
        lat.push(t.elapsed().as_nanos() as u64);
    }
    let delta = cluster.messages().snapshot().since(&base);
    let envs = cluster.envelopes().snapshot().since(&env_base);
    lat.sort_unstable();
    let m = Measured {
        ops: 1, // the recovery op — elapsed_ns is the availability gap
        executed: 1 + steady_ops,
        elapsed_ns: recovery_ns,
        p50_ns: percentile(&lat, 0.50),
        p99_ns: percentile(&lat, 0.99),
        allocs_per_op: -1.0,
        alloc_bytes_per_op: -1.0,
    };
    cluster.set_fault_hook(None);
    let out = report("failover_migration", seed, m, delta, envs, false);
    cluster.shutdown();
    out
}

/// WAL recovery replay: how long a restarted node takes to rebuild its
/// protocol state from a log of certified writes — replay time as a
/// function of log length. The populate phase runs real engine writes
/// against a `MemDisk`-backed owner with compaction pinned off
/// (`checkpoint_every = MAX`), so the log length *is* the write count;
/// the measured phase then replays the whole log (`Store::open` decode
/// plus `CausalState::recover`) repeatedly on clones of the disk.
///
/// `ops` is the number of recovered WAL records (the log length),
/// `elapsed_ns` the median full-log replay, so `ops_per_sec` reads as
/// records replayed per second; p50/p99 cover the per-replay spread.
/// Ungated (`gated: false`): replay cost tracks the durability layer's
/// decode path, not the hot protocol path the regression gate protects,
/// and the cell exists to plot the trend line against log length
/// (quick mode replays a 4× shorter log than full mode).
///
/// # Panics
///
/// Panics if the cluster fails to build, a populate write errors, or
/// recovery comes back at incarnation 0 (meaning the log lost the boot
/// watermark — a durability bug).
#[must_use]
pub fn recovery_replay(seed: u64, cfg: &PerfConfig) -> WorkloadReport {
    use causal_dsm::{CausalConfig, CausalState, DurableConfig, MemDisk, Store, SyncPolicy};
    use memcore::NodeId;

    const LOCATIONS: u32 = 64;
    let writes: u64 = if cfg.quick { 4_096 } else { 16_384 };
    let reps: usize = if cfg.quick { 8 } else { 16 };
    // `EveryOp` is the policy the durability tentpole defaults to; on a
    // MemDisk a sync is a counter bump, so it costs the populate loop
    // nothing while keeping the record stream identical to production.
    let dcfg = DurableConfig {
        sync: SyncPolicy::EveryOp,
        checkpoint_every: u64::MAX,
    };
    let config = CausalConfig::<memcore::Word>::builder(2, LOCATIONS)
        .durability(dcfg)
        .build();
    let disk = MemDisk::new();
    // A durable configuration needs a disk on every hosted node; node
    // 1's log never grows past its boot record.
    let cluster = causal_dsm::CausalCluster::<memcore::Word>::builder(2, LOCATIONS)
        .configure(|c| c.durability(dcfg))
        .disk(NodeId::new(0), Box::new(disk.clone()))
        .disk(NodeId::new(1), Box::new(MemDisk::new()))
        .build()
        .expect("build cluster");

    // Populate: node 0 writes its own (even) locations — zero-message
    // certified writes, each appending one WAL record.
    let h0 = cluster.handle(0);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let base = cluster.messages().snapshot();
    let env_base = cluster.envelopes().snapshot();
    for i in 0..writes {
        let l = Location::new(rng.gen_range(0..LOCATIONS / 2) * 2);
        h0.write(l, memcore::Word::Int(i as i64)).expect("populate");
    }
    let delta = cluster.messages().snapshot().since(&base);
    let envs = cluster.envelopes().snapshot().since(&env_base);
    cluster.shutdown();

    // Measure: full-log recovery, repeatedly. `MemDisk` clones share
    // their backing store, so every rep replays the identical log.
    let mut lat: Vec<u64> = Vec::with_capacity(reps);
    let mut records = 0u64;
    for _ in 0..reps {
        let t = Instant::now();
        let (_store, recovered) = Store::<memcore::Word>::open(Box::new(disk.clone()), dcfg);
        records = recovered.records.len() as u64;
        let incarnation = recovered.next_incarnation();
        let state = CausalState::recover(NodeId::new(0), config.clone(), recovered.records, incarnation);
        lat.push(t.elapsed().as_nanos() as u64);
        assert!(state.incarnation() >= 1, "recovery lost the boot watermark");
    }
    lat.sort_unstable();
    let m = Measured {
        ops: records,
        executed: records,
        elapsed_ns: lat[lat.len() / 2],
        p50_ns: percentile(&lat, 0.50),
        p99_ns: percentile(&lat, 0.99),
        allocs_per_op: -1.0,
        alloc_bytes_per_op: -1.0,
    };
    report("recovery_replay", seed, m, delta, envs, false)
}

/// The mixed-remote workload over real loopback TCP: `dsm-net` spins up
/// one thread per node, each with its own partial network, connected only
/// through kernel sockets — the same data path `dsm-server` processes
/// use. The script is the same shape (and salt) as `mixed_remote`, so the
/// two cells read side by side as in-process vs. real-transport.
///
/// The merged history is checked against the Definition-2 oracle before
/// the cell reports: a fast number for an incorrect memory is worthless.
///
/// Wall-clock ungated: socket timing is scheduling-noisy, and the
/// concurrent interleaving makes cache misses — and therefore the message
/// bill — a property of the run, not the seed. What the gate does hold
/// this cell to is its per-op *proxies* (see [`PROXY_GATED`]).
///
/// # Panics
///
/// Panics if cluster bring-up fails, an operation errors, or the oracle
/// rejects the execution.
#[must_use]
pub fn mixed_remote_tcp(seed: u64, cfg: &PerfConfig, probe: Option<AllocProbe>) -> WorkloadReport {
    const NODES: u32 = 4;
    const LOCATIONS: u32 = 64;
    let script_len = if cfg.quick { 2048 } else { 8192 };
    tcp_report("mixed_remote_tcp", seed, probe, || {
        dsm_net::run_loopback(NODES, LOCATIONS, seed, script_len)
    })
}

/// The same cluster-wide script as [`mixed_remote_tcp`], with the PR-7
/// transport turned all the way up: pipelined writes (window 32) sealed
/// into batch envelopes, so runs of logical messages cross the kernel in
/// single `writev` calls. Read next to `mixed_remote_tcp` the pair is the
/// real-socket ablation: the same logical protocol, fewer envelopes and
/// fewer syscalls per op. Ungated for the same reason as its plain twin.
///
/// # Panics
///
/// Panics if cluster bring-up fails, an operation errors, or the oracle
/// rejects the execution.
#[must_use]
pub fn mixed_remote_tcp_batched(
    seed: u64,
    cfg: &PerfConfig,
    probe: Option<AllocProbe>,
) -> WorkloadReport {
    const NODES: u32 = 4;
    const LOCATIONS: u32 = 64;
    let script_len = if cfg.quick { 2048 } else { 8192 };
    let net = dsm_net::NetOptions {
        pipeline: 32,
        batching: true,
        ..dsm_net::NetOptions::default()
    };
    tcp_report("mixed_remote_tcp_batched", seed, probe, || {
        dsm_net::run_loopback_with(NODES, LOCATIONS, seed, script_len, &net)
    })
}

/// The write-pipeline ablation over real sockets: a two-node cluster runs
/// a pure-write script (read percentage 0), so roughly half the ops are
/// remote WRITE/W_REPLY round trips over the kernel's loopback TCP.
/// Window 0 is the paper's blocking write — one stalled round trip *and*
/// at least one syscall per op; window `W` overlaps `W` of them and lets
/// the batcher seal the overlapped WRITEs into shared envelopes.
/// Wall-clock ungated (real-socket timing is scheduling-noisy); the
/// window-32 cell's per-op proxies are gated (see [`PROXY_GATED`]).
///
/// # Panics
///
/// Panics if cluster bring-up fails, an operation errors, or the oracle
/// rejects the execution.
#[must_use]
pub fn write_pipeline_tcp(
    seed: u64,
    cfg: &PerfConfig,
    probe: Option<AllocProbe>,
    window: u32,
) -> WorkloadReport {
    const NODES: u32 = 2;
    const LOCATIONS: u32 = 64;
    let script_len = if cfg.quick { 2048 } else { 8192 };
    let net = dsm_net::NetOptions {
        pipeline: window,
        batching: window > 0,
        ..dsm_net::NetOptions::default()
    };
    tcp_report(
        &format!("write_pipeline_tcp_w{window}"),
        seed,
        probe,
        || dsm_net::run_loopback_workload(NODES, LOCATIONS, seed, script_len, 0, &net),
    )
}

/// Runs a loopback-TCP workload and shapes it into a cell: oracle-checks
/// the merged history first (a fast number for an incorrect memory is
/// worthless), then reports the wire-level bill — `write` calls and bytes
/// per op — alongside the logical and envelope bills.
///
/// The allocation probe brackets the whole `run`, mesh bring-up and
/// teardown included (the harness owns the op phase; the counters are
/// process-wide), so `allocs_per_op` here is "allocations the cluster's
/// life cost, per scripted op" — a fixed per-cluster term plus the per-op
/// one, which is all a ceiling needs. TCP cells are never wall-clock
/// gated; see [`mixed_remote_tcp`].
fn tcp_report(
    name: &str,
    seed: u64,
    probe: Option<AllocProbe>,
    run: impl FnOnce() -> dsm_net::LoopbackReport,
) -> WorkloadReport {
    let before = probe.map(|p| p());
    let run = run();
    let after = probe.map(|p| p());
    let verdict = causal_spec::check_causal(&run.execution).expect("well-formed execution");
    assert!(verdict.is_correct(), "TCP cluster not causal: {verdict}");

    let ops = run.ops.max(1);
    let msgs = run.protocol_msgs + run.overhead_msgs;
    let (allocs_per_op, alloc_bytes_per_op) = alloc_rates(before, after, ops);
    WorkloadReport {
        name: name.to_owned(),
        seed,
        ops: run.ops,
        elapsed_ns: run.elapsed_ns,
        ops_per_sec: run.ops as f64 / (run.elapsed_ns.max(1) as f64 / 1e9),
        p50_ns: 0,
        p99_ns: 0,
        allocs_per_op,
        alloc_bytes_per_op,
        protocol_msgs: run.protocol_msgs,
        overhead_msgs: run.overhead_msgs,
        msgs_by_kind: run.msgs_by_kind,
        envelope_msgs: run.envelope_msgs,
        msgs_per_op: msgs as f64 / ops as f64,
        envelopes_per_op: run.envelope_msgs as f64 / ops as f64,
        syscalls_per_op: run.wire.writev_calls as f64 / ops as f64,
        metadata_bytes_per_op: 0.0,
        wire_bytes_per_op: run.wire.bytes as f64 / ops as f64,
        gated: false,
    }
}

/// Metadata cost at scale: an `n`-node deterministic simulation with
/// hash-ring ownership and a ring-local share graph — each node touches
/// only pages owned by itself and its two ring successors — reporting
/// the causal-metadata wire bytes shipped per operation.
///
/// With `scoped` on, owner replies carry interest-scoped **sparse**
/// timestamps: `8 + 12·nnz` bytes, where `nnz` is bounded by the share
/// graph's causal closure, not by `n`. The `_dense` twin runs the
/// *identical* seeded script with scoping off, paying the paper's flat
/// `4 + 8·n` bytes per timestamp — so the cell pair plots the tentpole
/// claim directly: dense metadata climbs linearly with cluster size,
/// while scoped metadata saturates at the workload's causal-knowledge
/// horizon (it grows with run length, not with `n`; below the
/// crossover — small clusters, long runs — the pair encoding can even
/// cost more than dense, which is the honest price of the feature).
///
/// Every run is checked against the Definition-2 oracle before it
/// reports. Ungated: the cell measures simulated traffic, not wall
/// clock, and new cells are absent from older baselines anyway.
///
/// # Panics
///
/// Panics if the simulation wedges or the oracle rejects the execution.
#[must_use]
pub fn scale_cell(seed: u64, cfg: &PerfConfig, n: u32, scoped: bool) -> WorkloadReport {
    use dsm_sim::{ClientOp, Script, Sim, SimOpts};
    use memcore::{NodeId, OwnerMap as _, Word};

    const PAGES_PER_NODE: u32 = 2;
    const VNODES: u32 = 32;
    let locations = n * PAGES_PER_NODE;
    let ops_per_node: u64 = if cfg.quick { 24 } else { 96 };

    let recorder = memcore::Recorder::new(n as usize);
    let config = causal_dsm::CausalConfig::<Word>::builder(n, locations)
        .owners(memcore::HashRingOwners::new(n, 1, VNODES))
        .interest_scoping(scoped)
        .build();
    let drivers = (0..n)
        .map(|i| causal_dsm::CausalState::new(NodeId::new(i), config.clone()))
        .map(causal_dsm::NodeDriver::new)
        .collect();
    let mut sim = Sim::new(
        drivers,
        SimOpts {
            seed,
            recorder: Some(recorder.clone()),
            ..SimOpts::default()
        },
    );

    let owners = config.owners();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (u64::from(n) << 8));
    for node in 0..n {
        let me = NodeId::new(node);
        // The node's working set: every location owned by itself or its
        // two ring successors. This is what keeps the interest closure —
        // and therefore the sparse timestamps — O(neighborhood).
        let group: Vec<NodeId> = std::iter::once(me)
            .chain(owners.neighbors(me, 2))
            .collect();
        let working: Vec<Location> = (0..locations)
            .map(Location::new)
            .filter(|loc| group.contains(&owners.owner_of(*loc)))
            .collect();
        let mut script = Vec::with_capacity(ops_per_node as usize);
        for op in 0..ops_per_node {
            let loc = working[rng.gen_range(0..working.len())];
            if rng.gen_range(0..100u32) < 40 {
                let tag = i64::from(node) << 32 | op as i64;
                script.push(ClientOp::Write(loc, Word::Int(tag)));
            } else {
                script.push(ClientOp::Read(loc));
            }
        }
        sim.set_client(node as usize, Script::new(script));
    }

    let start = Instant::now();
    let run = sim.run_to_completion();
    let elapsed_ns = start.elapsed().as_nanos() as u64;
    assert!(run.all_done, "scale sim wedged: {:?}", run.stuck_nodes);

    let exec = causal_spec::Execution::from_recorder(&recorder);
    let verdict = causal_spec::check_causal(&exec).expect("well-formed execution");
    assert!(verdict.is_correct(), "scale sim not causal: {verdict}");

    let ops = recorder.total_ops() as u64;
    let delta = sim.messages().snapshot();
    let envelopes = sim.envelopes().snapshot();
    let metadata = sim.metadata().snapshot().total();
    let executed = ops.max(1) as f64;
    let suffix = if scoped { "" } else { "_dense" };
    WorkloadReport {
        name: format!("scale_n{n}{suffix}"),
        seed,
        ops,
        elapsed_ns,
        ops_per_sec: ops as f64 / (elapsed_ns.max(1) as f64 / 1e9),
        p50_ns: 0,
        p99_ns: 0,
        allocs_per_op: -1.0,
        alloc_bytes_per_op: -1.0,
        protocol_msgs: delta.protocol_total(),
        overhead_msgs: delta.overhead_total(),
        msgs_by_kind: delta.by_kind(),
        envelope_msgs: envelopes.total(),
        msgs_per_op: delta.total() as f64 / executed,
        envelopes_per_op: envelopes.total() as f64 / executed,
        syscalls_per_op: 0.0,
        metadata_bytes_per_op: metadata as f64 / executed,
        wire_bytes_per_op: 0.0,
        gated: false,
    }
}

/// Runs the whole suite: every workload on every seed for the mode.
#[must_use]
pub fn run_suite(cfg: &PerfConfig, probe: Option<AllocProbe>) -> PerfReport {
    let seeds: &[u64] = if cfg.quick { &QUICK_SEEDS } else { &FULL_SEEDS };
    // Each cell is best-of-N: a workload run builds a fresh cluster and
    // replays the same seeded op sequence, so repetition changes only
    // which run's timing is reported — message and allocation counts are
    // identical across reps. Taking the max throughput filters the
    // one-sided scheduling noise of shared CI boxes, which is what a
    // regression gate needs (a genuine slowdown slows every rep; a noisy
    // neighbour slows some).
    let reps = if cfg.quick { 3 } else { 2 };
    let mut workloads = Vec::new();
    for &seed in seeds {
        workloads.push(best_of(reps, || read_heavy_cached(seed, cfg, probe)));
        workloads.push(best_of(reps, || write_heavy_owner_local(seed, cfg, probe)));
        workloads.push(best_of(reps, || mixed_remote(seed, cfg, probe)));
        workloads.push(best_of(reps, || figure6_solver(seed, cfg)));
        for window in [0u32, 4, 32] {
            workloads.push(best_of(reps, || write_pipeline(seed, cfg, probe, window)));
        }
        for batching in [false, true] {
            workloads.push(best_of(reps, || {
                bursty_invalidate(seed, cfg, probe, batching)
            }));
        }
        // Typed-object workload family (PR 10): the object veneer on the
        // same engine paths the register cells cover.
        workloads.push(best_of(reps, || counter_inc(seed, cfg, probe)));
        workloads.push(best_of(reps, || set_churn(seed, cfg, probe)));
        // One rep: ungated (single short drain per cluster; see the cell).
        workloads.push(queue_pipe(seed, cfg));
        // One rep: the cell reports a recovery *gap*, not a throughput —
        // best-of selection over ops_per_sec would just pick the shortest
        // gap, and the cell is ungated anyway.
        workloads.push(failover_migration(seed, cfg));
        // One rep: ungated; the cell's number is a median over its own
        // internal replay repetitions already.
        workloads.push(recovery_replay(seed, cfg));
        // One rep: ungated (real-socket wall-clock), and each run spins
        // up a full TCP mesh — repetition buys nothing the gate uses.
        workloads.push(mixed_remote_tcp(seed, cfg, probe));
        workloads.push(mixed_remote_tcp_batched(seed, cfg, probe));
        for window in [0u32, 32] {
            workloads.push(write_pipeline_tcp(seed, cfg, probe, window));
        }
        // One rep: fully seeded simulated traffic — repetition changes
        // only wall clock, which these ungated cells don't gate on. The
        // scoped/dense pair per size plots metadata bytes against n.
        for n in [16u32, 64, 128] {
            workloads.push(scale_cell(seed, cfg, n, true));
            workloads.push(scale_cell(seed, cfg, n, false));
        }
    }
    PerfReport {
        schema: 1,
        quick: cfg.quick,
        alloc_counting: probe.is_some(),
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

/// The real-socket cells whose per-op proxies — wire bytes and, under the
/// counting allocator, heap allocations — are held to the baseline's
/// value plus [`PROXY_SLACK`]. Their wall-clock is too noisy to gate on a
/// shared box; these counts are not, and they are what a transport change
/// can silently make worse: a frame encoded twice, a copy that allocates,
/// a header that grew.
pub const PROXY_GATED: [&str; 2] = ["mixed_remote_tcp", "write_pipeline_tcp_w32"];

/// Headroom of a proxy ceiling over the baseline's recorded value. The
/// concurrent interleaving moves these cells' miss counts (and with them
/// bytes and allocations per op) by a percent or two from run to run; a lost
/// optimisation moves them by tens.
pub const PROXY_SLACK: f64 = 0.05;

/// Compares `current` against `baseline`: every gated cell must reach at
/// least `1 - threshold` of the baseline's ops/sec, and every
/// [`PROXY_GATED`] cell must stay within [`PROXY_SLACK`] of the baseline's
/// wire bytes per op and (when both reports counted them) allocations per
/// op. Returns the list of violations (empty = pass); cells and proxies
/// present in only one report are ignored (schema drift is not a perf
/// regression).
#[must_use]
pub fn check_regression(
    baseline: &PerfReport,
    current: &PerfReport,
    threshold: f64,
) -> Vec<String> {
    let mut violations = Vec::new();
    for b in baseline.workloads.iter().filter(|w| w.gated) {
        let Some(c) = current.cell(&b.name, b.seed) else {
            continue;
        };
        let floor = b.ops_per_sec * (1.0 - threshold);
        if c.ops_per_sec < floor {
            violations.push(format!(
                "{} (seed {:#x}): {:.0} ops/s < {:.0} ops/s floor ({:.0} baseline, -{:.0}%)",
                b.name,
                b.seed,
                c.ops_per_sec,
                floor,
                b.ops_per_sec,
                threshold * 100.0
            ));
        }
    }
    for b in baseline
        .workloads
        .iter()
        .filter(|w| PROXY_GATED.contains(&w.name.as_str()))
    {
        let Some(c) = current.cell(&b.name, b.seed) else {
            continue;
        };
        let proxies = [
            ("wire bytes/op", b.wire_bytes_per_op, c.wire_bytes_per_op),
            ("allocs/op", b.allocs_per_op, c.allocs_per_op),
        ];
        for (what, base, now) in proxies {
            // Zero or negative: the baseline (or this run) did not record it.
            let ceiling = base * (1.0 + PROXY_SLACK);
            if base > 0.0 && now > 0.0 && now > ceiling {
                violations.push(format!(
                    "{} (seed {:#x}): {now:.2} {what} > {ceiling:.2} ceiling ({base:.2} baseline, +{:.0}%)",
                    b.name,
                    b.seed,
                    PROXY_SLACK * 100.0
                ));
            }
        }
    }
    violations
}

/// Renders a human-readable table of one report.
#[must_use]
pub fn render_perf(report: &PerfReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<24} {:>10} {:>12} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "workload",
        "seed",
        "ops/sec",
        "p50 ns",
        "p99 ns",
        "allocs",
        "proto",
        "overhead",
        "msgs/op",
        "envs/op",
        "sys/op",
        "mdB/op",
        "wireB/op"
    );
    for w in &report.workloads {
        let _ = writeln!(
            out,
            "{:<24} {:>#10x} {:>12.0} {:>9} {:>9} {:>9.2} {:>9} {:>9} {:>9.3} {:>9.3} {:>9.3} {:>9.1} {:>9.1}",
            w.name,
            w.seed,
            w.ops_per_sec,
            w.p50_ns,
            w.p99_ns,
            w.allocs_per_op,
            w.protocol_msgs,
            w.overhead_msgs,
            w.msgs_per_op,
            w.envelopes_per_op,
            w.syscalls_per_op,
            w.metadata_bytes_per_op,
            w.wire_bytes_per_op
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> PerfConfig {
        PerfConfig { quick: true }
    }

    #[test]
    fn cached_reads_send_no_messages() {
        // Shrunk by hand: the measured phase of the read-heavy workload
        // must be entirely message-free (that is the point of caching).
        let w = read_heavy_cached(7, &tiny(), None);
        assert_eq!(w.protocol_msgs, 0);
        assert_eq!(w.overhead_msgs, 0);
        assert!(w.ops_per_sec > 0.0);
        assert_eq!(w.allocs_per_op, -1.0, "no probe installed");
    }

    #[test]
    fn regression_gate_flags_slowdowns() {
        let mk = |ops_per_sec: f64, gated: bool| WorkloadReport {
            name: "w".into(),
            seed: 1,
            ops: 10,
            elapsed_ns: 10,
            ops_per_sec,
            p50_ns: 0,
            p99_ns: 0,
            allocs_per_op: -1.0,
            alloc_bytes_per_op: -1.0,
            protocol_msgs: 0,
            overhead_msgs: 0,
            msgs_by_kind: BTreeMap::new(),
            envelope_msgs: 0,
            msgs_per_op: 0.0,
            envelopes_per_op: 0.0,
            syscalls_per_op: 0.0,
            metadata_bytes_per_op: 0.0,
            wire_bytes_per_op: 0.0,
            gated,
        };
        let base = PerfReport {
            schema: 1,
            quick: true,
            alloc_counting: false,
            workloads: vec![mk(1000.0, true)],
        };
        let ok = PerfReport {
            workloads: vec![mk(900.0, true)],
            ..base.clone()
        };
        let bad = PerfReport {
            workloads: vec![mk(700.0, true)],
            ..base.clone()
        };
        assert!(check_regression(&base, &ok, 0.15).is_empty());
        assert_eq!(check_regression(&base, &bad, 0.15).len(), 1);

        // Ungated cells never fail the gate.
        let ungated_base = PerfReport {
            workloads: vec![mk(1000.0, false)],
            ..base.clone()
        };
        assert!(check_regression(&ungated_base, &bad, 0.15).is_empty());

        // A proxy-gated TCP cell is held to its byte and allocation
        // ceilings whatever its (ungated) wall-clock does.
        let tcp = |wire_bytes_per_op: f64, allocs_per_op: f64| PerfReport {
            workloads: vec![WorkloadReport {
                name: PROXY_GATED[0].into(),
                wire_bytes_per_op,
                allocs_per_op,
                ..mk(1.0, false)
            }],
            ..base.clone()
        };
        let tcp_base = tcp(200.0, 10.0);
        assert!(check_regression(&tcp_base, &tcp(208.0, 10.4), 0.15).is_empty());
        assert_eq!(
            check_regression(&tcp_base, &tcp(211.0, 10.0), 0.15).len(),
            1
        );
        assert_eq!(
            check_regression(&tcp_base, &tcp(211.0, 10.6), 0.15).len(),
            2
        );
        // A run without the counting allocator (-1) skips that proxy only.
        assert!(check_regression(&tcp_base, &tcp(200.0, -1.0), 0.15).is_empty());
        assert!(check_regression(&tcp(200.0, -1.0), &tcp(200.0, 50.0), 0.15).is_empty());
    }

    #[test]
    fn pipeline_cells_share_one_logical_message_bill() {
        // The ablation contract behind the ≥2× acceptance claim: the
        // window changes *when* the writer blocks, never what crosses
        // the wire. Every cell is exactly one WRITE + one W_REPLY per op.
        let w0 = write_pipeline(7, &tiny(), None, 0);
        let w4 = write_pipeline(7, &tiny(), None, 4);
        assert_eq!(
            w0.msgs_by_kind, w4.msgs_by_kind,
            "window must not change the logical message bill"
        );
        assert!((w0.msgs_per_op - 2.0).abs() < 1e-9, "{}", w0.msgs_per_op);
        assert!((w4.msgs_per_op - 2.0).abs() < 1e-9, "{}", w4.msgs_per_op);
        // No batching in these cells: every message is its own envelope.
        assert_eq!(w0.envelope_msgs, w0.protocol_msgs + w0.overhead_msgs);
        assert_eq!(w4.envelope_msgs, w4.protocol_msgs + w4.overhead_msgs);
    }

    #[test]
    fn batching_cuts_envelopes_not_messages() {
        let plain = bursty_invalidate(7, &tiny(), None, false);
        let batched = bursty_invalidate(7, &tiny(), None, true);
        assert_eq!(
            plain.msgs_by_kind, batched.msgs_by_kind,
            "batching must be invisible to the logical counters"
        );
        assert_eq!(
            plain.envelope_msgs,
            plain.protocol_msgs + plain.overhead_msgs
        );
        assert!(
            batched.envelopes_per_op < plain.envelopes_per_op,
            "batched {} envs/op vs plain {} envs/op",
            batched.envelopes_per_op,
            plain.envelopes_per_op
        );
    }

    #[test]
    fn object_cells_pay_deterministic_bills() {
        // The gated object cells are single-driver and seeded: two runs
        // at the same seed must produce the identical per-kind bill.
        let a = counter_inc(7, &tiny(), None);
        let b = counter_inc(7, &tiny(), None);
        assert_eq!(a.msgs_by_kind, b.msgs_by_kind);
        assert!(a.gated);
        // The hot path is owner-local; only the periodic audits pay.
        assert!(a.msgs_per_op < 0.2, "{} msgs/op", a.msgs_per_op);
        let c = set_churn(7, &tiny(), None);
        let d = set_churn(7, &tiny(), None);
        assert_eq!(c.msgs_by_kind, d.msgs_by_kind);
        assert!(c.gated);
    }

    #[test]
    fn queue_pipe_pays_one_message_per_op() {
        let w = queue_pipe(7, &tiny());
        assert!(!w.gated, "one short drain is too brief to gate");
        // D pushes are owner-local appends (free); D pops are one cold
        // READ/READ_REPLY each — exactly 1.0 logical msgs per op.
        assert!(
            (w.msgs_per_op - 1.0).abs() < 1e-9,
            "{} msgs/op",
            w.msgs_per_op
        );
        assert!(w.p50_ns > 0 && w.p99_ns >= w.p50_ns);
    }

    #[test]
    fn failover_migration_reports_the_recovery_gap() {
        let w = failover_migration(7, &tiny());
        assert!(!w.gated, "recovery time must stay outside the perf gate");
        assert!(w.elapsed_ns > 0, "the gap is a real wall-clock interval");
        // Heartbeats (and the SUSPECT broadcast) are overhead traffic the
        // cell exists to expose.
        assert!(w.overhead_msgs > 0, "failover overhead must be visible");
        let heartbeats = w.msgs_by_kind.get(memcore::kinds::HEARTBEAT);
        assert!(heartbeats.is_some_and(|&n| n > 0), "{:?}", w.msgs_by_kind);
    }

    #[test]
    fn recovery_replay_reports_replay_time_against_log_length() {
        let w = recovery_replay(7, &tiny());
        assert!(!w.gated, "replay cost must stay outside the perf gate");
        assert_eq!(w.name, "recovery_replay");
        // The log holds at least one record per certified write plus the
        // boot watermark — `ops` is the length the cell plots against.
        assert!(w.ops > 4_096, "log too short to measure: {} records", w.ops);
        assert!(w.elapsed_ns > 0, "replay is a real wall-clock interval");
        assert!(w.p50_ns > 0 && w.p99_ns >= w.p50_ns);
        // Owner-local certified writes send nothing: the populate phase
        // must not have leaked protocol traffic into the cell.
        assert_eq!(w.protocol_msgs, 0, "{:?}", w.msgs_by_kind);
    }

    #[test]
    fn scale_cells_show_bounded_metadata_per_op() {
        // The tentpole claim in one assertion pair: on the identical
        // seeded script, dense timestamps pay O(n) bytes per message
        // while interest-scoped sparse ones pay O(interest closure).
        let scoped_16 = scale_cell(7, &tiny(), 16, true);
        let dense_16 = scale_cell(7, &tiny(), 16, false);
        let scoped_64 = scale_cell(7, &tiny(), 64, true);
        let dense_64 = scale_cell(7, &tiny(), 64, false);
        assert!(
            scoped_64.metadata_bytes_per_op < dense_64.metadata_bytes_per_op,
            "scoped {} vs dense {} at n=64",
            scoped_64.metadata_bytes_per_op,
            dense_64.metadata_bytes_per_op
        );
        // Dense grows linearly with n; scoped must grow strictly slower
        // than the cluster (4x the nodes, well under 4x the bytes).
        let dense_growth = dense_64.metadata_bytes_per_op / dense_16.metadata_bytes_per_op;
        let scoped_growth = scoped_64.metadata_bytes_per_op / scoped_16.metadata_bytes_per_op;
        assert!(
            scoped_growth < dense_growth,
            "scoped x{scoped_growth:.2} vs dense x{dense_growth:.2} from n=16 to n=64"
        );
        // Scoping must not change the protocol itself: same ops, and the
        // Figure-4 message kinds are unchanged modulo INTEREST drops.
        assert_eq!(scoped_64.ops, dense_64.ops);
    }

    #[test]
    fn reports_round_trip_through_json() {
        let report = PerfReport {
            schema: 1,
            quick: true,
            alloc_counting: false,
            workloads: vec![figure6_solver(3, &PerfConfig { quick: true })],
        };
        let text = serde_json::to_string_pretty(&report).expect("serialize");
        let back: PerfReport = serde_json::from_str(&text).expect("parse");
        assert_eq!(back.workloads[0].name, "figure6_solver");
        assert_eq!(
            back.workloads[0].protocol_msgs,
            report.workloads[0].protocol_msgs
        );
    }
}
