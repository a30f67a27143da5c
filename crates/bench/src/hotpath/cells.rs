//! The workloads: one function per cell family, each a pure function of
//! its seed and returning one [`WorkloadReport`].

use std::time::Instant;

use causal_dsm::{CausalCluster, CausalHandle};
use dsm_apps::{
    publish_system, run_causal_solver_sim, run_coordinator, run_worker, LinearSystem, SolverLayout,
    SolverSimConfig,
};
use dsm_net::harness::DEFAULT_READ_PCT;
use memcore::{Location, SharedMemory};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use super::{
    alloc_rates, measure, measure_inline, payload, percentile, report, untimed, AllocProbe,
    Measured, Payload, WorkloadReport,
};

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
pub fn read_heavy_cached(seed: u64, probe: Option<AllocProbe>) -> WorkloadReport {
    const LOCATIONS: u32 = 256;
    // Long enough that a run spans many scheduler quanta — sub-10ms
    // loops made the CI gate flake on busy boxes. Hits send no
    // messages, so the op count is free to grow without perturbing the
    // message-count fixtures.
    const OPS: u64 = 1_000_000;
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
    let m = measure(OPS, probe, |i| {
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
pub fn write_heavy_owner_local(seed: u64, probe: Option<AllocProbe>) -> WorkloadReport {
    const LOCATIONS: u32 = 256;
    // Owner-local writes send no messages either; see read_heavy_cached
    // for why the loop is long.
    const OPS: u64 = 400_000;
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
    let m = measure(OPS, probe, |i| {
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
pub fn mixed_remote(seed: u64, probe: Option<AllocProbe>) -> WorkloadReport {
    const NODES: u32 = 4;
    const LOCATIONS: u32 = 64;
    const OPS: u64 = 20_000;
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
    let m = measure(OPS, probe, |i| {
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
pub fn figure6_solver(seed: u64) -> WorkloadReport {
    const N: usize = 4;
    const PHASES: usize = 8;
    let system = LinearSystem::random(N, seed);
    let layout = SolverLayout::new(N);

    // Deterministic message bill from the simulator.
    let sim = run_causal_solver_sim(
        &system,
        &SolverSimConfig {
            workers: N,
            phases: PHASES,
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
            scope.spawn(move || run_worker(mem, &layout, i, PHASES).expect("worker"));
        }
        scope.spawn(|| run_coordinator(&coordinator, &layout, PHASES).expect("coordinator"));
    });
    let elapsed_ns = start.elapsed().as_nanos() as u64;

    let ops = (N * PHASES) as u64; // one solved component per worker-phase
    let m = untimed(ops, elapsed_ns);
    // The solver sim runs without batching, so every logical message is
    // its own envelope.
    let envelopes = sim.messages.clone();
    report("figure6_solver", seed, m, sim.messages, envelopes, false)
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
pub fn write_pipeline(seed: u64, probe: Option<AllocProbe>, window: u32) -> WorkloadReport {
    const LOCATIONS: u32 = 64;
    const OPS: u64 = 30_000;
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
        OPS,
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
pub fn bursty_invalidate(seed: u64, probe: Option<AllocProbe>, batching: bool) -> WorkloadReport {
    const LOCATIONS: u32 = 64;
    const BURST: u64 = 16;
    const WINDOW: u32 = 8;
    const BURSTS: u64 = 2_000;
    let ops = BURSTS * BURST;
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
pub fn counter_inc(seed: u64, probe: Option<AllocProbe>) -> WorkloadReport {
    use dsm_objects::{ObjVal, PnCounter};

    const OPS: u64 = 200_000;
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
    let m = measure(OPS, probe, |i| {
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
pub fn set_churn(seed: u64, probe: Option<AllocProbe>) -> WorkloadReport {
    use dsm_objects::{CausalSet, ObjVal};

    const OPS: u64 = 120_000;

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
    let m = measure(OPS, probe, |i| {
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
/// 1.0 msgs/op by construction. No wall-clock floor: the append-only
/// grid allows one drain per cluster, so the pass is too brief for a
/// stable throughput gate — the cell exists to pin the pipe's message
/// bill and plot pop latency.
///
/// # Panics
///
/// Panics if the cluster fails to build, an operation errors, or the
/// consumer fails to drain everything the producer pushed.
#[must_use]
pub fn queue_pipe(seed: u64) -> WorkloadReport {
    use dsm_objects::{FifoQueue, ObjVal};

    const DEPTH: usize = 1_024;
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x0F1F_00D1);

    let layout = dsm_objects::GridLayout::new(2, DEPTH);
    let cluster = CausalCluster::<ObjVal>::builder(2, layout.locations())
        .configure(|c| {
            c.owners(layout.owners())
                .policy(causal_dsm::WritePolicy::OwnerFavored)
        })
        .build()
        .expect("build cluster");
    let producer = FifoQueue::new(cluster.handle(0), layout);
    let consumer = FifoQueue::new(cluster.handle(1), layout);

    let items: Vec<i64> = (0..DEPTH).map(|_| rng.gen_range(1..=i64::MAX)).collect();

    let base = cluster.messages().snapshot();
    let env_base = cluster.envelopes().snapshot();
    let mut lat: Vec<u64> = Vec::with_capacity(DEPTH);
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
        ops: 2 * DEPTH as u64, // pushes + pops
        executed: 2 * DEPTH as u64,
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
pub fn failover_migration(seed: u64) -> WorkloadReport {
    const LOCATIONS: u32 = 6;
    const STEADY_OPS: u64 = 64;
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
    let mut lat: Vec<u64> = Vec::with_capacity(STEADY_OPS as usize);
    for i in 0..STEADY_OPS {
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
        executed: 1 + STEADY_OPS,
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
/// No wall-clock floor (`gated: false`): replay cost tracks the
/// durability layer's decode path, not the hot protocol path the floor
/// protects, and the cell exists to plot the trend line against log
/// length.
///
/// # Panics
///
/// Panics if the cluster fails to build, a populate write errors, or
/// recovery comes back at incarnation 0 (meaning the log lost the boot
/// watermark — a durability bug).
#[must_use]
pub fn recovery_replay(seed: u64) -> WorkloadReport {
    use causal_dsm::{CausalConfig, CausalState, DurableConfig, MemDisk, Store, SyncPolicy};
    use memcore::NodeId;

    const LOCATIONS: u32 = 64;
    const WRITES: u64 = 4_096;
    const REPS: usize = 8;
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
    for i in 0..WRITES {
        let l = Location::new(rng.gen_range(0..LOCATIONS / 2) * 2);
        h0.write(l, memcore::Word::Int(i as i64)).expect("populate");
    }
    let delta = cluster.messages().snapshot().since(&base);
    let envs = cluster.envelopes().snapshot().since(&env_base);
    cluster.shutdown();

    // Measure: full-log recovery, repeatedly. `MemDisk` clones share
    // their backing store, so every rep replays the identical log.
    let mut lat: Vec<u64> = Vec::with_capacity(REPS);
    let mut records = 0u64;
    for _ in 0..REPS {
        let t = Instant::now();
        let (_store, recovered) = Store::<memcore::Word>::open(Box::new(disk.clone()), dcfg);
        records = recovered.records.len() as u64;
        let incarnation = recovered.next_incarnation();
        let state = CausalState::recover(
            NodeId::new(0),
            config.clone(),
            recovered.records,
            incarnation,
        );
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
/// No wall-clock floor: socket timing is scheduling-noisy. The concurrent
/// interleaving makes cache misses — and therefore the message bill — a
/// property of the run, not the seed, but it moves the per-op counts by
/// about a percent, well inside [`PROXY_SLACK`](super::PROXY_SLACK).
///
/// # Panics
///
/// Panics if cluster bring-up fails, an operation errors, or the oracle
/// rejects the execution.
#[must_use]
pub fn mixed_remote_tcp(seed: u64, probe: Option<AllocProbe>) -> WorkloadReport {
    let net = dsm_net::NetOptions::default();
    tcp_report("mixed_remote_tcp", seed, probe, 4, DEFAULT_READ_PCT, &net)
}

/// The same cluster-wide script as [`mixed_remote_tcp`], with the
/// event-driven mesh's transport turned all the way up: pipelined writes
/// (window 32) sealed into batch envelopes, so runs of logical messages
/// cross the kernel in single `writev` calls. Read next to `mixed_remote_tcp` the pair is the
/// real-socket ablation: the same logical protocol, fewer envelopes and
/// fewer syscalls per op. No wall-clock floor, like its plain twin.
///
/// # Panics
///
/// Panics if cluster bring-up fails, an operation errors, or the oracle
/// rejects the execution.
#[must_use]
pub fn mixed_remote_tcp_batched(seed: u64, probe: Option<AllocProbe>) -> WorkloadReport {
    let net = dsm_net::NetOptions {
        pipeline: 32,
        batching: true,
        ..dsm_net::NetOptions::default()
    };
    tcp_report(
        "mixed_remote_tcp_batched",
        seed,
        probe,
        4,
        DEFAULT_READ_PCT,
        &net,
    )
}

/// The write-pipeline ablation over real sockets: a two-node cluster runs
/// a pure-write script (read percentage 0), so roughly half the ops are
/// remote WRITE/W_REPLY round trips over the kernel's loopback TCP.
/// Window 0 is the paper's blocking write — one stalled round trip *and*
/// at least one syscall per op; window `W` overlaps `W` of them and lets
/// the batcher seal the overlapped WRITEs into shared envelopes.
/// No wall-clock floor (real-socket timing is scheduling-noisy).
///
/// # Panics
///
/// Panics if cluster bring-up fails, an operation errors, or the oracle
/// rejects the execution.
#[must_use]
pub fn write_pipeline_tcp(seed: u64, probe: Option<AllocProbe>, window: u32) -> WorkloadReport {
    let net = dsm_net::NetOptions {
        pipeline: window,
        batching: window > 0,
        ..dsm_net::NetOptions::default()
    };
    let name = format!("write_pipeline_tcp_w{window}");
    tcp_report(&name, seed, probe, 2, 0, &net)
}

/// Runs the mixed script over loopback TCP — `nodes` nodes, 64
/// locations, 2048 entries, `read_pct` percent reads — and shapes it into
/// a cell: oracle-checks the merged history first (a fast number for an
/// incorrect memory is worthless), then reports the wire-level bill —
/// `write` calls and bytes per op — alongside the logical and envelope
/// bills.
///
/// The allocation probe brackets the whole run, mesh bring-up and
/// teardown included (the harness owns the op phase; the counters are
/// process-wide), so `allocs_per_op` here is "allocations the cluster's
/// life cost, per scripted op" — a fixed per-cluster term plus the per-op
/// one, which is all a ceiling needs. The harness times no individual
/// op, so the cell reports no latency percentiles; TCP latency is the
/// standalone `benchmark/` package's job.
fn tcp_report(
    name: &str,
    seed: u64,
    probe: Option<AllocProbe>,
    nodes: u32,
    read_pct: u8,
    net: &dsm_net::NetOptions,
) -> WorkloadReport {
    let before = probe.map(|p| p());
    let run = dsm_net::run_loopback(nodes, 64, seed, 2048, read_pct, net);
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
        p50_ns: None,
        p99_ns: None,
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
/// reports. No wall-clock floor: the cell measures simulated traffic,
/// and its counts are what the gate holds it to.
///
/// # Panics
///
/// Panics if the simulation wedges or the oracle rejects the execution.
#[must_use]
pub fn scale_cell(seed: u64, n: u32, scoped: bool) -> WorkloadReport {
    use dsm_sim::{ClientOp, Script, Sim, SimOpts};
    use memcore::{NodeId, OwnerMap as _, Word};

    const PAGES_PER_NODE: u32 = 2;
    const VNODES: u32 = 32;
    let locations = n * PAGES_PER_NODE;
    const OPS_PER_NODE: u64 = 24;

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
        let group: Vec<NodeId> = std::iter::once(me).chain(owners.neighbors(me, 2)).collect();
        let working: Vec<Location> = (0..locations)
            .map(Location::new)
            .filter(|loc| group.contains(&owners.owner_of(*loc)))
            .collect();
        let mut script = Vec::with_capacity(OPS_PER_NODE as usize);
        for op in 0..OPS_PER_NODE {
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
    let suffix = if scoped { "" } else { "_dense" };
    let name = format!("scale_n{n}{suffix}");
    let m = untimed(ops, elapsed_ns);
    WorkloadReport {
        metadata_bytes_per_op: metadata as f64 / ops.max(1) as f64,
        ..report(&name, seed, m, delta, envelopes, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_reads_send_no_messages() {
        // Shrunk by hand: the measured phase of the read-heavy workload
        // must be entirely message-free (that is the point of caching).
        let w = read_heavy_cached(7, None);
        assert_eq!(w.protocol_msgs, 0);
        assert_eq!(w.overhead_msgs, 0);
        assert!(w.ops_per_sec > 0.0);
        assert_eq!(w.allocs_per_op, -1.0, "no probe installed");
    }

    #[test]
    fn pipeline_cells_share_one_logical_message_bill() {
        // The ablation contract behind the ≥2× acceptance claim: the
        // window changes *when* the writer blocks, never what crosses
        // the wire. Every cell is exactly one WRITE + one W_REPLY per op.
        let w0 = write_pipeline(7, None, 0);
        let w4 = write_pipeline(7, None, 4);
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
        let plain = bursty_invalidate(7, None, false);
        let batched = bursty_invalidate(7, None, true);
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
        let a = counter_inc(7, None);
        let b = counter_inc(7, None);
        assert_eq!(a.msgs_by_kind, b.msgs_by_kind);
        assert!(a.gated);
        // The hot path is owner-local; only the periodic audits pay.
        assert!(a.msgs_per_op < 0.2, "{} msgs/op", a.msgs_per_op);
        let c = set_churn(7, None);
        let d = set_churn(7, None);
        assert_eq!(c.msgs_by_kind, d.msgs_by_kind);
        assert!(c.gated);
    }

    #[test]
    fn queue_pipe_pays_one_message_per_op() {
        let w = queue_pipe(7);
        assert!(!w.gated, "one short drain is too brief for a floor");
        // D pushes are owner-local appends (free); D pops are one cold
        // READ/READ_REPLY each — exactly 1.0 logical msgs per op.
        assert!(
            (w.msgs_per_op - 1.0).abs() < 1e-9,
            "{} msgs/op",
            w.msgs_per_op
        );
        assert!(w.p50_ns > Some(0) && w.p99_ns >= w.p50_ns);
    }

    #[test]
    fn failover_migration_reports_the_recovery_gap() {
        let w = failover_migration(7);
        assert!(!w.gated, "recovery time has no wall-clock floor");
        assert!(w.elapsed_ns > 0, "the gap is a real wall-clock interval");
        // Heartbeats (and the SUSPECT broadcast) are overhead traffic the
        // cell exists to expose.
        assert!(w.overhead_msgs > 0, "failover overhead must be visible");
        let heartbeats = w.msgs_by_kind.get(memcore::kinds::HEARTBEAT);
        assert!(heartbeats.is_some_and(|&n| n > 0), "{:?}", w.msgs_by_kind);
    }

    #[test]
    fn recovery_replay_reports_replay_time_against_log_length() {
        let w = recovery_replay(7);
        assert!(!w.gated, "replay cost has no wall-clock floor");
        assert_eq!(w.name, "recovery_replay");
        // The log holds at least one record per certified write plus the
        // boot watermark — `ops` is the length the cell plots against.
        assert!(w.ops > 4_096, "log too short to measure: {} records", w.ops);
        assert!(w.elapsed_ns > 0, "replay is a real wall-clock interval");
        assert!(w.p50_ns > Some(0) && w.p99_ns >= w.p50_ns);
        // Owner-local certified writes send nothing: the populate phase
        // must not have leaked protocol traffic into the cell.
        assert_eq!(w.protocol_msgs, 0, "{:?}", w.msgs_by_kind);
    }

    #[test]
    fn scale_cells_show_bounded_metadata_per_op() {
        // The tentpole claim in one assertion pair: on the identical
        // seeded script, dense timestamps pay O(n) bytes per message
        // while interest-scoped sparse ones pay O(interest closure).
        let scoped_16 = scale_cell(7, 16, true);
        let dense_16 = scale_cell(7, 16, false);
        let scoped_64 = scale_cell(7, 64, true);
        let dense_64 = scale_cell(7, 64, false);
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
}
