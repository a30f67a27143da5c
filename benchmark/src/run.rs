//! The two kinds of run: end to end (tracing off) and per layer (traced).

use std::io;
use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, Instant};

use causal_spec::{check_causal, Execution};
use memcore::{Location, Recorder};

use crate::alloc;
use crate::client::{Client, ClientReport, Until, SLICES};
use crate::cluster::{Cluster, Counters, Plan, Scratch};
use crate::hist::{median, Hist};
use crate::micro;
use crate::timeline;
use crate::trace;
use crate::workload::{encode_value, Checker, OpGen, Workload, NODES};

/// Bring-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;
/// Ops of the stream replayed under a recorder and checked by the
/// Definition-2 oracle.
pub const ORACLE_OPS: u64 = 4096;

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of the op streams.
    pub seed: u64,
    /// Length of the measured phase in seconds.
    pub seconds: u64,
}

/// One reported number.
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Values the number was computed from, for the printed report.
    pub samples: u64,
}

/// The result of one run.
#[derive(Default)]
pub struct Outcome {
    /// Ops and checks attempted.
    pub attempted: u64,
    /// Ops that failed plus checks that did not hold.
    pub failed: u64,
    /// Why, one line per distinct failure.
    pub failures: Vec<String>,
    /// The run's metrics.
    pub metrics: Vec<Metric>,
    /// Numbers printed with the report that `BENCHMARK.json` does not
    /// list for this kind of run.
    pub info: Vec<Metric>,
}

impl Outcome {
    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: u64) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Adds a number to print beside the metrics.
    pub fn note(&mut self, name: &'static str, value: f64, unit: &'static str, samples: u64) {
        self.info.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Counts one failed check.
    pub fn fail(&mut self, why: String) {
        self.check(false, || why);
    }

    /// Counts one check; a failed one carries its explanation.
    fn check(&mut self, held: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !held {
            self.failed += 1;
            self.failures.push(why());
        }
    }

    fn absorb(&mut self, reports: &[ClientReport]) {
        for r in reports {
            self.attempted += r.ops;
            self.failed += r.failed;
            if let Some(why) = &r.first_failure {
                self.failures
                    .push(format!("{} ops failed, first: {why}", r.failed));
            }
        }
    }
}

/// A cluster with its clients warmed up.
struct Ready {
    cluster: Cluster,
    clients: Vec<Client>,
    data_dirs: Option<Vec<PathBuf>>,
}

fn run_clients(clients: &mut [Client], until: Until) -> Vec<ClientReport> {
    thread::scope(|scope| {
        let running: Vec<_> = clients
            .iter_mut()
            .map(|client| scope.spawn(move || client.run(until)))
            .collect();
        running
            .into_iter()
            .map(|t| t.join().expect("client thread panicked"))
            .collect()
    })
}

/// Brings a cluster up and seats the workload's clients on it.
fn bring_up(
    opts: &Options,
    scratch: &mut Scratch,
    traced: bool,
    recorder: Option<Recorder<dsm_net::Payload>>,
) -> io::Result<Ready> {
    let w = opts.workload;
    let data_dirs = if w.durable() {
        Some(scratch.data_dirs()?)
    } else {
        None
    };
    let cluster = Cluster::start(&Plan {
        workload: w,
        data_dirs: data_dirs.as_deref(),
        recorder,
        traced,
    })?;
    let clients = w
        .clients()
        .iter()
        .map(|&me| Client {
            handle: cluster.nodes[me as usize].handle(),
            ops: OpGen::new(w, opts.seed, me),
            checker: Checker::new(w, me),
            me,
            workload: w,
            traced: false,
        })
        .collect();
    Ok(Ready {
        cluster,
        clients,
        data_dirs,
    })
}

/// [`bring_up`] plus the fixed-count warm-up: everything between process
/// start and the first measured op.
fn set_up(
    opts: &Options,
    scratch: &mut Scratch,
    traced: bool,
) -> io::Result<(Ready, Vec<ClientReport>)> {
    let mut ready = bring_up(opts, scratch, traced, None)?;
    let warm = run_clients(&mut ready.clients, Until::Ops(opts.workload.warmup_ops()));
    Ok((ready, warm))
}

/// One measured phase.
struct Measured {
    /// Ops per latency sample.
    per_sample: f64,
    reports: Vec<ClientReport>,
    /// Cluster counters over the phase.
    delta: Counters,
    ops: u64,
    reads: u64,
    nanos: u64,
}

impl Measured {
    /// Per slice, ops per second summed over the clients.
    fn slice_rates(&self) -> Vec<f64> {
        let slice_s = self.nanos as f64 / SLICES as f64 / 1e9;
        (0..SLICES)
            .map(|s| self.reports.iter().map(|r| r.slices[s].ops).sum::<u64>() as f64 / slice_s)
            .collect()
    }

    /// Per slice, the read (or write) sample durations of all clients.
    fn slice_hists(&self, reads: bool) -> Vec<Hist> {
        (0..SLICES)
            .map(|s| {
                let mut all = Hist::new();
                for r in &self.reports {
                    let slice = &r.slices[s];
                    all.merge(if reads { &slice.reads } else { &slice.writes });
                }
                all
            })
            .collect()
    }

    /// The `q`-quantile of the per-op latency in microseconds that a
    /// quarter of the slices stay under, and the number of samples in all
    /// slices.
    fn latency_us(&self, reads: bool, q: f64) -> (f64, u64) {
        let hists = self.slice_hists(reads);
        let mut per_slice: Vec<f64> = hists.iter().filter_map(|h| h.quantile(q)).collect();
        let samples = hists.iter().map(Hist::count).sum();
        per_slice.sort_by(f64::total_cmp);
        let ns = per_slice.get(per_slice.len() / 4).copied().unwrap_or(0.0) / self.per_sample;
        (ns / 1e3, samples)
    }

    /// The ops per second that a quarter of the slices reach.
    fn ops_per_s(&self) -> f64 {
        let mut rates = self.slice_rates();
        rates.sort_by(|a, b| b.total_cmp(a));
        rates[rates.len() / 4]
    }

    /// Ops per second over each client's whole phase, however long it
    /// ran: a traced phase may end before its deadline.
    fn mean_ops_per_s(&self) -> f64 {
        self.reports
            .iter()
            .map(|r| r.ops as f64 / (r.elapsed_ns as f64 / 1e9))
            .sum()
    }
}

fn measure(ready: &mut Ready, seconds: f64) -> Measured {
    let before = ready.cluster.counters();
    let nanos = (seconds * 1e9) as u64;
    // Far enough ahead that every client thread is running by then.
    let start = trace::now_ns() + 2_000_000;
    let reports = run_clients(&mut ready.clients, Until::Deadline { start, nanos });
    Measured {
        per_sample: ready.clients[0].workload.ops_per_sample() as f64,
        delta: ready.cluster.counters().since(&before),
        ops: reports.iter().map(|r| r.ops).sum(),
        reads: reports.iter().map(|r| r.reads).sum(),
        reports,
        nanos,
    }
}

/// The message bill of a phase against what the workload fixes.
fn check_bill(out: &mut Outcome, w: Workload, m: &Measured) {
    if let Some(per_op) = w.exact_msgs_per_op() {
        let msgs = m.delta.protocol_msgs();
        out.check(msgs == per_op * m.ops, || {
            format!(
                "{msgs} protocol messages for {} ops, expected exactly {per_op} per op",
                m.ops
            )
        });
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restarts every node of a stopped durable cluster on its data
/// directory and reads every written location from a fresh cache: each
/// must hold the last acknowledged value. Returns the bring-up time of
/// the second life.
fn read_back(
    out: &mut Outcome,
    w: Workload,
    data_dirs: &[PathBuf],
    last_acked: &[u64],
) -> io::Result<f64> {
    let began = Instant::now();
    let cluster = Cluster::start(&Plan {
        workload: w,
        data_dirs: Some(data_dirs),
        recorder: None,
        traced: false,
    })?;
    let recover_s = began.elapsed().as_secs_f64();
    let writer = w.clients()[0];
    let handle = cluster.nodes[writer as usize].handle();
    for (i, &seq) in last_acked.iter().enumerate() {
        if seq == 0 {
            continue;
        }
        let loc = Location::new(i as u32);
        let got = handle.read_shared(loc);
        out.check(
            got.as_ref().is_ok_and(|v| **v == encode_value(writer, seq)),
            || format!("after restart {loc:?} does not hold acknowledged write {seq}: {got:?}"),
        );
    }
    cluster.shutdown();
    Ok(recover_s)
}

/// Replays the first [`ORACLE_OPS`] ops of the streams on a recorded
/// cluster of the same configuration and checks the history against
/// Definition 2. Returns the checker's speed in ops per second.
fn oracle_pass(out: &mut Outcome, opts: &Options, scratch: &mut Scratch) -> io::Result<f64> {
    let recorder = Recorder::new(NODES as usize);
    let mut ready = bring_up(opts, scratch, false, Some(recorder.clone()))?;
    let each = ORACLE_OPS / ready.clients.len() as u64;
    let reports = run_clients(&mut ready.clients, Until::Ops(each));
    ready.cluster.shutdown();
    out.absorb(&reports);
    let execution = Execution::from_recorder(&recorder);
    let began = Instant::now();
    let verdict = check_causal(&execution);
    let took = began.elapsed().as_secs_f64();
    out.check(
        verdict.as_ref().is_ok_and(|report| report.is_correct()),
        || match &verdict {
            Ok(report) => format!("oracle: {report}"),
            Err(e) => format!("oracle: malformed history: {e}"),
        },
    );
    Ok(execution.total_ops() as f64 / took)
}

/// The end-to-end run: shipped bring-up, tracing off.
///
/// # Errors
///
/// Propagates bring-up and filesystem errors.
pub fn end_to_end(opts: &Options) -> io::Result<Outcome> {
    let w = opts.workload;
    let mut out = Outcome::default();
    let mut scratch = Scratch::new()?;

    let began = Instant::now();
    let (mut ready, warm) = set_up(opts, &mut scratch, false)?;
    let mut setups = vec![began.elapsed().as_secs_f64()];
    out.absorb(&warm);

    let m = measure(&mut ready, opts.seconds as f64);
    // Before the further set-ups below, so the peak is that of one
    // cluster's life.
    let rss = peak_rss_mib();
    out.absorb(&m.reports);
    check_bill(&mut out, w, &m);

    out.metric("ops_per_s", m.ops_per_s(), "1/s", m.ops);
    for (name, reads, q) in [
        ("read_p50_us", true, 0.5),
        ("read_p95_us", true, 0.95),
        ("write_p50_us", false, 0.5),
        ("write_p95_us", false, 0.95),
    ] {
        let (us, samples) = m.latency_us(reads, q);
        out.metric(name, us, "us", samples);
    }
    // The paper's own currency, beside the time: exact by construction
    // on the single-client workloads, and 0 on `local_hot`, which is why
    // `BENCHMARK.json` cannot list them end to end.
    let ops = m.ops as f64;
    out.note(
        "msgs_per_op",
        m.delta.protocol_msgs() as f64 / ops,
        "count",
        m.ops,
    );
    out.note(
        "wire_bytes_per_op",
        m.delta.wire.bytes as f64 / ops,
        "B",
        m.ops,
    );

    let last_acked = ready.clients[0].checker.last_acked();
    ready.cluster.shutdown();
    if let Some(dirs) = &ready.data_dirs {
        read_back(&mut out, w, dirs, &last_acked)?;
    }

    // One set-up time would be one draw of connect and thread-start
    // latencies; the median of several is what later changes are held to.
    while setups.len() < SETUP_REPEATS {
        let began = Instant::now();
        let (again, warm) = set_up(opts, &mut scratch, false)?;
        setups.push(began.elapsed().as_secs_f64());
        out.absorb(&warm);
        again.cluster.shutdown();
    }
    out.metric(
        "setup_s",
        median(&mut setups).expect("at least one set-up"),
        "s",
        SETUP_REPEATS as u64,
    );
    out.metric("peak_rss_mib", rss, "MiB", 1);

    oracle_pass(&mut out, opts, &mut scratch)?;
    Ok(out)
}

/// One phase on the cluster whose seams are wrapped.
struct Traced {
    m: Measured,
    collected: trace::Collected,
    /// Allocations and allocated bytes during the phase, all threads.
    allocs: (u64, u64),
    /// The client's last acknowledged write per location.
    last_acked: Vec<u64>,
    data_dirs: Option<Vec<PathBuf>>,
}

/// Brings the traced cluster up, captures envelopes and log bytes during
/// its warm-up and spans and allocation counts during a phase of
/// `seconds`, and shuts it down.
fn traced_phase(
    out: &mut Outcome,
    opts: &Options,
    scratch: &mut Scratch,
    seconds: f64,
) -> io::Result<Traced> {
    trace::set_capturing(true);
    let (mut ready, warm) = set_up(opts, scratch, true)?;
    trace::set_capturing(false);
    out.absorb(&warm);
    for client in &mut ready.clients {
        client.traced = true;
    }
    trace::set_recording(true);
    alloc::set_counting(true);
    let (allocs_before, bytes_before) = alloc::counts();
    let m = measure(&mut ready, seconds);
    let (allocs, bytes) = alloc::counts();
    alloc::set_counting(false);
    // A deliver may still be returning on a poller thread after the
    // client it woke has finished.
    thread::sleep(Duration::from_millis(20));
    trace::set_recording(false);
    out.absorb(&m.reports);
    check_bill(out, opts.workload, &m);
    let last_acked = ready.clients[0].checker.last_acked();
    ready.cluster.shutdown();
    let collected = trace::take_spans();
    out.check(collected.dropped == 0, || {
        format!(
            "{} spans did not fit the per-thread buffers",
            collected.dropped
        )
    });
    let traced_s = m.reports.iter().map(|r| r.elapsed_ns).max().unwrap_or(0) as f64 / 1e9;
    if traced_s < seconds {
        println!(
            "# trace: a span buffer filled after {traced_s:.2} s; the traced phase of {} ended there",
            opts.workload.name()
        );
    }
    Ok(Traced {
        m,
        collected,
        allocs: (allocs - allocs_before, bytes - bytes_before),
        last_acked,
        data_dirs: ready.data_dirs,
    })
}

/// The `durable.*` metrics. A durable workload reports them from its own
/// traced phase (`own`, with its `linked` spans). A workload with a
/// durable twin runs the twin's stream as a further, shorter traced leg,
/// restart read-back included, and reports them from there: that is how
/// the write-ahead log is observed without a workload whose every number
/// is the host's disk. Any other workload reports zeros.
fn report_durable(
    out: &mut Outcome,
    opts: &Options,
    scratch: &mut Scratch,
    own: &Traced,
    linked: &[trace::Linked],
) -> io::Result<()> {
    let leg;
    let leg_linked;
    let durable = if opts.workload.durable() {
        Some((opts.workload, own, linked))
    } else if let Some(twin) = opts.workload.durable_twin() {
        let twin_opts = Options {
            workload: twin,
            ..*opts
        };
        leg = traced_phase(out, &twin_opts, scratch, opts.seconds as f64 / 4.0)?;
        leg_linked = trace::link_spans(&leg.collected.threads);
        Some((twin, &leg, leg_linked.as_slice()))
    } else {
        None
    };
    let Some((w, phase, linked)) = durable else {
        timeline::report_disk(out, &[], 0, 0);
        micro::report_wal(out, &[]);
        out.metric("durable.read_p50_us", 0.0, "us", 0);
        out.metric("durable.write_p50_us", 0.0, "us", 0);
        out.metric("durable.recover_s", 0.0, "s", 0);
        return Ok(());
    };
    timeline::report_disk(
        out,
        linked,
        phase.collected.disk_append_bytes,
        phase.m.delta.msgs_of_kind("WRITE"),
    );
    micro::report_wal(out, &phase.collected.log_bytes);
    // What the log costs a caller is read within the durable phase, whose
    // placement differs from the plain one's: write minus read.
    for (name, reads) in [
        ("durable.read_p50_us", true),
        ("durable.write_p50_us", false),
    ] {
        let (us, samples) = phase.m.latency_us(reads, 0.5);
        out.metric(name, us, "us", samples);
    }
    let dirs = phase
        .data_dirs
        .as_deref()
        .expect("a durable cluster has data directories");
    let recover_s = read_back(out, w, dirs, &phase.last_acked)?;
    out.metric("durable.recover_s", recover_s, "s", 1);
    Ok(())
}

/// The traced run: a short untraced phase for reference, the same
/// workload on the cluster with the seams wrapped, the replay
/// microbenchmarks on what the seams captured, and the durable leg (see
/// `report_durable`). With `spans_to`, the workload's linked spans are
/// also written there as CSV.
///
/// # Errors
///
/// Propagates bring-up and filesystem errors.
pub fn per_layer(opts: &Options, spans_to: Option<&Path>) -> io::Result<Outcome> {
    let w = opts.workload;
    let mut out = Outcome::default();
    let mut scratch = Scratch::new()?;
    let seconds = opts.seconds as f64;

    // Reference: the shipped bring-up, for the tracing overhead and the
    // tail percentiles too noisy to bound.
    let (mut plain, warm) = set_up(opts, &mut scratch, false)?;
    out.absorb(&warm);
    let reference = measure(&mut plain, seconds / 4.0);
    out.absorb(&reference.reports);
    plain.cluster.shutdown();

    let traced = traced_phase(&mut out, opts, &mut scratch, seconds / 2.0)?;
    let m = &traced.m;

    let ops = m.ops as f64;
    out.metric(
        "simnet.msgs_per_op",
        m.delta.protocol_msgs() as f64 / ops,
        "count",
        m.ops,
    );
    out.metric(
        "mesh.wire_bytes_per_op",
        m.delta.wire.bytes as f64 / ops,
        "B",
        m.ops,
    );
    out.metric(
        "mesh.writev_per_op",
        m.delta.wire.writev_calls as f64 / ops,
        "count",
        m.ops,
    );
    out.metric(
        "mesh.frames_per_writev",
        ratio(m.delta.wire.frames, m.delta.wire.writev_calls),
        "count",
        m.delta.wire.writev_calls,
    );
    out.metric(
        "mesh.batch_frame_share",
        ratio(m.delta.wire.batch_frames, m.delta.wire.frames),
        "share",
        m.delta.wire.frames,
    );
    out.metric(
        "simnet.envelopes_per_op",
        m.delta.envelopes as f64 / ops,
        "count",
        m.ops,
    );
    out.metric(
        "simnet.metadata_bytes_per_op",
        m.delta.metadata_bytes as f64 / ops,
        "B",
        m.ops,
    );
    out.metric(
        "state.invalidations_per_op",
        m.delta.invalidations as f64 / ops,
        "count",
        m.ops,
    );
    out.metric(
        "state.read_hit_share",
        1.0 - ratio(m.delta.msgs_of_kind("READ"), m.reads),
        "share",
        m.reads,
    );
    out.metric(
        "engine.allocs_per_op",
        traced.allocs.0 as f64 / ops,
        "count",
        m.ops,
    );
    out.metric(
        "engine.alloc_bytes_per_op",
        traced.allocs.1 as f64 / ops,
        "B",
        m.ops,
    );

    let linked = trace::link_spans(&traced.collected.threads);
    timeline::report(&mut out, w, &linked, spans_to)?;
    micro::report(&mut out, w, &traced.collected);

    for (reads, p99, p999) in [
        (true, "client.read_p99_us", "client.read_p999_us"),
        (false, "client.write_p99_us", "client.write_p999_us"),
    ] {
        let mut all = Hist::new();
        for h in reference.slice_hists(reads) {
            all.merge(&h);
        }
        for (name, q) in [(p99, 0.99), (p999, 0.999)] {
            out.metric(
                name,
                all.quantile(q).unwrap_or(0.0) / reference.per_sample / 1e3,
                "us",
                all.count(),
            );
        }
    }
    out.metric(
        "client.trace_overhead_share",
        1.0 - m.mean_ops_per_s() / reference.mean_ops_per_s(),
        "share",
        m.ops,
    );

    report_durable(&mut out, opts, &mut scratch, &traced, &linked)?;
    let check_rate = oracle_pass(&mut out, opts, &mut scratch)?;
    out.metric("spec.check_ops_per_s", check_rate, "1/s", ORACLE_OPS);
    Ok(out)
}

/// What a cluster sent over its whole life — warm-up plus `ops` further
/// ops per client — on the shipped bring-up or the traced one, with the
/// number of ops that failed. For the test that pins the two bring-ups
/// to the same bill.
///
/// # Errors
///
/// Propagates bring-up and filesystem errors.
pub fn bill(opts: &Options, traced: bool, ops: u64) -> io::Result<(Counters, u64)> {
    let mut scratch = Scratch::new()?;
    let (mut ready, warm) = set_up(opts, &mut scratch, traced)?;
    let reports = run_clients(&mut ready.clients, Until::Ops(ops));
    let counters = ready.cluster.counters();
    ready.cluster.shutdown();
    let failed = warm.iter().chain(&reports).map(|r| r.failed).sum();
    Ok((counters, failed))
}

/// `num / den`, 0 when nothing was counted.
#[must_use]
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
