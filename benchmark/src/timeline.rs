//! Turns the traced run's spans into the per-layer time metrics.
//!
//! Where every remote op is one blocking round trip of the only client
//! (`remote_rt`, `remote_rt_durable`), the spans of an op form one
//! timeline on the shared clock:
//!
//! ```text
//! t0 client call        t3 owner deliver starts     t7 reply deliver starts
//! t1 request send       t4 reply send starts        t8 reply deliver ends
//! t2 request send ends  t5 reply send ends          t9 client call returns
//! ```
//!
//! and its segments add up to the op's span `t9 - t0` exactly:
//! `engine.issue` (t0→t1), `mesh.send` and `mesh.recv_wake` (t1→t3 +
//! t4→t7, split below), `engine.serve` (t3→t4), `engine.absorb` (t7→t8) and
//! `engine.complete_wake` (t8→t9), with the disk spans inside the engine
//! segments taken out of them and reported as the durable share. Each is
//! reported as its mean over the *typical* ops — those whose span lies
//! between the first and third quartile of all spans — so the segments
//! still add up to the reported op span and no tail op weighs in.
//!
//! `mesh.send` is the time the sending thread spent *on a processor*
//! inside the two sends (encode, frame, queue, `writev`), read from the
//! thread's CPU clock. Where sender and receiver share a processor (see
//! [`crate::pin`]) a send that wakes the peer's poller is descheduled in
//! favour of it and returns after the peer's deliver began; by the wall
//! clock that would be most of the op. What remains of t1→t3 and t4→t7 is
//! `mesh.recv_wake`: kernel, wake-up, context switch, the poller's read,
//! `FrameDecoder` and decode.
//!
//! On the other workloads ops and envelopes are not one to one (batches,
//! two clients, calls that send nothing), so the same names report the
//! median per *envelope*: one send span, one one-way wake-up, one serve.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use crate::hist::median;
use crate::run::{ratio, Outcome};
use crate::trace::{Kind, Linked};
use crate::workload::Workload;

/// Median of `values` (0 when empty) and how many there were.
fn med(values: &[i64]) -> (f64, u64) {
    let mut values: Vec<f64> = values.iter().map(|&v| v as f64).collect();
    (median(&mut values).unwrap_or(0.0), values.len() as u64)
}

/// The segments of the round-trip timelines, one entry per op.
#[derive(Default)]
pub struct Segments {
    /// t0→t1.
    pub issue: Vec<i64>,
    /// The sender's processor time inside t1→t2 and t4→t5.
    pub send: Vec<i64>,
    /// The rest of t1→t3 and t4→t7.
    pub recv_wake: Vec<i64>,
    /// t3→t4.
    pub serve: Vec<i64>,
    /// The disk spans inside `issue`, `serve` and `complete_wake`, which
    /// exclude them.
    pub disk: Vec<i64>,
    /// t7→t8, cut at t9 when the client returned first.
    pub absorb: Vec<i64>,
    /// t8→t9.
    pub complete_wake: Vec<i64>,
    /// t0→t9.
    pub span: Vec<i64>,
    /// Timed calls whose spans did not have the round-trip shape.
    pub skipped: u64,
}

impl Segments {
    /// Indices of the ops whose span lies between the first and third
    /// quartile of all spans.
    #[must_use]
    pub fn typical_ops(&self) -> Vec<usize> {
        let mut sorted = self.span.clone();
        sorted.sort_unstable();
        let Some((&lo, &hi)) = sorted
            .get(sorted.len() / 4)
            .zip(sorted.get(sorted.len() * 3 / 4))
        else {
            return Vec::new();
        };
        (0..self.span.len())
            .filter(|&i| (lo..=hi).contains(&self.span[i]))
            .collect()
    }
}

/// Mean of `values` at the indices `at` (0 when there are none).
#[must_use]
pub fn mean_of(values: &[i64], at: &[usize]) -> f64 {
    if at.is_empty() {
        return 0.0;
    }
    at.iter().map(|&i| values[i] as f64).sum::<f64>() / at.len() as f64
}

/// Cuts every op whose spans are exactly one round trip into segments.
#[must_use]
pub fn round_trips(linked: &[Linked]) -> Segments {
    let mut by_op: Vec<usize> = (0..linked.len())
        .filter(|&i| linked[i].span.op != 0)
        .collect();
    by_op.sort_by_key(|&i| (linked[i].span.op, linked[i].span.start));
    let mut seg = Segments::default();
    for group in by_op.chunk_by(|&a, &b| linked[a].span.op == linked[b].span.op) {
        let only = |kind: Kind, on_client_node: Option<bool>| {
            let client_node = linked[group[0]].span.node;
            let mut found = group.iter().map(|&i| &linked[i].span).filter(|s| {
                s.kind == kind && on_client_node.is_none_or(|same| (s.node == client_node) == same)
            });
            match (found.next(), found.next()) {
                (Some(s), None) => Some(*s),
                _ => None,
            }
        };
        let (Some(call), Some(request), Some(serve), Some(reply), Some(absorb)) = (
            only(Kind::Client, None),
            only(Kind::Send, Some(true)),
            only(Kind::DeliverRequest, None),
            only(Kind::Send, Some(false)),
            only(Kind::DeliverReply, None),
        ) else {
            seg.skipped += 1;
            continue;
        };
        let at = |t: u64| t as i64;
        // Disk time inside [from, to], on whichever thread.
        let disk_within = |from: u64, to: u64| -> i64 {
            group
                .iter()
                .map(|&i| &linked[i].span)
                .filter(|s| {
                    matches!(s.kind, Kind::DiskAppend | Kind::DiskSync | Kind::DiskCommit)
                        && s.start >= from
                        && s.end <= to
                })
                .map(|s| at(s.duration()))
                .sum()
        };
        // What a send costs is the time its thread was on a processor
        // inside it. A send that wakes a poller on its own processor is
        // descheduled in favour of it and returns after the peer's
        // deliver began; that time belongs to the wake-up. Capped at the
        // transit, so no instant is counted twice.
        let request_send = request
            .busy
            .min(request.end.min(serve.start) - request.start);
        let reply_send = reply.busy.min(reply.end.min(absorb.start) - reply.start);
        let absorbed = absorb.end.min(call.end);
        let (disk_issue, disk_serve, disk_complete) = (
            disk_within(call.start, request.start),
            disk_within(serve.start, reply.start),
            disk_within(absorbed, call.end),
        );
        seg.issue
            .push(at(request.start) - at(call.start) - disk_issue);
        seg.send.push(at(request_send) + at(reply_send));
        seg.recv_wake.push(
            at(serve.start) - at(request.start) - at(request_send) + at(absorb.start)
                - at(reply.start)
                - at(reply_send),
        );
        seg.serve
            .push(at(reply.start) - at(serve.start) - disk_serve);
        seg.disk.push(disk_issue + disk_serve + disk_complete);
        seg.absorb.push(at(absorbed) - at(absorb.start));
        seg.complete_wake
            .push(at(call.end) - at(absorbed) - disk_complete);
        seg.span.push(at(call.duration()));
    }
    seg
}

/// Per-envelope span durations.
#[derive(Default)]
struct Envelopes {
    /// Client call start to its first send.
    issue: Vec<i64>,
    /// Whole client calls.
    call: Vec<i64>,
    send: Vec<i64>,
    /// Send end to deliver start at the peer.
    recv_wake: Vec<i64>,
    /// Request deliver minus the sends and disk writes inside it.
    serve: Vec<i64>,
    absorb: Vec<i64>,
    /// Reply deliver end to the end of the call that waited for it.
    complete_wake: Vec<i64>,
}

fn envelopes(linked: &[Linked]) -> Envelopes {
    let mut env = Envelopes::default();
    // Time covered by children, per parent.
    let mut inside = vec![0i64; linked.len()];
    let mut first_send: Vec<Option<u64>> = vec![None; linked.len()];
    for l in linked {
        let Some(p) = l.parent else { continue };
        let parent = &linked[p].span;
        if parent.node == l.span.node && parent.start <= l.span.start && l.span.end <= parent.end {
            inside[p] += l.span.duration() as i64;
            if l.span.kind == Kind::Send && parent.kind == Kind::Client {
                let first = first_send[p].get_or_insert(l.span.start);
                *first = (*first).min(l.span.start);
            }
        }
    }
    // The client call each reply deliver answers, by op id.
    let mut call_end = std::collections::HashMap::new();
    for l in linked {
        if l.span.kind == Kind::Client {
            call_end.insert(l.span.op, l.span.end);
        }
    }
    for (i, l) in linked.iter().enumerate() {
        let s = &l.span;
        // From the send's start to this deliver's, less the sender's
        // processor time inside the send.
        let wake = l
            .parent
            .map(|p| &linked[p].span)
            .filter(|sent| sent.kind == Kind::Send)
            .map(|sent| (s.start as i64 - sent.start as i64 - sent.busy as i64).max(0));
        match s.kind {
            Kind::Client => {
                env.call.push(s.duration() as i64);
                if let Some(first) = first_send[i] {
                    env.issue.push((first - s.start) as i64);
                }
            }
            Kind::Send => env.send.push(s.busy as i64),
            Kind::DeliverRequest => {
                env.serve.push(s.duration() as i64 - inside[i]);
                env.recv_wake.extend(wake);
            }
            Kind::DeliverReply => {
                env.absorb.push(s.duration() as i64);
                env.recv_wake.extend(wake);
                if let Some(&end) = call_end.get(&s.op).filter(|&&end| end >= s.end) {
                    env.complete_wake.push((end - s.end) as i64);
                }
            }
            _ => {}
        }
    }
    env
}

/// Writes one CSV row per span: its index, its parent's, the op it
/// belongs to (0 when it leads back to no client call), the seam, the
/// node and peer, its start and end in ns on the run's clock, and for
/// sends the sender's processor time inside.
fn write_spans(path: &Path, linked: &[Linked]) -> io::Result<()> {
    let mut file = BufWriter::new(File::create(path)?);
    writeln!(file, "id,parent,op,kind,node,peer,start_ns,end_ns,busy_ns")?;
    for (id, l) in linked.iter().enumerate() {
        let s = &l.span;
        let parent = l.parent.map_or(String::new(), |p| p.to_string());
        writeln!(
            file,
            "{id},{parent},{},{:?},{},{},{},{},{}",
            s.op, s.kind, s.node, s.peer, s.start, s.end, s.busy
        )?;
    }
    file.flush()
}

/// Adds the time metrics of a traced phase's linked spans to `out`, and
/// writes the spans to `spans_to` when given.
///
/// # Errors
///
/// Propagates errors writing the span file.
pub fn report(
    out: &mut Outcome,
    w: Workload,
    linked: &[Linked],
    spans_to: Option<&Path>,
) -> io::Result<()> {
    if let Some(path) = spans_to {
        write_spans(path, linked)?;
    }
    let mut env = envelopes(linked);
    if w.one_round_trip_per_op() {
        let seg = round_trips(linked);
        let typical = seg.typical_ops();
        let mut emit = |name: &'static str, values: &[i64]| {
            let ns = mean_of(values, &typical);
            out.metric(name, ns, "ns", typical.len() as u64);
            ns
        };
        let span = emit("client.traced_op_ns", &seg.span);
        let parts = [
            ("engine.issue", emit("engine.issue_ns", &seg.issue)),
            ("mesh.send", emit("mesh.send_ns", &seg.send)),
            ("mesh.recv_wake", emit("mesh.recv_wake_ns", &seg.recv_wake)),
            ("engine.serve", emit("engine.serve_ns", &seg.serve)),
            ("engine.absorb", emit("engine.absorb_ns", &seg.absorb)),
            (
                "engine.complete_wake",
                emit("engine.complete_wake_ns", &seg.complete_wake),
            ),
            ("durable", mean_of(&seg.disk, &typical)),
        ];
        println!(
            "# timeline: {} typical of {} round trips cut into t0..t9 ({} timed calls had another shape)",
            typical.len(),
            seg.span.len(),
            seg.skipped
        );
        for (name, ns) in parts {
            println!(
                "#   {name:<24} {ns:>10.0} ns  {:>6.3} of the op span",
                ns / span
            );
        }
        let sum: f64 = parts.iter().map(|(_, ns)| ns).sum();
        println!("#   {:<24} {sum:>10.0} ns  {:>6.3}", "sum", sum / span);
    } else {
        let mut emit = |name: &'static str, values: &[i64]| {
            let (ns, n) = med(values);
            out.metric(name, ns, "ns", n);
        };
        // A sample spans `ops_per_sample` calls.
        for call in &mut env.call {
            *call /= w.ops_per_sample() as i64;
        }
        emit("client.traced_op_ns", &env.call);
        // A workload whose calls send nothing spends the whole call in
        // the engine's local paths.
        if env.issue.is_empty() {
            emit("engine.issue_ns", &env.call);
        } else {
            emit("engine.issue_ns", &env.issue);
        }
        emit("mesh.send_ns", &env.send);
        emit("mesh.recv_wake_ns", &env.recv_wake);
        emit("engine.serve_ns", &env.serve);
        emit("engine.absorb_ns", &env.absorb);
        emit("engine.complete_wake_ns", &env.complete_wake);
    }
    Ok(())
}

/// Adds the disk metrics of a durable traced phase to `out`: its linked
/// spans, the WAL bytes appended and the blocking writes served while
/// they were recorded. A phase without a disk reports zeros.
pub fn report_disk(out: &mut Outcome, linked: &[Linked], append_bytes: u64, writes: u64) {
    let of_kind = |kind: Kind| -> Vec<i64> {
        linked
            .iter()
            .filter(|l| l.span.kind == kind)
            .map(|l| l.span.duration() as i64)
            .collect()
    };
    let (appends, syncs, commits) = (
        of_kind(Kind::DiskAppend),
        of_kind(Kind::DiskSync),
        of_kind(Kind::DiskCommit),
    );
    let (append_ns, n) = med(&appends);
    out.metric("durable.append_ns", append_ns, "ns", n);
    let (sync_ns, n) = med(&syncs);
    out.metric("durable.sync_ns", sync_ns, "ns", n);
    out.metric(
        "durable.syncs_per_write",
        ratio(syncs.len() as u64, writes),
        "count",
        writes,
    );
    out.metric(
        "durable.bytes_per_write",
        ratio(append_bytes, writes),
        "B",
        writes,
    );
    let (commit_ns, n) = med(&commits);
    out.metric("durable.checkpoints", n as f64, "count", n);
    out.metric("durable.checkpoint_ms", commit_ns / 1e6, "ms", n);
}
