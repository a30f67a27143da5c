//! `dsm-server` — one causal-memory node per process.
//!
//! ```text
//! dsm-server --spec cluster.spec --node 2 [--data-dir DIR]
//! ```
//!
//! Binds the listen address its spec entry names, joins the TCP mesh
//! (blocking until every peer is up), then serves the control protocol:
//! a `Run` executes this node's slice of the deterministic mixed
//! workload and answers `Done` with the recorded history; `Shutdown`
//! tears the node down and is acknowledged with `Bye` so the controller
//! can distinguish a clean exit from a crash.
//!
//! With `--data-dir` the node keeps a write-ahead log under that
//! directory: certified writes are synced before their replies leave,
//! and a respawn against the same directory recovers the state and
//! rejoins as a full peer under a bumped incarnation (pair it with
//! `reconnect on` in the spec so the mesh heals the sockets).

use std::io::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use dsm_net::ctrl::{CtrlMsg, WireOp};
use dsm_net::framing::{read_frame, write_frame};
use dsm_net::harness::{mixed_script, run_node, ESTABLISH_TIMEOUT};
use dsm_net::{bind_reusable, ClusterSpec, NetCluster};
use memcore::{NodeId, Recorder};

/// How long to wait for the controller to dial in after bring-up.
const CTRL_TIMEOUT: Duration = Duration::from_secs(120);

fn usage() -> ExitCode {
    eprintln!("usage: dsm-server --spec FILE --node N [--data-dir DIR]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut spec_path = None;
    let mut node = None;
    let mut data_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--spec" => spec_path = args.next(),
            "--node" => node = args.next(),
            "--data-dir" => data_dir = args.next(),
            _ => return usage(),
        }
    }
    let (Some(spec_path), Some(node)) = (spec_path, node) else {
        return usage();
    };
    let Ok(node) = node.parse::<u32>() else {
        return usage();
    };
    match run(&spec_path, NodeId::new(node), data_dir.as_deref()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dsm-server[{node}]: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(spec_path: &str, me: NodeId, data_dir: Option<&str>) -> Result<(), String> {
    let text =
        std::fs::read_to_string(spec_path).map_err(|e| format!("reading {spec_path}: {e}"))?;
    let spec = ClusterSpec::parse(&text).map_err(|e| e.to_string())?;
    if me.index() >= spec.nodes() as usize {
        return Err(format!("node {me} out of range for {spec_path}"));
    }
    // SO_REUSEADDR bind: a respawn against the same spec entry must
    // reclaim the port while the dead life's sockets are in TIME_WAIT.
    let listener =
        bind_reusable(spec.addr(me)).map_err(|e| format!("binding {}: {e}", spec.addr(me)))?;
    let recorder: Recorder<Vec<u8>> = Recorder::new(spec.nodes() as usize);
    let cluster = match data_dir {
        None => NetCluster::start(
            &spec,
            me,
            listener,
            Some(recorder.clone()),
            ESTABLISH_TIMEOUT,
        ),
        Some(dir) => NetCluster::start_durable(
            &spec,
            me,
            listener,
            Some(recorder.clone()),
            ESTABLISH_TIMEOUT,
            std::path::Path::new(dir),
        ),
    }
    .map_err(|e| format!("bringing up the mesh: {e}"))?;
    eprintln!(
        "dsm-server[{me}]: mesh up (incarnation {}), awaiting controller",
        cluster.incarnation()
    );

    let mut conn = cluster
        .ctrl_conns()
        .recv_timeout(CTRL_TIMEOUT)
        .map_err(|_| "no controller connected".to_owned())?;

    // Each Done reports only the history recorded since the previous
    // one: a controller running multiple rounds (the restart drill)
    // concatenates them, and re-sending round 1 would duplicate tags.
    let mut reported = 0usize;
    // EOF (a controller that hung up without Shutdown) ends the loop;
    // teardown still runs below.
    while let Some(body) = read_frame(&mut conn.stream, &mut conn.dec)
        .map_err(|e| format!("control connection: {e}"))?
    {
        let msg: CtrlMsg =
            dsm_net::framing::decode_body(&body).map_err(|e| format!("control frame: {e}"))?;
        match msg {
            CtrlMsg::Run {
                seed,
                ops,
                read_pct,
            } => {
                let script = mixed_script(
                    spec.nodes(),
                    spec.locations(),
                    seed,
                    (ops as usize) * spec.nodes() as usize,
                    read_pct,
                );
                let base = cluster.cluster().messages().snapshot();
                let start = Instant::now();
                // The spec's pipeline knob selects the write path: the
                // whole cluster must agree on it, and the spec is the
                // one artifact every process shares.
                let executed = run_node(&cluster.handle(), me, &script, spec.net().pipeline > 0);
                let elapsed_ns = start.elapsed().as_nanos() as u64;
                let delta = cluster.cluster().messages().snapshot().since(&base);
                let history: Vec<WireOp> = recorder.processes()[me.index()]
                    .iter()
                    .skip(reported)
                    .map(WireOp::from_record)
                    .collect();
                reported += history.len();
                let done = CtrlMsg::Done {
                    node: me,
                    ops: executed,
                    elapsed_ns,
                    protocol_msgs: delta.protocol_total(),
                    overhead_msgs: delta.overhead_total(),
                    history,
                };
                write_frame(&mut conn.stream, &done)
                    .and_then(|()| conn.stream.flush())
                    .map_err(|e| format!("sending Done: {e}"))?;
            }
            CtrlMsg::Shutdown => {
                // Bye goes out before teardown: once the controller reads
                // it, this process no longer owes protocol traffic.
                write_frame(&mut conn.stream, &CtrlMsg::Bye)
                    .and_then(|()| conn.stream.flush())
                    .map_err(|e| format!("sending Bye: {e}"))?;
                break;
            }
            CtrlMsg::Done { .. } | CtrlMsg::Bye => {
                return Err("controller sent a server-side message".to_owned());
            }
        }
    }
    cluster.shutdown();
    eprintln!("dsm-server[{me}]: clean exit");
    Ok(())
}
