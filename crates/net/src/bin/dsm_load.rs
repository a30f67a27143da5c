//! `dsm-load` — loopback load generator and oracle gate.
//!
//! ```text
//! # drive an already-running cluster
//! dsm-load --spec cluster.spec --seed 42 --ops 512
//!
//! # spawn a 4-node loopback cluster of dsm-server processes and drive it
//! dsm-load --spawn 4 --locations 64 --seed 42 --ops 512
//!
//! # durability drill: run, SIGKILL node 1, respawn it against its data
//! # dir, run again, and oracle-check the merged cross-crash history
//! dsm-load --spawn 4 --locations 64 --restart 1 --ops 256
//! ```
//!
//! Sends every server one `Run`, collects the `Done` replies, merges the
//! per-node histories into one execution, and checks it against
//! `causal-spec`'s Definition-2 oracle. Exits 0 only if the oracle
//! accepts, every server answered `Bye`, and (when spawned) every child
//! exited cleanly — so CI can gate on the exit code alone.
//!
//! `--restart NODE` (spawn mode only) makes it a recovery drill: after
//! the first round's histories are safely collected, the victim is
//! killed with SIGKILL — no shutdown handshake, so its state survives
//! only through the write-ahead log — and respawned against the same
//! `--data-dir` (a temp dir by default). A second round then runs with
//! the recovered node as a full peer, and the oracle judges the
//! *concatenated* two-round history: every write the victim certified
//! before the kill must still be readable, under unchanged causality,
//! after recovery. Restart mode forces `reconnect on` so the mesh heals
//! its sockets, and servers sync every certified write (`--data-dir`
//! implies the `every_op` policy).

use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, ExitCode};
use std::time::{Duration, Instant};

use causal_spec::{check_causal, Execution};
use dsm_net::ctrl::{CtrlMsg, WireOp};
use dsm_net::framing::{
    ctrl_node, decode_body, read_frame, read_hello, write_frame, write_hello, ConnKind, MAX_FRAME,
};
use dsm_net::{ClusterSpec, NetOptions};
use memcore::NodeId;
use simnet::codec::FrameDecoder;

/// How long servers get to come up and answer the control handshake.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(30);

/// How long a workload round may take end to end.
const RUN_TIMEOUT: Duration = Duration::from_secs(300);

struct Args {
    spec: Option<String>,
    spawn: Option<u32>,
    locations: u32,
    server_bin: Option<String>,
    seed: u64,
    ops: u64,
    read_pct: u8,
    pipeline: u32,
    batching: bool,
    reconnect: bool,
    restart: Option<u32>,
    data_dir: Option<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: dsm-load (--spec FILE | --spawn N --locations L [--server-bin PATH] \
         [--pipeline W] [--batching] [--reconnect] [--restart NODE] [--data-dir DIR]) \
         [--seed S] [--ops K] [--read-pct P]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<Args> {
    let mut parsed = Args {
        spec: None,
        spawn: None,
        locations: 64,
        server_bin: None,
        seed: 42,
        ops: 512,
        read_pct: 70,
        pipeline: 0,
        batching: false,
        reconnect: false,
        restart: None,
        data_dir: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        // Valueless switches first; everything else takes one value.
        match arg.as_str() {
            "--batching" => {
                parsed.batching = true;
                continue;
            }
            "--reconnect" => {
                parsed.reconnect = true;
                continue;
            }
            _ => {}
        }
        let value = args.next()?;
        match arg.as_str() {
            "--spec" => parsed.spec = Some(value),
            "--spawn" => parsed.spawn = Some(value.parse().ok()?),
            "--locations" => parsed.locations = value.parse().ok()?,
            "--server-bin" => parsed.server_bin = Some(value),
            "--seed" => parsed.seed = value.parse().ok()?,
            "--ops" => parsed.ops = value.parse().ok()?,
            "--read-pct" => parsed.read_pct = value.parse().ok()?,
            "--pipeline" => parsed.pipeline = value.parse().ok()?,
            "--restart" => parsed.restart = Some(value.parse().ok()?),
            "--data-dir" => parsed.data_dir = Some(value),
            _ => return None,
        }
    }
    // Transport knobs — and the kill/respawn drill — describe the
    // cluster being built, so they only make sense in spawn mode; with
    // --spec the file already says, and there is no child to kill.
    let knobs_ok = parsed.spawn.is_some()
        || (parsed.pipeline == 0
            && !parsed.batching
            && !parsed.reconnect
            && parsed.restart.is_none()
            && parsed.data_dir.is_none());
    let victim_ok = match (parsed.restart, parsed.spawn) {
        (Some(victim), Some(n)) => victim < n,
        _ => true,
    };
    (parsed.spec.is_some() != parsed.spawn.is_some()
        && parsed.read_pct <= 100
        && knobs_ok
        && victim_ok)
        .then_some(parsed)
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        return usage();
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("dsm-load: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Picks distinct free loopback ports by briefly binding port 0.
///
/// Racy in principle (the port could be claimed between drop and the
/// server's bind), but the window is tiny and the CI job retries by
/// rerunning; real deployments pass `--spec` with fixed ports.
fn free_addrs(n: u32) -> std::io::Result<Vec<String>> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<Result<_, _>>()?;
    listeners
        .iter()
        .map(|l| l.local_addr().map(|a| a.to_string()))
        .collect()
}

/// How to (re)spawn one `dsm-server` — kept around in restart mode so
/// the victim can be brought back with exactly its original arguments.
struct Spawner {
    bin: PathBuf,
    spec_path: PathBuf,
    data_dir: Option<PathBuf>,
}

impl Spawner {
    fn new(
        bin: Option<&str>,
        spec_path: PathBuf,
        data_dir: Option<PathBuf>,
    ) -> Result<Self, String> {
        let bin = match bin {
            Some(bin) => PathBuf::from(bin),
            None => {
                // Sibling of this binary in the same target directory.
                let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
                me.with_file_name("dsm-server")
            }
        };
        Ok(Spawner {
            bin,
            spec_path,
            data_dir,
        })
    }

    fn spawn(&self, node: u32) -> Result<Child, String> {
        let mut cmd = Command::new(&self.bin);
        cmd.arg("--spec")
            .arg(&self.spec_path)
            .arg("--node")
            .arg(node.to_string());
        if let Some(dir) = &self.data_dir {
            cmd.arg("--data-dir").arg(dir.join(format!("node{node}")));
        }
        cmd.spawn()
            .map_err(|e| format!("spawning {}: {e}", self.bin.display()))
    }
}

struct CtrlClient {
    node: NodeId,
    stream: TcpStream,
    dec: FrameDecoder,
}

impl CtrlClient {
    /// Dials `addr`, retrying refusals while the server is still binding.
    fn connect(node: NodeId, addr: &str, deadline: Instant) -> Result<Self, String> {
        loop {
            match TcpStream::connect(addr) {
                Ok(mut stream) => {
                    stream
                        .set_nodelay(true)
                        .and_then(|()| stream.set_read_timeout(Some(RUN_TIMEOUT)))
                        .map_err(|e| format!("configuring {addr}: {e}"))?;
                    write_hello(&mut stream, ConnKind::Ctrl, ctrl_node())
                        .map_err(|e| format!("hello to {addr}: {e}"))?;
                    let mut dec = FrameDecoder::new(MAX_FRAME);
                    let hello = read_hello(&mut stream, &mut dec)
                        .map_err(|e| format!("hello from {addr}: {e}"))?;
                    if hello.kind != ConnKind::Ctrl || hello.node != node {
                        return Err(format!(
                            "{addr} answered as {}, expected {node}",
                            hello.node
                        ));
                    }
                    return Ok(CtrlClient { node, stream, dec });
                }
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(format!("connecting to {node} at {addr}: {e}"));
                    }
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }
    }

    fn send(&mut self, msg: &CtrlMsg) -> Result<(), String> {
        write_frame(&mut self.stream, msg)
            .and_then(|()| self.stream.flush())
            .map_err(|e| format!("sending to {}: {e}", self.node))
    }

    fn recv(&mut self) -> Result<CtrlMsg, String> {
        let body = read_frame(&mut self.stream, &mut self.dec)
            .map_err(|e| format!("receiving from {}: {e}", self.node))?
            .ok_or_else(|| format!("{} hung up", self.node))?;
        decode_body(&body).map_err(|e| format!("frame from {}: {e}", self.node))
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let (spec, spawner, mut children, temp_data) = match (&args.spec, args.spawn) {
        (Some(path), None) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            (
                ClusterSpec::parse(&text).map_err(|e| e.to_string())?,
                None,
                Vec::new(),
                None,
            )
        }
        (None, Some(n)) => {
            if n == 0 {
                return Err("--spawn needs at least one node".to_owned());
            }
            // The recovery drill needs durable servers (so the victim
            // has something to come back from) and healing sockets.
            let data_dir = match (&args.data_dir, args.restart) {
                (Some(dir), _) => Some(PathBuf::from(dir)),
                (None, Some(_)) => {
                    Some(std::env::temp_dir().join(format!("dsm-load-data-{}", std::process::id())))
                }
                (None, None) => None,
            };
            let temp_data = (args.data_dir.is_none())
                .then(|| data_dir.clone())
                .flatten();
            let spec = ClusterSpec::new(
                args.locations,
                free_addrs(n).map_err(|e| format!("picking ports: {e}"))?,
            )
            .with_net(NetOptions {
                pipeline: args.pipeline,
                batching: args.batching,
                reconnect: args.reconnect || args.restart.is_some(),
                ..NetOptions::default()
            });
            let spec_path =
                std::env::temp_dir().join(format!("dsm-load-{}.spec", std::process::id()));
            std::fs::write(&spec_path, spec.to_text())
                .map_err(|e| format!("writing {}: {e}", spec_path.display()))?;
            let spawner = Spawner::new(args.server_bin.as_deref(), spec_path, data_dir)?;
            let mut children = Vec::new();
            for node in 0..n {
                match spawner.spawn(node) {
                    Ok(child) => children.push(child),
                    Err(e) => {
                        for mut child in children {
                            let _ = child.kill();
                        }
                        return Err(e);
                    }
                }
            }
            (spec, Some(spawner), children, temp_data)
        }
        _ => unreachable!("parse_args enforces the mode choice"),
    };

    let result = drive(&spec, args, spawner.as_ref(), &mut children);

    // Reap spawned servers whatever happened above; their exit codes are
    // part of the verdict. (In restart mode the killed child was already
    // reaped and replaced by its respawn, so SIGKILL does not show here.)
    let mut clean_exits = true;
    for child in &mut children {
        match child.wait() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("dsm-load: a server exited with {status}");
                clean_exits = false;
            }
            Err(e) => {
                eprintln!("dsm-load: waiting on a server: {e}");
                clean_exits = false;
            }
        }
    }
    if let Some(spawner) = &spawner {
        let _ = std::fs::remove_file(&spawner.spec_path);
    }
    if let Some(dir) = temp_data {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(result? && clean_exits)
}

/// What one `Run` round yielded, summed over all servers.
#[derive(Default)]
struct RoundTotals {
    ops: u64,
    protocol_msgs: u64,
    overhead_msgs: u64,
    elapsed_ns: u64,
}

/// Sends one `Run` to every server and appends each node's history to
/// `processes`.
fn run_round(
    clients: &mut [CtrlClient],
    seed: u64,
    ops: u64,
    read_pct: u8,
    processes: &mut [Vec<memcore::OpRecord<Vec<u8>>>],
) -> Result<RoundTotals, String> {
    let run = CtrlMsg::Run {
        seed,
        ops,
        read_pct,
    };
    for client in clients.iter_mut() {
        client.send(&run)?;
    }

    // Collect Dones concurrently: a server cannot answer until *every*
    // node finishes its slice, so sequential recv would still take the
    // same wall-clock but hide which node is stuck.
    let mut totals = RoundTotals::default();
    let mut seen = vec![false; processes.len()];
    let results: Vec<Result<CtrlMsg, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| scope.spawn(move || client.recv()))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("recv thread"))
            .collect()
    });
    for result in results {
        match result? {
            CtrlMsg::Done {
                node,
                ops,
                elapsed_ns: node_ns,
                protocol_msgs: proto,
                overhead_msgs: overhead,
                history,
            } => {
                if node.index() >= seen.len() || seen[node.index()] {
                    return Err(format!("unexpected Done from {node}"));
                }
                seen[node.index()] = true;
                processes[node.index()].extend(history.into_iter().map(WireOp::into_record));
                totals.ops += ops;
                totals.protocol_msgs += proto;
                totals.overhead_msgs += overhead;
                totals.elapsed_ns = totals.elapsed_ns.max(node_ns);
            }
            other => return Err(format!("expected Done, got {other:?}")),
        }
    }
    Ok(totals)
}

fn drive(
    spec: &ClusterSpec,
    args: &Args,
    spawner: Option<&Spawner>,
    children: &mut [Child],
) -> Result<bool, String> {
    let deadline = Instant::now() + CONNECT_TIMEOUT;
    let mut clients = Vec::new();
    for i in 0..spec.nodes() {
        let node = NodeId::new(i);
        clients.push(CtrlClient::connect(node, spec.addr(node), deadline)?);
    }
    eprintln!("dsm-load: {} servers up", clients.len());

    let mut processes = vec![Vec::new(); spec.nodes() as usize];
    let mut total = RoundTotals::default();
    let seeds: &[u64] = if args.restart.is_some() {
        &[args.seed, args.seed.wrapping_add(1)]
    } else {
        &[args.seed]
    };
    for (round, &seed) in seeds.iter().enumerate() {
        if round > 0 {
            // Round-1 histories (including the victim's) are collected,
            // so nothing the kill destroys is unaccounted for — what the
            // merged oracle run checks is that the *memory state* those
            // histories produced survives the crash via the WAL alone.
            let victim = args.restart.expect("second round implies restart mode");
            let spawner = spawner.ok_or("restart mode needs spawned servers")?;
            let child = &mut children[victim as usize];
            eprintln!("dsm-load: SIGKILLing node {victim}, respawning from its data dir");
            child
                .kill()
                .map_err(|e| format!("killing node {victim}: {e}"))?;
            child
                .wait()
                .map_err(|e| format!("reaping node {victim}: {e}"))?;
            children[victim as usize] = spawner.spawn(victim)?;
            let node = NodeId::new(victim);
            let deadline = Instant::now() + CONNECT_TIMEOUT;
            clients[victim as usize] = CtrlClient::connect(node, spec.addr(node), deadline)?;
            eprintln!("dsm-load: node {victim} recovered and rejoined");
        }
        let totals = run_round(&mut clients, seed, args.ops, args.read_pct, &mut processes)?;
        total.ops += totals.ops;
        total.protocol_msgs += totals.protocol_msgs;
        total.overhead_msgs += totals.overhead_msgs;
        total.elapsed_ns += totals.elapsed_ns;
    }

    for client in &mut clients {
        client.send(&CtrlMsg::Shutdown)?;
        match client.recv()? {
            CtrlMsg::Bye => {}
            other => return Err(format!("expected Bye from {}, got {other:?}", client.node)),
        }
    }

    let recorded: usize = processes.iter().map(Vec::len).sum();
    let execution = Execution::from_processes(processes);
    let report = check_causal(&execution).map_err(|e| format!("malformed execution: {e}"))?;
    let secs = total.elapsed_ns.max(1) as f64 / 1e9;
    eprintln!(
        "dsm-load: {} ops ({recorded} recorded) in {secs:.3}s \
         ({:.0} ops/s), {} protocol + {} overhead msgs",
        total.ops,
        total.ops as f64 / secs,
        total.protocol_msgs,
        total.overhead_msgs,
    );
    if report.is_correct() {
        eprintln!("dsm-load: oracle verdict: {report}");
        Ok(true)
    } else {
        eprintln!("dsm-load: ORACLE REJECTED the execution:\n{report}");
        Ok(false)
    }
}
