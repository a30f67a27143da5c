//! A three-node cluster inside the benchmark process, its nodes talking
//! only through loopback TCP sockets.
//!
//! The end-to-end run brings every node up with the shipped
//! `NetCluster::start` / `start_durable`. The traced run needs spans at
//! the seams, so `bring_up_traced` repeats what `NetCluster::bring_up`
//! does with the three wrappers of [`crate::trace`] put in; a test pins
//! the two to the same message and byte bill.

use std::io;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use causal_dsm::{CausalCluster, CausalConfig, CausalHandle, DurableConfig, Msg};
use dsm_durable::DirDisk;
use dsm_net::{ClusterSpec, NetCluster, Payload, TcpMesh, WireStats};
use memcore::{NodeId, Recorder, StatsSnapshot};
use simnet::{Network, RemoteLink};

use crate::pin;
use crate::trace::{TimedDisk, TimedLink, TimedSink};
use crate::workload::{Workload, LOCATIONS, NODES};

const ESTABLISH_TIMEOUT: Duration = Duration::from_secs(30);

/// One node of the cluster.
pub enum Node {
    /// Brought up by the shipped `NetCluster`.
    Shipped(NetCluster),
    /// Brought up by `bring_up_traced`.
    Traced {
        /// The node's engine.
        engine: CausalCluster<Payload>,
        /// The node's mesh endpoint.
        mesh: TcpMesh<Msg<Payload>>,
        /// The node's id.
        me: NodeId,
    },
}

impl Node {
    /// An operation handle for this node.
    #[must_use]
    pub fn handle(&self) -> CausalHandle<Payload> {
        match self {
            Node::Shipped(n) => n.handle(),
            Node::Traced { engine, me, .. } => engine.handle(me.index() as u32),
        }
    }

    /// The node's engine, for its counters.
    #[must_use]
    pub fn engine(&self) -> &CausalCluster<Payload> {
        match self {
            Node::Shipped(n) => n.cluster(),
            Node::Traced { engine, .. } => engine,
        }
    }

    fn wire_stats(&self) -> WireStats {
        match self {
            Node::Shipped(n) => n.wire_stats(),
            Node::Traced { mesh, .. } => mesh.wire_stats(),
        }
    }

    fn shutdown(self) {
        match self {
            Node::Shipped(n) => n.shutdown(),
            // Engine first, as `NetCluster::shutdown` does.
            Node::Traced { engine, mesh, .. } => {
                engine.shutdown();
                mesh.shutdown();
            }
        }
    }
}

/// Cluster-wide counters at one instant; subtract two to scope them to
/// a phase.
#[derive(Clone)]
pub struct Counters {
    /// Logical protocol messages by sender and kind.
    pub msgs: Vec<StatsSnapshot>,
    /// Physical envelopes by sender and kind.
    pub envelopes: u64,
    /// Vector-timestamp bytes sent.
    pub metadata_bytes: u64,
    /// Frames, syscalls and bytes at the mesh.
    pub wire: WireStats,
    /// Cached values invalidated.
    pub invalidations: u64,
}

impl Counters {
    /// Protocol messages sent cluster-wide.
    #[must_use]
    pub fn protocol_msgs(&self) -> u64 {
        self.msgs.iter().map(StatsSnapshot::protocol_total).sum()
    }

    /// Messages of `kind` sent cluster-wide.
    #[must_use]
    pub fn msgs_of_kind(&self, kind: &str) -> u64 {
        self.msgs.iter().map(|s| s.kind_total(kind)).sum()
    }

    /// The counts accumulated since `earlier`.
    #[must_use]
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            msgs: self
                .msgs
                .iter()
                .zip(&earlier.msgs)
                .map(|(now, then)| now.since(then))
                .collect(),
            envelopes: self.envelopes - earlier.envelopes,
            metadata_bytes: self.metadata_bytes - earlier.metadata_bytes,
            wire: WireStats {
                frames: self.wire.frames - earlier.wire.frames,
                batch_frames: self.wire.batch_frames - earlier.wire.batch_frames,
                acks: self.wire.acks - earlier.wire.acks,
                retx: self.wire.retx - earlier.wire.retx,
                writev_calls: self.wire.writev_calls - earlier.wire.writev_calls,
                bytes: self.wire.bytes - earlier.wire.bytes,
                reconnects: self.wire.reconnects - earlier.wire.reconnects,
            },
            invalidations: self.invalidations - earlier.invalidations,
        }
    }
}

/// A running cluster.
pub struct Cluster {
    /// The nodes, by id.
    pub nodes: Vec<Node>,
}

/// How to bring a cluster up.
pub struct Plan<'a> {
    /// The workload, for its transport knobs.
    pub workload: Workload,
    /// One WAL directory per node, for durable clusters.
    pub data_dirs: Option<&'a [PathBuf]>,
    /// Records every op, for the oracle pass.
    pub recorder: Option<Recorder<Payload>>,
    /// Wrap the seams with the span recorders.
    pub traced: bool,
}

impl Cluster {
    /// Binds three loopback listeners and brings every node up, each on
    /// its own thread because a node blocks until its peers have dialled.
    ///
    /// # Errors
    ///
    /// Propagates bind, mesh-establishment and data-directory errors.
    pub fn start(plan: &Plan<'_>) -> io::Result<Cluster> {
        let listeners = (0..NODES)
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<io::Result<Vec<_>>>()?;
        let addrs = listeners
            .iter()
            .map(|l| l.local_addr().map(|a| a.to_string()))
            .collect::<io::Result<Vec<_>>>()?;
        let spec = ClusterSpec::new(LOCATIONS, addrs).with_net(plan.workload.net_options());
        let nodes = thread::scope(|scope| {
            let bringing_up: Vec<_> = listeners
                .into_iter()
                .enumerate()
                .map(|(i, listener)| {
                    let spec = &spec;
                    scope.spawn(move || {
                        let me = NodeId::new(i as u32);
                        // The acceptor and poller threads the node spawns
                        // inherit its processor.
                        pin::enter(i as u32, plan.workload.processors());
                        let dir = plan.data_dirs.map(|dirs| dirs[i].as_path());
                        if plan.traced {
                            return bring_up_traced(spec, me, listener, dir);
                        }
                        let recorder = plan.recorder.clone();
                        match dir {
                            None => {
                                NetCluster::start(spec, me, listener, recorder, ESTABLISH_TIMEOUT)
                            }
                            Some(dir) => NetCluster::start_durable(
                                spec,
                                me,
                                listener,
                                recorder,
                                ESTABLISH_TIMEOUT,
                                dir,
                            ),
                        }
                        .map(Node::Shipped)
                    })
                })
                .collect();
            bringing_up
                .into_iter()
                .map(|t| t.join().expect("bring-up thread panicked"))
                .collect::<io::Result<Vec<_>>>()
        })?;
        Ok(Cluster { nodes })
    }

    /// The cluster-wide counters now.
    #[must_use]
    pub fn counters(&self) -> Counters {
        let mut wire = WireStats::default();
        for node in &self.nodes {
            wire += node.wire_stats();
        }
        let engines = || self.nodes.iter().map(Node::engine);
        Counters {
            msgs: engines().map(|e| e.messages().snapshot()).collect(),
            envelopes: engines().map(|e| e.envelopes().snapshot().total()).sum(),
            metadata_bytes: engines().map(|e| e.metadata().snapshot().total()).sum(),
            wire,
            invalidations: engines().map(CausalCluster::total_invalidations).sum(),
        }
    }

    /// Stops every node and waits for its threads.
    pub fn shutdown(self) {
        for node in self.nodes {
            node.shutdown();
        }
    }
}

/// `NetCluster::bring_up` with the three seams wrapped: the same
/// `TcpMesh::establish` → `Network::partial` → inline engine →
/// `mesh.start` sequence and the same configuration.
fn bring_up_traced(
    spec: &ClusterSpec,
    me: NodeId,
    listener: TcpListener,
    data_dir: Option<&Path>,
) -> io::Result<Node> {
    let mesh = TcpMesh::establish(me, spec, listener, ESTABLISH_TIMEOUT)?;
    let link: Arc<dyn RemoteLink<Msg<Payload>>> = Arc::new(TimedLink {
        inner: mesh.link(),
        me,
    });
    let net: Network<Msg<Payload>> = Network::partial(spec.nodes() as usize, &[me], link);
    let mut builder = CausalConfig::<Payload>::builder(spec.nodes(), spec.locations())
        .pipeline_window(spec.net().pipeline)
        .batching(spec.net().batching);
    if data_dir.is_some() {
        builder = builder.durability(DurableConfig::default());
    }
    let config = builder.build();
    let (engine, server) = match data_dir {
        None => CausalCluster::with_inline_transport(config, None, net, me)
            .expect("engine rejected configuration"),
        Some(dir) => {
            let disk = TimedDisk {
                inner: DirDisk::open(dir)?,
                me,
            };
            let (engine, server) =
                CausalCluster::with_durable_inline_transport(config, None, net, me, Box::new(disk))
                    .expect("engine rejected configuration");
            mesh.set_incarnation(engine.node_incarnation(me.index() as u32));
            (engine, server)
        }
    };
    mesh.start(TimedSink {
        server,
        nodes: spec.nodes() as usize,
        me,
    });
    Ok(Node::Traced { engine, mesh, me })
}

/// A directory for this process's WAL files, inside the build's target
/// directory (the benchmark writes nowhere else). Removed on drop.
pub struct Scratch {
    root: PathBuf,
    made: u32,
}

impl Scratch {
    /// Creates `<directory of the executable>/dsm-benchmark-data/<pid>`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn new() -> io::Result<Scratch> {
        let exe = std::env::current_exe()?;
        let beside = exe.parent().ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, "executable has no directory")
        })?;
        let root = beside
            .join("dsm-benchmark-data")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root, made: 0 })
    }

    /// Fresh, empty WAL directories for the nodes of one cluster.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn data_dirs(&mut self) -> io::Result<Vec<PathBuf>> {
        self.made += 1;
        (0..NODES)
            .map(|i| {
                let dir = self.root.join(format!("life-{}-node-{i}", self.made));
                std::fs::create_dir_all(&dir)?;
                Ok(dir)
            })
            .collect()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}
