//! Loopback clusters for the integration tests: every node a thread of
//! this process with its own mesh endpoint, talking to the others only
//! through kernel TCP sockets.

#![allow(dead_code)] // each test binary uses its own subset

use std::net::TcpListener;
use std::thread;
use std::time::Duration;

use causal_dsm::{CausalConfig, CausalState, Effects, Msg, NodeDriver};
use dsm_net::{ClusterSpec, NetCluster, NetOptions, Payload, TcpMesh};
use memcore::{Location, NodeId};
use simnet::{Envelope, Mailbox, Network};

pub const TIMEOUT: Duration = Duration::from_secs(10);

fn loopback_spec(
    nodes: usize,
    locations: u32,
    net: &NetOptions,
) -> (ClusterSpec, Vec<TcpListener>) {
    let listeners: Vec<TcpListener> = (0..nodes)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    let addrs = listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr").to_string())
        .collect();
    (
        ClusterSpec::new(locations, addrs).with_net(net.clone()),
        listeners,
    )
}

/// `nodes` shipped nodes, brought up together (each blocks until its
/// peers have dialled), in node order.
pub fn cluster(nodes: usize, locations: u32, net: &NetOptions) -> Vec<NetCluster> {
    let (spec, listeners) = loopback_spec(nodes, locations, net);
    thread::scope(|scope| {
        let up: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(i, listener)| {
                let spec = &spec;
                scope.spawn(move || {
                    NetCluster::start(spec, NodeId::new(i as u32), listener, None, TIMEOUT)
                        .expect("establish cluster")
                })
            })
            .collect();
        up.into_iter()
            .map(|t| t.join().expect("bring-up"))
            .collect()
    })
}

/// A location of `cluster` that `owner` owns.
pub fn owned_by(node: &NetCluster, owner: u32) -> Location {
    let owners = node.cluster().config().owners();
    (0..node.cluster().config().locations())
        .map(Location::new)
        .find(|&loc| owners.owner_of(loc) == NodeId::new(owner))
        .expect("every node owns a location")
}

/// Node 0 is a shipped node; node 1 is a bare mesh endpoint the test
/// drives by hand, answering requests with an owner's own driver.
pub struct BarePeer {
    pub node: NetCluster,
    pub mesh: TcpMesh<Msg<Payload>>,
    pub net: Network<Msg<Payload>>,
    pub inbox: Mailbox<Msg<Payload>>,
    pub owner: NodeDriver<Payload>,
}

/// The shipped node of a [`BarePeer`] pair.
pub fn p0() -> NodeId {
    NodeId::new(0)
}

/// The hand-driven node of a [`BarePeer`] pair.
pub fn p1() -> NodeId {
    NodeId::new(1)
}

impl BarePeer {
    pub fn start(net: &NetOptions) -> BarePeer {
        let (spec, listeners) = loopback_spec(2, 8, net);
        let [l0, l1] = <[TcpListener; 2]>::try_from(listeners).expect("two listeners");
        let spec0 = spec.clone();
        let node = thread::spawn(move || NetCluster::start(&spec0, p0(), l0, None, TIMEOUT));
        let mesh: TcpMesh<Msg<Payload>> =
            TcpMesh::establish(p1(), &spec, l1, TIMEOUT).expect("establish peer");
        let net = Network::partial(2, &[p1()], mesh.link());
        mesh.start(net.clone());
        let inbox = net.take_mailbox(p1());
        let node = node.join().expect("bring-up").expect("establish node");
        let config: CausalConfig<Payload> = node.cluster().config().clone();
        let owner = NodeDriver::new(CausalState::new(p1(), config));
        BarePeer {
            node,
            mesh,
            net,
            inbox,
            owner,
        }
    }

    /// The next envelope node 0 sent the peer.
    pub fn recv(&self) -> Envelope<Msg<Payload>> {
        self.inbox
            .recv_timeout(TIMEOUT)
            .expect("mesh alive")
            .expect("node 0 sent nothing")
    }

    /// What the peer's owner driver answers to `env`.
    pub fn answer(&mut self, env: Envelope<Msg<Payload>>) -> Msg<Payload> {
        let mut fx = Effects::default();
        self.owner.deliver(0, env.src, env.payload, &mut fx);
        let (dst, reply) = fx.sends.pop().expect("the owner answers");
        assert_eq!(dst, p0());
        reply
    }

    pub fn shutdown(self) {
        self.node.shutdown();
        self.mesh.shutdown();
    }
}
