//! A handle blocked on a claimed stream probes it, without sleeping,
//! before it parks in the stream's `poll(2)`. A probe that finds only
//! the doorbell consumes it, so a completion that another thread
//! produced meanwhile must be taken at once: a handle that probed on, or
//! parked, would wait for a bell that does not ring again.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use causal_dsm::{
    CausalCluster, CausalConfig, CausalState, Effects, InlineServer, Msg, NodeDriver,
};
use crossbeam_channel::{unbounded, Receiver, Sender};
use memcore::{Location, NodeId, SharedMemory, Word};
use simnet::claim::{self, Lost, StreamClaim};
use simnet::{Envelope, Network, RemoteLink, SendError};

/// The longest a parked pump sleeps without its doorbell: a handle that
/// parks on a consumed bell finishes, late.
const PARK: Duration = Duration::from_millis(200);

/// The stream node 0 claims for its read from owner 1. Its first pump
/// has the owner's reply delivered on another thread — as if it had
/// arrived on some other stream — which completes the read and rings
/// the doorbell; the pump then consumes the bell, as the mesh's `poll(2)`
/// does, and returns.
struct Stub {
    requests: Receiver<Envelope<Msg<Word>>>,
    owner: Mutex<NodeDriver<Word>>,
    server: OnceLock<InlineServer<Word>>,
    bell: AtomicBool,
    /// Set once a probe has consumed a rung doorbell.
    drained: AtomicBool,
    /// Probes made after the doorbell was consumed.
    late_probes: AtomicUsize,
    parked: AtomicBool,
}

impl Stub {
    fn answer_elsewhere(&self, request: Envelope<Msg<Word>>) {
        thread::scope(|scope| {
            scope.spawn(|| {
                let mut fx = Effects::default();
                self.owner
                    .lock()
                    .unwrap()
                    .deliver(0, request.src, request.payload, &mut fx);
                let (dst, reply) = fx.sends.pop().expect("the owner answers");
                let server = self.server.get().expect("server installed");
                server
                    .deliver(Envelope::new(request.dst, dst, reply))
                    .expect("engine running");
            });
        });
    }
}

impl StreamClaim for Stub {
    fn pump(&self, timeout: Option<Duration>) -> Result<(), Lost> {
        let probe = timeout == Some(Duration::ZERO);
        if probe && self.drained.load(Ordering::SeqCst) {
            self.late_probes.fetch_add(1, Ordering::SeqCst);
        }
        if !probe {
            self.parked.store(true, Ordering::SeqCst);
        }
        if let Ok(request) = self.requests.try_recv() {
            self.answer_elsewhere(request);
        }
        // A probe looks once; a parked pump sleeps until the doorbell
        // rings, or for `PARK` at most.
        let until = Instant::now() + timeout.map_or(PARK, |t| t.min(PARK));
        loop {
            if self.bell.swap(false, Ordering::SeqCst) {
                self.drained.store(true, Ordering::SeqCst);
                return Ok(());
            }
            if Instant::now() >= until {
                return Ok(());
            }
            thread::sleep(Duration::from_millis(1));
        }
    }

    fn ring(&self) {
        self.bell.store(true, Ordering::SeqCst);
    }

    fn release(&self) {}
}

/// Node 0's link to owner 1: queues the request for the stub and, when
/// the sending handle wants it, hands it the stub as its claimed stream.
struct Link {
    requests: Sender<Envelope<Msg<Word>>>,
    stub: Arc<Stub>,
}

impl RemoteLink<Msg<Word>> for Link {
    fn send_remote(&self, env: Envelope<Msg<Word>>) -> Result<(), SendError> {
        if claim::wanted(env.dst) {
            claim::deposit(self.stub.clone());
        }
        let dst = env.dst;
        self.requests.send(env).map_err(|_| SendError { dst })
    }
}

#[test]
fn a_doorbell_consumed_by_a_probe_completes_the_wait_at_once() {
    let (p0, p1) = (NodeId::new(0), NodeId::new(1));
    let (requests, queued) = unbounded();
    let config = CausalConfig::<Word>::builder(2, 2).build();
    let owner = NodeDriver::new(CausalState::new(p1, config.clone()));
    let stub = Arc::new(Stub {
        requests: queued,
        owner: Mutex::new(owner),
        server: OnceLock::new(),
        bell: AtomicBool::new(false),
        drained: AtomicBool::new(false),
        late_probes: AtomicUsize::new(0),
        parked: AtomicBool::new(false),
    });
    let link = Arc::new(Link {
        requests,
        stub: Arc::clone(&stub),
    });
    let net = Network::partial(2, &[p0], link);
    let (cluster, server) = CausalCluster::with_inline_transport(config, None, net, p0).unwrap();
    stub.server.set(server).expect("set once");
    let owners = cluster.config().owners();
    let loc = (0..2)
        .map(Location::new)
        .find(|&loc| owners.owner_of(loc) == p1)
        .expect("owner 1 owns a location");

    assert_eq!(cluster.handle(0).read(loc), Ok(Word::default()));
    assert!(
        stub.drained.load(Ordering::SeqCst),
        "the completion did not ring the doorbell"
    );
    assert_eq!(
        stub.late_probes.load(Ordering::SeqCst),
        0,
        "the handle probed on after its completion's doorbell was consumed"
    );
    assert!(
        !stub.parked.load(Ordering::SeqCst),
        "the handle parked though its completion rang during its probes"
    );
}
