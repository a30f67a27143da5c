//! The five workloads: their cluster shape, seeded op streams, and the
//! self-describing values that let a client check every read.

use causal_dsm::CausalConfig;
use dsm_net::{NetOptions, Payload};
use memcore::{Location, NodeId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Nodes in every benchmark cluster (the repo's standing shape).
pub const NODES: u32 = 3;
/// Locations in the shared namespace.
pub const LOCATIONS: u32 = 64;
/// Size of every written value.
pub const PAYLOAD_BYTES: usize = 64;
/// Writes per `stream_pipelined` run, each run closed by a barrier read.
pub const STREAM_RUN: u32 = 256;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Hits and owner-local writes only: no message is sent.
    LocalHot,
    /// Every op is one round trip to a remote owner.
    RemoteRt,
    /// `RemoteRt` with a synced write-ahead log on every node.
    RemoteRtDurable,
    /// Windowed, batched writes closed by barrier reads.
    StreamPipelined,
    /// Two clients on two nodes over all locations.
    MixedContended,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 5] = [
        Workload::LocalHot,
        Workload::RemoteRt,
        Workload::RemoteRtDurable,
        Workload::StreamPipelined,
        Workload::MixedContended,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::LocalHot => "local_hot",
            Workload::RemoteRt => "remote_rt",
            Workload::RemoteRtDurable => "remote_rt_durable",
            Workload::StreamPipelined => "stream_pipelined",
            Workload::MixedContended => "mixed_contended",
        }
    }

    /// Looks a workload up by [`name`](Workload::name).
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The nodes that host a client thread.
    #[must_use]
    pub fn clients(self) -> &'static [u32] {
        match self {
            Workload::MixedContended => &[0, 1],
            _ => &[0],
        }
    }

    /// How many processors the workload can keep busy at once, which is
    /// how many it is placed on (see [`crate::pin`]): one per client
    /// thread, and one for the disk's share of the kernel where every
    /// write is synced.
    #[must_use]
    pub fn processors(self) -> usize {
        self.clients().len() + usize::from(self.durable())
    }

    /// Whether every node runs a write-ahead log.
    #[must_use]
    pub fn durable(self) -> bool {
        self == Workload::RemoteRtDurable
    }

    /// The workload with the same op stream and a write-ahead log on
    /// every node, if there is one. The durable workload rides the host's
    /// disk, which no two runs find in the same mood, so `BENCHMARK.json`
    /// does not list it: the traced run of the workload it shadows runs
    /// it as a leg and reports the `durable.*` metrics from there.
    #[must_use]
    pub fn durable_twin(self) -> Option<Workload> {
        (self == Workload::RemoteRt).then_some(Workload::RemoteRtDurable)
    }

    /// The cluster spec's transport and engine knobs.
    #[must_use]
    pub fn net_options(self) -> NetOptions {
        let mut net = NetOptions::default();
        if self == Workload::StreamPipelined {
            net.pipeline = 32;
            net.batching = true;
        }
        net
    }

    /// Ops timed together as one sample, whose latency is the sample's
    /// time divided by this. A `local_hot` op costs about as much as
    /// reading the clock, so its stream issues reads and writes in blocks
    /// of this many and a block is timed as one. A block lasts 60 µs
    /// (reads) to 150 µs (writes): the host takes the processor away for
    /// 5–15 µs every 350 µs or so, and a sample that short against it
    /// (256 reads, 15 µs, one in twenty hit) had its 95th percentile on
    /// the edge of the hit samples, moving 10 % from run to run; in a
    /// block this long an interruption is a tenth of the sample.
    #[must_use]
    pub fn ops_per_sample(self) -> u64 {
        match self {
            Workload::LocalHot => 1024,
            _ => 1,
        }
    }

    /// Ops of the stream executed before the measured phase.
    #[must_use]
    pub fn warmup_ops(self) -> u64 {
        match self {
            // Whole blocks, so a measured sample is one block of the stream.
            Workload::LocalHot => 200 * 1024,
            Workload::RemoteRt => 2_000,
            Workload::RemoteRtDurable => 500,
            // Whole runs, so the measured phase starts on a run boundary
            // with an empty pipeline.
            Workload::StreamPipelined => 8 * (u64::from(STREAM_RUN) + 1),
            Workload::MixedContended => 5_000,
        }
    }

    /// Protocol messages per op when the count is fixed by construction.
    #[must_use]
    pub fn exact_msgs_per_op(self) -> Option<u64> {
        match self {
            Workload::LocalHot => Some(0),
            Workload::MixedContended => None,
            _ => Some(2),
        }
    }

    /// Whether each remote op is one blocking round trip of one client,
    /// so its spans form a single timeline.
    #[must_use]
    pub fn one_round_trip_per_op(self) -> bool {
        matches!(self, Workload::RemoteRt | Workload::RemoteRtDurable)
    }
}

/// One client operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `read(x)`.
    Read(Location),
    /// `discard(x); read(x)` — the paper's refresh idiom, always a miss.
    RefreshRead(Location),
    /// Blocking `write(x)`.
    Write(Location),
    /// `write_pipelined(x)`.
    PipelinedWrite(Location),
    /// `flush(); discard(x); read(x)`.
    BarrierRead(Location),
}

impl Op {
    /// Whether the op is reported under the read latencies.
    #[must_use]
    pub fn is_read(self) -> bool {
        matches!(self, Op::Read(_) | Op::RefreshRead(_) | Op::BarrierRead(_))
    }
}

/// A client's seeded op stream: the same `(workload, seed, client)`
/// always yields the same ops.
pub struct OpGen {
    workload: Workload,
    rng: ChaCha8Rng,
    issued: u64,
    /// Locations the client's node owns.
    own: Vec<Location>,
    /// Locations each other node owns, one list per remote owner.
    remote: Vec<Vec<Location>>,
    last_written: Location,
    /// `local_hot`: whether the current block of ops writes.
    block_writes: bool,
}

impl OpGen {
    /// The stream of the client on node `me`.
    #[must_use]
    pub fn new(workload: Workload, seed: u64, me: u32) -> Self {
        // The engine's own default owner map, so the stream follows
        // whatever placement the shipped configuration uses.
        let config = CausalConfig::<Payload>::builder(NODES, LOCATIONS).build();
        let owners = config.owners();
        let owned_by = |node: u32| -> Vec<Location> {
            (0..LOCATIONS)
                .map(Location::new)
                .filter(|&loc| owners.owner_of(loc) == NodeId::new(node))
                .collect()
        };
        let salt = (workload as u64) << 8 | u64::from(me);
        OpGen {
            workload,
            rng: ChaCha8Rng::seed_from_u64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            issued: 0,
            own: owned_by(me),
            remote: (0..NODES).filter(|&n| n != me).map(owned_by).collect(),
            last_written: Location::new(0),
            block_writes: false,
        }
    }

    fn pick(rng: &mut ChaCha8Rng, from: &[Location]) -> Location {
        from[rng.gen_range(0..from.len())]
    }

    fn any_location(&mut self) -> Location {
        Location::new(self.rng.gen_range(0..LOCATIONS))
    }

    /// The next op of the stream.
    pub fn next_op(&mut self) -> Op {
        let i = self.issued;
        self.issued += 1;
        match self.workload {
            Workload::LocalHot => {
                if i < u64::from(LOCATIONS) {
                    // Fetch every remote location once; afterwards every
                    // read is an owned or cached hit.
                    Op::Read(Location::new(i as u32))
                } else {
                    // One kind per block, so a block is one latency sample.
                    if i.is_multiple_of(self.workload.ops_per_sample()) {
                        self.block_writes = self.rng.gen_range(0..10u32) == 0;
                    }
                    if self.block_writes {
                        Op::Write(Self::pick(&mut self.rng, &self.own))
                    } else {
                        Op::Read(self.any_location())
                    }
                }
            }
            Workload::RemoteRt | Workload::RemoteRtDurable => {
                let owner = self.rng.gen_range(0..self.remote.len());
                let loc = Self::pick(&mut self.rng, &self.remote[owner]);
                if self.rng.gen_bool(0.5) {
                    Op::RefreshRead(loc)
                } else {
                    Op::Write(loc)
                }
            }
            Workload::StreamPipelined => {
                let per_run = u64::from(STREAM_RUN) + 1;
                if i % per_run == u64::from(STREAM_RUN) {
                    return Op::BarrierRead(self.last_written);
                }
                // The owner alternates per run, so every run starts by
                // draining the previous owner's window.
                let owner = (i / per_run) as usize % self.remote.len();
                self.last_written = Self::pick(&mut self.rng, &self.remote[owner]);
                Op::PipelinedWrite(self.last_written)
            }
            Workload::MixedContended => {
                let loc = self.any_location();
                if self.rng.gen_range(0..10u32) < 7 {
                    Op::Read(loc)
                } else {
                    Op::Write(loc)
                }
            }
        }
    }
}

const VALUE_MAGIC: u64 = 0xD5_C0DE_CA05_A100;
const WORDS: usize = PAYLOAD_BYTES / 8;

/// The value writer `writer` stores with its `seq`-th write: both
/// numbers, then filler derived from them, so a reader can tell a
/// well-formed value from a corrupted or mixed one.
#[must_use]
pub fn encode_value(writer: u32, seq: u64) -> Payload {
    let mut out = Vec::with_capacity(PAYLOAD_BYTES);
    out.extend_from_slice(&(VALUE_MAGIC | u64::from(writer)).to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    for k in 2..WORDS as u32 {
        out.extend_from_slice(&filler(writer, seq, k).to_le_bytes());
    }
    out
}

fn filler(writer: u32, seq: u64, k: u32) -> u64 {
    (seq ^ u64::from(writer) << 56)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(k)
}

/// `(writer, seq)` of a well-formed value; `None` for anything else.
#[must_use]
pub fn decode_value(bytes: &[u8]) -> Option<(u32, u64)> {
    if bytes.len() != PAYLOAD_BYTES {
        return None;
    }
    let word = |k: usize| u64::from_le_bytes(bytes[8 * k..8 * k + 8].try_into().expect("8 bytes"));
    let writer = u32::try_from(word(0) ^ VALUE_MAGIC).ok()?;
    let seq = word(1);
    (writer < NODES && seq > 0 && (2..WORDS).all(|k| word(k) == filler(writer, seq, k as u32)))
        .then_some((writer, seq))
}

/// What a client knows about the values it may legally read.
pub struct Checker {
    me: u32,
    /// The only client of the cluster: reads must return exactly its own
    /// last acknowledged write.
    sole_writer: bool,
    next_seq: u64,
    /// Per location and writer, the highest write sequence number this
    /// client has written or read (0 = none).
    seen: Vec<[u64; NODES as usize]>,
}

impl Checker {
    /// The checker of the client on node `me`.
    #[must_use]
    pub fn new(workload: Workload, me: u32) -> Self {
        Checker {
            me,
            sole_writer: workload.clients().len() == 1,
            next_seq: 1,
            seen: vec![[0; NODES as usize]; LOCATIONS as usize],
        }
    }

    /// The value of this client's next write.
    pub fn next_value(&mut self) -> (u64, Payload) {
        let seq = self.next_seq;
        self.next_seq += 1;
        (seq, encode_value(self.me, seq))
    }

    /// Notes that the write `seq` to `loc` was accepted by its owner.
    pub fn acked(&mut self, loc: Location, seq: u64) {
        self.seen[loc.index()][self.me as usize] = seq;
    }

    /// The last acknowledged write sequence number per location.
    #[must_use]
    pub fn last_acked(&self) -> Vec<u64> {
        self.seen.iter().map(|s| s[self.me as usize]).collect()
    }

    /// Checks the value a read of `loc` returned.
    ///
    /// # Errors
    ///
    /// Describes the violation: a malformed value, a value other than
    /// the sole writer's last acknowledged one, or a value older than
    /// one this client already saw from the same writer.
    pub fn check_read(&mut self, loc: Location, value: &[u8]) -> Result<(), String> {
        let seen = &mut self.seen[loc.index()];
        if value.is_empty() {
            // The initial value precedes every write, so it is legal
            // only while this client has seen no write to the location.
            return if seen.iter().all(|&s| s == 0) {
                Ok(())
            } else {
                Err(format!("{loc:?}: initial value after writes {seen:?}"))
            };
        }
        let (writer, seq) =
            decode_value(value).ok_or_else(|| format!("{loc:?}: malformed value {value:02x?}"))?;
        let known = &mut seen[writer as usize];
        if self.sole_writer && (writer != self.me || seq != *known) {
            return Err(format!(
                "{loc:?}: read write {seq} of P{writer}, last acknowledged is {known}"
            ));
        }
        if seq < *known {
            return Err(format!(
                "{loc:?}: read write {seq} of P{writer} after its write {known}"
            ));
        }
        *known = seq;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_for_a_seed_and_differ_across_seeds() {
        for w in Workload::ALL {
            let take = |seed| {
                let mut g = OpGen::new(w, seed, 0);
                (0..2000).map(|_| g.next_op()).collect::<Vec<_>>()
            };
            assert_eq!(take(7), take(7), "{}", w.name());
            assert_ne!(take(7), take(8), "{}", w.name());
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }

    #[test]
    fn remote_workloads_never_touch_the_clients_own_locations() {
        let config = CausalConfig::<Payload>::builder(NODES, LOCATIONS).build();
        for w in [Workload::RemoteRt, Workload::StreamPipelined] {
            let mut g = OpGen::new(w, 1, 0);
            for _ in 0..5000 {
                let (Op::RefreshRead(loc)
                | Op::Write(loc)
                | Op::PipelinedWrite(loc)
                | Op::BarrierRead(loc)) = g.next_op()
                else {
                    panic!("{} issued a plain read", w.name());
                };
                assert_ne!(config.owners().owner_of(loc), NodeId::new(0));
            }
        }
    }

    #[test]
    fn stream_runs_end_with_a_barrier_on_the_last_location_written() {
        let mut g = OpGen::new(Workload::StreamPipelined, 3, 0);
        let mut last = None;
        for i in 0..3 * (u64::from(STREAM_RUN) + 1) {
            match g.next_op() {
                Op::PipelinedWrite(loc) => last = Some(loc),
                Op::BarrierRead(loc) => {
                    assert_eq!(i % (u64::from(STREAM_RUN) + 1), u64::from(STREAM_RUN));
                    assert_eq!(Some(loc), last);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn values_round_trip_and_corruption_is_detected() {
        let v = encode_value(2, 41);
        assert_eq!(v.len(), PAYLOAD_BYTES);
        assert_eq!(decode_value(&v), Some((2, 41)));
        for byte in 0..PAYLOAD_BYTES {
            let mut bad = v.clone();
            bad[byte] ^= 1;
            assert_ne!(decode_value(&bad), Some((2, 41)), "flip in byte {byte}");
        }
        assert_eq!(decode_value(&v[1..]), None);
    }

    #[test]
    fn sole_writer_reads_must_match_the_last_acknowledged_write() {
        let mut c = Checker::new(Workload::RemoteRt, 0);
        let x = Location::new(1);
        assert!(c.check_read(x, &[]).is_ok());
        let (seq, value) = c.next_value();
        c.acked(x, seq);
        assert!(c.check_read(x, &value).is_ok());
        assert!(c.check_read(x, &[]).is_err());
        assert!(c.check_read(x, &encode_value(0, seq + 1)).is_err());
        assert!(c.check_read(x, &encode_value(1, seq)).is_err());
    }

    #[test]
    fn contended_reads_may_not_go_back_for_one_writer() {
        let mut c = Checker::new(Workload::MixedContended, 0);
        let x = Location::new(5);
        assert!(c.check_read(x, &encode_value(1, 9)).is_ok());
        assert!(c.check_read(x, &encode_value(0, 2)).is_ok());
        assert!(c.check_read(x, &encode_value(1, 9)).is_ok());
        assert!(c.check_read(x, &encode_value(1, 8)).is_err());
        assert!(c.check_read(x, &[]).is_err());
    }
}
