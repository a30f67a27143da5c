//! Cluster spec files: who the nodes are and where they listen.
//!
//! A spec is a line-based text file — trivially hand-editable, no parser
//! dependencies:
//!
//! ```text
//! # four-node loopback cluster
//! nodes 4
//! locations 64
//! addr 0 127.0.0.1:7700
//! addr 1 127.0.0.1:7701
//! addr 2 127.0.0.1:7702
//! addr 3 127.0.0.1:7703
//! ```
//!
//! Every process of a cluster loads the same spec; `dsm-server --node i`
//! binds `addr i` and dials its lower-numbered peers.

use std::error::Error;
use std::fmt;

use memcore::NodeId;

/// Transport and engine knobs a spec can set cluster-wide. Every knob
/// has a default, so pre-existing specs (and the short form in the
/// module docs) parse unchanged.
///
/// ```text
/// nodelay on        # TCP_NODELAY (default on)
/// sndbuf 262144     # SO_SNDBUF request in bytes (0 = OS default)
/// rcvbuf 262144     # SO_RCVBUF request in bytes (0 = OS default)
/// pipeline 32       # write-pipeline window (0 = blocking writes)
/// batching on       # coalesce pipelined runs into Msg::Batch envelopes (needs pipeline)
/// reconnect on      # session-layer retransmission + redial on socket loss
/// rto_ms 50         # session retransmission timeout (reconnect mode)
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NetOptions {
    /// Disable Nagle's algorithm on peer sockets (default `true`).
    pub nodelay: bool,
    /// Requested SO_SNDBUF in bytes; `0` keeps the OS default.
    pub sndbuf: u32,
    /// Requested SO_RCVBUF in bytes; `0` keeps the OS default.
    pub rcvbuf: u32,
    /// Engine write-pipeline window; `0` means blocking writes.
    pub pipeline: u32,
    /// Seal pipelined runs into `Msg::Batch` envelopes on the wire.
    pub batching: bool,
    /// Run peer links through `ReliableLink` sessions and redial
    /// dropped sockets instead of treating them as fatal.
    pub reconnect: bool,
    /// Session retransmission timeout in milliseconds (reconnect mode).
    pub rto_ms: u64,
}

impl Default for NetOptions {
    fn default() -> Self {
        NetOptions {
            nodelay: true,
            sndbuf: 0,
            rcvbuf: 0,
            pipeline: 0,
            batching: false,
            reconnect: false,
            rto_ms: 50,
        }
    }
}

/// A parsed cluster spec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClusterSpec {
    locations: u32,
    addrs: Vec<String>,
    net: NetOptions,
}

/// A spec file failed to parse or was inconsistent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based line of the offending entry (0 for whole-file problems).
    pub line: usize,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "spec: {}", self.reason)
        } else {
            write!(f, "spec line {}: {}", self.line, self.reason)
        }
    }
}

impl Error for SpecError {}

fn err(line: usize, reason: impl Into<String>) -> SpecError {
    SpecError {
        line,
        reason: reason.into(),
    }
}

impl ClusterSpec {
    /// Builds a spec from node addresses (index = node id).
    ///
    /// # Panics
    ///
    /// Panics if `addrs` is empty or `locations` is zero.
    #[must_use]
    pub fn new(locations: u32, addrs: Vec<String>) -> Self {
        assert!(!addrs.is_empty(), "spec needs at least one node");
        assert!(locations > 0, "spec needs at least one location");
        ClusterSpec {
            locations,
            addrs,
            net: NetOptions::default(),
        }
    }

    /// Replaces the network options (builder-style).
    #[must_use]
    pub fn with_net(mut self, net: NetOptions) -> Self {
        self.net = net;
        self
    }

    /// The cluster-wide transport and engine knobs.
    #[must_use]
    pub fn net(&self) -> &NetOptions {
        &self.net
    }

    /// Parses the text format shown in the module docs.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] on unknown directives, malformed or duplicate
    /// entries, or a node count that does not match the address list.
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        fn flag(
            lineno: usize,
            name: &str,
            word: Option<&str>,
            slot: &mut Option<bool>,
        ) -> Result<(), SpecError> {
            let word = word.ok_or_else(|| err(lineno, format!("{name} needs on|off")))?;
            let value = match word {
                "on" => true,
                "off" => false,
                other => return Err(err(lineno, format!("{name} wants on|off, got {other:?}"))),
            };
            if slot.replace(value).is_some() {
                return Err(err(lineno, format!("duplicate {name} directive")));
            }
            Ok(())
        }
        fn number<T: std::str::FromStr>(
            lineno: usize,
            name: &str,
            word: Option<&str>,
            slot: &mut Option<T>,
        ) -> Result<(), SpecError>
        where
            T::Err: fmt::Display,
        {
            let word = word.ok_or_else(|| err(lineno, format!("{name} needs a value")))?;
            let value = word
                .parse()
                .map_err(|e| err(lineno, format!("bad {name}: {e}")))?;
            if slot.replace(value).is_some() {
                return Err(err(lineno, format!("duplicate {name} directive")));
            }
            Ok(())
        }

        let mut nodes: Option<usize> = None;
        let mut locations: Option<u32> = None;
        let mut addrs: Vec<Option<String>> = Vec::new();
        let mut nodelay: Option<bool> = None;
        let mut sndbuf: Option<u32> = None;
        let mut rcvbuf: Option<u32> = None;
        let mut pipeline: Option<u32> = None;
        let mut batching: Option<bool> = None;
        let mut reconnect: Option<bool> = None;
        let mut rto_ms: Option<u64> = None;
        for (i, raw) in text.lines().enumerate() {
            let lineno = i + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("nodes") => {
                    let count: usize = parts
                        .next()
                        .ok_or_else(|| err(lineno, "nodes needs a count"))?
                        .parse()
                        .map_err(|e| err(lineno, format!("bad node count: {e}")))?;
                    if count == 0 {
                        return Err(err(lineno, "node count must be positive"));
                    }
                    if nodes.replace(count).is_some() {
                        return Err(err(lineno, "duplicate nodes directive"));
                    }
                    addrs.resize(count, None);
                }
                Some("locations") => {
                    let count: u32 = parts
                        .next()
                        .ok_or_else(|| err(lineno, "locations needs a count"))?
                        .parse()
                        .map_err(|e| err(lineno, format!("bad location count: {e}")))?;
                    if count == 0 {
                        return Err(err(lineno, "location count must be positive"));
                    }
                    if locations.replace(count).is_some() {
                        return Err(err(lineno, "duplicate locations directive"));
                    }
                }
                Some("addr") => {
                    let id: usize = parts
                        .next()
                        .ok_or_else(|| err(lineno, "addr needs a node id"))?
                        .parse()
                        .map_err(|e| err(lineno, format!("bad node id: {e}")))?;
                    let addr = parts
                        .next()
                        .ok_or_else(|| err(lineno, "addr needs host:port"))?;
                    let n = nodes.ok_or_else(|| err(lineno, "addr before nodes directive"))?;
                    if id >= n {
                        return Err(err(lineno, format!("node {id} out of range (nodes {n})")));
                    }
                    if addrs[id].replace(addr.to_owned()).is_some() {
                        return Err(err(lineno, format!("duplicate addr for node {id}")));
                    }
                }
                Some("nodelay") => flag(lineno, "nodelay", parts.next(), &mut nodelay)?,
                Some("sndbuf") => number(lineno, "sndbuf", parts.next(), &mut sndbuf)?,
                Some("rcvbuf") => number(lineno, "rcvbuf", parts.next(), &mut rcvbuf)?,
                Some("pipeline") => number(lineno, "pipeline", parts.next(), &mut pipeline)?,
                Some("batching") => flag(lineno, "batching", parts.next(), &mut batching)?,
                Some("reconnect") => flag(lineno, "reconnect", parts.next(), &mut reconnect)?,
                Some("rto_ms") => {
                    number(lineno, "rto_ms", parts.next(), &mut rto_ms)?;
                    if rto_ms == Some(0) {
                        return Err(err(lineno, "rto_ms must be positive"));
                    }
                }
                Some(other) => {
                    return Err(err(lineno, format!("unknown directive {other:?}")));
                }
                None => unreachable!("blank lines are skipped"),
            }
            if let Some(extra) = parts.next() {
                return Err(err(lineno, format!("trailing tokens from {extra:?}")));
            }
        }
        let n = nodes.ok_or_else(|| err(0, "missing nodes directive"))?;
        let locations = locations.ok_or_else(|| err(0, "missing locations directive"))?;
        let addrs: Vec<String> = addrs
            .into_iter()
            .enumerate()
            .map(|(id, a)| a.ok_or_else(|| err(0, format!("missing addr for node {id}"))))
            .collect::<Result<_, _>>()?;
        debug_assert_eq!(addrs.len(), n);
        let defaults = NetOptions::default();
        let net = NetOptions {
            nodelay: nodelay.unwrap_or(defaults.nodelay),
            sndbuf: sndbuf.unwrap_or(defaults.sndbuf),
            rcvbuf: rcvbuf.unwrap_or(defaults.rcvbuf),
            pipeline: pipeline.unwrap_or(defaults.pipeline),
            batching: batching.unwrap_or(defaults.batching),
            reconnect: reconnect.unwrap_or(defaults.reconnect),
            rto_ms: rto_ms.unwrap_or(defaults.rto_ms),
        };
        if net.batching && net.pipeline == 0 {
            return Err(err(0, "batching on needs pipeline >= 1"));
        }
        Ok(ClusterSpec::new(locations, addrs).with_net(net))
    }

    /// Renders back to the text format (parse ∘ `to_text` is identity).
    /// Network knobs are emitted only where they differ from the
    /// defaults, so a default spec renders exactly as before.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = format!("nodes {}\nlocations {}\n", self.nodes(), self.locations);
        let on_off = |b: bool| if b { "on" } else { "off" };
        let defaults = NetOptions::default();
        if self.net.nodelay != defaults.nodelay {
            out.push_str(&format!("nodelay {}\n", on_off(self.net.nodelay)));
        }
        if self.net.sndbuf != defaults.sndbuf {
            out.push_str(&format!("sndbuf {}\n", self.net.sndbuf));
        }
        if self.net.rcvbuf != defaults.rcvbuf {
            out.push_str(&format!("rcvbuf {}\n", self.net.rcvbuf));
        }
        if self.net.pipeline != defaults.pipeline {
            out.push_str(&format!("pipeline {}\n", self.net.pipeline));
        }
        if self.net.batching != defaults.batching {
            out.push_str(&format!("batching {}\n", on_off(self.net.batching)));
        }
        if self.net.reconnect != defaults.reconnect {
            out.push_str(&format!("reconnect {}\n", on_off(self.net.reconnect)));
        }
        if self.net.rto_ms != defaults.rto_ms {
            out.push_str(&format!("rto_ms {}\n", self.net.rto_ms));
        }
        for (id, addr) in self.addrs.iter().enumerate() {
            out.push_str(&format!("addr {id} {addr}\n"));
        }
        out
    }

    /// Number of nodes.
    #[must_use]
    pub fn nodes(&self) -> u32 {
        self.addrs.len() as u32
    }

    /// Size of the shared location namespace.
    #[must_use]
    pub fn locations(&self) -> u32 {
        self.locations
    }

    /// The listen address of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn addr(&self, node: NodeId) -> &str {
        &self.addrs[node.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_format() {
        let spec = ClusterSpec::parse(
            "# comment\n\nnodes 2\nlocations 8\naddr 0 127.0.0.1:7700\naddr 1 127.0.0.1:7701\n",
        )
        .unwrap();
        assert_eq!(spec.nodes(), 2);
        assert_eq!(spec.locations(), 8);
        assert_eq!(spec.addr(NodeId::new(1)), "127.0.0.1:7701");
    }

    #[test]
    fn round_trips_through_text() {
        let spec = ClusterSpec::new(64, vec!["a:1".into(), "b:2".into(), "c:3".into()]);
        assert_eq!(ClusterSpec::parse(&spec.to_text()).unwrap(), spec);
        // A default spec renders without any net directives.
        assert!(!spec.to_text().contains("nodelay"));
    }

    #[test]
    fn net_options_parse_and_round_trip() {
        let text = "nodes 1\nlocations 4\nnodelay off\nsndbuf 262144\nrcvbuf 131072\n\
                    pipeline 32\nbatching on\nreconnect on\nrto_ms 25\naddr 0 x:1\n";
        let spec = ClusterSpec::parse(text).unwrap();
        assert_eq!(
            *spec.net(),
            NetOptions {
                nodelay: false,
                sndbuf: 262_144,
                rcvbuf: 131_072,
                pipeline: 32,
                batching: true,
                reconnect: true,
                rto_ms: 25,
            }
        );
        assert_eq!(ClusterSpec::parse(&spec.to_text()).unwrap(), spec);
        // Unset knobs keep their defaults.
        let plain = ClusterSpec::parse("nodes 1\nlocations 4\naddr 0 x:1\n").unwrap();
        assert_eq!(*plain.net(), NetOptions::default());
    }

    #[test]
    fn rejects_malformed_net_options() {
        for (extra, needle) in [
            ("nodelay maybe\n", "wants on|off"),
            ("batching\n", "needs on|off"),
            ("pipeline many\n", "bad pipeline"),
            ("rto_ms 0\n", "rto_ms must be positive"),
            ("sndbuf 1 2\n", "trailing"),
            ("reconnect on\nreconnect on\n", "duplicate reconnect"),
            ("pipeline 4\npipeline 4\n", "duplicate pipeline"),
            ("batching on\n", "batching on needs pipeline >= 1"),
            (
                "pipeline 0\nbatching on\n",
                "batching on needs pipeline >= 1",
            ),
        ] {
            let text = format!("nodes 1\nlocations 4\n{extra}addr 0 x:1\n");
            let e = ClusterSpec::parse(&text).unwrap_err();
            assert!(
                e.to_string().contains(needle),
                "{extra:?} gave {e}, wanted {needle:?}"
            );
        }
    }

    #[test]
    fn rejects_malformed_specs() {
        for (text, needle) in [
            ("locations 4\naddr 0 x:1\n", "addr before nodes"),
            (
                "nodes 2\nlocations 4\naddr 0 x:1\n",
                "missing addr for node 1",
            ),
            ("nodes 2\nlocations 4\naddr 5 x:1\n", "out of range"),
            ("nodes 0\n", "must be positive"),
            ("nodes 1\nnodes 1\n", "duplicate nodes"),
            ("warp 9\n", "unknown directive"),
            ("nodes 1\nlocations 4\naddr 0 x:1 extra\n", "trailing"),
            ("nodes 1\naddr 0 x:1\n", "missing locations"),
        ] {
            let e = ClusterSpec::parse(text).unwrap_err();
            assert!(
                e.to_string().contains(needle),
                "{text:?} gave {e}, wanted {needle:?}"
            );
        }
    }
}
