//! Additional quantitative experiments: per-operation dictionary message
//! costs (E8) and the vector-timestamp metadata overhead (the price of
//! causality tracking, in wire bytes per message, as `n` grows).

use std::fmt::Write as _;

use causal_dsm::{CausalCluster, WritePolicy};
use dsm_apps::{run_causal_solver_sim, DictLayout, Dictionary, LinearSystem, SolverSimConfig};
use dsm_objects::ObjVal;
use memcore::Word;

/// Message cost of each dictionary operation kind on the causal engine
/// (single-threaded, hence deterministic).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DictCosts {
    /// Messages for an insert into the caller's own row.
    pub insert_own_row: u64,
    /// Messages for the first lookup of a foreign item (cold cache).
    pub lookup_cold: u64,
    /// Messages for a repeat lookup (warm cache).
    pub lookup_warm: u64,
    /// Messages for deleting a foreign item (a remote write of λ).
    pub delete_foreign: u64,
}

/// Measures [`DictCosts`] for an `n × m` dictionary.
///
/// # Panics
///
/// Panics if the cluster fails to build or any operation errors.
#[must_use]
pub fn dictionary_costs(n: usize, m: usize) -> DictCosts {
    let layout = DictLayout::new(n, m);
    let cluster = CausalCluster::<ObjVal>::builder(n as u32, layout.locations())
        .configure(|c| c.owners(layout.owners()).policy(WritePolicy::OwnerFavored))
        .build()
        .expect("cluster");
    let d0 = Dictionary::new(cluster.handle(0), layout);
    let d1 = Dictionary::new(cluster.handle(1), layout);
    let total = || cluster.messages().snapshot().total();

    let before = total();
    d0.insert(7).expect("insert");
    let insert_own_row = total() - before;

    let before = total();
    assert!(d1.lookup(7).expect("lookup"));
    let lookup_cold = total() - before;

    let before = total();
    assert!(d1.lookup(7).expect("lookup"));
    let lookup_warm = total() - before;

    let before = total();
    assert!(d1.delete(7).expect("delete"));
    let delete_foreign = total() - before;

    DictCosts {
        insert_own_row,
        lookup_cold,
        lookup_warm,
        delete_foreign,
    }
}

/// One row of the metadata-overhead table: average wire bytes per protocol
/// message for a solver run at `n` workers. The vector timestamp in every
/// message grows as `8n` bytes — causality tracking's scaling cost.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OverheadRow {
    /// Worker count.
    pub n: usize,
    /// Total protocol messages.
    pub messages: u64,
    /// Total approximate wire bytes.
    pub bytes: u64,
    /// Average bytes per message.
    pub avg_bytes_per_msg: f64,
}

/// Measures metadata overhead across worker counts.
#[must_use]
pub fn metadata_overhead(ns: &[usize]) -> Vec<OverheadRow> {
    ns.iter()
        .map(|&n| {
            let system = LinearSystem::random(n, 60 + n as u64);
            let run = run_causal_solver_sim(
                &system,
                &SolverSimConfig {
                    workers: n,
                    phases: 6,
                    ..SolverSimConfig::default()
                },
            );
            assert!(run.all_done);
            let messages = run.messages.total();
            let bytes = run.bytes.total();
            OverheadRow {
                n,
                messages,
                bytes,
                avg_bytes_per_msg: bytes as f64 / messages as f64,
            }
        })
        .collect()
}

/// One row of the barrier-style comparison: messages per participant per
/// crossing for the §4.1 coordinator handshake vs the decentralized
/// event-count barrier (`dsm_apps::CausalBarrier`'s protocol).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BarrierRow {
    /// Participants.
    pub n: usize,
    /// Coordinator handshake, analytic: 8 messages per worker per phase
    /// (each flag read once and written once remotely).
    pub handshake: f64,
    /// Decentralized barrier, measured (ideal signaling).
    pub decentralized: f64,
    /// Decentralized analytic: `2(n − 1)`.
    pub decentralized_analytic: f64,
}

/// Measures the decentralized barrier's message cost per participant per
/// crossing: [`dsm_apps::CausalBarrier`] itself, run on the simulated
/// causal DSM.
///
/// # Panics
///
/// Panics if a simulation fails to complete.
#[must_use]
pub fn barrier_costs(ns: &[usize]) -> Vec<BarrierRow> {
    use causal_dsm::CausalConfig;
    use dsm_apps::CausalBarrier;
    use dsm_sim::{causal_sim, Program, RunLimits, SimOpts};
    use memcore::{Location, NodeId};

    let total_for = |n: usize, rounds: usize| -> u64 {
        // Counters at 0..n, round-robin: node i owns counter i.
        let config = CausalConfig::<Word>::builder(n as u32, n as u32).build();
        let mut sim = causal_sim(&config, SimOpts::default());
        for me in 0..n {
            let participant = Program::new(NodeId::new(me as u32), move |mem| {
                let mut barrier = CausalBarrier::new(mem, Location::new(0), n);
                for _ in 0..rounds {
                    if barrier.enter().is_err() {
                        return; // only a dropped simulation fails a call
                    }
                }
            });
            sim.set_client(me, participant);
        }
        let report = sim.run(RunLimits::default());
        assert!(report.all_done, "barrier sim stuck: {report:?}");
        sim.messages().snapshot().total()
    };

    ns.iter()
        .map(|&n| {
            let short = total_for(n, 4);
            let long = total_for(n, 8);
            BarrierRow {
                n,
                handshake: 8.0,
                decentralized: (long - short) as f64 / 4.0 / n as f64,
                decentralized_analytic: (2 * (n - 1)) as f64,
            }
        })
        .collect()
}

/// Renders both cost experiments for the repro harness.
#[must_use]
pub fn render_costs() -> String {
    let mut out = String::new();
    let costs = dictionary_costs(3, 8);
    let _ = writeln!(
        out,
        "dictionary per-op messages (3 processes, 8 slots/row):"
    );
    let _ = writeln!(
        out,
        "      insert (own row) : {}   — purely local, as §4.2 promises",
        costs.insert_own_row
    );
    let _ = writeln!(
        out,
        "      lookup (cold)    : {}   — fetches of uncached rows",
        costs.lookup_cold
    );
    let _ = writeln!(
        out,
        "      lookup (warm)    : {}   — cache hits",
        costs.lookup_warm
    );
    let _ = writeln!(
        out,
        "      delete (foreign) : {}   — one certification round-trip",
        costs.delete_foreign
    );

    let _ = writeln!(
        out,
        "vector-timestamp metadata overhead (solver, 6 phases):"
    );
    for row in metadata_overhead(&[4, 8, 16, 32]) {
        let _ = writeln!(
            out,
            "      n={:>2}: {:>5} msgs, {:>8} bytes, {:>6.1} bytes/msg",
            row.n, row.messages, row.bytes, row.avg_bytes_per_msg
        );
    }

    let _ = writeln!(
        out,
        "barrier styles, messages per participant per crossing (ideal signaling):"
    );
    for row in barrier_costs(&[3, 5, 8]) {
        let _ = writeln!(
            out,
            "      n={:>2}: coordinator handshake {:>4.0}   decentralized {:>5.1} \
             (analytic 2(n-1) = {:.0})",
            row.n, row.handshake, row.decentralized, row.decentralized_analytic
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_row_inserts_are_free() {
        let costs = dictionary_costs(3, 8);
        assert_eq!(costs.insert_own_row, 0, "§4.2: inserts need no messages");
        assert_eq!(costs.lookup_warm, 0, "warm lookups hit the cache");
        assert!(costs.lookup_cold > 0);
        assert_eq!(costs.delete_foreign, 2, "one WRITE + one W_REPLY");
    }

    #[test]
    fn decentralized_barrier_matches_its_analytic_cost() {
        let rows = barrier_costs(&[3, 5]);
        for row in rows {
            assert!(
                (row.decentralized - row.decentralized_analytic).abs() < 1e-9,
                "n={}: measured {} vs analytic {}",
                row.n,
                row.decentralized,
                row.decentralized_analytic
            );
        }
    }

    #[test]
    fn metadata_overhead_grows_with_n() {
        let rows = metadata_overhead(&[4, 16]);
        assert!(rows[1].avg_bytes_per_msg > rows[0].avg_bytes_per_msg);
    }
}
