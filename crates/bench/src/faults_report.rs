//! The chaos section of the repro report: what faults — and the session
//! layer that masks them — cost in messages.
//!
//! Runs a small seeded chaos batch (random workloads under random fault
//! plans, every execution validated by the causal checker) and the same
//! workloads on a reliable network, then reports the message breakdown —
//! protocol traffic vs session/fault overhead (retransmissions, duplicate
//! deliveries, drops, acks) — using the [`memcore::kinds`] counters.

use std::fmt::Write as _;

use dsm_faults::{run_chaos, ChaosConfig, Faults, Registers};
use memcore::kinds;

/// One row of the chaos overhead table.
#[derive(Clone, Debug)]
pub struct ChaosRow {
    /// Batch label ("faulty" or "fault-free").
    pub label: &'static str,
    /// Runs in the batch.
    pub runs: usize,
    /// Failures (violations or wedges) — must be zero.
    pub failures: usize,
    /// Protocol messages (payload kinds).
    pub protocol: u64,
    /// Retransmissions.
    pub retx: u64,
    /// Duplicate deliveries.
    pub dup: u64,
    /// Messages lost to drops/partitions/crashes.
    pub drop: u64,
    /// Session acks.
    pub ack: u64,
}

impl ChaosRow {
    /// Total non-payload messages.
    #[must_use]
    pub fn overhead(&self) -> u64 {
        self.retx + self.dup + self.drop + self.ack
    }
}

fn batch_row(label: &'static str, first_seed: u64, runs: usize, faults: Faults) -> ChaosRow {
    let mut row = ChaosRow {
        label,
        runs,
        failures: 0,
        protocol: 0,
        retx: 0,
        dup: 0,
        drop: 0,
        ack: 0,
    };
    for seed in first_seed..first_seed + runs as u64 {
        let outcome = run_chaos(&Registers, faults, seed, &ChaosConfig::default());
        row.failures += usize::from(!outcome.ok());
        row.protocol += outcome.messages.protocol_total();
        row.retx += outcome.messages.kind_total(kinds::RETX);
        row.dup += outcome.messages.kind_total(kinds::DUP);
        row.drop += outcome.messages.kind_total(kinds::DROP);
        row.ack += outcome.messages.kind_total(kinds::ACK);
    }
    row
}

/// Runs `runs` chaos executions starting at `first_seed`, and the same
/// workloads fault-free, returning both rows.
#[must_use]
pub fn chaos_overhead(first_seed: u64, runs: usize) -> Vec<ChaosRow> {
    vec![
        batch_row("faulty", first_seed, runs, Faults::Random),
        batch_row("fault-free", first_seed, runs, Faults::None),
    ]
}

/// Renders the chaos overhead table.
#[must_use]
pub fn render_chaos(first_seed: u64, runs: usize) -> String {
    let rows = chaos_overhead(first_seed, runs);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{runs} seeded chaos runs (random drop/dup/delay, partitions, crashes)\n\
         vs the same workloads on a reliable network; every execution is\n\
         checked against the causal specification:\n"
    );
    let _ = writeln!(
        out,
        "  {:<12} {:>8} {:>10} {:>7} {:>7} {:>7} {:>7} {:>10}",
        "batch", "failures", "protocol", "RETX", "DUP", "DROP", "ACK", "overhead"
    );
    for r in &rows {
        let pct = if r.protocol == 0 {
            0.0
        } else {
            100.0 * r.overhead() as f64 / r.protocol as f64
        };
        let _ = writeln!(
            out,
            "  {:<12} {:>8} {:>10} {:>7} {:>7} {:>7} {:>7} {:>9.1}%",
            r.label, r.failures, r.protocol, r.retx, r.dup, r.drop, r.ack, pct
        );
    }
    let _ = writeln!(
        out,
        "\n  (a failure prints its reproducing seed + fault plan; the seed\n\
         \x20  determines workload, plan, and injector dice — see docs/FAULTS.md)"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_section_renders_and_runs_clean() {
        let rows = chaos_overhead(0, 4);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.failures == 0));
        // A reliable network never retransmits or drops.
        let clean = &rows[1];
        assert_eq!(clean.retx + clean.dup + clean.drop, 0);
        assert!(clean.ack > 0, "session acks flow even without faults");
        let text = render_chaos(0, 2);
        assert!(text.contains("RETX"));
        assert!(text.contains("fault-free"));
    }
}
