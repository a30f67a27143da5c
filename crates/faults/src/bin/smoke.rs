//! The chaos grid from the command line: each cell is a workload × a
//! fault family, run over consecutive seeds under the oracles the pair
//! implies.
//!
//! ```text
//! smoke [<workload> <faults>] [--runs N] [--seed S]
//! ```
//!
//! Workloads: `registers`, `objects`, `mutant` (the broken merge policy —
//! its runs are supposed to fail). Fault families: `none`, `random`,
//! `owner-crash`, `restart` (WAL recovery under `every_op` sync) and
//! `restart-interval` (under `interval(4)`). Without a cell it runs the
//! CI grid below; `--runs` overrides every cell's seed count and `--seed`
//! is the first seed. Prints one line per cell with its protocol and
//! overhead message totals, and every failing run with the command that
//! replays it; exits 1 if any run wedged or violated an oracle, 2 on bad
//! arguments.

use std::process::ExitCode;

use causal_dsm::SyncPolicy;
use dsm_faults::{run_chaos_batch, ChaosConfig, Faults, Mutant, Objects, Registers, Workload};

const USAGE: &str = "usage: smoke [<registers|objects|mutant> \
                     <none|random|owner-crash|restart|restart-interval>] [--runs N] [--seed S]";

const FAULTS: [(&str, Faults); 5] = [
    ("none", Faults::None),
    ("random", Faults::Random),
    ("owner-crash", Faults::OwnerCrash),
    ("restart", Faults::Restart(SyncPolicy::EveryOp)),
    ("restart-interval", Faults::Restart(SyncPolicy::Interval(4))),
];

/// The CI grid: workload, fault family, seeds.
const GRID: [(&str, &str, usize); 7] = [
    ("registers", "random", 25),
    ("registers", "owner-crash", 10),
    ("registers", "restart", 100),
    ("registers", "restart-interval", 10),
    ("objects", "random", 100),
    ("objects", "owner-crash", 8),
    ("objects", "restart", 100),
];

/// A cell's run count when `--runs` is absent and the grid does not list
/// it.
const DEFAULT_RUNS: usize = 25;

/// One cell to run: workload, fault family, seed count.
type Cell = (&'static str, &'static str, usize);

fn family(name: &str) -> Option<(&'static str, Faults)> {
    FAULTS.into_iter().find(|(n, _)| *n == name)
}

fn parse(mut args: impl Iterator<Item = String>) -> Option<(Vec<Cell>, u64)> {
    let (mut names, mut runs, mut seed) = (Vec::new(), None, 0);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--runs" => runs = Some(args.next()?.parse().ok()?),
            "--seed" => seed = args.next()?.parse().ok()?,
            _ if arg.starts_with('-') => return None,
            _ => names.push(arg),
        }
    }
    let cells = match names.as_slice() {
        [] => GRID.map(|(w, f, n)| (w, f, runs.unwrap_or(n))).to_vec(),
        [w, f] => {
            let w = ["registers", "objects", "mutant"]
                .into_iter()
                .find(|n| n == w)?;
            let (f, _) = family(f)?;
            let listed = GRID.iter().find(|c| (c.0, c.1) == (w, f));
            vec![(w, f, runs.unwrap_or(listed.map_or(DEFAULT_RUNS, |c| c.2)))]
        }
        _ => return None,
    };
    Some((cells, seed))
}

/// Runs one cell and prints its line and its failures; `true` iff every
/// run passed.
fn run_cell<W: Workload>(workload: &W, faults: &str, first_seed: u64, runs: usize) -> bool {
    let (_, family) = family(faults).expect("parse checked the name");
    let batch = run_chaos_batch(workload, family, first_seed, runs, &ChaosConfig::default());
    println!(
        "{:<9} {faults:<16} {runs:>4} runs {:>3} failures {:>6} protocol {:>7} overhead msgs",
        W::NAME,
        batch.failures.len(),
        batch.protocol_messages,
        batch.overhead_messages
    );
    for failure in &batch.failures {
        print!("{failure}");
        println!(
            "  replay: smoke {} {faults} --seed {} --runs 1",
            W::NAME,
            failure.seed
        );
    }
    batch.all_ok()
}

fn main() -> ExitCode {
    let Some((cells, first_seed)) = parse(std::env::args().skip(1)) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let mut ok = true;
    for (workload, faults, runs) in cells {
        ok &= match workload {
            "registers" => run_cell(&Registers, faults, first_seed, runs),
            "objects" => run_cell(&Objects, faults, first_seed, runs),
            _ => run_cell(&Mutant, faults, first_seed, runs),
        };
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
