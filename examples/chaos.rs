//! The Figure-6 solver on a network that misbehaves: 5% message drop on
//! every link plus one mid-run partition, masked by the `dsm-faults`
//! session layer. Prints the message and retransmission overhead against
//! the same solve on a healthy network.
//!
//! ```text
//! cargo run --example chaos
//! ```

use std::sync::Arc;

use causalmem::apps::{install_solver, LinearSystem, SolverLayout};
use causalmem::causal::{CausalConfig, CausalState, NodeDriver};
use causalmem::faults::{FaultInjector, FaultPlan, LinkFaults, Session};
use causalmem::memcore::{kinds, NodeId, StatsSnapshot, Word};
use causalmem::sim::{RunLimits, Sim, SimDriver, SimOpts};
use causalmem::simnet::latency::Constant;
use causalmem::simnet::FaultHook;

const WORKERS: usize = 4;
const PHASES: usize = 8;
const LATENCY: u64 = 5;
const RTO: u64 = 25;
const SEED: u64 = 7;

struct Run {
    residual: f64,
    time: u64,
    messages: StatsSnapshot,
}

/// One session-layered solver run, optionally under a fault plan.
fn solve(system: &LinearSystem, plan: Option<FaultPlan>) -> Run {
    let layout = SolverLayout::new(WORKERS);
    let config = CausalConfig::<Word>::builder(layout.nodes(), layout.locations())
        .owners(layout.owners())
        .const_pages(layout.const_pages())
        .build();
    let faults = plan.map(|p| Arc::new(FaultInjector::new(SEED, p)) as Arc<dyn FaultHook>);
    // Session-layered nodes with no restart rule: a crash window would be
    // a pause.
    let nodes = (0..config.nodes())
        .map(|i| NodeDriver::new(CausalState::new(NodeId::new(i), config.clone())))
        .map(|driver| Session::new(driver, RTO))
        .collect();
    let mut sim = Sim::new(
        nodes,
        SimOpts {
            latency: Box::new(Constant::new(LATENCY)),
            seed: SEED,
            faults,
            ..SimOpts::default()
        },
    );
    install_solver(&mut sim, &layout, system, PHASES);
    let report = sim.run(RunLimits::default());
    assert!(report.all_done, "solver wedged: {report:?}");
    let x: Vec<f64> = (0..WORKERS)
        .map(|i| {
            sim.driver(i)
                .peek(layout.x(i))
                .and_then(Word::as_float)
                .unwrap_or(f64::NAN)
        })
        .collect();
    Run {
        residual: system.residual(&x),
        time: report.time,
        messages: sim.messages().snapshot(),
    }
}

fn main() {
    let system = LinearSystem::random(WORKERS, 11);

    // Baseline: the session layer over a healthy network.
    let clean = solve(&system, None);

    // Chaos: 5% drop on every link, and a partition that splits workers
    // {0, 1} from the rest for a sixth of the baseline makespan, starting
    // a third of the way in.
    let start = clean.time / 3;
    let heal = start + clean.time / 6;
    let plan =
        FaultPlan::uniform(LinkFaults::dropping(0.05)).with_partition(start, heal, vec![0, 1]);
    println!(
        "Figure-6 solver, {WORKERS} workers x {PHASES} phases, link latency {LATENCY}, rto {RTO}"
    );
    println!(
        "fault plan: 5% drop per link, partition {{0,1}} | {{2,3,4}} during [{start}, {heal})\n"
    );
    let faulty = solve(&system, Some(plan));

    let overhead = |m: &StatsSnapshot| {
        (
            m.protocol_total(),
            m.kind_total(kinds::RETX),
            m.kind_total(kinds::DUP),
            m.kind_total(kinds::DROP),
            m.kind_total(kinds::ACK),
        )
    };
    let (cp, crx, cdup, cdrop, cack) = overhead(&clean.messages);
    let (fp, frx, fdup, fdrop, fack) = overhead(&faulty.messages);

    println!("            {:>12} {:>12}", "fault-free", "faulty");
    println!(
        "residual    {:>12.2e} {:>12.2e}",
        clean.residual, faulty.residual
    );
    println!("makespan    {:>12} {:>12}", clean.time, faulty.time);
    println!("protocol    {cp:>12} {fp:>12}");
    println!("RETX        {crx:>12} {frx:>12}");
    println!("DUP         {cdup:>12} {fdup:>12}");
    println!("DROP        {cdrop:>12} {fdrop:>12}");
    println!("ACK         {cack:>12} {fack:>12}");
    println!(
        "overhead    {:>11.1}% {:>11.1}%",
        100.0 * clean.messages.overhead_total() as f64 / cp as f64,
        100.0 * faulty.messages.overhead_total() as f64 / fp as f64
    );
    println!(
        "\nBoth runs solve the same system: the session layer re-derives the\n\
         reliable, ordered delivery the owner protocol assumes, at the cost of\n\
         {} retransmissions and a {}x makespan stretch.",
        frx - crx,
        (faulty.time as f64 / clean.time as f64 * 10.0).round() / 10.0
    );
}
