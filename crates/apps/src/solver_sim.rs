//! The Figure-6 solver in the deterministic simulator — the E6
//! message-count experiment.
//!
//! The workers and the coordinator are the blocking programs of
//! [`crate::solver`], run as [`Program`]s inside the deterministic
//! simulator, which counts every protocol message. The same programs run
//! against the causal, the atomic and the broadcast memory; the harness
//! reports messages per processor per phase next to the paper's analytic
//! `2n + 6` and `≥ 3n + 5`.

use atomic_dsm::{AtomicConfig, InvalMode};
use causal_dsm::CausalConfig;
use dsm_sim::{atomic_sim, causal_sim, Program, RunLimits, Sim, SimDriver, SimOpts, WaitMode};
use memcore::{NodeId, StatsSnapshot, Word};
use simnet::latency::Constant;

use crate::solver::{publish_system, run_coordinator, run_worker, SolverLayout};
use crate::system::LinearSystem;

/// Parameters of one simulated solver run.
#[derive(Clone, Debug)]
pub struct SolverSimConfig {
    /// Number of worker processes (one vector component each).
    pub workers: usize,
    /// Synchronous phases to run.
    pub phases: usize,
    /// Wait re-read policy (ideal signaling reproduces the paper's
    /// counts; polling measures honest spinning).
    pub wait_mode: WaitMode,
    /// Mark the `A`/`b` pages constant (the paper's footnote-2
    /// enhancement). Ablation A3 turns this off.
    pub const_ab: bool,
    /// Link latency (time units, constant).
    pub latency: u64,
    /// Scheduler seed.
    pub seed: u64,
}

impl Default for SolverSimConfig {
    fn default() -> Self {
        SolverSimConfig {
            workers: 4,
            phases: 6,
            wait_mode: WaitMode::IdealSignal,
            const_ab: true,
            latency: 1,
            seed: 0,
        }
    }
}

impl SolverSimConfig {
    /// The simulator options this run asks for.
    fn sim_opts(&self) -> SimOpts<Word> {
        SimOpts {
            latency: Box::new(Constant::new(self.latency)),
            seed: self.seed,
            wait_mode: self.wait_mode,
            ..SimOpts::default()
        }
    }
}

/// The outcome of one simulated solver run.
#[derive(Clone, Debug)]
pub struct SolverRun {
    /// All protocol messages, per (node, kind).
    pub messages: StatsSnapshot,
    /// Approximate wire bytes, per (node, kind).
    pub bytes: StatsSnapshot,
    /// The final solution vector, peeked from each worker's owned `x_i`.
    pub x: Vec<f64>,
    /// `‖Ax − b‖∞` of the final vector.
    pub residual: f64,
    /// Simulated makespan.
    pub time: u64,
    /// Whether every process ran to completion.
    pub all_done: bool,
}

impl SolverRun {
    /// Messages per worker per phase — the paper's §4.1 quantity.
    /// Coordinator traffic is attributed to the workers it serves, as in
    /// the paper.
    #[must_use]
    pub fn messages_per_worker_per_phase(&self, workers: usize, phases: usize) -> f64 {
        self.messages.total() as f64 / (workers as f64 * phases as f64)
    }
}

/// Runs the synchronous solver on the simulated **causal** DSM.
#[must_use]
pub fn run_causal_solver_sim(system: &LinearSystem, cfg: &SolverSimConfig) -> SolverRun {
    let layout = SolverLayout::new(cfg.workers);
    let mut builder =
        CausalConfig::<Word>::builder(layout.nodes(), layout.locations()).owners(layout.owners());
    if cfg.const_ab {
        builder = builder.const_pages(layout.const_pages());
    }
    let config = builder.build();
    let mut sim = causal_sim(&config, cfg.sim_opts());
    install_solver(&mut sim, &layout, system, cfg.phases);
    finish(sim, &layout, system)
}

/// Runs the synchronous solver on the simulated **causal-broadcast**
/// replica memory — the full-replication comparator. The same programs
/// run unchanged: reads are local (causal delivery guarantees
/// each phase's vector updates arrive before the handshake that releases
/// the next phase), but every write costs `n` update messages.
#[must_use]
pub fn run_broadcast_solver_sim(system: &LinearSystem, cfg: &SolverSimConfig) -> SolverRun {
    let layout = SolverLayout::new(cfg.workers);
    let mut sim =
        dsm_sim::broadcast_sim::<Word>(layout.nodes(), layout.locations(), cfg.sim_opts());
    install_solver(&mut sim, &layout, system, cfg.phases);
    finish(sim, &layout, system)
}

/// Runs the synchronous solver on the simulated **atomic** DSM.
#[must_use]
pub fn run_atomic_solver_sim(
    system: &LinearSystem,
    cfg: &SolverSimConfig,
    inval_mode: InvalMode,
) -> SolverRun {
    let layout = SolverLayout::new(cfg.workers);
    let config = AtomicConfig::<Word>::builder(layout.nodes(), layout.locations())
        .owners(layout.owners())
        .inval_mode(inval_mode)
        .build();
    let mut sim = atomic_sim(&config, cfg.sim_opts());
    install_solver(&mut sim, &layout, system, cfg.phases);
    finish(sim, &layout, system)
}

/// Installs the Figure-6 programs on `sim` for `phases` iterations of
/// `system`: worker `P_i` runs [`run_worker`], and the coordinator
/// publishes `A` and `b` ([`publish_system`]) and then runs
/// [`run_coordinator`] — the same code the threaded engines run.
pub fn install_solver<D: SimDriver<Value = Word>>(
    sim: &mut Sim<D>,
    layout: &SolverLayout,
    system: &LinearSystem,
    phases: usize,
) {
    let layout = *layout;
    for i in 0..layout.workers() {
        let worker = Program::new(NodeId::new(i as u32), move |mem| {
            // Only a dropped simulation fails a call; the program just ends.
            let _ = run_worker(&mem, &layout, i, phases);
        });
        sim.set_client(i, worker);
    }
    let system = system.clone();
    let coordinator = Program::new(layout.coordinator(), move |mem| {
        let _ = publish_system(&mem, &layout, &system)
            .and_then(|()| run_coordinator(&mem, &layout, phases));
    });
    sim.set_client(layout.workers(), coordinator);
}

fn finish<D: SimDriver<Value = Word>>(
    mut sim: Sim<D>,
    layout: &SolverLayout,
    system: &LinearSystem,
) -> SolverRun {
    let report = sim.run(RunLimits::default());
    let x: Vec<f64> = (0..layout.workers())
        .map(|i| {
            sim.driver(i)
                .peek(layout.x(i))
                .and_then(Word::as_float)
                .unwrap_or(f64::NAN)
        })
        .collect();
    SolverRun {
        messages: sim.messages().snapshot(),
        bytes: sim.bytes().snapshot(),
        residual: system.residual(&x),
        x,
        time: report.time,
        all_done: report.all_done,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn causal_solver_converges_in_simulation() {
        let system = LinearSystem::random(4, 11);
        let cfg = SolverSimConfig {
            workers: 4,
            phases: 40,
            ..SolverSimConfig::default()
        };
        let run = run_causal_solver_sim(&system, &cfg);
        assert!(run.all_done, "stuck: {run:?}");
        let reference = system.solve_jacobi(40);
        for (got, want) in run.x.iter().zip(&reference) {
            assert!(
                (got - want).abs() < 1e-9,
                "simulated {got} vs reference {want}"
            );
        }
    }

    #[test]
    fn atomic_solver_converges_in_simulation() {
        let system = LinearSystem::random(3, 12);
        let cfg = SolverSimConfig {
            workers: 3,
            phases: 40,
            ..SolverSimConfig::default()
        };
        let run = run_atomic_solver_sim(&system, &cfg, InvalMode::Acknowledged);
        assert!(run.all_done, "stuck: {run:?}");
        let reference = system.solve_jacobi(40);
        for (got, want) in run.x.iter().zip(&reference) {
            assert!((got - want).abs() < 1e-9);
        }
    }

    #[test]
    fn broadcast_solver_converges_in_simulation() {
        // The same client programs on full-replication broadcast memory.
        let system = LinearSystem::random(4, 15);
        let cfg = SolverSimConfig {
            workers: 4,
            phases: 40,
            ..SolverSimConfig::default()
        };
        let run = run_broadcast_solver_sim(&system, &cfg);
        assert!(run.all_done, "stuck: {run:?}");
        let reference = system.solve_jacobi(40);
        for (got, want) in run.x.iter().zip(&reference) {
            assert!(
                (got - want).abs() < 1e-9,
                "broadcast {got} vs reference {want}"
            );
        }
    }

    #[test]
    fn broadcast_costs_more_than_causal_at_scale() {
        let n = 6;
        let system = LinearSystem::random(n, 16);
        let cfg = |phases| SolverSimConfig {
            workers: n,
            phases,
            ..SolverSimConfig::default()
        };
        let causal = run_causal_solver_sim(&system, &cfg(8)).messages.total()
            - run_causal_solver_sim(&system, &cfg(4)).messages.total();
        let broadcast = run_broadcast_solver_sim(&system, &cfg(8)).messages.total()
            - run_broadcast_solver_sim(&system, &cfg(4)).messages.total();
        assert!(
            broadcast > causal,
            "full replication ({broadcast}) should cost more than the owner \
             protocol ({causal}) per steady-state phase"
        );
    }

    #[test]
    fn causal_message_count_matches_the_papers_formula() {
        // Paper §4.1: 2n + 6 messages per processor per iteration on
        // causal memory, under ideal signaling. Measure steady state by
        // differencing two run lengths.
        let n = 4;
        let system = LinearSystem::random(n, 13);
        let runs = |phases: usize| {
            let cfg = SolverSimConfig {
                workers: n,
                phases,
                ..SolverSimConfig::default()
            };
            run_causal_solver_sim(&system, &cfg).messages.total()
        };
        let (short, long) = (runs(4), runs(8));
        let per_phase = (long - short) as f64 / 4.0;
        let per_worker_per_phase = per_phase / n as f64;
        let expected = (2 * n + 6) as f64;
        assert!(
            (per_worker_per_phase - expected).abs() < 1e-9,
            "measured {per_worker_per_phase}, paper says {expected}"
        );
    }

    #[test]
    fn atomic_solver_costs_at_least_3n_plus_5() {
        let n = 4;
        let system = LinearSystem::random(n, 14);
        let runs = |phases: usize| {
            let cfg = SolverSimConfig {
                workers: n,
                phases,
                ..SolverSimConfig::default()
            };
            run_atomic_solver_sim(&system, &cfg, InvalMode::FireAndForget)
                .messages
                .total()
        };
        let (short, long) = (runs(4), runs(8));
        let per_worker_per_phase = (long - short) as f64 / 4.0 / n as f64;
        let bound = (3 * n + 5) as f64;
        assert!(
            per_worker_per_phase >= bound - 1e-9,
            "measured {per_worker_per_phase}, paper bound {bound}"
        );
        // And causal strictly beats atomic.
        let causal = {
            let cfg = SolverSimConfig {
                workers: n,
                phases: 8,
                ..SolverSimConfig::default()
            };
            run_causal_solver_sim(&system, &cfg).messages.total()
        };
        assert!(causal < long);
    }
}
