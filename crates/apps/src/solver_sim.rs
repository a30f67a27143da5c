//! The Figure-6 solver as simulator client programs — the E6 message-count
//! experiment.
//!
//! Workers and coordinator are expressed as resumable state machines for
//! the deterministic simulator, which counts every protocol message. The
//! same clients run against the causal and the atomic protocol; the
//! harness reports messages per processor per phase next to the paper's
//! analytic `2n + 6` and `≥ 3n + 5`.

use std::sync::Arc;

use atomic_dsm::{AtomicConfig, InvalMode};
use causal_dsm::CausalConfig;
use dsm_sim::{
    atomic_sim, causal_sim, Client, ClientOp, Outcome, RunLimits, SimDriver, SimOpts, WaitMode,
};
use memcore::{StatsSnapshot, Word};
use simnet::latency::Constant;

use crate::solver::SolverLayout;
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

enum WStep {
    WaitReady,
    LoadA { j: usize },
    LoadB,
    ReadX { j: usize },
    SetComplete,
    WaitCompleteF,
    WriteX,
    SetChanged,
    WaitChangedF,
    Done,
}

/// Worker `P_i` of Figure 6, as a simulator client.
pub struct SolverWorker {
    layout: SolverLayout,
    i: usize,
    phases_left: usize,
    step: WStep,
    a_row: Vec<f64>,
    b_i: f64,
    x: Vec<f64>,
    t_i: f64,
}

impl SolverWorker {
    /// Worker `i` running `phases` iterations.
    #[must_use]
    pub fn new(layout: SolverLayout, i: usize, phases: usize) -> Self {
        let n = layout.workers();
        SolverWorker {
            layout,
            i,
            phases_left: phases,
            step: WStep::WaitReady,
            a_row: vec![0.0; n],
            b_i: 0.0,
            x: vec![0.0; n],
            t_i: 0.0,
        }
    }

    fn float_of(last: Option<&Outcome<Word>>) -> f64 {
        match last {
            Some(Outcome::Read { value, .. }) => {
                value.as_float().expect("solver locations hold floats")
            }
            other => panic!("expected read outcome, got {other:?}"),
        }
    }
}

impl Client<Word> for SolverWorker {
    fn next(&mut self, last: Option<&Outcome<Word>>) -> Option<ClientOp<Word>> {
        let n = self.layout.workers();
        loop {
            match self.step {
                WStep::WaitReady => {
                    self.step = WStep::LoadA { j: 0 };
                    return Some(ClientOp::wait_until(self.layout.ready(), |v: &Word| {
                        v.as_bool() == Some(true)
                    }));
                }
                // A and b are read from shared memory every phase, as the
                // program's update rule requires; with the pages marked
                // constant these are cache hits after the first phase
                // (footnote 2), otherwise they are re-fetched (ablation
                // A3).
                WStep::LoadA { j } => {
                    if let Some(prev) = j.checked_sub(1) {
                        self.a_row[prev] = Self::float_of(last);
                    }
                    if j < n {
                        self.step = WStep::LoadA { j: j + 1 };
                        return Some(ClientOp::Read(self.layout.a(self.i, j)));
                    }
                    self.step = WStep::LoadB;
                    return Some(ClientOp::Read(self.layout.b(self.i)));
                }
                WStep::LoadB => {
                    self.b_i = Self::float_of(last);
                    if self.phases_left == 0 {
                        self.step = WStep::Done;
                        continue;
                    }
                    self.step = WStep::ReadX { j: 0 };
                }
                WStep::ReadX { j } => {
                    if let Some(prev) = j.checked_sub(1) {
                        self.x[prev] = Self::float_of(last);
                    }
                    if j < n {
                        self.step = WStep::ReadX { j: j + 1 };
                        return Some(ClientOp::Read(self.layout.x(j)));
                    }
                    // Compute t_i = (b_i − Σ_{j≠i} a_ij x_j) / a_ii.
                    let mut sum = self.b_i;
                    for (j, (&a, &xv)) in self.a_row.iter().zip(&self.x).enumerate() {
                        if j != self.i {
                            sum -= a * xv;
                        }
                    }
                    self.t_i = sum / self.a_row[self.i];
                    self.step = WStep::SetComplete;
                }
                WStep::SetComplete => {
                    self.step = WStep::WaitCompleteF;
                    return Some(ClientOp::Write(
                        self.layout.complete(self.i),
                        Word::Bool(true),
                    ));
                }
                WStep::WaitCompleteF => {
                    self.step = WStep::WriteX;
                    return Some(ClientOp::wait_until(
                        self.layout.complete(self.i),
                        |v: &Word| v.as_bool() == Some(false),
                    ));
                }
                WStep::WriteX => {
                    self.step = WStep::SetChanged;
                    return Some(ClientOp::Write(
                        self.layout.x(self.i),
                        Word::Float(self.t_i),
                    ));
                }
                WStep::SetChanged => {
                    self.step = WStep::WaitChangedF;
                    return Some(ClientOp::Write(
                        self.layout.changed(self.i),
                        Word::Bool(true),
                    ));
                }
                WStep::WaitChangedF => {
                    self.phases_left -= 1;
                    self.step = if self.phases_left == 0 {
                        WStep::Done
                    } else {
                        // Next phase re-reads A and b (hits when const).
                        WStep::LoadA { j: 0 }
                    };
                    return Some(ClientOp::wait_until(
                        self.layout.changed(self.i),
                        |v: &Word| v.as_bool() == Some(false),
                    ));
                }
                WStep::Done => return None,
            }
        }
    }
}

enum CStep {
    Publish { idx: usize },
    SetReady,
    WaitComplete { i: usize },
    ResetComplete { i: usize },
    WaitChanged { i: usize },
    ResetChanged { i: usize },
}

/// The coordinator of Figure 6, as a simulator client. Also publishes `A`
/// and `b` (which it owns) before the first phase.
pub struct SolverCoordinator {
    layout: SolverLayout,
    system: Arc<LinearSystem>,
    phases_left: usize,
    step: CStep,
    ready_written: bool,
}

impl SolverCoordinator {
    /// A coordinator for `phases` iterations of `system`.
    #[must_use]
    pub fn new(layout: SolverLayout, system: Arc<LinearSystem>, phases: usize) -> Self {
        SolverCoordinator {
            layout,
            system,
            phases_left: phases,
            step: CStep::Publish { idx: 0 },
            ready_written: false,
        }
    }

    fn publish_op(&self, idx: usize) -> Option<ClientOp<Word>> {
        let n = self.layout.workers();
        if idx < n * n {
            let (i, j) = (idx / n, idx % n);
            Some(ClientOp::Write(
                self.layout.a(i, j),
                Word::Float(self.system.a(i, j)),
            ))
        } else if idx < n * n + n {
            let i = idx - n * n;
            Some(ClientOp::Write(
                self.layout.b(i),
                Word::Float(self.system.b(i)),
            ))
        } else {
            None
        }
    }
}

impl Client<Word> for SolverCoordinator {
    fn next(&mut self, _last: Option<&Outcome<Word>>) -> Option<ClientOp<Word>> {
        let n = self.layout.workers();
        loop {
            match self.step {
                CStep::Publish { idx } => {
                    if let Some(op) = self.publish_op(idx) {
                        self.step = CStep::Publish { idx: idx + 1 };
                        return Some(op);
                    }
                    if !self.ready_written {
                        self.step = CStep::SetReady;
                        continue;
                    }
                    if self.phases_left == 0 {
                        return None;
                    }
                    self.step = CStep::WaitComplete { i: 0 };
                }
                CStep::SetReady => {
                    self.ready_written = true;
                    self.step = if self.phases_left == 0 {
                        CStep::Publish { idx: usize::MAX }
                    } else {
                        CStep::WaitComplete { i: 0 }
                    };
                    return Some(ClientOp::Write(self.layout.ready(), Word::Bool(true)));
                }
                CStep::WaitComplete { i } => {
                    if i < n {
                        self.step = CStep::WaitComplete { i: i + 1 };
                        return Some(ClientOp::wait_until(self.layout.complete(i), |v: &Word| {
                            v.as_bool() == Some(true)
                        }));
                    }
                    self.step = CStep::ResetComplete { i: 0 };
                }
                CStep::ResetComplete { i } => {
                    if i < n {
                        self.step = CStep::ResetComplete { i: i + 1 };
                        return Some(ClientOp::Write(self.layout.complete(i), Word::Bool(false)));
                    }
                    self.step = CStep::WaitChanged { i: 0 };
                }
                CStep::WaitChanged { i } => {
                    if i < n {
                        self.step = CStep::WaitChanged { i: i + 1 };
                        return Some(ClientOp::wait_until(self.layout.changed(i), |v: &Word| {
                            v.as_bool() == Some(true)
                        }));
                    }
                    self.step = CStep::ResetChanged { i: 0 };
                }
                CStep::ResetChanged { i } => {
                    if i < n {
                        self.step = CStep::ResetChanged { i: i + 1 };
                        return Some(ClientOp::Write(self.layout.changed(i), Word::Bool(false)));
                    }
                    self.phases_left -= 1;
                    self.step = CStep::Publish {
                        idx: usize::MAX, // exhausted: falls through to the
                                         // next phase or termination
                    };
                }
            }
        }
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
    let mut sim = causal_sim(
        &config,
        SimOpts {
            latency: Box::new(Constant::new(cfg.latency)),
            seed: cfg.seed,
            wait_mode: cfg.wait_mode,
            recorder: None,
            faults: None,
        },
    );
    install_clients(&mut sim, &layout, system, cfg);
    finish(sim, &layout, system)
}

/// Runs the synchronous solver on the simulated **causal-broadcast**
/// replica memory — the full-replication comparator. The same client
/// programs run unchanged: reads are local (causal delivery guarantees
/// each phase's vector updates arrive before the handshake that releases
/// the next phase), but every write costs `n` update messages.
#[must_use]
pub fn run_broadcast_solver_sim(system: &LinearSystem, cfg: &SolverSimConfig) -> SolverRun {
    let layout = SolverLayout::new(cfg.workers);
    let mut sim = dsm_sim::broadcast_sim::<Word>(
        layout.nodes(),
        layout.locations(),
        SimOpts {
            latency: Box::new(Constant::new(cfg.latency)),
            seed: cfg.seed,
            wait_mode: cfg.wait_mode,
            recorder: None,
            faults: None,
        },
    );
    install_clients(&mut sim, &layout, system, cfg);
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
    let mut sim = atomic_sim(
        &config,
        SimOpts {
            latency: Box::new(Constant::new(cfg.latency)),
            seed: cfg.seed,
            wait_mode: cfg.wait_mode,
            recorder: None,
            faults: None,
        },
    );
    install_clients(&mut sim, &layout, system, cfg);
    finish(sim, &layout, system)
}

fn install_clients<D: SimDriver<Value = Word>>(
    sim: &mut dsm_sim::Sim<D>,
    layout: &SolverLayout,
    system: &LinearSystem,
    cfg: &SolverSimConfig,
) {
    let system = Arc::new(system.clone());
    for i in 0..layout.workers() {
        sim.set_client(i, SolverWorker::new(*layout, i, cfg.phases));
    }
    sim.set_client(
        layout.workers(),
        SolverCoordinator::new(*layout, system, cfg.phases),
    );
}

fn finish<D: SimDriver<Value = Word>>(
    mut sim: dsm_sim::Sim<D>,
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
