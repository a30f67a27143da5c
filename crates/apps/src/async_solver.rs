//! The asynchronous solver variant (§4.1, last paragraph).
//!
//! "It is possible to eliminate the synchronization entirely by using an
//! *asynchronous* algorithm": workers iterate freely, each round reading
//! whatever vector values are available (refreshing its cache with
//! `discard`) and writing its own component, with no handshakes and no
//! coordinator. For strictly diagonally dominant systems this chaotic
//! relaxation still converges (Chazan–Miranker), and on causal memory it
//! costs `2(n−1)` messages per worker per round — strictly less than the
//! synchronous solver's `2n + 6`.

use std::sync::Arc;

use causal_dsm::CausalConfig;
use dsm_sim::{causal_sim, Client, ClientOp, Outcome, RunLimits, SimDriver, SimOpts};
use memcore::{Location, MemoryError, SharedMemory, StatsSnapshot, Word};
use simnet::latency::Constant;

use crate::system::LinearSystem;

/// The async solver's layout: just the vector, `x_i` at location `i`
/// owned by `P_i` (round-robin with `n` nodes does exactly that).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AsyncLayout {
    n: usize,
}

impl AsyncLayout {
    /// Layout for `n` workers.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "solver needs at least two workers");
        AsyncLayout { n }
    }

    /// Number of workers.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.n
    }

    /// Location of `x_i`.
    #[must_use]
    pub fn x(&self, i: usize) -> Location {
        Location::new(i as u32)
    }
}

/// Runs one asynchronous worker on any shared memory (blocking; one
/// thread per worker). Returns its final component value.
///
/// # Errors
///
/// Propagates memory errors.
///
/// # Panics
///
/// Panics if the memory returns a non-float.
pub fn run_async_worker<M: SharedMemory<Word>>(
    mem: &M,
    layout: &AsyncLayout,
    system: &Arc<LinearSystem>,
    i: usize,
    rounds: usize,
) -> Result<f64, MemoryError> {
    let n = layout.workers();
    let mut x = vec![0.0; n];
    let mut t_i = 0.0;
    for _ in 0..rounds {
        for (j, slot) in x.iter_mut().enumerate() {
            let w = if j == i {
                mem.read(layout.x(j))?
            } else {
                // No handshake invalidates our cache; refresh explicitly.
                mem.read_fresh(layout.x(j))?
            };
            *slot = w.as_float().expect("solver locations hold floats");
        }
        t_i = system.jacobi_step(i, &x);
        mem.write(layout.x(i), Word::Float(t_i))?;
    }
    Ok(t_i)
}

enum AStep {
    ReadX { j: usize },
    WriteX,
    Done,
}

/// One asynchronous worker as a simulator client.
pub struct AsyncWorker {
    layout: AsyncLayout,
    system: Arc<LinearSystem>,
    i: usize,
    rounds_left: usize,
    step: AStep,
    x: Vec<f64>,
}

impl AsyncWorker {
    /// Worker `i` running `rounds` chaotic-relaxation rounds.
    #[must_use]
    pub fn new(layout: AsyncLayout, system: Arc<LinearSystem>, i: usize, rounds: usize) -> Self {
        let n = layout.workers();
        AsyncWorker {
            layout,
            system,
            i,
            rounds_left: rounds,
            step: AStep::ReadX { j: 0 },
            x: vec![0.0; n],
        }
    }
}

impl Client<Word> for AsyncWorker {
    fn next(&mut self, last: Option<&Outcome<Word>>) -> Option<ClientOp<Word>> {
        let n = self.layout.workers();
        loop {
            match self.step {
                AStep::ReadX { j } => {
                    if let Some(prev) = j.checked_sub(1) {
                        self.x[prev] = match last {
                            Some(Outcome::Read { value, .. }) => value.as_float().expect("floats"),
                            other => panic!("expected read outcome, got {other:?}"),
                        };
                    }
                    if j < n {
                        self.step = AStep::ReadX { j: j + 1 };
                        return Some(if j == self.i {
                            ClientOp::Read(self.layout.x(j))
                        } else {
                            ClientOp::ReadFresh(self.layout.x(j))
                        });
                    }
                    self.step = AStep::WriteX;
                }
                AStep::WriteX => {
                    let t_i = self.system.jacobi_step(self.i, &self.x);
                    self.rounds_left -= 1;
                    self.step = if self.rounds_left == 0 {
                        AStep::Done
                    } else {
                        AStep::ReadX { j: 0 }
                    };
                    return Some(ClientOp::Write(self.layout.x(self.i), Word::Float(t_i)));
                }
                AStep::Done => return None,
            }
        }
    }
}

/// The outcome of a simulated asynchronous solve.
#[derive(Clone, Debug)]
pub struct AsyncRun {
    /// All protocol messages.
    pub messages: StatsSnapshot,
    /// The final vector.
    pub x: Vec<f64>,
    /// `‖Ax − b‖∞` of the final vector.
    pub residual: f64,
    /// Simulated makespan.
    pub time: u64,
    /// Whether every worker finished its rounds.
    pub all_done: bool,
}

/// Runs the asynchronous solver on the simulated causal DSM.
#[must_use]
pub fn run_async_solver_sim(
    system: &LinearSystem,
    workers: usize,
    rounds: usize,
    latency: u64,
    seed: u64,
) -> AsyncRun {
    let layout = AsyncLayout::new(workers);
    let config = CausalConfig::<Word>::builder(workers as u32, workers as u32).build();
    let mut sim = causal_sim(
        &config,
        SimOpts {
            latency: Box::new(Constant::new(latency)),
            seed,
            ..SimOpts::default()
        },
    );
    let system_arc = Arc::new(system.clone());
    for i in 0..workers {
        sim.set_client(
            i,
            AsyncWorker::new(layout, Arc::clone(&system_arc), i, rounds),
        );
    }
    let report = sim.run(RunLimits::default());
    let x: Vec<f64> = (0..workers)
        .map(|i| {
            sim.driver(i)
                .peek(layout.x(i))
                .and_then(Word::as_float)
                .unwrap_or(f64::NAN)
        })
        .collect();
    AsyncRun {
        messages: sim.messages().snapshot(),
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
    fn async_solver_converges_without_synchronization() {
        let system = LinearSystem::random(4, 21);
        let run = run_async_solver_sim(&system, 4, 60, 1, 0);
        assert!(run.all_done);
        assert!(
            run.residual < 1e-6,
            "residual {} after 60 chaotic rounds",
            run.residual
        );
    }

    #[test]
    fn async_costs_exactly_2n_minus_2_per_worker_per_round() {
        let n = 5;
        let system = LinearSystem::random(n, 22);
        let short = run_async_solver_sim(&system, n, 4, 1, 0).messages.total();
        let long = run_async_solver_sim(&system, n, 8, 1, 0).messages.total();
        let per_worker_per_round = (long - short) as f64 / 4.0 / n as f64;
        assert!(
            (per_worker_per_round - (2 * n - 2) as f64).abs() < 1e-9,
            "measured {per_worker_per_round}"
        );
    }

    #[test]
    fn async_beats_synchronous_on_messages() {
        use crate::solver_sim::{run_causal_solver_sim, SolverSimConfig};
        let n = 4;
        let system = LinearSystem::random(n, 23);
        let rounds = 10;
        let sync_run = run_causal_solver_sim(
            &system,
            &SolverSimConfig {
                workers: n,
                phases: rounds,
                ..SolverSimConfig::default()
            },
        );
        let async_run = run_async_solver_sim(&system, n, rounds, 1, 0);
        assert!(async_run.messages.total() < sync_run.messages.total());
    }

    #[test]
    fn run_async_worker_threaded_single_round() {
        // Smoke-test the blocking variant on the threaded causal engine.
        use causal_dsm::CausalCluster;
        let n = 3;
        let system = Arc::new(LinearSystem::random(n, 24));
        let layout = AsyncLayout::new(n);
        let cluster = CausalCluster::<Word>::builder(n as u32, n as u32)
            .build()
            .unwrap();
        // Nothing makes free-running workers interleave — one thread can
        // finish all its rounds before the others start, and then nothing
        // converges — so the workers meet at a barrier every few rounds.
        // Each phase then reads values no older than the previous phase's
        // last writes and contracts the error (by ≤ 2/3: the system is
        // diagonally dominant with margin) whatever the scheduler does;
        // the workers stop at the tolerance. Nobody writes between a
        // phase's closing barrier and the next one's opening barrier, so
        // all of them see the same `x` there and stop together.
        let barrier = Arc::new(std::sync::Barrier::new(n));
        let mut threads = Vec::new();
        for i in 0..n {
            let mem = cluster.handle(i as u32);
            let system = Arc::clone(&system);
            let barrier = Arc::clone(&barrier);
            threads.push(std::thread::spawn(move || {
                for _phase in 0..64 {
                    barrier.wait();
                    run_async_worker(&mem, &layout, &system, i, 3).unwrap();
                    barrier.wait();
                    let x: Vec<f64> = (0..n)
                        .map(|j| mem.read_fresh(layout.x(j)).unwrap().as_float().unwrap())
                        .collect();
                    if system.residual(&x) < 1e-6 {
                        return;
                    }
                }
                panic!("worker {i}: no convergence in 64 phases");
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        let x: Vec<f64> = (0..n)
            .map(|i| {
                cluster
                    .handle(i as u32)
                    .read(layout.x(i))
                    .unwrap()
                    .as_float()
                    .unwrap()
            })
            .collect();
        assert!(
            system.residual(&x) < 1e-6,
            "residual {}",
            system.residual(&x)
        );
    }
}
