//! The benchmark and reproduction harness: regenerates every figure and
//! quantitative analysis from the paper's evaluation (see `DESIGN.md`'s
//! experiment index) plus the A1–A4 ablations.
//!
//! Run `cargo run -p dsm-bench --bin repro` for the full report (every
//! message table: the solver, the ablations, the dictionary), and
//! `perf` for the gated in-process cells ([`hotpath`]). End-to-end
//! wall-clock of the causal memory, and vector-clock cost, live in the
//! standalone `benchmark/` package. Threaded wall-clock of the atomic and
//! broadcast comparators is not measured.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ablations;
mod costs;
mod experiments;
mod faults_report;
mod figures;
pub mod hotpath;

pub use ablations::{
    ack_mode_ablation, const_segments_ablation, invalidation_mode_ablation, page_size_ablation,
    render_ablations, run_causal_workload, wait_mode_ablation, WorkloadRun,
};
pub use costs::{
    barrier_costs, dictionary_costs, metadata_overhead, render_costs, BarrierRow, DictCosts,
    OverheadRow,
};
pub use experiments::{
    latency_sweep, render_latency_sweep, render_solver_table, solver_row, solver_table, LatencyRow,
    SolverRow,
};
pub use faults_report::{chaos_overhead, render_chaos, ChaosRow};
pub use figures::{
    render_dictionary, render_figure1, render_figure2, render_figure3, render_figure5,
    render_notice_modes, write_figure_dots,
};
