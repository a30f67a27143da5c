//! Regenerates every figure and analysis from the paper's evaluation.
//!
//! ```text
//! cargo run -p dsm-bench --bin repro            # everything
//! cargo run -p dsm-bench --bin repro -- fig2    # one experiment
//! ```
//!
//! Sections: `fig1 fig2 fig3 modes fig5 solver latency dictionary ablations
//! chaos costs dot` (`all`, or no argument, runs every one). An unknown
//! name is an error: nothing runs, and the exit status is 2.

use dsm_bench::{
    latency_sweep, render_ablations, render_chaos, render_costs, render_dictionary, render_figure1,
    render_figure2, render_figure3, render_figure5, render_latency_sweep, render_notice_modes,
    render_solver_table, solver_table, write_figure_dots,
};

/// Every section, in the order they print.
const SECTIONS: &str =
    "fig1 fig2 fig3 modes fig5 solver latency dictionary ablations chaos costs dot";

fn section(title: &str, body: &str) {
    println!(
        "== {title} {}",
        "=".repeat(72usize.saturating_sub(title.len()))
    );
    println!("{body}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let unknown: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| *a != "all" && !SECTIONS.split(' ').any(|s| s == *a))
        .collect();
    if !unknown.is_empty() {
        eprintln!(
            "repro: unknown section {}; valid sections: {} (or all)",
            unknown.join(" "),
            SECTIONS
        );
        std::process::exit(2);
    }
    let want = |name: &str| args.is_empty() || args.iter().any(|a| a == name || a == "all");

    println!(
        "Reproduction of \"Implementing and Programming Causal Distributed \
         Shared Memory\" (Hutto, Ahamad, John — ICDCS 1991)\n"
    );

    if want("fig1") {
        section("E1: Figure 1 — causal relations", &render_figure1());
    }
    if want("fig2") {
        section("E2: Figure 2 — live sets α(o)", &render_figure2());
    }
    if want("fig3") {
        section(
            "E3: Figure 3 — causal broadcasting is not causal memory",
            &render_figure3(),
        );
    }
    if want("modes") {
        section(
            "E2b: strict vs plain causal memory (the paper's footnote)",
            &render_notice_modes(),
        );
    }
    if want("fig5") {
        section(
            "E5: Figure 5 — a weakly consistent execution of the owner protocol",
            &render_figure5(),
        );
    }
    if want("solver") {
        let rows = solver_table(&[3, 4, 6, 8, 12, 16]);
        section(
            "E6/E7: §4.1 solver — messages per processor per iteration",
            &render_solver_table(&rows),
        );
        println!(
            "   (E4, the Figure-4 protocol itself, is exercised by every run above and\n\
             \x20   by the property suites: all recorded executions satisfy Definition 2.)\n"
        );
    }
    if want("latency") {
        let rows = latency_sweep(4, 6, &[1, 5, 10, 50, 100]);
        section(
            "P1: simulated makespan of a 6-phase solve (n=4) vs link latency",
            &render_latency_sweep(&rows),
        );
    }
    if want("dictionary") {
        section(
            "E8: §4.2 dictionary — concurrent delete vs re-insert",
            &render_dictionary(),
        );
    }
    if want("ablations") {
        section("A1–A4: ablations", &render_ablations());
    }
    if want("chaos") {
        section(
            "F1: fault tolerance — session-layer overhead under chaos",
            &render_chaos(0, 20),
        );
    }
    if want("costs") {
        section(
            "P2: operation costs and causality-metadata overhead",
            &render_costs(),
        );
    }
    if want("dot") {
        let dir = std::path::Path::new("target/repro-dots");
        match write_figure_dots(dir) {
            Ok(paths) => {
                println!("== DOT renderings {}", "=".repeat(58));
                for path in paths {
                    println!("  wrote {}", path.display());
                }
                println!();
            }
            Err(err) => eprintln!("failed to write DOT files: {err}"),
        }
    }
}
