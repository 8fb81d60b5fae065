//! The unified solver API: spec strings, budgets, graceful degradation,
//! and a live progress observer.
//!
//! Every solver sits behind the `Solver` trait and a registry spec
//! (`"exact"`, `"exact@mpp:2"`, `"greedy:most-red-inputs/lru"`,
//! `"beam:256"`, `"portfolio"`), so selecting a solver is configuration,
//! not code. Budgets (deadline, expansion cap, cancellation flag) make
//! exact solves safe to run against hard instances: on expiry they
//! return their best incumbent as `Quality::UpperBound` instead of
//! failing.
//!
//! Run with: `cargo run --release --example solver_registry`

use red_blue_pebbling::prelude::*;
use red_blue_pebbling::workloads::stencil;
use std::time::Duration;

fn main() {
    // ---- spec-string dispatch over the heuristic ladder -------------
    let st = stencil::build(4, 2, 1);
    let inst = Instance::new(st.dag.clone(), 4, CostModel::oneshot());
    println!(
        "stencil 4x2: {} nodes at R = {}\n",
        st.dag.n(),
        inst.red_limit()
    );
    println!(
        "{:<32} {:>9} {:>10}  quality",
        "spec", "transfers", "expanded"
    );
    println!("{}", "-".repeat(68));
    for spec in [
        "greedy",
        "greedy:fewest-blue-inputs/lru",
        "beam:64",
        "portfolio",
        "exact",
    ] {
        let sol = registry::solve(spec, &inst).expect("feasible");
        println!(
            "{:<32} {:>9} {:>10}  {:?}",
            spec,
            sol.cost.transfers,
            sol.states_expanded().map_or("-".into(), |s| s.to_string()),
            sol.quality
        );
    }

    // ---- a budgeted exact solve with a progress observer ------------
    // the base model at tight R explodes the exact search; a deadline
    // turns that into "best incumbent found in 150 ms"
    let hard = Instance::new(stencil::build(5, 2, 1).dag.clone(), 4, CostModel::base());
    println!("\nbudgeted exact solve on stencil 5x2 / base (deadline 150 ms):");
    let observer = |p: &Progress| {
        println!(
            "  …{:>7} states expanded, {:>9} states/s, frontier {:>6}, incumbent {:?}",
            p.states_expanded, p.states_per_sec, p.frontier, p.incumbent
        );
    };
    let ctx = SolveCtx::with_progress(
        Budget::none().with_deadline(Duration::from_millis(150)),
        &observer,
    );
    let solver = registry::solver("exact").unwrap();
    let sol = solver.solve(&hard, &ctx).expect("degrades, never errors");
    match sol.quality {
        Quality::Optimal => println!("solved to optimality: {}", sol.cost),
        Quality::UpperBound { lower_bound } => println!(
            "deadline hit: incumbent cost {} (optimum is in [{}, {}] scaled)",
            sol.cost,
            lower_bound,
            sol.scaled_cost(&hard)
        ),
        Quality::Infeasible => unreachable!("instance is feasible"),
    }

    // the trace is valid either way — budgets never cost correctness
    let report = engine::simulate(&hard, &sol.trace).expect("validated trace");
    assert_eq!(report.cost, sol.cost);
    println!(
        "incumbent trace replays exactly ({} moves)",
        sol.trace.len()
    );
}
