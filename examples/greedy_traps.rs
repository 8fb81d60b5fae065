//! Theorem 4 live: the grid construction that fools every natural greedy
//! heuristic (Figure 8). The node-level greedy solver walks straight into
//! the misguidance — columns right-to-left — paying the 2k′ commons toll
//! per group, while the diagonal schedule computes each diagonal's
//! commons once.
//!
//! Run with: `cargo run --release --example greedy_traps`

use red_blue_pebbling::gadgets::grid::{self, GridConfig};
use red_blue_pebbling::prelude::*;

fn main() {
    println!(
        "{:>3} {:>6} {:>8} | {:>8} {:>9} | {:>6}",
        "ℓ", "k'", "nodes", "greedy", "diagonal", "ratio"
    );
    println!("{}", "-".repeat(52));
    for (ell, k_prime) in [(3usize, 8usize), (3, 16), (3, 32), (4, 16), (5, 16)] {
        let g = grid::build(GridConfig {
            ell,
            k_prime,
            mis: 2,
        });
        let inst = g.instance(CostModel::oneshot());
        let rep = GreedySolver::with_config(GreedyConfig {
            rule: SelectionRule::MostRedInputs,
            eviction: EvictionPolicy::MinUses,
        })
        .solve_default(&inst)
        .expect("feasible");
        // verify the trap actually sprang
        let visits = g.decode_visits(&rep.trace.first_computations());
        assert_eq!(visits, g.greedy_order(), "greedy escaped the misguidance");

        let opt_trace = g
            .grouped
            .emit(&inst, &g.optimal_order())
            .expect("diagonal order is valid");
        let opt = engine::simulate(&inst, &opt_trace).expect("valid trace");
        let ratio = rep.cost.transfers as f64 / opt.cost.transfers.max(1) as f64;
        println!(
            "{ell:>3} {k_prime:>6} {:>8} | {:>8} {:>9} | {ratio:>6.2}",
            g.dag.n(),
            rep.cost.transfers,
            opt.cost.transfers,
        );
    }
    println!();
    println!("the ratio grows with k' (per-diagonal commons), exactly the");
    println!("Θ̃(√n)-to-Θ̃(n) separation of Theorem 4.");
}
