//! Figure 8 / Theorem 4: the grid that fools greedy. Measures the
//! greedy/optimum ratio growth in the oneshot model (scaling with k′ and
//! ℓ), verifies the misguided column order is actually followed, and
//! shows the constant-factor (but tunable) gaps in nodel/compcost and the
//! H2C-restored gap in base.

use crate::report::Table;
use rbp_core::{engine, CostModel, Instance, ModelKind};
use rbp_gadgets::grid::{self, GridConfig};
use rbp_solvers::api::{GreedySolver, Solver};
use rbp_solvers::{EvictionPolicy, GreedyConfig, SelectionRule};
use std::path::Path;

fn greedy_cfg() -> GreedyConfig {
    GreedyConfig {
        rule: SelectionRule::MostRedInputs,
        eviction: EvictionPolicy::MinUses,
    }
}

/// Regenerates the Figure-8 / Theorem-4 experiment.
pub fn run(out: &Path) {
    // --- oneshot: ratio grows with k' and ell ---
    let mut t = Table::new(
        "Fig. 8 / Thm 4 — greedy vs optimal on the grid (oneshot)",
        &[
            "ell",
            "k'",
            "n",
            "greedy",
            "diagonal-opt",
            "ratio",
            "trapped",
        ],
    );
    for (ell, kp) in [
        (3usize, 8usize),
        (3, 16),
        (3, 32),
        (3, 64),
        (4, 16),
        (5, 16),
        (6, 16),
    ] {
        let g = grid::build(GridConfig {
            ell,
            k_prime: kp,
            mis: 2,
        });
        let inst = g.instance(CostModel::oneshot());
        let rep = GreedySolver::with_config(greedy_cfg())
            .solve_default(&inst)
            .expect("feasible");
        let visits = g.decode_visits(&rep.trace.first_computations());
        let trapped = visits == g.greedy_order();
        let opt_trace = g
            .grouped
            .emit(&inst, &g.optimal_order())
            .expect("valid order");
        let opt = engine::simulate(&inst, &opt_trace).expect("valid");
        let ratio = rep.cost.transfers as f64 / opt.cost.transfers.max(1) as f64;
        t.row_strings(vec![
            ell.to_string(),
            kp.to_string(),
            g.dag.n().to_string(),
            rep.cost.transfers.to_string(),
            opt.cost.transfers.to_string(),
            format!("{ratio:.2}"),
            trapped.to_string(),
        ]);
        assert!(
            trapped,
            "greedy escaped the misguidance at ell={ell}, k'={kp}"
        );
    }
    t.print();
    t.write_csv(out, "fig8").expect("write csv");

    // --- nodel / compcost: constant-factor, tunable via k' (App. A.4) ---
    let mut t2 = Table::new(
        "Fig. 8 — nodel/compcost variants: constant-factor gaps (App. A.4)",
        &[
            "model",
            "ell",
            "k'",
            "greedy (scaled)",
            "diagonal (scaled)",
            "ratio",
        ],
    );
    for kind in [ModelKind::NoDel, ModelKind::CompCost] {
        let model = CostModel::of_kind(kind);
        for ell in [3usize, 4, 5] {
            let g = grid::build(GridConfig::constant_k(ell));
            let inst = g.instance(model);
            let rep = GreedySolver::with_config(greedy_cfg())
                .solve_default(&inst)
                .expect("feasible");
            let opt_trace = g.grouped.emit(&inst, &g.optimal_order()).expect("valid");
            let opt = engine::simulate(&inst, &opt_trace).expect("valid");
            let (gs, os) = (
                rep.cost.scaled(model.epsilon()),
                opt.cost.scaled(model.epsilon()),
            );
            t2.row_strings(vec![
                kind.to_string(),
                ell.to_string(),
                g.k_prime.to_string(),
                gs.to_string(),
                os.to_string(),
                format!("{:.2}", gs as f64 / os.max(1) as f64),
            ]);
        }
    }
    t2.print();
    t2.write_csv(out, "fig8_constmodels").expect("write csv");

    // --- base: the plain grid is free (recomputation); H2C restores it ---
    let g = grid::build(GridConfig {
        ell: 3,
        k_prime: 8,
        mis: 2,
    });
    let base = g.instance(CostModel::base());
    let opt_trace = g.grouped.emit(&base, &g.optimal_order()).expect("valid");
    let opt = engine::simulate(&base, &opt_trace).expect("valid");
    println!(
        "  base sanity: plain grid optimal transfers = {} (recomputation collapses the cost —",
        opt.cost.transfers
    );
    println!("  the paper adds H2C to every source there; see Appendix A.4 and rbp-gadgets::h2c)");

    // H2C-restored base gap, at visit-order level (clever-greedy
    // interpretation of Appendix A.4: greedy ordering of first
    // computations, acquisition via oracle-cheapest moves). A larger grid
    // is needed here: the one-time H2C cost of the sources (Θ(ℓk'))
    // dilutes the Θ(ℓ²k') column-order toll — the very effect that drops
    // the base-model gap to Θ(n^{1/3}) in the paper.
    let g = grid::build(GridConfig {
        ell: 6,
        k_prime: 8,
        mis: 2,
    });
    let inst = g.instance(CostModel::base());
    let aug = rbp_gadgets::h2c::attach(
        &inst.dag().clone(),
        rbp_gadgets::h2c::H2cConfig::standard(g.r),
    );
    let aug_inst = Instance::new(aug.dag.clone(), g.r, CostModel::base());
    let (mut greedy_trace, state) = aug.prologue_trace(&aug_inst).expect("prologue");
    let mut st_g = state.clone();
    let mut tail = rbp_core::Pebbling::new();
    g.grouped
        .emit_onto(&aug_inst, &g.greedy_order(), &mut st_g, &mut tail)
        .expect("greedy order valid");
    greedy_trace.extend(&tail);
    let greedy_cost = engine::simulate(&aug_inst, &greedy_trace)
        .expect("valid")
        .cost;

    let (mut opt_trace2, state2) = aug.prologue_trace(&aug_inst).expect("prologue");
    let mut st_o = state2.clone();
    let mut tail2 = rbp_core::Pebbling::new();
    g.grouped
        .emit_onto(&aug_inst, &g.optimal_order(), &mut st_o, &mut tail2)
        .expect("optimal order valid");
    opt_trace2.extend(&tail2);
    let opt_cost = engine::simulate(&aug_inst, &opt_trace2)
        .expect("valid")
        .cost;
    println!(
        "  base + H2C: greedy-order {} vs diagonal-order {} transfers (ratio {:.2})",
        greedy_cost.transfers,
        opt_cost.transfers,
        greedy_cost.transfers as f64 / opt_cost.transfers.max(1) as f64
    );
}

#[cfg(test)]
mod tests {
    #[test]
    fn fig8_runs() {
        let dir = std::env::temp_dir().join("rbp_fig8_test");
        super::run(&dir);
        assert!(dir.join("fig8.csv").exists());
        assert!(dir.join("fig8_constmodels.csv").exists());
    }
}
