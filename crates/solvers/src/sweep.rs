//! Parallel parameter sweeps: opt(R) tradeoff curves (Section 5) over
//! any [`Solver`].
//!
//! The per-R solves are independent, so [`sweep_r`] fans them out over
//! the shared work-queue pool ([`crate::pool`]): threads claim R-values
//! from an atomic next-index counter, so one expensive mid-range R
//! cannot serialize the rest of the sweep. Every search runs on its
//! calling thread, so any solver fits; [`ExactSolver::unseeded`][exact],
//! greedy and beam are spawn-free, while the *seeded* exact default may
//! escalate to a greedy portfolio that fans out over this same pool,
//! nesting fan-outs.
//!
//! Every [`SweepPoint`] carries the full [`Solution`] (cost, quality,
//! per-solver stats) plus wall-clock time, so tradeoff experiments can
//! plot cost *and* how hard each point was to obtain.
//!
//! [exact]: crate::api::ExactSolver

use crate::api::{Solution, SolveCtx, Solver};
use crate::error::SolveError;
use rbp_core::{Cost, Instance};
use std::time::Duration;

/// One point of a tradeoff curve.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// The red-pebble budget.
    pub r: usize,
    /// Result for this budget (a full [`Solution`], or the failure).
    pub result: Result<Solution, SolveError>,
    /// Wall-clock time spent solving this point.
    pub wall: Duration,
}

impl SweepPoint {
    /// The point's cost, when it solved.
    pub fn cost(&self) -> Option<Cost> {
        self.result.as_ref().ok().map(|s| s.cost)
    }

    /// States expanded to settle this point, when the solver reports it.
    pub fn states_expanded(&self) -> Option<u64> {
        self.result.as_ref().ok().and_then(|s| s.states_expanded())
    }
}

/// Solves `instance` at every R in `r_range` with `solver`, fanning the
/// points out over the work-queue pool, and returns them in
/// increasing-R order. Each point re-parameterizes the instance with R
/// (the DAG is shared, not copied) and solves with an unlimited budget;
/// use [`sweep_r_with`] to bound the whole sweep.
pub fn sweep_r(
    instance: &Instance,
    r_range: std::ops::RangeInclusive<usize>,
    solver: &dyn Solver,
) -> Vec<SweepPoint> {
    sweep_r_with(instance, r_range, solver, &SolveCtx::default())
}

/// [`sweep_r`] under a shared context: the budget (deadline,
/// cancellation) spans the *whole sweep*, so an expired deadline
/// degrades or stops every remaining point.
pub fn sweep_r_with(
    instance: &Instance,
    r_range: std::ops::RangeInclusive<usize>,
    solver: &dyn Solver,
    ctx: &SolveCtx,
) -> Vec<SweepPoint> {
    let rs: Vec<usize> = r_range.collect();
    crate::pool::run_indexed(rs.len(), |i| solve_point(instance, rs[i], solver, ctx))
}

fn solve_point(instance: &Instance, r: usize, solver: &dyn Solver, ctx: &SolveCtx) -> SweepPoint {
    let inst = instance.with_red_limit(r);
    let t0 = std::time::Instant::now();
    let result = solver.solve(&inst, ctx);
    SweepPoint {
        r,
        result,
        wall: t0.elapsed(),
    }
}

/// Verifies the Section-5 staircase property on a curve: opt is
/// non-increasing in R and each extra pebble saves at most 2n transfers
/// (`opt(R−1) ≤ opt(R) + 2n`). Returns the first violating pair, if any.
pub fn check_tradeoff_laws(instance: &Instance, points: &[SweepPoint]) -> Option<(usize, usize)> {
    // the slope law counts transfers, each priced `comm`
    let (comm, _) = instance.cost_scales();
    let slack = rbp_core::bounds::max_tradeoff_slope(instance) as u128 * comm as u128;
    for w in points.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        let (Ok(ca), Ok(cb)) = (&a.result, &b.result) else {
            continue;
        };
        let (sa, sb) = (ca.scaled_cost(instance), cb.scaled_cost(instance));
        // monotone: more pebbles never hurt
        if sb > sa {
            return Some((a.r, b.r));
        }
        // bounded slope (oneshot law; holds as stated only there)
        if instance.model().kind() == rbp_core::ModelKind::Oneshot && sa > sb + slack {
            return Some((a.r, b.r));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{ExactSolver, GreedySolver};
    use rbp_core::CostModel;
    use rbp_graph::generate;

    #[test]
    fn sweep_covers_range_in_order() {
        let dag = generate::chain(6);
        let inst = Instance::new(dag, 2, CostModel::oneshot());
        let points = sweep_r(&inst, 2..=5, &GreedySolver::new());
        assert_eq!(points.len(), 4);
        assert_eq!(points[0].r, 2);
        assert_eq!(points[3].r, 5);
        for p in &points {
            assert_eq!(p.cost().unwrap().transfers, 0, "chain free at R>=2");
            assert!(
                p.states_expanded().is_none(),
                "greedy reports no search effort"
            );
        }
    }

    #[test]
    fn sweep_reports_infeasible_points() {
        let dag = generate::chain(4);
        let inst = Instance::new(dag, 2, CostModel::oneshot());
        let points = sweep_r(&inst, 1..=2, &ExactSolver::new().unseeded());
        assert!(points[0].result.is_err(), "R=1 infeasible on a chain");
        assert!(points[1].result.is_ok());
    }

    #[test]
    fn exact_sweep_reports_solver_effort() {
        let dag = generate::chain(6);
        let inst = Instance::new(dag, 2, CostModel::oneshot());
        let solver = ExactSolver::new().unseeded();
        let points = sweep_r(&inst, 2..=4, &solver);
        assert_eq!(points.len(), 3);
        for p in &points {
            assert!(p.result.is_ok());
            let states = p.states_expanded().expect("exact sweep records states");
            assert!(states > 0, "at least the root is expanded");
            // the per-point stats must agree with a direct solve
            let direct = solver.solve_default(&inst.with_red_limit(p.r)).unwrap();
            assert_eq!(Some(states), direct.states_expanded());
            assert!(p.result.as_ref().unwrap().is_optimal());
        }
    }

    #[test]
    fn tradeoff_laws_hold_on_small_join_dag() {
        let mut b = rbp_graph::DagBuilder::new(5);
        b.add_edge(0, 3);
        b.add_edge(1, 3);
        b.add_edge(1, 4);
        b.add_edge(2, 4);
        let inst = Instance::new(b.build().unwrap(), 3, CostModel::oneshot());
        let points = sweep_r(&inst, 3..=5, &ExactSolver::new().unseeded());
        assert_eq!(check_tradeoff_laws(&inst, &points), None);
    }
}
