//! Portfolio solving: run every greedy configuration in parallel and keep
//! the cheapest valid pebbling.
//!
//! Section 8 shows no greedy rule is safe in the worst case, and on real
//! workloads no single configuration dominates either — a portfolio is the
//! practical answer. The same portfolio, cost-staged behind the default
//! greedy, seeds the exact searches' incumbent.

use crate::error::SolveError;
use crate::greedy::{solve_greedy_with, EvictionPolicy, GreedyConfig, SelectionRule};
use rbp_core::{bounds, Instance, Pebbling};

/// The default portfolio: all three selection rules crossed with the
/// deterministic eviction policies.
pub fn default_portfolio() -> Vec<GreedyConfig> {
    let mut configs = Vec::new();
    for rule in SelectionRule::ALL {
        for eviction in EvictionPolicy::DETERMINISTIC {
            configs.push(GreedyConfig { rule, eviction });
        }
    }
    configs
}

/// Runs all `configs` in parallel and returns the index of the first
/// cheapest member, ranked by the scaled cost of its trace, plus that
/// trace. Errors only if every configuration fails.
///
/// Concurrency is capped at `available_parallelism` through the shared
/// work-queue pool ([`crate::pool::run_indexed`]) rather than spawning
/// one thread per configuration; on a single-core host the whole
/// portfolio runs inline on the caller with zero spawns, which keeps it
/// cheap enough to seed exact-solver incumbents with.
pub(crate) fn solve_portfolio(
    instance: &Instance,
    configs: &[GreedyConfig],
) -> Result<(usize, Pebbling), SolveError> {
    assert!(!configs.is_empty(), "empty portfolio");
    let slots: Vec<Result<Pebbling, SolveError>> =
        crate::pool::run_indexed(configs.len(), |i| solve_greedy_with(instance, configs[i]));

    let mut best: Option<(u128, usize, Pebbling)> = None;
    let mut last_err = SolveError::NoPebblingFound;
    for (i, slot) in slots.into_iter().enumerate() {
        match slot {
            Ok(trace) => {
                let scaled = instance.scaled_cost(&trace.stats().cost());
                if best.as_ref().is_none_or(|b| scaled < b.0) {
                    best = Some((scaled, i, trace));
                }
            }
            Err(e) => last_err = e,
        }
    }
    best.map(|(_, i, trace)| (i, trace)).ok_or(last_err)
}

/// Best-of-greedy incumbent — the cheapest single-processor trace —
/// used to seed the exact searches and as the fallback a budget-expired
/// solve degrades to. `None` when every greedy configuration fails (the
/// search then starts unbounded).
///
/// Cost-staged: the single default greedy runs first, and the full
/// portfolio only when that bound could still improve — i.e. when it
/// sits above the instance's provable floor
/// ([`bounds::best_lower_bound`]). On instances whose default greedy
/// is already optimal (chains, most zero-cost cells) seeding costs one
/// greedy solve instead of nine, which keeps the seeded search
/// competitive even on solves that finish in tens of microseconds.
pub(crate) fn greedy_incumbent(instance: &Instance) -> Option<Pebbling> {
    let scaled = |trace: &Pebbling| instance.scaled_cost(&trace.stats().cost());
    let floor = instance.scaled_cost(&bounds::best_lower_bound(instance));
    let first = solve_greedy_with(instance, GreedyConfig::default()).ok();
    if first.as_ref().is_some_and(|trace| scaled(trace) <= floor) {
        return first;
    }
    // escalation re-runs the other eight configurations only — the
    // default one already produced `first`
    let rest: Vec<_> = default_portfolio()
        .into_iter()
        .filter(|c| *c != GreedyConfig::default())
        .collect();
    let best = solve_portfolio(instance, &rest)
        .ok()
        .map(|(_, trace)| trace);
    match (first, best) {
        (Some(a), Some(b)) => Some(if scaled(&a) <= scaled(&b) { a } else { b }),
        (a, b) => a.or(b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{GreedySolver, PortfolioSolver, Solver};
    use rbp_core::CostModel;
    use rbp_graph::generate;

    #[test]
    fn portfolio_never_worse_than_default_greedy() {
        let mut rng = rand::thread_rng();
        for _ in 0..5 {
            let dag = generate::layered(5, 4, 3, &mut rng);
            let inst = Instance::new(dag, 5, CostModel::oneshot());
            let best = PortfolioSolver::new().solve_default(&inst).unwrap();
            let single = GreedySolver::new().solve_default(&inst).unwrap();
            assert!(best.scaled_cost(&inst) <= single.scaled_cost(&inst));
        }
    }

    #[test]
    fn portfolio_has_nine_default_members() {
        assert_eq!(default_portfolio().len(), 9);
    }

    #[test]
    fn portfolio_propagates_infeasibility() {
        let mut b = rbp_graph::DagBuilder::new(4);
        for i in 0..3 {
            b.add_edge(i, 3);
        }
        let inst = Instance::new(b.build().unwrap(), 2, CostModel::oneshot());
        assert!(solve_portfolio(&inst, &default_portfolio()).is_err());
    }
}
