//! Portfolio solving: run every greedy configuration in parallel and keep
//! the cheapest valid pebbling.
//!
//! Section 8 shows no greedy rule is safe in the worst case, and on real
//! workloads no single configuration dominates either — a portfolio is the
//! practical answer.

use crate::error::SolveError;
use crate::greedy::{solve_greedy_with, EvictionPolicy, GreedyConfig, GreedyReport, SelectionRule};
use rbp_core::Instance;

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

/// Runs all `configs` in parallel and returns the cheapest report plus the
/// winning configuration. Errors only if every configuration fails.
///
/// Concurrency is capped at `available_parallelism` through the shared
/// work-queue pool ([`crate::pool::run_indexed`]) rather than spawning
/// one thread per configuration; on a single-core host the whole
/// portfolio runs inline on the caller with zero spawns, which keeps it
/// cheap enough to seed exact-solver incumbents with.
pub fn solve_portfolio(
    instance: &Instance,
    configs: &[GreedyConfig],
) -> Result<(GreedyConfig, GreedyReport), SolveError> {
    assert!(!configs.is_empty(), "empty portfolio");
    let slots: Vec<Result<GreedyReport, SolveError>> =
        crate::pool::run_indexed(configs.len(), |i| solve_greedy_with(instance, configs[i]));

    let mut best: Option<(GreedyConfig, GreedyReport)> = None;
    let mut last_err = SolveError::NoPebblingFound;
    for (cfg, slot) in configs.iter().zip(slots) {
        match slot {
            Ok(rep) => {
                let better = match &best {
                    None => true,
                    Some((_, b)) => instance.scaled_cost(&rep.cost) < instance.scaled_cost(&b.cost),
                };
                if better {
                    best = Some((*cfg, rep));
                }
            }
            Err(e) => last_err = e,
        }
    }
    best.ok_or(last_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbp_core::CostModel;
    use rbp_graph::generate;

    #[test]
    fn portfolio_never_worse_than_default_greedy() {
        let mut rng = rand::thread_rng();
        for _ in 0..5 {
            let dag = generate::layered(5, 4, 3, &mut rng);
            let inst = Instance::new(dag, 5, CostModel::oneshot());
            let (_, best) = solve_portfolio(&inst, &default_portfolio()).unwrap();
            let single = crate::greedy::solve_greedy(&inst).unwrap();
            let eps = inst.model().epsilon();
            assert!(best.cost.scaled(eps) <= single.cost.scaled(eps));
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
