//! Beam search over first-computation orderings.
//!
//! Section 8 shows single-path greedy rules can be Θ̃(√n) from optimal;
//! the natural upgrade short of exact search is a *beam*: keep the `W`
//! cheapest partial schedules at every computation depth, expanding each
//! by every currently-enabled node. Width 1 with the most-red rule's
//! tie-breaking degenerates to greedy; growing widths trade time for
//! cost and can escape Theorem-4-style traps that fool every fixed rule.
//!
//! Each partial schedule is a greedy `Board` under
//! [`EvictionPolicy::MinUses`]: expanding it by a node clones the board
//! and computes the node there (inputs loaded or sources computed on
//! demand, dead values deleted for free, sinks stored, live victims
//! spilled by fewest remaining uses), and the board's running cost
//! prices it. The beam adds only the candidate enumeration, the
//! deduplication of identical configurations, and the cut to the `W`
//! cheapest; the cheapest survivor's `Board::finish` completes the
//! schedule.

use crate::api::SolveCtx;
use crate::error::SolveError;
use crate::greedy::{Board, EvictionPolicy, Spill};
use rbp_core::{Instance, Pebbling};
use rbp_graph::hash::FxHashMap;

/// Beam-search configuration.
#[derive(Clone, Copy, Debug)]
pub struct BeamConfig {
    /// Number of partial schedules kept per depth (≥ 1).
    pub width: usize,
}

impl Default for BeamConfig {
    fn default() -> Self {
        BeamConfig { width: 8 }
    }
}

impl BeamConfig {
    /// Rejects degenerate values ([`SolveError::BadConfig`]). Run by
    /// every [`crate::api::Solver`] entry point before solving.
    pub fn validate(&self) -> Result<(), SolveError> {
        if self.width == 0 {
            return Err(SolveError::BadConfig {
                reason: "BeamConfig::width must be >= 1 (a zero-width beam keeps nothing)".into(),
            });
        }
        Ok(())
    }
}

/// Builds the cheapest complete schedule the beam finds
/// ([`crate::api::BeamSolver`] replays it into a
/// [`crate::api::Solution`]). The budget is polled once per depth (a
/// partial beam holds no valid pebbling, so expiry is
/// [`SolveError::Interrupted`], not a degraded solution); "expansions"
/// counts successor schedules generated.
pub(crate) fn solve_beam_budgeted(
    instance: &Instance,
    cfg: BeamConfig,
    ctx: &SolveCtx,
) -> Result<Pebbling, SolveError> {
    cfg.validate()?;
    let root = Board::new(instance, 1, EvictionPolicy::MinUses, Spill::SinksFirst)?;
    let dag = instance.dag();
    // one depth per non-source; finish() pebbles the isolated
    // source-sinks
    let total = dag.nodes().filter(|&v| !dag.is_source(v)).count();

    let mut beam = vec![root];
    let budget_live = !ctx.budget.is_unlimited();
    let mut generated = 0u64;
    for _depth in 0..total {
        if budget_live && ctx.budget.exhausted(generated) {
            return Err(SolveError::Interrupted);
        }
        let mut successors: Vec<Board> = Vec::with_capacity(beam.len() * 4);
        let mut seen: FxHashMap<Vec<u64>, u128> = FxHashMap::default();
        for board in &beam {
            for v in dag.nodes() {
                if dag.is_source(v) || board.state().is_computed(v) || board.pending(v) != 0 {
                    continue;
                }
                let mut succ = board.clone();
                generated += 1;
                if succ.compute_on(v, 0).is_err() {
                    continue;
                }
                let scaled = succ.scaled_cost();
                // dedup identical configurations, keep the cheapest
                let state = succ.state();
                let key: Vec<u64> = state
                    .red_set()
                    .words()
                    .iter()
                    .chain(state.blue_set().words())
                    .chain(state.computed_set().words())
                    .copied()
                    .collect();
                match seen.get(&key) {
                    Some(&best) if best <= scaled => continue,
                    _ => {
                        seen.insert(key, scaled);
                        successors.push(succ);
                    }
                }
            }
        }
        if successors.is_empty() {
            return Err(SolveError::NoPebblingFound);
        }
        successors.sort_by_key(Board::scaled_cost);
        successors.truncate(cfg.width);
        beam = successors;
    }

    beam.into_iter()
        .min_by_key(Board::scaled_cost)
        .expect("beam nonempty")
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{BeamSolver, ExactSolver, GreedySolver, Solution, Solver};
    use rbp_core::{engine, CostModel, SinkConvention};
    use rbp_graph::generate;

    fn run_beam(instance: &Instance, cfg: BeamConfig) -> Result<Solution, SolveError> {
        BeamSolver { cfg }.solve_default(instance)
    }

    #[test]
    fn beam_produces_valid_traces() {
        let mut rng = rand::thread_rng();
        for _ in 0..5 {
            let dag = generate::layered(4, 4, 3, &mut rng);
            let inst = Instance::new(dag, 5, CostModel::oneshot());
            let rep = run_beam(&inst, BeamConfig { width: 4 }).unwrap();
            assert!(engine::simulate(&inst, &rep.trace).is_ok());
        }
    }

    #[test]
    fn wider_beam_never_loses_to_width_one() {
        let mut rng = rand::thread_rng();
        for _ in 0..5 {
            let dag = generate::gnp_dag(14, 0.3, 3, &mut rng);
            let r = dag.max_indegree() + 1;
            let inst = Instance::new(dag, r, CostModel::oneshot());
            let w1 = run_beam(&inst, BeamConfig { width: 1 }).unwrap();
            let w8 = run_beam(&inst, BeamConfig { width: 8 }).unwrap();
            assert!(w8.scaled_cost(&inst) <= w1.scaled_cost(&inst));
        }
    }

    #[test]
    fn beam_brackets_between_exact_and_greedy() {
        let mut rng = rand::thread_rng();
        for _ in 0..5 {
            let dag = generate::gnp_dag(9, 0.35, 2, &mut rng);
            let r = dag.max_indegree() + 1;
            let inst = Instance::new(dag, r, CostModel::oneshot());
            let exact = ExactSolver::new().solve_default(&inst).unwrap();
            let beam = run_beam(&inst, BeamConfig { width: 16 }).unwrap();
            let greedy = GreedySolver::new().solve_default(&inst).unwrap();
            assert!(exact.scaled_cost(&inst) <= beam.scaled_cost(&inst));
            // the beam explores a superset of any single greedy path's
            // diversity, but eviction details differ; allow parity
            assert!(beam.scaled_cost(&inst) <= greedy.scaled_cost(&inst) + 2);
        }
    }

    #[test]
    fn beam_valid_in_all_models() {
        let mut rng = rand::thread_rng();
        let dag = generate::layered(3, 4, 2, &mut rng);
        for kind in rbp_core::ModelKind::ALL {
            let inst = Instance::new(dag.clone(), 4, CostModel::of_kind(kind));
            let rep = run_beam(&inst, BeamConfig { width: 4 }).unwrap();
            assert!(engine::simulate(&inst, &rep.trace).is_ok(), "{kind}");
        }
    }

    #[test]
    fn beam_infeasible_rejected() {
        let mut b = rbp_graph::DagBuilder::new(4);
        for i in 0..3 {
            b.add_edge(i, 3);
        }
        let inst = Instance::new(b.build().unwrap(), 3, CostModel::oneshot());
        assert!(matches!(
            run_beam(&inst, BeamConfig::default()),
            Err(SolveError::Pebbling(_))
        ));
    }

    #[test]
    fn beam_handles_isolated_source_sinks() {
        let dag = rbp_graph::DagBuilder::new(3).build().unwrap(); // 3 isolated
        let inst = Instance::new(dag, 3, CostModel::oneshot());
        let rep = run_beam(&inst, BeamConfig::default()).unwrap();
        assert_eq!(rep.trace.first_computations().len(), 3);
    }

    #[test]
    fn beam_satisfies_require_blue_sinks() {
        let mut b = rbp_graph::DagBuilder::new(3);
        b.add_edge(0, 2);
        b.add_edge(1, 2);
        let inst = Instance::new(b.build().unwrap(), 3, CostModel::oneshot())
            .with_sink_convention(SinkConvention::RequireBlue);
        let rep = run_beam(&inst, BeamConfig::default()).unwrap();
        // the engine's completeness check enforces the blue sink; the
        // final store is the only required transfer
        assert!(engine::simulate(&inst, &rep.trace).is_ok());
        assert_eq!(rep.cost.transfers, 1);
    }
}
