//! Beam search over first-computation orderings.
//!
//! Section 8 shows single-path greedy rules can be Θ̃(√n) from optimal;
//! the natural upgrade short of exact search is a *beam*: keep the `W`
//! cheapest partial schedules at every computation depth, expanding each
//! by every currently-enabled node. Width 1 with the most-red rule's
//! tie-breaking degenerates to greedy; growing widths trade time for
//! cost and can escape Theorem-4-style traps that fool every fixed rule.
//!
//! The acquisition mechanics per expansion are the greedy solver's:
//! inputs are loaded (or sources computed on demand), and the greedy
//! eviction routine under [`EvictionPolicy::MinUses`] deletes dead values
//! for free, stores sinks, and evicts live victims by
//! fewest-remaining-uses.

use crate::api::SolveCtx;
use crate::error::SolveError;
use crate::greedy::{apply, complete, ensure_slot, EvictionPolicy};
use rbp_core::{bounds, Instance, Move, Pebbling, SinkConvention, SourceConvention, State};
use rbp_graph::hash::FxHashMap;
use rbp_graph::NodeId;

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

#[derive(Clone)]
struct BeamNode {
    state: State,
    uses: Vec<u32>,
    pending: Vec<u32>,
    computed: Vec<bool>,
    trace: Pebbling,
    scaled: u128,
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
    bounds::check_feasible(instance)?;
    let dag = instance.dag();
    let n = dag.n();
    let initially_blue = instance.source_convention() == SourceConvention::InitiallyBlue;

    let mut computed0 = vec![false; n];
    if initially_blue {
        for v in dag.sources() {
            computed0[v.index()] = true;
        }
    }
    let pending0: Vec<u32> = (0..n)
        .map(|v| {
            dag.preds(NodeId::new(v))
                .iter()
                .filter(|&&u| !dag.is_source(u))
                .count() as u32
        })
        .collect();
    let uses0: Vec<u32> = (0..n)
        .map(|v| dag.outdegree(NodeId::new(v)) as u32)
        .collect();
    // nodes the beam must schedule: non-sources, plus isolated
    // source-sinks handled in a final pass
    let total: usize = (0..n).filter(|&v| !dag.is_source(NodeId::new(v))).count();

    let mut beam = vec![BeamNode {
        state: State::initial(instance),
        uses: uses0,
        pending: pending0,
        computed: computed0,
        trace: Pebbling::new(),
        scaled: 0,
    }];

    let budget_live = !ctx.budget.is_unlimited();
    let mut generated = 0u64;
    for _depth in 0..total {
        if budget_live && ctx.budget.exhausted(generated) {
            return Err(SolveError::Interrupted);
        }
        let mut successors: Vec<BeamNode> = Vec::with_capacity(beam.len() * 4);
        let mut seen: FxHashMap<Vec<u64>, u128> = FxHashMap::default();
        for node in &beam {
            for v in 0..n {
                let nv = NodeId::new(v);
                if node.computed[v] || dag.is_source(nv) || node.pending[v] != 0 {
                    continue;
                }
                let mut succ = node.clone();
                generated += 1;
                if expand(instance, &mut succ, nv).is_err() {
                    continue;
                }
                succ.scaled = instance.scaled_cost(&succ.trace.stats().cost());
                // dedup identical configurations, keep the cheapest
                let key: Vec<u64> = succ
                    .state
                    .red_set()
                    .words()
                    .iter()
                    .chain(succ.state.blue_set().words())
                    .chain(succ.state.computed_set().words())
                    .copied()
                    .collect();
                match seen.get(&key) {
                    Some(&best) if best <= succ.scaled => continue,
                    _ => {
                        seen.insert(key, succ.scaled);
                        successors.push(succ);
                    }
                }
            }
        }
        if successors.is_empty() {
            return Err(SolveError::NoPebblingFound);
        }
        successors.sort_by_key(|s| s.scaled);
        successors.truncate(cfg.width);
        beam = successors;
    }

    let mut best = beam
        .into_iter()
        .min_by_key(|b| b.scaled)
        .expect("beam nonempty");
    // isolated source-sinks still need pebbles
    if !initially_blue {
        for v in dag.nodes() {
            if dag.is_source(v) && dag.is_sink(v) && !best.computed[v.index()] {
                evict(instance, &mut best.state, &mut best.trace, &best.uses, &[])?;
                apply(instance, &mut best.state, &mut best.trace, Move::Compute(v))?;
            }
        }
    }
    // under RequireBlue, sinks that finished red must be written out
    if instance.sink_convention() == SinkConvention::RequireBlue {
        for v in dag.nodes() {
            if dag.is_sink(v) && best.state.is_red(v) {
                apply(instance, &mut best.state, &mut best.trace, Move::Store(v))?;
            }
        }
    }
    complete(instance, &best.state)?;
    Ok(best.trace)
}

/// Frees a red slot on a beam node's board: the greedy eviction routine
/// under [`EvictionPolicy::MinUses`], which reads no recency or RNG state.
fn evict(
    instance: &Instance,
    state: &mut State,
    trace: &mut Pebbling,
    uses: &[u32],
    pinned: &[NodeId],
) -> Result<(), SolveError> {
    let policy = EvictionPolicy::MinUses;
    ensure_slot(
        instance,
        state,
        trace,
        pinned,
        uses,
        policy,
        &[],
        &[],
        &mut 0,
    )
}

/// Computes `v` on the node's state: acquire inputs, evict as needed,
/// compute, update bookkeeping.
fn expand(instance: &Instance, node: &mut BeamNode, v: NodeId) -> Result<(), SolveError> {
    let dag = instance.dag();
    for &u in dag.preds(v) {
        if node.state.is_red(u) {
            continue;
        }
        evict(
            instance,
            &mut node.state,
            &mut node.trace,
            &node.uses,
            dag.preds(v),
        )?;
        let mv = if node.state.is_blue(u) {
            Move::Load(u)
        } else {
            Move::Compute(u) // on-demand source
        };
        apply(instance, &mut node.state, &mut node.trace, mv)?;
        if matches!(mv, Move::Compute(_)) {
            node.computed[u.index()] = true;
        }
    }
    evict(
        instance,
        &mut node.state,
        &mut node.trace,
        &node.uses,
        dag.preds(v),
    )?;
    apply(instance, &mut node.state, &mut node.trace, Move::Compute(v))?;
    node.computed[v.index()] = true;
    for &u in dag.preds(v) {
        node.uses[u.index()] -= 1;
    }
    for &w in dag.succs(v) {
        node.pending[w.index()] -= 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{BeamSolver, ExactSolver, GreedySolver, Solution, Solver};
    use rbp_core::{engine, CostModel};
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
