//! The greedy pebbling heuristics of Section 8.
//!
//! In the oneshot model a strategy is characterized by the (topological)
//! order of first computations plus the choice of which red pebbles to
//! move. The paper's three natural greedy rules pick the next node to
//! compute among the *enabled* ones (all inputs computed):
//!
//! - largest number of red pebbles among its inputs;
//! - smallest number of blue pebbles among its inputs;
//! - largest red-pebbles-to-inputs ratio.
//!
//! The rules say nothing about eviction, so eviction is a pluggable
//! policy; Theorem 4's constructions defeat every choice, and the
//! `ablation` experiment measures the policies against each other on
//! realistic workloads.
//!
//! The solver maintains the invariant that a computed node keeps a pebble
//! while it still has uncomputed successors (it is stored, never deleted,
//! when its slot is needed), which keeps the produced trace legal in all
//! four models — in base/nodel/compcost this realizes the paper's
//! "ordering of the very first computation" greedy interpretation
//! (Appendix A.4).

use crate::error::SolveError;
use rbp_core::{
    bounds, Instance, Move, Pebbling, PebblingError, SinkConvention, SourceConvention, State,
};
use rbp_graph::NodeId;

/// Rule for choosing the next node to compute (Section 8).
///
/// Ties are broken by the complementary pebble criterion (fewer blue for
/// [`MostRedInputs`], more red for the other two) and finally toward the
/// lower node index, so that on k-uniform input-group DAGs all three
/// rules coincide — the property Section 8 relies on ("for such graphs,
/// the previous greedy approaches are all identical").
///
/// [`MostRedInputs`]: SelectionRule::MostRedInputs
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SelectionRule {
    /// Maximize the number of red pebbles among the inputs.
    MostRedInputs,
    /// Minimize the number of blue pebbles among the inputs.
    FewestBlueInputs,
    /// Maximize red-inputs / indegree (sources count as fully available).
    HighestRedRatio,
}

impl SelectionRule {
    /// All three paper rules.
    pub const ALL: [SelectionRule; 3] = [
        SelectionRule::MostRedInputs,
        SelectionRule::FewestBlueInputs,
        SelectionRule::HighestRedRatio,
    ];
}

impl std::fmt::Display for SelectionRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SelectionRule::MostRedInputs => "most-red-inputs",
            SelectionRule::FewestBlueInputs => "fewest-blue-inputs",
            SelectionRule::HighestRedRatio => "highest-red-ratio",
        };
        f.write_str(s)
    }
}

/// Policy for choosing which *live* red pebble to spill when a slot is
/// needed. Dead values (no uncomputed successor, not a sink) are always
/// deleted for free first; sinks are always stored, never deleted.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EvictionPolicy {
    /// Evict the value with the fewest remaining uncomputed successors.
    MinUses,
    /// Evict the least recently touched value.
    Lru,
    /// Evict the oldest resident value.
    Fifo,
    /// Evict a pseudo-random victim (seeded; deterministic per seed).
    Random(u64),
}

impl EvictionPolicy {
    /// The deterministic policies (for ablation sweeps).
    pub const DETERMINISTIC: [EvictionPolicy; 3] = [
        EvictionPolicy::MinUses,
        EvictionPolicy::Lru,
        EvictionPolicy::Fifo,
    ];
}

impl std::fmt::Display for EvictionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvictionPolicy::MinUses => f.write_str("min-uses"),
            EvictionPolicy::Lru => f.write_str("lru"),
            EvictionPolicy::Fifo => f.write_str("fifo"),
            EvictionPolicy::Random(s) => write!(f, "random({s})"),
        }
    }
}

/// Full greedy configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GreedyConfig {
    /// Next-node selection rule.
    pub rule: SelectionRule,
    /// Spill-victim policy.
    pub eviction: EvictionPolicy,
}

impl Default for GreedyConfig {
    fn default() -> Self {
        GreedyConfig {
            rule: SelectionRule::MostRedInputs,
            eviction: EvictionPolicy::MinUses,
        }
    }
}

impl std::fmt::Display for GreedyConfig {
    /// The registry argument form, `RULE/EVICT` — `format!("greedy:{cfg}")`
    /// parses back to this configuration.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.rule, self.eviction)
    }
}

/// Builds the greedy pebbling under the given configuration: every move
/// goes through [`State::apply`], and a schedule that leaves a sink
/// unsatisfied is an error, so the trace is complete and legal
/// ([`crate::api::GreedySolver`] replays it once more into a
/// [`crate::api::Solution`]).
///
/// Following the paper's narrative (Section 8), the greedy rule chooses
/// among *non-source* nodes whose non-source inputs are all computed;
/// source inputs are computed on demand while acquiring red pebbles for
/// the chosen node ("these greedy methods … do not specify which red
/// pebbles to move to its inputs").
pub(crate) fn solve_greedy_with(
    instance: &Instance,
    cfg: GreedyConfig,
) -> Result<Pebbling, SolveError> {
    bounds::check_feasible(instance)?;
    let dag = instance.dag();
    let n = dag.n();
    let initially_blue = instance.source_convention() == SourceConvention::InitiallyBlue;

    let mut state = State::initial(instance);
    let mut trace = Pebbling::with_capacity(3 * n);
    // uses[v]: uncomputed successors of v (the value's remaining demand)
    let mut uses: Vec<u32> = (0..n)
        .map(|v| dag.outdegree(NodeId::new(v)) as u32)
        .collect();
    // pending[v]: uncomputed non-source predecessors (v is a selection
    // candidate when it hits 0)
    let mut pending: Vec<u32> = (0..n)
        .map(|v| {
            dag.preds(NodeId::new(v))
                .iter()
                .filter(|&&u| !dag.is_source(u))
                .count() as u32
        })
        .collect();
    let mut computed = vec![false; n];
    if initially_blue {
        for v in dag.sources() {
            computed[v.index()] = true;
        }
    }

    let mut ready: Vec<u32> = (0..n as u32)
        .filter(|&v| {
            let node = NodeId::new(v as usize);
            !dag.is_source(node) && pending[v as usize] == 0
        })
        .collect();

    // recency bookkeeping for LRU/FIFO
    let mut clock: u64 = 0;
    let mut last_touch = vec![0u64; n];
    let mut placed_at = vec![0u64; n];
    let mut rng_state = match cfg.eviction {
        EvictionPolicy::Random(seed) => seed ^ 0x9e37_79b9_7f4a_7c15,
        _ => 0,
    };

    while !ready.is_empty() {
        // --- selection ---
        let chosen = select(&ready, cfg.rule, dag, &state);
        let v = NodeId::new(chosen as usize);
        ready.retain(|&c| c != chosen);

        // --- acquire inputs (computing source inputs on demand) ---
        for &u in dag.preds(v) {
            if state.is_red(u) {
                clock += 1;
                last_touch[u.index()] = clock;
                continue;
            }
            ensure_slot(
                instance,
                &mut state,
                &mut trace,
                dag.preds(v),
                &uses,
                cfg.eviction,
                &last_touch,
                &placed_at,
                &mut rng_state,
            )?;
            if state.is_blue(u) {
                apply(instance, &mut state, &mut trace, Move::Load(u))?;
            } else {
                // invariant: a computed value with uncomputed successors
                // keeps a pebble, so an unpebbled input is an uncomputed
                // source — compute it on demand
                debug_assert!(
                    dag.is_source(u) && !computed[u.index()],
                    "input v{} lost its pebble",
                    u.index()
                );
                apply(instance, &mut state, &mut trace, Move::Compute(u))?;
                computed[u.index()] = true;
            }
            clock += 1;
            last_touch[u.index()] = clock;
            placed_at[u.index()] = clock;
        }

        // --- compute ---
        ensure_slot(
            instance,
            &mut state,
            &mut trace,
            dag.preds(v),
            &uses,
            cfg.eviction,
            &last_touch,
            &placed_at,
            &mut rng_state,
        )?;
        apply(instance, &mut state, &mut trace, Move::Compute(v))?;
        clock += 1;
        last_touch[v.index()] = clock;
        placed_at[v.index()] = clock;
        computed[v.index()] = true;

        // --- bookkeeping ---
        for &u in dag.preds(v) {
            uses[u.index()] -= 1;
        }
        for &w in dag.succs(v) {
            pending[w.index()] -= 1;
            if pending[w.index()] == 0 && !computed[w.index()] {
                ready.push(w.index() as u32);
            }
        }
    }

    // isolated sources (simultaneously sinks) are never demanded by any
    // computation but still need a pebble for completion
    if !initially_blue {
        for v in dag.nodes() {
            if dag.is_source(v) && dag.is_sink(v) && !computed[v.index()] {
                ensure_slot(
                    instance,
                    &mut state,
                    &mut trace,
                    &[],
                    &uses,
                    cfg.eviction,
                    &last_touch,
                    &placed_at,
                    &mut rng_state,
                )?;
                apply(instance, &mut state, &mut trace, Move::Compute(v))?;
                computed[v.index()] = true;
            }
        }
    }

    // under RequireBlue, sinks that finished red must be written out
    if instance.sink_convention() == SinkConvention::RequireBlue {
        for v in dag.nodes() {
            if dag.is_sink(v) && state.is_red(v) {
                apply(instance, &mut state, &mut trace, Move::Store(v))?;
            }
        }
    }
    complete(instance, &state)?;
    Ok(trace)
}

/// Applies `mv` to `state` and records it on `trace`.
pub(crate) fn apply(
    instance: &Instance,
    state: &mut State,
    trace: &mut Pebbling,
    mv: Move,
) -> Result<(), SolveError> {
    state.apply(mv, instance).map_err(SolveError::Pebbling)?;
    trace.push(mv);
    Ok(())
}

/// Rejects a finished schedule that leaves a sink unsatisfied, with the
/// error the engine's completeness check reports.
pub(crate) fn complete(instance: &Instance, state: &State) -> Result<(), SolveError> {
    match state.first_unsatisfied_sink(instance) {
        Some(sink) => Err(SolveError::Pebbling(PebblingError::Incomplete { sink })),
        None => Ok(()),
    }
}

/// Picks the next node to compute among `ready` under `rule`, breaking
/// ties toward the lowest node index (deterministic).
fn select(ready: &[u32], rule: SelectionRule, dag: &rbp_graph::Dag, state: &State) -> u32 {
    debug_assert!(!ready.is_empty(), "DAG exhausted with nodes uncomputed");
    let mut best = u32::MAX;
    // score encoded so that HIGHER is better for every rule
    let mut best_score = (i64::MIN, i64::MIN);
    for &c in ready {
        let v = NodeId::new(c as usize);
        let preds = dag.preds(v);
        let red = preds.iter().filter(|&&u| state.is_red(u)).count() as i64;
        let blue = preds.iter().filter(|&&u| state.is_blue(u)).count() as i64;
        let indeg = preds.len() as i64;
        let score = match rule {
            SelectionRule::MostRedInputs => (red, -blue),
            SelectionRule::FewestBlueInputs => (-blue, red),
            // compare red/indeg as exact fractions via a fixed common
            // scale; sources (indeg 0) count as ratio 1
            SelectionRule::HighestRedRatio => {
                if indeg == 0 {
                    (1 << 30, red)
                } else {
                    ((red << 30) / indeg, red)
                }
            }
        };
        // ready is unsorted, so ties go to the lower index explicitly: a
        // strictly greater score wins, an equal one only from a lower index
        if score > best_score || (score == best_score && c < best) {
            best_score = score;
            best = c;
        }
    }
    best
}

/// Frees one red slot if the board is full: deletes a dead value if
/// possible, otherwise stores the victim chosen by `policy`. Nodes in
/// `pinned` (the inputs of the node being computed) are never evicted.
/// `last_touch` and `placed_at` are read only under [`EvictionPolicy::Lru`]
/// and [`EvictionPolicy::Fifo`], `rng_state` only under
/// [`EvictionPolicy::Random`] (beam search evicts by
/// [`EvictionPolicy::MinUses`] with empty slices).
#[allow(clippy::too_many_arguments)]
pub(crate) fn ensure_slot(
    instance: &Instance,
    state: &mut State,
    trace: &mut Pebbling,
    pinned: &[NodeId],
    uses: &[u32],
    policy: EvictionPolicy,
    last_touch: &[u64],
    placed_at: &[u64],
    rng_state: &mut u64,
) -> Result<(), SolveError> {
    let r_limit = instance.red_limit();
    while state.red_count() >= r_limit {
        let dag = instance.dag();
        let is_pinned = |v: usize| pinned.iter().any(|p| p.index() == v);
        let is_live = |v: usize| !is_pinned(v) && !dag.is_sink(NodeId::new(v)) && uses[v] > 0;
        let rank = |v: usize| match policy {
            EvictionPolicy::MinUses | EvictionPolicy::Random(_) => u64::from(uses[v]),
            EvictionPolicy::Lru => last_touch[v],
            EvictionPolicy::Fifo => placed_at[v],
        };
        // class 1: dead non-sink values — free deletion (store in nodel)
        let mut dead: Option<usize> = None;
        // class 2: sinks (must store, but never need a reload)
        let mut sink: Option<usize> = None;
        // class 3: live values — the lowest (rank, index), and how many
        let mut live: Option<(u64, usize)> = None;
        let mut live_count = 0u64;
        for v in state.red_set().iter() {
            if is_pinned(v) {
                continue;
            }
            if dag.is_sink(NodeId::new(v)) {
                sink.get_or_insert(v);
            } else if uses[v] == 0 {
                dead.get_or_insert(v);
            } else {
                live_count += 1;
                if live.is_none_or(|best| (rank(v), v) < best) {
                    live = Some((rank(v), v));
                }
            }
        }
        let (victim, dispose) = if let Some(v) = dead {
            (v, instance.model().allows_delete())
        } else if let Some(v) = sink {
            (v, false)
        } else if let Some((_, lowest)) = live {
            let v = match policy {
                EvictionPolicy::Random(_) => {
                    // xorshift64*, then the k-th live value in index order
                    *rng_state ^= *rng_state << 13;
                    *rng_state ^= *rng_state >> 7;
                    *rng_state ^= *rng_state << 17;
                    let k = (*rng_state % live_count) as usize;
                    state
                        .red_set()
                        .iter()
                        .filter(|&v| is_live(v))
                        .nth(k)
                        .expect("k < live count")
                }
                _ => lowest,
            };
            (v, false)
        } else {
            // every red pebble is pinned: the instance budget cannot hold
            // the inputs plus the result — ruled out by the feasibility
            // check, so this indicates an internal inconsistency
            unreachable!("eviction with all pebbles pinned despite feasibility check");
        };
        let node = NodeId::new(victim);
        let mv = if dispose {
            Move::Delete(node)
        } else {
            Move::Store(node)
        };
        apply(instance, state, trace, mv)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{GreedySolver, Solution, Solver};
    use rbp_core::{engine, CostModel, ModelKind};
    use rbp_graph::{generate, DagBuilder};

    fn greedy(instance: &Instance, cfg: GreedyConfig) -> Result<Solution, SolveError> {
        GreedySolver::with_config(cfg).solve_default(instance)
    }

    fn default_greedy(instance: &Instance) -> Result<Solution, SolveError> {
        greedy(instance, GreedyConfig::default())
    }

    #[test]
    fn greedy_free_when_memory_ample() {
        let dag = generate::chain(10);
        let inst = Instance::new(dag, 3, CostModel::oneshot());
        let rep = default_greedy(&inst).unwrap();
        assert_eq!(rep.cost.transfers, 0);
        assert_eq!(rep.trace.first_computations().len(), 10);
    }

    #[test]
    fn greedy_satisfies_require_blue_sinks_in_all_models() {
        let mut rng = rand::thread_rng();
        for kind in ModelKind::ALL {
            let dag = generate::gnp_dag(10, 0.3, 3, &mut rng);
            let r = dag.max_indegree() + 1;
            let inst = Instance::new(dag, r, CostModel::of_kind(kind))
                .with_sink_convention(SinkConvention::RequireBlue);
            let rep = default_greedy(&inst).unwrap();
            // simulate's completeness check enforces every sink blue
            assert!(engine::simulate(&inst, &rep.trace).is_ok(), "model {kind}");
        }
    }

    #[test]
    fn greedy_valid_in_all_models() {
        let mut rng = rand::thread_rng();
        for kind in ModelKind::ALL {
            for _ in 0..5 {
                let dag = generate::gnp_dag(15, 0.3, 3, &mut rng);
                let r = dag.max_indegree() + 1;
                let inst = Instance::new(dag, r, CostModel::of_kind(kind));
                let rep = default_greedy(&inst).unwrap();
                // cost is already engine-validated inside; re-check peak
                let sim = engine::simulate(&inst, &rep.trace).unwrap();
                assert!(sim.peak_red <= inst.red_limit(), "model {kind}");
            }
        }
    }

    #[test]
    fn all_rules_and_policies_produce_valid_traces() {
        let mut rng = rand::thread_rng();
        let dag = generate::layered(4, 4, 3, &mut rng);
        let inst = Instance::new(dag, 4, CostModel::oneshot());
        for rule in SelectionRule::ALL {
            for eviction in [
                EvictionPolicy::MinUses,
                EvictionPolicy::Lru,
                EvictionPolicy::Fifo,
                EvictionPolicy::Random(7),
            ] {
                let rep = greedy(&inst, GreedyConfig { rule, eviction }).unwrap();
                assert!(engine::simulate(&inst, &rep.trace).is_ok());
            }
        }
    }

    #[test]
    fn greedy_cost_below_canonical_upper_bound() {
        let mut rng = rand::thread_rng();
        for _ in 0..10 {
            let dag = generate::gnp_dag(20, 0.25, 3, &mut rng);
            let r = dag.max_indegree() + 1;
            let inst = Instance::new(dag, r, CostModel::oneshot());
            let rep = default_greedy(&inst).unwrap();
            let ub = rbp_core::bounds::universal_upper_bound(&inst);
            assert!(rep.cost.transfers <= ub.transfers);
        }
    }

    #[test]
    fn greedy_respects_dependencies() {
        // order must be topological
        let mut rng = rand::thread_rng();
        let dag = generate::layered(3, 3, 2, &mut rng);
        let inst = Instance::new(dag, 4, CostModel::oneshot());
        let rep = default_greedy(&inst).unwrap();
        assert!(rbp_graph::is_topological_order(
            inst.dag(),
            &rep.trace.first_computations()
        ));
    }

    #[test]
    fn greedy_infeasible_rejected() {
        let mut b = DagBuilder::new(4);
        for i in 0..3 {
            b.add_edge(i, 3);
        }
        let inst = Instance::new(b.build().unwrap(), 2, CostModel::oneshot());
        assert!(matches!(
            default_greedy(&inst),
            Err(SolveError::Pebbling(_))
        ));
    }

    #[test]
    fn most_red_inputs_prefers_warm_node() {
        // two independent joins; after computing the inputs of the first,
        // greedy must continue with the join whose inputs are red
        let mut b = DagBuilder::new(6);
        b.add_edge(0, 2);
        b.add_edge(1, 2);
        b.add_edge(3, 5);
        b.add_edge(4, 5);
        let inst = Instance::new(b.build().unwrap(), 3, CostModel::oneshot());
        let rep = greedy(
            &inst,
            GreedyConfig {
                rule: SelectionRule::MostRedInputs,
                eviction: EvictionPolicy::MinUses,
            },
        )
        .unwrap();
        // source 0, 1 computed first (ready, ties to low index), then node
        // 2 (two red inputs) must precede sources 3, 4
        let order = rep.trace.first_computations();
        let pos = |v: usize| order.iter().position(|x| x.index() == v).unwrap();
        assert!(pos(2) < pos(3));
        assert!(pos(2) < pos(4));
        // one transfer is forced: when sink 5 is computed the other sink 2
        // must hold its pebble in blue (R = 3 is fully used by 3, 4, 5)
        assert_eq!(rep.cost.transfers, 1);
    }

    #[test]
    fn greedy_with_initially_blue_sources() {
        let dag = generate::chain(4);
        let inst = Instance::new(dag, 2, CostModel::oneshot())
            .with_source_convention(SourceConvention::InitiallyBlue);
        let rep = default_greedy(&inst).unwrap();
        // the source must be loaded once: cost 1
        assert_eq!(rep.cost.transfers, 1);
        assert_eq!(
            rep.trace.first_computations().len(),
            3,
            "source not recomputed"
        );
    }

    #[test]
    fn random_eviction_is_deterministic_per_seed() {
        let mut rng = rand::thread_rng();
        let dag = generate::layered(4, 4, 2, &mut rng);
        let inst = Instance::new(dag, 3, CostModel::oneshot());
        let cfg = GreedyConfig {
            rule: SelectionRule::MostRedInputs,
            eviction: EvictionPolicy::Random(99),
        };
        let a = greedy(&inst, cfg).unwrap();
        let b = greedy(&inst, cfg).unwrap();
        assert_eq!(a.trace.moves(), b.trace.moves());
    }
}
