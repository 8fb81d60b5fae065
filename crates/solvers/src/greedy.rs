//! The greedy pebbling heuristics of Section 8, and the one schedule
//! builder every greedy-style solver drives.
//!
//! In the oneshot model a strategy is characterized by the (topological)
//! order of first computations plus the choice of which red pebbles to
//! move. `Board` owns the second half. Handed a node and a processor,
//! it brings the node's inputs into that processor's memory (a value red
//! on another processor travels through shared memory, a blue value is
//! loaded, an uncomputed source is computed on demand), frees slots as
//! needed, computes the node, and keeps the running cost and the
//! uses/pending counters; `Board::finish` completes the schedule. A
//! solver built on it only chooses the order:
//!
//! - the Section 8 rules here compute next one of the *enabled* nodes
//!   (all non-source inputs computed), on processor 0:
//!   - largest number of red pebbles among its inputs;
//!   - smallest number of blue pebbles among its inputs;
//!   - largest red-pebbles-to-inputs ratio;
//! - [`crate::beam`] keeps the `W` cheapest boards per computation depth;
//! - [`crate::mpp`]'s list scheduler walks a topological order and picks
//!   a processor per node.
//!
//! The rules say nothing about eviction, so eviction is a pluggable
//! policy; Theorem 4's constructions defeat every choice, and the
//! `ablation` experiment measures the policies against each other on
//! realistic workloads. The board always deletes a dead value (no
//! uncomputed successor, not a sink) first; after that, the rules and
//! beam store a sink before they spill a live value by the policy's
//! rank, while the list scheduler spills the live value with the fewest
//! uses before it stores a sink (`Spill`).
//!
//! The board maintains the invariant that a computed node keeps a pebble
//! while it still has uncomputed successors (it is stored, never deleted,
//! when its slot is needed), which keeps the produced trace legal in all
//! four models — in base/nodel/compcost this realizes the paper's
//! "ordering of the very first computation" greedy interpretation
//! (Appendix A.4).

use crate::error::SolveError;
use rbp_core::{bounds, Cost, Instance, Move, Pebbling, PebblingError, SinkConvention, State};
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

/// Builds the greedy pebbling under the given configuration on one
/// [`Board`], so the trace is complete and legal
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
    let mut board = Board::new(instance, 1, cfg.eviction, Spill::SinksFirst)?;
    let dag = instance.dag();
    let mut ready: Vec<u32> = dag
        .nodes()
        .filter(|&v| !dag.is_source(v) && board.pending(v) == 0)
        .map(|v| v.index() as u32)
        .collect();
    while !ready.is_empty() {
        // select's choice does not depend on the order of `ready`
        let at = select(&ready, cfg.rule, dag, board.state());
        let v = NodeId::new(ready.swap_remove(at) as usize);
        board.compute_on(v, 0)?;
        // v was the last uncomputed input of every successor it enabled
        ready.extend(
            dag.succs(v)
                .iter()
                .filter(|&&w| board.pending(w) == 0)
                .map(|w| w.index() as u32),
        );
    }
    board.finish()
}

/// The position in `ready` of the next node to compute under `rule`,
/// breaking ties toward the lowest node index (deterministic).
fn select(ready: &[u32], rule: SelectionRule, dag: &rbp_graph::Dag, state: &State) -> usize {
    debug_assert!(!ready.is_empty(), "DAG exhausted with nodes uncomputed");
    let mut best = u32::MAX;
    let mut best_at = 0;
    // score encoded so that HIGHER is better for every rule
    let mut best_score = (i64::MIN, i64::MIN);
    for (at, &c) in ready.iter().enumerate() {
        let v = NodeId::new(c as usize);
        let preds = dag.preds(v);
        let (mut red, mut blue) = (0i64, 0i64);
        for &u in preds {
            if state.is_red(u) {
                red += 1;
            } else if state.is_blue(u) {
                blue += 1;
            }
        }
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
            best_at = at;
        }
    }
    best_at
}

/// The order in which [`Board`] spills once no dead value is left to
/// delete.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Spill {
    /// Store a sink (it never needs a reload) before spilling a live
    /// value by the eviction policy's rank: the Section 8 rules and beam.
    SinksFirst,
    /// Spill a live value by the eviction policy's rank before storing a
    /// sink: the multiprocessor list scheduler.
    SinksLast,
}

/// One schedule under construction: the configuration, the trace that
/// reached it with its running cost, and the counters the drivers choose
/// by. Every move goes through [`State::apply_on`], so the trace is legal
/// at every step.
#[derive(Clone)]
pub(crate) struct Board<'a> {
    instance: &'a Instance,
    /// The processors the driver schedules on (`0..procs`).
    procs: u16,
    policy: EvictionPolicy,
    spill: Spill,
    state: State,
    trace: Pebbling,
    cost: Cost,
    /// Per-processor running cost, kept only when `procs > 1`.
    proc_cost: Box<[Cost]>,
    /// `uses[v]`: uncomputed successors of v (the value's remaining
    /// demand).
    uses: Vec<u32>,
    /// `pending[v]`: uncomputed non-source predecessors (a non-source is
    /// enabled when it hits 0).
    pending: Vec<u32>,
    /// The recency clock and each node's stamp — last touch under
    /// [`EvictionPolicy::Lru`], placement under [`EvictionPolicy::Fifo`];
    /// `stamps` is empty under the other policies.
    clock: u64,
    stamps: Vec<u64>,
    /// The xorshift64* state of [`EvictionPolicy::Random`].
    rng: u64,
}

impl<'a> Board<'a> {
    /// The initial board of `instance` for a driver that schedules on
    /// processors `0..procs`, or the feasibility check's error.
    pub(crate) fn new(
        instance: &'a Instance,
        procs: u16,
        policy: EvictionPolicy,
        spill: Spill,
    ) -> Result<Self, SolveError> {
        bounds::check_feasible(instance)?;
        let dag = instance.dag();
        let n = dag.n();
        Ok(Board {
            instance,
            procs,
            policy,
            spill,
            state: State::initial(instance),
            trace: Pebbling::with_capacity(3 * n),
            cost: Cost::ZERO,
            proc_cost: if procs > 1 {
                vec![Cost::ZERO; procs as usize].into()
            } else {
                Box::default()
            },
            uses: dag.nodes().map(|v| dag.outdegree(v) as u32).collect(),
            pending: dag
                .nodes()
                .map(|v| dag.preds(v).iter().filter(|&&u| !dag.is_source(u)).count() as u32)
                .collect(),
            clock: 0,
            stamps: match policy {
                EvictionPolicy::Lru | EvictionPolicy::Fifo => vec![0; n],
                _ => Vec::new(),
            },
            rng: match policy {
                EvictionPolicy::Random(seed) => seed ^ 0x9e37_79b9_7f4a_7c15,
                _ => 0,
            },
        })
    }

    /// The configuration reached so far.
    pub(crate) fn state(&self) -> &State {
        &self.state
    }

    /// The uncomputed non-source predecessors of `v`.
    pub(crate) fn pending(&self, v: NodeId) -> u32 {
        self.pending[v.index()]
    }

    /// The running cost under the instance's weights
    /// ([`Instance::scaled_cost`]).
    pub(crate) fn scaled_cost(&self) -> u128 {
        self.instance.scaled_cost(&self.cost)
    }

    /// Processor `proc`'s weighted work so far (the whole cost on a
    /// one-processor board).
    pub(crate) fn work(&self, proc: u16) -> u128 {
        let cost = self.proc_cost.get(proc as usize).unwrap_or(&self.cost);
        self.instance.scaled_cost(cost)
    }

    /// Computes `v` on processor `proc`. Each input not yet red there is
    /// stored by the processor holding it (if another one does), given a
    /// freed slot, and loaded, or computed if it is an uncomputed source;
    /// then a freed slot takes `v` itself. The inputs stay pinned
    /// throughout.
    pub(crate) fn compute_on(&mut self, v: NodeId, proc: u16) -> Result<(), SolveError> {
        let dag = self.instance.dag();
        let preds = dag.preds(v);
        for &u in preds {
            if self.state.is_red_on(proc, u) {
                self.touch(u);
                continue;
            }
            if let Some(owner) = self.state.owner_of(u) {
                self.apply_on(Move::Store(u), owner)?;
            }
            self.free_slot(proc, preds)?;
            let mv = if self.state.is_blue(u) {
                Move::Load(u)
            } else {
                // invariant: a computed value with uncomputed successors
                // keeps a pebble, so an unpebbled input is an uncomputed
                // source — compute it on demand
                debug_assert!(
                    dag.is_source(u) && !self.state.is_computed(u),
                    "input v{} lost its pebble",
                    u.index()
                );
                Move::Compute(u)
            };
            self.apply_on(mv, proc)?;
            self.place(u);
        }
        self.free_slot(proc, preds)?;
        self.apply_on(Move::Compute(v), proc)?;
        self.place(v);
        for &u in preds {
            self.uses[u.index()] -= 1;
        }
        for &w in dag.succs(v) {
            self.pending[w.index()] -= 1;
        }
        Ok(())
    }

    /// Completes the schedule and returns its trace: computes the
    /// isolated source-sinks no computation demanded (each on the
    /// processor with the least work), has every red sink stored by its
    /// owner under [`SinkConvention::RequireBlue`], and rejects a
    /// schedule that still leaves a sink unsatisfied with the error the
    /// engine's completeness check reports.
    pub(crate) fn finish(mut self) -> Result<Pebbling, SolveError> {
        let instance = self.instance;
        let dag = instance.dag();
        // (under InitiallyBlue every source starts out computed)
        for v in dag.nodes() {
            if dag.is_source(v) && dag.is_sink(v) && !self.state.is_computed(v) {
                let proc = (0..self.procs)
                    .min_by_key(|&i| (self.work(i), i))
                    .expect("procs >= 1");
                self.free_slot(proc, &[])?;
                self.apply_on(Move::Compute(v), proc)?;
            }
        }
        if instance.sink_convention() == SinkConvention::RequireBlue {
            for v in dag.nodes() {
                if let Some(owner) = self.state.owner_of(v).filter(|_| dag.is_sink(v)) {
                    self.apply_on(Move::Store(v), owner)?;
                }
            }
        }
        match self.state.first_unsatisfied_sink(instance) {
            Some(sink) => Err(SolveError::Pebbling(PebblingError::Incomplete { sink })),
            None => Ok(self.trace),
        }
    }

    /// Applies `mv` on processor `proc`, records it and prices it.
    fn apply_on(&mut self, mv: Move, proc: u16) -> Result<(), SolveError> {
        let cost = self
            .state
            .apply_on(mv, proc, self.instance)
            .map_err(SolveError::Pebbling)?;
        self.trace.push_on(mv, proc);
        self.cost += cost;
        if let Some(c) = self.proc_cost.get_mut(proc as usize) {
            *c += cost;
        }
        Ok(())
    }

    /// Frees red slots on processor `proc` until it has one: deletes a
    /// dead value (stores it where the model forbids deletion), else
    /// stores a sink or spills a live value in the board's [`Spill`]
    /// order. Values in `pinned` never move.
    fn free_slot(&mut self, proc: u16, pinned: &[NodeId]) -> Result<(), SolveError> {
        while self.state.red_count_on(proc) >= self.instance.red_limit() {
            let (victim, dead) = self.victim(proc, pinned);
            let mv = if dead && self.instance.model().allows_delete() {
                Move::Delete(victim)
            } else {
                Move::Store(victim)
            };
            self.apply_on(mv, proc)?;
        }
        Ok(())
    }

    /// The value [`Board::free_slot`] moves next, and whether it is dead:
    /// the lowest-index dead value, else the lowest-index sink or a live
    /// value in [`Spill`] order. The live value is the one of lowest
    /// (rank, index), or a pseudo-random one under
    /// [`EvictionPolicy::Random`].
    fn victim(&mut self, proc: u16, pinned: &[NodeId]) -> (NodeId, bool) {
        let dag = self.instance.dag();
        let (state, uses, stamps) = (&self.state, &self.uses, &self.stamps);
        let rank = |v: usize| match self.policy {
            EvictionPolicy::Lru | EvictionPolicy::Fifo => stamps[v],
            EvictionPolicy::MinUses | EvictionPolicy::Random(_) => u64::from(uses[v]),
        };
        // the red values on `proc` that may move, in index order
        let movable = || {
            state.red_set().iter().filter(move |&v| {
                let node = NodeId::new(v);
                state.is_red_on(proc, node) && !pinned.contains(&node)
            })
        };
        let is_sink = |v: usize| dag.is_sink(NodeId::new(v));
        let mut sink: Option<usize> = None;
        let mut live: Option<(u64, usize)> = None;
        let mut live_count = 0u64;
        for v in movable() {
            if is_sink(v) {
                sink.get_or_insert(v);
            } else if uses[v] == 0 {
                return (NodeId::new(v), true);
            } else {
                live_count += 1;
                if live.is_none_or(|best| (rank(v), v) < best) {
                    live = Some((rank(v), v));
                }
            }
        }
        let victim = match live {
            Some((_, lowest)) if sink.is_none() || self.spill == Spill::SinksLast => {
                match self.policy {
                    EvictionPolicy::Random(_) => {
                        // xorshift64*, then the k-th live value in index order
                        self.rng ^= self.rng << 13;
                        self.rng ^= self.rng >> 7;
                        self.rng ^= self.rng << 17;
                        let k = (self.rng % live_count) as usize;
                        movable()
                            .filter(|&v| !is_sink(v) && uses[v] > 0)
                            .nth(k)
                            .expect("k < live count")
                    }
                    _ => lowest,
                }
            }
            // every red pebble pinned would mean the budget cannot hold
            // the inputs plus the result, which the feasibility check
            // rules out
            _ => sink.expect("eviction with all pebbles pinned despite feasibility check"),
        };
        (NodeId::new(victim), false)
    }

    /// Records a use of red `v` (the LRU stamp).
    fn touch(&mut self, v: NodeId) {
        if self.policy == EvictionPolicy::Lru {
            self.place(v);
        }
    }

    /// Records that `v` just received its red pebble (the LRU and FIFO
    /// stamp).
    fn place(&mut self, v: NodeId) {
        if let Some(stamp) = self.stamps.get_mut(v.index()) {
            self.clock += 1;
            *stamp = self.clock;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{GreedySolver, Solution, Solver};
    use rbp_core::{engine, CostModel, ModelKind, SourceConvention};
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
