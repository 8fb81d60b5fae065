//! Exact optimal pebbling via Dijkstra / A* over configurations.
//!
//! A configuration is `(red planes, blue[, computed])` packed into `u64`
//! words; moves are edges weighted by their scaled cost, `transfers·comm`
//! plus `computes·comp` with the instance's exact
//! [`Instance::cost_scales`] (that is `(den(ε), num(ε))` unless an
//! `instance v2` document sets weights). Dijkstra over this graph yields
//! the optimal pebbling cost and, via parent pointers, an optimal trace.
//!
//! This is the one exact search of the crate. `exact` (and its alias
//! `exact-parallel[:N]`), `exact:unseeded` and `reference` search one red
//! plane — the classic single-processor game. `exact@mpp[:P]` searches
//! one plane per processor ([`crate::mpp`]); there only prune rule 1
//! below and the incumbent cutoff apply (see [`crate::expand`] for the
//! layout and the rule set by plane count).
//!
//! ## State keys per model
//! - **base / compcost / nodel**: `(red, blue)`. The computed set does not
//!   constrain future legality (recomputation is allowed), so it is
//!   omitted — this also merges states that differ only in history.
//! - **oneshot**: `(red, blue, computed)`, because each node admits one
//!   compute.
//!
//! At `p` planes `red` is `p` consecutive red sets, one per processor.
//!
//! ## Hot-path layout
//! The expand loop allocates nothing. All machinery is flat:
//!
//! - **Move generator** ([`Expander`]): guards, prunes, and the
//!   incremental ±delta metadata ([`Meta`]) are defined once, for every
//!   plane count; this search plugs an intern-and-relax sink into
//!   [`Expander::expand`].
//! - **Arena interning** ([`StateArena`]): every key lives contiguously in
//!   one `Vec<u64>`; a linear-probe table of `u32` ids (hashed from arena
//!   slices) replaces the old `HashMap<Box<[u64]>, u32>`. A hit is a hash
//!   probe plus one slice compare; a miss appends `key_words` words.
//! - **Struct-of-arrays bookkeeping** ([`NodeTable`]): `dist`, `parent`,
//!   `settled` and the incremental metadata are parallel arrays indexed
//!   by state id.
//! - **Bitset adjacency** ([`Dag::pred_mask`]/[`Dag::succ_mask`]): the
//!   "all inputs red" gate of a compute and the "has an uncomputed
//!   successor" prune are word-wise `ANDN` loops over packed mask rows,
//!   not per-edge iteration.
//! - **Scratch reuse**: the successor-key buffer, the popped-key buffer,
//!   and the dead-state reachability words are solver-owned and reused
//!   across every expansion.
//!
//! ## Incumbent-bound pruning
//! The search carries an *incumbent*: the cheapest known upper bound on
//! the optimum. It starts from [`ExactConfig::upper_bound`] (every exact
//! spec but `exact:unseeded` and `reference` seeds it with a greedy
//! cost) and tightens to the best goal distance discovered during the
//! search. Any successor with `g + h` strictly above the
//! seeded bound, or at-or-above the best discovered goal, is dropped
//! *before* it is interned: since the bound is realized by a concrete
//! pebbling, at least one optimal path survives (`f ≤ opt ≤ bound` along
//! it), so the optimum is unchanged while the arena, heap, and probe
//! table stay smaller. On positive-cost frontiers (e.g. the base model's
//! grid cell) this skips the large shell of states strictly beyond the
//! optimum that plain Dijkstra would intern but never expand.
//!
//! ## Incremental-delta invariants
//! Three state functions are threaded through expansion as ±deltas and
//! cached per state instead of being rescanned (see [`Meta`]):
//!
//! - `red_count`: `+1` on Load/Compute, `−1` on Store/Delete-of-red.
//! - `unsat_sinks`: the number of sinks violating the finishing
//!   convention; a state is a goal iff it is 0. Only the moved node's
//!   pebbles change, so only a sink move can shift it by ±1.
//! - `heur`: the A* heuristic value (below). A move on `v` changes only
//!   `v`'s own contribution, via its blue membership. A Compute changes
//!   nothing: the computed node was not blue (pebbled ⊆ computed in
//!   oneshot), and the only nodes whose "has an uncomputed successor"
//!   status flips are its predecessors, which the compute guard requires
//!   to be red — red and blue being disjoint, none of them is counted
//!   before or after.
//!
//! Each value is a pure function of the state key, so it is stored once
//! at intern time regardless of which path reaches the state first, and
//! debug builds assert every delta against a full rescan.
//!
//! ## Optimality-preserving pruning (`prune = true`)
//! All prunes below keep at least one optimal pebbling intact; the
//! unpruned mode (`prune = false`) is the brute-force reference that the
//! test-suite compares against on small instances.
//!
//! 1. *Never delete a blue pebble* (all models with deletion): a state
//!    with a superset of blue pebbles and identical red/computed sets can
//!    replay any continuation of the smaller state at equal cost, so the
//!    delete only moves to a dominated state.
//! 2. *(oneshot)* Skip `Load(v)`/`Store(v)` when `v` has no uncomputed
//!    successor and is not a sink: the pebble can never enable anything
//!    again, so the optimal continuation never pays to move it.
//! 3. *(oneshot)* Skip `Delete(v)` when `v` still has an uncomputed
//!    successor, or when `v` is a sink: recomputation is forbidden, so
//!    both cases make the goal unreachable (dead state).
//! 4. *(oneshot)* Dead-state check at expansion: if some sink is already
//!    unreachable (computed but unpebbled, or uncomputed with an
//!    unreachable input), the subtree is abandoned.
//!
//! ## A*
//! For oneshot an admissible, consistent heuristic is available: every
//! node that is blue and still has an uncomputed successor must be loaded
//! at least once more (recomputation being forbidden), contributing 1
//! transfer (`comm`) each.

use crate::api::{Progress, SolveCtx};
use crate::arena::{NodeTable, StateArena, NO_STATE};
use crate::error::SolveError;
use crate::expand::{Expander, Meta};
use rbp_core::{bounds, Cost, Instance, Pebbling};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

#[cfg(doc)]
use rbp_graph::Dag;

/// Budget polls happen every this many expansions (amortizes the
/// `Instant::now()` call off the per-state hot path).
const BUDGET_POLL_INTERVAL: usize = 256;

/// Progress reports fire every this many expansions.
const PROGRESS_INTERVAL: usize = 8192;

/// The search knobs every exact spec shares
/// ([`crate::api::ExactSolver`], [`crate::mpp::ExactMppSolver`]).
#[derive(Clone, Copy, Debug)]
pub struct ExactConfig {
    /// Abort with [`SolveError::StateLimitExceeded`] after interning this
    /// many states (memory guard).
    pub max_states: usize,
    /// Enable the optimality-preserving prunes documented on this module.
    pub prune: bool,
    /// Use the admissible oneshot heuristic (ignored for other models).
    pub astar: bool,
    /// Optional incumbent seed: a known upper bound on the optimal
    /// *scaled* cost ([`Instance::scaled_cost`]; e.g. a greedy portfolio
    /// result). Successors with `g + h` strictly above it are never
    /// interned; the optimum is unchanged because the bound is realized
    /// by a concrete pebbling.
    pub upper_bound: Option<u64>,
}

impl Default for ExactConfig {
    fn default() -> Self {
        ExactConfig {
            max_states: 8_000_000,
            prune: true,
            astar: true,
            upper_bound: None,
        }
    }
}

impl ExactConfig {
    /// Rejects degenerate values ([`SolveError::BadConfig`]). Run by
    /// every [`crate::api::Solver`] entry point before solving.
    pub fn validate(&self) -> Result<(), SolveError> {
        if self.max_states == 0 {
            return Err(SolveError::BadConfig {
                reason: "ExactConfig::max_states must be >= 1 (the root state is always interned)"
                    .into(),
            });
        }
        Ok(())
    }

    /// Tightens [`ExactConfig::upper_bound`] to the scaled cost of a
    /// realized pebbling of `instance` (an incumbent seed).
    pub(crate) fn seed_with(&mut self, instance: &Instance, cost: &Cost) {
        let ub = u64::try_from(instance.scaled_cost(cost)).unwrap_or(u64::MAX);
        self.upper_bound = Some(self.upper_bound.map_or(ub, |b| b.min(ub)));
    }

    /// The prune cutoff seeded by [`ExactConfig::upper_bound`]:
    /// successors with `g + h ≥` this are dropped. It is `bound + 1` —
    /// states with `f == bound` must survive because the bound may be
    /// exactly optimal — and `u64::MAX` (no cutoff) when no bound is set
    /// or pruning is off (the brute-force reference mode must stay
    /// exhaustive).
    #[inline]
    pub fn seed_cutoff(&self) -> u64 {
        match self.upper_bound {
            Some(b) if self.prune => b.saturating_add(1),
            _ => u64::MAX,
        }
    }
}

/// What an exact search hands back: the trace to a goal, and whether it
/// is proved optimal (`false` when a budget stopped the search first and
/// the goal is only the best one discovered).
pub(crate) type Found = (Pebbling, bool);

// ---------------------------------------------------------------------
// implementation
// ---------------------------------------------------------------------

/// One sequential Dijkstra/A* search over `planes` red planes. Callers
/// validate the config and check feasibility first.
pub(crate) struct Search<'a> {
    cfg: ExactConfig,
    exp: Expander<'a>,
    /// Debug-only second expander: rescans successor metadata to check
    /// the ±deltas while `exp` is mutably borrowed by the expansion.
    #[cfg(debug_assertions)]
    check: Expander<'a>,
    // flat state storage
    arena: StateArena,
    nodes: NodeTable,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    /// Prune cutoff: successors with `g + h ≥ cutoff` are dropped. This
    /// is `min(seeded upper bound + 1, best goal distance seen)` — both
    /// components are upper bounds realized by concrete pebblings (the
    /// seed externally, the goal by its own parent chain), so at least
    /// one optimal path always stays strictly below it.
    cutoff: u64,
    /// The structural floor ([`bounds::best_lower_bound`], scaled): a
    /// *discovered* goal at this distance is already provably optimal,
    /// so the search may return it without draining the heap to settle
    /// it. Only consulted under `prune`; the brute-force reference runs
    /// to settlement.
    floor: u128,
    /// `(dist, id)` of the cheapest goal *discovered* (relaxed, not yet
    /// necessarily settled). This is what a budget-expired solve returns
    /// as its incumbent.
    best_goal: (u64, u32),
    /// States popped and expanded so far.
    expanded: usize,
}

impl<'a> Search<'a> {
    /// A search of `instance` over `planes` red planes (1 for the classic
    /// game, the processor count for the multiprocessor one).
    pub(crate) fn new(instance: &'a Instance, cfg: ExactConfig, planes: usize) -> Self {
        let exp = Expander::new(instance, planes, cfg.prune, cfg.astar);
        let cutoff = cfg.seed_cutoff();
        let key_words = exp.key_words();
        Search {
            cfg,
            exp,
            #[cfg(debug_assertions)]
            check: Expander::new(instance, planes, cfg.prune, cfg.astar),
            arena: StateArena::new(key_words),
            nodes: NodeTable::new(),
            heap: BinaryHeap::new(),
            cutoff,
            floor: instance.scaled_cost(&bounds::best_lower_bound(instance)),
            best_goal: (u64::MAX, NO_STATE),
            expanded: 0,
        }
    }

    /// `(states expanded, states seen)` so far — also after a run that
    /// ended without a goal.
    pub(crate) fn counters(&self) -> (usize, usize) {
        (self.expanded, self.arena.len())
    }

    /// Runs the search. Returns a goal's trace plus whether it is proved
    /// optimal: `true` when the search settled a goal (or met the
    /// structural floor), `false` when the budget expired and the trace
    /// reaches the best goal *discovered* so far (a valid upper bound).
    /// Expiring before any goal was discovered is
    /// [`SolveError::Interrupted`] — the api layer degrades to its greedy
    /// seed there.
    pub(crate) fn run(&mut self, ctx: &SolveCtx) -> Result<Found, SolveError> {
        let t0 = Instant::now();
        let budget_live = !ctx.budget.is_unlimited();
        // an already-exhausted budget (pre-set cancel flag, elapsed
        // deadline) stops before any work; in-loop polls then only fire
        // every BUDGET_POLL_INTERVAL real expansions
        if budget_live && ctx.budget.exhausted(0) {
            return self.interrupted();
        }
        let init = self.exp.initial_key();
        let (root, fresh) = self.arena.intern(&init);
        debug_assert!(fresh);
        let root_meta = self.exp.meta_scan(&init);
        self.nodes
            .push(root_meta.red, root_meta.unsat, root_meta.heur);
        self.nodes.dist[root as usize] = 0;
        self.heap.push(Reverse((root_meta.heur, root)));

        let mut key_buf: Vec<u64> = Vec::with_capacity(self.exp.key_words());
        while let Some(Reverse((_prio, id))) = self.heap.pop() {
            let idx = id as usize;
            if self.nodes.settled[idx] {
                continue;
            }
            self.nodes.settled[idx] = true;
            key_buf.clear();
            key_buf.extend_from_slice(self.arena.key(id));
            let d = self.nodes.dist[idx];
            let meta = Meta {
                red: self.nodes.red_count[idx],
                unsat: self.nodes.unsat_sinks[idx],
                heur: self.nodes.heur[idx],
            };
            self.expanded += 1;
            let expanded = self.expanded;
            // cooperative budget poll, amortized over a quantum of *real*
            // expansions (stale pops skip it above, so a streak of
            // settled duplicates cannot re-fire the deadline check or
            // deliver duplicate progress snapshots)
            if budget_live
                && expanded.is_multiple_of(BUDGET_POLL_INTERVAL)
                && ctx.budget.exhausted(expanded as u64)
            {
                return self.interrupted();
            }
            if expanded.is_multiple_of(PROGRESS_INTERVAL) {
                if let Some(observer) = ctx.progress {
                    observer(&self.progress(t0));
                }
            }

            if meta.is_goal() {
                return Ok((self.trace_to(id), true));
            }
            if self.exp.is_dead(&key_buf) {
                continue;
            }

            // destructure so the expander and the storage borrow disjointly
            let Search {
                exp,
                #[cfg(debug_assertions)]
                check,
                arena,
                nodes,
                heap,
                cutoff,
                cfg,
                best_goal,
                ..
            } = self;
            exp.expand(&key_buf, meta, |succ, mv, cost, child| {
                let nd = d + cost;
                let f = nd.saturating_add(child.heur);
                if f >= *cutoff {
                    return Ok(());
                }
                let (cid, fresh) = arena.intern(succ);
                if fresh {
                    // the deltas must agree with a full rescan of the key
                    #[cfg(debug_assertions)]
                    debug_assert_eq!(child, check.meta_scan(succ));
                    nodes.push(child.red, child.unsat, child.heur);
                    if arena.len() > cfg.max_states {
                        return Err(SolveError::StateLimitExceeded {
                            limit: cfg.max_states,
                        });
                    }
                }
                let cidx = cid as usize;
                if !nodes.settled[cidx] && nd < nodes.dist[cidx] {
                    nodes.dist[cidx] = nd;
                    nodes.parent[cidx] = (id, mv);
                    heap.push(Reverse((f, cid)));
                    if child.is_goal() && nd < best_goal.0 {
                        // remember the cheapest goal discovered: it is
                        // the incumbent a budget-expired solve returns
                        *best_goal = (nd, cid);
                        // and it tightens the prune cutoff immediately:
                        // nothing at-or-beyond it can improve the answer
                        if cfg.prune && nd < *cutoff {
                            *cutoff = nd;
                        }
                    }
                }
                Ok(())
            })?;
            // a discovered goal that meets the structural floor is
            // already provably optimal: floor ≤ optimum ≤ any realized
            // goal distance, so equality pins it — return without
            // draining the heap to settle it
            if self.cfg.prune
                && self.best_goal.1 != NO_STATE
                && u128::from(self.best_goal.0) <= self.floor
            {
                let (_, goal) = self.best_goal;
                return Ok((self.trace_to(goal), true));
            }
        }
        Err(SolveError::NoPebblingFound)
    }

    /// The trace to a settled-or-discovered goal state, rebuilt by
    /// walking parent pointers back to the root. Each move is tagged with
    /// the plane it acted on ([`Expander::plane_of`]), so one-plane traces
    /// stay untagged. Called exactly once per solve.
    fn trace_to(&self, goal: u32) -> Pebbling {
        let mut steps = Vec::new();
        let mut id = goal;
        while self.nodes.parent[id as usize].0 != NO_STATE {
            let (prev, mv) = self.nodes.parent[id as usize];
            let plane = self
                .exp
                .plane_of(self.arena.key(prev), self.arena.key(id), mv);
            steps.push((mv, plane));
            id = prev;
        }
        let mut trace = Pebbling::with_capacity(steps.len());
        for &(mv, plane) in steps.iter().rev() {
            trace.push_on(mv, plane);
        }
        trace
    }

    /// Budget expiry: return the best goal discovered so far as a
    /// (non-optimal) incumbent, or [`SolveError::Interrupted`] when none
    /// exists yet.
    fn interrupted(&self) -> Result<Found, SolveError> {
        let (g, id) = self.best_goal;
        if id == NO_STATE {
            return Err(SolveError::Interrupted);
        }
        debug_assert!(g < u64::MAX);
        Ok((self.trace_to(id), false))
    }

    fn progress(&self, t0: Instant) -> Progress {
        let elapsed = t0.elapsed();
        let secs = elapsed.as_secs_f64();
        let expanded = self.expanded;
        Progress {
            elapsed,
            states_expanded: expanded as u64,
            states_per_sec: if secs > 0.0 {
                (expanded as f64 / secs) as u64
            } else {
                0
            },
            frontier: self.heap.len(),
            incumbent: match (self.best_goal.0, self.cfg.upper_bound) {
                (u64::MAX, ub) => ub,
                (g, Some(ub)) => Some(g.min(ub)),
                (g, None) => Some(g),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{ExactSolver, Solution, Solver};
    use rbp_core::{engine, CostModel, ModelKind, SourceConvention};
    use rbp_graph::{generate, DagBuilder};

    /// The unseeded search under `cfg`: its effort depends on `cfg` alone.
    fn solve_with(instance: &Instance, cfg: ExactConfig) -> Result<Solution, SolveError> {
        ExactSolver::with_config(cfg)
            .unseeded()
            .solve_default(instance)
    }

    fn solve(instance: &Instance) -> Result<Solution, SolveError> {
        solve_with(instance, ExactConfig::default())
    }

    fn reference(instance: &Instance) -> Solution {
        ExactSolver::reference().solve_default(instance).unwrap()
    }

    fn check_optimal(instance: &Instance, expect_scaled: u64) {
        let sol = solve(instance).unwrap();
        assert!(sol.is_optimal());
        let sim = engine::simulate(instance, &sol.trace).unwrap();
        assert!(sim.peak_red <= instance.red_limit());
        assert_eq!(sol.scaled_cost(instance), expect_scaled as u128);
    }

    #[test]
    fn chain_is_free_with_two_pebbles_oneshot() {
        let inst = Instance::new(generate::chain(6), 2, CostModel::oneshot());
        check_optimal(&inst, 0);
    }

    #[test]
    fn chain_infeasible_with_one_pebble() {
        let inst = Instance::new(generate::chain(3), 1, CostModel::oneshot());
        assert!(matches!(solve(&inst), Err(SolveError::Pebbling(_))));
    }

    #[test]
    fn join_is_free_with_three_pebbles() {
        let mut b = DagBuilder::new(3);
        b.add_edge(0, 2);
        b.add_edge(1, 2);
        let inst = Instance::new(b.build().unwrap(), 3, CostModel::oneshot());
        check_optimal(&inst, 0);
    }

    #[test]
    fn two_joins_sharing_inputs_tight_memory() {
        // 0,1 -> 3 ; 1,2 -> 4, with R = 3: an optimal order interleaves to
        // avoid transfers entirely (compute 0,1,3; drop 0&3 handling...).
        let mut b = DagBuilder::new(5);
        b.add_edge(0, 3);
        b.add_edge(1, 3);
        b.add_edge(1, 4);
        b.add_edge(2, 4);
        let inst = Instance::new(b.build().unwrap(), 3, CostModel::oneshot());
        // compute 0,1 (2 red), compute 3 (3 red), store 3? No: delete 0
        // (never needed again), compute 2, compute 4 needs slot: 3 is a
        // sink -> store costs 1? But delete 3 is illegal-to-win... Actually
        // after computing 3 we can store nothing: red = {0,1,3}. Delete 0
        // (free) -> {1,3}, compute 2 -> {1,2,3}, need slot for 4: store 3
        // (sink, must keep) cost 1... or could we have stored 3 earlier?
        // Any way round, one transfer is forced: R=3, two sinks + shared
        // input... The exact solver decides: assert optimum is 1.
        check_optimal(&inst, 1);
    }

    #[test]
    fn nodel_chain_must_store_everything_but_last_two() {
        // nodel, chain of 5, R = 2: pebbles cannot be deleted, so nodes
        // 0, 1, 2 are each stored once when their slot is needed; the last
        // two nodes end red. Cost = n − R = 3 (the Section-4 lower bound,
        // tight here).
        let inst = Instance::new(generate::chain(5), 2, CostModel::nodel());
        check_optimal(&inst, 3);
    }

    #[test]
    fn base_chain_is_free_via_deletion() {
        let inst = Instance::new(generate::chain(5), 2, CostModel::base());
        check_optimal(&inst, 0);
    }

    #[test]
    fn compcost_chain_costs_epsilon_per_node() {
        // R=2 suffices; each node computed exactly once: scaled cost = n·num
        let inst = Instance::new(generate::chain(5), 2, CostModel::compcost());
        check_optimal(&inst, 5);
    }

    #[test]
    fn pruned_matches_reference_on_small_dags() {
        let mut rng = rand::thread_rng();
        for kind in ModelKind::ALL {
            for _ in 0..6 {
                let dag = generate::gnp_dag(6, 0.4, 2, &mut rng);
                let r = dag.max_indegree() + 1;
                let inst = Instance::new(dag, r, CostModel::of_kind(kind));
                let fast = solve(&inst).unwrap();
                let slow = reference(&inst);
                assert_eq!(
                    fast.scaled_cost(&inst),
                    slow.scaled_cost(&inst),
                    "prune changed optimum for {kind} on {:?}",
                    inst
                );
            }
        }
    }

    #[test]
    fn astar_matches_dijkstra() {
        let mut rng = rand::thread_rng();
        for _ in 0..5 {
            let dag = generate::layered(3, 3, 2, &mut rng);
            let inst = Instance::new(dag, 3, CostModel::oneshot());
            let astar = solve_with(
                &inst,
                ExactConfig {
                    astar: true,
                    ..ExactConfig::default()
                },
            )
            .unwrap();
            let dij = solve_with(
                &inst,
                ExactConfig {
                    astar: false,
                    ..ExactConfig::default()
                },
            )
            .unwrap();
            assert_eq!(astar.cost, dij.cost);
            assert!(astar.states_expanded().unwrap() <= dij.states_expanded().unwrap() + 5);
        }
    }

    #[test]
    fn state_limit_respected() {
        let mut rng = rand::thread_rng();
        let dag = generate::layered(4, 4, 3, &mut rng);
        let inst = Instance::new(dag, 5, CostModel::oneshot());
        let res = solve_with(
            &inst,
            ExactConfig {
                max_states: 10,
                ..ExactConfig::default()
            },
        );
        assert_eq!(
            res.unwrap_err(),
            SolveError::StateLimitExceeded { limit: 10 }
        );
    }

    #[test]
    fn optimum_monotone_in_r() {
        let mut b = DagBuilder::new(6);
        b.add_edge(0, 3);
        b.add_edge(1, 3);
        b.add_edge(1, 4);
        b.add_edge(2, 4);
        b.add_edge(3, 5);
        b.add_edge(4, 5);
        let dag = b.build().unwrap();
        let mut prev = u128::MAX;
        for r in 3..=6 {
            let inst = Instance::new(dag.clone(), r, CostModel::oneshot());
            let c = solve(&inst).unwrap().scaled_cost(&inst);
            assert!(c <= prev, "opt must not increase with more red pebbles");
            prev = c;
        }
    }

    #[test]
    fn initially_blue_sources_cost_loads() {
        // chain of 2 with blue-start sources: must load the source (1),
        // then compute the sink: optimum 1.
        let inst = Instance::new(generate::chain(2), 2, CostModel::oneshot())
            .with_source_convention(SourceConvention::InitiallyBlue);
        check_optimal(&inst, 1);
    }

    #[test]
    fn require_blue_sinks_adds_final_store() {
        let inst = Instance::new(generate::chain(2), 2, CostModel::oneshot())
            .with_sink_convention(rbp_core::SinkConvention::RequireBlue);
        check_optimal(&inst, 1);
    }

    #[test]
    fn require_blue_matches_reference_across_models() {
        // the RequireBlue unsat-delta table is exercised against the
        // unpruned reference, like the main matrix does for AnyPebble
        let mut rng = rand::thread_rng();
        for kind in ModelKind::ALL {
            for _ in 0..3 {
                let dag = generate::gnp_dag(5, 0.4, 2, &mut rng);
                let r = dag.max_indegree() + 1;
                let inst = Instance::new(dag, r, CostModel::of_kind(kind))
                    .with_sink_convention(rbp_core::SinkConvention::RequireBlue);
                let fast = solve(&inst).unwrap();
                let slow = reference(&inst);
                assert_eq!(
                    fast.scaled_cost(&inst),
                    slow.scaled_cost(&inst),
                    "prune changed RequireBlue optimum for {kind} on {:?}",
                    inst
                );
            }
        }
    }

    #[test]
    fn incumbent_bound_preserves_optimum() {
        // seed with the loosest and the exactly-tight bound; the optimum
        // and a valid trace must survive both
        let mut rng = rand::thread_rng();
        for kind in ModelKind::ALL {
            for _ in 0..4 {
                let dag = generate::gnp_dag(6, 0.4, 2, &mut rng);
                let r = dag.max_indegree() + 1;
                let inst = Instance::new(dag, r, CostModel::of_kind(kind));
                let plain = solve(&inst).unwrap();
                let opt = plain.scaled_cost(&inst) as u64;
                for bound in [opt, opt + 1, opt + 100] {
                    let seeded = solve_with(
                        &inst,
                        ExactConfig {
                            upper_bound: Some(bound),
                            ..ExactConfig::default()
                        },
                    )
                    .unwrap();
                    assert_eq!(
                        seeded.scaled_cost(&inst),
                        opt as u128,
                        "incumbent bound {bound} changed the optimum ({kind})"
                    );
                    assert!(seeded.states_seen() <= plain.states_seen());
                }
            }
        }
    }

    #[test]
    fn tight_incumbent_shrinks_the_search() {
        // on a positive-cost instance, seeding with the exact optimum
        // must intern strictly fewer states than the unseeded run; a
        // height-3 binary in-tree at R=3 forces spills under base (its
        // black-pebbling number is 4)
        let mut b = DagBuilder::new(15);
        for parent in 0..7 {
            b.add_edge(2 * parent + 1, parent);
            b.add_edge(2 * parent + 2, parent);
        }
        let inst = Instance::new(b.build().unwrap(), 3, CostModel::base());
        let plain = solve(&inst).unwrap();
        let opt = plain.scaled_cost(&inst) as u64;
        let seeded = solve_with(
            &inst,
            ExactConfig {
                upper_bound: Some(opt),
                ..ExactConfig::default()
            },
        )
        .unwrap();
        assert_eq!(seeded.cost, plain.cost);
        assert!(
            seeded.states_seen() < plain.states_seen(),
            "tight bound should prune interns ({:?} vs {:?})",
            seeded.states_seen(),
            plain.states_seen()
        );
    }
}
