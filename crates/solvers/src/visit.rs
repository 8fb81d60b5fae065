//! Visit-order solvers for input-group DAGs.
//!
//! All of the paper's hardness constructions (Theorems 2–4) are built from
//! *input groups*: sets of nodes that all feed one or more *target* nodes,
//! with group sizes chosen so that computing a target requires every
//! available red pebble. The paper's analyses show that on such DAGs a
//! pebbling is characterized by the order in which the groups are visited;
//! the cost is then determined by which values must round-trip through
//! slow memory between visits.
//!
//! This module provides:
//! - [`GroupedDag`]: the group structure over a DAG, with dependencies
//!   derived from target-in-other-group membership;
//! - a deterministic scheduler ([`GroupedDag::emit`]) that turns a visit
//!   order into a concrete move trace (legal in all four models), spilling
//!   on demand — dead values are deleted for free, sinks are stored, live
//!   values are stored and reloaded;
//! - [`best_order`]: exact branch-and-bound over all dependency-respecting
//!   visit orders, scored by the scheduler's true (engine-identical) cost;
//! - [`held_karp`]: O(2^k·k²) DP over visit orders for pairwise
//!   transition-cost models, used by the reductions for larger instances
//!   and cross-validated against [`best_order`] in tests.

use crate::error::SolveError;
use rbp_core::{Cost, Instance, Move, Pebbling, State};
use rbp_graph::NodeId;

/// One input group: `inputs` all have edges to every node in `targets`
/// (the DAG itself is the source of truth; this is the schedule view).
#[derive(Clone, Debug)]
pub struct GroupSpec {
    /// The group members that must simultaneously hold red pebbles.
    pub inputs: Vec<NodeId>,
    /// The nodes computed while the group is held red.
    pub targets: Vec<NodeId>,
}

/// A DAG viewed as a collection of input groups.
#[derive(Clone, Debug)]
pub struct GroupedDag {
    groups: Vec<GroupSpec>,
    /// deps[g] = groups whose targets appear among g's inputs (must be
    /// visited before g).
    deps: Vec<Vec<usize>>,
    /// member_groups[node] = groups that list the node as an input.
    member_groups: Vec<Vec<u32>>,
}

impl GroupedDag {
    /// Builds the group view. `n_nodes` is the underlying DAG's node
    /// count; dependencies are derived from targets appearing as inputs
    /// of other groups.
    pub fn new(n_nodes: usize, groups: Vec<GroupSpec>) -> Self {
        let mut target_owner: Vec<Option<u32>> = vec![None; n_nodes];
        for (gi, g) in groups.iter().enumerate() {
            for &t in &g.targets {
                target_owner[t.index()] = Some(gi as u32);
            }
        }
        let mut member_groups: Vec<Vec<u32>> = vec![Vec::new(); n_nodes];
        let mut deps: Vec<Vec<usize>> = vec![Vec::new(); groups.len()];
        for (gi, g) in groups.iter().enumerate() {
            for &u in &g.inputs {
                member_groups[u.index()].push(gi as u32);
                if let Some(owner) = target_owner[u.index()] {
                    if owner as usize != gi && !deps[gi].contains(&(owner as usize)) {
                        deps[gi].push(owner as usize);
                    }
                }
            }
        }
        GroupedDag {
            groups,
            deps,
            member_groups,
        }
    }

    /// The groups.
    pub fn groups(&self) -> &[GroupSpec] {
        &self.groups
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether there are no groups.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Group dependency lists (indices of groups that must precede).
    pub fn deps(&self) -> &[Vec<usize>] {
        &self.deps
    }

    /// Whether `order` is a permutation of all groups respecting deps.
    pub fn is_valid_order(&self, order: &[usize]) -> bool {
        if order.len() != self.groups.len() {
            return false;
        }
        let mut pos = vec![usize::MAX; self.groups.len()];
        for (i, &g) in order.iter().enumerate() {
            if g >= self.groups.len() || pos[g] != usize::MAX {
                return false;
            }
            pos[g] = i;
        }
        (0..self.groups.len()).all(|g| self.deps[g].iter().all(|&d| pos[d] < pos[g]))
    }

    /// Emits the concrete pebbling for a visit order, starting from the
    /// instance's initial configuration.
    pub fn emit(&self, instance: &Instance, order: &[usize]) -> Result<Pebbling, SolveError> {
        let mut state = State::initial(instance);
        let mut trace = Pebbling::new();
        self.emit_onto(instance, order, &mut state, &mut trace)?;
        Ok(trace)
    }

    /// Emits onto an existing state/trace (used after a construction's
    /// prologue, e.g. the H2C phase that computes the former sources).
    pub fn emit_onto(
        &self,
        instance: &Instance,
        order: &[usize],
        state: &mut State,
        trace: &mut Pebbling,
    ) -> Result<(), SolveError> {
        let mut uses = self.initial_uses();
        for (step, &g) in order.iter().enumerate() {
            let mut sink = |mv: Move| trace.push(mv);
            self.visit_group(instance, g, state, &mut uses, &mut sink)
                .map_err(|e| match e {
                    SolveError::OrderDependencyViolated { .. } => {
                        SolveError::OrderDependencyViolated { group: step }
                    }
                    other => other,
                })?;
        }
        Ok(())
    }

    fn initial_uses(&self) -> Vec<u32> {
        self.member_groups
            .iter()
            .map(|groups| groups.len() as u32)
            .collect()
    }

    /// Visits one group: makes all inputs red (loading, or computing
    /// sources first-time), computes its targets, and decrements input
    /// use-counts. Emits moves into `out` and returns the scaled cost
    /// delta. This is the single cost authority the searches share.
    fn visit_group(
        &self,
        instance: &Instance,
        g: usize,
        state: &mut State,
        uses: &mut [u32],
        out: &mut impl FnMut(Move),
    ) -> Result<u128, SolveError> {
        let dag = instance.dag();
        let mut scaled = 0u128;
        let spec = &self.groups[g];

        // acquire inputs
        for &u in &spec.inputs {
            if state.is_red(u) {
                continue;
            }
            scaled += self.ensure_slot(instance, state, uses, &spec.inputs, out)?;
            let recomputable_source = dag.is_source(u) && instance.model().allows_recompute();
            if state.is_blue(u) {
                // a blue *source* is recomputed in place of a load where
                // the model allows it (free in base/nodel, ε in compcost
                // — always at most the load's cost 1)
                let mv = if recomputable_source {
                    Move::Compute(u)
                } else {
                    Move::Load(u)
                };
                scaled += apply_move(instance, state, mv, out)?;
            } else if !state.is_computed(u) && dag.is_source(u) {
                scaled += apply_move(instance, state, Move::Compute(u), out)?;
            } else if state.is_computed(u) && recomputable_source {
                // base/compcost: a deleted source is recomputed cheaply
                scaled += apply_move(instance, state, Move::Compute(u), out)?;
            } else {
                // an uncomputed non-source input: its owning group was not
                // visited yet
                return Err(SolveError::OrderDependencyViolated { group: g });
            }
        }

        // compute targets (earlier targets of the same visit are evictable
        // unless they feed the next target — e.g. the chain of an expanded
        // CD ladder — so the pin set is inputs ∪ preds(target))
        let mut pinned: Vec<NodeId> = Vec::with_capacity(spec.inputs.len() + 2);
        for &t in &spec.targets {
            pinned.clear();
            pinned.extend_from_slice(&spec.inputs);
            for &p in dag.preds(t) {
                if !pinned.contains(&p) {
                    pinned.push(p);
                }
            }
            scaled += self.ensure_slot(instance, state, uses, &pinned, out)?;
            scaled += apply_move(instance, state, Move::Compute(t), out)?;
        }

        for &u in &spec.inputs {
            uses[u.index()] -= 1;
        }
        Ok(scaled)
    }

    /// Frees a red slot if needed. Victims in preference order:
    /// *disposable* values — dead non-sinks, plus sources the model can
    /// recompute cheaply — are deleted free (stored in nodel); then sinks
    /// (stored once, never reloaded); then live values with the fewest
    /// remaining group-uses (stored, reloaded later).
    fn ensure_slot(
        &self,
        instance: &Instance,
        state: &mut State,
        uses: &[u32],
        pinned: &[NodeId],
        out: &mut impl FnMut(Move),
    ) -> Result<u128, SolveError> {
        let mut scaled = 0u128;
        while state.red_count() >= instance.red_limit() {
            let dag = instance.dag();
            let is_pinned = |v: usize| pinned.iter().any(|p| p.index() == v);
            let mut dead: Option<usize> = None;
            let mut sink: Option<usize> = None;
            let mut live: Option<(u32, usize)> = None;
            for v in state.red_set().iter() {
                if is_pinned(v) {
                    continue;
                }
                let node = NodeId::new(v);
                let disposable = uses[v] == 0
                    || (dag.is_source(node)
                        && instance.model().allows_recompute()
                        && instance.model().allows_delete());
                if dag.is_sink(node) {
                    sink.get_or_insert(v);
                } else if disposable {
                    dead.get_or_insert(v);
                } else if live.is_none() || (uses[v], v) < live.unwrap() {
                    live = Some((uses[v], v));
                }
            }
            let (victim, dispose) = if let Some(v) = dead {
                (v, instance.model().allows_delete())
            } else if let Some(v) = sink {
                (v, false)
            } else if let Some((_, v)) = live {
                (v, false)
            } else {
                unreachable!("all red pebbles pinned; instance infeasible for this group");
            };
            let node = NodeId::new(victim);
            let mv = if dispose {
                Move::Delete(node)
            } else {
                Move::Store(node)
            };
            let c = state.apply(mv, instance).map_err(SolveError::Pebbling)?;
            out(mv);
            scaled += instance.scaled_cost(&c);
        }
        Ok(scaled)
    }
}

/// Applies one move, forwards it to the sink, and returns its scaled cost.
fn apply_move(
    instance: &Instance,
    state: &mut State,
    mv: Move,
    out: &mut impl FnMut(Move),
) -> Result<u128, SolveError> {
    let c = state.apply(mv, instance).map_err(SolveError::Pebbling)?;
    out(mv);
    Ok(instance.scaled_cost(&c))
}

/// Result of a visit-order search.
#[derive(Clone, Debug)]
pub struct OrderResult {
    /// The best order found.
    pub order: Vec<usize>,
    /// Its exact cost (engine-identical).
    pub cost: Cost,
    /// The concrete trace for that order.
    pub trace: Pebbling,
    /// Scaled cost (comparison key).
    pub scaled: u128,
}

/// Exhaustive branch-and-bound over all dependency-respecting visit
/// orders, scored with the scheduler's exact cost. Exponential in the
/// group count — intended for the reduction experiments' instance sizes
/// (≤ ~10 groups).
pub fn best_order(grouped: &GroupedDag, instance: &Instance) -> Result<OrderResult, SolveError> {
    best_order_from(grouped, instance, &State::initial(instance))
}

/// Like [`best_order`], but starting from a given configuration — used
/// after a construction prologue (e.g. the H2C phase that computes and
/// parks the former sources). The returned trace and cost cover only the
/// scheduled part, not the prologue.
pub fn best_order_from(
    grouped: &GroupedDag,
    instance: &Instance,
    initial: &State,
) -> Result<OrderResult, SolveError> {
    let k = grouped.len();
    if k == 0 {
        return Ok(OrderResult {
            order: Vec::new(),
            cost: Cost::ZERO,
            trace: Pebbling::new(),
            scaled: 0,
        });
    }
    let mut best_scaled = u128::MAX;
    let mut best_order_out: Option<Vec<usize>> = None;

    struct Frame {
        state: State,
        uses: Vec<u32>,
        visited: Vec<bool>,
        order: Vec<usize>,
        scaled: u128,
    }

    let mut stack = vec![Frame {
        state: initial.clone(),
        uses: grouped.initial_uses(),
        visited: vec![false; k],
        order: Vec::new(),
        scaled: 0,
    }];

    while let Some(frame) = stack.pop() {
        if frame.order.len() == k {
            if frame.scaled < best_scaled {
                best_scaled = frame.scaled;
                best_order_out = Some(frame.order.clone());
            }
            continue;
        }
        for g in 0..k {
            if frame.visited[g] {
                continue;
            }
            if !grouped.deps[g].iter().all(|&d| frame.visited[d]) {
                continue;
            }
            let mut state = frame.state.clone();
            let mut uses = frame.uses.clone();
            let mut discard = |_mv: Move| {};
            let delta = match grouped.visit_group(instance, g, &mut state, &mut uses, &mut discard)
            {
                Ok(d) => d,
                Err(SolveError::OrderDependencyViolated { .. }) => continue,
                Err(e) => return Err(e),
            };
            let scaled = frame.scaled + delta;
            if scaled >= best_scaled {
                continue; // bound: costs only grow
            }
            let mut visited = frame.visited.clone();
            visited[g] = true;
            let mut order = frame.order.clone();
            order.push(g);
            stack.push(Frame {
                state,
                uses,
                visited,
                order,
                scaled,
            });
        }
    }

    let order = best_order_out.ok_or(SolveError::NoPebblingFound)?;
    let mut state = initial.clone();
    let mut trace = Pebbling::new();
    grouped.emit_onto(instance, &order, &mut state, &mut trace)?;
    let cost = trace.stats().cost();
    Ok(OrderResult {
        scaled: instance.scaled_cost(&cost),
        cost,
        order,
        trace,
    })
}

/// Held–Karp DP over visit orders for *pairwise* transition-cost models:
/// `trans(prev, next)` is the cost charged when `next` is visited right
/// after `prev` (`prev = None` for the first visit). Respects `deps`.
/// Returns the minimal total and an optimal order, or `None` if no valid
/// order exists. O(2^k · k²) time, O(2^k · k) memory — k ≤ 24 or so.
pub fn held_karp(
    k: usize,
    deps: &[Vec<usize>],
    trans: impl Fn(Option<usize>, usize) -> u64,
) -> Option<(u64, Vec<usize>)> {
    assert!(k <= 24, "held_karp is exponential; k = {k} too large");
    if k == 0 {
        return Some((0, Vec::new()));
    }
    let full: u32 = if k == 32 { u32::MAX } else { (1u32 << k) - 1 };
    let dep_masks: Vec<u32> = (0..k)
        .map(|g| deps[g].iter().fold(0u32, |m, &d| m | (1 << d)))
        .collect();
    let size = 1usize << k;
    let mut dp = vec![u64::MAX; size * k];
    let mut parent = vec![u8::MAX; size * k];
    for g in 0..k {
        if dep_masks[g] == 0 {
            dp[(1usize << g) * k + g] = trans(None, g);
        }
    }
    for mask in 1..=full {
        let m = mask as usize;
        for last in 0..k {
            let cur = dp[m * k + last];
            if cur == u64::MAX || mask & (1 << last) == 0 {
                continue;
            }
            for next in 0..k {
                if mask & (1 << next) != 0 {
                    continue;
                }
                // next's dependencies must be contained in mask
                if dep_masks[next] & !mask != 0 {
                    continue;
                }
                let nm = (mask | (1 << next)) as usize;
                let cand = cur.saturating_add(trans(Some(last), next));
                if cand < dp[nm * k + next] {
                    dp[nm * k + next] = cand;
                    parent[nm * k + next] = last as u8;
                }
            }
        }
    }
    let fm = full as usize;
    let (best_last, &best) = (0..k)
        .map(|g| (g, &dp[fm * k + g]))
        .min_by_key(|&(_, c)| *c)?;
    if best == u64::MAX {
        return None;
    }
    // reconstruct
    let mut order = Vec::with_capacity(k);
    let mut mask = full as usize;
    let mut last = best_last;
    loop {
        order.push(last);
        let p = parent[mask * k + last];
        let prev_mask = mask & !(1usize << last);
        if prev_mask == 0 {
            break;
        }
        mask = prev_mask;
        last = p as usize;
    }
    order.reverse();
    Some((best, order))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{ExactSolver, Solver};
    use rbp_core::CostModel;
    use rbp_graph::DagBuilder;

    /// Two disjoint input groups of size 2 sharing one node, each with one
    /// target; R = 3.
    fn overlap_construction() -> (GroupedDag, Instance) {
        let mut b = DagBuilder::new(0);
        let a1 = b.add_node(); // group A: {a1, shared}
        let shared = b.add_node();
        let b1 = b.add_node(); // group B: {shared, b1}
        let ta = b.add_node();
        let tb = b.add_node();
        b.add_group_edges(&[a1, shared], ta);
        b.add_group_edges(&[shared, b1], tb);
        let dag = b.build().unwrap();
        let grouped = GroupedDag::new(
            dag.n(),
            vec![
                GroupSpec {
                    inputs: vec![a1, shared],
                    targets: vec![ta],
                },
                GroupSpec {
                    inputs: vec![shared, b1],
                    targets: vec![tb],
                },
            ],
        );
        (grouped, Instance::new(dag, 3, CostModel::oneshot()))
    }

    #[test]
    fn emit_produces_valid_trace() {
        let (grouped, inst) = overlap_construction();
        for order in [[0usize, 1], [1, 0]] {
            let trace = grouped.emit(&inst, &order).unwrap();
            let rep = rbp_core::simulate(&inst, &trace).unwrap();
            assert!(rep.peak_red <= 3);
        }
    }

    #[test]
    fn emit_cost_accounts_for_shared_nodes() {
        let (grouped, inst) = overlap_construction();
        // visiting consecutively: shared node stays red. Cost: ta must be
        // stored when B needs its slot (ta is a sink) → 1 transfer.
        let trace = grouped.emit(&inst, &[0, 1]).unwrap();
        let rep = rbp_core::simulate(&inst, &trace).unwrap();
        assert_eq!(rep.cost.transfers, 1);
    }

    #[test]
    fn best_order_matches_exhaustive_exact() {
        let (grouped, inst) = overlap_construction();
        let best = best_order(&grouped, &inst).unwrap();
        // cross-check against the unrestricted exact solver: visit-order
        // pebblings are optimal on input-group DAGs (paper, Sections 6–8)
        let exact = ExactSolver::new().solve_default(&inst).unwrap();
        assert_eq!(
            best.scaled,
            exact.scaled_cost(&inst),
            "visit-order optimum diverges from true optimum"
        );
    }

    #[test]
    fn dependencies_derived_from_targets() {
        // group 1's input includes group 0's target
        let mut b = DagBuilder::new(0);
        let x = b.add_node();
        let t0 = b.add_node();
        let y = b.add_node();
        let t1 = b.add_node();
        b.add_group_edges(&[x], t0);
        b.add_group_edges(&[t0, y], t1);
        let dag = b.build().unwrap();
        let grouped = GroupedDag::new(
            dag.n(),
            vec![
                GroupSpec {
                    inputs: vec![x],
                    targets: vec![t0],
                },
                GroupSpec {
                    inputs: vec![t0, y],
                    targets: vec![t1],
                },
            ],
        );
        assert_eq!(grouped.deps()[1], vec![0]);
        assert!(grouped.is_valid_order(&[0, 1]));
        assert!(!grouped.is_valid_order(&[1, 0]));
        // emitting the invalid order fails
        let inst = Instance::new(dag, 3, CostModel::oneshot());
        assert!(matches!(
            grouped.emit(&inst, &[1, 0]),
            Err(SolveError::OrderDependencyViolated { .. })
        ));
        assert!(grouped.emit(&inst, &[0, 1]).is_ok());
    }

    #[test]
    fn held_karp_finds_cheapest_path_order() {
        // 3 groups, no deps; trans cost = |prev - next| with first free
        let (cost, order) = held_karp(3, &[vec![], vec![], vec![]], |prev, next| match prev {
            None => 0,
            Some(p) => (p as i64 - next as i64).unsigned_abs(),
        })
        .unwrap();
        assert_eq!(cost, 2, "monotone order 0,1,2 (or reverse) costs 1+1");
        assert!(order == vec![0, 1, 2] || order == vec![2, 1, 0]);
    }

    #[test]
    fn held_karp_respects_dependencies() {
        // 1 depends on 0; make 1-first nominally cheaper to tempt it
        let deps = vec![vec![], vec![0]];
        let (cost, order) = held_karp(2, &deps, |prev, next| match (prev, next) {
            (None, 1) => 0,
            (None, 0) => 5,
            _ => 1,
        })
        .unwrap();
        assert_eq!(order, vec![0, 1]);
        assert_eq!(cost, 6);
    }

    #[test]
    fn held_karp_detects_impossible_deps() {
        // circular dependency: no valid order
        let deps = vec![vec![1], vec![0]];
        assert!(held_karp(2, &deps, |_, _| 1).is_none());
    }

    #[test]
    fn held_karp_matches_best_order_on_construction() {
        let (grouped, inst) = overlap_construction();
        let best = best_order(&grouped, &inst).unwrap();
        // pairwise model: consecutive overlap saves 2 transfers per shared
        // node; derive transition costs by probing the scheduler
        let probe = |order: &[usize]| {
            let trace = grouped.emit(&inst, order).unwrap();
            rbp_core::simulate(&inst, &trace)
                .unwrap()
                .cost
                .scaled(inst.model().epsilon()) as u64
        };
        let c01 = probe(&[0, 1]);
        let c10 = probe(&[1, 0]);
        assert_eq!(best.scaled as u64, c01.min(c10));
    }
}
