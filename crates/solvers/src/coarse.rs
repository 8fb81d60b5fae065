//! Hierarchical scale-out: the DAG-coarsening solver (`coarse[:K]`).
//!
//! [`CoarseSolver`] splits an instance into `K` acyclic groups
//! ([`rbp_graph::partition()`]), solves each group's sub-instance
//! independently with any inner registry solver, and stitches the
//! per-group traces into one engine-validated global pebbling. Values
//! crossing a group boundary live in slow memory between groups: the
//! producing group leaves them blue, the consuming group loads them.
//! The result is a [`Quality::UpperBound`] whose `lower_bound` is the
//! structural floor ([`bounds::best_lower_bound`], which includes the
//! fractional relaxation) — or the inner solver's own quality when the
//! instance is delegated whole.
//!
//! ## Stitching invariant
//!
//! Groups are replayed in quotient topological order against one
//! global [`State`]. For every move of a group's sub-trace the global
//! trace receives a move with the *same red-count delta*, so a
//! sub-trace legal at red limit `R` stays legal globally:
//!
//! - moves on nodes private to the group pass through unchanged;
//! - `Compute` of an external input (only possible under
//!   `FreeCompute`) becomes a `Load` — the value was computed and
//!   stored by its home group, so recomputing it would double-compute
//!   under oneshot and is pointless elsewhere;
//! - `Delete` of an *interface* value (an external input, or a value
//!   later groups consume) becomes a `Store` when the value is red —
//!   its blue copy must survive for the later consumers — and is
//!   dropped when the copy being deleted is blue;
//! - at each group boundary every remaining red value is flushed:
//!   stored if a later group or the completion check still needs it
//!   (or the model forbids deletes), deleted otherwise. Each group
//!   therefore starts from an empty red set, which is exactly the
//!   footing its sub-solve assumed.
//!
//! By induction over the group order, every external input is blue
//! when its consuming group starts, so the rewritten loads are legal;
//! the engine replay behind every [`Solution`] is the final arbiter.

#[cfg(doc)]
use crate::api::Quality;
use crate::api::{Solution, SolveCtx, Solver, Stats};
use crate::error::SolveError;
use crate::registry;
use rbp_core::bounds;
use rbp_core::{Instance, Move, Pebbling, State};
use rbp_graph::{partition, topological_order, DagBuilder, NodeId, Partition};

/// Default target group size when `K` is not given: `K = ⌈n / 12⌉`.
/// Twelve nodes keeps even exact inner solvers tractable per group
/// while leaving enough structure for the stitcher to exploit.
pub const DEFAULT_GROUP_SIZE: usize = 12;

/// Inner solver spec used when none is given. The portfolio is
/// microsecond-scale per group, so the coarse solve stays near-linear
/// in `n`; pass `coarse:K/exact` to spend exact search inside groups.
pub const DEFAULT_INNER: &str = "portfolio";

/// Configuration for [`CoarseSolver`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoarseConfig {
    /// Number of groups; `None` sizes groups to [`DEFAULT_GROUP_SIZE`].
    pub k: Option<usize>,
    /// Registry spec of the inner per-group solver.
    pub inner: String,
}

impl Default for CoarseConfig {
    fn default() -> Self {
        CoarseConfig {
            k: None,
            inner: DEFAULT_INNER.to_string(),
        }
    }
}

/// The hierarchical coarsening solver (`coarse[:K[/INNER]]`).
pub struct CoarseSolver {
    /// The grouping and inner-solver configuration.
    pub cfg: CoarseConfig,
}

impl CoarseSolver {
    /// Default configuration: auto-sized `K`, portfolio inner.
    pub fn new() -> Self {
        CoarseSolver {
            cfg: CoarseConfig::default(),
        }
    }

    /// Fixed group count.
    pub fn with_k(k: usize) -> Self {
        CoarseSolver {
            cfg: CoarseConfig {
                k: Some(k),
                ..CoarseConfig::default()
            },
        }
    }

    /// The number of groups to stitch, or `None` when the whole instance
    /// goes to the inner solver: one group means nothing to stitch (this
    /// is what pins `coarse:1/exact` to the exact optimum), and the
    /// stitcher builds single-processor schedules only.
    fn groups(&self, instance: &Instance) -> Option<usize> {
        let n = instance.dag().n();
        let k = self.cfg.k.unwrap_or_else(|| n.div_ceil(DEFAULT_GROUP_SIZE));
        let k = k.max(1).min(n.max(1));
        (k > 1 && instance.mpp().is_none()).then_some(k)
    }
}

impl Default for CoarseSolver {
    fn default() -> Self {
        CoarseSolver::new()
    }
}

/// One group's sub-instance plus the local↔global node maps.
struct SubProblem {
    instance: Instance,
    /// local index → global node
    to_global: Vec<NodeId>,
}

/// Builds group `g`'s sub-instance: the group's nodes plus their
/// external inputs, with edges *into* the group only (external inputs
/// become sub-sources), under the original limit, model, and
/// conventions. Local node order follows the global topological order
/// so every edge is forward.
fn build_sub(instance: &Instance, part: &Partition, g: usize, topo_pos: &[usize]) -> SubProblem {
    let dag = instance.dag();
    let mut locals: Vec<NodeId> = part.external_inputs(dag, g);
    locals.extend_from_slice(part.group(g));
    locals.sort_by_key(|v| topo_pos[v.index()]);
    let mut local_of = vec![usize::MAX; dag.n()];
    for (i, &v) in locals.iter().enumerate() {
        local_of[v.index()] = i;
    }
    let mut b = DagBuilder::new(locals.len());
    for (i, &v) in locals.iter().enumerate() {
        b.set_label(NodeId::new(i), dag.label(v));
        if part.group_of(v) == g {
            for &p in dag.preds(v) {
                b.add_edge(local_of[p.index()], i);
            }
        }
    }
    let sub_dag = b
        .build()
        .expect("sub-DAG edges follow a topological order of an acyclic DAG");
    let instance = Instance::new(sub_dag, instance.red_limit(), instance.model())
        .with_source_convention(instance.source_convention())
        .with_sink_convention(instance.sink_convention());
    SubProblem {
        instance,
        to_global: locals,
    }
}

impl Solver for CoarseSolver {
    fn name(&self) -> &str {
        "coarse"
    }

    fn spec(&self) -> String {
        match (&self.cfg.k, self.cfg.inner.as_str()) {
            (None, DEFAULT_INNER) => "coarse".to_string(),
            (Some(k), DEFAULT_INNER) => format!("coarse:{k}"),
            (None, inner) => format!("coarse:auto/{inner}"),
            (Some(k), inner) => format!("coarse:{k}/{inner}"),
        }
    }

    /// The inner solver's problem when the whole instance goes to it;
    /// a stitched trace is a schedule of the instance itself.
    fn problem(&self, instance: &Instance) -> Instance {
        match registry::solver(&self.cfg.inner) {
            Ok(inner) if self.groups(instance).is_none() => inner.problem(instance),
            _ => instance.clone(),
        }
    }

    fn solve(&self, instance: &Instance, ctx: &SolveCtx) -> Result<Solution, SolveError> {
        bounds::check_feasible(instance)?;
        let inner = registry::solver(&self.cfg.inner)?;
        let Some(k) = self.groups(instance) else {
            return inner.solve(instance, ctx);
        };
        let n = instance.dag().n();

        let dag = instance.dag();
        let nodel = instance.model().kind() == rbp_core::ModelKind::NoDel;
        let part = partition::partition(dag, k);
        let order = topological_order(dag);
        let mut topo_pos = vec![0usize; n];
        for (i, &v) in order.iter().enumerate() {
            topo_pos[v.index()] = i;
        }
        // crossing[v]: some successor of v lives in a strictly later
        // group — v's value must be blue at every later group boundary
        let crossing: Vec<bool> = dag
            .nodes()
            .map(|v| {
                let gv = part.group_of(v);
                dag.succs(v).iter().any(|&w| part.group_of(w) > gv)
            })
            .collect();

        let mut trace = Pebbling::new();
        let mut gs = State::initial(instance);
        let mut stats = Stats::new();
        let mut inner_optimal = 0u64;
        let mut rewrites = 0u64;
        let mut flush_stores = 0u64;
        let mut flush_deletes = 0u64;

        for g in 0..part.k() {
            let sub = build_sub(instance, &part, g, &topo_pos);
            let sol = inner.solve(&sub.instance, ctx)?;
            if sol.is_optimal() {
                inner_optimal += 1;
            }
            for &mv in sol.trace.moves() {
                let gv = sub.to_global[mv.node().index()];
                let interface = part.group_of(gv) < g || crossing[gv.index()];
                match mv {
                    Move::Compute(_) if part.group_of(gv) < g => {
                        // external input under FreeCompute: its home
                        // group already computed and stored it
                        rewrites += 1;
                        apply(instance, &mut gs, &mut trace, Move::Load(gv))?;
                    }
                    Move::Delete(_) if interface => {
                        if gs.is_red(gv) {
                            rewrites += 1;
                            apply(instance, &mut gs, &mut trace, Move::Store(gv))?;
                        }
                        // deleting the blue copy is dropped entirely:
                        // later groups still need it
                    }
                    Move::Load(_) => apply(instance, &mut gs, &mut trace, Move::Load(gv))?,
                    Move::Store(_) => apply(instance, &mut gs, &mut trace, Move::Store(gv))?,
                    Move::Compute(_) => apply(instance, &mut gs, &mut trace, Move::Compute(gv))?,
                    Move::Delete(_) => apply(instance, &mut gs, &mut trace, Move::Delete(gv))?,
                }
            }
            // flush: drain the red set so the next group starts from
            // the empty red footing its sub-solve assumed
            let reds: Vec<NodeId> = gs.red_set().iter().map(NodeId::new).collect();
            for u in reds {
                let needed = crossing[u.index()] || dag.is_sink(u);
                if needed || nodel {
                    flush_stores += 1;
                    apply(instance, &mut gs, &mut trace, Move::Store(u))?;
                } else {
                    flush_deletes += 1;
                    apply(instance, &mut gs, &mut trace, Move::Delete(u))?;
                }
            }
        }

        stats.set("groups", part.k() as u64);
        stats.set("max_group_size", part.max_group_size() as u64);
        stats.set("cut_edges", part.cut_size(dag) as u64);
        stats.set("inner_optimal_groups", inner_optimal);
        stats.set("interface_rewrites", rewrites);
        stats.set("flush_stores", flush_stores);
        stats.set("flush_deletes", flush_deletes);
        Solution::replay(instance, trace, false, stats)
    }
}

/// Applies `mv` to the stitched `state` and records it on `trace`.
fn apply(
    instance: &Instance,
    state: &mut State,
    trace: &mut Pebbling,
    mv: Move,
) -> Result<(), SolveError> {
    state.apply(mv, instance).map_err(SolveError::Pebbling)?;
    trace.push(mv);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbp_core::{certify, CostModel, SinkConvention, SourceConvention};
    use rbp_graph::generate;

    fn layered(seed: u64, l: usize, w: usize) -> rbp_graph::Dag {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        generate::layered(l, w, 3, &mut rng)
    }

    #[test]
    fn coarse_stitches_a_legal_trace_in_every_model() {
        for kind in rbp_core::ModelKind::ALL {
            for (src, sink) in [
                (SourceConvention::FreeCompute, SinkConvention::AnyPebble),
                (SourceConvention::InitiallyBlue, SinkConvention::RequireBlue),
            ] {
                let dag = layered(41, 5, 5);
                let r = dag.max_indegree() + 1;
                let inst = Instance::new(dag, r, CostModel::of_kind(kind))
                    .with_source_convention(src)
                    .with_sink_convention(sink);
                let sol = CoarseSolver::with_k(4)
                    .solve_default(&inst)
                    .unwrap_or_else(|e| panic!("{kind} {src:?} {sink:?}: {e}"));
                // the Solution constructor already replayed the trace;
                // the bracket must be honest
                if let crate::api::Quality::UpperBound { lower_bound } = sol.quality {
                    assert!(lower_bound <= sol.scaled_cost(&inst));
                }
                assert_eq!(sol.stats.get("groups"), Some(4));
            }
        }
    }

    #[test]
    fn coarse_k1_delegates_and_is_exact() {
        let dag = layered(7, 3, 3);
        let r = dag.max_indegree() + 1;
        let inst = Instance::new(dag, r, CostModel::oneshot());
        let coarse = CoarseSolver {
            cfg: CoarseConfig {
                k: Some(1),
                inner: "exact".to_string(),
            },
        };
        let sol = coarse.solve_default(&inst).unwrap();
        assert!(sol.is_optimal());
        let direct = crate::api::ExactSolver::new().solve_default(&inst).unwrap();
        assert_eq!(sol.scaled_cost(&inst), direct.scaled_cost(&inst));
    }

    #[test]
    fn coarse_upper_bound_brackets_the_exact_optimum() {
        let eps_insensitive = CostModel::oneshot();
        for seed in [1u64, 2, 3] {
            let dag = layered(seed, 4, 4);
            let r = dag.max_indegree() + 1;
            let inst = Instance::new(dag, r, eps_insensitive)
                .with_source_convention(SourceConvention::InitiallyBlue)
                .with_sink_convention(SinkConvention::RequireBlue);
            let exact = crate::api::ExactSolver::new().solve_default(&inst).unwrap();
            let coarse = CoarseSolver::with_k(3).solve_default(&inst).unwrap();
            assert!(
                coarse.scaled_cost(&inst) >= exact.scaled_cost(&inst),
                "seed {seed}: coarse beat the optimum"
            );
            certify::certify(&inst, &coarse.trace).expect("stitched trace certifies");
        }
    }

    #[test]
    fn coarse_delegates_multiprocessor_instances() {
        let dag = generate::chain(8);
        let inst = Instance::new(dag, 2, CostModel::base()).with_procs(2);
        let coarse = CoarseSolver {
            cfg: CoarseConfig {
                k: Some(4),
                inner: "greedy@mpp".to_string(),
            },
        };
        let sol = coarse.solve_default(&inst).unwrap();
        assert!(sol.trace.has_proc_tags() || sol.cost.transfers > 0 || sol.cost.computes > 0);
    }

    #[test]
    fn problem_is_the_inner_problem_only_when_delegating() {
        let inst = Instance::new(generate::chain(8), 2, CostModel::base());
        let coarse = |k| CoarseSolver {
            cfg: CoarseConfig {
                k: Some(k),
                inner: "exact@mpp:2".to_string(),
            },
        };
        // one group: the inner solver pebbles the whole (lifted) instance
        assert_eq!(coarse(1).problem(&inst).procs(), 2);
        // stitched groups: the answer is a schedule of the instance itself
        assert_eq!(
            coarse(4).problem(&inst).canonical_key(),
            inst.canonical_key()
        );
    }

    #[test]
    fn spec_round_trips() {
        assert_eq!(CoarseSolver::new().spec(), "coarse");
        assert_eq!(CoarseSolver::with_k(6).spec(), "coarse:6");
        let s = CoarseSolver {
            cfg: CoarseConfig {
                k: Some(4),
                inner: "greedy".to_string(),
            },
        };
        assert_eq!(s.spec(), "coarse:4/greedy");
    }
}
