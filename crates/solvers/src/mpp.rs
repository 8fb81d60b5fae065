//! Multiprocessor pebbling solvers: the exact search over one red plane
//! per processor and a greedy list scheduler.
//!
//! The multiprocessor game ([`rbp_core::State::apply_on`]) runs `p`
//! private fast memories over one shared blue memory; a configuration is
//! the tuple of `p` per-processor red sets, the shared blue set, and
//! (oneshot) the global computed set.
//!
//! - [`ExactMppSolver`] (`exact@mpp[:P]`) runs the crate's one exact
//!   search ([`crate::exact`] over [`crate::expand::Expander`]) with one
//!   red plane per processor: the key is `p` red planes, then blue, then
//!   (oneshot) computed. Edges are priced with the instance's exact
//!   weights ([`Instance::cost_scales`]), so the optimum is the additive
//!   objective `transfers·comm + computes·comp` — the makespan is a
//!   reported statistic, never the search objective. At `p > 1` only
//!   the dominance prune "never delete a blue pebble" and the incumbent
//!   cutoff apply (deleting shared blue frees no private capacity, so
//!   the smaller-blue state is dominated at equal cost); the A*
//!   heuristic and the other oneshot prunes reason about a single red
//!   set and stay off. At `p = 1` the search *is* the classic one, prunes
//!   and heuristic included. The incumbent seed is the list scheduler
//!   below at `p > 1` and the classic cost-staged greedy at `p = 1`.
//! - [`GreedyMppSolver`] (`greedy@mpp[:P]`): a topological list
//!   scheduler driving the greedy schedule builder (`Board`, see
//!   [`crate::greedy`]), which brings an input held by another
//!   processor over through shared memory (store + load). The scheduler
//!   adds two choices. Each non-source node goes to the processor
//!   holding most of its inputs red (ties: least accumulated weighted
//!   work, then lowest index). Its victims are dead values first
//!   (deleted where the model allows), then the live value with the
//!   fewest uncomputed successors, then sinks (stored).
//!
//! Both are exposed through the registry as `exact@mpp[:P]` and
//! `greedy@mpp[:P]`, where the optional `P` overrides the instance's
//! own processor count ([`Instance::with_procs`]).

use crate::api::{run_exact_family, Solution, SolveCtx, Solver, Stats};
use crate::error::SolveError;
use crate::exact::ExactConfig;
use crate::greedy::{Board, EvictionPolicy, Spill};
use rbp_core::{Instance, Pebbling};
use std::cmp::Reverse;

/// Greedy multiprocessor list scheduling on one [`Board`]: nodes in
/// topological order, each assigned to the processor already holding
/// most of its inputs, so the processor-tagged trace is complete and
/// legal.
pub(crate) fn solve_greedy_mpp(instance: &Instance) -> Result<Pebbling, SolveError> {
    // trace tags are u16: a larger machine schedules on its first 65 535
    let procs = u16::try_from(instance.procs()).unwrap_or(u16::MAX);
    let mut board = Board::new(instance, procs, EvictionPolicy::MinUses, Spill::SinksLast)?;
    let dag = instance.dag();
    for v in rbp_graph::topological_order(dag) {
        if dag.is_source(v) {
            continue; // sources are computed on demand, on the consumer
        }
        let preds = dag.preds(v);
        // processor choice: most inputs already red there, then least
        // accumulated weighted work, then lowest index
        let proc = (0..procs)
            .min_by_key(|&i| {
                let red_here = preds
                    .iter()
                    .filter(|&&u| board.state().is_red_on(i, u))
                    .count();
                (Reverse(red_here), board.work(i), i)
            })
            .expect("p >= 1");
        board.compute_on(v, proc)?;
    }
    board.finish()
}

// ---------------------------------------------------------------------
// Solver-trait adapters
// ---------------------------------------------------------------------

/// The exact multiprocessor solver behind the [`Solver`] trait:
/// registry family `exact@mpp[:P]`. The optional `P` overrides the
/// instance's processor count; without it the instance's own `p` (1 for
/// classic instances) is searched, one red plane per processor.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExactMppSolver {
    /// Processor-count override (`None`: the instance's own `p`).
    pub procs: Option<u32>,
    /// The search knobs shared with the classic exact solver (`astar`
    /// only takes effect at one processor).
    pub cfg: ExactConfig,
}

impl ExactMppSolver {
    /// Default configuration, no processor override.
    pub fn new() -> Self {
        ExactMppSolver::default()
    }

    /// Overrides the processor count (`exact@mpp:P`).
    pub fn with_procs(p: u32) -> Self {
        ExactMppSolver {
            procs: Some(p),
            cfg: ExactConfig::default(),
        }
    }
}

impl Solver for ExactMppSolver {
    fn name(&self) -> &str {
        "exact@mpp"
    }

    fn spec(&self) -> String {
        match self.procs {
            Some(p) => format!("exact@mpp:{p}"),
            None => "exact@mpp".to_string(),
        }
    }

    fn problem(&self, instance: &Instance) -> Instance {
        self.procs
            .map_or_else(|| instance.clone(), |p| instance.with_procs(p))
    }

    fn solve(&self, instance: &Instance, ctx: &SolveCtx) -> Result<Solution, SolveError> {
        let inst = self.problem(instance);
        let mut sol = run_exact_family(&inst, self.cfg, inst.procs(), true, ctx)?;
        add_mpp_stats(&inst, &mut sol);
        Ok(sol)
    }
}

/// The greedy multiprocessor list scheduler behind the [`Solver`]
/// trait: registry family `greedy@mpp[:P]`.
#[derive(Clone, Copy, Debug, Default)]
pub struct GreedyMppSolver {
    /// Processor-count override (`None`: the instance's own `p`).
    pub procs: Option<u32>,
}

impl GreedyMppSolver {
    /// No processor override.
    pub fn new() -> Self {
        GreedyMppSolver::default()
    }

    /// Overrides the processor count (`greedy@mpp:P`).
    pub fn with_procs(p: u32) -> Self {
        GreedyMppSolver { procs: Some(p) }
    }
}

impl Solver for GreedyMppSolver {
    fn name(&self) -> &str {
        "greedy@mpp"
    }

    fn spec(&self) -> String {
        match self.procs {
            Some(p) => format!("greedy@mpp:{p}"),
            None => "greedy@mpp".to_string(),
        }
    }

    fn problem(&self, instance: &Instance) -> Instance {
        self.procs
            .map_or_else(|| instance.clone(), |p| instance.with_procs(p))
    }

    fn solve(&self, instance: &Instance, _ctx: &SolveCtx) -> Result<Solution, SolveError> {
        let inst = self.problem(instance);
        let trace = solve_greedy_mpp(&inst)?;
        let mut sol = Solution::replay(&inst, trace, false, Stats::new())?;
        add_mpp_stats(&inst, &mut sol);
        Ok(sol)
    }
}

/// Adds the stats every MPP solver reports to a replayed solution: the
/// effective processor count and the makespan statistic (max over
/// processors of own weighted work — reported, never optimized), counted
/// from the validated trace's per-processor moves.
fn add_mpp_stats(instance: &Instance, sol: &mut Solution) {
    sol.stats.set("procs", instance.procs() as u64);
    let makespan = sol
        .trace
        .proc_stats()
        .iter()
        .map(|s| instance.scaled_cost(&s.cost()))
        .max()
        .unwrap_or(0);
    sol.stats.set(
        "mpp_time_scaled",
        u64::try_from(makespan).unwrap_or(u64::MAX),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ExactSolver;
    use rbp_core::{engine, CostModel, ModelKind, MppDim, Ratio, SinkConvention, SourceConvention};
    use rbp_graph::{generate, DagBuilder};

    /// The proved `exact@mpp` optimum of `inst` at its own `p`.
    fn proved_mpp_optimum(inst: &Instance) -> Solution {
        let sol = ExactMppSolver::new().solve_default(inst).unwrap();
        assert!(sol.is_optimal());
        sol
    }

    #[test]
    fn p1_exact_matches_the_classic_optimum() {
        let mut rng = rand::thread_rng();
        for kind in ModelKind::ALL {
            for _ in 0..3 {
                let dag = generate::gnp_dag(5, 0.4, 2, &mut rng);
                let r = dag.max_indegree() + 1;
                let inst = Instance::new(dag, r, CostModel::of_kind(kind));
                let classic = ExactSolver::new().solve_default(&inst).unwrap();
                let mpp1 = proved_mpp_optimum(&inst.with_procs(1));
                assert_eq!(
                    inst.scaled_cost(&mpp1.cost),
                    inst.scaled_cost(&classic.cost),
                    "exact@mpp:1 must equal the classic optimum ({kind})"
                );
            }
        }
    }

    #[test]
    fn exact_at_p2_matches_the_unpruned_search() {
        // the pruned product search (blue-delete dominance + incumbent
        // cutoff + floor exit) against the exhaustive one, weighted too
        let mut rng = rand::thread_rng();
        for kind in ModelKind::ALL {
            for weights in [None, Some((1, 5)), Some((5, 1))] {
                let dag = generate::gnp_dag(4, 0.5, 2, &mut rng);
                let r = dag.max_indegree() + 1;
                let classic = Instance::new(dag, r, CostModel::of_kind(kind));
                let inst = match weights {
                    None => classic.with_procs(2),
                    Some((comm, comp)) => classic.with_mpp(MppDim {
                        p: 2,
                        comm: Ratio::new(comm, 1),
                        comp: Ratio::new(comp, 1),
                    }),
                };
                let pruned = proved_mpp_optimum(&inst);
                let unpruned = ExactMppSolver {
                    procs: None,
                    cfg: ExactConfig {
                        prune: false,
                        astar: false,
                        ..ExactConfig::default()
                    },
                }
                .solve_default(&inst)
                .unwrap();
                assert!(unpruned.is_optimal());
                assert_eq!(
                    pruned.scaled_cost(&inst),
                    unpruned.scaled_cost(&inst),
                    "{kind} {weights:?}"
                );
            }
        }
    }

    #[test]
    fn optimum_is_monotone_non_increasing_in_p() {
        let mut rng = rand::thread_rng();
        for _ in 0..2 {
            let dag = generate::gnp_dag(5, 0.4, 2, &mut rng);
            let r = dag.max_indegree() + 1;
            let inst = Instance::new(dag, r, CostModel::base());
            let mut prev = u128::MAX;
            for p in [1u32, 2, 4] {
                let lifted = inst.with_procs(p);
                let rep = proved_mpp_optimum(&lifted);
                let c = lifted.scaled_cost(&rep.cost);
                assert!(c <= prev, "optimum rose from p to {p}: {prev} -> {c}");
                prev = c;
            }
        }
    }

    #[test]
    fn more_processors_can_strictly_help() {
        // Two independent 3-chains in nodel with R = 2. One processor
        // must store n - R = 4 values; two processors run one chain
        // each and store only one value per chain.
        let mut b = DagBuilder::new(6);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(3, 4);
        b.add_edge(4, 5);
        let inst = Instance::new(b.build().unwrap(), 2, CostModel::nodel());
        let p1 = proved_mpp_optimum(&inst.with_procs(1));
        let p2 = proved_mpp_optimum(&inst.with_procs(2));
        let c1 = inst.with_procs(1).scaled_cost(&p1.cost);
        let c2 = inst.with_procs(2).scaled_cost(&p2.cost);
        assert_eq!(c1, 4, "classic nodel optimum stores n - R values");
        assert_eq!(c2, 2, "p = 2 stores one value per chain");
        // the recovered trace names the second processor and replays
        assert!(p2.trace.has_proc_tags(), "both processors work");
        let cert = rbp_core::certify(&inst.with_procs(2), &p2.trace).unwrap();
        assert_eq!(cert.scaled_cost, c2);
    }

    #[test]
    fn exact_trace_certifies_and_respects_budgets() {
        let mut b = DagBuilder::new(5);
        b.add_edge(0, 1);
        b.add_edge(2, 3);
        b.add_edge(1, 4);
        b.add_edge(3, 4);
        let inst = Instance::new(b.build().unwrap(), 3, CostModel::base()).with_procs(2);
        let rep = proved_mpp_optimum(&inst);
        let sim = engine::simulate(&inst, &rep.trace).unwrap();
        assert_eq!(sim.cost, rep.cost);
        let cert = rbp_core::certify(&inst, &rep.trace).unwrap();
        assert_eq!(cert.scaled_cost, inst.scaled_cost(&rep.cost));
    }

    #[test]
    fn weights_steer_the_exact_optimum() {
        // compcost chain with compute weight far above communication:
        // the solver must still compute each node once (no recompute
        // tricks exist on a chain), but the scaled objective reflects
        // the weights exactly
        let inst = Instance::new(generate::chain(3), 2, CostModel::base()).with_mpp(MppDim {
            p: 2,
            comm: Ratio::new(5, 1),
            comp: Ratio::new(1, 1),
        });
        let rep = proved_mpp_optimum(&inst);
        // chain fits in one processor's 2 slots with deletion: no
        // transfers, 3 computes at weight 1
        assert_eq!(inst.scaled_cost(&rep.cost), 3);
        assert_eq!(rep.cost.transfers, 0);
    }

    #[test]
    fn greedy_dominated_by_exact_and_valid_everywhere() {
        let mut rng = rand::thread_rng();
        for kind in ModelKind::ALL {
            let dag = generate::gnp_dag(5, 0.4, 2, &mut rng);
            let r = dag.max_indegree() + 1;
            let inst = Instance::new(dag, r, CostModel::of_kind(kind)).with_procs(2);
            let greedy = GreedyMppSolver::new().solve_default(&inst).unwrap();
            let exact = proved_mpp_optimum(&inst);
            assert!(
                exact.scaled_cost(&inst) <= greedy.scaled_cost(&inst),
                "greedy beat exact under {kind}"
            );
            // the greedy trace is valid under conventions too
            let conv = Instance::new(generate::chain(4), 2, CostModel::of_kind(kind))
                .with_source_convention(SourceConvention::InitiallyBlue)
                .with_sink_convention(SinkConvention::RequireBlue)
                .with_procs(2);
            let trace = solve_greedy_mpp(&conv).unwrap();
            assert!(engine::simulate(&conv, &trace).is_ok(), "{kind}");
        }
    }

    #[test]
    fn greedy_spreads_work_across_processors() {
        // two independent 2-chains: the load-balancing tiebreak must
        // put one on each processor — under unit compute weight, or the
        // accumulated work stays zero and everything ties to processor 0
        let mut b = DagBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(2, 3);
        let inst = Instance::new(b.build().unwrap(), 3, CostModel::base()).with_mpp(MppDim {
            p: 2,
            comm: Ratio::new(1, 1),
            comp: Ratio::new(1, 1),
        });
        let trace = solve_greedy_mpp(&inst).unwrap();
        let sim = engine::simulate(&inst, &trace).unwrap();
        let per_proc = trace.proc_stats();
        assert!(
            per_proc.len() == 2 && per_proc.iter().all(|c| c.computes == 2),
            "work not spread: {per_proc:?}"
        );
        assert_eq!(sim.cost.transfers, 0, "independent chains need no traffic");
    }

    #[test]
    fn solver_adapters_report_procs_and_makespan() {
        let inst = Instance::new(generate::chain(4), 2, CostModel::base());
        let sol = ExactMppSolver::with_procs(2).solve_default(&inst).unwrap();
        assert!(sol.is_optimal());
        assert_eq!(sol.stats.get("procs"), Some(2));
        assert!(sol.stats.get("mpp_time_scaled").is_some());
        let sol = GreedyMppSolver::with_procs(2).solve_default(&inst).unwrap();
        assert_eq!(sol.stats.get("procs"), Some(2));
    }

    #[test]
    fn problem_applies_the_processor_override() {
        let inst = Instance::new(generate::chain(4), 2, CostModel::base());
        let lifted = inst.with_procs(2);
        for solver in [
            &ExactMppSolver::with_procs(2) as &dyn Solver,
            &GreedyMppSolver::with_procs(2),
        ] {
            assert_eq!(
                solver.problem(&inst).canonical_key(),
                lifted.canonical_key()
            );
            // the answer is a schedule of exactly that problem
            let sol = solver.solve_default(&inst).unwrap();
            assert!(rbp_core::certify(&solver.problem(&inst), &sol.trace).is_ok());
        }
        // no override: the instance's own processor count
        for solver in [
            &ExactMppSolver::new() as &dyn Solver,
            &GreedyMppSolver::new(),
        ] {
            assert_eq!(solver.problem(&inst).canonical_key(), inst.canonical_key());
            assert_eq!(
                solver.problem(&lifted).canonical_key(),
                lifted.canonical_key()
            );
        }
    }

    #[test]
    fn mpp1_solution_on_classic_instance_is_untagged() {
        // exact@mpp:1 produces a classic single-processor schedule —
        // its trace must not claim processor tags
        let inst = Instance::new(generate::chain(4), 2, CostModel::oneshot());
        let sol = ExactMppSolver::with_procs(1).solve_default(&inst).unwrap();
        assert!(!sol.trace.has_proc_tags());
        assert!(sol.is_optimal());
    }

    #[test]
    fn makespan_statistic_reflects_the_tradeoff() {
        // the two-2-chain join from the core trade-off test: greedy on
        // p = 2 with unit weights must beat the serial makespan
        let mut b = DagBuilder::new(5);
        b.add_edge(0, 1);
        b.add_edge(2, 3);
        b.add_edge(1, 4);
        b.add_edge(3, 4);
        let dag = b.build().unwrap();
        let weights = |p| MppDim {
            p,
            comm: Ratio::new(1, 1),
            comp: Ratio::new(1, 1),
        };
        let base = Instance::new(dag, 3, CostModel::base());
        let serial = GreedyMppSolver::new()
            .solve_default(&base.with_mpp(weights(1)))
            .unwrap();
        let par = GreedyMppSolver::new()
            .solve_default(&base.with_mpp(weights(2)))
            .unwrap();
        let t1 = serial.stats.get("mpp_time_scaled").unwrap();
        let t2 = par.stats.get("mpp_time_scaled").unwrap();
        assert!(t2 < t1, "parallel makespan {t2} must beat serial {t1}");
        // the busiest processor does at least the mean work
        let total = par.scaled_cost(&base.with_mpp(weights(2)));
        assert!(
            2 * t2 as u128 >= total,
            "makespan {t2} below half of {total}"
        );
        assert!(
            par.cost.transfers > serial.cost.transfers,
            "communication must rise with p"
        );
    }
}
