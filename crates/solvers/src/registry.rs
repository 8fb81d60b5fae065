//! The solver registry: string specs to boxed [`Solver`]s.
//!
//! One stable naming scheme for every solver family, so experiment
//! harnesses, sweeps, CLIs, and services can select solvers from
//! configuration instead of linking against per-solver free functions.
//! A new solver family (e.g. the multiprocessor red-blue pebbling line)
//! slots in as one more [`Registry::register`] call, not a new API.
//!
//! ## Spec grammar
//!
//! ```text
//! spec := family [":" args]
//!
//! exact                         exact search (pruned, A*, greedy-seeded)
//!                               over single-processor schedules
//! exact:unseeded                same, without the greedy incumbent seed
//! exact-parallel[:N]            alias of exact (its spec() is "exact"); N
//!                               must be an integer ≥ 1 and is ignored
//! reference                     brute-force exact (no pruning/heuristic/seed)
//! greedy[:RULE[/EVICT]]         one greedy configuration
//!     RULE  ∈ most-red-inputs | fewest-blue-inputs | highest-red-ratio
//!     EVICT ∈ min-uses | lru | fifo | random(SEED)
//! beam[:WIDTH]                  beam search; WIDTH ≥ 1 (default 8)
//! portfolio                     best of the nine greedy configurations
//! exact@mpp[:P]                 exact multiprocessor pebbling: the exact
//!                               search over one red plane per processor;
//!                               P ≥ 1 overrides the instance's processor
//!                               count
//! greedy@mpp[:P]                greedy multiprocessor list scheduling
//! coarse[:K[/INNER]]            hierarchical coarsening: partition into K
//!                               acyclic groups (default: ⌈n/12⌉; K may be
//!                               'auto'), solve each with INNER (any spec in
//!                               this grammar; default portfolio), stitch the
//!                               traces with boundary stores/loads
//! ```
//!
//! Every exact spec optimizes the instance's own objective
//! (`transfers·comm + computes·comp`, [`rbp_core::Instance::cost_scales`])
//! and answers `Optimal` only when it searched every processor: `exact`
//! on a `p > 1` instance proves the single-processor optimum and reports
//! it as an upper bound.
//!
//! A zero beam width (`beam:0`) parses but fails at solve time with
//! [`SolveError::BadConfig`], mirroring the programmatic API; malformed
//! specs, `exact-parallel:0` among them, fail at parse time with
//! [`SolveError::BadSpec`].
//!
//! # Example
//! ```
//! use rbp_core::{CostModel, Instance};
//! use rbp_graph::DagBuilder;
//! use rbp_solvers::registry;
//!
//! let mut b = DagBuilder::new(3);
//! b.add_edge(0, 2);
//! b.add_edge(1, 2);
//! let inst = Instance::new(b.build().unwrap(), 3, CostModel::oneshot());
//! let sol = registry::solve("exact", &inst).unwrap();
//! assert!(sol.is_optimal());
//! assert_eq!(sol.cost.transfers, 0);
//! ```

use crate::api::{
    BeamSolver, ExactSolver, GreedySolver, PortfolioSolver, Solution, SolveCtx, Solver,
};
use crate::beam::BeamConfig;
use crate::coarse::{CoarseConfig, CoarseSolver};
use crate::error::SolveError;
use crate::greedy::{EvictionPolicy, GreedyConfig, SelectionRule};
use crate::mpp::{ExactMppSolver, GreedyMppSolver};
use rbp_core::Instance;

/// A factory turning optional spec arguments (the part after `:`) into
/// a boxed solver.
pub type SolverFactory =
    Box<dyn Fn(Option<&str>) -> Result<Box<dyn Solver>, SolveError> + Send + Sync>;

struct Entry {
    family: String,
    help: &'static str,
    factory: SolverFactory,
}

/// A mapping from spec families to solver factories. Construct with
/// [`Registry::with_builtins`] and extend with [`Registry::register`].
pub struct Registry {
    entries: Vec<Entry>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::with_builtins()
    }
}

impl Registry {
    /// An empty registry (no families).
    pub fn empty() -> Self {
        Registry {
            entries: Vec::new(),
        }
    }

    /// The built-in families listed in the module docs.
    pub fn with_builtins() -> Self {
        let mut r = Registry::empty();
        r.register(
            "exact",
            "exact search (pruned, A*, greedy-seeded)",
            |a| match a {
                None => Ok(Box::new(ExactSolver::new())),
                Some("unseeded") => Ok(Box::new(ExactSolver::new().unseeded())),
                Some(other) => Err(bad_args("exact", other, "expected no args or 'unseeded'")),
            },
        );
        r.register(
            "exact-parallel",
            "alias of exact; arg = a thread count >= 1, checked and ignored",
            |a| match a {
                Some(n) if !matches!(n.parse::<usize>(), Ok(t) if t >= 1) => Err(bad_args(
                    "exact-parallel",
                    n,
                    "thread count must be an integer >= 1",
                )),
                _ => Ok(Box::new(ExactSolver::new())),
            },
        );
        r.register(
            "reference",
            "brute-force exact (no pruning, heuristic, or seed)",
            |a| match a {
                None => Ok(Box::new(ExactSolver::reference())),
                Some(other) => Err(bad_args("reference", other, "takes no arguments")),
            },
        );
        r.register(
            "greedy",
            "one greedy configuration; arg = RULE[/EVICT]",
            |a| {
                let cfg = match a {
                    None => GreedyConfig::default(),
                    Some(args) => parse_greedy_args(args)?,
                };
                Ok(Box::new(GreedySolver { cfg }))
            },
        );
        r.register("beam", "beam search; arg = width (default 8)", |a| {
            let cfg = match a {
                None => BeamConfig::default(),
                Some(w) => BeamConfig {
                    width: w
                        .parse()
                        .map_err(|_| bad_args("beam", w, "width must be an integer"))?,
                },
            };
            Ok(Box::new(BeamSolver { cfg }))
        });
        r.register(
            "portfolio",
            "best of the nine greedy configurations",
            |a| match a {
                None => Ok(Box::new(PortfolioSolver::new())),
                Some(other) => Err(bad_args("portfolio", other, "takes no arguments")),
            },
        );
        r.register(
            "exact@mpp",
            "exact multiprocessor pebbling; arg = processor count (default: the instance's)",
            |a| {
                Ok(Box::new(ExactMppSolver {
                    procs: parse_procs("exact@mpp", a)?,
                    cfg: Default::default(),
                }))
            },
        );
        r.register(
            "greedy@mpp",
            "greedy multiprocessor list scheduling; arg = processor count (default: the instance's)",
            |a| {
                Ok(Box::new(GreedyMppSolver {
                    procs: parse_procs("greedy@mpp", a)?,
                }))
            },
        );
        r.register(
            "coarse",
            "hierarchical coarsening; arg = K[/INNER] (K ≥ 1 or 'auto', INNER any spec)",
            |a| {
                Ok(Box::new(CoarseSolver {
                    cfg: parse_coarse_args(a)?,
                }))
            },
        );
        r
    }

    /// Registers (or replaces) a family.
    pub fn register(
        &mut self,
        family: &str,
        help: &'static str,
        factory: impl Fn(Option<&str>) -> Result<Box<dyn Solver>, SolveError> + Send + Sync + 'static,
    ) {
        self.entries.retain(|e| e.family != family);
        self.entries.push(Entry {
            family: family.to_string(),
            help,
            factory: Box::new(factory),
        });
    }

    /// Parses a spec into a boxed solver.
    pub fn parse(&self, spec: &str) -> Result<Box<dyn Solver>, SolveError> {
        let (family, args) = match spec.split_once(':') {
            Some((f, a)) => (f, Some(a)),
            None => (spec, None),
        };
        let entry = self
            .entries
            .iter()
            .find(|e| e.family == family)
            .ok_or_else(|| SolveError::BadSpec {
                spec: spec.to_string(),
                reason: format!(
                    "unknown solver family '{family}'; known: {}",
                    self.entries
                        .iter()
                        .map(|e| e.family.as_str())
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            })?;
        (entry.factory)(args)
    }

    /// `(family, help)` pairs, in registration order.
    pub fn families(&self) -> impl Iterator<Item = (&str, &str)> + '_ {
        self.entries.iter().map(|e| (e.family.as_str(), e.help))
    }
}

fn bad_args(family: &str, args: &str, reason: &str) -> SolveError {
    SolveError::BadSpec {
        spec: format!("{family}:{args}"),
        reason: reason.to_string(),
    }
}

fn parse_procs(family: &'static str, a: Option<&str>) -> Result<Option<u32>, SolveError> {
    match a {
        None => Ok(None),
        Some(p) => {
            let procs: u32 = p
                .parse()
                .map_err(|_| bad_args(family, p, "processor count must be an integer"))?;
            if procs == 0 {
                return Err(bad_args(family, p, "processor count must be >= 1"));
            }
            Ok(Some(procs))
        }
    }
}

fn parse_coarse_args(a: Option<&str>) -> Result<CoarseConfig, SolveError> {
    let Some(args) = a else {
        return Ok(CoarseConfig::default());
    };
    let (k_s, inner_s) = match args.split_once('/') {
        Some((k, inner)) => (k, Some(inner)),
        None => (args, None),
    };
    let k = match k_s {
        "auto" => None,
        other => {
            let k: usize = other.parse().map_err(|_| {
                bad_args("coarse", other, "group count must be an integer or 'auto'")
            })?;
            if k == 0 {
                return Err(bad_args("coarse", other, "group count must be >= 1"));
            }
            Some(k)
        }
    };
    let inner = match inner_s {
        None => CoarseConfig::default().inner,
        Some(spec) => {
            // eager validation: a bad inner spec should fail at parse
            // time, like every other malformed spec
            Registry::with_builtins().parse(spec)?;
            spec.to_string()
        }
    };
    Ok(CoarseConfig { k, inner })
}

fn parse_greedy_args(args: &str) -> Result<GreedyConfig, SolveError> {
    let (rule_s, evict_s) = match args.split_once('/') {
        Some((r, e)) => (r, Some(e)),
        None => (args, None),
    };
    let rule = match rule_s {
        "most-red-inputs" => SelectionRule::MostRedInputs,
        "fewest-blue-inputs" => SelectionRule::FewestBlueInputs,
        "highest-red-ratio" => SelectionRule::HighestRedRatio,
        other => {
            return Err(bad_args(
                "greedy",
                other,
                "rule must be most-red-inputs | fewest-blue-inputs | highest-red-ratio",
            ))
        }
    };
    let eviction = match evict_s {
        None => GreedyConfig::default().eviction,
        Some("min-uses") => EvictionPolicy::MinUses,
        Some("lru") => EvictionPolicy::Lru,
        Some("fifo") => EvictionPolicy::Fifo,
        Some(e) if e.starts_with("random(") && e.ends_with(')') => {
            let seed = e["random(".len()..e.len() - 1]
                .parse()
                .map_err(|_| bad_args("greedy", e, "random eviction seed must be an integer"))?;
            EvictionPolicy::Random(seed)
        }
        Some(other) => {
            return Err(bad_args(
                "greedy",
                other,
                "eviction must be min-uses | lru | fifo | random(SEED)",
            ))
        }
    };
    Ok(GreedyConfig { rule, eviction })
}

/// Parses `spec` against the built-in registry.
pub fn solver(spec: &str) -> Result<Box<dyn Solver>, SolveError> {
    Registry::with_builtins().parse(spec)
}

/// Parses `spec` and solves `instance` with an unlimited budget.
pub fn solve(spec: &str, instance: &Instance) -> Result<Solution, SolveError> {
    solver(spec)?.solve(instance, &SolveCtx::default())
}

/// Parses `spec` and solves `instance` under `ctx`.
pub fn solve_with(spec: &str, instance: &Instance, ctx: &SolveCtx) -> Result<Solution, SolveError> {
    solver(spec)?.solve(instance, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbp_core::{CostModel, Instance};
    use rbp_graph::{generate, DagBuilder};

    fn diamond() -> Instance {
        let mut b = DagBuilder::new(3);
        b.add_edge(0, 2);
        b.add_edge(1, 2);
        Instance::new(b.build().unwrap(), 3, CostModel::oneshot())
    }

    #[test]
    fn every_builtin_family_parses_and_solves() {
        let inst = diamond();
        for spec in [
            "exact",
            "exact:unseeded",
            "exact-parallel",
            "exact-parallel:2",
            "reference",
            "greedy",
            "greedy:most-red-inputs",
            "greedy:fewest-blue-inputs/lru",
            "greedy:highest-red-ratio/fifo",
            "greedy:most-red-inputs/random(7)",
            "beam",
            "beam:4",
            "portfolio",
            "exact@mpp",
            "exact@mpp:2",
            "greedy@mpp",
            "greedy@mpp:2",
            "coarse",
            "coarse:1/exact",
            "coarse:auto/greedy",
        ] {
            let sol = solve(spec, &inst).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(sol.cost.transfers, 0, "{spec}");
        }
    }

    #[test]
    fn solver_specs_round_trip_through_the_registry() {
        // spec → solver → .spec() → solver must be a fixed point after
        // one normalization step (defaults become explicit: `beam` →
        // `beam:8`; the alias `exact-parallel[:N]` → `exact`).
        for spec in [
            "exact",
            "exact:unseeded",
            "exact-parallel",
            "exact-parallel:2",
            "reference",
            "greedy",
            "greedy:most-red-inputs",
            "greedy:fewest-blue-inputs/lru",
            "greedy:highest-red-ratio/fifo",
            "greedy:most-red-inputs/random(7)",
            "beam",
            "beam:4",
            "portfolio",
            "exact@mpp",
            "exact@mpp:2",
            "greedy@mpp",
            "greedy@mpp:4",
            "coarse",
            "coarse:4",
            "coarse:4/greedy",
            "coarse:auto/exact",
        ] {
            let canonical = solver(spec).unwrap().spec();
            let reparsed = solver(&canonical)
                .unwrap_or_else(|e| panic!("{spec} -> {canonical}: {e}"))
                .spec();
            assert_eq!(reparsed, canonical, "canonical specs are fixed points");
        }
        // explicit arguments survive verbatim
        assert_eq!(solver("beam:4").unwrap().spec(), "beam:4");
        assert_eq!(solver("exact-parallel:2").unwrap().spec(), "exact");
        assert_eq!(
            solver("greedy:fewest-blue-inputs/lru").unwrap().spec(),
            "greedy:fewest-blue-inputs/lru"
        );
        assert_eq!(
            solver("greedy").unwrap().spec(),
            "greedy:most-red-inputs/min-uses",
            "defaults are spelled out"
        );
    }

    #[test]
    fn unknown_family_error_names_the_token() {
        let err = solver("exat").err().expect("unknown family is rejected");
        match &err {
            SolveError::BadSpec { reason, .. } => {
                assert!(reason.contains("'exat'"), "{reason}");
                assert!(reason.contains("exact"), "lists known families: {reason}");
            }
            other => panic!("{other:?}"),
        }
        let err = solver("greedy:topo").err().expect("bad rule is rejected");
        match &err {
            SolveError::BadSpec { spec, .. } => assert!(spec.contains("topo"), "{spec}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn malformed_specs_are_bad_spec_errors() {
        for spec in [
            "exat",
            "exact:fast",
            "exact-parallel:many",
            "exact-parallel:0",
            "beam:wide",
            "greedy:topo",
            "greedy:most-red-inputs/arc",
            "portfolio:3",
            "exact@mpp:zero",
            "exact@mpp:0",
            "greedy@mpp:-1",
            "coarse:0",
            "coarse:two",
            "coarse:4/exat",
            "coarse:4/greedy:topo",
        ] {
            assert!(
                matches!(solver(spec), Err(SolveError::BadSpec { .. })),
                "{spec} should be rejected at parse time"
            );
        }
    }

    #[test]
    fn degenerate_numeric_args_fail_at_solve_time() {
        let inst = diamond();
        let s = solver("beam:0").expect("parses");
        assert!(
            matches!(s.solve_default(&inst), Err(SolveError::BadConfig { .. })),
            "beam:0 should be a BadConfig at solve time"
        );
    }

    #[test]
    fn exact_parallel_answers_exactly_like_exact() {
        // a base-model in-tree that forces spills, so the search is real
        let mut b = DagBuilder::new(7);
        for parent in 0..3 {
            b.add_edge(2 * parent + 1, parent);
            b.add_edge(2 * parent + 2, parent);
        }
        let inst = Instance::new(b.build().unwrap(), 3, CostModel::base());
        let doc = |spec| crate::wire::write_solution("exact", &solve(spec, &inst).unwrap());
        let exact = doc("exact");
        for spec in ["exact-parallel", "exact-parallel:2"] {
            assert_eq!(solver(spec).unwrap().spec(), "exact");
            assert_eq!(doc(spec), exact, "{spec}");
        }
    }

    #[test]
    fn custom_families_can_be_registered() {
        let mut r = Registry::with_builtins();
        r.register("always-greedy", "test stub", |_| {
            Ok(Box::new(GreedySolver::new()))
        });
        let s = r.parse("always-greedy").unwrap();
        assert_eq!(s.name(), "greedy");
        assert!(r.families().any(|(f, _)| f == "always-greedy"));
    }

    #[test]
    fn registry_solvers_agree_with_each_other() {
        let mut rng = rand::thread_rng();
        for _ in 0..3 {
            let dag = generate::gnp_dag(7, 0.35, 2, &mut rng);
            let r = dag.max_indegree() + 1;
            let inst = Instance::new(dag, r, CostModel::oneshot());
            let exact = solve("exact", &inst).unwrap();
            let reference = solve("reference", &inst).unwrap();
            assert_eq!(exact.scaled_cost(&inst), reference.scaled_cost(&inst));
            let greedy = solve("greedy", &inst).unwrap();
            assert!(exact.scaled_cost(&inst) <= greedy.scaled_cost(&inst));
        }
    }
}
