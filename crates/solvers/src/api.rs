//! The unified solver interface: one trait, one result shape, one
//! budget/cancellation protocol for every solver in this crate.
//!
//! Papp & Wattenhofer's hardness results mean every solver here is
//! either exact-but-exponential or a heuristic upper bound, so real
//! callers mix them: seed an exact search with a greedy incumbent, fall
//! back to beam when the state space explodes, sweep opt(R) curves.
//! This module gives all of that one calling convention:
//!
//! - [`Solver`]: `solve(&self, &Instance, &SolveCtx) -> Result<Solution,
//!   SolveError>`, implemented by [`ExactSolver`], [`GreedySolver`],
//!   [`BeamSolver`], [`PortfolioSolver`], and the multiprocessor and
//!   coarsening solvers;
//! - [`Solution`]: the engine-validated [`Pebbling`] trace, its exact
//!   [`Cost`], a [`Quality`] provenance tag, and per-solver [`Stats`];
//! - [`SolveCtx`]: a [`Budget`] (wall-clock deadline, expansion cap,
//!   cooperative cancellation flag — checked inside the exact and beam
//!   hot loops) plus an optional [`Progress`] observer.
//!
//! String specs (`"exact"`, `"exact@mpp:2"`, `"beam:256"`, …) map to
//! boxed solvers through [`crate::registry`].
//!
//! Every search runs on the calling thread; only the greedy portfolio
//! (the `portfolio` spec, and the exact solvers' incumbent seed when it
//! escalates) races its members on the shared [`crate::pool`]. A host
//! spends its cores on independent solves instead: the service runs one
//! request per worker, and [`crate::sweep`] solves its R-values on the
//! pool.
//!
//! ## Graceful degradation
//! When a budget expires mid-search, the exact solvers do **not** error:
//! they return the best incumbent known at that point — the cheapest
//! goal configuration discovered, or failing that the greedy seed — as
//! [`Quality::UpperBound`] with a `lower_bound` from
//! [`bounds::best_lower_bound`]. A search that falls back to its seed
//! still reports its `states_expanded`/`states_seen` counters.
//! Only a budgeted solve that holds no incumbent at all (seeding
//! disabled, no goal reached) reports [`SolveError::Interrupted`]. The
//! same degradation covers the [`ExactConfig::max_states`] memory guard
//! when a seed exists.
//!
//! The greedy heuristics ([`GreedySolver`], [`PortfolioSolver`], and the
//! multiprocessor list scheduler) ignore the budget and run to
//! completion, which takes milliseconds to a second on the
//! thousands-of-nodes workloads. [`BeamSolver`] checks the budget per
//! depth but holds no valid partial pebbling, so an expired budget
//! surfaces as [`SolveError::Interrupted`] there.

use crate::beam::{solve_beam_budgeted, BeamConfig};
use crate::error::SolveError;
use crate::exact::{ExactConfig, Search};
use crate::greedy::{solve_greedy_with, GreedyConfig};
use crate::mpp::solve_greedy_mpp;
use crate::portfolio::{default_portfolio, greedy_incumbent, solve_portfolio};
use rbp_core::{bounds, engine, Cost, Instance, Pebbling};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// budget + context
// ---------------------------------------------------------------------

/// Resource limits for one solve. All limits are optional and combine
/// with "whichever trips first"; the default is unlimited.
///
/// The exact and beam hot loops poll the budget once per scheduling
/// quantum (a few hundred expansions, or one beam depth), so expiry is
/// honored within microseconds-to-milliseconds, not per state.
#[derive(Clone, Debug, Default)]
pub struct Budget {
    deadline: Option<Instant>,
    max_expansions: Option<u64>,
    cancel: Option<Arc<AtomicBool>>,
}

impl Budget {
    /// No limits (the default).
    pub fn none() -> Self {
        Budget::default()
    }

    /// Returns a copy with a wall-clock deadline `after` from now.
    pub fn with_deadline(&self, after: Duration) -> Self {
        self.with_deadline_at(Instant::now() + after)
    }

    /// Returns a copy with an absolute wall-clock deadline.
    pub fn with_deadline_at(&self, at: Instant) -> Self {
        let mut b = self.clone();
        b.deadline = Some(at);
        b
    }

    /// Returns a copy capping the number of states the search may expand
    /// (pop and generate successors for). This bounds *work*, unlike
    /// [`ExactConfig::max_states`] which bounds *memory* (interned
    /// states) and is a hard error.
    pub fn with_max_expansions(&self, n: u64) -> Self {
        let mut b = self.clone();
        b.max_expansions = Some(n);
        b
    }

    /// Returns a copy carrying a cooperative cancellation flag. Store
    /// `true` into the flag (from any thread) to stop the solve at its
    /// next budget poll.
    pub fn with_cancel(&self, flag: Arc<AtomicBool>) -> Self {
        let mut b = self.clone();
        b.cancel = Some(flag);
        b
    }

    /// Whether this budget can never trip (fast-path check the hot loops
    /// use to skip the `Instant::now()` call entirely).
    #[inline]
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_expansions.is_none() && self.cancel.is_none()
    }

    /// Whether the budget has tripped, given the number of states
    /// expanded so far.
    #[inline]
    pub fn exhausted(&self, expanded: u64) -> bool {
        if let Some(m) = self.max_expansions {
            if expanded >= m {
                return true;
            }
        }
        if let Some(c) = &self.cancel {
            if c.load(Ordering::Relaxed) {
                return true;
            }
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return true;
            }
        }
        false
    }
}

/// A progress snapshot delivered to the [`SolveCtx`] observer by the
/// exact search.
#[derive(Clone, Copy, Debug)]
pub struct Progress {
    /// Wall-clock time since the search started.
    pub elapsed: Duration,
    /// States expanded so far.
    pub states_expanded: u64,
    /// Expansion throughput since the start.
    pub states_per_sec: u64,
    /// Open states queued in the search frontier.
    pub frontier: usize,
    /// Best known upper bound on the optimal scaled cost, if any.
    pub incumbent: Option<u64>,
}

/// A progress observer: called from inside the solve (possibly on a
/// worker thread of the host, such as a service worker or a sweep point),
/// so it must be `Sync` and should be cheap.
pub type ProgressFn<'a> = dyn Fn(&Progress) + Sync + 'a;

/// Per-solve context: the [`Budget`] plus an optional progress observer.
pub struct SolveCtx<'a> {
    /// Resource limits for this solve.
    pub budget: Budget,
    /// Observer invoked periodically with [`Progress`] snapshots.
    pub progress: Option<&'a ProgressFn<'a>>,
}

impl Default for SolveCtx<'_> {
    fn default() -> Self {
        SolveCtx {
            budget: Budget::none(),
            progress: None,
        }
    }
}

impl<'a> SolveCtx<'a> {
    /// A context with the given budget and no observer.
    pub fn new(budget: Budget) -> Self {
        SolveCtx {
            budget,
            progress: None,
        }
    }

    /// A context with a budget and a progress observer.
    pub fn with_progress(budget: Budget, progress: &'a ProgressFn<'a>) -> Self {
        SolveCtx {
            budget,
            progress: Some(progress),
        }
    }
}

impl fmt::Debug for SolveCtx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SolveCtx")
            .field("budget", &self.budget)
            .field("progress", &self.progress.map(|_| "<observer>"))
            .finish()
    }
}

// ---------------------------------------------------------------------
// solution
// ---------------------------------------------------------------------

/// Provenance of a [`Solution`]: what the reported cost means.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Quality {
    /// The cost is the exact optimum (proved by exhaustive search, or by
    /// a heuristic meeting the structural lower bound).
    Optimal,
    /// The cost is an upper bound; the optimum lies in
    /// `[lower_bound, cost]` (both scaled by the model's ε denominator).
    UpperBound {
        /// A proved lower bound on the optimal scaled cost
        /// ([`bounds::best_lower_bound`]).
        lower_bound: u128,
    },
    /// No pebbling exists (R ≤ Δ). Produced only by
    /// [`Solver::solve_lenient`]; plain [`Solver::solve`] reports
    /// infeasibility as [`SolveError::Pebbling`].
    Infeasible,
}

/// Structured per-solver statistics: a small ordered map of `u64`
/// counters (`"states_expanded"`, `"states_seen"`, `"threads"`,
/// `"width"`, …). One shape for every solver, so report code does not
/// need to know which solver produced a [`Solution`]. Keys are owned
/// strings so stats survive a round trip through the wire format
/// ([`crate::wire`]), where they arrive parsed, not `'static`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Stats(BTreeMap<String, u64>);

impl Stats {
    /// An empty stats map.
    pub fn new() -> Self {
        Stats::default()
    }

    /// Sets one counter (overwriting).
    pub fn set(&mut self, key: impl Into<String>, value: u64) {
        self.0.insert(key.into(), value);
    }

    /// Reads one counter.
    pub fn get(&self, key: &str) -> Option<u64> {
        self.0.get(key).copied()
    }

    /// Iterates `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.0.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Number of counters.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// The one result shape every solver returns: a validated trace, its
/// engine-exact cost, provenance, and stats.
#[derive(Clone, Debug)]
pub struct Solution {
    /// The concrete pebbling. Replayed once through [`engine::simulate`]
    /// before being returned (empty for [`Quality::Infeasible`]).
    pub trace: Pebbling,
    /// The trace's exact cost, as computed by the engine.
    pub cost: Cost,
    /// What the cost means.
    pub quality: Quality,
    /// Per-solver counters.
    pub stats: Stats,
}

impl Solution {
    /// The one constructor every solver answers through: replays `trace`
    /// on the engine and wraps it. The cost is the engine's, so a solver
    /// can never report a cost its trace does not realize. `proved` marks
    /// a trace the solver proved optimal by exhaustive search; any other
    /// answer is bracketed by [`bounds::best_lower_bound`] against the
    /// replayed cost ([`bracket`]).
    pub(crate) fn replay(
        instance: &Instance,
        trace: Pebbling,
        proved: bool,
        stats: Stats,
    ) -> Result<Solution, SolveError> {
        let sim = engine::simulate(instance, &trace).map_err(|e| SolveError::Pebbling(e.error))?;
        let quality = if proved {
            Quality::Optimal
        } else {
            let lower_bound = instance.scaled_cost(&bounds::best_lower_bound(instance));
            bracket(lower_bound, sim.scaled_cost(instance))?
        };
        Ok(Solution {
            trace,
            cost: sim.cost,
            quality,
            stats,
        })
    }

    /// The infeasible marker solution (empty trace, zero cost).
    pub fn infeasible() -> Solution {
        Solution {
            trace: Pebbling::new(),
            cost: Cost::ZERO,
            quality: Quality::Infeasible,
            stats: Stats::new(),
        }
    }

    /// Whether the cost is provably optimal.
    pub fn is_optimal(&self) -> bool {
        self.quality == Quality::Optimal
    }

    /// The scaled cost under the instance's model (the comparison key
    /// all solvers rank by). Multiprocessor instances weigh transfers
    /// and computes by their exact cost-vector weights.
    pub fn scaled_cost(&self, instance: &Instance) -> u128 {
        instance.scaled_cost(&self.cost)
    }

    /// States expanded, when the solver reports it.
    pub fn states_expanded(&self) -> Option<u64> {
        self.stats.get("states_expanded")
    }

    /// Distinct states interned, when the solver reports it.
    pub fn states_seen(&self) -> Option<u64> {
        self.stats.get("states_seen")
    }
}

/// The [`Quality`] of an answer not proved optimal, from a proved lower
/// bound and the answer's replayed cost (both scaled):
/// [`Quality::Optimal`] when the cost meets the bound (the heuristic then
/// *proved* optimality), otherwise an upper bound carrying it. A lower
/// bound above a realized cost is an impossible bracket, so an unsound
/// bound surfaces as [`SolveError::BoundViolation`] instead of a claim.
fn bracket(lower_bound: u128, cost: u128) -> Result<Quality, SolveError> {
    if lower_bound > cost {
        Err(SolveError::BoundViolation { lower_bound, cost })
    } else if lower_bound == cost {
        Ok(Quality::Optimal)
    } else {
        Ok(Quality::UpperBound { lower_bound })
    }
}

// ---------------------------------------------------------------------
// the trait
// ---------------------------------------------------------------------

/// A pebbling solver behind one calling convention.
///
/// Implementations validate their configuration
/// ([`SolveError::BadConfig`] on degenerate values), check feasibility,
/// honor the [`SolveCtx`] budget, and return an engine-validated
/// [`Solution`].
pub trait Solver: Send + Sync {
    /// The solver's registry family name (`"exact"`, `"greedy"`, …).
    fn name(&self) -> &str;

    /// The full registry spec this solver answers to, arguments
    /// included (`"greedy:most-red-inputs/lru"`, `"exact@mpp:2"`).
    /// The string round-trips: feeding it back through
    /// [`crate::registry::solver`] yields an equivalently configured
    /// solver, so services and stats reports can record *exactly* which
    /// configuration produced a result. Defaults to [`Solver::name`]
    /// for argument-free solvers.
    fn spec(&self) -> String {
        self.name().to_string()
    }

    /// The problem this solver pebbles when handed `instance`, the one
    /// its answer is keyed, priced and certified against: the instance
    /// itself, or (`exact@mpp:P`, `greedy@mpp:P`) its `:P` lift.
    fn problem(&self, instance: &Instance) -> Instance {
        instance.clone()
    }

    /// Solves the instance under the given context.
    fn solve(&self, instance: &Instance, ctx: &SolveCtx) -> Result<Solution, SolveError>;

    /// Solves with an unlimited budget and no observer.
    fn solve_default(&self, instance: &Instance) -> Result<Solution, SolveError> {
        self.solve(instance, &SolveCtx::default())
    }

    /// Like [`Solver::solve`], but reports an infeasible instance as
    /// [`Quality::Infeasible`] instead of an error — the shape a service
    /// endpoint wants, where infeasibility is a payload, not a fault.
    fn solve_lenient(&self, instance: &Instance, ctx: &SolveCtx) -> Result<Solution, SolveError> {
        match self.solve(instance, ctx) {
            Err(SolveError::Pebbling(_)) => Ok(Solution::infeasible()),
            other => other,
        }
    }
}

/// Renders a caught panic payload for logs: the common `&str`/`String`
/// payloads verbatim, anything else as an opaque marker.
pub fn panic_payload_to_string(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

// ---------------------------------------------------------------------
// exact
// ---------------------------------------------------------------------

/// The exact solver ([`crate::exact`]) behind the [`Solver`] trait:
/// optimal pebbling via Dijkstra/A*, seeded with a greedy incumbent by
/// default, budget-aware with graceful degradation. The registry builds
/// it for `exact`, `exact:unseeded`, `reference` and the `exact-parallel`
/// alias.
#[derive(Clone, Copy, Debug)]
pub struct ExactSolver {
    /// The search knobs.
    pub cfg: ExactConfig,
    /// Seed the incumbent bound (and the degradation fallback) from a
    /// cost-staged greedy portfolio before searching.
    pub seed_incumbent: bool,
}

impl Default for ExactSolver {
    fn default() -> Self {
        ExactSolver {
            cfg: ExactConfig::default(),
            seed_incumbent: true,
        }
    }
}

impl ExactSolver {
    /// Default configuration (pruned, A*, greedy-seeded).
    pub fn new() -> Self {
        ExactSolver::default()
    }

    /// Custom [`ExactConfig`], still greedy-seeded.
    pub fn with_config(cfg: ExactConfig) -> Self {
        ExactSolver {
            cfg,
            seed_incumbent: true,
        }
    }

    /// Returns a copy with incumbent seeding disabled (deterministic
    /// search-effort comparisons; no degradation fallback).
    pub fn unseeded(&self) -> Self {
        ExactSolver {
            seed_incumbent: false,
            ..*self
        }
    }

    /// The brute-force reference: no pruning, no heuristic, no seed.
    /// Exponentially slower; only for cross-validation on tiny
    /// instances.
    pub fn reference() -> Self {
        ExactSolver {
            cfg: ExactConfig {
                max_states: 4_000_000,
                prune: false,
                astar: false,
                upper_bound: None,
            },
            seed_incumbent: false,
        }
    }
}

/// The exact-path plumbing every exact-family spec shares: seed, search,
/// degrade. `planes` is the number of red planes searched — 1 for the
/// classic game, the processor count for `exact@mpp` — and the answer is
/// [`Quality::Optimal`] only when the search covered every processor
/// (`planes == instance.procs()`).
pub(crate) fn run_exact_family(
    instance: &Instance,
    mut cfg: ExactConfig,
    planes: usize,
    seed_incumbent: bool,
    ctx: &SolveCtx,
) -> Result<Solution, SolveError> {
    cfg.validate()?;
    bounds::check_feasible(instance)?;
    // the incumbent, and the fallback of a search that ends without a
    // goal: the list scheduler over several planes, else the cost-staged
    // single-processor greedy
    let seed: Option<Pebbling> = match (seed_incumbent && cfg.prune, planes) {
        (false, _) => None,
        (true, 1) => greedy_incumbent(instance),
        (true, _) => solve_greedy_mpp(instance).ok(),
    };
    if let Some(trace) = &seed {
        cfg.seed_with(instance, &trace.stats().cost());
    }
    let mut search = Search::new(instance, cfg, planes);
    let searched = search.run(ctx);
    let (trace, optimal) = match (searched, seed) {
        (Ok(found), _) => found,
        // budget expired (or the memory guard tripped) before any goal
        // was reached: fall back to the greedy incumbent's trace, still
        // reporting the work the search did (a seed that meets the lower
        // bound genuinely is optimal)
        (Err(SolveError::Interrupted | SolveError::StateLimitExceeded { .. }), Some(seed)) => {
            (seed, false)
        }
        (Err(e), _) => return Err(e),
    };
    let (expanded, seen) = search.counters();
    let mut stats = Stats::new();
    stats.set("states_expanded", expanded as u64);
    stats.set("states_seen", seen as u64);
    if !optimal {
        stats.set("degraded", 1);
    }
    // a search over fewer planes than processors only proves the
    // single-processor optimum, which the multiprocessor one can undercut
    Solution::replay(
        instance,
        trace,
        optimal && planes == instance.procs(),
        stats,
    )
}

impl Solver for ExactSolver {
    fn name(&self) -> &str {
        if self.cfg.prune || self.cfg.astar {
            "exact"
        } else {
            "reference"
        }
    }

    fn spec(&self) -> String {
        match (self.name(), self.seed_incumbent) {
            ("reference", _) => "reference".to_string(),
            (_, true) => "exact".to_string(),
            (_, false) => "exact:unseeded".to_string(),
        }
    }

    fn solve(&self, instance: &Instance, ctx: &SolveCtx) -> Result<Solution, SolveError> {
        let mut sol = run_exact_family(instance, self.cfg, 1, self.seed_incumbent, ctx)?;
        sol.stats.set("threads", 1);
        Ok(sol)
    }
}

// ---------------------------------------------------------------------
// heuristics
// ---------------------------------------------------------------------

/// One greedy rule × eviction policy ([`crate::greedy`]) behind the
/// [`Solver`] trait. Single-pass and quadratic in the node count: about
/// 155 ms on the 8448-node matmul16 under the Hong–Kung conventions at
/// R = 4 (the `heuristic_parity` cell of `cargo bench -p rbp-bench
/// --bench bench_solvers`, median of ten runs on a 2-core host). It
/// ignores the budget and runs to completion.
#[derive(Clone, Copy, Debug, Default)]
pub struct GreedySolver {
    /// Selection rule and eviction policy.
    pub cfg: GreedyConfig,
}

impl GreedySolver {
    /// The default rule (most-red-inputs + min-uses).
    pub fn new() -> Self {
        GreedySolver::default()
    }

    /// A specific greedy configuration.
    pub fn with_config(cfg: GreedyConfig) -> Self {
        GreedySolver { cfg }
    }
}

impl Solver for GreedySolver {
    fn name(&self) -> &str {
        "greedy"
    }

    fn spec(&self) -> String {
        format!("greedy:{}", self.cfg)
    }

    fn solve(&self, instance: &Instance, _ctx: &SolveCtx) -> Result<Solution, SolveError> {
        let trace = solve_greedy_with(instance, self.cfg)?;
        Solution::replay(instance, trace, false, Stats::new())
    }
}

/// Beam search ([`crate::beam`]) behind the [`Solver`] trait. The budget
/// is checked once per depth; an expired budget is
/// [`SolveError::Interrupted`] (a partial beam holds no valid pebbling
/// to degrade to).
#[derive(Clone, Copy, Debug, Default)]
pub struct BeamSolver {
    /// Beam width.
    pub cfg: BeamConfig,
}

impl BeamSolver {
    /// Default width (8).
    pub fn new() -> Self {
        BeamSolver::default()
    }
}

impl Solver for BeamSolver {
    fn name(&self) -> &str {
        "beam"
    }

    fn spec(&self) -> String {
        format!("beam:{}", self.cfg.width)
    }

    fn solve(&self, instance: &Instance, ctx: &SolveCtx) -> Result<Solution, SolveError> {
        let trace = solve_beam_budgeted(instance, self.cfg, ctx)?;
        let mut stats = Stats::new();
        stats.set("width", self.cfg.width as u64);
        Solution::replay(instance, trace, false, stats)
    }
}

/// Best-of-greedy portfolio ([`crate::portfolio`]) behind the [`Solver`]
/// trait: every configuration runs on the shared work-queue pool, the
/// cheapest valid pebbling wins. Like [`GreedySolver`] it ignores the
/// budget.
#[derive(Clone, Debug)]
pub struct PortfolioSolver {
    /// The greedy configurations raced against each other.
    pub configs: Vec<GreedyConfig>,
}

impl Default for PortfolioSolver {
    fn default() -> Self {
        PortfolioSolver {
            configs: default_portfolio(),
        }
    }
}

impl PortfolioSolver {
    /// The default nine-member portfolio (3 rules × 3 deterministic
    /// eviction policies).
    pub fn new() -> Self {
        PortfolioSolver::default()
    }
}

impl Solver for PortfolioSolver {
    fn name(&self) -> &str {
        "portfolio"
    }

    fn solve(&self, instance: &Instance, _ctx: &SolveCtx) -> Result<Solution, SolveError> {
        if self.configs.is_empty() {
            return Err(SolveError::BadConfig {
                reason: "portfolio has no configurations".into(),
            });
        }
        let (winner, trace) = solve_portfolio(instance, &self.configs)?;
        let mut stats = Stats::new();
        stats.set("portfolio_size", self.configs.len() as u64);
        stats.set("winner_index", winner as u64);
        Solution::replay(instance, trace, false, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbp_core::CostModel;
    use rbp_graph::{generate, DagBuilder};

    fn diamond() -> Instance {
        let mut b = DagBuilder::new(3);
        b.add_edge(0, 2);
        b.add_edge(1, 2);
        Instance::new(b.build().unwrap(), 3, CostModel::oneshot())
    }

    #[test]
    fn exact_solver_reports_optimal_quality() {
        let sol = ExactSolver::new().solve_default(&diamond()).unwrap();
        assert!(sol.is_optimal());
        assert_eq!(sol.cost.transfers, 0);
        assert!(sol.states_expanded().unwrap() >= 1);
        assert_eq!(sol.stats.get("threads"), Some(1));
    }

    #[test]
    fn heuristics_report_upper_bound_or_proved_optimal() {
        let inst = diamond();
        let sol = GreedySolver::new().solve_default(&inst).unwrap();
        // cost 0 meets the trivial lower bound, so the greedy proof
        // upgrades to Optimal
        assert!(sol.is_optimal());
        let mut rng = rand::thread_rng();
        let dag = generate::layered(4, 4, 2, &mut rng);
        let inst = Instance::new(dag, 3, CostModel::oneshot());
        let sol = GreedySolver::new().solve_default(&inst).unwrap();
        match sol.quality {
            Quality::Optimal => {}
            Quality::UpperBound { lower_bound } => {
                assert!(lower_bound <= sol.scaled_cost(&inst));
            }
            Quality::Infeasible => panic!("feasible instance"),
        }
    }

    #[test]
    fn lenient_solve_maps_infeasibility_to_quality() {
        let inst = Instance::new(generate::chain(3), 1, CostModel::oneshot());
        let sol = ExactSolver::new()
            .solve_lenient(&inst, &SolveCtx::default())
            .unwrap();
        assert_eq!(sol.quality, Quality::Infeasible);
        assert!(matches!(
            ExactSolver::new().solve_default(&inst),
            Err(SolveError::Pebbling(_))
        ));
    }

    #[test]
    fn first_computations_follow_a_topological_order() {
        let inst = Instance::new(generate::chain(5), 2, CostModel::oneshot());
        let sol = GreedySolver::new().solve_default(&inst).unwrap();
        let order = sol.trace.first_computations();
        assert_eq!(order.len(), 5);
        assert!(rbp_graph::is_topological_order(inst.dag(), &order));
    }

    #[test]
    fn pre_cancelled_budget_degrades_to_greedy_incumbent() {
        let flag = Arc::new(AtomicBool::new(true));
        let ctx = SolveCtx::new(Budget::none().with_cancel(flag));
        let mut rng = rand::thread_rng();
        let dag = generate::layered(4, 4, 3, &mut rng);
        let inst = Instance::new(dag, 5, CostModel::oneshot());
        let sol = ExactSolver::new().solve(&inst, &ctx).unwrap();
        // must degrade, not error, and the fallback must be valid
        assert_eq!(sol.stats.get("degraded"), Some(1));
        assert!(engine::simulate(&inst, &sol.trace).is_ok());
    }

    #[test]
    fn interrupted_without_incumbent_is_an_error() {
        let flag = Arc::new(AtomicBool::new(true));
        let ctx = SolveCtx::new(Budget::none().with_cancel(flag));
        let mut rng = rand::thread_rng();
        let dag = generate::layered(4, 4, 3, &mut rng);
        let inst = Instance::new(dag, 5, CostModel::oneshot());
        let res = ExactSolver::new().unseeded().solve(&inst, &ctx);
        assert_eq!(res.unwrap_err(), SolveError::Interrupted);
    }

    #[test]
    fn max_expansion_budget_is_honored() {
        let ctx = SolveCtx::new(Budget::none().with_max_expansions(8));
        let mut rng = rand::thread_rng();
        let dag = generate::layered(4, 4, 3, &mut rng);
        let inst = Instance::new(dag, 5, CostModel::oneshot());
        let sol = ExactSolver::new().solve(&inst, &ctx).unwrap();
        assert!(engine::simulate(&inst, &sol.trace).is_ok());
    }

    #[test]
    fn impossible_bound_bracket_rejected_at_construction() {
        // a lower bound of 7 on a cost-0 trace is an impossible bracket
        // and must be refused with the structured error
        assert_eq!(
            bracket(7, 0).unwrap_err(),
            SolveError::BoundViolation {
                lower_bound: 7,
                cost: 0
            }
        );
        // a consistent bracket passes, and a met bound proves optimality
        assert_eq!(bracket(0, 3), Ok(Quality::UpperBound { lower_bound: 0 }));
        assert_eq!(bracket(3, 3), Ok(Quality::Optimal));
        // 0 -> 1, R = 2: computing both nodes costs 0 transfers, which
        // meets the structural bound, so even an unproved replay is optimal
        let mut b = DagBuilder::new(2);
        b.add_edge(0, 1);
        let inst = Instance::new(b.build().unwrap(), 2, CostModel::oneshot());
        let mut trace = Pebbling::new();
        trace.compute(rbp_graph::NodeId::new(0));
        trace.compute(rbp_graph::NodeId::new(1));
        let sol = Solution::replay(&inst, trace, false, Stats::new()).unwrap();
        assert!(sol.is_optimal());
    }

    #[test]
    fn progress_observer_sees_monotone_counters() {
        use std::sync::Mutex;
        let seen: Mutex<Vec<u64>> = Mutex::new(Vec::new());
        let observer = |p: &Progress| seen.lock().unwrap().push(p.states_expanded);
        let ctx = SolveCtx::with_progress(Budget::none(), &observer);
        // a height-3 binary in-tree at R=3 forces a real (but small)
        // search under base; whether the observer fires depends on the
        // progress interval — the contract under test is monotonicity
        // and that observing never corrupts the solve
        let mut b = DagBuilder::new(15);
        for parent in 0..7 {
            b.add_edge(2 * parent + 1, parent);
            b.add_edge(2 * parent + 2, parent);
        }
        let inst = Instance::new(b.build().unwrap(), 3, CostModel::base());
        let sol = ExactSolver::new().unseeded().solve(&inst, &ctx).unwrap();
        assert!(sol.is_optimal());
        let seen = seen.into_inner().unwrap();
        assert!(seen.windows(2).all(|w| w[0] <= w[1]), "monotone progress");
    }
}
